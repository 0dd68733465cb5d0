//! One Criterion bench per table/figure: times the computation that
//! regenerates each result and prints the headline numbers once, so
//! `cargo bench` doubles as a quick reproduction pass (short traces;
//! the `reproduce` binary runs the canonical 45-minute ones).

use criterion::{criterion_group, criterion_main, Criterion};
use hide_analysis::capacity::{CapacityAnalysis, NetworkConfig};
use hide_analysis::delay::{DelayAnalysis, DelayConfig};
use hide_energy::profile::{GALAXY_S4, NEXUS_ONE};
use hide_obs::{NoopSink, Recorder};
use hide_sim::experiment::{self, PAPER_FRACTIONS};
use hide_sim::solution::Solution;
use hide_sim::SimulationBuilder;
use hide_traces::record::Trace;
use hide_traces::scenario::Scenario;
use std::hint::black_box;

const BENCH_TRACE_SECS: f64 = 120.0;

fn bench_traces() -> Vec<Trace> {
    Scenario::generate_all(BENCH_TRACE_SECS, 2016)
}

fn table1_table2(c: &mut Criterion) {
    // Tables I/II are constant renders; benching them checks the
    // formatting path stays trivial.
    c.bench_function("table1_render", |b| {
        b.iter(|| black_box(hide_bench::table_1()))
    });
    c.bench_function("table2_render", |b| {
        b.iter(|| black_box(hide_bench::table_2()))
    });
}

fn fig6_trace_cdf(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    for scenario in Scenario::ALL {
        group.bench_function(format!("generate_{scenario}"), |b| {
            b.iter(|| black_box(scenario.generate(BENCH_TRACE_SECS, 2016)))
        });
    }
    let traces = bench_traces();
    group.bench_function("volume_stats", |b| {
        b.iter(|| black_box(experiment::trace_volumes(&traces)))
    });
    group.finish();
}

fn fig7_energy_nexus(c: &mut Criterion) {
    let traces = bench_traces();
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    group.bench_function("energy_comparison_nexus_one", |b| {
        b.iter(|| {
            black_box(experiment::energy_comparison(
                NEXUS_ONE,
                &traces,
                &PAPER_FRACTIONS,
                &mut Recorder::new(),
            ))
        })
    });
    group.finish();
}

fn fig8_energy_s4(c: &mut Criterion) {
    let traces = bench_traces();
    let mut group = c.benchmark_group("fig8");
    group.sample_size(10);
    group.bench_function("energy_comparison_galaxy_s4", |b| {
        b.iter(|| {
            black_box(experiment::energy_comparison(
                GALAXY_S4,
                &traces,
                &PAPER_FRACTIONS,
                &mut Recorder::new(),
            ))
        })
    });
    group.finish();
}

fn fig9_suspend_fraction(c: &mut Criterion) {
    let traces = bench_traces();
    let mut group = c.benchmark_group("fig9");
    group.sample_size(10);
    group.bench_function("suspend_fractions", |b| {
        b.iter(|| {
            black_box(experiment::suspend_fractions(
                NEXUS_ONE,
                &traces,
                &mut Recorder::new(),
            ))
        })
    });
    group.finish();
}

fn fig10_capacity(c: &mut Criterion) {
    let analysis = CapacityAnalysis::new(NetworkConfig::table_ii());
    c.bench_function("fig10/bianchi_point_n50", |b| {
        b.iter(|| black_box(analysis.point(50, 0.75).unwrap()))
    });
    c.bench_function("fig10/full_sweep", |b| {
        b.iter(|| black_box(analysis.figure_10().unwrap()))
    });
}

fn fig11_fig12_delay(c: &mut Criterion) {
    let analysis = DelayAnalysis::new(DelayConfig::default());
    c.bench_function("fig11/interval_sweep", |b| {
        b.iter(|| black_box(analysis.figure_11()))
    });
    c.bench_function("fig12/port_sweep", |b| {
        b.iter(|| black_box(analysis.figure_12()))
    });
}

fn single_simulation(c: &mut Criterion) {
    // The innermost unit of Figs. 7-9: one trace, one solution.
    let trace = Scenario::Wml.generate(BENCH_TRACE_SECS, 2016);
    let mut group = c.benchmark_group("simulation");
    for (name, solution) in [
        ("receive_all", Solution::ReceiveAll),
        ("client_side", Solution::client_side_lower_bound()),
        ("hide_10pct", Solution::hide(0.10)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    SimulationBuilder::new(&trace, NEXUS_ONE)
                        .solution(solution)
                        .run(NoopSink)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    figures,
    table1_table2,
    fig6_trace_cdf,
    fig7_energy_nexus,
    fig8_energy_s4,
    fig9_suspend_fraction,
    fig10_capacity,
    fig11_fig12_delay,
    single_simulation
);
criterion_main!(figures);
