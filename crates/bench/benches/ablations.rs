//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * BTIM bitmap compression vs. shipping the full 251-byte bitmap
//!   (beacon overhead bytes);
//! * port-based vs. Bernoulli useful-marking (energy result must not
//!   hinge on the port structure);
//! * UDP Port Message interval sweep (energy overhead vs. delay
//!   overhead trade-off).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hide_analysis::delay::{DelayAnalysis, DelayConfig};
use hide_energy::profile::NEXUS_ONE;
use hide_obs::NoopSink;
use hide_sim::simulation::MarkingStrategy;
use hide_sim::solution::Solution;
use hide_sim::SimulationBuilder;
use hide_traces::scenario::Scenario;
use hide_wifi::bitmap::PartialVirtualBitmap;
use hide_wifi::ie::Btim;
use hide_wifi::mac::Aid;
use std::hint::black_box;

fn btim_compression(c: &mut Criterion) {
    // A realistic sparse flag set: 8 of 50 clients flagged.
    let mut flags = PartialVirtualBitmap::new();
    for v in [3u16, 7, 12, 19, 23, 31, 40, 48] {
        flags.set(Aid::new(v).unwrap());
    }
    let btim = Btim::new(flags);
    let compressed = btim.encode_body().len();
    let full = 1 + hide_wifi::bitmap::VIRTUAL_BITMAP_BYTES;
    println!(
        "[ablation] BTIM body: compressed {compressed} B vs full bitmap {full} B \
         ({}x smaller)",
        full / compressed.max(1)
    );
    c.bench_function("ablation/btim_encode_compressed", |b| {
        b.iter(|| black_box(btim.encode_body()))
    });
    // The uncompressed strawman: serialize all 251 bytes.
    c.bench_function("ablation/btim_encode_full_strawman", |b| {
        b.iter(|| {
            let mut body = Vec::with_capacity(full);
            body.push(0u8);
            for v in 1..=hide_wifi::mac::MAX_AID {
                let aid = Aid::new(v).unwrap();
                let _ = aid;
            }
            body.resize(full, 0);
            black_box(body)
        })
    });
}

fn marking_strategies(c: &mut Criterion) {
    let trace = Scenario::CsDept.generate(300.0, 2016);
    let mut group = c.benchmark_group("ablation/marking");
    group.sample_size(10);
    for (name, strategy) in [
        ("port_based", MarkingStrategy::PortBased),
        ("bernoulli", MarkingStrategy::Bernoulli { seed: 9 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    SimulationBuilder::new(&trace, NEXUS_ONE)
                        .solution(Solution::hide(0.10))
                        .marking(strategy)
                        .run(NoopSink)
                        .unwrap(),
                )
            })
        });
    }
    // Print the energy agreement once.
    let pb = SimulationBuilder::new(&trace, NEXUS_ONE)
        .solution(Solution::hide(0.10))
        .run(NoopSink)
        .unwrap();
    let bn = SimulationBuilder::new(&trace, NEXUS_ONE)
        .solution(Solution::hide(0.10))
        .marking(MarkingStrategy::Bernoulli { seed: 9 })
        .run(NoopSink)
        .unwrap();
    println!(
        "[ablation] HIDE:10% avg power, port-based {:.1} mW vs bernoulli {:.1} mW",
        pb.energy.average_power_mw(),
        bn.energy.average_power_mw()
    );
    group.finish();
}

fn sync_interval_tradeoff(c: &mut Criterion) {
    let trace = Scenario::CsDept.generate(300.0, 2016);
    let mut group = c.benchmark_group("ablation/sync_interval");
    group.sample_size(10);
    println!("[ablation] sync interval: energy overhead (mW) vs delay overhead (%)");
    for interval in [1.0f64, 10.0, 60.0, 600.0] {
        let sim = SimulationBuilder::new(&trace, NEXUS_ONE)
            .solution(Solution::hide(0.10))
            .sync_interval_secs(interval)
            .run(NoopSink)
            .unwrap();
        let cfg = DelayConfig {
            sync_interval_secs: interval,
            ..DelayConfig::default()
        };
        let delay = DelayAnalysis::new(cfg).point(50);
        println!(
            "[ablation]   1/f={interval:>5}s: Eo/T = {:.3} mW, rtt +{:.3}%",
            sim.energy.breakdown.overhead / sim.energy.duration * 1e3,
            delay.overhead * 100.0
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(interval as u64),
            &interval,
            |b, &interval| {
                b.iter(|| {
                    black_box(
                        SimulationBuilder::new(&trace, NEXUS_ONE)
                            .solution(Solution::hide(0.10))
                            .sync_interval_secs(interval)
                            .run(NoopSink)
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn dtim_period_batching(c: &mut Criterion) {
    // AP-side delivery batching: larger DTIM periods coalesce wake-ups
    // at the cost of delivery latency.
    let trace = Scenario::Classroom.generate(300.0, 2016);
    let mut group = c.benchmark_group("ablation/dtim_period");
    group.sample_size(10);
    println!("[ablation] DTIM period: receive-all avg power");
    for period in [1u8, 2, 3, 5] {
        let r = SimulationBuilder::new(&trace, NEXUS_ONE)
            .dtim_period(period)
            .run(NoopSink)
            .unwrap();
        println!(
            "[ablation]   period {period}: {:.1} mW, {} wake cycles",
            r.energy.average_power_mw(),
            r.energy.resume_count
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(period),
            &period,
            |b, &period| {
                b.iter(|| {
                    black_box(
                        SimulationBuilder::new(&trace, NEXUS_ONE)
                            .dtim_period(period)
                            .run(NoopSink)
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn hybrid_vs_pure(c: &mut Criterion) {
    // The future-work combination: how much of HIDE:4%'s saving does
    // hybrid(10%,4%) recover when the AP's port filter is coarse?
    let trace = Scenario::Wml.generate(300.0, 2016);
    let mut group = c.benchmark_group("ablation/hybrid");
    group.sample_size(10);
    for (name, solution) in [
        ("hide_10", Solution::hide(0.10)),
        ("hybrid_10_4", Solution::hybrid(0.10, 0.04)),
        ("hide_4", Solution::hide(0.04)),
    ] {
        let r = SimulationBuilder::new(&trace, NEXUS_ONE)
            .solution(solution)
            .run(NoopSink)
            .unwrap();
        println!(
            "[ablation] {name}: {:.1} mW ({} received, {} woke)",
            r.energy.average_power_mw(),
            r.received_frames,
            r.wake_frames
        );
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
    ablations,
    btim_compression,
    marking_strategies,
    sync_interval_tradeoff,
    dtim_period_batching,
    hybrid_vs_pure
);
criterion_main!(ablations);
