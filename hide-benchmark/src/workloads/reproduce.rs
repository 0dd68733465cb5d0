//! `paper-reproduce`: the `reproduce all` sequence, in process — every
//! table and figure of the paper plus the extensions and the policy
//! matrix, over five canonical 2700 s traces generated from the seed.
//! The sim, energy, traces and analysis layers do the work; fleet
//! export and the daemon are never touched.

use super::{ms, timed_loop, JOBS};
use crate::{Metric, Outcome, RunOpts};
use hide::analysis::delay::measure_host_costs;
use hide::energy::profile::{GALAXY_S4, NEXUS_ONE};
use hide::obs::Recorder;
use hide::traces::record::Trace;
use hide::traces::scenario::Scenario;
use hide::HideError;
use hide_bench as harness;
use std::time::Instant;

/// Trace generations per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The layers a pass splits into, one timer around each public call.
const LAYERS: [&str; 8] = [
    "bench.tables_ms",
    "sim.fig7_ms",
    "sim.fig8_ms",
    "sim.fig9_ms",
    "analysis.fig10_12_ms",
    "analysis.host_costs_ms",
    "bench.extensions_ms",
    "policy.matrix_ms",
];

/// Per-layer nanoseconds of one pass; reads no clock when off.
struct Spans {
    on: bool,
    ns: [u64; LAYERS.len()],
}

impl Spans {
    fn span<R>(&mut self, layer: usize, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns[layer] += t.elapsed().as_nanos() as u64;
        r
    }
}

/// One `reproduce all` pass: the report text plus the deterministic
/// `hide-metrics/1` document of its simulations. The host-costs
/// section is a live wall-clock measurement, so it runs but stays out
/// of the text.
fn pass(traces: &[Trace], seed: u64, spans: &mut Spans) -> Result<String, HideError> {
    let mut rec = Recorder::new();
    let mut out = spans.span(0, || {
        [
            harness::table_1(),
            harness::table_2(),
            harness::figure_6(traces),
        ]
        .concat()
    });
    out += &spans.span(1, || {
        harness::figure_7_or_8_with(NEXUS_ONE, traces, &mut rec)
    })?;
    out += &spans.span(2, || {
        harness::figure_7_or_8_with(GALAXY_S4, traces, &mut rec)
    })?;
    out += &spans.span(3, || harness::figure_9_with(traces, &mut rec))?;
    out += &spans.span(4, || {
        [
            harness::figure_10(),
            harness::figure_11(),
            harness::figure_12(),
        ]
        .concat()
    });
    std::hint::black_box(spans.span(5, || measure_host_costs(50, seed)));
    out += &spans.span(6, || harness::extensions_with(traces, &mut rec));
    out += &spans.span(7, || harness::policy_matrix_with(None, None, &mut rec))?;
    out += &rec.to_json();
    Ok(out)
}

/// Runs the workload: one sequential reference pass, warm-up passes,
/// the trace set-up, then timed passes on [`JOBS`] workers. Every pass
/// is compared byte for byte with the reference.
///
/// # Errors
///
/// Returns the first layer error a pass raised.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let trace_secs = if opts.quick {
        60.0
    } else {
        harness::TRACE_DURATION_SECS
    };
    let traces = Scenario::generate_all(trace_secs, opts.seed);
    let mut spans = Spans {
        on: false,
        ns: [0; LAYERS.len()],
    };
    hide_par::set_default_jobs(1);
    let reference = pass(&traces, opts.seed, &mut spans).map_err(|e| e.to_string())?;
    hide_par::set_default_jobs(JOBS);

    let mut out = Outcome::default();
    let tally = |out: &mut Outcome, text: &str| {
        out.attempted += 1;
        if text != reference {
            out.failed += 1;
        }
    };
    timed_loop(opts.warm_up_secs(), 1, || {
        tally(&mut out, &pass(&traces, opts.seed, &mut spans)?);
        Ok::<f64, HideError>(0.0)
    })
    .map_err(|e| e.to_string())?;
    let mut setup = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let again = Scenario::generate_all(trace_secs, opts.seed);
        setup.push(t.elapsed().as_secs_f64());
        out.check(again == traces, || {
            "trace generation is not deterministic".into()
        });
    }

    spans.on = opts.trace;
    let mut layers: Vec<Vec<f64>> = vec![Vec::new(); LAYERS.len()];
    let mut residual = Vec::new();
    let walls = timed_loop(opts.seconds, if opts.quick { 2 } else { 10 }, || {
        spans.ns = [0; LAYERS.len()];
        let t = Instant::now();
        let text = pass(&traces, opts.seed, &mut spans)?;
        let wall = t.elapsed().as_secs_f64();
        tally(&mut out, &text);
        let spanned: u64 = spans.ns.iter().sum();
        for (samples, ns) in layers.iter_mut().zip(spans.ns) {
            samples.push(ns as f64 / 1e6);
        }
        residual.push(ms(wall) - spanned as f64 / 1e6);
        Ok::<f64, HideError>(wall)
    })
    .map_err(|e| e.to_string())?;
    let (failed, attempted) = (out.failed, out.attempted);
    out.check(failed == 0, || {
        format!("{failed} of {attempted} passes differ from the sequential reference")
    });

    let passes_ms: Vec<f64> = walls.iter().map(|&w| ms(w)).collect();
    if opts.trace {
        let setup_ms = setup.iter().map(|&s| ms(s)).collect();
        out.push(Metric::samples("traces.generate_ms", "ms", setup_ms));
        for (name, samples) in LAYERS.iter().zip(layers) {
            out.push(Metric::samples(*name, "ms", samples));
        }
        out.push(Metric::samples("reproduce.pass_ms", "ms", passes_ms));
        out.push(Metric::samples("reproduce.residual_ms", "ms", residual));
    } else {
        out.push(Metric::samples("setup_s", "s", setup));
        out.push(Metric::value(
            "work_per_s",
            "1/s",
            walls.len() as f64 / walls.iter().sum::<f64>(),
        ));
        out.push(Metric::samples("op_p50_ms", "ms", passes_ms));
    }
    Ok(out)
}
