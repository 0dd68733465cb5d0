//! `fleet-churn` and `fleet-export`: the discrete-event fleet engine.
//!
//! * `fleet-churn` runs the in-memory fleet under the heavy churn of
//!   the `fleet_sim` defaults: port-table writes (refresh, churn) and
//!   the timing wheel dominate, and nothing spills.
//! * `fleet-export` runs the streamed pipeline over dense WML traffic:
//!   the kernel side is read-heavy (DTIM sweeps, arrivals) and the
//!   spill, k-way merge and JSONL render take most of each iteration.
//!
//! One iteration is one fleet run plus rendering its `hide-metrics/1`
//! artifact; every iteration's artifact must equal the first one's
//! byte for byte.

use super::{ms, timed_loop, JOBS};
use crate::{Metric, Outcome, RunOpts};
use hide::fleet::{
    ChurnConfig, FleetConfig, FleetError, FleetResult, FleetStage, StageProfile,
    StreamExportConfig, StreamSinks,
};
use hide::obs::{Counter, HashingWriter};
use hide::traces::scenario::Scenario;
use std::io;
use std::time::Instant;

/// Zero-horizon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Horizon of a set-up run: valid, but too short for any DTIM, so the
/// run is engine construction (client sampling, association, initial
/// schedule) plus the merge.
const SETUP_HORIZON_SECS: f64 = 1e-3;
/// Where `fleet-export` spills, relative to the working directory.
pub const SPILL_DIR: &str = ".bench_run";

/// 1500 BSS × 100 clients under the `fleet_sim` churn defaults.
fn churn_config(seed: u64, quick: bool) -> FleetConfig {
    FleetConfig {
        bss_count: if quick { 40 } else { 1500 },
        clients_per_bss: if quick { 20 } else { 100 },
        adoption: 0.75,
        duration_secs: if quick { 20.0 } else { 60.0 },
        scenario: Scenario::Starbucks,
        seed,
        churn: ChurnConfig {
            mean_present_secs: 120.0,
            mean_absent_secs: 30.0,
            mean_active_secs: 10.0,
            mean_suspended_secs: 45.0,
            refresh_interval_secs: 5.0,
            refresh_loss: 0.1,
            port_churn: 0.2,
            stale_timeout_secs: 12.0,
            ..ChurnConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// 250 BSS × 100 clients of WML traffic, default churn with 30 s
/// refreshes and a 90 s stale timeout.
fn export_config(seed: u64, quick: bool) -> FleetConfig {
    FleetConfig {
        bss_count: if quick { 20 } else { 250 },
        clients_per_bss: if quick { 20 } else { 100 },
        duration_secs: if quick { 20.0 } else { 60.0 },
        scenario: Scenario::Wml,
        seed,
        churn: ChurnConfig {
            refresh_interval_secs: 30.0,
            stale_timeout_secs: 90.0,
            ..ChurnConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// Wakeups the provenance attribution could not explain.
fn unknown_causes(r: &FleetResult) -> u64 {
    r.recorder.counter(Counter::FleetMissedUnknown)
        + r.recorder.counter(Counter::FleetSpuriousUnknown)
}

/// One in-memory iteration.
struct Run {
    wall: f64,
    /// Wall time of the fleet run alone (no artifact render).
    run_wall: f64,
    events: u64,
    metrics: String,
    profile: Option<StageProfile>,
}

fn in_memory(cfg: &FleetConfig, profiled: bool) -> Result<(Run, FleetResult), FleetError> {
    let start = Instant::now();
    let (result, profile) = if profiled {
        let (r, p) = cfg.try_run_profiled_with_jobs(JOBS)?;
        (r, Some(p))
    } else {
        (cfg.try_run_with_jobs(JOBS)?, None)
    };
    let run_wall = start.elapsed().as_secs_f64();
    let metrics = result.metrics_json_with_energy();
    let run = Run {
        wall: start.elapsed().as_secs_f64(),
        run_wall,
        events: result.report.events,
        metrics,
        profile,
    };
    Ok((run, result))
}

/// One streamed iteration: run with spill (attribution CSV into a
/// hashing sink), merge + render the JSONL trace into a hashing sink,
/// remove the spill file.
struct Export {
    wall: f64,
    /// Run + spill, merge + render, cleanup: seconds each.
    parts: [f64; 3],
    events: u64,
    trace_events: u64,
    written: u64,
    trace_hash: u64,
    rendered_bytes: u64,
    attribution_hash: u64,
    spill_bytes: u64,
    dropped: u64,
    unknown: u64,
    spill_left: bool,
    metrics: String,
}

impl Export {
    /// Everything that must repeat exactly across iterations.
    fn fingerprint(&self) -> (u64, u64, u64, u64, u64, &str) {
        (
            self.events,
            self.trace_events,
            self.trace_hash,
            self.attribution_hash,
            self.spill_bytes,
            &self.metrics,
        )
    }
}

fn export_once(cfg: &FleetConfig, stream: &StreamExportConfig) -> Result<Export, FleetError> {
    let start = Instant::now();
    let mut attribution = HashingWriter::new(io::sink());
    let streamed = cfg.try_run_streamed_with_jobs(
        JOBS,
        stream,
        StreamSinks {
            attribution_csv: Some(&mut attribution),
            attribution_jsonl: None,
        },
    )?;
    let ran = Instant::now();
    let mut trace = HashingWriter::new(io::sink());
    let written = streamed.write_trace_jsonl(&mut trace)?;
    let rendered = Instant::now();
    streamed.cleanup()?;
    let cleaned = Instant::now();
    let metrics = streamed.metrics_json_with_energy();
    Ok(Export {
        wall: start.elapsed().as_secs_f64(),
        parts: [
            (ran - start).as_secs_f64(),
            (rendered - ran).as_secs_f64(),
            (cleaned - rendered).as_secs_f64(),
        ],
        events: streamed.result.report.events,
        trace_events: streamed.events(),
        written,
        trace_hash: trace.hash(),
        rendered_bytes: trace.bytes(),
        attribution_hash: attribution.hash(),
        spill_bytes: streamed.spill.bytes,
        dropped: streamed.dropped(),
        unknown: unknown_causes(&streamed.result),
        spill_left: streamed.spill.path.exists(),
        metrics,
    })
}

/// Median set-up time: the same fleet over a near-zero horizon.
fn setup_samples(
    cfg: &FleetConfig,
    stream: Option<&StreamExportConfig>,
) -> Result<Vec<f64>, FleetError> {
    let mut zero = cfg.clone();
    zero.duration_secs = SETUP_HORIZON_SECS;
    (0..SETUPS)
        .map(|_| match stream {
            Some(stream) => export_once(&zero, stream).map(|e| e.wall),
            None => in_memory(&zero, false).map(|(r, _)| r.wall),
        })
        .collect()
}

/// Wake-quality and per-stage metrics of the traced run: stage times
/// are thread-milliseconds summed over the [`JOBS`] workers.
fn traced_metrics(out: &mut Outcome, reference: &FleetResult, plain: &[Run], profiled: &[Run]) {
    let per_run = |f: &dyn Fn(&Run, &StageProfile) -> f64| -> Vec<f64> {
        profiled
            .iter()
            .filter_map(|r| r.profile.as_ref().map(|p| f(r, p)))
            .collect()
    };
    for s in FleetStage::ALL {
        let name = s.name();
        let nanos = per_run(&|_, p| p.stage(s).nanos as f64 / 1e6);
        out.push(Metric::samples(format!("fleet.{name}_ms"), "ms", nanos));
        let calls = per_run(&|_, p| p.stage(s).calls as f64);
        out.push(Metric::samples(
            format!("fleet.{name}_calls"),
            "count",
            calls,
        ));
    }
    out.push(Metric::samples(
        "fleet.ns_per_event",
        "ns",
        per_run(&|r, p| p.total_nanos() as f64 / r.events.max(1) as f64),
    ));
    out.push(Metric::samples(
        "fleet.stage_coverage",
        "fraction",
        per_run(&|r, p| p.total_nanos() as f64 / (JOBS as f64 * r.run_wall * 1e9)),
    ));
    let median_wall =
        |runs: &[Run]| crate::stats::median(&runs.iter().map(|r| r.wall).collect::<Vec<_>>());
    out.push(Metric::value(
        "fleet.trace_overhead_pct",
        "%",
        (median_wall(profiled) / median_wall(plain) - 1.0) * 100.0,
    ));
    let r = &reference.report;
    out.push(Metric::value(
        "fleet.missed_rate",
        "fraction",
        reference.missed_wakeup_rate,
    ));
    out.push(Metric::value(
        "fleet.spurious_rate",
        "fraction",
        reference.spurious_wakeup_rate,
    ));
    out.push(Metric::value(
        "fleet.refresh_lost_frac",
        "fraction",
        r.refreshes_lost as f64 / r.refreshes_sent.max(1) as f64,
    ));
}

/// Records an iteration whose output differs from the reference.
fn tally(out: &mut Outcome, matches: bool) {
    out.attempted += 1;
    if !matches {
        out.failed += 1;
    }
}

/// The traced schedule: rounds of (`extra`, plain run, profiled run)
/// until `seconds` have passed, every artifact compared with
/// `expected`. Returns the plain and profiled runs and the first plain
/// run's result (for the wake-quality ratios).
fn traced_rounds(
    cfg: &FleetConfig,
    seconds: f64,
    expected: &str,
    out: &mut Outcome,
    mut extra: impl FnMut(&mut Outcome) -> Result<(), FleetError>,
) -> Result<(Vec<Run>, Vec<Run>, FleetResult), FleetError> {
    let (mut plain, mut profiled, mut first) = (Vec::new(), Vec::new(), None);
    timed_loop(seconds, 1, || -> Result<f64, FleetError> {
        extra(out)?;
        let (run, result) = in_memory(cfg, false)?;
        tally(out, run.metrics == expected);
        first.get_or_insert(result);
        plain.push(run);
        let (run, _) = in_memory(cfg, true)?;
        tally(out, run.metrics == expected);
        profiled.push(run);
        Ok(0.0)
    })?;
    let first = first.expect("timed_loop runs at least once");
    Ok((plain, profiled, first))
}

fn mismatch_check(out: &mut Outcome) {
    let (failed, attempted) = (out.failed, out.attempted);
    out.check(failed == 0, || {
        format!("{failed} of {attempted} iterations differ from the first one")
    });
}

/// `fleet-churn`: 1500 BSS × 100 clients, in memory, on two workers.
///
/// # Errors
///
/// Returns a fleet error that stopped the run.
pub fn run_churn(opts: &RunOpts) -> Result<Outcome, String> {
    let cfg = churn_config(opts.seed, opts.quick);
    let mut out = Outcome::default();
    let (first, reference) = in_memory(&cfg, false).map_err(|e| e.to_string())?;
    out.check(unknown_causes(&reference) == 0, || {
        "wakeups with an unknown cause".into()
    });
    timed_loop(opts.warm_up_secs(), 1, || -> Result<f64, FleetError> {
        let (run, _) = in_memory(&cfg, false)?;
        tally(&mut out, run.metrics == first.metrics);
        Ok(run.wall)
    })
    .map_err(|e| e.to_string())?;
    if opts.trace {
        let (plain, profiled, _) =
            traced_rounds(&cfg, opts.seconds, &first.metrics, &mut out, |_| Ok(()))
                .map_err(|e| e.to_string())?;
        traced_metrics(&mut out, &reference, &plain, &profiled);
    } else {
        let setup = setup_samples(&cfg, None).map_err(|e| e.to_string())?;
        let mut rates = Vec::new();
        let walls = timed_loop(opts.seconds, 3, || -> Result<f64, FleetError> {
            let (run, _) = in_memory(&cfg, false)?;
            tally(&mut out, run.metrics == first.metrics);
            rates.push(run.events as f64 / run.wall);
            Ok(run.wall)
        })
        .map_err(|e| e.to_string())?;
        out.push(Metric::samples("setup_s", "s", setup));
        out.push(Metric::samples(
            "op_p50_ms",
            "ms",
            walls.iter().map(|&w| ms(w)).collect(),
        ));
        out.push(Metric::samples("work_per_s", "1/s", rates));
    }
    mismatch_check(&mut out);
    Ok(out)
}

/// `fleet-export`: 250 BSS × 100 clients, streamed through spill,
/// merge and render, on two workers.
///
/// # Errors
///
/// Returns a fleet error that stopped the run.
pub fn run_export(opts: &RunOpts) -> Result<Outcome, String> {
    let stream = StreamExportConfig::new(SPILL_DIR);
    let result = export_workload(opts, &stream);
    // The spill directory holds nothing once every iteration cleaned up.
    let _ = std::fs::remove_dir(SPILL_DIR);
    result.map_err(|e| e.to_string())
}

fn export_workload(opts: &RunOpts, stream: &StreamExportConfig) -> Result<Outcome, FleetError> {
    let cfg = export_config(opts.seed, opts.quick);
    let mut out = Outcome::default();
    let first = export_once(&cfg, stream)?;
    out.check(first.written == first.trace_events, || {
        format!(
            "rendered {} of {} spilled events",
            first.written, first.trace_events
        )
    });
    out.check(first.dropped == 0, || {
        format!("{} trace events dropped", first.dropped)
    });
    out.check(first.unknown == 0, || {
        "wakeups with an unknown cause".into()
    });
    let check = |out: &mut Outcome, e: &Export| {
        tally(
            out,
            e.fingerprint() == first.fingerprint() && e.written == e.trace_events && !e.spill_left,
        );
    };
    check(&mut out, &first);
    timed_loop(opts.warm_up_secs(), 1, || -> Result<f64, FleetError> {
        let e = export_once(&cfg, stream)?;
        check(&mut out, &e);
        Ok(e.wall)
    })?;

    if opts.trace {
        let mut exports = Vec::new();
        let (plain, profiled, reference) =
            traced_rounds(&cfg, opts.seconds, &first.metrics, &mut out, |out| {
                let e = export_once(&cfg, stream)?;
                check(out, &e);
                exports.push(e);
                Ok(())
            })?;
        let part = |i: usize| exports.iter().map(|e| ms(e.parts[i])).collect();
        out.push(Metric::samples("obs.run_spill_ms", "ms", part(0)));
        out.push(Metric::samples("obs.merge_render_ms", "ms", part(1)));
        out.push(Metric::samples("obs.cleanup_ms", "ms", part(2)));
        out.push(Metric::samples(
            "export.residual_ms",
            "ms",
            exports
                .iter()
                .map(|e| ms(e.wall - e.parts.iter().sum::<f64>()))
                .collect(),
        ));
        out.push(Metric::samples(
            "obs.render_mb_per_s",
            "MB/s",
            exports
                .iter()
                .map(|e| e.rendered_bytes as f64 / 1e6 / e.parts[1])
                .collect(),
        ));
        out.push(Metric::value(
            "obs.trace_events",
            "count",
            first.trace_events as f64,
        ));
        out.push(Metric::value(
            "obs.spill_bytes",
            "bytes",
            first.spill_bytes as f64,
        ));
        out.push(Metric::value(
            "obs.rendered_bytes",
            "bytes",
            first.rendered_bytes as f64,
        ));
        out.push(Metric::value("obs.dropped", "count", first.dropped as f64));
        traced_metrics(&mut out, &reference, &plain, &profiled);
    } else {
        let setup = setup_samples(&cfg, Some(stream))?;
        let mut rates = Vec::new();
        let walls = timed_loop(opts.seconds, 3, || -> Result<f64, FleetError> {
            let e = export_once(&cfg, stream)?;
            check(&mut out, &e);
            rates.push(e.events as f64 / e.wall);
            Ok(e.wall)
        })?;
        out.push(Metric::samples("setup_s", "s", setup));
        out.push(Metric::samples(
            "op_p50_ms",
            "ms",
            walls.iter().map(|&w| ms(w)).collect(),
        ));
        out.push(Metric::samples("work_per_s", "1/s", rates));
    }
    mismatch_check(&mut out);
    Ok(out)
}
