//! Fleet-scale driver: thousands of BSSes with client lifecycle churn,
//! emitting byte-identical `hide-metrics/1` JSON at any `--jobs` count.
//!
//! ```text
//! fleet_sim [--bss N] [--clients N] [--adoption F] [--duration SECS]
//!           [--seed N] [--jobs N] [--scenario NAME]
//!           [--policy hide|psm|scheduled[:I[:P]]] [--device NAME]
//!           [--refresh-interval SECS] [--refresh-loss P]
//!           [--port-churn P] [--stale-timeout SECS]
//!           [--metrics PATH] [--summary PATH] [--trace PATH]
//!           [--energy-attribution] [--attribution-out PATH]
//!           [--spill-dir DIR] [--spill-chunk N] [--stream-window N]
//!           [--trace-cap N] [--stream-smoke]
//!           [--profile-stages] [--smoke] [--log-level LEVEL]
//! ```
//!
//! An unknown argument, a flag without its value, or a value that does
//! not parse is a usage error: nothing runs, and the process exits 2
//! with a message naming the flag.
//!
//! `--policy` selects the suspended clients' power-save protocol:
//! `hide` (the default; byte-identical to the pre-policy engine),
//! `psm` (legacy 802.11 PSM — wake on every DTIM with traffic), or
//! `scheduled[:interval[:period]]` (AP-negotiated wake windows, e.g.
//! `scheduled:8:1` wakes one DTIM in eight). `--device` picks a
//! device from the policy registry (`nexus-one`, `galaxy-s4`,
//! `pixel-3a`, `note-4`, `iot-cam`, `tablet-pro`), setting the energy
//! profile every charge is priced from and the battery the lifetime
//! projection extrapolates onto.
//!
//! `--trace PATH` turns the flight recorder on: every shard kernel's
//! structured events (DTIM boundaries, lost/applied refreshes, port
//! churn, expiries, per-client wake decisions with causes) are merged
//! in BSS order and exported — as a JSONL event log when `PATH` ends
//! in `.jsonl`, as Chrome-trace JSON (open in Perfetto or
//! `chrome://tracing`) otherwise. Both are simulation-time only, so the
//! file is byte-identical at any `--jobs` count.
//!
//! `--energy-attribution` turns the per-client joule ledger on in the
//! outputs: the `--metrics` artifact gains an integer-only `"energy"`
//! section (fleet totals per wake class and cause, in nanojoules) and
//! the human summary prints the per-cause joule split.
//! `--attribution-out PATH` additionally exports the per-client rows —
//! CSV when `PATH` ends in `.csv`, JSON Lines otherwise. Both outputs
//! merge shard ledgers in BSS order, so they are byte-identical at any
//! `--jobs` count.
//!
//! A run that writes `--trace` or `--attribution-out`, or runs
//! `--stream-smoke`, always streams: the fleet runs in bounded
//! windows, each window's trace log spills to a framed run file under
//! `--spill-dir` (default: the OS temp dir), attribution rows go to
//! `--attribution-out` shard by shard, and the trace is rendered by a
//! chunked k-way merge over the spilled runs. Resident memory is
//! bounded by the window, not the fleet, and every byte equals an
//! in-memory render's (`crates/bench/tests/stream_differential.rs`).
//! `--spill-chunk` (events per framed chunk), `--stream-window`
//! (shards per window) and `--trace-cap` (per-shard ring capacity) tune
//! the residency/IO trade. Streamed or not, every run writes the
//! report, `--metrics` and `--summary` the same way.
//!
//! `--profile-stages` runs the fleet with per-stage wall-time
//! profiling and prints a breakdown table (setup, queue pops, DTIM
//! sweeps, churn, refreshes, arrivals, merge) plus one
//! `hide-fleet-stages/1` JSON line to stdout. Wall-clock is inherently
//! nondeterministic, so this output is separate from — and never
//! spliced into — the golden-gated `hide-metrics/1` artifact; the
//! `--metrics`/`--summary` files stay byte-identical with the flag on.
//! The profiled run does not stream, so the flag cannot be combined
//! with `--trace`, `--attribution-out` or `--stream-smoke`.
//!
//! `--smoke` shrinks the fleet for a seconds-long CI sanity run and
//! asserts the two tier-1 invariants inline: a loss-free control run
//! reports zero missed wakeups, and `--jobs 1` versus all-cores
//! produces identical metrics and summary JSON. It then runs two perf
//! gates on one fixed single-shard workload (100 BSS x 100 clients,
//! 60 s, seed 42, 5 s refresh, 10 % refresh loss, 20 % port churn,
//! 12 s stale timeout, jobs 1; three runs of each path): the best
//! untraced run must clear `fleet_events_per_sec_floor` from
//! `golden/perf_floors.toml`, and the untraced (`NoopTrace`) runs must
//! not take more than 1.25x as long as the flight-recorded ones, which
//! would mean the "zero-cost" sink pays recording costs. The trace
//! gate only judges runs of at least 0.05 s in total.
//!
//! `--stream-smoke` is the metro-scale CI gate: it streams the merged
//! trace through a counting FNV-1a hasher (to a file when `--trace` is
//! given, to a null sink otherwise), prints the content hash and the
//! run + spill and merge + render walls, and fails if peak RSS
//! exceeds `stream_peak_rss_mb_ceiling` or throughput falls below
//! `streamed_events_per_sec_floor` (both in `golden/perf_floors.toml`).

use hide::fleet::{
    ChurnConfig, FleetConfig, FleetError, FleetResult, StreamExportConfig, StreamSinks,
    StreamedFleetResult,
};
use hide::obs::{Counter, HashingWriter};
use hide::policy::{lookup, registry_keys, WakePolicy};
use hide_obs::{log_error, log_info, LogLevel};
use hide_traces::scenario::Scenario;
use std::fmt::Display;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

/// The parsed command line.
#[derive(Debug)]
struct Opts {
    cfg: FleetConfig,
    jobs: usize,
    stream: StreamExportConfig,
    metrics: Option<String>,
    summary: Option<String>,
    trace: Option<String>,
    attribution_out: Option<String>,
    log_level: Option<LogLevel>,
    energy_attribution: bool,
    profile_stages: bool,
    smoke: bool,
    stream_smoke: bool,
}

impl Opts {
    /// Whether the run streams its trace and attribution rows out
    /// through the spill pipeline instead of holding them in memory.
    fn streams(&self) -> bool {
        self.trace.is_some() || self.attribution_out.is_some() || self.stream_smoke
    }
}

/// `value` parsed as the value of `flag`; a usage error naming the
/// flag when it does not parse.
fn parse<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{flag} {value:?}: {e}"))
}

/// Parses the command line. `Err` is a usage message naming the
/// offending flag or argument.
fn parse_args(args: &[String]) -> Result<Opts, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut o = Opts {
        cfg: FleetConfig {
            bss_count: if smoke { 200 } else { 1000 },
            clients_per_bss: if smoke { 8 } else { 100 },
            adoption: 0.75,
            duration_secs: if smoke { 10.0 } else { 60.0 },
            seed: 42,
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
        },
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        stream: StreamExportConfig::new(std::env::temp_dir()),
        metrics: None,
        summary: None,
        trace: None,
        attribution_out: None,
        log_level: None,
        energy_attribution: false,
        profile_stages: false,
        smoke,
        stream_smoke: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        let mut value = || match args.next() {
            Some(v) if !v.starts_with("--") => Ok(v.as_str()),
            _ => Err(format!("{flag} expects a value")),
        };
        match flag {
            "--smoke" => {}
            "--energy-attribution" => o.energy_attribution = true,
            "--profile-stages" => o.profile_stages = true,
            "--stream-smoke" => o.stream_smoke = true,
            "--bss" => o.cfg.bss_count = parse(flag, value()?)?,
            "--clients" => o.cfg.clients_per_bss = parse(flag, value()?)?,
            "--adoption" => o.cfg.adoption = parse(flag, value()?)?,
            "--duration" => o.cfg.duration_secs = parse(flag, value()?)?,
            "--seed" => o.cfg.seed = parse(flag, value()?)?,
            "--jobs" => o.jobs = parse(flag, value()?)?,
            "--refresh-interval" => o.cfg.churn.refresh_interval_secs = parse(flag, value()?)?,
            "--refresh-loss" => o.cfg.churn.refresh_loss = parse(flag, value()?)?,
            "--port-churn" => o.cfg.churn.port_churn = parse(flag, value()?)?,
            "--stale-timeout" => o.cfg.churn.stale_timeout_secs = parse(flag, value()?)?,
            "--spill-chunk" => o.stream.chunk_events = parse(flag, value()?)?,
            "--stream-window" => o.stream.window = parse(flag, value()?)?,
            "--trace-cap" => o.stream.trace_capacity = parse(flag, value()?)?,
            "--log-level" => o.log_level = Some(parse(flag, value()?)?),
            "--spill-dir" => o.stream.spill_dir = value()?.into(),
            "--metrics" => o.metrics = Some(value()?.to_string()),
            "--summary" => o.summary = Some(value()?.to_string()),
            "--trace" => o.trace = Some(value()?.to_string()),
            "--attribution-out" => o.attribution_out = Some(value()?.to_string()),
            "--scenario" => {
                let name = value()?;
                o.cfg.scenario = Scenario::ALL
                    .into_iter()
                    .find(|s| s.label().eq_ignore_ascii_case(name))
                    .ok_or_else(|| {
                        format!(
                            "--scenario {name:?}: unknown scenario; valid: {}",
                            Scenario::ALL.map(|s| s.label()).join(", ")
                        )
                    })?;
            }
            "--policy" => {
                let spec = value()?;
                o.cfg.policy =
                    WakePolicy::parse(spec).map_err(|e| format!("--policy {spec:?}: {e}"))?;
            }
            "--device" => {
                let name = value()?;
                let entry = lookup(name).ok_or_else(|| {
                    format!(
                        "--device {name:?}: unknown device; valid: {}",
                        registry_keys().join(", ")
                    )
                })?;
                o.cfg.profile = entry.profile;
                o.cfg.battery = entry.battery();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.profile_stages && o.streams() {
        return Err(
            "--profile-stages cannot be combined with --trace, --attribution-out or --stream-smoke"
                .to_string(),
        );
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(usage) => {
            eprintln!("fleet_sim: {usage}");
            return ExitCode::from(2);
        }
    };
    if let Some(level) = opts.log_level {
        hide_obs::log::set_level(level);
    }
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            log_error!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run(o: &Opts) -> Result<(), String> {
    let cfg = &o.cfg;
    log_info!(
        "fleet: {} BSS x {} clients, {:.0}% adoption, {} s horizon, \
         scenario {}, policy {}, device {}, seed {}, jobs {}",
        cfg.bss_count,
        cfg.clients_per_bss,
        cfg.adoption * 100.0,
        cfg.duration_secs,
        cfg.scenario.label(),
        cfg.policy.name(),
        cfg.profile.name,
        cfg.seed,
        o.jobs,
    );
    let t0 = Instant::now();
    if !o.streams() {
        let result = if o.profile_stages {
            let (result, profile) = cfg
                .try_run_profiled_with_jobs(o.jobs)
                .map_err(|e| e.to_string())?;
            print!("{}", profile.render());
            println!("{}", profile.to_json());
            result
        } else {
            cfg.try_run_with_jobs(o.jobs).map_err(|e| e.to_string())?
        };
        return finish(o, &result, t0.elapsed().as_secs_f64(), None);
    }
    let streamed = run_streamed(o)?;
    let finished = finish(
        o,
        &streamed.result,
        t0.elapsed().as_secs_f64(),
        Some(&streamed),
    );
    // The spill file goes whether or not the tail succeeded.
    let cleaned = streamed
        .cleanup()
        .map_err(|e| format!("removing spill file: {e}"));
    finished.and(cleaned)
}

/// The streamed run: attribution rows go to `--attribution-out` shard
/// by shard while the trace spills under `--spill-dir`.
fn run_streamed(o: &Opts) -> Result<StreamedFleetResult, String> {
    // Attribution rows leave memory during the run, so the sink must
    // be open before it starts.
    let mut attr = match &o.attribution_out {
        Some(path) => Some(BufWriter::new(
            File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
        )),
        None => None,
    };
    let mut sinks = StreamSinks::default();
    if let (Some(f), Some(path)) = (attr.as_mut(), &o.attribution_out) {
        if path.ends_with(".csv") {
            sinks.attribution_csv = Some(f);
        } else {
            sinks.attribution_jsonl = Some(f);
        }
    }
    let streamed = o
        .cfg
        .try_run_streamed_with_jobs(o.jobs, &o.stream, sinks)
        .map_err(|e| e.to_string())?;
    if let (Some(f), Some(path)) = (attr.as_mut(), &o.attribution_out) {
        if let Err(e) = f.flush() {
            let _ = streamed.cleanup();
            return Err(format!("writing {path}: {e}"));
        }
        log_info!(
            "attribution ledger written to {path} ({} client lanes)",
            streamed.result.energy_clients
        );
    }
    Ok(streamed)
}

/// The one tail every run shares: the human report and attribution
/// totals, the streamed trace export, `--metrics`, `--summary`, then
/// the smoke gates.
fn finish(
    o: &Opts,
    result: &FleetResult,
    wall: f64,
    streamed: Option<&StreamedFleetResult>,
) -> Result<(), String> {
    report(result, wall);
    if o.energy_attribution {
        print_attribution_totals(result);
    }
    let mut exported = None;
    if let Some(s) = streamed {
        log_info!(
            "streamed: {} events in {} spilled runs ({} bytes), {} dropped by ring bounds",
            s.events(),
            s.spill.runs.len(),
            s.spill.bytes,
            s.dropped(),
        );
        let export_start = Instant::now();
        exported = Some((export_trace(o, s)?, export_start.elapsed().as_secs_f64()));
    }
    if let Some(path) = &o.metrics {
        let rendered = if o.energy_attribution {
            result.metrics_json_with_energy()
        } else {
            result.metrics_json()
        };
        std::fs::write(path, rendered).map_err(|e| format!("writing {path}: {e}"))?;
        log_info!("metrics written to {path}");
    }
    if let Some(path) = &o.summary {
        std::fs::write(path, result.summary_json()).map_err(|e| format!("writing {path}: {e}"))?;
        log_info!("summary written to {path}");
    }
    if let (Some(s), Some((events, export_wall))) = (streamed, exported) {
        if o.stream_smoke {
            stream_smoke_checks(s, events, wall, export_wall)?;
        }
    }
    if o.smoke {
        smoke_checks(o, result, streamed.is_none())?;
    }
    Ok(())
}

/// Merges the spilled runs into the `--trace` file through an FNV-1a
/// hashing writer. The stream smoke without `--trace` renders the
/// JSONL into a null sink, so the full merge + render path is
/// exercised and content-hashed even without an output file. Returns
/// the events written, if anything was rendered.
fn export_trace(o: &Opts, s: &StreamedFleetResult) -> Result<Option<u64>, String> {
    let Some(path) = &o.trace else {
        if !o.stream_smoke {
            return Ok(None);
        }
        let mut out = HashingWriter::new(std::io::sink());
        let n = s.write_trace_jsonl(&mut out).map_err(|e| e.to_string())?;
        log_info!(
            "trace jsonl hashed ({n} events, {} bytes, fnv1a64 {:016x})",
            out.bytes(),
            out.hash()
        );
        return Ok(Some(n));
    };
    let file = File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
    let mut out = HashingWriter::new(BufWriter::new(file));
    let n = if path.ends_with(".jsonl") {
        s.write_trace_jsonl(&mut out)
    } else {
        s.write_chrome_trace(&mut out)
    }
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| format!("writing {path}: {e}"))?;
    log_info!(
        "trace written to {path} ({n} events, {} bytes, fnv1a64 {:016x})",
        out.bytes(),
        out.hash()
    );
    Ok(Some(n))
}

fn report(result: &FleetResult, wall: f64) {
    let r = &result.report;
    println!(
        "events {}  frames {}  assoc {}  disassoc {}  refreshes {} (lost {})  \
         expired {}",
        r.events,
        r.frames,
        r.associations,
        r.disassociations,
        r.refreshes_sent,
        r.refreshes_lost,
        r.entries_expired,
    );
    println!(
        "energy {:.3} J vs baseline {:.3} J -> saving {:.2}%  \
         port-msg airtime share {:.5}",
        result.energy_totals.spent_nj() as f64 / 1e9,
        r.baseline_nj as f64 / 1e9,
        result.fleet_saving * 100.0,
        result.port_message_airtime_share,
    );
    println!(
        "wakeups {} (hide {})  missed rate {:.4}  spurious rate {:.4}",
        r.wakeups, r.hide_wakeups, result.missed_wakeup_rate, result.spurious_wakeup_rate,
    );
    if result.policy.schedule().is_some() {
        println!(
            "scheduled wakes {}  deferred bursts {}",
            r.scheduled_wakes, r.deferred_wakeups,
        );
    }
    let lt = &result.lifetime;
    if lt.projected_secs > 0 {
        println!(
            "battery: {:.1} mWh, avg draw {:.1} mW/client -> lifetime {:.1} h \
             (baseline {:.1} h, gain {:+.2}%)",
            lt.capacity_mwh as f64,
            lt.avg_draw_uw as f64 / 1e3,
            lt.projected_secs as f64 / 3600.0,
            lt.baseline_secs as f64 / 3600.0,
            lt.lifetime_gain_ppm as f64 / 1e4,
        );
    }
    let rec = &result.recorder;
    println!(
        "provenance: proper {}  missed[lost {} expired {} churn {} unknown {}]  \
         spurious[churn {} unknown {}]",
        rec.counter(Counter::FleetWakeupsProper),
        rec.counter(Counter::FleetMissedRefreshLost),
        rec.counter(Counter::FleetMissedEntryExpired),
        rec.counter(Counter::FleetMissedPortChurn),
        rec.counter(Counter::FleetMissedUnknown),
        rec.counter(Counter::FleetSpuriousPortChurn),
        rec.counter(Counter::FleetSpuriousUnknown),
    );
    println!(
        "wall {wall:.2} s  ({:.0} events/sec)",
        r.events as f64 / wall.max(1e-9)
    );
}

/// Human-readable per-cause joule split of the folded attribution
/// totals.
fn print_attribution_totals(result: &FleetResult) {
    let t = &result.energy_totals;
    let j = |nj: u64| nj as f64 / 1e9;
    println!(
        "attribution: {} client lanes, spent {:.3} J  \
         [proper {:.3}  legacy {:.3}  spurious {:.3}  beacon {:.3}  \
         burst-rx {:.3}  refresh-tx {:.3}]",
        result.energy_clients,
        j(t.spent_nj()),
        j(t.proper_nj),
        j(t.legacy_nj),
        j(t.spurious_nj.total()),
        j(t.beacon_nj),
        j(t.burst_rx_nj),
        j(t.refresh_tx_nj),
    );
    println!(
        "  missed (forgone, not spent) {:.3} J  \
         [lost {:.3}  expired {:.3}  churn {:.3}  unknown {:.3}]",
        j(t.missed_forgone_nj.total()),
        j(t.missed_forgone_nj.refresh_lost),
        j(t.missed_forgone_nj.entry_expired),
        j(t.missed_forgone_nj.port_churn),
        j(t.missed_forgone_nj.unknown),
    );
}

/// Peak resident set of this process (`VmHWM`), in MiB. `None` when
/// `/proc` is unavailable (non-Linux).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Metro-scale CI gate: bounded peak RSS and a streamed-throughput
/// floor over run + spill (`run_wall`) and merge + render
/// (`export_wall`), thresholds from `golden/perf_floors.toml`.
fn stream_smoke_checks(
    streamed: &StreamedFleetResult,
    exported_events: Option<u64>,
    run_wall: f64,
    export_wall: f64,
) -> Result<(), String> {
    if let Some(n) = exported_events {
        if n != streamed.events() {
            return Err(format!(
                "STREAM SMOKE FAIL: exported {n} events but spilled {}",
                streamed.events()
            ));
        }
    }
    log_info!("stream smoke: run + spill {run_wall:.2} s, merge + render {export_wall:.2} s");
    let events_per_sec = streamed.result.report.events as f64 / (run_wall + export_wall).max(1e-9);
    let floor = perf_floor("streamed_events_per_sec_floor");
    log_info!(
        "stream smoke: {:.0} kernel events/sec through run+export (floor {floor:.0})",
        events_per_sec
    );
    if events_per_sec < floor {
        return Err(format!(
            "STREAM SMOKE FAIL: {events_per_sec:.0} events/sec below the \
             {floor:.0} floor (golden/perf_floors.toml)"
        ));
    }
    match peak_rss_mb() {
        Some(rss) => {
            let ceiling = perf_floor("stream_peak_rss_mb_ceiling");
            log_info!("stream smoke: peak RSS {rss:.0} MiB (ceiling {ceiling:.0})");
            if rss > ceiling {
                return Err(format!(
                    "STREAM SMOKE FAIL: peak RSS {rss:.0} MiB exceeds the \
                     {ceiling:.0} MiB ceiling (golden/perf_floors.toml)"
                ));
            }
        }
        None => log_info!("stream smoke: /proc unavailable, skipping the RSS ceiling"),
    }
    log_info!("stream smoke: ok (bounded memory, throughput above floor)");
    Ok(())
}

/// Read one `key = value` number out of the checked-in perf-floor
/// profile (flat TOML, comment-stripping line scan; path resolved from
/// the crate manifest so the gate works from any working directory).
fn perf_floor(key: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../golden/perf_floors.toml");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some((k, v)) = line.split_once('=') {
            if k.trim() == key {
                return v
                    .trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("parse {key} in {path}: {e}"));
            }
        }
    }
    panic!("{key} not found in {path}");
}

/// CI invariants: determinism across jobs counts and the loss-free
/// missed-wakeup guarantee. `kept_rows` is false for a streamed run,
/// whose attribution rows left memory through the sink (its energy
/// totals still ride in the compared metrics).
fn smoke_checks(o: &Opts, result: &FleetResult, kept_rows: bool) -> Result<(), String> {
    let (cfg, jobs) = (&o.cfg, o.jobs);
    log_info!("smoke: re-running at jobs=1 for the determinism check...");
    let serial = cfg
        .try_run_with_jobs(1)
        .map_err(|e| format!("smoke rerun failed: {e}"))?;
    if serial.metrics_json() != result.metrics_json()
        || serial.summary_json() != result.summary_json()
        || serial.metrics_json_with_energy() != result.metrics_json_with_energy()
        || (kept_rows && serial.attribution().to_csv() != result.attribution().to_csv())
    {
        return Err(format!("SMOKE FAIL: jobs=1 and jobs={jobs} outputs differ"));
    }
    let mut lossless = cfg.clone();
    lossless.churn.refresh_loss = 0.0;
    log_info!("smoke: loss-free control run...");
    let control = lossless
        .try_run_with_jobs(jobs)
        .map_err(|e| format!("smoke control failed: {e}"))?;
    if control.report.missed_wakeups != 0 {
        return Err(format!(
            "SMOKE FAIL: {} missed wakeups with zero refresh loss",
            control.report.missed_wakeups
        ));
    }
    // Policy seam invariants: non-HIDE policies must run none of the
    // HIDE machinery, and a scheduled policy wakes only in-window.
    if !cfg.policy.uses_port_refresh()
        && (result.report.refreshes_sent != 0 || result.report.hide_wakeups != 0)
    {
        return Err(format!(
            "SMOKE FAIL: policy {} ran HIDE machinery \
             ({} refreshes, {} hide wakeups)",
            cfg.policy.name(),
            result.report.refreshes_sent,
            result.report.hide_wakeups
        ));
    }
    if cfg.policy.schedule().is_some() && result.report.wakeups != result.report.scheduled_wakes {
        return Err(format!(
            "SMOKE FAIL: {} wakeups but only {} inside the service window",
            result.report.wakeups, result.report.scheduled_wakes
        ));
    }
    log_info!("smoke: ok (deterministic across jobs, loss-free run missed 0 wakeups)");
    perf_gates()
}

/// The `--smoke` perf gates on one fixed single-shard fleet workload,
/// independent of the command line: the kernel events/sec floor and
/// the `NoopTrace` versus `FlightRecorder` overhead ratio. Untraced
/// and traced runs alternate, so drift in host speed hits both alike.
fn perf_gates() -> Result<(), String> {
    const REPS: usize = 3;
    // The untraced path fails when it takes this much longer than the
    // recording path...
    const TRACE_MAX_RATIO: f64 = 1.25;
    // ...judged only when the traced runs take this long in total.
    const TRACE_MIN_SECS: f64 = 0.05;
    let cfg = FleetConfig {
        bss_count: 100,
        clients_per_bss: 100,
        adoption: 0.75,
        duration_secs: 60.0,
        seed: 42,
        churn: ChurnConfig {
            refresh_interval_secs: 5.0,
            refresh_loss: 0.1,
            port_churn: 0.2,
            stale_timeout_secs: 12.0,
            ..ChurnConfig::default()
        },
        ..FleetConfig::default()
    };
    let failed = |e: FleetError| format!("perf gate run failed: {e}");
    let (mut events, mut best_secs, mut noop_secs, mut flight_secs) = (0, f64::INFINITY, 0.0, 0.0);
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = cfg.try_run_with_jobs(1).map_err(failed)?;
        let secs = t0.elapsed().as_secs_f64();
        events = r.report.events;
        best_secs = best_secs.min(secs);
        noop_secs += secs;

        let t0 = Instant::now();
        let (r, flight) = cfg
            .try_run_traced_with_jobs(1, hide_obs::DEFAULT_TRACE_CAPACITY)
            .map_err(failed)?;
        flight_secs += t0.elapsed().as_secs_f64();
        std::hint::black_box((r.report.wakeups, flight.len()));
    }

    let events_per_sec = events as f64 / best_secs.max(1e-12);
    let floor = perf_floor("fleet_events_per_sec_floor");
    log_info!(
        "perf gate: fleet kernel @ {} BSS x {} clients, jobs=1: {events} events in \
         {best_secs:.3} s (best of {REPS}) = {events_per_sec:.0} events/s (floor {floor:.0})",
        cfg.bss_count,
        cfg.clients_per_bss,
    );
    if events_per_sec < floor {
        return Err(format!(
            "SMOKE FAIL: fleet kernel at {events_per_sec:.0} events/s is below the \
             {floor:.0} floor (golden/perf_floors.toml)"
        ));
    }

    log_info!(
        "perf gate: trace overhead over {REPS} runs each: noop_secs {noop_secs:.3}, \
         flight_secs {flight_secs:.3} ({:+.1}%; fails above {TRACE_MAX_RATIO}x, \
         judged from {TRACE_MIN_SECS} s)",
        (flight_secs / noop_secs.max(1e-12) - 1.0) * 100.0,
    );
    if flight_secs >= TRACE_MIN_SECS && noop_secs > flight_secs * TRACE_MAX_RATIO {
        return Err(format!(
            "SMOKE FAIL: the NoopTrace path took {noop_secs:.3} s, more than \
             {TRACE_MAX_RATIO}x the FlightRecorder path's {flight_secs:.3} s"
        ));
    }
    log_info!("perf gate: ok (kernel above its floor, NoopTrace no slower than recording)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Opts, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn well_formed_flags_set_the_run() {
        let o = parse_line(
            "--bss 3 --clients 5 --duration 2.5 --jobs 0 --seed 7 --scenario wml \
             --policy psm --device galaxy-s4 --refresh-loss 0.3 --trace t.jsonl \
             --spill-chunk 9 --stream-window 4 --trace-cap 16 --energy-attribution",
        )
        .unwrap();
        assert_eq!((o.cfg.bss_count, o.cfg.clients_per_bss), (3, 5));
        assert_eq!((o.cfg.duration_secs, o.jobs, o.cfg.seed), (2.5, 0, 7));
        assert_eq!(o.cfg.scenario, Scenario::Wml);
        assert_eq!(o.cfg.policy, WakePolicy::LegacyPsm);
        assert_eq!(o.cfg.profile, lookup("galaxy-s4").unwrap().profile);
        assert_eq!(o.cfg.churn.refresh_loss, 0.3);
        assert_eq!(o.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(o.stream.chunk_events, 9);
        assert_eq!((o.stream.window, o.stream.trace_capacity), (4, 16));
        assert!(o.energy_attribution && o.streams() && !o.smoke);
    }

    #[test]
    fn smoke_shrinks_the_defaults_and_flags_still_override() {
        let o = parse_line("--smoke").unwrap();
        assert_eq!((o.cfg.bss_count, o.cfg.clients_per_bss), (200, 8));
        assert!(o.smoke && !o.streams());
        let o = parse_line("--bss 5 --smoke").unwrap();
        assert_eq!(o.cfg.bss_count, 5);
    }

    #[test]
    fn malformed_values_are_usage_errors_naming_the_flag() {
        for (line, flag) in [
            ("--duration abc", "--duration"),
            ("--bss 2 --clients 2 --duration abc --jobs x", "--duration"),
            ("--jobs x", "--jobs"),
            ("--bss -1", "--bss"),
            ("--seed 1.5", "--seed"),
            ("--adoption", "--adoption"),
            ("--metrics --smoke", "--metrics"),
            ("--scenario mars", "--scenario"),
            ("--policy nap", "--policy"),
            ("--device toaster", "--device"),
            ("--log-level loud", "--log-level"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.starts_with(flag), "{line:?} gave {err:?}");
        }
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        for line in ["--stream-export", "--bss 2 --frobnicate", "stray"] {
            let err = parse_line(line).unwrap_err();
            assert!(err.starts_with("unknown argument"), "{line:?} gave {err:?}");
        }
    }

    #[test]
    fn streamed_outputs_exclude_stage_profiling() {
        assert!(parse_line("--profile-stages --metrics m.json").is_ok());
        for extra in [
            "--trace t.json",
            "--attribution-out a.csv",
            "--stream-smoke",
        ] {
            let line = format!("--profile-stages {extra}");
            assert!(parse_line(&line).is_err(), "{line:?} was accepted");
        }
        assert!(parse_line("--attribution-out a.csv").unwrap().streams());
        assert!(parse_line("--stream-smoke").unwrap().streams());
    }
}
