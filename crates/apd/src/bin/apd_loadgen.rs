//! Loopback load generator, throughput benchmark and live top-style
//! monitor for `hide-apd`.
//!
//! ```text
//! apd_loadgen [--target ADDR | (spawns its own daemon)]
//!             [--clients N] [--rounds N] [--shards N]
//!             [--scenario NAME] [--seed N] [--out PATH] [--smoke]
//!             [--log-level LEVEL]
//! apd_loadgen --watch CTRL_ADDR [--watch-count N]
//! ```
//!
//! Without `--target` the benchmark spawns an in-process daemon on
//! loopback, drives it, checks a clean shutdown (snapshot written and
//! parseable), then re-runs the identical workload against a daemon
//! with runtime telemetry disabled and records both rates (and the
//! overhead delta) into a `BENCH_apd.json` artifact. `--smoke`
//! additionally scrapes the `health`/`expo` control commands mid-run
//! and enforces: every hot-path stage histogram non-empty, no shard
//! stalled, the deterministic metrics plane free of wall-clock keys,
//! and the floors in `golden/perf_floors.toml` (sustained rate plus
//! the telemetry-overhead ratio). This is what CI runs.
//!
//! `--watch` is `apd_top`: poll a running daemon's control socket once
//! per second and render a one-line-per-shard health table.

use hide_apd::{loadgen, ApdConfig, ApdSnapshot, DaemonHandle, LoadgenConfig};
use hide_obs::{log_error, LogLevel};
use hide_traces::scenario::Scenario;
use std::net::UdpSocket;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    if let Some(level) = flag("--log-level") {
        match level.parse::<LogLevel>() {
            Ok(level) => hide_obs::log::set_level(level),
            Err(e) => {
                eprintln!("apd_loadgen: bad --log-level {level:?}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(ctrl) = flag("--watch") {
        let count: u64 = flag("--watch-count").map_or(0, |n| n.parse().expect("--watch-count"));
        return watch(&ctrl, count);
    }

    let mut cfg = LoadgenConfig::new();
    if let Some(n) = flag("--clients") {
        cfg.clients = n.parse().expect("--clients");
    }
    if let Some(n) = flag("--rounds") {
        cfg.rounds = n.parse().expect("--rounds");
    }
    if let Some(name) = flag("--scenario") {
        cfg.scenario = match name.as_str() {
            "classroom" => Scenario::Classroom,
            "cs_dept" => Scenario::CsDept,
            "wml" => Scenario::Wml,
            "starbucks" => Scenario::Starbucks,
            "wrl" => Scenario::Wrl,
            other => {
                log_error!("unknown scenario {other:?}");
                return ExitCode::FAILURE;
            }
        };
    }
    if let Some(n) = flag("--seed") {
        cfg.seed = n.parse().expect("--seed");
    }
    if smoke {
        // Seconds-long CI run; the floor is on rate, not volume.
        cfg.clients = 32;
        cfg.rounds = 50;
        cfg.trace_secs = 20.0;
    }
    let shards: usize = flag("--shards").map_or(2, |n| n.parse().expect("--shards"));
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_apd.json".into());

    // --- daemon: external target, or our own on loopback ---
    let (target, handle, snap_path) = match flag("--target") {
        Some(addr) => (addr.parse().expect("--target"), None, None),
        None => {
            let snap_path =
                std::env::temp_dir().join(format!("apd_loadgen_{}.snap", std::process::id()));
            let daemon_cfg = ApdConfig::new()
                .shards(shards)
                .snapshot_path(snap_path.clone());
            let handle = DaemonHandle::spawn(daemon_cfg).expect("spawn daemon");
            (handle.data_addr(), Some(handle), Some(snap_path))
        }
    };

    let report = match loadgen::run(target, &cfg) {
        Ok(report) => report,
        Err(e) => {
            log_error!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "apd_loadgen: {} clients, {} port messages ({} acked), {} broadcasts \
         in {:.3} s -> {:.0} msgs/s",
        report.associations,
        report.port_messages,
        report.acks,
        report.broadcasts_sent,
        report.elapsed_secs,
        report.msgs_per_sec
    );

    // --- smoke: scrape the live wall-clock plane before shutdown ---
    if smoke {
        if let Some(handle) = &handle {
            if let Err(msg) = smoke_scrape(handle) {
                log_error!("SMOKE FAILURE: {msg}");
                return ExitCode::FAILURE;
            }
            println!("apd_loadgen: health/expo scrape ok (4 stages live, no stalls)");
        }
    }

    // --- clean shutdown with a final snapshot, when we own the daemon ---
    if let Some(handle) = handle {
        handle.tick(4).expect("tick");
        let stats = handle.shutdown().expect("clean shutdown");
        if stats.shards.acks_sent != report.acks {
            log_error!(
                "daemon acked {} but loadgen saw {}",
                stats.shards.acks_sent,
                report.acks
            );
            return ExitCode::FAILURE;
        }
        let snap_path = snap_path.expect("owned daemon has a snapshot path");
        let bytes = std::fs::read(&snap_path).expect("shutdown snapshot written");
        let snap = ApdSnapshot::parse(&bytes).expect("shutdown snapshot parses");
        let clients: usize = snap.shards.iter().map(|s| s.clients.len()).sum();
        let _ = std::fs::remove_file(&snap_path);
        if clients != report.associations as usize {
            log_error!(
                "snapshot holds {clients} clients, expected {}",
                report.associations
            );
            return ExitCode::FAILURE;
        }
        println!("apd_loadgen: clean shutdown, snapshot verified ({clients} clients)");
    }

    // --- telemetry overhead: identical workload, NoopSpans daemon ---
    let noop_rate = if flag("--target").is_none() {
        let noop_handle =
            DaemonHandle::spawn(ApdConfig::new().shards(shards).runtime_telemetry(false))
                .expect("spawn noop daemon");
        let noop_report = match loadgen::run(noop_handle.data_addr(), &cfg) {
            Ok(report) => report,
            Err(e) => {
                log_error!("noop-runtime run: {e}");
                return ExitCode::FAILURE;
            }
        };
        noop_handle.shutdown().expect("clean noop shutdown");
        println!(
            "apd_loadgen: noop-runtime reference -> {:.0} msgs/s \
             (telemetry overhead {:+.1}%)",
            noop_report.msgs_per_sec,
            overhead_pct(report.msgs_per_sec, noop_report.msgs_per_sec),
        );
        Some(noop_report.msgs_per_sec)
    } else {
        None
    };

    // --- artifact ---
    let overhead = match noop_rate {
        Some(noop) => format!(
            ",\n  \"runtime_overhead\": {{\"msgs_per_sec_telemetry\": {:.0}, \
             \"msgs_per_sec_noop\": {noop:.0}, \"overhead_pct\": {:.2}}}",
            report.msgs_per_sec,
            overhead_pct(report.msgs_per_sec, noop),
        ),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"schema\": \"hide-bench-apd/1\",\n  \"workload\": {{\"clients\": {}, \
         \"rounds\": {}, \"shards\": {}, \"scenario\": \"{}\", \"seed\": {}}},\n  \
         \"apd\": {{\"port_messages\": {}, \"acks\": {}, \"broadcasts\": {}, \
         \"elapsed_secs\": {:.6}, \"msgs_per_sec\": {:.0}}}{overhead}\n}}\n",
        cfg.clients,
        cfg.rounds,
        shards,
        cfg.scenario.label(),
        cfg.seed,
        report.port_messages,
        report.acks,
        report.broadcasts_sent,
        report.elapsed_secs,
        report.msgs_per_sec
    );
    std::fs::write(&out_path, json).expect("write benchmark artifact");
    println!("apd_loadgen: written to {out_path}");

    if smoke {
        let floor = perf_floor("apd_msgs_per_sec_floor");
        if report.msgs_per_sec < floor {
            log_error!(
                "FLOOR VIOLATION: {:.0} msgs/s is below the \
                 golden/perf_floors.toml floor of {floor:.0}",
                report.msgs_per_sec
            );
            return ExitCode::FAILURE;
        }
        println!(
            "apd_loadgen: floor ok ({:.0} >= {floor:.0} msgs/s)",
            report.msgs_per_sec
        );
        if let Some(noop) = noop_rate {
            let min_ratio = perf_floor("apd_telemetry_min_rate_ratio");
            let ratio = report.msgs_per_sec / noop.max(1.0);
            if ratio < min_ratio {
                log_error!(
                    "FLOOR VIOLATION: telemetry run sustains only {ratio:.2}x the \
                     noop-runtime rate (budget {min_ratio:.2}x): {:.0} vs {noop:.0} msgs/s",
                    report.msgs_per_sec
                );
                return ExitCode::FAILURE;
            }
            println!("apd_loadgen: telemetry overhead ok ({ratio:.2}x >= {min_ratio:.2}x)");
        }
    }
    ExitCode::SUCCESS
}

/// One `health` + `expo` + protocol scrape against a live daemon; the
/// smoke gate for the wall-clock plane.
fn smoke_scrape(handle: &DaemonHandle) -> Result<(), String> {
    let ctrl = handle.ctrl_addr().to_string();

    // The ping reply must carry the protocol version tag.
    let pong = ctrl_roundtrip(&ctrl, "ping")?;
    if pong != format!("pong {}", hide_apd::CTRL_PROTOCOL_VERSION) {
        return Err(format!("unexpected ping reply {pong:?}"));
    }
    // Unknown verbs must come back with the stable error code.
    let unknown = ctrl_roundtrip(&ctrl, "launch-missiles")?;
    if !unknown.starts_with("err:unknown-command") {
        return Err(format!("unexpected unknown-verb reply {unknown:?}"));
    }

    let health = ctrl_roundtrip(&ctrl, "health")?;
    let health = health
        .strip_prefix("ok ")
        .ok_or_else(|| format!("health request failed: {health:?}"))?;
    let doc = hide_obs::json::parse(health).map_err(|e| format!("health reply: {e}"))?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some("hide-apd-health/1") {
        return Err("health reply is not a hide-apd-health/1 document".into());
    }
    for (stage, count) in hide_apd::parse_health_stage_counts(health) {
        if count == 0 {
            return Err(format!(
                "stage histogram {stage:?} is empty after a loopback run"
            ));
        }
    }
    let stalled = hide_apd::parse_health_stalled_shards(health);
    if stalled != 0 {
        return Err(format!("watchdog reports {stalled} stalled shards"));
    }
    for row in hide_apd::parse_health_shards(health) {
        if row.stalled {
            return Err(format!("shard {} is flagged stalled", row.shard));
        }
    }

    let expo = ctrl_roundtrip(&ctrl, "expo")?;
    let expo = expo
        .strip_prefix("ok ")
        .ok_or_else(|| format!("expo request failed: {expo:?}"))?;
    for family in [
        "hide_apd_frames_received_total",
        "hide_apd_stage_latency_nanoseconds",
        "hide_apd_shard_queue_depth",
        "hide_apd_watchdog_stalled_shards",
    ] {
        if !expo.contains(family) {
            return Err(format!("exposition is missing the {family} family"));
        }
    }

    // Two-plane purity: the deterministic metrics artifact must not
    // grow wall-clock sections.
    let metrics = handle.metrics_json().map_err(|e| e.to_string())?;
    for leak in ["p99_ns", "uptime_secs", "hide-apd-health"] {
        if metrics.contains(leak) {
            return Err(format!(
                "wall-clock key {leak:?} leaked into the hide-metrics/1 plane"
            ));
        }
    }
    Ok(())
}

/// One UDP request/reply against a control socket.
fn ctrl_roundtrip(ctrl_addr: &str, request: &str) -> Result<String, String> {
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    socket.connect(ctrl_addr).map_err(|e| e.to_string())?;
    socket.send(request.as_bytes()).map_err(|e| e.to_string())?;
    let mut buf = vec![0u8; 262_144];
    let len = socket
        .recv(&mut buf)
        .map_err(|e| format!("no reply to {request:?}: {e}"))?;
    String::from_utf8(buf[..len].to_vec()).map_err(|e| e.to_string())
}

/// `apd_top`: poll `health` once per second and render the per-shard
/// table. `count == 0` polls until interrupted.
fn watch(ctrl_addr: &str, count: u64) -> ExitCode {
    let mut polls = 0u64;
    loop {
        match ctrl_roundtrip(ctrl_addr, "health") {
            Ok(reply) => match reply.strip_prefix("ok ") {
                Some(health) => {
                    println!("--- {ctrl_addr} ---");
                    print!("{}", hide_apd::render_top(health));
                }
                None => {
                    log_error!("health request failed: {reply:?}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                log_error!("watch: {e}");
                return ExitCode::FAILURE;
            }
        }
        polls += 1;
        if count != 0 && polls >= count {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_secs(1));
    }
}

fn overhead_pct(telemetry: f64, noop: f64) -> f64 {
    (noop - telemetry) / noop.max(1.0) * 100.0
}

/// Read one `key = value` number out of the checked-in perf-floor
/// profile (flat TOML; a comment-stripping line scan is the parser).
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
