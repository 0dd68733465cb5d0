//! The daemon's wall-clock telemetry plane.
//!
//! Everything in this module is deliberately on the *other* side of
//! the determinism fence from the `hide-metrics/1` plane: it reads
//! clocks, samples queues, and reports wall-clock latencies, so its
//! output lives in its own `hide-apd-health/1` artifact (and a
//! Prometheus-style text exposition) and must never leak into the
//! deterministic metrics the golden gate pins.
//!
//! The plane has three moving parts:
//!
//! * **Stage latency histograms** — the router and shard hot paths
//!   time four stages (socket recv, parse+route, per-shard handle,
//!   reply send) through the zero-cost [`hide_obs::SpanSink`]
//!   seam; with telemetry enabled every thread's clone of one
//!   `Arc<`[`AtomicRuntime`]`>` records into the shared plane, which
//!   any thread can snapshot.
//! * **Per-shard health cells** — each shard keeps cheap atomics
//!   up to date (inbound queue depth, broadcast backlog, port-table
//!   occupancy, client count, processed-command counter, last-progress
//!   stamp); gauges are refreshed on DTIM ticks and every
//!   `GAUGE_SAMPLE_EVERY` commands so the hot path never does more
//!   than a handful of relaxed stores.
//! * **The watchdog** — a 1 Hz ticker that samples windowed message
//!   rates and flags any shard whose last-progress age exceeds the
//!   configured threshold while its inbound queue is non-empty,
//!   escalating through the leveled logger (warn on stall, error
//!   while a stall persists, info on recovery).

use hide_obs::json::{self, Value};
use hide_obs::runtime::RATE_WINDOW_SLOTS;
use hide_obs::{log_error, log_info, log_warn};
use hide_obs::{AtomicRuntime, RateMeter, RtStage};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A shard refreshes its gauges every this many processed commands
/// (and on every DTIM tick), so gauge staleness is bounded without
/// per-message costs beyond a progress stamp.
pub(crate) const GAUGE_SAMPLE_EVERY: u64 = 64;

/// How many consecutive stalled watchdog checks escalate the warn to
/// an error record.
const STALL_ESCALATE_CHECKS: u64 = 10;

/// One shard's live health cells. The shard thread writes, the
/// watchdog and health renderers read; everything is relaxed atomics.
#[derive(Debug)]
pub(crate) struct ShardHealth {
    /// Inbound queue depth (incremented by the router at enqueue,
    /// decremented by the shard at dequeue) — shared with the router's
    /// backpressure check.
    pub depth: Arc<AtomicUsize>,
    /// Broadcast frames buffered for the next DTIM flush.
    pub backlog: AtomicU64,
    /// Port-table entries (client, port) currently live.
    pub ports: AtomicU64,
    /// Associated clients.
    pub clients: AtomicU64,
    /// Commands this shard has processed since spawn.
    pub processed: AtomicU64,
    /// Nanoseconds since the plane epoch at the last processed
    /// command.
    pub last_progress_nanos: AtomicU64,
    /// Set by the watchdog while the shard looks stalled.
    pub stalled: AtomicBool,
    /// Consecutive watchdog checks the shard has looked stalled.
    pub stalled_checks: AtomicU64,
}

impl ShardHealth {
    pub(crate) fn new(depth: Arc<AtomicUsize>) -> Self {
        ShardHealth {
            depth,
            backlog: AtomicU64::new(0),
            ports: AtomicU64::new(0),
            clients: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            last_progress_nanos: AtomicU64::new(0),
            stalled: AtomicBool::new(false),
            stalled_checks: AtomicU64::new(0),
        }
    }
}

/// Router-side totals the health plane reads (the router thread
/// writes them; the deterministic `stats`/`metrics` planes read them
/// too).
#[derive(Debug, Default)]
pub(crate) struct RouterCounters {
    pub frames_received: AtomicU64,
    pub parse_errors: AtomicU64,
    pub dropped_backpressure: AtomicU64,
    /// Frames of kinds no AP consumes (beacons, ACKs, association
    /// responses), which reach no shard.
    pub ignored_frames: AtomicU64,
}

/// Everything the health/exposition renderers and the watchdog share.
pub(crate) struct RuntimePlane {
    /// Process epoch all progress stamps are relative to.
    pub epoch: Instant,
    /// The live stage histograms, or `None` when the daemon runs with
    /// the zero-cost [`hide_obs::NoopSpans`].
    pub hists: Option<Arc<AtomicRuntime>>,
    /// One health cell per shard, in shard order.
    pub shards: Vec<Arc<ShardHealth>>,
    /// The router's broadcast backpressure watermark (context for the
    /// backlog gauge).
    pub watermark: usize,
    /// Last-progress age beyond which a busy shard counts as stalled.
    pub stall_threshold: Duration,
    /// Watchdog cadence.
    pub interval: Duration,
    /// Watchdog checks performed.
    pub checks: AtomicU64,
    /// Healthy→stalled transitions observed.
    pub stall_events: AtomicU64,
    /// Windowed message rate over the router's received-frame counter.
    pub rates: Mutex<RateMeter>,
}

impl RuntimePlane {
    pub(crate) fn new(
        hists: Option<Arc<AtomicRuntime>>,
        shards: Vec<Arc<ShardHealth>>,
        watermark: usize,
        stall_threshold_secs: f64,
        interval_secs: f64,
    ) -> Self {
        RuntimePlane {
            epoch: Instant::now(),
            hists,
            shards,
            watermark,
            stall_threshold: Duration::from_secs_f64(stall_threshold_secs),
            interval: Duration::from_secs_f64(interval_secs),
            checks: AtomicU64::new(0),
            stall_events: AtomicU64::new(0),
            rates: Mutex::new(RateMeter::new()),
        }
    }

    /// Nanoseconds since the plane epoch.
    pub(crate) fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Number of shards currently flagged as stalled.
    pub(crate) fn stalled_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.stalled.load(Ordering::Relaxed))
            .count()
    }

    /// One watchdog pass: sample the rate meter and re-judge every
    /// shard's stall state. Factored out of the loop so tests can
    /// drive it synchronously.
    pub(crate) fn watchdog_check(&self, frames_received_total: u64) {
        self.checks.fetch_add(1, Ordering::Relaxed);
        self.rates
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .sample(frames_received_total);
        let now = self.now_nanos();
        let threshold = self.stall_threshold.as_nanos() as u64;
        for (i, shard) in self.shards.iter().enumerate() {
            let depth = shard.depth.load(Ordering::Relaxed);
            let last = shard.last_progress_nanos.load(Ordering::Relaxed);
            let age = now.saturating_sub(last);
            let looks_stalled = depth > 0 && age > threshold;
            let was_stalled = shard.stalled.load(Ordering::Relaxed);
            if looks_stalled {
                let checks = shard.stalled_checks.fetch_add(1, Ordering::Relaxed) + 1;
                if !was_stalled {
                    shard.stalled.store(true, Ordering::Relaxed);
                    self.stall_events.fetch_add(1, Ordering::Relaxed);
                    log_warn!(
                        "watchdog: shard {i} stalled: queue_depth={depth} \
                         last_progress_age_ms={} threshold_ms={}",
                        age / 1_000_000,
                        threshold / 1_000_000
                    );
                } else if checks.is_multiple_of(STALL_ESCALATE_CHECKS) {
                    log_error!(
                        "watchdog: shard {i} still stalled after {checks} checks: \
                         queue_depth={depth} last_progress_age_ms={}",
                        age / 1_000_000
                    );
                }
            } else {
                shard.stalled_checks.store(0, Ordering::Relaxed);
                if was_stalled {
                    shard.stalled.store(false, Ordering::Relaxed);
                    log_info!("watchdog: shard {i} recovered (queue_depth={depth})");
                }
            }
        }
    }
}

/// The watchdog thread body: ticks at the configured interval until
/// shutdown, re-checking the shutdown flag at a finer grain so the
/// daemon never waits a full interval to exit.
pub(crate) fn watchdog_loop(
    plane: &RuntimePlane,
    counters: &RouterCounters,
    shutdown: &std::sync::atomic::AtomicBool,
) {
    let poll = Duration::from_millis(25);
    let mut next = Instant::now() + plane.interval;
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(poll);
        if Instant::now() < next {
            continue;
        }
        next += plane.interval;
        plane.watchdog_check(counters.frames_received.load(Ordering::Relaxed));
    }
}

/// Render the `hide-apd-health/1` JSON artifact.
pub(crate) fn health_json(plane: &RuntimePlane, counters: &RouterCounters) -> String {
    let uptime = plane.epoch.elapsed().as_secs_f64();
    let (r1, r10, r60) = {
        let rates = plane.rates.lock().unwrap_or_else(|e| e.into_inner());
        (rates.rate(1), rates.rate(10), rates.rate(RATE_WINDOW_SLOTS))
    };

    let mut out = String::with_capacity(2048);
    out.push_str("{\n  \"schema\": \"hide-apd-health/1\",\n");
    let _ = writeln!(out, "  \"uptime_secs\": {uptime:.6},");
    let _ = writeln!(
        out,
        "  \"log_level\": \"{}\",",
        hide_obs::log::level().label()
    );
    let _ = writeln!(
        out,
        "  \"router\": {{\"frames_received\": {}, \"parse_errors\": {}, \
         \"dropped_backpressure\": {}}},",
        counters.frames_received.load(Ordering::Relaxed),
        counters.parse_errors.load(Ordering::Relaxed),
        counters.dropped_backpressure.load(Ordering::Relaxed),
    );
    let _ = writeln!(
        out,
        "  \"rates\": {{\"msgs_per_sec_1s\": {r1:.1}, \"msgs_per_sec_10s\": {r10:.1}, \
         \"msgs_per_sec_60s\": {r60:.1}}},"
    );

    out.push_str("  \"telemetry\": ");
    out.push_str(if plane.hists.is_some() {
        "\"on\""
    } else {
        "\"off\""
    });
    out.push_str(",\n  \"stages\": {\n");
    for (k, stage) in RtStage::ALL.iter().enumerate() {
        let s = match &plane.hists {
            Some(h) => h.snapshot(*stage).summary(),
            None => hide_obs::LatencyHistogram::new().summary(),
        };
        let _ = writeln!(
            out,
            "    \"{}\": {{\"count\": {}, \"mean_ns\": {:.0}, \"p50_ns\": {}, \
             \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}{}",
            stage.label(),
            s.count,
            s.mean_ns,
            s.p50_ns,
            s.p90_ns,
            s.p99_ns,
            s.max_ns,
            if k + 1 < RtStage::ALL.len() { "," } else { "" },
        );
    }
    out.push_str("  },\n  \"shards\": [\n");

    let now = plane.now_nanos();
    for (i, shard) in plane.shards.iter().enumerate() {
        let last = shard.last_progress_nanos.load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "    {{\"shard\": {i}, \"queue_depth\": {}, \"backlog\": {}, \
             \"watermark\": {}, \"ports\": {}, \"clients\": {}, \"processed\": {}, \
             \"last_progress_age_ms\": {}, \"stalled\": {}}}{}",
            shard.depth.load(Ordering::Relaxed),
            shard.backlog.load(Ordering::Relaxed),
            plane.watermark,
            shard.ports.load(Ordering::Relaxed),
            shard.clients.load(Ordering::Relaxed),
            shard.processed.load(Ordering::Relaxed),
            now.saturating_sub(last) / 1_000_000,
            shard.stalled.load(Ordering::Relaxed),
            if i + 1 < plane.shards.len() { "," } else { "" },
        );
    }
    let _ = writeln!(
        out,
        "  ],\n  \"watchdog\": {{\"stall_threshold_secs\": {:.3}, \"interval_secs\": {:.3}, \
         \"checks\": {}, \"stall_events\": {}, \"stalled_shards\": {}}},",
        plane.stall_threshold.as_secs_f64(),
        plane.interval.as_secs_f64(),
        plane.checks.load(Ordering::Relaxed),
        plane.stall_events.load(Ordering::Relaxed),
        plane.stalled_shards(),
    );

    out.push_str("  \"recent_log\": [\n");
    let records = hide_obs::log::recent_records();
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"ts\": \"{}\", \"level\": \"{}\", \"target\": ",
            hide_obs::log::rfc3339_nanos(r.unix_nanos),
            r.level.label(),
        );
        json::push_string(&mut out, &r.target);
        out.push_str(", \"message\": ");
        json::push_string(&mut out, &r.message);
        out.push_str(if i + 1 < records.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}");
    out
}

/// Render the Prometheus-style text exposition.
pub(crate) fn expo_text(plane: &RuntimePlane, counters: &RouterCounters) -> String {
    let mut out = String::with_capacity(2048);
    let _ = writeln!(
        out,
        "# TYPE hide_apd_uptime_seconds gauge\n\
         hide_apd_uptime_seconds {:.6}",
        plane.epoch.elapsed().as_secs_f64()
    );
    for (name, value) in [
        ("frames_received", &counters.frames_received),
        ("parse_errors", &counters.parse_errors),
        ("dropped_backpressure", &counters.dropped_backpressure),
    ] {
        let _ = writeln!(
            out,
            "# TYPE hide_apd_{name}_total counter\n\
             hide_apd_{name}_total {}",
            value.load(Ordering::Relaxed)
        );
    }
    {
        let rates = plane.rates.lock().unwrap_or_else(|e| e.into_inner());
        out.push_str("# TYPE hide_apd_msgs_per_second gauge\n");
        for (window, secs) in [("1s", 1), ("10s", 10), ("60s", RATE_WINDOW_SLOTS)] {
            let _ = writeln!(
                out,
                "hide_apd_msgs_per_second{{window=\"{window}\"}} {:.1}",
                rates.rate(secs)
            );
        }
    }

    out.push_str("# TYPE hide_apd_stage_latency_nanoseconds summary\n");
    for stage in RtStage::ALL {
        let s = match &plane.hists {
            Some(h) => h.snapshot(stage).summary(),
            None => hide_obs::LatencyHistogram::new().summary(),
        };
        let label = stage.label();
        for (q, v) in [("0.5", s.p50_ns), ("0.9", s.p90_ns), ("0.99", s.p99_ns)] {
            let _ = writeln!(
                out,
                "hide_apd_stage_latency_nanoseconds{{stage=\"{label}\",quantile=\"{q}\"}} {v}"
            );
        }
        let _ = writeln!(
            out,
            "hide_apd_stage_latency_nanoseconds_count{{stage=\"{label}\"}} {}\n\
             hide_apd_stage_latency_nanoseconds_max{{stage=\"{label}\"}} {}",
            s.count, s.max_ns
        );
    }

    for gauge in [
        "queue_depth",
        "backlog",
        "ports",
        "clients",
        "processed_total",
        "last_progress_age_seconds",
        "stalled",
    ] {
        let kind = if gauge == "processed_total" {
            "counter"
        } else {
            "gauge"
        };
        let _ = writeln!(out, "# TYPE hide_apd_shard_{gauge} {kind}");
    }
    let now = plane.now_nanos();
    for (i, shard) in plane.shards.iter().enumerate() {
        let age = now.saturating_sub(shard.last_progress_nanos.load(Ordering::Relaxed));
        let _ = writeln!(
            out,
            "hide_apd_shard_queue_depth{{shard=\"{i}\"}} {}\n\
             hide_apd_shard_backlog{{shard=\"{i}\"}} {}\n\
             hide_apd_shard_ports{{shard=\"{i}\"}} {}\n\
             hide_apd_shard_clients{{shard=\"{i}\"}} {}\n\
             hide_apd_shard_processed_total{{shard=\"{i}\"}} {}\n\
             hide_apd_shard_last_progress_age_seconds{{shard=\"{i}\"}} {:.3}\n\
             hide_apd_shard_stalled{{shard=\"{i}\"}} {}",
            shard.depth.load(Ordering::Relaxed),
            shard.backlog.load(Ordering::Relaxed),
            shard.ports.load(Ordering::Relaxed),
            shard.clients.load(Ordering::Relaxed),
            shard.processed.load(Ordering::Relaxed),
            age as f64 / 1e9,
            u8::from(shard.stalled.load(Ordering::Relaxed)),
        );
    }
    let _ = writeln!(
        out,
        "# TYPE hide_apd_watchdog_checks_total counter\n\
         hide_apd_watchdog_checks_total {}\n\
         # TYPE hide_apd_watchdog_stall_events_total counter\n\
         hide_apd_watchdog_stall_events_total {}\n\
         # TYPE hide_apd_watchdog_stalled_shards gauge\n\
         hide_apd_watchdog_stalled_shards {}",
        plane.checks.load(Ordering::Relaxed),
        plane.stall_events.load(Ordering::Relaxed),
        plane.stalled_shards(),
    );
    out
}

// ---------------------------------------------------------------------
// Health-artifact readers (the `apd_top` table and the smoke gates).
// They parse the document, so the renderer's line layout is free to
// change; a document that does not parse reads as empty.
// ---------------------------------------------------------------------

/// One shard row read back out of a `hide-apd-health/1` document.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct ShardRow {
    /// Shard index.
    pub shard: u64,
    /// Inbound queue depth.
    pub queue_depth: u64,
    /// Broadcast backlog vs the watermark.
    pub backlog: u64,
    /// Backpressure watermark.
    pub watermark: u64,
    /// Port-table occupancy.
    pub ports: u64,
    /// Associated clients.
    pub clients: u64,
    /// Commands processed since spawn.
    pub processed: u64,
    /// Milliseconds since the shard last made progress.
    pub last_progress_age_ms: u64,
    /// Watchdog stall flag.
    pub stalled: bool,
}

/// The `u64` at `path` under `v`.
fn u64_at(v: &Value, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(v, |v, key| v.get(key))?.as_u64()
}

/// The shard rows of a parsed health document; a row missing a field
/// is skipped.
fn shard_rows(health: &Value) -> Vec<ShardRow> {
    let rows = health
        .get("shards")
        .and_then(Value::as_array)
        .unwrap_or_default();
    rows.iter()
        .filter_map(|row| {
            Some(ShardRow {
                shard: u64_at(row, &["shard"])?,
                queue_depth: u64_at(row, &["queue_depth"])?,
                backlog: u64_at(row, &["backlog"])?,
                watermark: u64_at(row, &["watermark"])?,
                ports: u64_at(row, &["ports"])?,
                clients: u64_at(row, &["clients"])?,
                processed: u64_at(row, &["processed"])?,
                last_progress_age_ms: u64_at(row, &["last_progress_age_ms"])?,
                stalled: row.get("stalled")?.as_bool()?,
            })
        })
        .collect()
}

/// Read the per-shard rows out of a `hide-apd-health/1` document.
#[must_use]
pub fn parse_health_shards(health: &str) -> Vec<ShardRow> {
    json::parse(health).map_or_else(|_| Vec::new(), |v| shard_rows(&v))
}

/// Read the per-stage observation counts (`recv`, `route`, `handle`,
/// `send`, in pipeline order) out of a `hide-apd-health/1` document.
#[must_use]
pub fn parse_health_stage_counts(health: &str) -> Vec<(&'static str, u64)> {
    let doc = json::parse(health).ok();
    RtStage::ALL
        .iter()
        .map(|stage| {
            let count = doc
                .as_ref()
                .and_then(|v| u64_at(v, &["stages", stage.label(), "count"]));
            (stage.label(), count.unwrap_or(0))
        })
        .collect()
}

/// Number of shards a `hide-apd-health/1` document reports as stalled.
#[must_use]
pub fn parse_health_stalled_shards(health: &str) -> u64 {
    json::parse(health)
        .ok()
        .and_then(|v| u64_at(&v, &["watchdog", "stalled_shards"]))
        .unwrap_or(0)
}

/// Render the one-line-per-shard `apd_top` table from a
/// `hide-apd-health/1` document.
#[must_use]
pub fn render_top(health: &str) -> String {
    let doc = json::parse(health).ok();
    let shards = doc.as_ref().map(shard_rows).unwrap_or_default();
    let rate = |window: &str| {
        doc.as_ref()
            .and_then(|v| v.get("rates")?.get(window)?.as_f64())
            .unwrap_or(0.0)
    };

    let mut out = format!(
        "msgs/s 1s {:>10.1}  10s {:>10.1}  60s {:>10.1}\n\
         {:>5} {:>7} {:>9} {:>7} {:>8} {:>10} {:>9} {:>8}\n",
        rate("msgs_per_sec_1s"),
        rate("msgs_per_sec_10s"),
        rate("msgs_per_sec_60s"),
        "shard",
        "queue",
        "backlog",
        "ports",
        "clients",
        "processed",
        "age_ms",
        "state",
    );
    for row in &shards {
        let _ = writeln!(
            out,
            "{:>5} {:>7} {:>4}/{:>4} {:>7} {:>8} {:>10} {:>9} {:>8}",
            row.shard,
            row.queue_depth,
            row.backlog,
            row.watermark,
            row.ports,
            row.clients,
            row.processed,
            row.last_progress_age_ms,
            if row.stalled { "STALLED" } else { "ok" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_plane(shards: usize, with_hists: bool) -> RuntimePlane {
        let cells: Vec<Arc<ShardHealth>> = (0..shards)
            .map(|_| Arc::new(ShardHealth::new(Arc::new(AtomicUsize::new(0)))))
            .collect();
        let hists = with_hists.then(|| Arc::new(AtomicRuntime::new()));
        RuntimePlane::new(hists, cells, 4096, 5.0, 1.0)
    }

    #[test]
    fn health_json_carries_schema_stages_and_shards() {
        let plane = test_plane(2, true);
        plane
            .hists
            .as_ref()
            .unwrap()
            .record_nanos(RtStage::Handle, 1_500);
        let counters = RouterCounters::default();
        counters.frames_received.store(7, Ordering::Relaxed);
        let json = health_json(&plane, &counters);
        assert!(json.contains("\"schema\": \"hide-apd-health/1\""));
        assert!(json.contains("\"frames_received\": 7"));
        assert!(json.contains("\"telemetry\": \"on\""));
        let counts = parse_health_stage_counts(&json);
        assert_eq!(counts.len(), 4);
        assert_eq!(counts[2], ("handle", 1));
        assert_eq!(parse_health_shards(&json).len(), 2);
        assert_eq!(parse_health_stalled_shards(&json), 0);
        // The readers parse the document, so its line layout is free.
        let one_line = json.replace('\n', "");
        assert_eq!(parse_health_shards(&one_line), parse_health_shards(&json));
        assert_eq!(parse_health_stage_counts(&one_line), counts);
        assert_eq!(render_top(&one_line), render_top(&json));
    }

    #[test]
    fn watchdog_flags_and_recovers_a_stalled_shard() {
        let plane = test_plane(1, false);
        let shard = &plane.shards[0];
        // Busy queue, no progress, threshold 5 s: pretend the last
        // progress was 10 s "ago" by backdating the plane epoch.
        shard.depth.store(3, Ordering::Relaxed);
        shard.last_progress_nanos.store(0, Ordering::Relaxed);
        let plane = RuntimePlane {
            epoch: Instant::now() - Duration::from_secs(10),
            ..plane
        };
        plane.watchdog_check(0);
        assert!(plane.shards[0].stalled.load(Ordering::Relaxed));
        assert_eq!(plane.stall_events.load(Ordering::Relaxed), 1);
        assert_eq!(plane.stalled_shards(), 1);

        // Progress arrives: the next check clears the flag.
        let now = plane.now_nanos();
        plane.shards[0]
            .last_progress_nanos
            .store(now, Ordering::Relaxed);
        plane.watchdog_check(10);
        assert!(!plane.shards[0].stalled.load(Ordering::Relaxed));
        assert_eq!(plane.stalled_shards(), 0);
        // Stall events count transitions, not checks.
        assert_eq!(plane.stall_events.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn idle_empty_queue_is_never_stalled() {
        let plane = test_plane(1, false);
        let plane = RuntimePlane {
            epoch: Instant::now() - Duration::from_secs(100),
            ..plane
        };
        plane.watchdog_check(0);
        assert!(!plane.shards[0].stalled.load(Ordering::Relaxed));
    }

    #[test]
    fn expo_exposition_has_all_families() {
        let plane = test_plane(3, true);
        let counters = RouterCounters::default();
        let text = expo_text(&plane, &counters);
        for family in [
            "hide_apd_frames_received_total",
            "hide_apd_msgs_per_second{window=\"10s\"}",
            "hide_apd_stage_latency_nanoseconds{stage=\"recv\",quantile=\"0.5\"}",
            "hide_apd_shard_queue_depth{shard=\"2\"}",
            "hide_apd_watchdog_stalled_shards",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn top_table_renders_one_line_per_shard() {
        let plane = test_plane(4, false);
        let counters = RouterCounters::default();
        let json = health_json(&plane, &counters);
        let table = render_top(&json);
        assert_eq!(table.lines().count(), 2 + 4);
        assert!(table.contains("ok"));
        assert!(!table.contains("STALLED"));
    }
}
