//! The wall-clock span seam, and the daemon's runtime plane behind it.
//!
//! [`SpanSink`] is the one timing seam of the workspace, and the only
//! instrumentation seam that is *allowed* to observe wall-clock time:
//!
//! * [`crate::MetricsSink`] — deterministic counters/histograms
//!   (feeds `hide-metrics/1`, byte-identical at any `--jobs`);
//! * [`crate::TraceSink`] — deterministic structured events;
//! * [`SpanSink`] (this module) — wall-clock stage spans, generic over
//!   the stage type: the daemon's [`RtStage`]s (feeding
//!   `hide-apd-health/1` and the Prometheus-style exposition) and the
//!   fleet kernel's stages (feeding `hide-fleet-stages/1`), **never**
//!   the deterministic artifacts.
//!
//! Hot paths are generic over `P: SpanSink<S>` and bracket each stage
//! with [`SpanSink::start`] and [`SpanSink::finish`]. With
//! [`NoopSpans`] the start token is a constant `None` and both calls
//! inline to nothing — crucially, the clock is never read — so the
//! uninstrumented daemon pays zero cost, a claim `apd_loadgen --smoke`
//! enforces against the budget in `golden/perf_floors.toml`. Behind an
//! `Arc<`[`AtomicRuntime`]`>` each daemon stage records into a
//! lock-free [`LatencyHistogram`]-shaped grid of atomics that any
//! thread can snapshot without stopping the world.

use crate::latency::{LatencyHistogram, LATENCY_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where instrumented code sends its wall-clock spans, one per
/// execution of a stage of type `S`.
///
/// The `start`/`finish` pair brackets one stage execution. Both are
/// provided: they read the clock only when [`ENABLED`](Self::ENABLED),
/// so an implementation writes just [`add_span`](Self::add_span).
pub trait SpanSink<S> {
    /// `false` compiles every clock read out of the instrumented code.
    const ENABLED: bool;

    /// Records one completed span of `nanos` against `stage`.
    fn add_span(&mut self, stage: S, nanos: u64);

    /// Begins a span: the current instant, or `None` without reading
    /// the clock when the sink is disabled.
    #[inline]
    fn start(&self) -> Option<Instant> {
        Self::ENABLED.then(Instant::now)
    }

    /// Ends the span `started` by [`start`](Self::start) and records it
    /// against `stage`.
    #[inline]
    fn finish(&mut self, stage: S, started: Option<Instant>) {
        if let Some(t) = started {
            self.add_span(stage, t.elapsed().as_nanos() as u64);
        }
    }

    /// Folds another sink's spans into this one (the per-shard fan-in).
    /// The default folds nothing: right for a sink that records
    /// nothing, or for clones that share one plane.
    #[inline]
    fn merge_from(&mut self, _other: &Self) {}
}

/// The span sink that records nothing — and never reads the clock —
/// at zero cost, for every stage type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSpans;

impl<S> SpanSink<S> for NoopSpans {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add_span(&mut self, _stage: S, _nanos: u64) {}
}

/// The instrumented stages of a service hot path, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtStage {
    /// Blocking socket receive (successful receives only).
    Recv,
    /// Datagram parse plus shard routing.
    Route,
    /// Per-shard frame/tick handling.
    Handle,
    /// Reply (ACK / association response) transmission.
    Send,
}

impl RtStage {
    /// Number of stages.
    pub const COUNT: usize = 4;

    /// All stages, in pipeline order.
    pub const ALL: [RtStage; RtStage::COUNT] = [
        RtStage::Recv,
        RtStage::Route,
        RtStage::Handle,
        RtStage::Send,
    ];

    /// Dense index for array storage.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            RtStage::Recv => 0,
            RtStage::Route => 1,
            RtStage::Handle => 2,
            RtStage::Send => 3,
        }
    }

    /// Stable lowercase label (artifact and exposition key).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RtStage::Recv => "recv",
            RtStage::Route => "route",
            RtStage::Handle => "handle",
            RtStage::Send => "send",
        }
    }
}

/// One lock-free latency grid: the atomic twin of
/// [`LatencyHistogram`], snapshot-able while threads keep recording.
struct AtomicLatency {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicLatency {
    fn new() -> Self {
        AtomicLatency {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, nanos: u64) {
        self.buckets[LatencyHistogram::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.min.fetch_min(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy. Concurrent recording can skew the
    /// separately-loaded atomics against each other by in-flight
    /// increments; the copy derives `count` from the bucket totals so
    /// quantile walks always terminate consistently.
    fn snapshot(&self) -> LatencyHistogram {
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        LatencyHistogram::from_raw(
            buckets,
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// The live runtime-telemetry sink: one atomic latency grid per
/// [`RtStage`], shared across every daemon thread.
pub struct AtomicRuntime {
    stages: [AtomicLatency; RtStage::COUNT],
}

impl AtomicRuntime {
    /// A fresh, empty runtime plane.
    #[must_use]
    pub fn new() -> Self {
        AtomicRuntime {
            stages: std::array::from_fn(|_| AtomicLatency::new()),
        }
    }

    /// Record a latency directly (used by tests and by callers that
    /// already hold a duration).
    #[inline]
    pub fn record_nanos(&self, stage: RtStage, nanos: u64) {
        self.stages[stage.index()].record(nanos);
    }

    /// A point-in-time copy of one stage's histogram.
    #[must_use]
    pub fn snapshot(&self, stage: RtStage) -> LatencyHistogram {
        self.stages[stage.index()].snapshot()
    }
}

impl Default for AtomicRuntime {
    fn default() -> Self {
        AtomicRuntime::new()
    }
}

/// Each daemon thread holds its own clone; every clone records into
/// the one shared plane, so there is nothing to fold.
impl SpanSink<RtStage> for Arc<AtomicRuntime> {
    const ENABLED: bool = true;

    #[inline]
    fn add_span(&mut self, stage: RtStage, nanos: u64) {
        self.record_nanos(stage, nanos);
    }
}

/// Default number of one-second slots a [`RateMeter`] retains.
pub const RATE_WINDOW_SLOTS: usize = 60;

/// A windowed rate meter over a monotone counter.
///
/// Call [`RateMeter::sample`] once per second with the counter's
/// current total (a ticker thread owns the meter; readers get the
/// computed rates). Rates over 1 s / 10 s / 60 s windows are the mean
/// of the most recent per-second deltas — decaying automatically as
/// slots age out.
#[derive(Debug, Clone)]
pub struct RateMeter {
    deltas: [u64; RATE_WINDOW_SLOTS],
    head: usize,
    filled: usize,
    last_total: u64,
    primed: bool,
}

impl RateMeter {
    /// An empty meter.
    #[must_use]
    pub fn new() -> Self {
        RateMeter {
            deltas: [0; RATE_WINDOW_SLOTS],
            head: 0,
            filled: 0,
            last_total: 0,
            primed: false,
        }
    }

    /// Feed the counter's current total; call at a 1 Hz cadence. The
    /// first call primes the baseline and records no delta.
    pub fn sample(&mut self, total: u64) {
        if !self.primed {
            self.primed = true;
            self.last_total = total;
            return;
        }
        let delta = total.saturating_sub(self.last_total);
        self.last_total = total;
        self.deltas[self.head] = delta;
        self.head = (self.head + 1) % RATE_WINDOW_SLOTS;
        self.filled = (self.filled + 1).min(RATE_WINDOW_SLOTS);
    }

    /// Mean events/second over the last `window_secs` samples (clamped
    /// to what has been observed). Returns 0.0 before two samples.
    #[must_use]
    pub fn rate(&self, window_secs: usize) -> f64 {
        let n = window_secs.clamp(1, RATE_WINDOW_SLOTS).min(self.filled);
        if n == 0 {
            return 0.0;
        }
        let mut sum = 0u64;
        for k in 1..=n {
            let i = (self.head + RATE_WINDOW_SLOTS - k) % RATE_WINDOW_SLOTS;
            sum += self.deltas[i];
        }
        sum as f64 / n as f64
    }
}

impl Default for RateMeter {
    fn default() -> Self {
        RateMeter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the seam the way the daemon does: generically, so the
    /// noop monomorphization is exercised without unit-value lints.
    fn time_one_stage<P: SpanSink<RtStage>>(sink: &mut P, stage: RtStage) {
        let t = sink.start();
        sink.finish(stage, t);
    }

    #[test]
    fn noop_spans_are_inert() {
        const { assert!(!<NoopSpans as SpanSink<RtStage>>::ENABLED) };
        assert!(SpanSink::<RtStage>::start(&NoopSpans).is_none());
        time_one_stage(&mut NoopSpans, RtStage::Recv);
    }

    #[test]
    fn atomic_runtime_records_and_snapshots() {
        let rt = AtomicRuntime::new();
        rt.record_nanos(RtStage::Handle, 1_500);
        rt.record_nanos(RtStage::Handle, 1_500);
        rt.record_nanos(RtStage::Handle, 900_000);
        let snap = rt.snapshot(RtStage::Handle);
        assert_eq!(snap.count(), 3);
        assert!(snap.quantile(0.5) <= snap.quantile(0.99));
        assert!(rt.snapshot(RtStage::Recv).is_empty());
    }

    #[test]
    fn atomic_runtime_times_through_the_seam() {
        let mut rt = Arc::new(AtomicRuntime::new());
        let t = rt.start();
        assert!(t.is_some());
        std::hint::black_box(0u64);
        rt.finish(RtStage::Send, t);
        assert_eq!(rt.snapshot(RtStage::Send).count(), 1);
    }

    #[test]
    fn arc_clones_reach_the_shared_plane() {
        let mut router = Arc::new(AtomicRuntime::new());
        let mut shard = Arc::clone(&router);
        time_one_stage(&mut router, RtStage::Route);
        time_one_stage(&mut shard, RtStage::Route);
        // Clones share the plane, so folding one into another adds
        // nothing.
        router.merge_from(&shard);
        assert_eq!(router.snapshot(RtStage::Route).count(), 2);
    }

    #[test]
    fn rate_meter_windows_decay() {
        let mut m = RateMeter::new();
        m.sample(0); // prime
        for k in 1..=5u64 {
            m.sample(k * 100); // 100 events/s for 5 seconds
        }
        assert_eq!(m.rate(1), 100.0);
        assert_eq!(m.rate(10), 100.0); // clamped to 5 observed slots
        m.sample(500); // one idle second
        assert_eq!(m.rate(1), 0.0);
        assert!(m.rate(10) > 0.0 && m.rate(10) < 100.0);
    }

    #[test]
    fn rate_meter_handles_counter_resets() {
        let mut m = RateMeter::new();
        m.sample(1000);
        m.sample(10); // reset: saturating delta is 0, not huge
        assert_eq!(m.rate(1), 0.0);
    }
}
