//! Per-stage wall-time profiling for the fleet kernel.
//!
//! The global [`hide_obs::Stage`] timings ride inside the
//! `hide-metrics/1` artifact, whose key set is golden-gated — adding a
//! stage there would move every golden. Kernel profiling therefore
//! keeps its own stage type, [`FleetStage`], behind the workspace's one
//! wall-clock seam, [`hide_obs::SpanSink`]: the kernel is generic over
//! `P: SpanSink<FleetStage>`, [`hide_obs::NoopSpans`] compiles every
//! timer out, and [`StageProfile`] accumulates the spans and exports
//! its own `hide-fleet-stages/1` JSON line. Wall-clock is inherently
//! nondeterministic, so this schema is **never** embedded in
//! `hide-metrics/1` and never diffed against goldens — it exists so
//! kernel work can see where the time goes.
//!
//! Granularity: the event loop attributes each handler invocation to
//! one [`FleetStage`] bucket (timer calls per kernel event are cheap
//! relative to a handler, and [`hide_obs::NoopSpans`] compiles them
//! out entirely). `queue_pop` covers only the pop itself, from the heap
//! or from the front of a FIFO lane; a schedule made *inside* a handler
//! (an O(log n) heap push, or an O(1) lane append) is charged to that
//! handler's bucket, so a calendar regression shows up in both.

use hide_obs::{SpanSink, StageTiming};
use std::fmt::Write as _;

/// The fleet kernel's profiling buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetStage {
    /// Engine construction: client sampling, stream setup, initial
    /// schedule.
    Setup,
    /// Event-calendar pops, from the heap or a lane (the kernel's
    /// dequeue half).
    QueuePop,
    /// DTIM boundaries: expiry, batched flag pass, client sweep.
    DtimSweep,
    /// Lifecycle churn handlers: join, leave, suspend, resume.
    Churn,
    /// UDP Port Message refresh handling.
    Refresh,
    /// Broadcast frame arrivals (stream pull + buffering).
    Arrival,
    /// Sequential fan-in of shard reports and recorders.
    Merge,
}

impl FleetStage {
    /// Number of buckets.
    pub const COUNT: usize = 7;

    /// All buckets in display order.
    pub const ALL: [FleetStage; FleetStage::COUNT] = [
        FleetStage::Setup,
        FleetStage::QueuePop,
        FleetStage::DtimSweep,
        FleetStage::Churn,
        FleetStage::Refresh,
        FleetStage::Arrival,
        FleetStage::Merge,
    ];

    /// Stable snake_case name used in JSON keys and table rows.
    pub fn name(self) -> &'static str {
        match self {
            FleetStage::Setup => "setup",
            FleetStage::QueuePop => "queue_pop",
            FleetStage::DtimSweep => "dtim_sweep",
            FleetStage::Churn => "churn",
            FleetStage::Refresh => "refresh",
            FleetStage::Arrival => "arrival",
            FleetStage::Merge => "merge",
        }
    }

    fn index(self) -> usize {
        match self {
            FleetStage::Setup => 0,
            FleetStage::QueuePop => 1,
            FleetStage::DtimSweep => 2,
            FleetStage::Churn => 3,
            FleetStage::Refresh => 4,
            FleetStage::Arrival => 5,
            FleetStage::Merge => 6,
        }
    }
}

/// Accumulated per-stage wall time, one [`StageTiming`] per bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageProfile {
    timings: [StageTiming; FleetStage::COUNT],
}

impl StageProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        StageProfile::default()
    }

    /// The accumulated timing for one bucket.
    #[must_use]
    pub fn stage(&self, stage: FleetStage) -> StageTiming {
        self.timings[stage.index()]
    }

    /// Total nanoseconds across all buckets.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.timings.iter().map(|t| t.nanos).sum()
    }

    /// One line of `hide-fleet-stages/1` JSON: per-bucket calls and
    /// nanoseconds in fixed [`FleetStage::ALL`] order. Wall-clock, so
    /// deliberately a separate schema from the golden-gated
    /// `hide-metrics/1`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\": \"hide-fleet-stages/1\", \"stages\": {");
        for (i, stage) in FleetStage::ALL.iter().enumerate() {
            let t = self.stage(*stage);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"calls\": {}, \"nanos\": {}}}",
                stage.name(),
                t.calls,
                t.nanos
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable breakdown table, one row per bucket with its
    /// share of the profiled total.
    #[must_use]
    pub fn render(&self) -> String {
        let total = self.total_nanos().max(1);
        let mut out = String::from("stage         calls          wall      share\n");
        for stage in FleetStage::ALL {
            let t = self.stage(stage);
            let _ = writeln!(
                out,
                "{:<11} {:>9}  {:>10.3} ms  {:>6.2}%",
                stage.name(),
                t.calls,
                t.nanos as f64 / 1e6,
                t.nanos as f64 * 100.0 / total as f64
            );
        }
        out
    }
}

impl SpanSink<FleetStage> for StageProfile {
    const ENABLED: bool = true;

    #[inline]
    fn add_span(&mut self, stage: FleetStage, nanos: u64) {
        let t = &mut self.timings[stage.index()];
        t.calls += 1;
        t.nanos += nanos;
    }

    /// Adds another profile into this one (shard fan-in).
    fn merge_from(&mut self, other: &StageProfile) {
        for (mine, theirs) in self.timings.iter_mut().zip(other.timings.iter()) {
            mine.calls += theirs.calls;
            mine.nanos += theirs.nanos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_merge_and_totals() {
        let mut a = StageProfile::new();
        a.add_span(FleetStage::QueuePop, 100);
        a.add_span(FleetStage::QueuePop, 50);
        a.add_span(FleetStage::DtimSweep, 300);
        let mut b = StageProfile::new();
        b.add_span(FleetStage::Merge, 25);
        a.merge_from(&b);
        assert_eq!(a.stage(FleetStage::QueuePop).calls, 2);
        assert_eq!(a.stage(FleetStage::QueuePop).nanos, 150);
        assert_eq!(a.stage(FleetStage::Merge).nanos, 25);
        assert_eq!(a.total_nanos(), 475);
    }

    #[test]
    fn json_is_schema_tagged_and_covers_every_stage() {
        let mut p = StageProfile::new();
        p.add_span(FleetStage::Setup, 7);
        let json = p.to_json();
        assert!(json.starts_with("{\"schema\": \"hide-fleet-stages/1\""));
        for stage in FleetStage::ALL {
            assert!(json.contains(stage.name()), "missing {}", stage.name());
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = p.render();
        assert!(table.contains("setup"));
        assert!(table.contains("100.00%"));
    }

    #[test]
    fn profile_times_through_the_seam() {
        const { assert!(!<hide_obs::NoopSpans as SpanSink<FleetStage>>::ENABLED) };
        let mut p = StageProfile::new();
        let t = p.start();
        assert!(t.is_some());
        p.finish(FleetStage::Churn, t);
        assert_eq!(p.stage(FleetStage::Churn).calls, 1);
    }
}
