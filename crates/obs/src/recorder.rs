//! The recording sink: flat metric arrays, span timers, merge, and the
//! serialized artifact.

use std::fmt::Write as _;
use std::time::Instant;

use crate::latency::Histogram;
use crate::metric::{Counter, Distribution, Stage};
use crate::sink::MetricsSink;

/// Stages recorded once per fleet shard or fleet run, on whichever
/// worker ran it, and summed at fan-in: spans that ran at once on
/// different workers add up, so a total can exceed the wall time of the
/// stage that contains it.
const WORKER_SUMMED: [Stage; 3] = [Stage::Fleet, Stage::FleetEventLoop, Stage::FleetMerge];

/// Accumulated span-timer state for one [`Stage`].
///
/// `calls` is deterministic (how many spans ran) and serializes into
/// the JSON artifact; `nanos` is wall-clock and is reported only in the
/// human-readable summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTiming {
    /// Number of completed spans attributed to the stage.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub nanos: u64,
}

/// A metrics sink that actually records: counters, histograms and
/// per-stage timings in flat enum-indexed arrays.
///
/// Recorders merge by elementwise addition ([`Recorder::merge_from`]),
/// so per-worker recorders produced under `hide_par::par_map` can be
/// fanned back in **in input order** and the result is byte-identical
/// to a sequential run at any jobs count.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    counters: [u64; Counter::COUNT],
    dists: [Histogram; Distribution::COUNT],
    stages: [StageTiming; Stage::COUNT],
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder {
            counters: [0; Counter::COUNT],
            dists: [Histogram::new(); Distribution::COUNT],
            stages: [StageTiming::default(); Stage::COUNT],
        }
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The histogram behind a distribution.
    #[must_use]
    pub fn distribution(&self, dist: Distribution) -> &Histogram {
        &self.dists[dist.index()]
    }

    /// Accumulated timing for a stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> StageTiming {
        self.stages[stage.index()]
    }

    /// Run `f` and attribute its wall-clock time to `stage`.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_span(stage, start.elapsed().as_nanos() as u64);
        out
    }

    /// Record one completed span of `nanos` wall-clock nanoseconds.
    pub fn add_span(&mut self, stage: Stage, nanos: u64) {
        let t = &mut self.stages[stage.index()];
        t.calls += 1;
        t.nanos += nanos;
    }

    /// Fold another recorder into this one.
    ///
    /// Every component merges by addition (histograms elementwise), so
    /// the operation is associative and commutative and fan-in order
    /// cannot change the result.
    pub fn merge_from(&mut self, other: &Recorder) {
        for (c, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *c += o;
        }
        for (d, o) in self.dists.iter_mut().zip(other.dists.iter()) {
            d.merge_from(o);
        }
        for (s, o) in self.stages.iter_mut().zip(other.stages.iter()) {
            s.calls += o.calls;
            s.nanos += o.nanos;
        }
    }

    /// True when nothing has been recorded at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.dists.iter().all(|d| d.is_empty())
            && self.stages.iter().all(|s| s.calls == 0)
    }

    /// Serialize the deterministic part of the recorder as JSON.
    ///
    /// The schema is documented in `docs/metrics-schema.md`; its
    /// identifier is `"hide-metrics/1"`. Wall-clock nanoseconds are
    /// deliberately excluded (only per-stage call counts appear), so
    /// the output is byte-identical across runs and `--jobs` counts.
    /// Every counter and distribution key appears in declaration order
    /// whether or not it was touched, so the shape is stable.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_with_sections(&[])
    }

    /// Like [`Recorder::to_json`], but splices extra top-level sections
    /// into the artifact between the schema line and `"counters"`.
    ///
    /// Each `(name, body)` pair renders as `"name": body,` on its own
    /// line; `body` must be a single-line JSON value the caller has
    /// already serialized (the fleet engine uses this for the
    /// integer-only `"energy"` attribution section). Section order is
    /// caller-defined and therefore deterministic.
    #[must_use]
    pub fn to_json_with_sections(&self, sections: &[(&str, &str)]) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"hide-metrics/1\",\n");

        for (name, body) in sections {
            let _ = writeln!(out, "  \"{name}\": {body},");
        }

        out.push_str("  \"counters\": {\n");
        for (i, c) in Counter::ALL.iter().enumerate() {
            let sep = if i + 1 == Counter::COUNT { "" } else { "," };
            let _ = writeln!(
                out,
                "    \"{}\": {}{sep}",
                c.name(),
                self.counters[c.index()]
            );
        }
        out.push_str("  },\n");

        out.push_str("  \"distributions\": {\n");
        for (i, d) in Distribution::ALL.iter().enumerate() {
            let h = &self.dists[d.index()];
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .map(|(b, n)| format!("[{b}, {n}]"))
                .collect();
            let sep = if i + 1 == Distribution::COUNT {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \
                 \"max\": {}, \"buckets\": [{}]}}{sep}",
                d.name(),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                buckets.join(", ")
            );
        }
        out.push_str("  },\n");

        out.push_str("  \"stages\": {\n");
        for (i, s) in Stage::ALL.iter().enumerate() {
            let sep = if i + 1 == Stage::COUNT { "" } else { "," };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"calls\": {}}}{sep}",
                s.name(),
                self.stages[s.index()].calls
            );
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Render the human-readable metrics summary table.
    ///
    /// Unlike [`Recorder::to_json`] this *does* include wall-clock
    /// stage timings, so it is informative but not deterministic. The
    /// fleet stages, summed over concurrent workers, print under their
    /// own heading. Columns are wide enough for every name in the
    /// metric namespace, including the fleet kernel stages.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for c in Counter::ALL {
            let v = self.counter(c);
            if v > 0 {
                let _ = writeln!(out, "  {:<28} {v}", c.name());
            }
        }

        let any_dist = Distribution::ALL
            .iter()
            .any(|d| !self.distribution(*d).is_empty());
        if any_dist {
            out.push_str("distributions (count / mean / min / max):\n");
            for d in Distribution::ALL {
                let h = self.distribution(d);
                if !h.is_empty() {
                    let _ = writeln!(
                        out,
                        "  {:<28} {} / {:.1} / {} / {}",
                        d.name(),
                        h.count(),
                        h.mean(),
                        h.min(),
                        h.max()
                    );
                }
            }
        }

        for (heading, summed) in [
            ("stage timings (wall-clock, non-deterministic):", false),
            (
                "worker-summed stage timings (summed over concurrent workers, \
                 can exceed the wall time; non-deterministic):",
                true,
            ),
        ] {
            let mut stages = Stage::ALL
                .into_iter()
                .filter(|s| WORKER_SUMMED.contains(s) == summed && self.stage(*s).calls > 0)
                .peekable();
            if stages.peek().is_some() {
                out.push_str(heading);
                out.push('\n');
            }
            for s in stages {
                let t = self.stage(s);
                let _ = writeln!(
                    out,
                    "  {:<28} {:>9.3} ms  ({} call{})",
                    s.name(),
                    t.nanos as f64 / 1e6,
                    t.calls,
                    if t.calls == 1 { "" } else { "s" }
                );
            }
        }
        out
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl MetricsSink for Recorder {
    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        self.counters[counter.index()] += n;
    }

    #[inline]
    fn observe(&mut self, dist: Distribution, value: u64) {
        self.dists[dist.index()].record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[(Counter, u64)], obs: &[(Distribution, u64)]) -> Recorder {
        let mut r = Recorder::new();
        for &(c, n) in values {
            r.add(c, n);
        }
        for &(d, v) in obs {
            r.observe(d, v);
        }
        r
    }

    #[test]
    fn counters_and_distributions_record() {
        let mut r = Recorder::new();
        assert!(r.is_empty());
        r.incr(Counter::BtimBeacons);
        r.add(Counter::BtimBytes, 7);
        r.observe(Distribution::BtimBytesPerBeacon, 7);
        assert!(!r.is_empty());
        assert_eq!(r.counter(Counter::BtimBeacons), 1);
        assert_eq!(r.counter(Counter::BtimBytes), 7);
        assert_eq!(r.distribution(Distribution::BtimBytesPerBeacon).count(), 1);
        assert_eq!(r.counter(Counter::SimsRun), 0);
    }

    /// Recorder merge must be associative and commutative — the
    /// determinism property the hide-par fan-in relies on.
    #[test]
    fn merge_is_associative_and_commutative() {
        let a = sample(
            &[(Counter::SimsRun, 2), (Counter::FramesHidden, 10)],
            &[
                (Distribution::HiddenPerRun, 5),
                (Distribution::HiddenPerRun, 5),
            ],
        );
        let b = sample(&[(Counter::SimsRun, 1)], &[(Distribution::HiddenPerRun, 0)]);
        let c = sample(
            &[(Counter::FramesDelivered, 4)],
            &[(Distribution::DeliveredPerRun, 4)],
        );

        // (a + b) + c
        let mut left = a.clone();
        left.merge_from(&b);
        left.merge_from(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge_from(&c);
        let mut right = a.clone();
        right.merge_from(&bc);
        // c + b + a
        let mut rev = c.clone();
        rev.merge_from(&b);
        rev.merge_from(&a);

        assert_eq!(left, right);
        assert_eq!(left, rev);
        assert_eq!(left.counter(Counter::SimsRun), 3);
        assert_eq!(left.distribution(Distribution::HiddenPerRun).count(), 3);
        assert_eq!(left.to_json(), rev.to_json());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = sample(
            &[(Counter::PortLookups, 9)],
            &[(Distribution::PostingsPerLookup, 2)],
        );
        let mut merged = a.clone();
        merged.merge_from(&Recorder::new());
        assert_eq!(merged, a);
        let mut empty = Recorder::new();
        empty.merge_from(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn span_timers_count_calls_deterministically() {
        let mut r = Recorder::new();
        let got = r.time(Stage::Fig7, || 41 + 1);
        assert_eq!(got, 42);
        r.add_span(Stage::Fig7, 1_000);
        let t = r.stage(Stage::Fig7);
        assert_eq!(t.calls, 2);
        assert!(t.nanos >= 1_000);
    }

    #[test]
    fn json_excludes_wall_clock_and_is_merge_stable() {
        let mut a = sample(&[(Counter::SimsRun, 1)], &[]);
        let mut b = a.clone();
        // Different wall-clock spans, same call counts: the JSON must
        // not differ.
        a.add_span(Stage::Fig7, 123);
        b.add_span(Stage::Fig7, 456_789);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"schema\": \"hide-metrics/1\""));
        assert!(a.to_json().contains("\"fig7\": {\"calls\": 1}"));
        assert!(!a.to_json().contains("nanos"));
    }

    #[test]
    fn json_has_stable_shape_when_empty() {
        let json = Recorder::new().to_json();
        for c in Counter::ALL {
            assert!(json.contains(c.name()), "missing {}", c.name());
        }
        for d in Distribution::ALL {
            assert!(json.contains(d.name()), "missing {}", d.name());
        }
        for s in Stage::ALL {
            assert!(json.contains(s.name()), "missing {}", s.name());
        }
    }

    #[test]
    fn json_with_sections_splices_after_schema() {
        let r = sample(&[(Counter::SimsRun, 1)], &[]);
        let json = r.to_json_with_sections(&[("energy", "{\"total_nj\": 42}")]);
        let schema_at = json.find("\"schema\"").unwrap();
        let energy_at = json.find("\"energy\": {\"total_nj\": 42},").unwrap();
        let counters_at = json.find("\"counters\"").unwrap();
        assert!(schema_at < energy_at && energy_at < counters_at);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // No sections == plain to_json.
        assert_eq!(r.to_json_with_sections(&[]), r.to_json());
    }

    #[test]
    fn summary_mentions_recorded_metrics_only() {
        let mut r = sample(
            &[(Counter::FramesHidden, 3)],
            &[(Distribution::HiddenPerRun, 3)],
        );
        r.add_span(Stage::Extensions, 5_000_000);
        let summary = r.render_summary();
        assert!(summary.contains("frames_hidden"));
        assert!(summary.contains("hidden_per_run"));
        assert!(summary.contains("extensions"));
        assert!(!summary.contains("sims_run"));
        assert!(!summary.contains("worker-summed"));
    }

    #[test]
    fn summary_heads_worker_summed_stages_apart() {
        let mut r = Recorder::new();
        r.add_span(Stage::Policy, 14_900_000);
        r.add_span(Stage::Fleet, 11_000_000);
        r.add_span(Stage::Fleet, 11_200_000);
        r.add_span(Stage::FleetEventLoop, 9_000_000);
        r.add_span(Stage::FleetMerge, 300_000);
        let summary = r.render_summary();
        let wall = summary.find("stage timings (wall-clock").unwrap();
        let summed = summary
            .find("worker-summed stage timings (summed over concurrent workers")
            .unwrap();
        assert!(wall < summed);
        let line = |name: &str| summary.find(&format!("  {name:<28} ")).unwrap();
        assert!(wall < line("policy") && line("policy") < summed);
        for name in ["fleet", "fleet_event_loop", "fleet_merge"] {
            assert!(summed < line(name), "{name} sits under the summed heading");
        }
        assert!(summary.contains("22.200 ms  (2 calls)"));

        let mut fleet_only = Recorder::new();
        fleet_only.add_span(Stage::Fleet, 1_000);
        let summary = fleet_only.render_summary();
        assert!(!summary.contains("stage timings (wall-clock"));
        assert!(summary.contains("worker-summed stage timings"));
    }
}
