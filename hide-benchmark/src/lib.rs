//! `hide-benchmark`: one repeatable benchmark for the three paths the
//! HIDE reproduction serves — the paper reproduction, the fleet
//! simulator (in memory and streamed) and the `hide-apd` daemon.
//!
//! Each workload drives its layers through their public APIs and times
//! the calls from outside; no code under `crates/` is instrumented for
//! it. An untraced run gives the end-to-end metrics, a separate traced
//! run the per-layer ones (see [`metrics`] for the registry and
//! `README.md` for what each number means).

#![forbid(unsafe_code)]

pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod workloads;

use json::{number, quote};
use stats::Summary;
use std::fmt::Write as _;

/// How one workload run is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOpts {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Wall-clock seconds the measured phase lasts.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Tiny sizes for tests; every correctness check stays on.
    pub quick: bool,
}

impl RunOpts {
    /// Seconds of the workload's own work run before anything is
    /// timed, set-up included: after an idle gap a virtual machine's
    /// second core runs at about half speed for the first second of
    /// load. Quick runs skip it.
    #[must_use]
    pub fn warm_up_secs(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            1.5
        }
    }
}

/// One measured metric: its samples (or a single value).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Registered name.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Repeated samples; the reported value is their median.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric summarised from repeated samples.
    #[must_use]
    pub fn samples(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            samples,
        }
    }

    /// A metric measured once.
    #[must_use]
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::samples(name, unit, vec![value])
    }

    /// The reported value: the median of the samples.
    #[must_use]
    pub fn reported(&self) -> f64 {
        stats::median(&self.samples)
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted (passes, fleet iterations, datagrams).
    pub attempted: u64,
    /// Operations that failed: lost replies, uncounted datagrams,
    /// mismatching iterations.
    pub failed: u64,
    /// Metrics measured by this run.
    pub metrics: Vec<Metric>,
    /// Correctness checks that failed, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records `problem` unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Adds a metric; samples of a metric already present are appended
    /// to it.
    pub fn push(&mut self, metric: Metric) {
        match self.metrics.iter_mut().find(|m| m.name == metric.name) {
            Some(m) => m.samples.extend(metric.samples),
            None => self.metrics.push(metric),
        }
    }

    /// `true` when every correctness check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metric named `name`, if measured.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The registered metrics this run reports, in registry order:
    /// the end-to-end set untraced, the per-layer set traced. A
    /// per-layer metric of a layer this workload never touches reads 0.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the workload failed to measure.
    pub fn registered(&self, trace: bool) -> Result<Vec<(String, &'static str, f64)>, String> {
        let defs = if trace {
            metrics::per_layer()
        } else {
            metrics::end_to_end()
        };
        defs.into_iter()
            .map(|d| match self.metric(&d.name) {
                Some(m) => Ok((d.name, d.unit, m.reported())),
                None if trace => Ok((d.name, d.unit, 0.0)),
                None => Err(format!("end-to-end metric {} was not measured", d.name)),
            })
            .collect()
    }

    /// The one-line result printed last: `correct`, `attempted`, `failed`
    /// and the registered metrics.
    #[must_use]
    pub fn result_line(&self, registered: &[(String, &'static str, f64)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in registered.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The `hide-benchmark/1` document: run identity, host fingerprint
    /// and every measured metric with its sample summary.
    #[must_use]
    pub fn document(&self, workload: &str, opts: &RunOpts, host: &host::Host) -> String {
        let mut out = String::from("{\n  \"schema\": \"hide-benchmark/1\",\n");
        let _ = writeln!(out, "  \"workload\": {},", quote(workload));
        let _ = writeln!(
            out,
            "  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},",
            opts.seed,
            number(opts.seconds),
            opts.trace
        );
        let _ = writeln!(out, "  \"host\": {},", host.to_json());
        let _ = writeln!(
            out,
            "  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},",
            self.correct(),
            self.attempted,
            self.failed
        );
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        let _ = writeln!(out, "  \"problems\": [{}],", problems.join(", "));
        out.push_str("  \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let s = Summary::of(&m.samples);
            let _ = write!(
                out,
                "{}\n    {}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"min\": {}, \"max\": {}, \"mad\": {}, \"iqr\": {}}}",
                if i == 0 { "" } else { "," },
                quote(&m.name),
                number(s.median),
                quote(m.unit),
                s.n,
                number(s.min),
                number(s.max),
                number(s.mad),
                number(s.iqr),
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB, or `None`
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
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
