//! The metric registry: every end-to-end and per-layer metric the
//! benchmark reports, with its unit and direction. `BENCHMARK.json` at
//! the repository root lists the same names (a test keeps the two in
//! step) and adds each end-to-end metric's regression bound.

use crate::workloads::{APD_BROADCAST, APD_REFRESH, FLEET_CHURN, FLEET_EXPORT, PAPER_REPRODUCE};
use hide::fleet::FleetStage;
use hide::obs::RtStage;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, losses).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// `<module>.<metric>` for per-layer metrics, a bare name end to end.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Workloads that exercise the metric's layer. Every workload
    /// emits every metric; on the others a per-layer metric reads 0.
    pub workloads: &'static [&'static str],
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        workloads,
    }
}

const ALL: &[&str] = &[
    PAPER_REPRODUCE,
    FLEET_CHURN,
    FLEET_EXPORT,
    APD_REFRESH,
    APD_BROADCAST,
];
const REPRODUCE: &[&str] = &[PAPER_REPRODUCE];
const FLEET: &[&str] = &[FLEET_CHURN, FLEET_EXPORT];
const EXPORT: &[&str] = &[FLEET_EXPORT];
const APD: &[&str] = &[APD_REFRESH, APD_BROADCAST];
const REFRESH: &[&str] = &[APD_REFRESH];
const BROADCAST: &[&str] = &[APD_BROADCAST];

/// The end-to-end metrics: what a user of each path sees. Every
/// workload reports all four; `README.md` says what an operation and
/// a unit of work are on each.
#[must_use]
pub fn end_to_end() -> Vec<Def> {
    use Better::{Higher, Lower};
    vec![
        def("setup_s", "s", Lower, ALL),
        def("peak_rss_mb", "MiB", Lower, ALL),
        def("op_p50_ms", "ms", Lower, ALL),
        def("work_per_s", "1/s", Higher, ALL),
    ]
}

/// The per-layer metrics of the traced run, grouped by layer.
#[must_use]
pub fn per_layer() -> Vec<Def> {
    use Better::{Higher, Lower};
    let mut v = vec![
        def("traces.generate_ms", "ms", Lower, REPRODUCE),
        def("sim.fig7_ms", "ms", Lower, REPRODUCE),
        def("sim.fig8_ms", "ms", Lower, REPRODUCE),
        def("sim.fig9_ms", "ms", Lower, REPRODUCE),
        def("bench.tables_ms", "ms", Lower, REPRODUCE),
        def("bench.extensions_ms", "ms", Lower, REPRODUCE),
        def("policy.matrix_ms", "ms", Lower, REPRODUCE),
        def("analysis.fig10_12_ms", "ms", Lower, REPRODUCE),
        def("analysis.host_costs_ms", "ms", Lower, REPRODUCE),
        def("reproduce.pass_ms", "ms", Lower, REPRODUCE),
        def("reproduce.residual_ms", "ms", Lower, REPRODUCE),
    ];
    for stage in FleetStage::ALL.map(FleetStage::name) {
        v.push(def(format!("fleet.{stage}_ms"), "ms", Lower, FLEET));
        v.push(def(format!("fleet.{stage}_calls"), "count", Lower, FLEET));
    }
    v.extend([
        def("fleet.ns_per_event", "ns", Lower, FLEET),
        def("fleet.stage_coverage", "fraction", Higher, FLEET),
        def("fleet.trace_overhead_pct", "%", Lower, FLEET),
        def("fleet.missed_rate", "fraction", Lower, FLEET),
        def("fleet.spurious_rate", "fraction", Lower, FLEET),
        def("fleet.refresh_lost_frac", "fraction", Lower, FLEET),
        def("obs.run_spill_ms", "ms", Lower, EXPORT),
        def("obs.merge_render_ms", "ms", Lower, EXPORT),
        def("obs.cleanup_ms", "ms", Lower, EXPORT),
        def("obs.trace_events", "count", Lower, EXPORT),
        def("obs.spill_bytes", "bytes", Lower, EXPORT),
        def("obs.rendered_bytes", "bytes", Lower, EXPORT),
        def("obs.render_mb_per_s", "MB/s", Higher, EXPORT),
        def("obs.dropped", "count", Lower, EXPORT),
        def("export.residual_ms", "ms", Lower, EXPORT),
    ]);
    for (phase, workloads) in [
        ("open", REFRESH),
        ("closed", REFRESH),
        ("broadcast", BROADCAST),
    ] {
        for stage in RtStage::ALL.map(RtStage::label) {
            v.push(def(
                format!("apd.{phase}.{stage}_p50_ns"),
                "ns",
                Lower,
                workloads,
            ));
            v.push(def(
                format!("apd.{phase}.{stage}_count"),
                "count",
                Higher,
                workloads,
            ));
        }
        v.push(def(
            format!("apd.{phase}.handle_p99_ns"),
            "ns",
            Lower,
            workloads,
        ));
        v.push(def(
            format!("apd.{phase}.telemetry_overhead_pct"),
            "%",
            Lower,
            workloads,
        ));
    }
    v.extend([
        def("apd.open.ack_p99_us", "us", Lower, REFRESH),
        def("apd.open.ack_p999_us", "us", Lower, REFRESH),
        def("apd.open.gen_late_max_ms", "ms", Lower, REFRESH),
        def("apd.closed.ack_p99_us", "us", Lower, REFRESH),
        def("apd.broadcast.tick_p50_us", "us", Lower, BROADCAST),
        def(
            "apd.broadcast.delivered_per_frame",
            "frames",
            Higher,
            BROADCAST,
        ),
        def("apd.dropped_backpressure", "count", Lower, APD),
        def("apd.parse_errors", "count", Lower, APD),
    ]);
    v
}
