//! Shared helpers for the reproduction harness: canonical experiment
//! settings and renderers for every table and figure of the paper.
//!
//! The `reproduce` binary drives these; the Criterion benches in
//! `benches/` time the underlying computations.
//!
//! Every trace-driven renderer is a `*_with` function taking a
//! [`hide_obs::Recorder`]: it streams the simulation metrics into the
//! recorder (per-section recorders fan in, in declaration order, so the
//! merged totals are independent of the `--jobs` count). A caller that
//! wants only the rendered text passes `&mut Recorder::new()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hide::HideError;
use hide_analysis::capacity::{CapacityAnalysis, NetworkConfig};
use hide_analysis::delay::{DelayAnalysis, DelayConfig};
use hide_energy::profile::{DeviceProfile, GALAXY_S4, NEXUS_ONE};
use hide_obs::{NoopTrace, Recorder};
use hide_sim::experiment::{self, ScenarioComparison, PAPER_FRACTIONS};
use hide_sim::{report, SimError};
use hide_traces::record::Trace;
use hide_traces::scenario::Scenario;
use std::fmt::Write as _;

/// Canonical trace duration for the reproduction: the paper's captures
/// are 30–60 minutes; we use the 45-minute midpoint.
pub const TRACE_DURATION_SECS: f64 = 2700.0;

/// Canonical seed so every run of the harness reproduces identical
/// numbers.
pub const TRACE_SEED: u64 = 2016;

/// Generates the five canonical traces.
pub fn canonical_traces() -> Vec<Trace> {
    Scenario::generate_all(TRACE_DURATION_SECS, TRACE_SEED)
}

/// Renders Table I (device energy/power constants).
pub fn table_1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:>5} {:>7} {:>7} {:>9} {:>9} {:>8} {:>7} {:>7} {:>7} {:>6} {:>6}",
        "device", "tau", "Trm", "Tsp", "Erm", "Esp", "Eu_b", "Pr", "Pt", "Pidle", "Pss", "Psa"
    );
    for p in [NEXUS_ONE, GALAXY_S4] {
        let _ = writeln!(
            out,
            "{:<11} {:>4}s {:>5}ms {:>5}ms {:>7.2}mJ {:>7.2}mJ {:>6.2}mJ {:>6}mW {:>6}mW {:>6}mW {:>5}mW {:>5}mW",
            p.name,
            p.wakelock_secs,
            p.resume_secs * 1e3,
            p.suspend_secs * 1e3,
            p.resume_energy * 1e3,
            p.suspend_energy * 1e3,
            p.beacon_energy * 1e3,
            p.rx_power * 1e3,
            p.tx_power * 1e3,
            p.idle_power * 1e3,
            p.suspend_power * 1e3,
            p.active_idle_power * 1e3,
        );
    }
    out
}

/// Renders Table II (network configuration for the overhead analysis).
pub fn table_2() -> String {
    let cfg = NetworkConfig::table_ii();
    let d = &cfg.dcf;
    let mut out = String::new();
    let rows: Vec<(&str, String)> = vec![
        ("min contention window", d.cw_min.to_string()),
        ("max contention window", d.cw_max.to_string()),
        ("slot time", format!("{} us", d.slot_time_us)),
        ("SIFS", format!("{} us", d.sifs_us)),
        ("DIFS", format!("{} us", d.difs_us)),
        ("propagation delay", format!("{} us", d.propagation_us)),
        (
            "channel data rate",
            format!("{} Mbits/s", d.channel_rate_bps / 1e6),
        ),
        ("MAC header", format!("{} bits", d.mac_header_bits)),
        (
            "PHY preamble + header",
            format!("{} bits", d.phy_header_bits),
        ),
        (
            "average data payload size",
            format!("{} bits", d.payload_bits),
        ),
    ];
    for (k, v) in rows {
        let _ = writeln!(out, "{k:<28} {v}");
    }
    out
}

/// Renders Fig. 6 (broadcast traffic volumes).
pub fn figure_6(traces: &[Trace]) -> String {
    report::render_trace_volumes(&experiment::trace_volumes(traces))
}

/// Runs and renders Fig. 7 (Nexus One) or Fig. 8 (Galaxy S4),
/// streaming the simulation metrics into `recorder`.
///
/// # Errors
///
/// Returns [`HideError::Sim`] when a trace is degenerate or the
/// comparison lacks a required bar.
pub fn figure_7_or_8_with(
    profile: DeviceProfile,
    traces: &[Trace],
    recorder: &mut Recorder,
) -> Result<String, HideError> {
    let comparisons = experiment::energy_comparison(profile, traces, &PAPER_FRACTIONS, recorder)?;
    let mut out = report::render_energy_comparison(&comparisons);
    out.push('\n');
    out.push_str(&headline(&comparisons)?);
    Ok(out)
}

fn headline(comparisons: &[ScenarioComparison]) -> Result<String, HideError> {
    let mut out = String::new();
    for fraction in [0.10, 0.02] {
        let s = experiment::savings_summary(comparisons, fraction)?;
        let _ = writeln!(
            out,
            "HIDE:{:.0}% saves {:.0}%-{:.0}% vs receive-all on {} \
             (avg +{:.0}% over client-side)",
            fraction * 100.0,
            s.min_saving * 100.0,
            s.max_saving * 100.0,
            s.device,
            s.mean_extra_vs_client_side * 100.0
        );
    }
    Ok(out)
}

/// Runs and renders Fig. 9 (suspend-mode time fractions, Nexus One),
/// streaming the simulation metrics into `recorder`.
///
/// # Errors
///
/// Returns [`HideError::Sim`] when a trace is degenerate.
pub fn figure_9_with(traces: &[Trace], recorder: &mut Recorder) -> Result<String, HideError> {
    Ok(report::render_suspend_fractions(
        &experiment::suspend_fractions(NEXUS_ONE, traces, recorder)?,
    ))
}

/// Runs and renders Fig. 10 (network capacity decrease).
pub fn figure_10() -> String {
    let analysis = CapacityAnalysis::new(NetworkConfig::table_ii());
    let points = analysis.figure_10().expect("standard sweep solves");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "nodes", "p=5%", "p=25%", "p=50%", "p=75%"
    );
    for (i, &n) in [5u32, 10, 20, 30, 40, 50].iter().enumerate() {
        let _ = write!(out, "{n:<8}");
        for j in 0..4 {
            let pt = &points[j * 6 + i];
            let _ = write!(out, " {:>7.3}%", pt.decrease * 100.0);
        }
        let _ = writeln!(out);
    }
    out
}

/// Runs and renders Fig. 11 (delay overhead vs sync interval).
pub fn figure_11() -> String {
    let analysis = DelayAnalysis::new(DelayConfig::default());
    let sweeps = analysis.figure_11();
    let mut out = String::new();
    let _ = write!(out, "{:<8}", "nodes");
    for (interval, _) in &sweeps {
        let _ = write!(out, " {:>9}", format!("1/f={interval}s"));
    }
    let _ = writeln!(out);
    for (i, &n) in [5u32, 10, 20, 30, 40, 50].iter().enumerate() {
        let _ = write!(out, "{n:<8}");
        for (_, pts) in &sweeps {
            let _ = write!(out, " {:>8.3}%", pts[i].overhead * 100.0);
        }
        let _ = writeln!(out);
    }
    out
}

/// Runs and renders Fig. 12 (delay overhead vs open ports).
pub fn figure_12() -> String {
    let analysis = DelayAnalysis::new(DelayConfig::default());
    let sweeps = analysis.figure_12();
    let mut out = String::new();
    let _ = write!(out, "{:<8}", "nodes");
    for (ports, _) in &sweeps {
        let _ = write!(out, " {:>9}", format!("no={ports}"));
    }
    let _ = writeln!(out);
    for (i, &n) in [5u32, 10, 20, 30, 40, 50].iter().enumerate() {
        let _ = write!(out, "{n:<8}");
        for (_, pts) in &sweeps {
            let _ = write!(out, " {:>8.3}%", pts[i].overhead * 100.0);
        }
        let _ = writeln!(out);
    }
    out
}

/// Runs and renders the extension experiments (beyond the paper):
/// hybrid solution, DTIM batching, unicast sensitivity, fleet adoption,
/// sync-loss robustness, wakelock sensitivity, delivery latency and the
/// protocol cross-validation.
///
/// The sections are mutually independent, so each renders on its own
/// worker into a section-local recorder; concatenating the text and
/// merging the locals into `recorder` in declaration order keeps both
/// byte-identical to a sequential run at any job count. The pool
/// takes them in reverse, so the protocol cross-validation, declared
/// last and alone about half the work, starts first.
///
/// # Panics
///
/// Panics when `traces[1]` is missing or degenerate; the canonical
/// traces never are.
pub fn extensions_with(traces: &[Trace], recorder: &mut Recorder) -> String {
    let trace = &traces[1]; // CS_Dept: the mid-volume trace
    type Section = fn(&Trace, &mut Recorder) -> Result<String, SimError>;
    let sections: [Section; 8] = [
        ext_hybrid,
        ext_dtim,
        ext_unicast,
        ext_fleet,
        ext_sync_loss,
        ext_wakelock,
        ext_latency,
        ext_protocol,
    ];
    let reversed: Vec<Section> = sections.into_iter().rev().collect();
    let rendered = hide_par::par_map(&reversed, |render| {
        let mut local = Recorder::new();
        let out = render(trace, &mut local);
        (out, local)
    });
    let mut out = String::new();
    for (text, local) in rendered.into_iter().rev() {
        recorder.merge_from(&local);
        out.push_str(&text.expect("canonical trace is valid"));
    }
    out
}

/// Runs and renders the cross-policy × cross-device comparison over
/// the policy registry: one small fleet per (device, policy) pair —
/// HIDE, legacy PSM and scheduled wake over every registry device (or
/// the `--policy`/`--device` filtered subset), with the
/// battery-lifetime projection each run extrapolates onto that
/// device's battery. The cells run through the pool (each fleet run
/// inline on its worker) and are rendered and merged in declaration
/// order; every run is seed-pinned, so the table and the merged
/// counters are byte-identical at any job count.
///
/// # Errors
///
/// Returns [`HideError::Fleet`] on an invalid fleet configuration and
/// a usage-style [`HideError::Sim`] is never produced here — unknown
/// filter names simply select nothing and render an empty table.
pub fn policy_matrix_with(
    policy: Option<&str>,
    device: Option<&str>,
    recorder: &mut Recorder,
) -> Result<String, HideError> {
    use hide::policy::{builtin, WakePolicy};
    use hide_fleet::{ChurnConfig, FleetConfig};

    let policies = [
        WakePolicy::Hide,
        WakePolicy::LegacyPsm,
        WakePolicy::ScheduledWake(hide::policy::ScheduleConfig::default()),
    ];
    let cells: Vec<_> = builtin()
        .into_iter()
        .filter(|entry| device.is_none_or(|d| d.eq_ignore_ascii_case(entry.key)))
        .flat_map(|entry| policies.map(|p| (entry, p)))
        .filter(|(_, p)| {
            policy
                .is_none_or(|name| WakePolicy::parse(name).map(|q| q.kind_id()) == Ok(p.kind_id()))
        })
        .collect();
    let runs = hide_par::par_map(&cells, |(entry, p)| {
        FleetConfig {
            bss_count: 20,
            clients_per_bss: 8,
            adoption: 1.0,
            duration_secs: 10.0,
            scenario: Scenario::CsDept,
            seed: TRACE_SEED,
            profile: entry.profile,
            policy: *p,
            battery: entry.battery(),
            churn: ChurnConfig {
                refresh_interval_secs: 3.0,
                refresh_loss: 0.0,
                ..ChurnConfig::default()
            },
        }
        .try_run()
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<14} {:>10} {:>9} {:>8} {:>8} {:>11} {:>9}",
        "device", "policy", "energy J", "saving%", "wakes", "missed", "lifetime h", "gain%"
    );
    for ((entry, p), run) in cells.iter().zip(runs) {
        let result = run?;
        recorder.merge_from(&result.recorder);
        let r = &result.report;
        let lt = &result.lifetime;
        let _ = writeln!(
            out,
            "{:<12} {:<14} {:>10.3} {:>9.2} {:>8} {:>8} {:>11.1} {:>+9.2}",
            entry.key,
            p.name(),
            result.energy_totals.spent_nj() as f64 / 1e9,
            result.fleet_saving * 100.0,
            r.wakeups,
            r.missed_wakeups,
            lt.projected_secs as f64 / 3600.0,
            lt.lifetime_gain_ppm as f64 / 1e4,
        );
    }
    Ok(out)
}

fn ext_hybrid(trace: &Trace, recorder: &mut Recorder) -> Result<String, SimError> {
    use hide_sim::solution::Solution;
    use hide_sim::SimulationBuilder;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "--- hybrid HIDE + client-side (future work, Sec. VIII) ---"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>10}",
        "solution", "total mW", "received", "wake-ups"
    );
    for solution in [
        Solution::hide(0.10),
        Solution::hybrid(0.10, 0.04),
        Solution::hide(0.04),
    ] {
        let r = SimulationBuilder::new(trace, NEXUS_ONE)
            .solution(solution)
            .run(&mut *recorder)?;
        let _ = writeln!(
            out,
            "{:<16} {:>10.2} {:>10} {:>10}",
            solution.label(),
            r.energy.average_power_mw(),
            r.received_frames,
            r.wake_frames
        );
    }
    Ok(out)
}

fn ext_dtim(trace: &Trace, recorder: &mut Recorder) -> Result<String, SimError> {
    use hide_sim::solution::Solution;
    use hide_sim::SimulationBuilder;
    let mut out = String::new();
    let _ = writeln!(out, "\n--- DTIM period (AP-side delivery batching) ---");
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>10}",
        "period", "receive-all", "HIDE:10%"
    );
    for period in [1u8, 2, 3] {
        let all = SimulationBuilder::new(trace, NEXUS_ONE)
            .dtim_period(period)
            .run(&mut *recorder)?;
        let hide = SimulationBuilder::new(trace, NEXUS_ONE)
            .solution(Solution::hide(0.10))
            .dtim_period(period)
            .run(&mut *recorder)?;
        let _ = writeln!(
            out,
            "{:<8} {:>9.1} mW {:>7.1} mW",
            period,
            all.energy.average_power_mw(),
            hide.energy.average_power_mw()
        );
    }
    Ok(out)
}

fn ext_unicast(trace: &Trace, recorder: &mut Recorder) -> Result<String, SimError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n--- unicast sensitivity (HIDE:10% saving vs unicast load) ---"
    );
    let rows =
        experiment::unicast_sensitivity(NEXUS_ONE, trace, &[0.0, 0.1, 0.5, 1.0, 2.0], recorder)?;
    let _ = writeln!(
        out,
        "{:>12} {:>12} {:>10} {:>8}",
        "unicast fps", "receive-all", "HIDE:10%", "saving"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>12.1} {:>9.1} mW {:>7.1} mW {:>7.1}%",
            r.unicast_rate,
            r.receive_all_mw,
            r.hide_mw,
            r.saving * 100.0
        );
    }
    Ok(out)
}

fn ext_fleet(trace: &Trace, _recorder: &mut Recorder) -> Result<String, SimError> {
    use hide_sim::network::{fleet, NetworkSimulation};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n--- fleet adoption (20 Nexus Ones on the CS_Dept trace) ---"
    );
    for adoption in [0.25, 0.50, 1.00] {
        let r = NetworkSimulation::new(trace, NEXUS_ONE, fleet(20, adoption, 7)).run()?;
        let _ = writeln!(
            out,
            "adoption {:>4.0}%: fleet saving {:>5.1}%, {:.2} port msgs/s",
            adoption * 100.0,
            r.fleet_saving * 100.0,
            r.port_messages_per_sec
        );
    }
    Ok(out)
}

fn ext_sync_loss(trace: &Trace, _recorder: &mut Recorder) -> Result<String, SimError> {
    use hide_sim::reliability::{self, ReliabilityConfig};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n--- sync-loss robustness (churn every 2 min, 3 retries) ---"
    );
    let losses = [0.1, 0.5, 0.9];
    let configs: Vec<ReliabilityConfig> = losses
        .iter()
        .map(|&loss| ReliabilityConfig {
            loss_probability: loss,
            churn_interval_secs: 120.0,
            ..ReliabilityConfig::default()
        })
        .collect();
    for (loss, r) in losses.iter().zip(reliability::run_sweep(trace, &configs)) {
        let _ = writeln!(
            out,
            "loss {:>3.0}%: {:>3}/{} syncs failed, {:.3}% useful missed, {:.1}% stale",
            loss * 100.0,
            r.syncs_failed,
            r.syncs_attempted,
            r.missed_useful_fraction * 100.0,
            r.stale_time_fraction * 100.0
        );
    }
    Ok(out)
}

fn ext_wakelock(trace: &Trace, _recorder: &mut Recorder) -> Result<String, SimError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n--- sensitivity: wakelock duration tau (paper fixes 1 s) ---"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>10} {:>8}",
        "tau", "receive-all", "HIDE:10%", "saving"
    );
    for p in hide_sim::sensitivity::wakelock_sweep(trace, NEXUS_ONE, &[0.25, 0.5, 1.0, 2.0, 5.0])? {
        let _ = writeln!(
            out,
            "{:>7}s {:>9.1} mW {:>7.1} mW {:>7.1}%",
            p.value,
            p.receive_all_mw,
            p.hide_mw,
            p.hide_saving * 100.0
        );
    }
    Ok(out)
}

fn ext_latency(trace: &Trace, _recorder: &mut Recorder) -> Result<String, SimError> {
    let mut out = String::new();
    let _ = writeln!(out, "\n--- broadcast delivery latency vs DTIM period ---");
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "period", "mean", "p50", "p99", "max"
    );
    for report in hide_sim::latency::latency_sweep(trace, 0.1024, &[1, 2, 3, 5]) {
        let _ = writeln!(
            out,
            "{:<8} {:>7.1} ms {:>7.1} ms {:>7.1} ms {:>7.1} ms",
            report.dtim_period,
            report.mean_secs * 1e3,
            report.p50_secs * 1e3,
            report.p99_secs * 1e3,
            report.max_secs * 1e3
        );
    }
    Ok(out)
}

fn ext_protocol(trace: &Trace, recorder: &mut Recorder) -> Result<String, SimError> {
    use hide_sim::protocol_sim::ProtocolSimulation;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n--- protocol cross-validation (real AP + client, encoded beacons) ---"
    );
    let sim = ProtocolSimulation::new(trace, NEXUS_ONE, 0.10);
    let protocol = sim.run(&mut *recorder, NoopTrace)?;
    let marked = sim.marking_equivalent().run(&mut *recorder)?;
    let _ = writeln!(
        out,
        "protocol: {} beacons, {:.1} BTIM bytes/beacon, {} frames consumed",
        protocol.stats.beacons,
        protocol.stats.btim_bytes as f64 / protocol.stats.beacons.max(1) as f64,
        protocol.stats.frames_consumed,
    );
    let a = protocol.energy.breakdown.total();
    let b = marked.energy.breakdown.total();
    let _ = writeln!(
        out,
        "marking:  {} frames received; energy {:.1} J vs {:.1} J ({:+.1}% divergence)",
        marked.received_frames,
        a,
        b,
        (a - b) / b * 100.0
    );
    Ok(out)
}

/// The figure CSV files [`write_csvs_with`] produces, in figure order.
pub const CSV_FILES: [&str; 7] = [
    "fig6_cdf.csv",
    "fig7_nexus.csv",
    "fig8_s4.csv",
    "fig9_suspend.csv",
    "fig10_capacity.csv",
    "fig11_delay_interval.csv",
    "fig12_delay_ports.csv",
];

/// Writes plot-ready CSV files for every figure into `dir`.
///
/// The files render one after another in figure order, so each
/// figure's cells fan out over the pool from the top level; the bytes
/// of each file, the order they land on disk and the recorded metrics
/// are independent of the job count.
///
/// # Errors
///
/// Returns [`HideError::Io`] for filesystem failures and the
/// originating layer's error when a figure computation fails.
pub fn write_csvs_with(
    traces: &[Trace],
    dir: &std::path::Path,
    recorder: &mut Recorder,
) -> Result<(), HideError> {
    std::fs::create_dir_all(dir)?;
    for file in CSV_FILES {
        let csv = csv_content(file, traces, recorder)?;
        std::fs::write(dir.join(file), csv)?;
    }
    Ok(())
}

/// Renders one figure's CSV (`file` is a [`CSV_FILES`] entry).
fn csv_content(file: &str, traces: &[Trace], recorder: &mut Recorder) -> Result<String, HideError> {
    use hide_analysis::capacity::{CapacityAnalysis, NetworkConfig};
    use hide_analysis::delay::{DelayAnalysis, DelayConfig};

    match file {
        "fig6_cdf.csv" => {
            let mut csv = String::from("scenario,frames_per_sec,cumulative_probability\n");
            for v in experiment::trace_volumes(traces) {
                for (x, p) in &v.cdf_points {
                    let _ = writeln!(csv, "{},{x:.3},{p:.5}", v.scenario);
                }
            }
            Ok(csv)
        }
        "fig7_nexus.csv" | "fig8_s4.csv" => {
            let profile = if file == "fig7_nexus.csv" {
                NEXUS_ONE
            } else {
                GALAXY_S4
            };
            let mut csv =
                String::from("scenario,solution,eb_mw,ef_mw,est_mw,ewl_mw,eo_mw,total_mw,saving\n");
            for c in experiment::energy_comparison(profile, traces, &PAPER_FRACTIONS, recorder)? {
                for b in &c.bars {
                    let [eb, ef, est, ewl, eo] = b.stacked_mw;
                    let _ = writeln!(
                        csv,
                        "{},{},{eb:.4},{ef:.4},{est:.4},{ewl:.4},{eo:.4},{:.4},{:.5}",
                        c.scenario, b.label, b.total_mw, b.saving_vs_receive_all
                    );
                }
            }
            Ok(csv)
        }
        "fig9_suspend.csv" => {
            let mut csv = String::from("scenario,solution,suspend_fraction\n");
            for row in experiment::suspend_fractions(NEXUS_ONE, traces, recorder)? {
                for (label, v) in &row.fractions {
                    let _ = writeln!(csv, "{},{label},{v:.5}", row.scenario);
                }
            }
            Ok(csv)
        }
        "fig10_capacity.csv" => {
            let analysis = CapacityAnalysis::new(NetworkConfig::table_ii());
            let mut csv = String::from("nodes,hide_fraction,capacity_decrease\n");
            for p in analysis.figure_10()? {
                let _ = writeln!(csv, "{},{},{:.6}", p.nodes, p.hide_fraction, p.decrease);
            }
            Ok(csv)
        }
        "fig11_delay_interval.csv" => {
            let delay = DelayAnalysis::new(DelayConfig::default());
            let mut csv = String::from("sync_interval_s,nodes,overhead\n");
            for (interval, pts) in delay.figure_11() {
                for p in pts {
                    let _ = writeln!(csv, "{interval},{},{:.6}", p.nodes, p.overhead);
                }
            }
            Ok(csv)
        }
        "fig12_delay_ports.csv" => {
            let delay = DelayAnalysis::new(DelayConfig::default());
            let mut csv = String::from("open_ports,nodes,overhead\n");
            for (ports, pts) in delay.figure_12() {
                for p in pts {
                    let _ = writeln!(csv, "{ports},{},{:.6}", p.nodes, p.overhead);
                }
            }
            Ok(csv)
        }
        other => unreachable!("unknown csv file {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let t1 = table_1();
        assert!(t1.contains("Nexus One"));
        assert!(t1.contains("Galaxy S4"));
        let t2 = table_2();
        assert!(t2.contains("min contention window"));
        assert!(t2.contains("11 Mbits/s"));
    }

    #[test]
    fn analysis_figures_render() {
        assert!(figure_10().contains("p=75%"));
        assert!(figure_11().contains("1/f=600s"));
        assert!(figure_12().contains("no=100"));
    }

    #[test]
    fn short_trace_figures_render() {
        let traces = Scenario::generate_all(60.0, 1);
        assert!(figure_6(&traces).contains("Starbucks"));
        let fig9 = figure_9_with(&traces[..1], &mut Recorder::new()).unwrap();
        assert!(fig9.contains("HIDE:2%"));
    }

    #[test]
    fn extensions_render() {
        let traces = Scenario::generate_all(120.0, 1);
        let out = extensions_with(&traces, &mut Recorder::new());
        assert!(out.contains("hybrid:10/4%"));
        assert!(out.contains("DTIM period"));
        assert!(out.contains("fleet saving"));
        assert!(out.contains("syncs failed"));
        assert!(out.contains("protocol cross-validation"));
    }

    #[test]
    fn csvs_written() {
        let traces = Scenario::generate_all(60.0, 1);
        let dir = std::env::temp_dir().join("hide_csv_test");
        write_csvs_with(&traces, &dir, &mut Recorder::new()).unwrap();
        for f in [
            "fig6_cdf.csv",
            "fig7_nexus.csv",
            "fig8_s4.csv",
            "fig9_suspend.csv",
            "fig10_capacity.csv",
            "fig11_delay_interval.csv",
            "fig12_delay_ports.csv",
        ] {
            let content = std::fs::read_to_string(dir.join(f)).unwrap();
            assert!(content.lines().count() > 1, "{f} is empty");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
