//! Reproduction of the paper's quantitative claims, at test-friendly
//! trace lengths. The bands asserted here are deliberately wider than
//! the paper's exact numbers (our traces are synthetic), but tight
//! enough that a regression in any model would trip them.

use hide::analysis::capacity::{CapacityAnalysis, NetworkConfig};
use hide::analysis::delay::{DelayAnalysis, DelayConfig};
use hide::energy::profile::{GALAXY_S4, NEXUS_ONE};
use hide::obs::Recorder;
use hide::sim::experiment::{self, PAPER_FRACTIONS};
use hide::traces::scenario::Scenario;

const DURATION: f64 = 900.0;
const SEED: u64 = 2016;

/// Abstract: "saves 34%-75% energy for Nexus One ... when 10% of the
/// broadcast frames are useful".
#[test]
fn nexus_one_savings_at_10_percent() {
    let traces = Scenario::generate_all(DURATION, SEED);
    let comparisons =
        experiment::energy_comparison(NEXUS_ONE, &traces, &[0.10], &mut Recorder::new()).unwrap();
    let s = experiment::savings_summary(&comparisons, 0.10).unwrap();
    assert!(
        s.min_saving > 0.30 && s.max_saving < 0.80,
        "Nexus One @10%: {:.0}%-{:.0}% outside the paper's band",
        s.min_saving * 100.0,
        s.max_saving * 100.0
    );
}

/// Abstract: "18%-78% energy for Galaxy S4 when 10% ... useful".
#[test]
fn galaxy_s4_savings_at_10_percent() {
    let traces = Scenario::generate_all(DURATION, SEED);
    let comparisons =
        experiment::energy_comparison(GALAXY_S4, &traces, &[0.10], &mut Recorder::new()).unwrap();
    let s = experiment::savings_summary(&comparisons, 0.10).unwrap();
    assert!(
        s.min_saving > 0.18 && s.max_saving < 0.80,
        "Galaxy S4 @10%: {:.0}%-{:.0}% outside the paper's band",
        s.min_saving * 100.0,
        s.max_saving * 100.0
    );
}

/// Conclusion: "71%-82% for Nexus One and 62%-83% for Galaxy S4" at 2%.
#[test]
fn savings_at_2_percent() {
    let traces = Scenario::generate_all(DURATION, SEED);
    for (profile, lo, hi) in [(NEXUS_ONE, 0.60, 0.90), (GALAXY_S4, 0.55, 0.90)] {
        let comparisons =
            experiment::energy_comparison(profile, &traces, &[0.02], &mut Recorder::new()).unwrap();
        let s = experiment::savings_summary(&comparisons, 0.02).unwrap();
        assert!(
            s.min_saving > lo && s.max_saving < hi,
            "{} @2%: {:.0}%-{:.0}%",
            profile.name,
            s.min_saving * 100.0,
            s.max_saving * 100.0
        );
    }
}

/// Section VI.A: HIDE saves more than the client-side solution on
/// every trace at every fraction.
#[test]
fn hide_dominates_client_side_everywhere() {
    let traces = Scenario::generate_all(DURATION, SEED);
    for profile in [NEXUS_ONE, GALAXY_S4] {
        let comparisons =
            experiment::energy_comparison(profile, &traces, &PAPER_FRACTIONS, &mut Recorder::new())
                .unwrap();
        for c in &comparisons {
            let cs = c.bar("client-side").unwrap().saving_vs_receive_all;
            for f in PAPER_FRACTIONS {
                let label = format!("HIDE:{:.0}%", f * 100.0);
                let hide = c.bar(&label).unwrap().saving_vs_receive_all;
                assert!(
                    hide > cs,
                    "{} {}: {label} ({hide:.2}) vs client-side ({cs:.2})",
                    profile.name,
                    c.scenario
                );
            }
        }
    }
}

/// Section VI.A: the S4's pricier state transfers make client-side
/// help less there than on the Nexus One, on every trace.
#[test]
fn client_side_weaker_on_s4() {
    let traces = Scenario::generate_all(DURATION, SEED);
    let nexus =
        experiment::energy_comparison(NEXUS_ONE, &traces, &[], &mut Recorder::new()).unwrap();
    let s4 = experiment::energy_comparison(GALAXY_S4, &traces, &[], &mut Recorder::new()).unwrap();
    for (n, s) in nexus.iter().zip(&s4) {
        let n_cs = n.bar("client-side").unwrap().saving_vs_receive_all;
        let s_cs = s.bar("client-side").unwrap().saving_vs_receive_all;
        assert!(
            s_cs < n_cs,
            "{}: S4 {s_cs:.2} vs Nexus {n_cs:.2}",
            n.scenario
        );
    }
}

/// Fig. 9: with 2% useful frames the device suspends for most of the
/// trace even under heavy traffic, and HIDE always suspends more than
/// receive-all.
#[test]
fn suspend_fractions_shape() {
    let traces = Scenario::generate_all(DURATION, SEED);
    let rows = experiment::suspend_fractions(NEXUS_ONE, &traces, &mut Recorder::new()).unwrap();
    for row in &rows {
        let get = |label: &str| {
            row.fractions
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(
            get("HIDE:2%") > 0.5,
            "{}: HIDE:2% {:.2}",
            row.scenario,
            get("HIDE:2%")
        );
        assert!(get("HIDE:10%") > get("receive-all"), "{}", row.scenario);
        // Heavy traces pin receive-all below 20% suspended (paper:
        // "less than 20% of the time in suspend mode").
        if row.scenario == "Classroom" || row.scenario == "WML" {
            assert!(get("receive-all") < 0.2, "{}", row.scenario);
        }
    }
}

/// Conclusion: "the impact of the HIDE system on network capacity is
/// less than 0.2%" (the figure's axis tops at 0.5%).
#[test]
fn capacity_overhead_negligible() {
    let analysis = CapacityAnalysis::new(NetworkConfig::table_ii());
    for point in analysis.figure_10().unwrap() {
        assert!(
            point.decrease < 0.005,
            "N={} p={}: {:.3}%",
            point.nodes,
            point.hide_fraction,
            point.decrease * 100.0
        );
    }
}

/// Conclusion: "the impact on packet round-trip time is no more than
/// 2.3%" at the paper's settings; ≈0.05% at a 10-minute interval.
#[test]
fn delay_overhead_matches_paper_band() {
    let analysis = DelayAnalysis::new(DelayConfig::default());
    let worst = analysis.point(50);
    assert!(
        (0.018..0.028).contains(&worst.overhead),
        "worst-case overhead {:.3}%",
        worst.overhead * 100.0
    );
    let cfg = DelayConfig {
        sync_interval_secs: 600.0,
        ..DelayConfig::default()
    };
    let best = DelayAnalysis::new(cfg).point(50);
    assert!(
        best.overhead < 0.001,
        "10-min interval: {:.4}%",
        best.overhead * 100.0
    );
}

/// Fig. 6: the five traces reproduce the paper's volume ordering and
/// the 0-50 frames/sec support of the CDFs.
#[test]
fn trace_volumes_match_fig6() {
    let traces = Scenario::generate_all(1800.0, SEED);
    let vols = experiment::trace_volumes(&traces);
    let mean = |name: &str| vols.iter().find(|v| v.scenario == name).unwrap().mean_fps;
    assert!(mean("WML") > mean("Classroom"));
    assert!(mean("Classroom") > mean("CS_Dept"));
    assert!(mean("CS_Dept") > mean("WRL"));
    assert!(mean("WRL") > mean("Starbucks"));
    for v in &vols {
        let max = v.cdf_points.last().unwrap().0;
        assert!(max < 80.0, "{}: per-second max {max}", v.scenario);
    }
}
