//! Cross-policy fleet invariants: the wake-policy seam must leave HIDE
//! byte-identical, keep every policy deterministic at any `--jobs`, and
//! preserve the paper's energy ordering (HIDE ≤ legacy PSM on loss-free
//! traffic-bearing fleets).

use hide_energy::battery::Battery;
use hide_energy::profile::{DeviceProfile, GALAXY_S4, NEXUS_ONE};
use hide_fleet::{ChurnConfig, FleetConfig, ScheduleConfig, WakePolicy};
use hide_traces::scenario::Scenario;

fn traffic_bearing(seed: u64, profile: DeviceProfile, policy: WakePolicy) -> FleetConfig {
    FleetConfig {
        bss_count: 4,
        clients_per_bss: 8,
        adoption: 1.0,
        duration_secs: 12.0,
        scenario: Scenario::Classroom,
        seed,
        profile,
        policy,
        churn: ChurnConfig {
            mean_present_secs: 30.0,
            mean_absent_secs: 4.0,
            mean_active_secs: 2.0,
            mean_suspended_secs: 10.0,
            refresh_interval_secs: 2.0,
            stale_timeout_secs: 8.0,
            refresh_loss: 0.0,
            ..ChurnConfig::default()
        },
        ..FleetConfig::default()
    }
}

#[test]
fn every_policy_is_jobs_deterministic() {
    for policy in [
        WakePolicy::Hide,
        WakePolicy::LegacyPsm,
        WakePolicy::ScheduledWake(ScheduleConfig::default()),
    ] {
        let cfg = traffic_bearing(2016, NEXUS_ONE, policy);
        let serial = cfg.try_run_with_jobs(1).unwrap();
        let parallel = cfg.try_run_with_jobs(4).unwrap();
        assert_eq!(
            serial.metrics_json_with_energy(),
            parallel.metrics_json_with_energy(),
            "policy {} diverges across jobs",
            policy.name()
        );
        assert_eq!(serial.report, parallel.report);
    }
}

#[test]
fn psm_never_beats_hide_loss_free() {
    // The paper's core claim as a pinned inequality: on a loss-free
    // fleet with traffic, receive-all PSM spends at least as much as
    // HIDE — for every seed and on both Table I devices.
    for profile in [NEXUS_ONE, GALAXY_S4] {
        for seed in [1u64, 7, 42, 99, 2016, 31337, 65537, 424242] {
            let hide = traffic_bearing(seed, profile, WakePolicy::Hide)
                .try_run_with_jobs(2)
                .unwrap();
            let psm = traffic_bearing(seed, profile, WakePolicy::LegacyPsm)
                .try_run_with_jobs(2)
                .unwrap();
            assert_eq!(hide.report.missed_wakeups, 0);
            let (psm_nj, hide_nj) = (psm.energy_totals.spent_nj(), hide.energy_totals.spent_nj());
            assert!(
                psm_nj >= hide_nj,
                "seed {seed} {}: psm {psm_nj} nJ < hide {hide_nj} nJ",
                profile.name,
            );
            // PSM *is* the receive-all baseline run as a live protocol.
            assert_eq!(
                psm_nj, psm.report.baseline_nj,
                "seed {seed}: psm diverges from its baseline"
            );
        }
    }
}

#[test]
fn psm_disables_hide_machinery() {
    let psm = traffic_bearing(2016, NEXUS_ONE, WakePolicy::LegacyPsm)
        .try_run_with_jobs(2)
        .unwrap();
    assert_eq!(psm.report.refreshes_sent, 0);
    assert_eq!(psm.report.refresh_airtime_secs, 0.0);
    assert_eq!(psm.report.hide_wakeups, 0);
    assert_eq!(psm.report.missed_wakeups, 0);
    assert_eq!(psm.report.spurious_wakeups, 0);
    assert!(psm.report.wakeups > 0);
    assert_eq!(psm.report.scheduled_wakes, 0);
}

#[test]
fn scheduled_wake_defers_instead_of_missing() {
    let sched = traffic_bearing(
        2016,
        NEXUS_ONE,
        WakePolicy::ScheduledWake(ScheduleConfig {
            interval_dtims: 8,
            period_dtims: 1,
        }),
    )
    .try_run_with_jobs(2)
    .unwrap();
    // Out-of-window useful bursts are deferred, never missed; wakes
    // happen only inside the service window.
    assert_eq!(sched.report.missed_wakeups, 0);
    assert!(sched.report.scheduled_wakes > 0);
    assert!(sched.report.deferred_wakeups > 0);
    assert_eq!(sched.report.wakeups, sched.report.scheduled_wakes);
    assert_eq!(sched.report.refreshes_sent, 0);

    // Sleeping through 7 of 8 beacons and most wake cycles undercuts
    // receive-all PSM on the same seed.
    let psm = traffic_bearing(2016, NEXUS_ONE, WakePolicy::LegacyPsm)
        .try_run_with_jobs(2)
        .unwrap();
    assert!(sched.energy_totals.spent_nj() < psm.energy_totals.spent_nj());
}

#[test]
fn policy_and_battery_sections_land_in_the_artifact() {
    let cfg = FleetConfig {
        battery: Battery::GALAXY_S4,
        ..traffic_bearing(2016, GALAXY_S4, WakePolicy::Hide)
    };
    let result = cfg.try_run_with_jobs(2).unwrap();
    let json = result.metrics_json_with_energy();
    assert!(json.contains("\"policy\": {\"kind\":0,"));
    assert!(json.contains("\"battery\": {\"capacity_mwh\":9880,"));
    assert!(json.contains("\"lifetime_gain_ppm\":"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    // HIDE saves energy, so its projected lifetime beats the baseline.
    assert!(result.lifetime.lifetime_gain_ppm > 0);
    assert!(result.lifetime.projected_secs > result.lifetime.baseline_secs);

    // The scheduled artifact carries its knobs and tallies.
    let sched = traffic_bearing(
        2016,
        NEXUS_ONE,
        WakePolicy::ScheduledWake(ScheduleConfig::default()),
    )
    .try_run_with_jobs(2)
    .unwrap();
    let json = sched.metrics_json_with_energy();
    assert!(json.contains("\"policy\": {\"kind\":2,\"interval_dtims\":8,\"period_dtims\":1,"));
}

#[test]
fn hide_with_policy_field_matches_pre_seam_default() {
    // FleetConfig::default() is WakePolicy::Hide: the seam's default
    // wiring must not perturb an existing config in any field.
    let mut cfg = traffic_bearing(2016, NEXUS_ONE, WakePolicy::Hide);
    cfg.policy = WakePolicy::default();
    let a = traffic_bearing(2016, NEXUS_ONE, WakePolicy::Hide)
        .try_run_with_jobs(2)
        .unwrap();
    let b = cfg.try_run_with_jobs(2).unwrap();
    assert_eq!(a.metrics_json_with_energy(), b.metrics_json_with_energy());
}
