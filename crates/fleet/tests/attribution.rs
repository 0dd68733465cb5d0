//! Fleet-level attribution invariants: every ledger column is exactly
//! its event count times one integer price, the loss-free
//! zero-missed-energy guarantee, and the engine-online vs trace-join
//! exact equality, for the wake columns and for the beacon column.

use hide_energy::attribution::{joules_to_nj, WakePricing};
use hide_energy::AttributionLedger;
use hide_fleet::{ChurnConfig, FleetConfig, FleetResult, WakePolicy};
use hide_obs::{provenance, FlightRecorder, TraceEventKind};
use hide_wifi::frame::UdpPortMessage;
use hide_wifi::mac::MacAddr;
use hide_wifi::phy::{self, DataRate};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn base(seed: u64) -> FleetConfig {
    FleetConfig {
        bss_count: 4,
        clients_per_bss: 6,
        adoption: 1.0,
        duration_secs: 15.0,
        seed,
        churn: ChurnConfig {
            mean_present_secs: 30.0,
            mean_absent_secs: 5.0,
            mean_active_secs: 3.0,
            mean_suspended_secs: 10.0,
            refresh_interval_secs: 2.0,
            stale_timeout_secs: 7.0,
            ..ChurnConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// Asserts the ledger's exact identities: the merged rows spend what
/// the folded totals spend, and each wake and refresh column is its
/// event count times one integer price. Every client lists
/// `ports_per_client` ports, so every UDP Port Message costs the same.
fn assert_priced_exactly(cfg: &FleetConfig, result: &FleetResult) {
    let (r, t) = (&result.report, &result.energy_totals);
    assert_eq!(result.attribution().spent_nj(), t.spent_nj());
    assert!(t.spent_nj() > 0);
    let p = WakePricing::from_profile(&cfg.profile);
    let ports = 1..=cfg.churn.ports_per_client as u16;
    let msg = UdpPortMessage::new(MacAddr::station(1), MacAddr::station(0), ports).unwrap();
    let msg_nj = joules_to_nj(
        phy::airtime_of_total_bytes(msg.len_bytes(), DataRate::R1M) * cfg.profile.tx_power,
    );
    assert_eq!(
        t.proper_nj,
        (r.hide_wakeups - r.spurious_wakeups) * p.wake_nj
    );
    assert_eq!(t.spurious_nj.total(), r.spurious_wakeups * p.wake_nj);
    assert_eq!(t.legacy_nj, (r.wakeups - r.hide_wakeups) * p.wake_nj);
    assert_eq!(t.missed_forgone_nj.total(), r.missed_wakeups * p.forgone_nj);
    assert_eq!(t.refresh_tx_nj, r.refreshes_sent * msg_nj);
}

/// The `fleet_sim` churn defaults (refresh loss included) on a fleet
/// small enough to trace in full.
fn churn_defaults(seed: u64, policy: WakePolicy) -> FleetConfig {
    FleetConfig {
        bss_count: 3,
        clients_per_bss: 20,
        adoption: 0.75,
        duration_secs: 60.0,
        seed,
        churn: ChurnConfig {
            mean_present_secs: 120.0,
            mean_absent_secs: 30.0,
            mean_active_secs: 10.0,
            mean_suspended_secs: 45.0,
            refresh_interval_secs: 5.0,
            refresh_loss: 0.1,
            port_churn: 0.2,
            stale_timeout_secs: 12.0,
            ..ChurnConfig::default()
        },
        policy,
        ..FleetConfig::default()
    }
}

/// Trace-join oracle for the beacon column: per `(source, aid)`, the
/// `DtimBoundary` events of that source that fall while the AID is
/// joined — from its `Join` to its `Leave`, or to the horizon.
fn beacons_heard(flight: &FlightRecorder) -> BTreeMap<(u32, u16), u64> {
    let mut joined: BTreeMap<u32, BTreeSet<u16>> = BTreeMap::new();
    let mut heard = BTreeMap::new();
    for e in flight.events() {
        let aids = joined.entry(e.source).or_default();
        match e.kind {
            TraceEventKind::Join { aid, .. } => {
                assert!(aids.insert(aid), "AID {aid} joined twice");
            }
            TraceEventKind::Leave { aid } => {
                assert!(aids.remove(&aid), "AID {aid} left unjoined");
            }
            TraceEventKind::DtimBoundary { .. } => {
                for &aid in aids.iter() {
                    *heard.entry((e.source, aid)).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }
    heard
}

#[test]
fn differential_spent_equals_aggregate_energy() {
    let mut cfg = base(0xA77);
    cfg.churn.refresh_loss = 0.3;
    cfg.churn.port_churn = 0.3;
    let result = cfg.try_run_with_jobs(2).unwrap();
    assert_priced_exactly(&cfg, &result);
}

proptest! {
    // Fleet runs are comparatively expensive; a handful of seeds per
    // property keeps the suite fast while still sweeping the RNG space.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A loss-free fleet attributes zero missed-wakeup energy — the
    /// joule-space restatement of the tier-1 "no missed wakeups without
    /// refresh loss" invariant — at every seed.
    #[test]
    fn lossfree_fleet_has_zero_missed_energy(seed in 0u64..1 << 48) {
        let mut cfg = base(seed);
        cfg.churn.refresh_loss = 0.0;
        cfg.churn.port_churn = 0.25; // churn alone must not cost missed energy
        let result = cfg.try_run_with_jobs(2).unwrap();
        let totals = result.attribution().totals();
        prop_assert_eq!(totals.missed_forgone_nj.total(), 0);
        prop_assert_eq!(result.report.missed_wakeups, 0);
        // The fleet still does real work and spends real energy.
        prop_assert!(result.attribution().spent_nj() > 0);
    }

    /// The engine's online ledger and the flight-recorder trace join
    /// price wakes identically — same integer prices, same counts — at
    /// every seed, including lossy ones.
    #[test]
    fn online_ledger_matches_trace_join(seed in 0u64..1 << 48) {
        let mut cfg = base(seed);
        cfg.churn.refresh_loss = 0.4;
        let (result, flight) = cfg.try_run_traced_with_jobs(2, 1 << 16).unwrap();
        let counts = provenance::per_client(&flight);
        let priced = AttributionLedger::price(&counts, &cfg.profile);
        prop_assert!(result.attribution().wake_columns_eq(&priced));
    }

    /// Every associated client hears every beacon under HIDE and
    /// legacy PSM, so each ledger row's beacon column is the trace's
    /// count of its in-presence DTIM boundaries times one price.
    #[test]
    fn beacon_column_matches_trace_join(seed in 0u64..1 << 48) {
        for policy in [WakePolicy::Hide, WakePolicy::LegacyPsm] {
            let cfg = churn_defaults(seed, policy);
            let (result, flight) = cfg.try_run_traced_with_jobs(2, 1 << 18).unwrap();
            prop_assert_eq!(flight.dropped(), 0);
            let heard = beacons_heard(&flight);
            let beacon_nj = WakePricing::from_profile(&cfg.profile).beacon_nj;
            for (key, energy) in result.attribution().rows() {
                let count = heard.get(key).copied().unwrap_or(0);
                prop_assert_eq!(energy.beacon_nj, count * beacon_nj, "{:?} {:?}", policy, key);
            }
            // And no AID that heard a beacon is missing from the ledger.
            for key in heard.keys() {
                prop_assert!(result.attribution().get(*key).is_some());
            }
            prop_assert!(!heard.is_empty());
        }
    }

    /// The exact identities hold across seeds, not just the pinned
    /// scenario.
    #[test]
    fn differential_holds_across_seeds(seed in 0u64..1 << 48) {
        let mut cfg = base(seed);
        cfg.churn.refresh_loss = 0.2;
        let result = cfg.try_run_with_jobs(2).unwrap();
        assert_priced_exactly(&cfg, &result);
    }
}
