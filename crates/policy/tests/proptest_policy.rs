//! Property tests over the policy layer: the FSM pricing invariant
//! (no transition or dwell can ever charge a negative or non-finite
//! nanojoule amount, for any physically-plausible device) and the
//! schedule/parse round-trip laws of [`WakePolicy`].

use hide_energy::attribution::WakePricing;
use hide_energy::fsm::{RadioState, TransitionTable};
use hide_energy::profile::DeviceProfile;
use hide_policy::{builtin, ScheduleConfig, WakePolicy};
use proptest::prelude::*;

/// A positive, finite multiplier spanning six orders of magnitude —
/// wide enough to cover any real radio without leaving f64 sanity.
fn mult() -> impl Strategy<Value = f64> {
    1e-3f64..1e3
}

proptest! {
    /// Satellite 3c: for ANY profile built from positive finite
    /// constants, every price the transition table can emit is a
    /// finite non-negative nanojoule amount, and the derived fleet
    /// wake pricing carries only finite integers.
    #[test]
    fn fsm_prices_never_negative_or_non_finite(
        wakelock in mult(),
        resume_e in mult(),
        suspend_e in mult(),
        beacon_e in mult(),
        rx in mult(),
        tx in mult(),
        idle in mult(),
        promo in 0.0f64..1e3,
        timer in 0.0f64..1e2,
        dwell in 0.0f64..1e4,
    ) {
        let profile = DeviceProfile::builder("proptest")
            .wakelock_secs(wakelock)
            .resume_energy(resume_e * 1e-3)
            .suspend_energy(suspend_e * 1e-3)
            .beacon_energy(beacon_e * 1e-4)
            .rx_power(rx)
            .tx_power(tx)
            .idle_power(idle)
            .build();
        let table = TransitionTable::with_wifi_lpm(&profile, promo, timer);
        prop_assert!(table.is_priced_sane());
        for t in table.transitions() {
            prop_assert!(t.energy_nj < u64::MAX / 2, "rounded price overflows");
        }
        for state in RadioState::ALL {
            let nj = table.dwell_nj(state, dwell);
            prop_assert!(nj < u64::MAX / 2);
            // Dwell pricing is monotone in time: longer never cheaper.
            prop_assert!(table.dwell_nj(state, dwell * 2.0) >= nj);
        }
        let profile_pricing = WakePricing::from_profile(&profile);
        prop_assert!(profile_pricing.beacon_nj > 0);
        prop_assert!(profile_pricing.forgone_nj <= profile_pricing.wake_nj);
    }

    /// Every registry device prices sane under ANY promotion knobs.
    #[test]
    fn registry_devices_price_sane_under_any_knobs(
        idx in 0usize..6,
        promo in 0.0f64..1e3,
        timer in 0.0f64..1e2,
    ) {
        let entry = builtin()[idx];
        let table = TransitionTable::with_wifi_lpm(&entry.profile, promo, timer);
        prop_assert!(table.is_priced_sane());
        prop_assert!(entry.profile.is_consistent());
    }

    /// `parse(name())` round-trips for every scheduled configuration.
    #[test]
    fn scheduled_parse_roundtrip(interval in 1u32..512, period in 1u32..512) {
        let cfg = ScheduleConfig { interval_dtims: interval, period_dtims: period }.normalized();
        let spec = format!("scheduled:{}:{}", cfg.interval_dtims, cfg.period_dtims);
        let parsed = WakePolicy::parse(&spec).unwrap();
        prop_assert_eq!(parsed.schedule(), Some(cfg));
        // The window predicate is periodic and the duty cycle is the
        // fraction of in-window DTIMs over one full period.
        let interval = u64::from(cfg.interval_dtims);
        let hits = (0..interval).filter(|&i| cfg.in_window(i)).count() as f64;
        let duty = hits / interval as f64;
        prop_assert!((duty - cfg.duty_cycle()).abs() < 1e-12);
        for i in 0..interval {
            prop_assert_eq!(cfg.in_window(i), cfg.in_window(i + interval));
        }
    }
}
