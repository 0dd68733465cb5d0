//! Property tests over the policy layer: the wake-pricing invariant
//! (every price derived from a physically-plausible device is a finite,
//! ordered nanojoule amount, and every registry device's wake prices grow
//! with its wakelock) and the schedule/parse round-trip laws of
//! [`WakePolicy`].

use hide_energy::attribution::WakePricing;
use hide_energy::profile::{DeviceProfile, NEXUS_ONE};
use hide_policy::{registry, ScheduleConfig, WakePolicy};
use proptest::prelude::*;

/// A positive, finite multiplier spanning six orders of magnitude —
/// wide enough to cover any real radio without leaving f64 sanity.
fn mult() -> impl Strategy<Value = f64> {
    1e-3f64..1e3
}

proptest! {
    /// For ANY profile built from positive finite constants,
    /// [`WakePricing::from_profile`] yields a positive beacon price, a
    /// wake price that cannot overflow the ledger, and a forgone price
    /// no larger than the wake price.
    #[test]
    fn wake_pricing_is_sane_for_any_positive_profile(
        wakelock in mult(),
        resume_e in mult(),
        suspend_e in mult(),
        beacon_e in mult(),
        resume_s in mult(),
        suspend_s in mult(),
        suspend_p in mult(),
        active_p in mult(),
    ) {
        let profile = DeviceProfile {
            name: "proptest",
            wakelock_secs: wakelock,
            resume_energy: resume_e * 1e-3,
            suspend_energy: suspend_e * 1e-3,
            beacon_energy: beacon_e * 1e-4,
            resume_secs: resume_s * 1e-3,
            suspend_secs: suspend_s * 1e-3,
            suspend_power: suspend_p * 1e-3,
            active_idle_power: active_p,
            ..NEXUS_ONE
        };
        let pricing = WakePricing::from_profile(&profile);
        prop_assert!(pricing.beacon_nj > 0);
        prop_assert!(pricing.wake_nj > 0);
        prop_assert!(pricing.wake_nj < u64::MAX / 2, "rounded price overflows");
        prop_assert!(pricing.forgone_nj <= pricing.wake_nj);
    }

    /// For every registry device, a longer wakelock `τ` prices every
    /// wake strictly higher and forgoes strictly more against the suspend
    /// floor (`P_sa > P_ss`), while the beacon price stays put. A step of
    /// at least 1 ms moves each price by more than 30 µJ, far beyond the ±1 nJ
    /// of rounding.
    #[test]
    fn registry_prices_grow_with_wakelock(
        tau in 1e-2f64..10.0,
        step in 1e-3f64..5.0,
    ) {
        for entry in registry::builtin() {
            let short = WakePricing::from_profile(&DeviceProfile {
                wakelock_secs: tau,
                ..entry.profile
            });
            let long = WakePricing::from_profile(&DeviceProfile {
                wakelock_secs: tau + step,
                ..entry.profile
            });
            prop_assert!(long.wake_nj > short.wake_nj, "{}", entry.key);
            prop_assert!(long.forgone_nj > short.forgone_nj, "{}", entry.key);
            prop_assert_eq!(long.beacon_nj, short.beacon_nj);
        }
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
