//! Differential cross-check: wake prices charged by the attribution
//! ledger must equal the energy the Section-IV state machine reports
//! for the same wakeups.
//!
//! The anchor is the machine's isolated-frame semantics: a frame that
//! arrives with the device fully suspended, and whose wakelock expires
//! before the next frame, costs exactly one wake cycle plus the
//! wakelock tail — `E_rm + E_sp + τ·P_sa` — which is precisely
//! [`WakePricing::wake_nj`]. Summing the ledger over N such wakes must
//! therefore reproduce `Ewl + Est` from `machine::run` to within the
//! pinned per-charge rounding bound.

use hide_energy::attribution::{AttributionLedger, WakePricing};
use hide_energy::machine;
use hide_energy::machine::MachineResult;
use hide_energy::profile::{DeviceProfile, ALL_PROFILES};
use hide_energy::timeline::TimelineFrame;
use hide_obs::provenance::ProvenanceLedger;

/// Pinned epsilon: each nanojoule price is rounded half-up once, so a
/// ledger of `n` charges differs from the f64 model by at most
/// `n × 0.5 nJ`. We allow that bound plus f64 summation slack.
const EPS_NJ_PER_CHARGE: f64 = 0.5;

/// The machine over N frames, each arriving long after the previous
/// wakelock expired and the suspend completed, so every frame is an
/// isolated wake.
fn isolated_frames(profile: &DeviceProfile, n: usize) -> MachineResult {
    let gap = 10.0 + profile.wakelock_secs + profile.resume_secs + profile.suspend_secs;
    let frames: Vec<TimelineFrame> = (0..n)
        .map(|i| TimelineFrame {
            start: 5.0 + gap * i as f64,
            airtime: 0.002,
            more_data: false,
            hold: profile.wakelock_secs,
        })
        .collect();
    let duration = 5.0 + gap * n as f64 + 30.0;
    machine::run(profile, duration, frames)
}

#[test]
fn ledger_reproduces_machine_energy_for_isolated_wakes() {
    for profile in &ALL_PROFILES {
        for n in [1usize, 7, 100] {
            let m = isolated_frames(profile, n);
            assert_eq!(m.resume_count, n as u64, "{}: not isolated", profile.name);
            let machine_j = m.wakelock_energy + m.state_transfer_energy;

            // Price the same wakeups through the provenance join: one
            // client lane with n proper wakes.
            let mut counts = ProvenanceLedger::new();
            counts.entry((0, 1)).proper = n as u64;
            let ledger = AttributionLedger::price(&counts, profile);
            let ledger_j = ledger.spent_nj() as f64 / 1e9;

            let eps_j = (n as f64 * EPS_NJ_PER_CHARGE + 1.0) * 1e-9;
            assert!(
                (ledger_j - machine_j).abs() <= eps_j,
                "{} n={n}: ledger {ledger_j} J vs machine {machine_j} J",
                profile.name
            );
        }
    }
}

#[test]
fn wake_price_equals_single_isolated_frame_cost() {
    for profile in &ALL_PROFILES {
        let m = isolated_frames(profile, 1);
        let pricing = WakePricing::from_profile(profile);
        let machine_nj = (m.wakelock_energy + m.state_transfer_energy) * 1e9;
        assert!(
            (pricing.wake_nj as f64 - machine_nj).abs() <= EPS_NJ_PER_CHARGE + 1e-3,
            "{}: wake_nj {} vs machine {machine_nj} nJ",
            profile.name,
            pricing.wake_nj
        );
    }
}

#[test]
fn forgone_price_is_wake_minus_suspend_floor() {
    for profile in &ALL_PROFILES {
        let pricing = WakePricing::from_profile(profile);
        let window = profile.resume_secs + profile.wakelock_secs + profile.suspend_secs;
        let expected =
            (pricing.wake_nj as f64 - window * profile.suspend_power * 1e9).round() as u64;
        // Two independent roundings may disagree by 1 nJ at most.
        assert!(
            pricing.forgone_nj.abs_diff(expected) <= 1,
            "{}: forgone {} vs expected {expected}",
            profile.name,
            pricing.forgone_nj
        );
        assert!(pricing.forgone_nj < pricing.wake_nj);
    }
}
