//! Property-based tests of energy-model invariants beyond the
//! closed-form cross-check.

use hide_energy::machine;
use hide_energy::profile::{DeviceProfile, GALAXY_S4, NEXUS_ONE};
use hide_energy::timeline::{Overhead, TimelineFrame};
use hide_energy::MoreData;
use proptest::collection::vec;
use proptest::prelude::*;

fn frames_from_gaps(gaps: &[f64], hold: f64) -> Vec<TimelineFrame> {
    let mut t = 1.0;
    gaps.iter()
        .map(|g| {
            t += g;
            TimelineFrame {
                start: t,
                airtime: 0.001,
                more_data: false,
                hold,
            }
        })
        .collect()
}

fn gaps() -> impl Strategy<Value = Vec<f64>> {
    vec(0.001f64..6.0, 1..50)
}

proptest! {
    /// Energy components are never negative and never NaN.
    #[test]
    fn energy_components_nonnegative(gaps in gaps(), s4 in any::<bool>()) {
        let profile = if s4 { GALAXY_S4 } else { NEXUS_ONE };
        let frames = frames_from_gaps(&gaps, profile.wakelock_secs);
        let duration = frames.last().unwrap().start + 50.0;
        let report = hide_energy::evaluate(&profile, duration, 0.1024, MoreData::AsGiven, frames)
            .unwrap()
            .report(&Overhead::NONE, &mut hide_obs::NoopSink);
        let b = report.breakdown;
        for (name, v) in [
            ("beacon", b.beacon),
            ("frames", b.frames),
            ("wakelock", b.wakelock),
            ("state_transfer", b.state_transfer),
            ("overhead", b.overhead),
        ] {
            prop_assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
        }
        prop_assert!(report.suspend_fraction() >= 0.0);
        prop_assert!(report.suspend_fraction() <= 1.0);
    }

    /// Removing a subset of frames is *almost* monotone in the
    /// state-machine energy (Ewl + Est). It is not pointwise monotone:
    /// dropping a frame whose wakelock renewal cheaply bridged a gap
    /// can force the next frame into a fresh suspend/resume cycle —
    /// the very effect that makes the "client-side" baseline expensive.
    /// Each such boundary costs at most one wake cycle plus one full
    /// wakelock (plus the resume-shifted hold), so the subset's energy
    /// is bounded by the full run's plus that per-extra-resume premium.
    /// The subset always suspends at least as long.
    #[test]
    fn machine_energy_bounded_under_subset(
        gaps in gaps(),
        mask_seed in any::<u64>(),
    ) {
        let profile = NEXUS_ONE;
        let all = frames_from_gaps(&gaps, profile.wakelock_secs);
        let duration = all.last().unwrap().start + 50.0;

        // Deterministic pseudo-random subset from the seed.
        let mut keep = Vec::new();
        let mut state = mask_seed | 1;
        for f in &all {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if state & 0b11 != 0 {
                keep.push(*f);
            }
        }

        let full = machine::run(&profile, duration, all);
        let sub = machine::run(&profile, duration, keep);
        let e_full = full.wakelock_energy + full.state_transfer_energy;
        let e_sub = sub.wakelock_energy + sub.state_transfer_energy;
        // New suspend/resume cycles AND new aborted-suspend events both
        // arise when a removed frame stops bridging a gap.
        let extra_boundaries = sub.resume_count.saturating_sub(full.resume_count) as f64
            + sub
                .aborted_suspends
                .saturating_sub(full.aborted_suspends) as f64;
        let per_boundary = profile.wake_cycle_energy()
            + profile.active_idle_power * (profile.wakelock_secs + profile.resume_secs);
        prop_assert!(
            e_sub <= e_full + extra_boundaries * per_boundary + 1e-9,
            "subset energy {e_sub} exceeds full {e_full} by more than \
             {extra_boundaries} boundary premiums"
        );
        prop_assert!(sub.suspend_time + 1e-9 >= full.suspend_time);
    }

    /// Wakelock time is bounded by (frame count) × τ and by the trace
    /// duration.
    #[test]
    fn wakelock_time_bounds(gaps in gaps()) {
        let profile = NEXUS_ONE;
        let frames = frames_from_gaps(&gaps, profile.wakelock_secs);
        let n = frames.len() as f64;
        let duration = frames.last().unwrap().start + 50.0;
        let m = machine::run(&profile, duration, frames);
        prop_assert!(m.wakelock_time <= n * profile.wakelock_secs + 1e-9);
        prop_assert!(m.wakelock_time <= duration);
    }

    /// Resume count never exceeds the frame count, and each resume
    /// implies at least a wake cycle of energy.
    #[test]
    fn resume_count_consistency(gaps in gaps()) {
        let profile = GALAXY_S4;
        let frames = frames_from_gaps(&gaps, profile.wakelock_secs);
        let n = frames.len() as u64;
        let duration = frames.last().unwrap().start + 50.0;
        let m = machine::run(&profile, duration, frames);
        prop_assert!(m.resume_count >= 1);
        prop_assert!(m.resume_count <= n);
        prop_assert!(
            m.state_transfer_energy + 1e-12
                >= m.resume_count as f64 * profile.wake_cycle_energy()
        );
    }

    /// Scaling the device's suspend/resume energies scales Est linearly.
    #[test]
    fn state_transfer_scales_with_cycle_cost(gaps in gaps(), k in 1.5f64..4.0) {
        let base = NEXUS_ONE;
        let scaled = DeviceProfile {
            resume_energy: base.resume_energy * k,
            suspend_energy: base.suspend_energy * k,
            ..base
        };
        let frames = frames_from_gaps(&gaps, base.wakelock_secs);
        let duration = frames.last().unwrap().start + 50.0;
        let a = machine::run(&base, duration, frames.clone()).state_transfer_energy;
        let b = machine::run(&scaled, duration, frames).state_transfer_energy;
        prop_assert!((b - a * k).abs() < 1e-9, "expected {} got {b}", a * k);
    }
}
