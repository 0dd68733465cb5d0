//! Cross-validation: the event-driven power-state machine must agree
//! with the literal closed-form equations (Eqs. 3–5, 12–14) whenever
//! every frame holds the uniform wakelock `τ` — the only case the paper
//! writes in closed form.

mod closed_form;

use hide_energy::machine;
use hide_energy::machine::MachineResult;
use hide_energy::profile::{DeviceProfile, GALAXY_S4, NEXUS_ONE};
use hide_energy::timeline::TimelineFrame;
use proptest::collection::vec;
use proptest::prelude::*;

/// Runs the machine over frames that complete at exactly `arrivals`.
fn run_arrivals(
    profile: &DeviceProfile,
    arrivals: &[f64],
    duration: f64,
    tau: f64,
) -> MachineResult {
    let frames = arrivals.iter().map(|&a| TimelineFrame {
        start: a,
        airtime: 0.0,
        more_data: false,
        hold: tau,
    });
    machine::run(profile, duration, frames)
}

fn sorted_arrivals() -> impl Strategy<Value = Vec<f64>> {
    // Gaps from sub-millisecond (wakelock renewals) through multi-second
    // (full suspend cycles), covering every state-machine branch.
    vec(0.0005f64..8.0, 1..60).prop_map(|gaps| {
        let mut t = 1.0;
        gaps.iter()
            .map(|g| {
                t += g;
                t
            })
            .collect()
    })
}

fn check_agreement(profile: &DeviceProfile, arrivals: &[f64]) {
    // Duration far past the last wakelock so end-clipping can't differ.
    let duration = arrivals.last().unwrap() + 100.0;
    let m = run_arrivals(profile, arrivals, duration, profile.wakelock_secs);
    let seq = closed_form::compute(profile, arrivals);

    let ewl_cf = seq.wakelock_energy(profile);
    let est_cf = seq.state_transfer_energy(profile);

    assert!(
        (m.wakelock_energy - ewl_cf).abs() < 1e-6,
        "Ewl mismatch: machine {} vs closed form {} (arrivals {arrivals:?})",
        m.wakelock_energy,
        ewl_cf
    );
    assert!(
        (m.state_transfer_energy - est_cf).abs() < 1e-6,
        "Est mismatch: machine {} vs closed form {} (arrivals {arrivals:?})",
        m.state_transfer_energy,
        est_cf
    );
    assert_eq!(
        m.resume_count,
        seq.suspend_arrivals(),
        "resume count mismatch (arrivals {arrivals:?})"
    );
}

proptest! {
    #[test]
    fn machine_matches_closed_form_nexus(arrivals in sorted_arrivals()) {
        check_agreement(&NEXUS_ONE, &arrivals);
    }

    #[test]
    fn machine_matches_closed_form_s4(arrivals in sorted_arrivals()) {
        check_agreement(&GALAXY_S4, &arrivals);
    }

    #[test]
    fn suspend_plus_active_time_bounded(arrivals in sorted_arrivals()) {
        let duration = arrivals.last().unwrap() + 100.0;
        let m = run_arrivals(&NEXUS_ONE, &arrivals, duration, 1.0);
        prop_assert!(m.suspend_time >= 0.0);
        prop_assert!(m.wakelock_time >= 0.0);
        prop_assert!(m.suspend_time + m.wakelock_time <= duration + 1e-9);
    }

    #[test]
    fn state_energy_monotone_in_frame_count(arrivals in sorted_arrivals()) {
        // Dropping frames from the tail can never increase Est + Ewl.
        if arrivals.len() < 2 {
            return Ok(());
        }
        let duration = arrivals.last().unwrap() + 100.0;
        let mf = run_arrivals(&NEXUS_ONE, &arrivals, duration, 1.0);
        let mh = run_arrivals(&NEXUS_ONE, &arrivals[..arrivals.len() / 2], duration, 1.0);
        let ef = mf.state_transfer_energy + mf.wakelock_energy;
        let eh = mh.state_transfer_energy + mh.wakelock_energy;
        prop_assert!(eh <= ef + 1e-9, "half {eh} > full {ef}");
    }
}

#[test]
fn dense_burst_agreement() {
    // A 100-frame burst at 50 ms spacing: continuous renewal.
    let arrivals: Vec<f64> = (0..100).map(|i| 1.0 + 0.05 * i as f64).collect();
    check_agreement(&NEXUS_ONE, &arrivals);
    check_agreement(&GALAXY_S4, &arrivals);
}

#[test]
fn abort_window_agreement() {
    // Frames spaced to land inside the suspend operation repeatedly.
    for profile in [NEXUS_ONE, GALAXY_S4] {
        let gap = profile.wakelock_secs + profile.suspend_secs * 0.5;
        let arrivals: Vec<f64> = (0..40).map(|i| 1.0 + gap * i as f64).collect();
        check_agreement(&profile, &arrivals);
    }
}

#[test]
fn exact_boundary_agreement() {
    // Frames exactly at the suspend-complete boundary: s(i) = 0 per the
    // paper's `>=` in Eq. (5).
    let p = NEXUS_ONE;
    let cycle = p.resume_secs + p.wakelock_secs + p.suspend_secs;
    let arrivals: Vec<f64> = (0..10)
        .scan(1.0, |t, _| {
            let v = *t;
            *t += cycle;
            Some(v)
        })
        .collect();
    check_agreement(&p, &arrivals);
}
