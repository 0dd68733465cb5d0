//! Literal transcription of the paper's closed-form state equations.
//!
//! For the uniform-wakelock case (every received frame holds the same
//! `τ`), Eqs. (3)–(5) and (14) define the wakelock start times `t_r(i)`,
//! active durations `t_wl(i)`, system states `s(i)` and aborted-suspend
//! fractions `y(i)` in closed form. This module computes them exactly as
//! written: it is the oracle `closed_form_cross_check.rs` holds the
//! event-driven `hide_energy::machine` to.

use hide_energy::profile::DeviceProfile;

/// Per-frame state sequences of Eqs. (3)–(5) and (14).
#[derive(Debug, Clone, PartialEq)]
pub struct StateSequences {
    /// Wakelock start times `t_r(i)` (Eq. 3).
    pub wakelock_starts: Vec<f64>,
    /// Wakelock active durations `t_wl(i)` (Eq. 4).
    pub wakelock_durations: Vec<f64>,
    /// System state at each arrival: `s(i) = 0` suspended, `1` active /
    /// resuming / suspending (Eq. 5).
    pub states: Vec<u8>,
    /// Aborted-suspend fractions `y(i)` (Eq. 14); `y(1) = 0`.
    pub aborted_fractions: Vec<f64>,
}

impl StateSequences {
    /// `Σ t_wl(i)` — total wakelock-held time.
    pub fn total_wakelock_time(&self) -> f64 {
        self.wakelock_durations.iter().sum()
    }

    /// Number of frames that arrived in suspend mode (`Σ [1 − s(i)]`).
    pub fn suspend_arrivals(&self) -> u64 {
        self.states.iter().filter(|&&s| s == 0).count() as u64
    }

    /// `Σ y(i)` — total aborted-suspend fraction.
    pub fn total_aborted_fraction(&self) -> f64 {
        self.aborted_fractions.iter().sum()
    }

    /// `Ewl` per Eq. (12).
    pub fn wakelock_energy(&self, profile: &DeviceProfile) -> f64 {
        profile.active_idle_power * self.total_wakelock_time()
    }

    /// `Est` per Eq. (13).
    pub fn state_transfer_energy(&self, profile: &DeviceProfile) -> f64 {
        profile.wake_cycle_energy() * self.suspend_arrivals() as f64
            + profile.suspend_energy * self.total_aborted_fraction()
    }
}

/// Computes Eqs. (3)–(5) and (14) for frame arrival-completion times
/// `arrivals[i] = t_i + l_i / r_i` (must be sorted ascending) and a
/// uniform wakelock `τ` from the profile.
///
/// The paper assumes `s(1) = 0` (the device is suspended when the first
/// frame arrives); so does this function.
///
/// # Panics
///
/// Panics if `arrivals` is not sorted ascending — callers construct it
/// from sorted frames.
pub fn compute(profile: &DeviceProfile, arrivals: &[f64]) -> StateSequences {
    let n = arrivals.len();
    let tau = profile.wakelock_secs;
    let t_rm = profile.resume_secs;
    let t_sp = profile.suspend_secs;

    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrival times must be sorted"
    );

    let mut tr = vec![0.0f64; n];
    let mut s = vec![0u8; n];
    let mut y = vec![0.0f64; n];

    for i in 0..n {
        if i == 0 {
            s[0] = 0;
            tr[0] = arrivals[0] + t_rm;
            continue;
        }
        // Eq. (5): suspended iff the arrival is past the previous
        // wakelock's expiry plus a complete suspend operation.
        s[i] = if arrivals[i] >= tr[i - 1] + tau + t_sp {
            0
        } else {
            1
        };
        // Eq. (3).
        tr[i] = if s[i] == 0 {
            arrivals[i] + t_rm
        } else {
            arrivals[i].max(tr[i - 1])
        };
    }

    // Eq. (4): t_wl(i) = min(t_r(i+1) − t_r(i), τ); the final wakelock
    // runs its full course.
    let mut twl = vec![0.0f64; n];
    for i in 0..n {
        twl[i] = if i + 1 < n {
            (tr[i + 1] - tr[i]).min(tau)
        } else {
            tau
        };
    }

    // Eq. (14): the fraction of a suspend operation completed before
    // frame i aborted it.
    for i in 1..n {
        y[i] = ((tr[i] - tr[i - 1] - twl[i - 1]).max(0.0) * s[i] as f64) / t_sp;
    }

    StateSequences {
        wakelock_starts: tr,
        wakelock_durations: twl,
        states: s,
        aborted_fractions: y,
    }
}

mod tests {
    use super::*;
    use hide_energy::profile::{GALAXY_S4, NEXUS_ONE};

    #[test]
    fn empty_input() {
        let seq = compute(&NEXUS_ONE, &[]);
        assert_eq!(seq.total_wakelock_time(), 0.0);
        assert_eq!(seq.suspend_arrivals(), 0);
    }

    #[test]
    fn first_frame_is_suspend_arrival() {
        let seq = compute(&NEXUS_ONE, &[5.0]);
        assert_eq!(seq.states, vec![0]);
        assert!((seq.wakelock_starts[0] - 5.046).abs() < 1e-12);
        assert_eq!(seq.wakelock_durations, vec![1.0]);
        assert_eq!(seq.aborted_fractions, vec![0.0]);
    }

    #[test]
    fn renewal_shortens_previous_wakelock() {
        // Frames 0.4 s apart: the first wakelock activates at 5.046
        // (after the resume) and runs only until the renewal at 5.4
        // (Eq. 4's min).
        let seq = compute(&NEXUS_ONE, &[5.0, 5.4]);
        assert_eq!(seq.states, vec![0, 1]);
        assert!((seq.wakelock_durations[0] - 0.354).abs() < 1e-12);
        assert_eq!(seq.wakelock_durations[1], 1.0);
        assert_eq!(seq.total_aborted_fraction(), 0.0);
    }

    #[test]
    fn far_apart_frames_are_independent_cycles() {
        let seq = compute(&NEXUS_ONE, &[5.0, 50.0, 100.0]);
        assert_eq!(seq.states, vec![0, 0, 0]);
        assert_eq!(seq.suspend_arrivals(), 3);
        assert_eq!(seq.total_wakelock_time(), 3.0);
    }

    #[test]
    fn abort_fraction_matches_manual_calculation() {
        // Wakelock expires at 5 + 0.046 + 1 = 6.046. Suspend completes at
        // 6.132. Frame at 6.1 aborts after (6.1-6.046)/0.086 of the op.
        let seq = compute(&NEXUS_ONE, &[5.0, 6.1]);
        assert_eq!(seq.states, vec![0, 1]);
        let y = (6.1 - 6.046) / 0.086;
        assert!((seq.aborted_fractions[1] - y).abs() < 1e-9);
    }

    #[test]
    fn energy_formulas_match_components() {
        let seq = compute(&NEXUS_ONE, &[5.0, 50.0]);
        let ewl = seq.wakelock_energy(&NEXUS_ONE);
        assert!((ewl - 0.125 * 2.0).abs() < 1e-12);
        let est = seq.state_transfer_energy(&NEXUS_ONE);
        assert!((est - 2.0 * NEXUS_ONE.wake_cycle_energy()).abs() < 1e-12);
    }

    #[test]
    fn s4_suspends_slower_so_aborts_span_longer() {
        // Same gap counts as an abort on the S4 (165 ms suspend) but a
        // completed suspend on the Nexus One (86 ms).
        let gap_after_expiry = 0.12;
        let expiry = 5.0 + NEXUS_ONE.resume_secs + 1.0;
        let arrivals = [5.0, expiry + gap_after_expiry];
        let nexus = compute(&NEXUS_ONE, &arrivals);
        assert_eq!(nexus.states[1], 0, "nexus one finished suspending");

        let expiry_s4 = 5.0 + GALAXY_S4.resume_secs + 1.0;
        let arrivals_s4 = [5.0, expiry_s4 + gap_after_expiry];
        let s4 = compute(&GALAXY_S4, &arrivals_s4);
        assert_eq!(s4.states[1], 1, "s4 still suspending");
        assert!(s4.aborted_fractions[1] > 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_arrivals_panic() {
        let _ = compute(&NEXUS_ONE, &[5.0, 1.0]);
    }
}
