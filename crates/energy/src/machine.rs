//! Event-driven power-state machine.
//!
//! Generalizes Eqs. (3)–(5) and (12)–(14) of the paper to per-frame
//! wakelock durations. The machine walks the received frames in time
//! order and tracks the device through suspend / resume / active /
//! suspending phases:
//!
//! * a frame arriving in **suspend mode** triggers a resume operation
//!   (`T_rm`, `E_rm`) and — because the device must eventually suspend
//!   again — a full suspend operation's energy (`E_sp`) is charged for
//!   the session (Eq. 13's `(E_rm + E_sp)·Σ[1 − s(i)]` term);
//! * a frame arriving **during a suspend operation** aborts it; the
//!   wasted partial energy `E_sp · y(i)` is charged (Eq. 14) and the
//!   suspend restarts after the new wakelock;
//! * a frame arriving **while a wakelock is active** renews it (Eq. 4);
//! * a frame arriving **during a resume operation** has its wakelock
//!   activation delayed to the end of the resume (Eq. 3's `max`).

use crate::profile::DeviceProfile;
use crate::timeline::Timeline;

/// Output of the power-state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineResult {
    /// `Ewl` — energy of active-idle time under wakelocks (Eq. 12), J.
    pub wakelock_energy: f64,
    /// `Est` — energy of suspend/resume transfers incl. aborts (Eq. 13), J.
    pub state_transfer_energy: f64,
    /// Total time wakelocks were held, seconds (clipped to the trace).
    pub wakelock_time: f64,
    /// Total time spent fully suspended, seconds.
    pub suspend_time: f64,
    /// Number of resume operations (frames with `s(i) = 0`).
    pub resume_count: u64,
    /// Number of aborted suspend operations.
    pub aborted_suspends: u64,
}

/// Runs the state machine over a timeline.
///
/// The device is assumed suspended at `t = 0` (the paper's
/// "without loss of generality, `s(1) = 0`").
pub fn run(profile: &DeviceProfile, timeline: &Timeline) -> MachineResult {
    let t_rm = profile.resume_secs;
    let t_sp = profile.suspend_secs;
    let duration = timeline.duration();

    // `release`: expiry time of the furthest wakelock in the current wake
    // session; the suspend operation runs over [release, release + t_sp].
    // Starting suspended: model a virtual session that released at -t_sp.
    let mut release = -t_sp;
    // `last_tr`: activation time of the most recent wakelock (may be in
    // the future while a resume operation is in flight).
    let mut last_tr = f64::NEG_INFINITY;

    let mut wakelock_time = 0.0f64;
    let mut est = 0.0f64;
    let mut suspend_time = 0.0f64;
    let mut resume_count = 0u64;
    let mut aborted = 0u64;

    let mut prev_arrival = f64::NEG_INFINITY;
    for frame in timeline.frames() {
        // Fully-received time; clamp to keep arrivals monotone even if
        // airtimes overlap pathologically.
        let a = frame.end().max(prev_arrival);
        prev_arrival = a;
        let h = frame.hold;
        let suspend_complete = release + t_sp;

        if a >= suspend_complete {
            // s(i) = 0: device is suspended when the frame arrives.
            suspend_time += a - suspend_complete;
            est += profile.wake_cycle_energy();
            resume_count += 1;
            let tr = a + t_rm;
            last_tr = tr;
            release = tr + h;
            wakelock_time += h;
        } else if a >= release {
            // Suspend operation in progress: abort it.
            let y = (a - release) / t_sp;
            est += profile.suspend_energy * y;
            aborted += 1;
            let tr = a.max(last_tr);
            last_tr = tr;
            let new_release = tr + h;
            if new_release > release {
                wakelock_time += new_release - release.max(tr);
                release = new_release;
            }
        } else {
            // Wakelock still active (or resume in flight): renew.
            let tr = a.max(last_tr);
            last_tr = tr;
            let new_release = tr + h;
            if new_release > release {
                wakelock_time += new_release - release;
                release = new_release;
            }
        }
    }

    // Trailing suspended time after the final session completes its
    // suspend, clipped to the trace duration.
    let final_suspend_complete = release + t_sp;
    if final_suspend_complete < duration {
        suspend_time += duration - final_suspend_complete;
    }
    // Clip wakelock time that extends past the trace end: the tail
    // [duration, release] of the final wakelock is contiguous held time.
    if release > duration {
        wakelock_time = (wakelock_time - (release - duration)).max(0.0);
    }

    MachineResult {
        wakelock_energy: profile.active_idle_power * wakelock_time,
        state_transfer_energy: est,
        wakelock_time,
        suspend_time: suspend_time.min(duration).max(0.0),
        resume_count,
        aborted_suspends: aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{BUILTIN_PROFILES, GALAXY_S4, NEXUS_ONE};
    use crate::timeline::{Timeline, TimelineFrame};

    fn frames(specs: &[(f64, f64)]) -> Vec<TimelineFrame> {
        specs
            .iter()
            .map(|&(start, hold)| TimelineFrame {
                start,
                airtime: 0.0,
                more_data: false,
                hold,
            })
            .collect()
    }

    fn run_on(duration: f64, specs: &[(f64, f64)]) -> MachineResult {
        let t = Timeline::new(duration, 0.1024, frames(specs)).unwrap();
        run(&NEXUS_ONE, &t)
    }

    #[test]
    fn empty_timeline_stays_suspended() {
        let r = run_on(100.0, &[]);
        assert_eq!(r.resume_count, 0);
        assert_eq!(r.wakelock_time, 0.0);
        assert_eq!(r.state_transfer_energy, 0.0);
        assert!((r.suspend_time - 100.0).abs() < NEXUS_ONE.suspend_secs + 1e-9);
    }

    #[test]
    fn single_frame_costs_one_wake_cycle() {
        let r = run_on(100.0, &[(10.0, 1.0)]);
        assert_eq!(r.resume_count, 1);
        assert_eq!(r.aborted_suspends, 0);
        assert!((r.state_transfer_energy - NEXUS_ONE.wake_cycle_energy()).abs() < 1e-12);
        assert!((r.wakelock_time - 1.0).abs() < 1e-12);
        // Suspended: [0, 10] plus [10 + Trm + 1 + Tsp, 100].
        let expected = 10.0 + (100.0 - (10.0 + 0.046 + 1.0 + 0.086));
        assert!((r.suspend_time - expected).abs() < 1e-9);
    }

    #[test]
    fn renewal_within_wakelock_extends_without_new_cycle() {
        // Second frame arrives 0.5 s after the first: one session, one
        // wake cycle, held from 10.046 (resume done) to 11.5.
        let r = run_on(100.0, &[(10.0, 1.0), (10.5, 1.0)]);
        assert_eq!(r.resume_count, 1);
        assert_eq!(r.aborted_suspends, 0);
        assert!((r.state_transfer_energy - NEXUS_ONE.wake_cycle_energy()).abs() < 1e-12);
        assert!((r.wakelock_time - (11.5 - 10.046)).abs() < 1e-12);
    }

    #[test]
    fn arrival_during_suspend_op_aborts_it() {
        // Wakelock expires at 10 + Trm + 1 = 11.046; suspend runs until
        // 11.132. A frame at 11.1 arrives mid-suspend.
        let r = run_on(100.0, &[(10.0, 1.0), (11.1, 1.0)]);
        assert_eq!(r.resume_count, 1);
        assert_eq!(r.aborted_suspends, 1);
        let y = (11.1 - 11.046) / NEXUS_ONE.suspend_secs;
        let expected = NEXUS_ONE.wake_cycle_energy() + NEXUS_ONE.suspend_energy * y;
        assert!(
            (r.state_transfer_energy - expected).abs() < 1e-9,
            "got {} expected {expected}",
            r.state_transfer_energy
        );
        // Held: [10.046, 11.046] and [11.1, 12.1].
        assert!((r.wakelock_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn arrival_after_suspend_completes_costs_second_cycle() {
        let r = run_on(100.0, &[(10.0, 1.0), (20.0, 1.0)]);
        assert_eq!(r.resume_count, 2);
        assert!((r.state_transfer_energy - 2.0 * NEXUS_ONE.wake_cycle_energy()).abs() < 1e-12);
        assert!((r.wakelock_time - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arrival_during_resume_delays_activation() {
        // Frame at 10 resumes until 10.046; frame fully arriving at
        // 10.02 is during the resume: its wakelock activates at 10.046,
        // so the session still releases at 11.046 (not 11.02).
        let r = run_on(100.0, &[(10.0, 1.0), (10.02, 1.0)]);
        assert_eq!(r.resume_count, 1);
        assert!((r.wakelock_time - 1.0).abs() < 1e-9, "{}", r.wakelock_time);
    }

    #[test]
    fn zero_hold_frame_in_suspend_costs_cycle_but_no_wakelock() {
        // The "client-side" pattern: wake, drop, suspend immediately.
        let r = run_on(100.0, &[(10.0, 0.0)]);
        assert_eq!(r.resume_count, 1);
        assert_eq!(r.wakelock_time, 0.0);
        assert!((r.state_transfer_energy - NEXUS_ONE.wake_cycle_energy()).abs() < 1e-12);
        // Suspended except [10, 10 + Trm + Tsp].
        let expected = 100.0 - NEXUS_ONE.resume_secs - NEXUS_ONE.suspend_secs;
        assert!((r.suspend_time - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_hold_during_active_wakelock_changes_nothing() {
        let with = run_on(100.0, &[(10.0, 1.0), (10.3, 0.0)]);
        let without = run_on(100.0, &[(10.0, 1.0)]);
        assert!((with.wakelock_time - without.wakelock_time).abs() < 1e-12);
        assert!((with.state_transfer_energy - without.state_transfer_energy).abs() < 1e-12);
    }

    #[test]
    fn zero_hold_burst_causes_abort_storm() {
        // Useless frames every 60 ms: each arrives inside the previous
        // 86 ms suspend op, aborting it over and over.
        let specs: Vec<(f64, f64)> = (0..10).map(|i| (10.0 + 0.06 * i as f64, 0.0)).collect();
        let r = run_on(100.0, &specs);
        assert_eq!(r.resume_count, 1);
        assert_eq!(r.aborted_suspends, 9);
        assert!(r.state_transfer_energy > NEXUS_ONE.wake_cycle_energy());
    }

    #[test]
    fn wakelock_clipped_at_trace_end() {
        let r = run_on(10.5, &[(10.0, 1.0)]);
        // Held [10.046, 11.046] but trace ends at 10.5.
        assert!((r.wakelock_time - (10.5 - 10.046)).abs() < 1e-9);
    }

    #[test]
    fn suspend_fraction_never_exceeds_one() {
        let specs: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 * 0.2, 1.0)).collect();
        let r = run_on(10.0, &specs);
        assert!(r.suspend_time >= 0.0);
        assert!(r.suspend_time <= 10.0);
    }

    fn run_with(profile: &DeviceProfile, duration: f64, specs: &[(f64, f64)]) -> MachineResult {
        let t = Timeline::new(duration, 0.1024, frames(specs)).unwrap();
        run(profile, &t)
    }

    #[test]
    fn run_prices_from_the_profile_it_is_given() {
        // One Galaxy S4 session: every charge reads the S4's own constants.
        let r = run_with(&GALAXY_S4, 100.0, &[(10.0, 1.0)]);
        assert_eq!(r.resume_count, 1);
        assert_eq!(
            r.state_transfer_energy.to_bits(),
            GALAXY_S4.wake_cycle_energy().to_bits()
        );
        assert_eq!(
            r.wakelock_energy.to_bits(),
            GALAXY_S4.active_idle_power.to_bits()
        );
        // Suspended: [0, 10] plus [10 + T_rm + 1 + T_sp, 100].
        let release = 10.0 + GALAXY_S4.resume_secs + 1.0;
        let expected = 10.0 + (100.0 - (release + GALAXY_S4.suspend_secs));
        assert!((r.suspend_time - expected).abs() < 1e-12);
    }

    #[test]
    fn wakelock_energy_is_active_idle_power_times_held_time() {
        let specs: Vec<(f64, f64)> = (0..30)
            .map(|i| (i as f64 * 0.35, if i % 3 == 0 { 0.0 } else { 1.0 }))
            .collect();
        for p in BUILTIN_PROFILES {
            let r = run_with(&p, 20.0, &specs);
            assert!(r.wakelock_time > 0.0, "{}", p.name);
            assert_eq!(
                r.wakelock_energy.to_bits(),
                (p.active_idle_power * r.wakelock_time).to_bits(),
                "{}",
                p.name
            );
            // A wakelock keeps the whole system up; the radio's own
            // listening draw is a different constant.
            assert_ne!(r.wakelock_energy, p.idle_power * r.wakelock_time);
        }
    }

    #[test]
    fn separate_sessions_charge_whole_wake_cycles_bit_exactly() {
        // 10 s apart, each session's suspend completes before the next
        // frame on every builtin device.
        let specs = [(10.0, 1.0), (20.0, 1.0), (30.0, 1.0)];
        for p in BUILTIN_PROFILES {
            let r = run_with(&p, 100.0, &specs);
            assert_eq!(r.resume_count, 3, "{}", p.name);
            assert_eq!(r.aborted_suspends, 0, "{}", p.name);
            let w = p.wake_cycle_energy();
            assert_eq!(
                r.state_transfer_energy.to_bits(),
                (0.0 + w + w + w).to_bits(),
                "{}",
                p.name
            );
            assert_eq!(r.wakelock_time, 3.0);
        }
    }

    #[test]
    fn aborted_suspend_charges_the_profiles_own_fraction() {
        // The second frame lands halfway through the first session's
        // suspend operation: half of that device's E_sp is wasted.
        for p in BUILTIN_PROFILES {
            let release = 10.0 + p.resume_secs + 1.0;
            let r = run_with(
                &p,
                100.0,
                &[(10.0, 1.0), (release + 0.5 * p.suspend_secs, 1.0)],
            );
            assert_eq!(r.resume_count, 1, "{}", p.name);
            assert_eq!(r.aborted_suspends, 1, "{}", p.name);
            let expected = p.wake_cycle_energy() + 0.5 * p.suspend_energy;
            assert!(
                (r.state_transfer_energy - expected).abs() < 1e-12,
                "{}: {} vs {expected}",
                p.name,
                r.state_transfer_energy
            );
            assert!((r.wakelock_time - 2.0).abs() < 1e-9, "{}", p.name);
        }
    }

    #[test]
    fn heavier_traffic_means_less_suspend_time() {
        let light: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 10.0, 1.0)).collect();
        let heavy: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 1.0, 1.0)).collect();
        let rl = run_on(100.0, &light);
        let rh = run_on(100.0, &heavy);
        assert!(rh.suspend_time < rl.suspend_time);
        assert!(rh.wakelock_energy > rl.wakelock_energy);
    }
}
