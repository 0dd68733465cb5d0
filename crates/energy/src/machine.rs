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
//!
//! The rule lives in one stepper, [`WakeLock`]: [`WakeLock::arrive`]
//! takes one arrival, returns the case it took ([`Wake`]) and the
//! wakelock seconds it added, and knows no unit of energy.
//! [`WakeLock::settle`] gives the end-of-run clip. [`run`] folds the
//! stepper over a run's frames and prices each step in `f64` joules;
//! the one-pass evaluator ([`crate::pass`]) steps the same fold.

use crate::profile::DeviceProfile;
use crate::timeline::TimelineFrame;

/// The case one arrival takes, as docs/MODEL.md's rules table names
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wake {
    /// `a ≥ release + T_sp`: the device was fully suspended for
    /// `suspended` seconds before the arrival, and pays a full wake
    /// cycle (Eq. 13's `s(i) = 0` term).
    Resume {
        /// Suspended seconds since the last suspend completed.
        suspended: f64,
    },
    /// `release ≤ a < release + T_sp`: the arrival aborts the suspend
    /// operation `fraction` of the way through (Eq. 14's `y(i)`).
    Abort {
        /// Elapsed share of `T_sp`, in `[0, 1)`.
        fraction: f64,
    },
    /// `a < release`: a wakelock (or a resume in flight) still holds,
    /// and the arrival renews it (Eqs. 3–4).
    Renew,
}

/// One arrival's step: the case it took and the wakelock seconds it
/// added to the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// The case taken.
    pub wake: Wake,
    /// Wakelock seconds added (`0` when the arrival's hold ends before
    /// the current expiry).
    pub held: f64,
}

/// The end-of-run clip [`WakeLock::settle`] gives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settle {
    /// Seconds suspended after the last suspend completes, up to the
    /// end of the run (`0` when it completes at or after the end).
    pub trailing_suspend: f64,
    /// Seconds of the last wakelock past the end of the run (`0` when
    /// it expires by then).
    pub overhang: f64,
}

/// One device's wakelock state, stepped once per arrival.
///
/// Three times make up the state: the expiry of the furthest wakelock
/// in the current wake session (`release`; the suspend operation runs
/// over `[release, release + T_sp]`), the activation time of the most
/// recent wakelock (in the future while a resume is in flight), and the
/// previous arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WakeLock {
    release: f64,
    last_tr: f64,
    prev_arrival: f64,
}

impl WakeLock {
    /// A device suspended at `t = 0` (the paper's "without loss of
    /// generality, `s(1) = 0`"): a virtual session that released at
    /// `−T_sp`.
    pub fn new(profile: &DeviceProfile) -> Self {
        WakeLock {
            release: -profile.suspend_secs,
            last_tr: f64::NEG_INFINITY,
            prev_arrival: f64::NEG_INFINITY,
        }
    }

    /// Steps one arrival: a frame fully received at `end` that holds a
    /// wakelock for `hold` seconds. Arrivals are clamped to be monotone,
    /// so pathologically overlapping airtimes cannot step back in time.
    #[inline(always)]
    pub fn arrive(&mut self, end: f64, hold: f64, profile: &DeviceProfile) -> Step {
        let a = end.max(self.prev_arrival);
        self.prev_arrival = a;
        let suspend_complete = self.release + profile.suspend_secs;
        if a >= suspend_complete {
            let suspended = a - suspend_complete;
            let tr = a + profile.resume_secs;
            self.last_tr = tr;
            self.release = tr + hold;
            return Step {
                wake: Wake::Resume { suspended },
                held: hold,
            };
        }
        let wake = if a >= self.release {
            Wake::Abort {
                fraction: (a - self.release) / profile.suspend_secs,
            }
        } else {
            Wake::Renew
        };
        let tr = a.max(self.last_tr);
        self.last_tr = tr;
        let new_release = tr + hold;
        let mut held = 0.0;
        if new_release > self.release {
            // An abort restarts the hold at the activation, not at the
            // old expiry: the gap in between was spent suspending.
            held = match wake {
                Wake::Abort { .. } => new_release - self.release.max(tr),
                _ => new_release - self.release,
            };
            self.release = new_release;
        }
        Step { wake, held }
    }

    /// The end-of-run clip for a run of `duration` seconds.
    pub fn settle(&self, duration: f64, profile: &DeviceProfile) -> Settle {
        let suspend_complete = self.release + profile.suspend_secs;
        Settle {
            trailing_suspend: if suspend_complete < duration {
                duration - suspend_complete
            } else {
                0.0
            },
            overhang: if self.release > duration {
                self.release - duration
            } else {
                0.0
            },
        }
    }
}

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

/// The fold [`run`] and the one-pass evaluator share: a [`WakeLock`]
/// and its steps priced in joules.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Machine {
    lock: WakeLock,
    wakelock_time: f64,
    state_transfer: f64,
    suspend_time: f64,
    resume_count: u64,
    aborted: u64,
}

impl Machine {
    pub(crate) fn new(profile: &DeviceProfile) -> Self {
        Machine {
            lock: WakeLock::new(profile),
            wakelock_time: 0.0,
            state_transfer: 0.0,
            suspend_time: 0.0,
            resume_count: 0,
            aborted: 0,
        }
    }

    #[inline(always)]
    pub(crate) fn step(&mut self, frame: &TimelineFrame, profile: &DeviceProfile) {
        let step = self.lock.arrive(frame.end(), frame.hold, profile);
        match step.wake {
            Wake::Resume { suspended } => {
                self.suspend_time += suspended;
                self.state_transfer += profile.wake_cycle_energy();
                self.resume_count += 1;
            }
            Wake::Abort { fraction } => {
                self.state_transfer += profile.suspend_energy * fraction;
                self.aborted += 1;
            }
            Wake::Renew => {}
        }
        self.wakelock_time += step.held;
    }

    pub(crate) fn finish(self, duration: f64, profile: &DeviceProfile) -> MachineResult {
        let settle = self.lock.settle(duration, profile);
        let suspend_time = self.suspend_time + settle.trailing_suspend;
        // The tail [duration, release] of the final wakelock is
        // contiguous held time.
        let wakelock_time = if settle.overhang > 0.0 {
            (self.wakelock_time - settle.overhang).max(0.0)
        } else {
            self.wakelock_time
        };
        MachineResult {
            wakelock_energy: profile.active_idle_power * wakelock_time,
            state_transfer_energy: self.state_transfer,
            wakelock_time,
            suspend_time: suspend_time.min(duration).max(0.0),
            resume_count: self.resume_count,
            aborted_suspends: self.aborted,
        }
    }
}

/// Runs the state machine over a run of `duration` seconds whose
/// frames come in start order, as [`crate::evaluate`] validates them
/// (this function checks nothing).
///
/// The device is assumed suspended at `t = 0` (the paper's
/// "without loss of generality, `s(1) = 0`").
pub fn run<I>(profile: &DeviceProfile, duration: f64, frames: I) -> MachineResult
where
    I: IntoIterator<Item = TimelineFrame>,
{
    let mut machine = Machine::new(profile);
    for frame in frames {
        machine.step(&frame, profile);
    }
    machine.finish(duration, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{BUILTIN_PROFILES, GALAXY_S4, NEXUS_ONE};

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
        run(&NEXUS_ONE, duration, frames(specs))
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
        run(profile, duration, frames(specs))
    }

    #[test]
    fn wake_lock_takes_each_case_of_the_rules_table() {
        // Resume at 10 (held to 11.046), renew at 10.5 (to 11.5), abort
        // halfway through the suspend that starts at 11.5, then a resume
        // long after.
        let p = NEXUS_ONE;
        let mut lock = WakeLock::new(&p);
        let first = lock.arrive(10.0, 1.0, &p);
        assert_eq!(first.wake, Wake::Resume { suspended: 10.0 });
        assert_eq!(first.held, 1.0);
        let renew = lock.arrive(10.5, 1.0, &p);
        assert_eq!(renew.wake, Wake::Renew);
        assert!((renew.held - (11.5 - 11.046)).abs() < 1e-12, "{renew:?}");
        let abort = lock.arrive(11.5 + 0.5 * p.suspend_secs, 1.0, &p);
        match abort.wake {
            Wake::Abort { fraction } => assert!((fraction - 0.5).abs() < 1e-9, "{fraction}"),
            other => panic!("expected an abort, got {other:?}"),
        }
        assert!((abort.held - 1.0).abs() < 1e-12, "{abort:?}");
        // A hold that ends before the current expiry adds nothing.
        assert_eq!(
            lock.arrive(11.6, 0.0, &p),
            Step {
                wake: Wake::Renew,
                held: 0.0
            }
        );
        let settle = lock.settle(12.0, &p);
        assert!((settle.overhang - 0.543).abs() < 1e-9, "{settle:?}");
        assert_eq!(settle.trailing_suspend, 0.0);
        assert!(matches!(
            lock.arrive(50.0, 1.0, &p).wake,
            Wake::Resume { .. }
        ));
        let settle = lock.settle(100.0, &p);
        assert_eq!(settle.overhang, 0.0);
        let release = 50.0 + p.resume_secs + 1.0;
        assert!((settle.trailing_suspend - (100.0 - release - p.suspend_secs)).abs() < 1e-9);
    }

    #[test]
    fn arrivals_never_step_back_in_time() {
        // A frame that ends before its predecessor arrives with it.
        let p = NEXUS_ONE;
        let mut lock = WakeLock::new(&p);
        lock.arrive(10.0, 0.0, &p);
        let mut clamped = lock;
        assert_eq!(lock.arrive(9.0, 0.0, &p), clamped.arrive(10.0, 0.0, &p));
        assert_eq!(lock, clamped);
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
