//! One-pass evaluation of the Section IV model.
//!
//! [`evaluate`] folds a run's frames, in start order, through the radio
//! stepper (Eqs. 6–11, [`crate::radio`]) and the power-state machine
//! (Eqs. 3–5 and 12–14, [`crate::machine`]) at once. It checks each
//! frame as it folds it in and, when asked, recomputes the More Data
//! bits on the fly, so no caller has to build, store or re-walk a
//! timeline. [`Pass`] is the same fold for a producer that pushes
//! frames one at a time.
//!
//! The checks, their order and the error they give are a contract
//! (docs/MODEL.md): the duration, then the beacon interval, then each
//! frame in turn — start finite and not negative, starts sorted,
//! airtime and hold finite and not negative, start not past the end.
//! The first failure is the run's [`EnergyError`].

use crate::machine::{Machine, MachineResult};
use crate::profile::DeviceProfile;
use crate::radio::{Radio, RadioResult};
use crate::timeline::{EnergyError, Overhead, TimelineFrame};
use crate::{EnergyBreakdown, EnergyReport};
use hide_obs::{Counter, Distribution, MetricsSink};

/// Where each frame's More Data bit comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoreData {
    /// The bit each frame carries, as the capture AP set it.
    AsGiven,
    /// Set exactly when the next frame falls in the same beacon
    /// interval: how an AP marks the frames it actually delivers to a
    /// client, after HIDE filtering or DTIM batching.
    Recompute,
}

/// The totals of one evaluated run, before its overhead is priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation<'p> {
    profile: &'p DeviceProfile,
    /// `Eb` and `Ef` (Eqs. 6–11).
    pub radio: RadioResult,
    /// `Ewl`, `Est` and the suspend-time accounting (Eqs. 3–5, 12–14).
    pub machine: MachineResult,
    /// Frames the radio received.
    pub frames: usize,
    /// Received frames that held a wakelock (`hold > 0`).
    pub wake_frames: usize,
    /// Beacons transmitted during the run (the `b_1..b_n` range of
    /// Eq. 6 extended to the full duration).
    pub beacons: u64,
    /// Run duration, seconds.
    pub duration: f64,
}

impl Evaluation<'_> {
    /// Adds the overhead `Eo` (Eqs. 15–19) and assembles the
    /// [`EnergyReport`], counting into `sink` the evaluation itself, the
    /// frames and beacon intervals it covered, and the resume and
    /// aborted-suspend transitions the machine took.
    pub fn report<S: MetricsSink>(&self, overhead: &Overhead, sink: &mut S) -> EnergyReport {
        let machine = &self.machine;
        sink.incr(Counter::EnergyEvals);
        sink.add(Counter::TimelineFrames, self.frames as u64);
        sink.add(Counter::BeaconsModeled, self.beacons);
        sink.add(Counter::Resumes, machine.resume_count);
        sink.add(Counter::AbortedSuspends, machine.aborted_suspends);
        sink.observe(Distribution::ResumesPerRun, machine.resume_count);
        EnergyReport {
            breakdown: EnergyBreakdown {
                beacon: self.radio.beacon_energy,
                frames: self.radio.frame_energy,
                wakelock: machine.wakelock_energy,
                state_transfer: machine.state_transfer_energy,
                overhead: overhead.energy(self.profile),
            },
            duration: self.duration,
            suspend_time: machine.suspend_time,
            resume_count: machine.resume_count,
            aborted_suspends: machine.aborted_suspends,
            suspend_floor_energy: self.profile.suspend_power * machine.suspend_time,
        }
    }
}

/// The one-pass fold, fed a frame at a time.
///
/// An invalid input does not stop the producer: the pass keeps the
/// first error, ignores every frame after it, and returns the error
/// from [`Pass::finish`].
#[derive(Debug, Clone)]
pub struct Pass<'p> {
    profile: &'p DeviceProfile,
    duration: f64,
    beacon_interval: f64,
    error: Option<EnergyError>,
    frames: usize,
    wake_frames: usize,
    prev_start: f64,
    radio: Radio,
    machine: Machine,
}

impl<'p> Pass<'p> {
    /// Starts a pass over a run of `duration` seconds with beacons every
    /// `beacon_interval` seconds. An invalid duration or interval is the
    /// pass's error from the start.
    pub fn new(
        profile: &'p DeviceProfile,
        duration: f64,
        beacon_interval: f64,
        more_data: MoreData,
    ) -> Self {
        let error = if !duration.is_finite() || duration <= 0.0 {
            Some(EnergyError::NonPositiveDuration(duration))
        } else if !beacon_interval.is_finite() || beacon_interval <= 0.0 {
            Some(EnergyError::NonPositiveBeaconInterval(beacon_interval))
        } else {
            None
        };
        Pass {
            profile,
            duration,
            beacon_interval,
            error,
            frames: 0,
            wake_frames: 0,
            prev_start: f64::NEG_INFINITY,
            radio: Radio::new(beacon_interval, duration, more_data == MoreData::Recompute),
            machine: Machine::new(profile),
        }
    }

    /// Folds in the next frame.
    #[inline(always)]
    pub fn push(&mut self, frame: TimelineFrame) {
        let index = self.frames;
        self.frames += 1;
        if self.error.is_some() {
            return;
        }
        if let Err(reason) = check(&frame, self.prev_start, self.duration) {
            self.error = Some(EnergyError::InvalidFrame { index, reason });
            return;
        }
        self.prev_start = frame.start;
        self.wake_frames += usize::from(frame.hold > 0.0);
        self.machine.step(&frame, self.profile);
        self.radio.push(&frame);
    }

    /// Ends the pass.
    ///
    /// # Errors
    ///
    /// Returns the first [`EnergyError`] of the run: a non-positive
    /// duration or beacon interval, or the first frame that is out of
    /// start order, has a negative or non-finite start, airtime or
    /// hold, or starts after the run ends.
    pub fn finish(self) -> Result<Evaluation<'p>, EnergyError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        let beacons = (self.duration / self.beacon_interval).ceil() as u64;
        Ok(Evaluation {
            profile: self.profile,
            radio: self.radio.finish(self.profile, beacons),
            machine: self.machine.finish(self.duration, self.profile),
            frames: self.frames,
            wake_frames: self.wake_frames,
            beacons,
            duration: self.duration,
        })
    }
}

/// The frame checks in their contract order: the reason of the first
/// that `f` fails, if any. `prev` is the previous frame's start.
#[inline(always)]
fn check(f: &TimelineFrame, prev: f64, duration: f64) -> Result<(), &'static str> {
    if !f.start.is_finite() || f.start < 0.0 {
        Err("negative start time")
    } else if f.start < prev {
        Err("frames not sorted by start time")
    } else if !f.airtime.is_finite() || f.airtime < 0.0 {
        Err("negative airtime")
    } else if !f.hold.is_finite() || f.hold < 0.0 {
        Err("negative wakelock hold")
    } else if f.start > duration {
        Err("frame starts after trace end")
    } else {
        Ok(())
    }
}

/// Evaluates the Section IV model over a run's frames, in start
/// order, in one pass.
///
/// # Errors
///
/// Returns the [`EnergyError`] [`Pass::finish`] describes.
pub fn evaluate<'p, I>(
    profile: &'p DeviceProfile,
    duration: f64,
    beacon_interval: f64,
    more_data: MoreData,
    frames: I,
) -> Result<Evaluation<'p>, EnergyError>
where
    I: IntoIterator<Item = TimelineFrame>,
{
    let mut pass = Pass::new(profile, duration, beacon_interval, more_data);
    frames.into_iter().for_each(|frame| pass.push(frame));
    pass.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::NEXUS_ONE;

    fn frame(start: f64) -> TimelineFrame {
        TimelineFrame {
            start,
            airtime: 0.001,
            more_data: false,
            hold: 1.0,
        }
    }

    fn check(duration: f64, bi: f64, frames: Vec<TimelineFrame>) -> Result<(), EnergyError> {
        evaluate(&NEXUS_ONE, duration, bi, MoreData::AsGiven, frames).map(|_| ())
    }

    fn reason(frames: Vec<TimelineFrame>) -> (usize, &'static str) {
        match check(10.0, 0.1, frames) {
            Err(EnergyError::InvalidFrame { index, reason }) => (index, reason),
            other => panic!("expected an invalid frame, got {other:?}"),
        }
    }

    #[test]
    fn valid_timeline_accepted() {
        let e = evaluate(
            &NEXUS_ONE,
            10.0,
            0.1024,
            MoreData::AsGiven,
            [frame(1.0), frame(2.0)],
        )
        .unwrap();
        assert_eq!(e.frames, 2);
        assert_eq!(e.wake_frames, 2);
        assert_eq!(e.beacons, 98);
    }

    #[test]
    fn rejects_bad_duration_and_interval() {
        assert!(matches!(
            check(0.0, 0.1, vec![]),
            Err(EnergyError::NonPositiveDuration(_))
        ));
        assert!(matches!(
            check(10.0, 0.0, vec![]),
            Err(EnergyError::NonPositiveBeaconInterval(_))
        ));
        assert!(check(f64::NAN, 0.1, vec![]).is_err());
        // The duration is checked before the interval, and both before
        // any frame.
        assert!(matches!(
            check(-1.0, f64::NAN, vec![frame(-1.0)]),
            Err(EnergyError::NonPositiveDuration(_))
        ));
        assert!(matches!(
            check(1.0, -1.0, vec![frame(-1.0)]),
            Err(EnergyError::NonPositiveBeaconInterval(_))
        ));
    }

    #[test]
    fn rejects_unsorted_frames() {
        assert_eq!(
            reason(vec![frame(2.0), frame(1.0)]),
            (1, "frames not sorted by start time")
        );
    }

    #[test]
    fn rejects_negative_fields() {
        let mut f = frame(1.0);
        f.airtime = -0.1;
        assert_eq!(reason(vec![f]), (0, "negative airtime"));
        let mut f = frame(1.0);
        f.hold = -1.0;
        assert_eq!(reason(vec![f]), (0, "negative wakelock hold"));
        let mut f = frame(1.0);
        f.hold = f64::INFINITY;
        assert_eq!(reason(vec![frame(0.5), f]), (1, "negative wakelock hold"));
        assert_eq!(reason(vec![frame(-0.5)]), (0, "negative start time"));
        assert_eq!(reason(vec![frame(f64::NAN)]), (0, "negative start time"));
        assert_eq!(
            reason(vec![frame(11.0)]),
            (0, "frame starts after trace end")
        );
    }

    #[test]
    fn the_first_error_wins_and_later_frames_are_ignored() {
        let mut bad_hold = frame(3.0);
        bad_hold.hold = -1.0;
        assert_eq!(
            reason(vec![frame(1.0), frame(0.5), bad_hold, frame(-2.0)]),
            (1, "frames not sorted by start time")
        );
        // One frame failing several checks reports the first in order.
        let mut f = frame(20.0);
        f.airtime = f64::NAN;
        assert_eq!(reason(vec![frame(1.0), f]), (1, "negative airtime"));
    }

    #[test]
    fn zero_holds_are_not_wake_frames() {
        let mut useless = frame(2.0);
        useless.hold = 0.0;
        let e = evaluate(
            &NEXUS_ONE,
            10.0,
            0.1,
            MoreData::AsGiven,
            [frame(1.0), useless],
        )
        .unwrap();
        assert_eq!((e.frames, e.wake_frames), (2, 1));
    }
}
