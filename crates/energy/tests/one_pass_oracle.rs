//! The one-pass evaluator against the multi-pass path it replaced.
//!
//! The oracle below is that path, kept as test code: materialize the
//! frames, validate them into a `Timeline`, recompute the More Data bits
//! back to front, then walk the timeline once for the radio
//! (Eqs. 6–11) and once more for the power-state machine's loop
//! (Eqs. 3–5, 12–14). On arbitrary frame sequences — NaN, negative,
//! unsorted and past-the-end starts, negative, NaN and infinite
//! airtimes and holds, invalid durations and beacon intervals — the
//! evaluator must give the same `EnergyError`, or the same report,
//! counts and metrics to the bit. The `WakeLock` stepper must take the
//! same case as the oracle's loop on every arrival.

use hide_energy::machine::{MachineResult, Wake, WakeLock};
use hide_energy::profile::{DeviceProfile, BUILTIN_PROFILES};
use hide_energy::radio::RadioResult;
use hide_energy::{EnergyBreakdown, EnergyError, EnergyReport, MoreData, Overhead, TimelineFrame};
use hide_obs::{Counter, Distribution, MetricsSink, Recorder};
use proptest::collection::vec;
use proptest::prelude::*;

/// The multi-pass path, as it stood before the one-pass evaluator.
mod oracle {
    use super::*;

    pub struct Timeline {
        duration: f64,
        beacon_interval: f64,
        frames: Vec<TimelineFrame>,
    }

    impl Timeline {
        pub fn new(
            duration: f64,
            beacon_interval: f64,
            frames: Vec<TimelineFrame>,
        ) -> Result<Self, EnergyError> {
            if !duration.is_finite() || duration <= 0.0 {
                return Err(EnergyError::NonPositiveDuration(duration));
            }
            if !beacon_interval.is_finite() || beacon_interval <= 0.0 {
                return Err(EnergyError::NonPositiveBeaconInterval(beacon_interval));
            }
            let mut prev = f64::NEG_INFINITY;
            for (index, f) in frames.iter().enumerate() {
                let invalid = |reason| Err(EnergyError::InvalidFrame { index, reason });
                if !f.start.is_finite() || f.start < 0.0 {
                    return invalid("negative start time");
                }
                if f.start < prev {
                    return invalid("frames not sorted by start time");
                }
                if !f.airtime.is_finite() || f.airtime < 0.0 {
                    return invalid("negative airtime");
                }
                if !f.hold.is_finite() || f.hold < 0.0 {
                    return invalid("negative wakelock hold");
                }
                if f.start > duration {
                    return invalid("frame starts after trace end");
                }
                prev = f.start;
            }
            Ok(Timeline {
                duration,
                beacon_interval,
                frames,
            })
        }

        pub fn frames(&self) -> &[TimelineFrame] {
            &self.frames
        }

        pub fn beacon_count(&self) -> u64 {
            (self.duration / self.beacon_interval).ceil() as u64
        }

        fn interval_of(&self, t: f64) -> u64 {
            if t <= 0.0 {
                0
            } else {
                (t / self.beacon_interval) as u64
            }
        }

        fn interval_start(&self, i: u64) -> f64 {
            i as f64 * self.beacon_interval
        }

        pub fn recompute_more_data(&mut self) {
            let mut successor = None;
            for i in (0..self.frames.len()).rev() {
                let interval = self.interval_of(self.frames[i].start);
                self.frames[i].more_data = successor == Some(interval);
                successor = Some(interval);
            }
        }
    }

    pub fn evaluate_radio(profile: &DeviceProfile, timeline: &Timeline) -> RadioResult {
        let beacon_energy = profile.beacon_energy * timeline.beacon_count() as f64;
        let frames = timeline.frames();
        let mut receive_time = 0.0f64;
        let mut idle = 0.0f64;
        let mut current_interval: Option<u64> = None;
        for (i, f) in frames.iter().enumerate() {
            receive_time += f.airtime;
            let interval = timeline.interval_of(f.start);
            if current_interval != Some(interval) {
                current_interval = Some(interval);
                idle += (f.start - timeline.interval_start(interval)).max(0.0);
            }
            if f.more_data {
                let interval_end = timeline.interval_start(interval + 1);
                let next_bound = match frames.get(i + 1) {
                    Some(next) => next.start.min(interval_end),
                    None => interval_end.min(timeline.duration),
                };
                idle += (next_bound - f.end()).max(0.0);
            }
        }
        RadioResult {
            beacon_energy,
            frame_energy: profile.rx_power * receive_time + profile.idle_power * idle,
            receive_time,
            idle_listen_time: idle,
        }
    }

    /// The machine's loop, logging the case each arrival took and the
    /// wakelock seconds it added.
    pub fn machine_run(
        profile: &DeviceProfile,
        timeline: &Timeline,
        cases: &mut Vec<(Wake, f64)>,
    ) -> MachineResult {
        let t_rm = profile.resume_secs;
        let t_sp = profile.suspend_secs;
        let duration = timeline.duration;
        let mut release = -t_sp;
        let mut last_tr = f64::NEG_INFINITY;
        let mut wakelock_time = 0.0f64;
        let mut est = 0.0f64;
        let mut suspend_time = 0.0f64;
        let mut resume_count = 0u64;
        let mut aborted = 0u64;
        let mut prev_arrival = f64::NEG_INFINITY;
        for frame in timeline.frames() {
            let a = frame.end().max(prev_arrival);
            prev_arrival = a;
            let h = frame.hold;
            let suspend_complete = release + t_sp;
            if a >= suspend_complete {
                cases.push((
                    Wake::Resume {
                        suspended: a - suspend_complete,
                    },
                    h,
                ));
                suspend_time += a - suspend_complete;
                est += profile.wake_cycle_energy();
                resume_count += 1;
                let tr = a + t_rm;
                last_tr = tr;
                release = tr + h;
                wakelock_time += h;
            } else if a >= release {
                let y = (a - release) / t_sp;
                est += profile.suspend_energy * y;
                aborted += 1;
                let tr = a.max(last_tr);
                last_tr = tr;
                let new_release = tr + h;
                let mut held = 0.0;
                if new_release > release {
                    held = new_release - release.max(tr);
                    wakelock_time += new_release - release.max(tr);
                    release = new_release;
                }
                cases.push((Wake::Abort { fraction: y }, held));
            } else {
                let tr = a.max(last_tr);
                last_tr = tr;
                let new_release = tr + h;
                let mut held = 0.0;
                if new_release > release {
                    held = new_release - release;
                    wakelock_time += new_release - release;
                    release = new_release;
                }
                cases.push((Wake::Renew, held));
            }
        }
        let final_suspend_complete = release + t_sp;
        if final_suspend_complete < duration {
            suspend_time += duration - final_suspend_complete;
        }
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

    pub struct Run {
        pub report: EnergyReport,
        pub radio: RadioResult,
        pub machine: MachineResult,
        pub frames: usize,
        pub wake_frames: usize,
        pub cases: Vec<(Wake, f64)>,
    }

    /// Materialize, validate, recompute, then evaluate, counting into
    /// `sink` as the multi-pass evaluation did.
    pub fn evaluate<S: MetricsSink>(
        profile: &DeviceProfile,
        duration: f64,
        beacon_interval: f64,
        more_data: MoreData,
        frames: &[TimelineFrame],
        overhead: &Overhead,
        sink: &mut S,
    ) -> Result<Run, EnergyError> {
        let wake_frames = frames.iter().filter(|f| f.hold > 0.0).count();
        let mut timeline = Timeline::new(duration, beacon_interval, frames.to_vec())?;
        if more_data == MoreData::Recompute {
            timeline.recompute_more_data();
        }
        let radio = evaluate_radio(profile, &timeline);
        let mut cases = Vec::new();
        let machine = machine_run(profile, &timeline, &mut cases);
        let eo = overhead.energy(profile);
        sink.incr(Counter::EnergyEvals);
        sink.add(Counter::TimelineFrames, timeline.frames().len() as u64);
        sink.add(Counter::BeaconsModeled, timeline.beacon_count());
        sink.add(Counter::Resumes, machine.resume_count);
        sink.add(Counter::AbortedSuspends, machine.aborted_suspends);
        sink.observe(Distribution::ResumesPerRun, machine.resume_count);
        let report = EnergyReport {
            breakdown: EnergyBreakdown {
                beacon: radio.beacon_energy,
                frames: radio.frame_energy,
                wakelock: machine.wakelock_energy,
                state_transfer: machine.state_transfer_energy,
                overhead: eo,
            },
            duration: timeline.duration,
            suspend_time: machine.suspend_time,
            resume_count: machine.resume_count,
            aborted_suspends: machine.aborted_suspends,
            suspend_floor_energy: profile.suspend_power * machine.suspend_time,
        };
        Ok(Run {
            report,
            radio,
            machine,
            frames: frames.len(),
            wake_frames,
            cases,
        })
    }
}

/// A frame sequence: mostly sorted, with short gaps (renewals and
/// aborted suspends), long ones (full cycles), equal starts, overlapping
/// airtimes, zero holds, and about one frame in seventy damaged, some
/// in two fields at once so that the order of the checks shows.
fn frames() -> impl Strategy<Value = Vec<TimelineFrame>> {
    let spec = (0.0f64..1.0, 0u8..10, 0u8..8, any::<bool>(), 0u16..1200);
    vec(spec, 0..90).prop_map(|specs| {
        let mut t = 0.0;
        specs
            .into_iter()
            .map(|(u, kind, hold, more_data, fault)| {
                t += match kind {
                    0 => 0.0,
                    1..=5 => u * 0.2,
                    6..=8 => u * 1.5,
                    _ => u * 30.0,
                };
                let mut f = TimelineFrame {
                    start: t,
                    airtime: if kind == 1 { u * 0.3 } else { u * 0.004 },
                    more_data,
                    hold: match hold {
                        0 | 1 => 0.0,
                        2 => u * 2.0,
                        _ => 1.0,
                    },
                };
                match fault {
                    0 => f.start = f64::NAN,
                    1 => f.start = -0.25,
                    2 => f.start = (t - 1.0).max(0.0),
                    3 => f.start = t + 1e4,
                    4 => f.start = f64::INFINITY,
                    5 => f.airtime = -1e-3,
                    6 => f.airtime = f64::NAN,
                    7 => f.airtime = f64::INFINITY,
                    8 => f.hold = -1.0,
                    9 => f.hold = f64::NAN,
                    10 => f.hold = f64::INFINITY,
                    11 => f.hold = -0.0,
                    12 => f.airtime = -0.0,
                    13 => (f.start, f.hold) = (-0.25, -1.0),
                    14 => (f.start, f.airtime) = ((t - 1.0).max(0.0), f64::NAN),
                    15 => (f.airtime, f.hold) = (-1e-3, -1.0),
                    16 => (f.start, f.hold) = (t + 1e4, f64::INFINITY),
                    _ => {}
                }
                f
            })
            .collect()
    })
}

/// The run's duration: mostly past the last start, sometimes short of
/// it, sometimes invalid.
fn duration_for(frames: &[TimelineFrame], kind: u8, u: f64) -> f64 {
    let last = frames
        .iter()
        .map(|f| f.start)
        .filter(|s| s.is_finite())
        .fold(0.0, f64::max);
    match kind {
        0 => 0.0,
        1 => -5.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => last * u,
        5 => last,
        _ => last + 0.001 + u * 5.0,
    }
}

fn beacon_interval_for(kind: u8, u: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => -0.1,
        2 => f64::NAN,
        3..=5 => 0.01 + u,
        _ => 0.1024,
    }
}

fn report_bits(r: &EnergyReport) -> [u64; 10] {
    let b = &r.breakdown;
    [
        b.beacon.to_bits(),
        b.frames.to_bits(),
        b.wakelock.to_bits(),
        b.state_transfer.to_bits(),
        b.overhead.to_bits(),
        r.duration.to_bits(),
        r.suspend_time.to_bits(),
        r.resume_count,
        r.aborted_suspends,
        r.suspend_floor_energy.to_bits(),
    ]
}

fn radio_bits(r: &RadioResult) -> [u64; 4] {
    [
        r.beacon_energy,
        r.frame_energy,
        r.receive_time,
        r.idle_listen_time,
    ]
    .map(f64::to_bits)
}

fn machine_bits(m: &MachineResult) -> [u64; 6] {
    [
        m.wakelock_energy.to_bits(),
        m.state_transfer_energy.to_bits(),
        m.wakelock_time.to_bits(),
        m.suspend_time.to_bits(),
        m.resume_count,
        m.aborted_suspends,
    ]
}

/// A case with its floats as bits, so NaN payloads compare too.
fn case_bits((wake, held): (Wake, f64)) -> (u8, u64, u64) {
    match wake {
        Wake::Resume { suspended } => (0, suspended.to_bits(), held.to_bits()),
        Wake::Abort { fraction } => (1, fraction.to_bits(), held.to_bits()),
        Wake::Renew => (2, 0, held.to_bits()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn one_pass_evaluation_matches_the_multi_pass_oracle(
        frames in frames(),
        profile in 0usize..BUILTIN_PROFILES.len(),
        kinds in (0u8..12, 0u8..12, 0.0f64..1.5, any::<bool>()),
    ) {
        let (duration_kind, interval_kind, u, recompute) = kinds;
        let profile = &BUILTIN_PROFILES[profile];
        let duration = duration_for(&frames, duration_kind, u);
        let beacon_interval = beacon_interval_for(interval_kind, u);
        let more_data = if recompute { MoreData::Recompute } else { MoreData::AsGiven };
        let overhead = Overhead {
            btim_bytes_total: 4.0 * u,
            port_messages: 3,
            port_message_airtime: 0.002,
        };
        let (mut old_sink, mut new_sink) = (Recorder::new(), Recorder::new());
        let old = oracle::evaluate(
            profile, duration, beacon_interval, more_data, &frames, &overhead, &mut old_sink,
        );
        let new = hide_energy::evaluate(
            profile, duration, beacon_interval, more_data, frames.iter().copied(),
        );
        match (old, new) {
            (Err(old), Err(new)) => {
                // Debug text, so a NaN duration compares equal.
                prop_assert_eq!(format!("{old:?}"), format!("{new:?}"));
            }
            (Ok(old), Ok(new)) => {
                let report = new.report(&overhead, &mut new_sink);
                prop_assert_eq!(report_bits(&old.report), report_bits(&report));
                prop_assert_eq!(radio_bits(&old.radio), radio_bits(&new.radio));
                prop_assert_eq!(machine_bits(&old.machine), machine_bits(&new.machine));
                prop_assert_eq!((old.frames, old.wake_frames), (new.frames, new.wake_frames));
                prop_assert_eq!(old_sink.to_json(), new_sink.to_json());

                // The stepper takes the oracle loop's case on every
                // arrival, and adds the same wakelock seconds.
                let mut lock = WakeLock::new(profile);
                let steps: Vec<_> = frames
                    .iter()
                    .map(|f| {
                        let step = lock.arrive(f.end(), f.hold, profile);
                        case_bits((step.wake, step.held))
                    })
                    .collect();
                let cases: Vec<_> = old.cases.into_iter().map(case_bits).collect();
                prop_assert_eq!(steps, cases);
            }
            (old, new) => {
                let old = old.map(|r| r.report);
                prop_assert!(false, "oracle {old:?} vs one pass {new:?}");
            }
        }
    }

    /// The machine fold on its own, without validation, matches the
    /// oracle's loop on every sequence the oracle accepts.
    #[test]
    fn machine_run_matches_the_oracle_loop(
        frames in frames(),
        profile in 0usize..BUILTIN_PROFILES.len(),
    ) {
        let profile = &BUILTIN_PROFILES[profile];
        let duration = duration_for(&frames, 9, 0.5);
        if let Ok(timeline) = oracle::Timeline::new(duration, 0.1024, frames.clone()) {
            let old = oracle::machine_run(profile, &timeline, &mut Vec::new());
            let new = hide_energy::machine::run(profile, duration, frames);
            prop_assert_eq!(machine_bits(&old), machine_bits(&new));
        }
    }
}

#[test]
fn the_generator_reaches_every_outcome() {
    // The property above is only as strong as its inputs: check that
    // they reach every error reason, every case of the wake rule, and
    // accepted runs in both More Data modes.
    use proptest::TestRng;
    let strategy = frames();
    let mut reasons = std::collections::BTreeSet::new();
    let (mut resumes, mut aborts, mut renewals, mut accepted) = (0, 0, 0, 0);
    for case in 0..400 {
        let mut rng = TestRng::for_case("coverage", case);
        let frames = strategy.generate(&mut rng);
        let duration = duration_for(&frames, (case % 12) as u8, 0.7);
        let beacon_interval = if case % 37 == 0 { 0.0 } else { 0.1024 };
        match hide_energy::evaluate(
            &BUILTIN_PROFILES[0],
            duration,
            beacon_interval,
            MoreData::Recompute,
            frames.iter().copied(),
        ) {
            Err(EnergyError::InvalidFrame { reason, .. }) => {
                reasons.insert(reason);
            }
            Err(e) => {
                reasons.insert(if matches!(e, EnergyError::NonPositiveDuration(_)) {
                    "duration"
                } else {
                    "interval"
                });
            }
            Ok(e) => {
                accepted += 1;
                resumes += e.machine.resume_count;
                aborts += e.machine.aborted_suspends;
                renewals += e.frames as u64 - e.machine.resume_count - e.machine.aborted_suspends;
            }
        }
    }
    assert_eq!(
        reasons.into_iter().collect::<Vec<_>>(),
        [
            "duration",
            "frame starts after trace end",
            "frames not sorted by start time",
            "interval",
            "negative airtime",
            "negative start time",
            "negative wakelock hold",
        ]
    );
    assert!(accepted > 100, "{accepted}");
    assert!(
        resumes > 0 && aborts > 0 && renewals > 0,
        "{resumes} {aborts} {renewals}"
    );
}
