//! WiFi radio energy: beacon reception (Eq. 6) and broadcast data
//! reception with idle listening (Eqs. 7–11).

use crate::profile::DeviceProfile;
use crate::timeline::TimelineFrame;

/// Radio energy components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioResult {
    /// `Eb` — beacon reception energy (Eq. 6), J.
    pub beacon_energy: f64,
    /// `Ef` — broadcast-frame reception energy (Eq. 7), J.
    pub frame_energy: f64,
    /// Total receive airtime `Σ t_t(i)`, seconds.
    pub receive_time: f64,
    /// Total idle-listening time `Σ t_d(i) + Σ t_f(i)`, seconds.
    pub idle_listen_time: f64,
}

/// Eqs. (6)–(11) stepped one frame at a time, for the one-pass
/// evaluator ([`crate::pass`]).
///
/// * `Eb = E^u_b · (number of beacons)` — every client wakes its radio
///   for every beacon regardless of traffic.
/// * For each beacon interval containing received frames, the radio
///   idle-listens from the beacon to the first frame (`t_f`, Eq. 9).
/// * After a frame with the *More Data* bit set, the radio idle-listens
///   until the next frame or the end of the beacon interval
///   (`t_d`, Eq. 10).
///
/// `t_d` needs the next frame's start, and a recomputed More Data bit
/// needs the next frame's interval, so the stepper looks one frame
/// ahead: a frame's `t_d` is added when its successor arrives (before
/// the successor's own `t_f`, so the sum keeps the frame order), and the
/// last frame's at [`Radio::finish`].
#[derive(Debug, Clone)]
pub(crate) struct Radio {
    beacon_interval: f64,
    duration: f64,
    recompute_more_data: bool,
    /// The beacon interval of the last frame, once there is one.
    current_interval: Option<u64>,
    /// When the last frame was fully received, and its own More Data
    /// bit.
    last_end: f64,
    last_more_data: bool,
    receive_time: f64,
    idle: f64,
}

impl Radio {
    /// A radio over beacon intervals of `beacon_interval` seconds in a
    /// run of `duration` seconds. With `recompute_more_data`, each
    /// frame's More Data bit is set exactly when the next frame falls in
    /// the same beacon interval — how an AP marks the buffered broadcast
    /// frames it delivers in one DTIM burst, and so how `d_more(i)`
    /// behaves once HIDE removes useless frames from a client's view.
    pub(crate) fn new(beacon_interval: f64, duration: f64, recompute_more_data: bool) -> Self {
        Radio {
            beacon_interval,
            duration,
            recompute_more_data,
            current_interval: None,
            last_end: 0.0,
            last_more_data: false,
            receive_time: 0.0,
            idle: 0.0,
        }
    }

    /// Index of the beacon interval containing time `t` (the `b_i` of
    /// the model).
    #[inline]
    fn interval_of(&self, t: f64) -> u64 {
        if t <= 0.0 {
            0
        } else {
            (t / self.beacon_interval) as u64
        }
    }

    /// Start time of beacon interval `i` (Eq. 11, `t_b(i)` with
    /// `t_b(1) = 0` shifted to 0-based indexing).
    #[inline]
    fn interval_start(&self, i: u64) -> f64 {
        i as f64 * self.beacon_interval
    }

    /// Takes the next frame in start order.
    #[inline(always)]
    pub(crate) fn push(&mut self, frame: &TimelineFrame) {
        let interval = self.interval_of(frame.start);
        if let Some(last_interval) = self.current_interval {
            let more_data = if self.recompute_more_data {
                last_interval == interval
            } else {
                self.last_more_data
            };
            if more_data {
                self.listen_after_last(last_interval, Some(frame.start));
            }
        }
        self.receive_time += frame.airtime;

        // t_f: idle listening from the beacon to the first frame of each
        // interval that has frames (Eq. 9).
        if self.current_interval != Some(interval) {
            self.current_interval = Some(interval);
            self.idle += (frame.start - self.interval_start(interval)).max(0.0);
        }
        self.last_end = frame.end();
        self.last_more_data = frame.more_data;
    }

    /// t_d: post-frame listening after the last frame, whose More Data
    /// bit is set, until `next` starts or its interval ends (Eq. 10).
    #[inline]
    fn listen_after_last(&mut self, interval: u64, next: Option<f64>) {
        let interval_end = self.interval_start(interval + 1);
        let next_bound = match next {
            Some(next_start) => next_start.min(interval_end),
            None => interval_end.min(self.duration),
        };
        self.idle += (next_bound - self.last_end).max(0.0);
    }

    /// Ends the run and prices its `beacons` beacons and its reception.
    pub(crate) fn finish(mut self, profile: &DeviceProfile, beacons: u64) -> RadioResult {
        // The last frame has no successor: a recomputed bit is clear.
        if let Some(interval) = self.current_interval {
            if !self.recompute_more_data && self.last_more_data {
                self.listen_after_last(interval, None);
            }
        }
        RadioResult {
            beacon_energy: profile.beacon_energy * beacons as f64,
            frame_energy: profile.rx_power * self.receive_time + profile.idle_power * self.idle,
            receive_time: self.receive_time,
            idle_listen_time: self.idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{evaluate, MoreData};
    use crate::profile::NEXUS_ONE;

    const BI: f64 = 0.1024;

    fn frame(start: f64, airtime: f64, more_data: bool) -> TimelineFrame {
        TimelineFrame {
            start,
            airtime,
            more_data,
            hold: 1.0,
        }
    }

    /// The radio's share of a one-pass evaluation, More Data as given.
    fn radio(duration: f64, frames: Vec<TimelineFrame>) -> RadioResult {
        evaluate(&NEXUS_ONE, duration, BI, MoreData::AsGiven, frames)
            .unwrap()
            .radio
    }

    #[test]
    fn interval_mapping() {
        let r = Radio::new(0.1, 1.0, false);
        assert_eq!(r.interval_of(0.0), 0);
        assert_eq!(r.interval_of(0.05), 0);
        assert_eq!(r.interval_of(0.1), 1);
        assert_eq!(r.interval_start(3), 0.30000000000000004);
    }

    #[test]
    fn beacon_energy_scales_with_duration() {
        let rs = radio(10.0, vec![]);
        let rl = radio(100.0, vec![]);
        assert!(rl.beacon_energy > 9.0 * rs.beacon_energy);
        assert_eq!(rs.frame_energy, 0.0);
    }

    #[test]
    fn receive_time_is_sum_of_airtimes() {
        let r = radio(
            10.0,
            vec![frame(1.0, 0.002, false), frame(2.0, 0.003, false)],
        );
        assert!((r.receive_time - 0.005).abs() < 1e-12);
    }

    #[test]
    fn tf_counts_beacon_to_first_frame_per_interval() {
        // Two frames in the same interval: t_f only once, from the
        // interval start to the first frame.
        let start = 10.0 * BI;
        let r = radio(
            10.0,
            vec![
                frame(start + 0.010, 0.0, false),
                frame(start + 0.050, 0.0, false),
            ],
        );
        assert!((r.idle_listen_time - 0.010).abs() < 1e-9);
    }

    #[test]
    fn more_data_listens_until_next_frame() {
        let start = 10.0 * BI;
        let r = radio(
            10.0,
            vec![
                frame(start + 0.010, 0.001, true),
                frame(start + 0.030, 0.001, false),
            ],
        );
        // t_f = 0.010; t_d = 0.030 - 0.011 = 0.019.
        assert!((r.idle_listen_time - 0.029).abs() < 1e-9);
    }

    #[test]
    fn more_data_on_last_frame_listens_to_interval_end() {
        let start = 10.0 * BI;
        let r = radio(10.0, vec![frame(start + 0.010, 0.001, true)]);
        let td = (11.0 * BI) - (start + 0.011);
        assert!((r.idle_listen_time - (0.010 + td)).abs() < 1e-9);
    }

    #[test]
    fn more_data_clipped_at_interval_boundary() {
        // Next frame is in a later interval: listening stops at the
        // interval end, not the next frame.
        let start = 10.0 * BI;
        let second = start + 2.5 * BI; // middle of interval 12
        let r = radio(
            10.0,
            vec![
                frame(start + 0.010, 0.001, true),
                frame(second, 0.001, false),
            ],
        );
        let td = (11.0 * BI) - (start + 0.011);
        let tf_second = 0.5 * BI;
        assert!((r.idle_listen_time - (0.010 + td + tf_second)).abs() < 1e-9);
    }

    #[test]
    fn no_more_data_means_no_post_frame_listening() {
        let start = 10.0 * BI;
        let r = radio(10.0, vec![frame(start, 0.001, false)]);
        assert_eq!(r.idle_listen_time, 0.0);
    }

    #[test]
    fn frame_energy_combines_rx_and_idle_powers() {
        let start = 10.0 * BI;
        let r = radio(10.0, vec![frame(start + 0.01, 0.002, false)]);
        let expected = 0.530 * 0.002 + 0.245 * 0.01;
        assert!((r.frame_energy - expected).abs() < 1e-12);
    }

    #[test]
    fn fewer_received_frames_means_less_energy() {
        let all: Vec<TimelineFrame> = (0..100)
            .map(|i| frame(i as f64 * 0.3, 0.002, false))
            .collect();
        let some: Vec<TimelineFrame> = all.iter().step_by(10).copied().collect();
        let r_all = radio(60.0, all);
        let r_some = radio(60.0, some);
        assert!(r_some.frame_energy < r_all.frame_energy);
        assert_eq!(r_some.beacon_energy, r_all.beacon_energy);
    }

    #[test]
    fn recomputed_more_data_marks_same_interval_runs() {
        // Frames at 0.01 and 0.02 share interval 0, so the first listens
        // from its end to the second; 0.25 and 0.5 are alone in theirs.
        // The bits the frames carry are ignored.
        let frames = vec![
            frame(0.01, 0.001, false),
            frame(0.02, 0.001, true),
            frame(0.25, 0.001, true),
            frame(0.5, 0.001, true),
        ];
        let r = evaluate(&NEXUS_ONE, 1.0, 0.1, MoreData::Recompute, frames)
            .unwrap()
            .radio;
        let tf = 0.01 + (0.25 - 0.2) + (0.5 - 0.5);
        let td = 0.02 - 0.011;
        assert!((r.idle_listen_time - (tf + td)).abs() < 1e-12, "{r:?}");
    }
}
