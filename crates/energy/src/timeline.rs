//! Model inputs: the reception timeline and protocol overhead.

use crate::profile::DeviceProfile;
use std::fmt;

/// Errors produced when constructing model inputs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EnergyError {
    /// The trace duration was not positive.
    NonPositiveDuration(f64),
    /// The beacon interval was not positive.
    NonPositiveBeaconInterval(f64),
    /// Frames were not sorted by start time, or had negative fields.
    InvalidFrame {
        /// Index of the offending frame.
        index: usize,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for EnergyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnergyError::NonPositiveDuration(d) => {
                write!(f, "timeline duration {d} must be positive")
            }
            EnergyError::NonPositiveBeaconInterval(b) => {
                write!(f, "beacon interval {b} must be positive")
            }
            EnergyError::InvalidFrame { index, reason } => {
                write!(f, "frame {index} invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for EnergyError {}

/// One broadcast frame as the client's radio receives it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineFrame {
    /// Time the frame's transmission starts, seconds from trace start
    /// (the `t_i` of the model).
    pub start: f64,
    /// On-air duration `l_i / r_i` in seconds.
    pub airtime: f64,
    /// The MAC *More Data* bit: when set, the radio idle-listens after
    /// this frame until the next frame or the end of the beacon interval
    /// (Eq. 10).
    pub more_data: bool,
    /// Wakelock duration this frame's processing holds, in seconds.
    /// `τ` for frames the client processes (Eq. 4); `0` for the
    /// "client-side" baseline's drop-immediately handling of useless
    /// frames.
    pub hold: f64,
}

impl TimelineFrame {
    /// Time the frame has been fully received (`t_i + l_i/r_i`).
    pub fn end(&self) -> f64 {
        self.start + self.airtime
    }
}

/// The sequence of frames a client's radio receives, with the beacon
/// schedule they are embedded in.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    duration: f64,
    beacon_interval: f64,
    frames: Vec<TimelineFrame>,
}

impl Timeline {
    /// Creates a validated timeline.
    ///
    /// # Errors
    ///
    /// Returns an [`EnergyError`] when the duration or beacon interval
    /// is non-positive, frames are unsorted, or any frame has a negative
    /// start/airtime/hold or starts beyond the duration.
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
            if !f.start.is_finite() || f.start < 0.0 {
                return Err(EnergyError::InvalidFrame {
                    index,
                    reason: "negative start time",
                });
            }
            if f.start < prev {
                return Err(EnergyError::InvalidFrame {
                    index,
                    reason: "frames not sorted by start time",
                });
            }
            if !f.airtime.is_finite() || f.airtime < 0.0 {
                return Err(EnergyError::InvalidFrame {
                    index,
                    reason: "negative airtime",
                });
            }
            if !f.hold.is_finite() || f.hold < 0.0 {
                return Err(EnergyError::InvalidFrame {
                    index,
                    reason: "negative wakelock hold",
                });
            }
            if f.start > duration {
                return Err(EnergyError::InvalidFrame {
                    index,
                    reason: "frame starts after trace end",
                });
            }
            prev = f.start;
        }
        Ok(Timeline {
            duration,
            beacon_interval,
            frames,
        })
    }

    /// Total trace duration in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Beacon interval `T_b` in seconds.
    pub fn beacon_interval(&self) -> f64 {
        self.beacon_interval
    }

    /// The received frames, sorted by start time.
    pub fn frames(&self) -> &[TimelineFrame] {
        &self.frames
    }

    /// Number of beacons transmitted during the trace (the `b_1..b_n`
    /// range of Eq. 6 extended to the full duration).
    pub fn beacon_count(&self) -> u64 {
        (self.duration / self.beacon_interval).ceil() as u64
    }

    /// Index of the beacon interval containing time `t` (the `b_i` of
    /// the model).
    pub fn interval_of(&self, t: f64) -> u64 {
        if t <= 0.0 {
            0
        } else {
            (t / self.beacon_interval) as u64
        }
    }

    /// Start time of beacon interval `i` (Eq. 11, `t_b(i)` with
    /// `t_b(1) = 0` shifted to 0-based indexing).
    pub fn interval_start(&self, i: u64) -> f64 {
        i as f64 * self.beacon_interval
    }

    /// Recomputes every frame's *More Data* bit for a filtered sequence:
    /// set exactly when the next frame falls within the same beacon
    /// interval. This mirrors how an AP marks buffered broadcast frames
    /// during a DTIM delivery and is how `d_more(i)` behaves after HIDE
    /// removes useless frames from the client's perspective.
    pub fn recompute_more_data(&mut self) {
        // Back to front, so each frame's interval is computed once and
        // compared with its successor's.
        let mut successor = None;
        for i in (0..self.frames.len()).rev() {
            let interval = self.interval_of(self.frames[i].start);
            self.frames[i].more_data = successor == Some(interval);
            successor = Some(interval);
        }
    }
}

/// HIDE protocol overhead inputs for the `Eo` term (Eqs. 15–19).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// Total BTIM element bytes received across all beacons
    /// (`Σ L^b_i` of Eq. 16).
    pub btim_bytes_total: f64,
    /// Number of UDP Port Messages the client transmitted (`M`, Eq. 18).
    pub port_messages: u64,
    /// On-air duration of one UDP Port Message in seconds
    /// (`L^m_i / r^m_i` of Eq. 17, PHY preamble included).
    pub port_message_airtime: f64,
}

impl Overhead {
    /// No overhead — the legacy solutions (receive-all, client-side).
    pub const NONE: Overhead = Overhead {
        btim_bytes_total: 0.0,
        port_messages: 0,
        port_message_airtime: 0.0,
    };

    /// Evaluates `Eo = E¹o + E²o`: beacon-byte overhead plus port-message
    /// transmissions.
    pub fn energy(&self, profile: &DeviceProfile) -> f64 {
        let e1 = profile.beacon_energy_per_byte() * self.btim_bytes_total;
        let e2 = self.port_messages as f64 * profile.tx_power * self.port_message_airtime;
        e1 + e2
    }
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

    #[test]
    fn valid_timeline_accepted() {
        let t = Timeline::new(10.0, 0.1024, vec![frame(1.0), frame(2.0)]).unwrap();
        assert_eq!(t.frames().len(), 2);
        assert_eq!(t.beacon_count(), 98);
    }

    #[test]
    fn rejects_bad_duration_and_interval() {
        assert!(matches!(
            Timeline::new(0.0, 0.1, vec![]),
            Err(EnergyError::NonPositiveDuration(_))
        ));
        assert!(matches!(
            Timeline::new(10.0, 0.0, vec![]),
            Err(EnergyError::NonPositiveBeaconInterval(_))
        ));
        assert!(Timeline::new(f64::NAN, 0.1, vec![]).is_err());
    }

    #[test]
    fn rejects_unsorted_frames() {
        let err = Timeline::new(10.0, 0.1, vec![frame(2.0), frame(1.0)]).unwrap_err();
        assert!(matches!(err, EnergyError::InvalidFrame { index: 1, .. }));
    }

    #[test]
    fn rejects_negative_fields() {
        let mut f = frame(1.0);
        f.airtime = -0.1;
        assert!(Timeline::new(10.0, 0.1, vec![f]).is_err());
        let mut f = frame(1.0);
        f.hold = -1.0;
        assert!(Timeline::new(10.0, 0.1, vec![f]).is_err());
        assert!(Timeline::new(10.0, 0.1, vec![frame(-0.5)]).is_err());
        assert!(Timeline::new(10.0, 0.1, vec![frame(11.0)]).is_err());
    }

    #[test]
    fn interval_mapping() {
        let t = Timeline::new(1.0, 0.1, vec![]).unwrap();
        assert_eq!(t.interval_of(0.0), 0);
        assert_eq!(t.interval_of(0.05), 0);
        assert_eq!(t.interval_of(0.1), 1);
        assert_eq!(t.interval_start(3), 0.30000000000000004);
    }

    #[test]
    fn recompute_more_data_marks_same_interval_runs() {
        let mut t = Timeline::new(
            1.0,
            0.1,
            vec![frame(0.01), frame(0.02), frame(0.25), frame(0.5)],
        )
        .unwrap();
        t.recompute_more_data();
        let more: Vec<bool> = t.frames().iter().map(|f| f.more_data).collect();
        assert_eq!(more, vec![true, false, false, false]);
    }

    #[test]
    fn overhead_none_is_zero() {
        assert_eq!(Overhead::NONE.energy(&NEXUS_ONE), 0.0);
    }

    #[test]
    fn overhead_energy_components() {
        let o = Overhead {
            btim_bytes_total: 1000.0,
            port_messages: 10,
            port_message_airtime: 0.002,
        };
        let e = o.energy(&NEXUS_ONE);
        let expected = 12.5e-6 * 1000.0 + 10.0 * 1.2 * 0.002;
        assert!((e - expected).abs() < 1e-12);
    }

    #[test]
    fn frame_end_is_start_plus_airtime() {
        let f = frame(1.5);
        assert!((f.end() - 1.501).abs() < 1e-12);
    }
}
