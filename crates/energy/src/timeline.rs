//! Model inputs: the frames of a reception timeline, the errors that
//! reject them, and protocol overhead.
//!
//! A run's timeline is never stored: [`crate::evaluate`] takes its
//! frames from an iterator and checks each as it folds it in.

use crate::profile::DeviceProfile;
use std::fmt;

/// Errors that reject a run's model inputs.
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
        let f = TimelineFrame {
            start: 1.5,
            airtime: 0.001,
            more_data: false,
            hold: 1.0,
        };
        assert!((f.end() - 1.501).abs() < 1e-12);
    }
}
