//! PHY-layer model: 802.11b data rates and airtime computation.
//!
//! The HIDE evaluation uses 802.11b parameters (Table II of the paper):
//! long-preamble PHY header of 192 µs, MAC header of 224 bits, and data
//! rates of 1, 2, 5.5 and 11 Mbit/s. Broadcast frames are commonly sent at
//! a basic rate (1 or 2 Mbit/s), and the paper's UDP Port Messages are sent
//! at the lowest rate of 1 Mbit/s.

use std::fmt;

/// Length of the PHY preamble + PLCP header in bits (long preamble).
pub const PHY_HEADER_BITS: u32 = 192;

/// Length of the 802.11 MAC data-frame header in bits (Table II).
pub const MAC_HEADER_BITS: u32 = 224;

/// The PHY preamble and PLCP header are always transmitted at 1 Mbit/s,
/// so their airtime is fixed at 192 µs regardless of the data rate.
pub const PHY_HEADER_US: f64 = 192.0;

/// An 802.11b data rate.
///
/// # Example
///
/// ```
/// use hide_wifi::phy::DataRate;
///
/// let r = DataRate::R11M;
/// assert_eq!(r.bits_per_sec(), 11_000_000.0);
/// assert_eq!(DataRate::from_mbps(5.5), Some(DataRate::R5_5M));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataRate {
    /// 1 Mbit/s (DBPSK), the lowest basic rate.
    R1M,
    /// 2 Mbit/s (DQPSK).
    R2M,
    /// 5.5 Mbit/s (CCK).
    R5_5M,
    /// 11 Mbit/s (CCK), the 802.11b peak rate.
    R11M,
}

impl DataRate {
    /// All 802.11b rates in ascending order.
    pub const ALL: [DataRate; 4] = [
        DataRate::R1M,
        DataRate::R2M,
        DataRate::R5_5M,
        DataRate::R11M,
    ];

    /// Rate in bits per second.
    pub const fn bits_per_sec(self) -> f64 {
        match self {
            DataRate::R1M => 1_000_000.0,
            DataRate::R2M => 2_000_000.0,
            DataRate::R5_5M => 5_500_000.0,
            DataRate::R11M => 11_000_000.0,
        }
    }

    /// Rate in Mbit/s.
    pub const fn mbps(self) -> f64 {
        match self {
            DataRate::R1M => 1.0,
            DataRate::R2M => 2.0,
            DataRate::R5_5M => 5.5,
            DataRate::R11M => 11.0,
        }
    }

    /// Looks a rate up by its Mbit/s value.
    pub fn from_mbps(mbps: f64) -> Option<Self> {
        DataRate::ALL.into_iter().find(|r| r.mbps() == mbps)
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Mbit/s", self.mbps())
    }
}

/// Airtime model for a single frame transmission.
///
/// Computes the on-air duration of a frame: the PHY preamble/header at
/// 1 Mbit/s plus the MAC header and body at the frame's data rate.
///
/// # Example
///
/// ```
/// use hide_wifi::phy::{airtime_secs, DataRate};
///
/// // A 1000-byte body at 1 Mbit/s: 192 us preamble + (224 + 8000) bits / 1 Mbps.
/// let t = airtime_secs(1000, DataRate::R1M);
/// assert!((t - (192e-6 + 8224e-6)).abs() < 1e-12);
/// ```
pub fn airtime_secs(body_bytes: usize, rate: DataRate) -> f64 {
    let payload_bits = (MAC_HEADER_BITS as f64) + (body_bytes as f64) * 8.0;
    PHY_HEADER_US * 1e-6 + payload_bits / rate.bits_per_sec()
}

/// Airtime of a frame when the caller already accounts for the MAC header
/// in `total_bytes` (used by the energy model, which works with whole
/// frame lengths from the traces).
pub fn airtime_of_total_bytes(total_bytes: usize, rate: DataRate) -> f64 {
    PHY_HEADER_US * 1e-6 + (total_bytes as f64) * 8.0 / rate.bits_per_sec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_ascending() {
        let mut prev = 0.0;
        for r in DataRate::ALL {
            assert!(r.bits_per_sec() > prev);
            prev = r.bits_per_sec();
        }
    }

    #[test]
    fn from_mbps_round_trip() {
        for r in DataRate::ALL {
            assert_eq!(DataRate::from_mbps(r.mbps()), Some(r));
        }
        assert_eq!(DataRate::from_mbps(54.0), None);
    }

    #[test]
    fn airtime_monotone_in_size() {
        let small = airtime_secs(100, DataRate::R11M);
        let large = airtime_secs(1000, DataRate::R11M);
        assert!(large > small);
    }

    #[test]
    fn airtime_monotone_in_rate() {
        let slow = airtime_secs(500, DataRate::R1M);
        let fast = airtime_secs(500, DataRate::R11M);
        assert!(fast < slow);
    }

    #[test]
    fn airtime_includes_fixed_preamble() {
        // Even a zero-byte body pays the preamble plus MAC header.
        let t = airtime_secs(0, DataRate::R11M);
        assert!(t > PHY_HEADER_US * 1e-6);
    }

    #[test]
    fn total_bytes_airtime_excludes_mac_header_addition() {
        // airtime_of_total_bytes treats the byte count as the full frame.
        let a = airtime_of_total_bytes(28, DataRate::R1M);
        let b = airtime_secs(0, DataRate::R1M);
        assert!((a - b).abs() < 1e-12, "28 bytes == MAC header of 224 bits");
    }

    #[test]
    fn display_rates() {
        assert_eq!(DataRate::R5_5M.to_string(), "5.5 Mbit/s");
        assert_eq!(DataRate::R11M.to_string(), "11 Mbit/s");
    }
}
