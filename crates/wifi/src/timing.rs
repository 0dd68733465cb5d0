//! Beacon and DTIM scheduling.
//!
//! 802.11 time is measured in *time units* (TU) of 1024 µs. An AP emits a
//! beacon every `beacon_interval` TUs; every `dtim_period`-th beacon is a
//! DTIM beacon, after which buffered broadcast/multicast frames are
//! delivered. The paper notes typical DTIM periods of 1–3 beacon intervals.

/// One 802.11 time unit in seconds (1024 µs).
pub const TIME_UNIT_SECS: f64 = 1024e-6;

/// The common default beacon interval of 100 TU (~102.4 ms).
pub const DEFAULT_BEACON_INTERVAL_TU: u16 = 100;

/// Schedule of beacon and DTIM events.
///
/// # Example
///
/// ```
/// use hide_wifi::timing::BeaconSchedule;
///
/// let sched = BeaconSchedule::new(100, 3);
/// assert!((sched.beacon_interval_secs() - 0.1024).abs() < 1e-12);
/// // Beacons 0, 3, 6, ... are DTIM beacons.
/// assert!(sched.is_dtim(0));
/// assert!(!sched.is_dtim(1));
/// assert!(sched.is_dtim(3));
/// assert_eq!(sched.dtim_count(4), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BeaconSchedule {
    beacon_interval_tu: u16,
    dtim_period: u8,
}

impl BeaconSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `beacon_interval_tu` or `dtim_period` is zero — both are
    /// configuration constants, never runtime data.
    pub fn new(beacon_interval_tu: u16, dtim_period: u8) -> Self {
        assert!(beacon_interval_tu > 0, "beacon interval must be positive");
        assert!(dtim_period > 0, "DTIM period must be positive");
        BeaconSchedule {
            beacon_interval_tu,
            dtim_period,
        }
    }

    /// Returns the beacon interval in TUs.
    pub const fn beacon_interval_tu(&self) -> u16 {
        self.beacon_interval_tu
    }

    /// Returns the DTIM period in beacon intervals.
    pub const fn dtim_period(&self) -> u8 {
        self.dtim_period
    }

    /// Beacon interval in seconds.
    pub fn beacon_interval_secs(&self) -> f64 {
        self.beacon_interval_tu as f64 * TIME_UNIT_SECS
    }

    /// Index of the beacon interval containing time `t` (clamped at 0).
    pub fn interval_of(&self, t: f64) -> u64 {
        if t <= 0.0 {
            return 0;
        }
        (t / self.beacon_interval_secs()) as u64
    }

    /// Whether the `index`-th beacon is a DTIM beacon.
    pub fn is_dtim(&self, index: u64) -> bool {
        index.is_multiple_of(self.dtim_period as u64)
    }

    /// The DTIM count field for the `index`-th beacon: how many more
    /// beacons until the next DTIM (zero at a DTIM).
    pub fn dtim_count(&self, index: u64) -> u8 {
        let p = self.dtim_period as u64;
        let rem = index % p;
        if rem == 0 {
            0
        } else {
            (p - rem) as u8
        }
    }
}

impl Default for BeaconSchedule {
    /// 100 TU beacon interval with DTIM period 1, the configuration the
    /// HIDE evaluation assumes (every beacon can carry broadcast
    /// indications).
    fn default() -> Self {
        BeaconSchedule::new(DEFAULT_BEACON_INTERVAL_TU, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule() {
        let s = BeaconSchedule::default();
        assert_eq!(s.beacon_interval_tu(), 100);
        assert_eq!(s.dtim_period(), 1);
        assert!(s.is_dtim(0));
        assert!(s.is_dtim(17));
    }

    #[test]
    #[should_panic(expected = "beacon interval")]
    fn zero_interval_panics() {
        let _ = BeaconSchedule::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "DTIM period")]
    fn zero_dtim_period_panics() {
        let _ = BeaconSchedule::new(100, 0);
    }

    #[test]
    fn dtim_count_cycles() {
        let s = BeaconSchedule::new(100, 3);
        let counts: Vec<u8> = (0..7).map(|i| s.dtim_count(i)).collect();
        assert_eq!(counts, vec![0, 2, 1, 0, 2, 1, 0]);
    }

    #[test]
    fn beacon_interval_is_counted_in_time_units() {
        assert!((BeaconSchedule::default().beacon_interval_secs() - 0.1024).abs() < 1e-15);
        let s = BeaconSchedule::new(200, 3);
        assert!((s.beacon_interval_secs() - 0.2048).abs() < 1e-15);
        assert_eq!(s.beacon_interval_tu(), 200);
        assert_eq!(s.dtim_period(), 3);
    }

    #[test]
    fn is_dtim_exactly_when_dtim_count_is_zero() {
        for period in 1..=5u8 {
            let s = BeaconSchedule::new(100, period);
            for i in 0..4 * u64::from(period) {
                assert_eq!(
                    s.is_dtim(i),
                    s.dtim_count(i) == 0,
                    "period {period}, beacon {i}"
                );
                assert_eq!(s.is_dtim(i), i % u64::from(period) == 0);
            }
        }
    }

    #[test]
    fn interval_of_boundaries() {
        let s = BeaconSchedule::default();
        let bi = s.beacon_interval_secs();
        assert_eq!(s.interval_of(0.0), 0);
        assert_eq!(s.interval_of(bi * 0.5), 0);
        assert_eq!(s.interval_of(bi), 1);
        assert_eq!(s.interval_of(-1.0), 0);
    }
}
