//! Battery-life projections.
//!
//! The paper motivates HIDE with battery drain; this module turns the
//! model's average-power outputs into standby-time estimates so the
//! examples and reports can answer the question users actually ask:
//! *how much longer does my phone last?*

/// A battery, described by its usable energy.
///
/// # Example
///
/// ```
/// use hide_energy::battery::Battery;
///
/// let battery = Battery::from_mah(2600.0, 3.8);
/// // A phone idling at 100 mW lasts ~99 hours on a 9.88 Wh pack.
/// let hours = battery.standby_hours(0.100);
/// assert!((hours - 98.8).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_wh: f64,
}

impl Battery {
    /// The Nexus One's 1400 mAh battery at 3.7 V nominal.
    pub const NEXUS_ONE: Battery = Battery { capacity_wh: 5.18 };

    /// The Galaxy S4's 2600 mAh battery at 3.8 V nominal.
    pub const GALAXY_S4: Battery = Battery { capacity_wh: 9.88 };

    /// Creates a battery from a milliamp-hour rating and nominal
    /// voltage.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive.
    pub fn from_mah(mah: f64, volts: f64) -> Self {
        assert!(mah > 0.0 && volts > 0.0, "rating must be positive");
        Battery {
            capacity_wh: mah * volts / 1000.0,
        }
    }

    /// Usable energy in watt-hours.
    pub fn capacity_wh(&self) -> f64 {
        self.capacity_wh
    }

    /// Hours of standby at a constant draw of `watts`.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is not positive.
    pub fn standby_hours(&self, watts: f64) -> f64 {
        assert!(watts > 0.0, "draw must be positive");
        self.capacity_wh / watts
    }

    /// Days of standby at a constant draw of `watts`.
    pub fn standby_days(&self, watts: f64) -> f64 {
        self.standby_hours(watts) / 24.0
    }

    /// The battery-life multiplier of drawing `improved` watts instead
    /// of `baseline` watts (> 1 means longer life).
    ///
    /// # Panics
    ///
    /// Panics if either draw is not positive.
    pub fn life_extension(&self, baseline_watts: f64, improved_watts: f64) -> f64 {
        self.standby_hours(improved_watts) / self.standby_hours(baseline_watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let b = Battery::from_mah(1000.0, 3.7);
        assert!((b.capacity_wh() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn standby_math() {
        let b = Battery::from_mah(1000.0, 10.0);
        assert!((b.standby_hours(1.0) - 10.0).abs() < 1e-12);
        assert!((b.standby_days(1.0) - 10.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn extension_is_power_ratio() {
        let b = Battery::GALAXY_S4;
        assert!((b.life_extension(0.2, 0.1) - 2.0).abs() < 1e-12);
        assert!((b.life_extension(0.1, 0.1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn device_batteries_ordered() {
        assert!(Battery::GALAXY_S4.capacity_wh() > Battery::NEXUS_ONE.capacity_wh());
    }

    #[test]
    #[should_panic(expected = "rating")]
    fn zero_capacity_panics() {
        let _ = Battery::from_mah(0.0, 3.7);
    }

    #[test]
    #[should_panic(expected = "draw")]
    fn zero_draw_panics() {
        let _ = Battery::NEXUS_ONE.standby_hours(0.0);
    }
}
