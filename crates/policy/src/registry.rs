//! The device-profile registry: every named device the CLIs accept via
//! `--device`, pairing energy constants with a battery and the
//! PowerTutor promotion knobs.
//!
//! The two Table I phones stay available under their historical
//! constants; the four extensions span the radio-power range from
//! IoT-class (≈ 0.21 W receive) to tablet-class (≈ 0.72 W receive), so
//! cross-device sweeps exercise both ends of the paper's wake-cost
//! asymmetry.

use hide_energy::battery::Battery;
use hide_energy::fsm::TransitionTable;
use hide_energy::profile::{
    DeviceProfile, GALAXY_S4, IOT_CAM, NEXUS_ONE, NOTE_4, PIXEL_3A, TABLET_PRO,
};

/// One registry row: a device profile plus everything the policy layer
/// adds on top of the raw energy constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceEntry {
    /// Stable kebab-case registry key (`--device` spelling).
    pub key: &'static str,
    /// The Section-IV energy constants.
    pub profile: DeviceProfile,
    /// Battery rating, milliamp-hours.
    pub battery_mah: f64,
    /// Battery nominal voltage, volts.
    pub battery_volts: f64,
    /// PowerTutor WiFi packet-rate promotion threshold, packets/second.
    pub promotion_pkts_per_sec: f64,
    /// PowerTutor WiFi high→low inactivity timer, seconds.
    pub inactivity_timer_secs: f64,
}

impl DeviceEntry {
    /// The battery as a [`Battery`] (usable watt-hours).
    #[must_use]
    pub fn battery(&self) -> Battery {
        Battery::from_mah(self.battery_mah, self.battery_volts)
    }

    /// The device's multi-radio transition table with its registry
    /// promotion knobs applied.
    #[must_use]
    pub fn transition_table(&self) -> TransitionTable {
        TransitionTable::with_wifi_lpm(
            &self.profile,
            self.promotion_pkts_per_sec,
            self.inactivity_timer_secs,
        )
    }
}

/// Every built-in device, in registry order (Table I first).
#[must_use]
pub fn builtin() -> Vec<DeviceEntry> {
    vec![
        DeviceEntry {
            key: "nexus-one",
            profile: NEXUS_ONE,
            battery_mah: 1400.0,
            battery_volts: 3.7,
            promotion_pkts_per_sec: 15.0,
            inactivity_timer_secs: 1.0,
        },
        DeviceEntry {
            key: "galaxy-s4",
            profile: GALAXY_S4,
            battery_mah: 2600.0,
            battery_volts: 3.8,
            promotion_pkts_per_sec: 15.0,
            inactivity_timer_secs: 1.2,
        },
        DeviceEntry {
            key: "pixel-3a",
            profile: PIXEL_3A,
            battery_mah: 3000.0,
            battery_volts: 3.85,
            promotion_pkts_per_sec: 20.0,
            inactivity_timer_secs: 0.8,
        },
        DeviceEntry {
            key: "note-4",
            profile: NOTE_4,
            battery_mah: 3220.0,
            battery_volts: 3.85,
            promotion_pkts_per_sec: 15.0,
            inactivity_timer_secs: 1.5,
        },
        DeviceEntry {
            key: "iot-cam",
            profile: IOT_CAM,
            battery_mah: 800.0,
            battery_volts: 3.7,
            promotion_pkts_per_sec: 5.0,
            inactivity_timer_secs: 0.3,
        },
        DeviceEntry {
            key: "tablet-pro",
            profile: TABLET_PRO,
            battery_mah: 7300.0,
            battery_volts: 3.8,
            promotion_pkts_per_sec: 25.0,
            inactivity_timer_secs: 2.0,
        },
    ]
}

/// Case-insensitive lookup by registry key or profile display name.
#[must_use]
pub fn lookup(name: &str) -> Option<DeviceEntry> {
    builtin().into_iter().find(|e| {
        e.key.eq_ignore_ascii_case(name)
            || e.profile.name.eq_ignore_ascii_case(name)
            || e.profile.name.replace(' ', "-").eq_ignore_ascii_case(name)
    })
}

/// All registry keys, in registry order (for CLI help text).
#[must_use]
pub fn registry_keys() -> Vec<&'static str> {
    builtin().into_iter().map(|e| e.key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_table_i_plus_four() {
        let all = builtin();
        assert!(all.len() >= 6);
        assert_eq!(all[0].key, "nexus-one");
        assert_eq!(all[0].profile, NEXUS_ONE);
        assert_eq!(all[1].profile, GALAXY_S4);
        for e in &all {
            assert!(e.profile.is_consistent(), "{}", e.key);
            assert!(e.battery_mah > 0.0 && e.battery_volts > 0.0);
            assert!(e.transition_table().is_priced_sane(), "{}", e.key);
        }
    }

    #[test]
    fn table_i_batteries_match_energy_constants() {
        // The registry's mAh ratings reproduce the battery module's
        // watt-hour constants for the paper's two phones.
        let n1 = lookup("nexus-one").unwrap();
        assert!((n1.battery().capacity_wh() - Battery::NEXUS_ONE.capacity_wh()).abs() < 1e-9);
        let s4 = lookup("galaxy-s4").unwrap();
        assert!((s4.battery().capacity_wh() - Battery::GALAXY_S4.capacity_wh()).abs() < 1e-9);
    }

    #[test]
    fn lookup_is_forgiving() {
        assert!(lookup("nexus-one").is_some());
        assert!(lookup("Nexus One").is_some());
        assert!(lookup("NEXUS-ONE").is_some());
        assert!(lookup("tablet-pro").is_some());
        assert!(lookup("walkie-talkie").is_none());
    }

    #[test]
    fn keys_are_unique_kebab_case() {
        let mut keys = registry_keys();
        assert!(keys.iter().all(|k| k
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')));
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), builtin().len());
    }
}
