//! The device-profile registry: every named device the CLIs accept via
//! `--device`, pairing energy constants with a battery.
//!
//! The two Table I phones stay available under their historical
//! constants; the four extensions span the radio-power range from
//! IoT-class (≈ 0.21 W receive) to tablet-class (≈ 0.72 W receive), so
//! cross-device sweeps exercise both ends of the paper's wake-cost
//! asymmetry.

use hide_energy::battery::Battery;
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
}

impl DeviceEntry {
    /// The battery as a [`Battery`] (usable watt-hours).
    #[must_use]
    pub fn battery(&self) -> Battery {
        Battery::from_mah(self.battery_mah, self.battery_volts)
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
        },
        DeviceEntry {
            key: "galaxy-s4",
            profile: GALAXY_S4,
            battery_mah: 2600.0,
            battery_volts: 3.8,
        },
        DeviceEntry {
            key: "pixel-3a",
            profile: PIXEL_3A,
            battery_mah: 3000.0,
            battery_volts: 3.85,
        },
        DeviceEntry {
            key: "note-4",
            profile: NOTE_4,
            battery_mah: 3220.0,
            battery_volts: 3.85,
        },
        DeviceEntry {
            key: "iot-cam",
            profile: IOT_CAM,
            battery_mah: 800.0,
            battery_volts: 3.7,
        },
        DeviceEntry {
            key: "tablet-pro",
            profile: TABLET_PRO,
            battery_mah: 7300.0,
            battery_volts: 3.8,
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
    use hide_energy::attribution::WakePricing;
    use hide_energy::machine;
    use hide_energy::timeline::TimelineFrame;

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
        }
    }

    /// Every builtin device's wake prices and state-machine output on one
    /// timeline with resumes and aborted suspends, pinned to the integer
    /// nanojoule and to the `f64` bit: the prices come straight from the
    /// profile, so any change to the arithmetic that feeds them shows here.
    #[test]
    fn builtin_prices_and_machine_output_are_pinned() {
        // 40 frames about 1 s apart against 1 s wakelocks: most land
        // inside a suspend operation and abort it. Every 4th frame holds
        // no wakelock, so the device suspends fully and the next frame
        // resumes it.
        let frames: Vec<TimelineFrame> = (0..40u32)
            .map(|i| TimelineFrame {
                start: f64::from(i) * 1.013 + f64::from(i % 7) * 0.05,
                airtime: 0.7e-3,
                more_data: i % 5 == 0,
                hold: if i % 4 == 0 { 0.0 } else { 1.0 },
            })
            .collect();
        // (key, [wake_nj, forgone_nj, beacon_nj], f64 bits of
        // [wakelock_energy, state_transfer_energy, wakelock_time,
        // suspend_time], [resume_count, aborted_suspends]).
        type Pin = (&'static str, [u64; 3], [u64; 4], [u64; 2]);
        let pins: [Pin; 6] = [
            (
                "nexus-one",
                [160_920_000, 148_468_000, 1_250_000],
                [
                    0x400d_17ce_d916_872d,
                    0x3fe4_45e0_b4e1_1ddd,
                    0x403d_17ce_d916_872d,
                    0x403c_4b43_9581_0622,
                ],
                [11, 25],
            ),
            (
                "galaxy-s4",
                [274_100_000, 255_965_000, 1_710_000],
                [
                    0x400e_4240_b780_346f,
                    0x4001_95df_6555_c545,
                    0x403d_1851_eb85_1eb9,
                    0x403b_6d4f_df3b_6457,
                ],
                [11, 25],
            ),
            (
                "pixel-3a",
                [128_300_000, 119_436_000, 980_000],
                [
                    0x4008_71e1_08c3_f3e1,
                    0x3fdc_b0e0_81f2_d2c8,
                    0x403d_19db_22d0_e561,
                    0x403c_7a5e_353f_7ce8,
                ],
                [11, 25],
            ),
            (
                "note-4",
                [301_700_000, 280_756_000, 1_880_000],
                [
                    0x4010_ded6_7770_79e6,
                    0x4002_5731_8fc5_0494,
                    0x403d_1645_a1ca_c085,
                    0x403b_4106_24dd_2f16,
                ],
                [11, 25],
            ),
            (
                "iot-cam",
                [23_800_000, 22_624_000, 420_000],
                [
                    0x3ff0_bfdf_7e80_38a0,
                    0x3fca_b9f5_59b3_d07c,
                    0x403d_1439_5810_6250,
                    0x403c_c2d0_e560_418c,
                ],
                [36, 0],
            ),
            (
                "tablet-pro",
                [495_000_000, 456_104_000, 2_350_000],
                [
                    0x4016_19ff_d60e_94f0,
                    0x4007_5991_5c76_dac2,
                    0x403d_14bc_6a7e_f9dd,
                    0x403a_eb02_0c49_ba57,
                ],
                [11, 25],
            ),
        ];
        let all = builtin();
        assert_eq!(all.len(), pins.len());
        for (e, (key, prices, bits, counts)) in all.iter().zip(pins) {
            assert_eq!(e.key, key);
            let p = WakePricing::from_profile(&e.profile);
            assert_eq!([p.wake_nj, p.forgone_nj, p.beacon_nj], prices, "{key}");
            let m = machine::run(&e.profile, 60.0, frames.iter().copied());
            let got = [
                m.wakelock_energy,
                m.state_transfer_energy,
                m.wakelock_time,
                m.suspend_time,
            ]
            .map(f64::to_bits);
            assert_eq!(got, bits, "{key}: {m:?}");
            assert_eq!([m.resume_count, m.aborted_suspends], counts, "{key}");
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
    fn every_battery_is_its_mah_rating_at_its_voltage() {
        let all = builtin();
        for e in &all {
            let wh = e.battery().capacity_wh();
            assert_eq!(wh, e.battery_mah * e.battery_volts / 1000.0, "{}", e.key);
        }
        // The IoT camera carries the smallest pack and the tablet the
        // largest, which is what offsets its expensive wake cycle.
        let wh = |key: &str| lookup(key).unwrap().battery().capacity_wh();
        assert!(all.iter().all(|e| wh("iot-cam") <= wh(e.key)));
        assert!(all.iter().all(|e| wh("tablet-pro") >= wh(e.key)));
    }

    #[test]
    fn lookup_finds_every_entry_by_key_and_display_name() {
        for e in builtin() {
            assert_eq!(lookup(e.key), Some(e), "{}", e.key);
            assert_eq!(lookup(e.profile.name), Some(e), "{}", e.profile.name);
            let dashed = e.profile.name.replace(' ', "-");
            assert_eq!(lookup(&dashed), Some(e), "{dashed}");
            assert_eq!(lookup(&e.key.to_ascii_uppercase()), Some(e), "{}", e.key);
        }
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
