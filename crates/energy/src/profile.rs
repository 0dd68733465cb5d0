//! Device power profiles (Table I of the HIDE paper, plus registry
//! extensions).
//!
//! The authors measured two phones with a Monsoon power monitor; since we
//! have no hardware, the constants of Table I are reproduced verbatim.
//! Energies are in joules, powers in watts, durations in seconds. The
//! four additional profiles span the low-power (IoT-class) to
//! high-power (tablet-class) radio range so cross-device experiments
//! have something to sweep; they are plausible extrapolations in the
//! same measurement convention, not published measurements.

/// Power/energy constants of one smartphone model (one row of Table I).
///
/// All fields use SI base units: energies in joules (J), powers in
/// watts (W), durations in seconds (s). The attribution ledger
/// ([`crate::attribution`]) derives pre-rounded integer nanojoule (nJ)
/// prices from these floats.
///
/// # Example
///
/// ```
/// use hide_energy::profile::{DeviceProfile, NEXUS_ONE};
///
/// assert_eq!(NEXUS_ONE.wakelock_secs, 1.0);
/// let wake_cost = NEXUS_ONE.resume_energy + NEXUS_ONE.suspend_energy;
/// assert!((wake_cost - 35.92e-3).abs() < 1e-9);
///
/// // Derive a variant with a longer wakelock without naming every field.
/// let patient = DeviceProfile { wakelock_secs: 2.0, ..NEXUS_ONE };
/// assert_eq!(patient.wakelock_secs, 2.0);
/// assert_eq!(patient.rx_power, NEXUS_ONE.rx_power);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: &'static str,
    /// WiFi-driver wakelock duration `τ` acquired per received broadcast
    /// frame, in seconds (1 s on both measured phones, following the
    /// paper's reference \[6\]).
    pub wakelock_secs: f64,
    /// Duration of a system resume operation `T_rm`, in seconds.
    pub resume_secs: f64,
    /// Duration of a system suspend operation `T_sp`, in seconds.
    pub suspend_secs: f64,
    /// Energy of one complete resume operation `E_rm`, in joules (J).
    pub resume_energy: f64,
    /// Energy of one complete suspend operation `E_sp`, in joules (J).
    pub suspend_energy: f64,
    /// Energy to receive one beacon frame `E^u_b`, in joules (J).
    /// Table I lists this per beacon at the nominal beacon length
    /// [`DeviceProfile::NOMINAL_BEACON_BYTES`]; per-byte costs (used for
    /// the BTIM overhead of Eq. 16) are derived from it.
    pub beacon_energy: f64,
    /// WiFi radio receive power `P_r`, in watts (W).
    pub rx_power: f64,
    /// WiFi radio transmit power `P_t`, in watts (W).
    pub tx_power: f64,
    /// WiFi radio idle-listening power `P_idle`, in watts (W).
    pub idle_power: f64,
    /// Whole-system suspend-mode power `P_ss`, in watts (W).
    pub suspend_power: f64,
    /// Whole-system active-idle power `P_sa`, in watts (W) — what a
    /// wakelock burns.
    pub active_idle_power: f64,
}

impl DeviceProfile {
    /// Nominal beacon length used to convert the per-beacon energy
    /// `E^u_b` into a per-byte cost for the BTIM overhead term, in
    /// bytes.
    pub const NOMINAL_BEACON_BYTES: f64 = 100.0;

    /// Energy to receive one extra byte inside a beacon (J/byte),
    /// derived from [`DeviceProfile::beacon_energy`].
    pub fn beacon_energy_per_byte(&self) -> f64 {
        self.beacon_energy / Self::NOMINAL_BEACON_BYTES
    }

    /// Energy of one full suspend-to-active round trip
    /// (`E_rm + E_sp`), in joules — the per-wake cost charged by
    /// Eq. (13).
    pub fn wake_cycle_energy(&self) -> f64 {
        self.resume_energy + self.suspend_energy
    }

    /// Validates that every constant is physically sensible (positive
    /// durations and powers, suspend power below active power).
    pub fn is_consistent(&self) -> bool {
        self.wakelock_secs > 0.0
            && self.resume_secs > 0.0
            && self.suspend_secs > 0.0
            && self.resume_energy > 0.0
            && self.suspend_energy > 0.0
            && self.beacon_energy > 0.0
            && self.rx_power > 0.0
            && self.tx_power > 0.0
            && self.idle_power > 0.0
            && self.suspend_power > 0.0
            && self.active_idle_power > 0.0
            && self.suspend_power < self.active_idle_power
            && self.idle_power < self.rx_power
    }
}

/// Table I row for the HTC/Google Nexus One.
pub const NEXUS_ONE: DeviceProfile = DeviceProfile {
    name: "Nexus One",
    wakelock_secs: 1.0,
    resume_secs: 0.046,
    suspend_secs: 0.086,
    resume_energy: 18.26e-3,
    suspend_energy: 17.66e-3,
    beacon_energy: 1.25e-3,
    rx_power: 0.530,
    tx_power: 1.200,
    idle_power: 0.245,
    suspend_power: 0.011,
    active_idle_power: 0.125,
};

/// Table I row for the Samsung Galaxy S4.
pub const GALAXY_S4: DeviceProfile = DeviceProfile {
    name: "Galaxy S4",
    wakelock_secs: 1.0,
    resume_secs: 0.044,
    suspend_secs: 0.165,
    resume_energy: 58.3e-3,
    suspend_energy: 85.8e-3,
    beacon_energy: 1.71e-3,
    rx_power: 0.538,
    tx_power: 1.500,
    idle_power: 0.275,
    suspend_power: 0.015,
    active_idle_power: 0.130,
};

/// Registry extension: a mid-tier 2019 phone with an efficient radio
/// and cheap state transfers (wake cycle ≈ 23.3 mJ, well under the
/// Nexus One's 35.9 mJ).
pub const PIXEL_3A: DeviceProfile = DeviceProfile {
    name: "Pixel 3a",
    wakelock_secs: 1.0,
    resume_secs: 0.038,
    suspend_secs: 0.070,
    resume_energy: 12.4e-3,
    suspend_energy: 10.9e-3,
    beacon_energy: 0.98e-3,
    rx_power: 0.420,
    tx_power: 0.980,
    idle_power: 0.195,
    suspend_power: 0.008,
    active_idle_power: 0.105,
};

/// Registry extension: a large phablet with a high-power radio and
/// expensive state transfers (wake cycle ≈ 156.7 mJ, above the S4).
pub const NOTE_4: DeviceProfile = DeviceProfile {
    name: "Note 4",
    wakelock_secs: 1.0,
    resume_secs: 0.052,
    suspend_secs: 0.180,
    resume_energy: 64.2e-3,
    suspend_energy: 92.5e-3,
    beacon_energy: 1.88e-3,
    rx_power: 0.610,
    tx_power: 1.650,
    idle_power: 0.300,
    suspend_power: 0.017,
    active_idle_power: 0.145,
};

/// Registry extension: an IoT-class WiFi camera — a low-power radio,
/// a short wakelock, and near-zero suspend draw. The cheapest wake in
/// the registry (≈ 5.8 mJ).
pub const IOT_CAM: DeviceProfile = DeviceProfile {
    name: "IoT Cam",
    wakelock_secs: 0.5,
    resume_secs: 0.020,
    suspend_secs: 0.040,
    resume_energy: 3.1e-3,
    suspend_energy: 2.7e-3,
    beacon_energy: 0.42e-3,
    rx_power: 0.210,
    tx_power: 0.540,
    idle_power: 0.092,
    suspend_power: 0.0021,
    active_idle_power: 0.036,
};

/// Registry extension: a tablet — the highest-power radio and the most
/// expensive state transfers in the registry (wake cycle ≈ 210 mJ),
/// offset by a much larger battery.
pub const TABLET_PRO: DeviceProfile = DeviceProfile {
    name: "Tablet Pro",
    wakelock_secs: 1.5,
    resume_secs: 0.058,
    suspend_secs: 0.210,
    resume_energy: 88.6e-3,
    suspend_energy: 121.4e-3,
    beacon_energy: 2.35e-3,
    rx_power: 0.720,
    tx_power: 1.900,
    idle_power: 0.340,
    suspend_power: 0.022,
    active_idle_power: 0.190,
};

/// Both Table I profiles, in paper order.
pub const ALL_PROFILES: [DeviceProfile; 2] = [NEXUS_ONE, GALAXY_S4];

/// Every built-in profile: Table I plus the registry extensions, in
/// registry order (see `hide_policy::registry`).
pub const BUILTIN_PROFILES: [DeviceProfile; 6] =
    [NEXUS_ONE, GALAXY_S4, PIXEL_3A, NOTE_4, IOT_CAM, TABLET_PRO];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_profiles_are_consistent() {
        for p in ALL_PROFILES {
            assert!(p.is_consistent(), "{} profile inconsistent", p.name);
        }
    }

    #[test]
    fn builtin_profiles_are_consistent_and_distinct() {
        for p in BUILTIN_PROFILES {
            assert!(p.is_consistent(), "{} profile inconsistent", p.name);
        }
        let mut names: Vec<&str> = BUILTIN_PROFILES.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BUILTIN_PROFILES.len());
    }

    #[test]
    fn registry_spans_low_to_high_power_radios() {
        // The extensions bracket the Table I phones on both axes the
        // paper cares about: radio receive power and wake-cycle cost.
        let rx = |p: &DeviceProfile| p.rx_power;
        assert!(rx(&IOT_CAM) < rx(&NEXUS_ONE));
        assert!(rx(&TABLET_PRO) > rx(&GALAXY_S4));
        assert!(IOT_CAM.wake_cycle_energy() < PIXEL_3A.wake_cycle_energy());
        assert!(PIXEL_3A.wake_cycle_energy() < NEXUS_ONE.wake_cycle_energy());
        assert!(NOTE_4.wake_cycle_energy() > GALAXY_S4.wake_cycle_energy());
        assert!(TABLET_PRO.wake_cycle_energy() > NOTE_4.wake_cycle_energy());
    }

    #[test]
    fn s4_state_transfers_cost_more() {
        // The paper observes state-transfer overhead is much higher on
        // the Galaxy S4, which is why "client-side" barely helps there.
        assert!(GALAXY_S4.wake_cycle_energy() > 3.0 * NEXUS_ONE.wake_cycle_energy());
    }

    #[test]
    fn wake_cycle_energy_matches_table() {
        assert!((NEXUS_ONE.wake_cycle_energy() - 35.92e-3).abs() < 1e-9);
        assert!((GALAXY_S4.wake_cycle_energy() - 144.1e-3).abs() < 1e-9);
    }

    #[test]
    fn per_byte_beacon_energy_is_small() {
        assert!(NEXUS_ONE.beacon_energy_per_byte() < NEXUS_ONE.beacon_energy);
        assert!((NEXUS_ONE.beacon_energy_per_byte() - 12.5e-6).abs() < 1e-12);
    }

    #[test]
    fn inconsistent_profile_detected() {
        let mut p = NEXUS_ONE;
        p.suspend_power = 1.0; // above active power
        assert!(!p.is_consistent());
        let mut p = NEXUS_ONE;
        p.rx_power = -1.0;
        assert!(!p.is_consistent());
    }

    #[test]
    fn struct_update_variant_keeps_every_other_constant() {
        let custom = DeviceProfile {
            name: "custom",
            rx_power: 0.6,
            tx_power: 1.4,
            ..NEXUS_ONE
        };
        assert_eq!(custom.name, "custom");
        assert_eq!(custom.rx_power, 0.6);
        assert_eq!(custom.tx_power, 1.4);
        // Restoring the two overridden constants gives back the base row.
        assert_eq!(
            DeviceProfile {
                name: NEXUS_ONE.name,
                rx_power: NEXUS_ONE.rx_power,
                tx_power: NEXUS_ONE.tx_power,
                ..custom
            },
            NEXUS_ONE
        );
        assert!(custom.is_consistent());
        assert_eq!(custom.wake_cycle_energy(), NEXUS_ONE.wake_cycle_energy());
    }

    #[test]
    fn is_consistent_rejects_any_non_positive_constant() {
        let zero_field: [fn(&mut DeviceProfile); 11] = [
            |p| p.wakelock_secs = 0.0,
            |p| p.resume_secs = 0.0,
            |p| p.suspend_secs = 0.0,
            |p| p.resume_energy = 0.0,
            |p| p.suspend_energy = 0.0,
            |p| p.beacon_energy = 0.0,
            |p| p.rx_power = 0.0,
            |p| p.tx_power = 0.0,
            |p| p.idle_power = 0.0,
            |p| p.suspend_power = 0.0,
            |p| p.active_idle_power = 0.0,
        ];
        for base in BUILTIN_PROFILES {
            for (i, zero) in zero_field.iter().enumerate() {
                let mut p = base;
                zero(&mut p);
                assert!(!p.is_consistent(), "{}: constant #{i} at zero", base.name);
            }
        }
    }

    #[test]
    fn is_consistent_power_orderings_are_strict() {
        // A suspend draw equal to the wakelock draw, or a listening draw
        // equal to the receive draw, is as wrong as one above it.
        let p = DeviceProfile {
            suspend_power: NEXUS_ONE.active_idle_power,
            ..NEXUS_ONE
        };
        assert!(!p.is_consistent());
        let p = DeviceProfile {
            idle_power: NEXUS_ONE.rx_power,
            ..NEXUS_ONE
        };
        assert!(!p.is_consistent());
        let p = DeviceProfile {
            idle_power: NEXUS_ONE.rx_power * 0.999,
            suspend_power: NEXUS_ONE.active_idle_power * 0.999,
            ..NEXUS_ONE
        };
        assert!(p.is_consistent());
    }

    #[test]
    fn table_i_exact_values() {
        assert_eq!(NEXUS_ONE.resume_secs, 0.046);
        assert_eq!(NEXUS_ONE.suspend_secs, 0.086);
        assert_eq!(GALAXY_S4.resume_secs, 0.044);
        assert_eq!(GALAXY_S4.suspend_secs, 0.165);
        assert_eq!(NEXUS_ONE.tx_power, 1.2);
        assert_eq!(GALAXY_S4.tx_power, 1.5);
        assert_eq!(NEXUS_ONE.suspend_power, 0.011);
        assert_eq!(GALAXY_S4.suspend_power, 0.015);
    }
}
