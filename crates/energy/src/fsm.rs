//! PowerTutor-style multi-radio power state machine.
//!
//! PowerTutor models each radio as a small FSM: the WiFi interface sits
//! in a **low-power** state (~20 mW) until the packet rate crosses a
//! promotion threshold, runs in a **high-power** state (~710 mW base)
//! while busy, and demotes back after an inactivity timer. This module
//! expresses a [`DeviceProfile`]'s radio
//! behavior in that shape: a [`TransitionTable`] of named
//! [`RadioState`]s with per-state powers and priced transitions,
//! deterministic and integer-nanojoule-priced so ledger accounting
//! stays merge-exact.
//!
//! Consumers:
//!
//! * [`machine::run`](crate::machine::run) walks a reception timeline
//!   against the table (via
//!   [`machine::run_with_table`](crate::machine::run_with_table))
//!   instead of reading flat per-state powers off the profile;
//! * [`WakePricing::from_profile`](crate::attribution::WakePricing::from_profile)
//!   derives the fleet engine's pre-rounded wake prices from the same
//!   table.
//!
//! Both paths perform the *exact* floating-point operations the
//! profile-based paths performed — the table stores the profile's
//! constants verbatim — so adopting the FSM changes no golden byte.

use crate::attribution::joules_to_nj;
use crate::profile::DeviceProfile;

/// PowerTutor's WiFi low-power draw relative to its high-power base
/// (20 mW / 710 mW): used to derive a device's low-power-listening
/// draw from its measured idle-listening power.
pub const WIFI_LPM_POWER_RATIO: f64 = 0.020 / 0.710;

/// PowerTutor's default WiFi packet-rate promotion threshold:
/// above this many packets per second the interface is promoted from
/// low-power to high-power operation.
pub const DEFAULT_PROMOTION_PKTS_PER_SEC: f64 = 15.0;

/// Default high-power → low-power inactivity timer, seconds.
pub const DEFAULT_INACTIVITY_TIMER_SECS: f64 = 1.0;

/// One state of the multi-radio machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum RadioState {
    /// Whole system suspended (`P_ss`).
    Suspended,
    /// System resume operation in flight (`E_rm` over `T_rm`).
    Resuming,
    /// System awake and idle under a wakelock (`P_sa`).
    ActiveIdle,
    /// System suspend operation in flight (`E_sp` over `T_sp`).
    Suspending,
    /// WiFi interface in PowerTutor's low-power listening state.
    WifiLowPower,
    /// WiFi interface in PowerTutor's high-power (promoted) state
    /// (`P_idle` base).
    WifiHighPower,
    /// WiFi radio actively receiving (`P_r`).
    Rx,
    /// WiFi radio actively transmitting (`P_t`).
    Tx,
}

impl RadioState {
    /// Every state, in declaration order (the table's index order).
    pub const ALL: [RadioState; 8] = [
        RadioState::Suspended,
        RadioState::Resuming,
        RadioState::ActiveIdle,
        RadioState::Suspending,
        RadioState::WifiLowPower,
        RadioState::WifiHighPower,
        RadioState::Rx,
        RadioState::Tx,
    ];

    /// Number of states.
    pub const COUNT: usize = RadioState::ALL.len();

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            RadioState::Suspended => "suspended",
            RadioState::Resuming => "resuming",
            RadioState::ActiveIdle => "active_idle",
            RadioState::Suspending => "suspending",
            RadioState::WifiLowPower => "wifi_low_power",
            RadioState::WifiHighPower => "wifi_high_power",
            RadioState::Rx => "rx",
            RadioState::Tx => "tx",
        }
    }

    /// Dense index (declaration order).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One priced transition of the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Source state.
    pub from: RadioState,
    /// Destination state.
    pub to: RadioState,
    /// Transition duration, seconds.
    pub duration_secs: f64,
    /// Transition energy, joules (exact profile constant where one
    /// exists, `0.0` for instantaneous mode switches).
    pub energy_j: f64,
    /// The same energy pre-rounded to integer nanojoules — the price
    /// ledger accounting charges.
    pub energy_nj: u64,
}

/// A device's radio behavior as a deterministic transition table:
/// per-state powers, priced transitions, and the PowerTutor promotion
/// knobs (packet-rate threshold, inactivity timer).
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionTable {
    /// Name of the source profile.
    pub profile_name: &'static str,
    /// Per-state power draw, watts, indexed by [`RadioState::index`].
    power_w: [f64; RadioState::COUNT],
    /// The same powers pre-rounded to integer nanowatts (1 nW = 1 nJ/s).
    power_nw: [u64; RadioState::COUNT],
    transitions: Vec<Transition>,
    /// Packet rate above which the WiFi interface is promoted
    /// low-power → high-power, packets/second.
    pub promotion_pkts_per_sec: f64,
    /// High-power → low-power demotion timer, seconds of inactivity.
    pub inactivity_timer_secs: f64,
    /// Wakelock hold time per received broadcast frame `τ`, seconds
    /// (dwelled in [`RadioState::ActiveIdle`]).
    pub wakelock_hold_secs: f64,
}

impl TransitionTable {
    /// Builds the table from a Table I profile with the PowerTutor
    /// default promotion knobs.
    #[must_use]
    pub fn from_profile(profile: &DeviceProfile) -> Self {
        Self::with_wifi_lpm(
            profile,
            DEFAULT_PROMOTION_PKTS_PER_SEC,
            DEFAULT_INACTIVITY_TIMER_SECS,
        )
    }

    /// [`from_profile`](Self::from_profile) with explicit promotion
    /// threshold (packets/second) and inactivity timer (seconds) — the
    /// per-device knobs the policy registry sets.
    #[must_use]
    pub fn with_wifi_lpm(
        profile: &DeviceProfile,
        promotion_pkts_per_sec: f64,
        inactivity_timer_secs: f64,
    ) -> Self {
        let mut power_w = [0.0; RadioState::COUNT];
        power_w[RadioState::Suspended.index()] = profile.suspend_power;
        power_w[RadioState::Resuming.index()] = profile.resume_energy / profile.resume_secs;
        power_w[RadioState::ActiveIdle.index()] = profile.active_idle_power;
        power_w[RadioState::Suspending.index()] = profile.suspend_energy / profile.suspend_secs;
        power_w[RadioState::WifiLowPower.index()] = profile.idle_power * WIFI_LPM_POWER_RATIO;
        power_w[RadioState::WifiHighPower.index()] = profile.idle_power;
        power_w[RadioState::Rx.index()] = profile.rx_power;
        power_w[RadioState::Tx.index()] = profile.tx_power;
        let mut power_nw = [0u64; RadioState::COUNT];
        for (nw, w) in power_nw.iter_mut().zip(power_w) {
            *nw = (w * 1e9).round() as u64;
        }
        let t = |from, to, duration_secs, energy_j| Transition {
            from,
            to,
            duration_secs,
            energy_j,
            energy_nj: joules_to_nj(energy_j),
        };
        let transitions = vec![
            t(
                RadioState::Suspended,
                RadioState::Resuming,
                profile.resume_secs,
                profile.resume_energy,
            ),
            t(RadioState::Resuming, RadioState::ActiveIdle, 0.0, 0.0),
            t(
                RadioState::ActiveIdle,
                RadioState::Suspending,
                profile.suspend_secs,
                profile.suspend_energy,
            ),
            t(RadioState::Suspending, RadioState::Suspended, 0.0, 0.0),
            t(RadioState::ActiveIdle, RadioState::WifiLowPower, 0.0, 0.0),
            t(
                RadioState::WifiLowPower,
                RadioState::WifiHighPower,
                0.0,
                0.0,
            ),
            t(
                RadioState::WifiHighPower,
                RadioState::WifiLowPower,
                0.0,
                0.0,
            ),
            t(RadioState::WifiHighPower, RadioState::Rx, 0.0, 0.0),
            t(RadioState::WifiHighPower, RadioState::Tx, 0.0, 0.0),
            t(RadioState::Rx, RadioState::WifiHighPower, 0.0, 0.0),
            t(RadioState::Tx, RadioState::WifiHighPower, 0.0, 0.0),
        ];
        TransitionTable {
            profile_name: profile.name,
            power_w,
            power_nw,
            transitions,
            promotion_pkts_per_sec,
            inactivity_timer_secs,
            wakelock_hold_secs: profile.wakelock_secs,
        }
    }

    /// Steady-state power of `state`, watts.
    #[inline]
    pub fn power_w(&self, state: RadioState) -> f64 {
        self.power_w[state.index()]
    }

    /// Steady-state power of `state`, integer nanowatts.
    #[inline]
    pub fn power_nw(&self, state: RadioState) -> u64 {
        self.power_nw[state.index()]
    }

    /// Integer-nanojoule price of dwelling `secs` in `state`.
    #[inline]
    pub fn dwell_nj(&self, state: RadioState, secs: f64) -> u64 {
        joules_to_nj(self.power_w[state.index()] * secs)
    }

    /// The priced transition `from → to`, if the machine defines one.
    pub fn transition(&self, from: RadioState, to: RadioState) -> Option<&Transition> {
        self.transitions
            .iter()
            .find(|t| t.from == from && t.to == to)
    }

    /// Every transition, in declaration order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// `T_rm`: duration of the `Suspended → Resuming` edge, seconds.
    #[inline]
    pub fn resume_secs(&self) -> f64 {
        self.transitions[0].duration_secs
    }

    /// `T_sp`: duration of the `ActiveIdle → Suspending` edge, seconds.
    #[inline]
    pub fn suspend_secs(&self) -> f64 {
        self.transitions[2].duration_secs
    }

    /// `E_sp`: energy of the suspend edge, joules.
    #[inline]
    pub fn suspend_energy_j(&self) -> f64 {
        self.transitions[2].energy_j
    }

    /// `E_rm + E_sp`: one full suspend-to-active round trip, joules.
    /// Summed in the same order as
    /// [`DeviceProfile::wake_cycle_energy`](crate::profile::DeviceProfile::wake_cycle_energy),
    /// so the result is bit-identical.
    #[inline]
    pub fn wake_cycle_energy_j(&self) -> f64 {
        self.transitions[0].energy_j + self.transitions[2].energy_j
    }

    /// The WiFi state a sustained packet rate settles in: high-power
    /// above the promotion threshold, low-power below it.
    pub fn steady_wifi_state(&self, pkts_per_sec: f64) -> RadioState {
        if pkts_per_sec > self.promotion_pkts_per_sec {
            RadioState::WifiHighPower
        } else {
            RadioState::WifiLowPower
        }
    }

    /// Whether every price in the table is finite and non-negative —
    /// the invariant the policy proptests pin: no transition or dwell
    /// can ever charge a negative or non-finite nanojoule amount.
    pub fn is_priced_sane(&self) -> bool {
        self.power_w.iter().all(|w| w.is_finite() && *w >= 0.0)
            && self.transitions.iter().all(|t| {
                t.duration_secs.is_finite()
                    && t.duration_secs >= 0.0
                    && t.energy_j.is_finite()
                    && t.energy_j >= 0.0
            })
            && self.promotion_pkts_per_sec.is_finite()
            && self.promotion_pkts_per_sec >= 0.0
            && self.inactivity_timer_secs.is_finite()
            && self.inactivity_timer_secs >= 0.0
            && self.wakelock_hold_secs.is_finite()
            && self.wakelock_hold_secs >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{BUILTIN_PROFILES, GALAXY_S4, NEXUS_ONE};

    #[test]
    fn table_preserves_profile_constants_exactly() {
        let t = TransitionTable::from_profile(&NEXUS_ONE);
        assert_eq!(t.power_w(RadioState::Suspended), NEXUS_ONE.suspend_power);
        assert_eq!(
            t.power_w(RadioState::ActiveIdle),
            NEXUS_ONE.active_idle_power
        );
        assert_eq!(t.power_w(RadioState::Rx), NEXUS_ONE.rx_power);
        assert_eq!(t.power_w(RadioState::Tx), NEXUS_ONE.tx_power);
        assert_eq!(t.power_w(RadioState::WifiHighPower), NEXUS_ONE.idle_power);
        assert_eq!(t.resume_secs(), NEXUS_ONE.resume_secs);
        assert_eq!(t.suspend_secs(), NEXUS_ONE.suspend_secs);
        // Bit-identical wake cycle: same operands, same order.
        assert_eq!(t.wake_cycle_energy_j(), NEXUS_ONE.wake_cycle_energy());
    }

    #[test]
    fn wifi_lpm_states_are_ordered() {
        for p in BUILTIN_PROFILES {
            let t = TransitionTable::from_profile(&p);
            assert!(
                t.power_w(RadioState::WifiLowPower) < t.power_w(RadioState::WifiHighPower),
                "{}: low-power listening must undercut the high-power base",
                p.name
            );
            assert!(t.power_w(RadioState::WifiHighPower) < t.power_w(RadioState::Rx));
        }
    }

    #[test]
    fn promotion_threshold_selects_state() {
        let t = TransitionTable::from_profile(&GALAXY_S4);
        assert_eq!(t.steady_wifi_state(0.0), RadioState::WifiLowPower);
        assert_eq!(
            t.steady_wifi_state(DEFAULT_PROMOTION_PKTS_PER_SEC),
            RadioState::WifiLowPower
        );
        assert_eq!(
            t.steady_wifi_state(DEFAULT_PROMOTION_PKTS_PER_SEC + 1.0),
            RadioState::WifiHighPower
        );
        let eager = TransitionTable::with_wifi_lpm(&GALAXY_S4, 2.0, 0.5);
        assert_eq!(eager.steady_wifi_state(3.0), RadioState::WifiHighPower);
    }

    #[test]
    fn all_builtin_tables_priced_sane() {
        for p in BUILTIN_PROFILES {
            let t = TransitionTable::from_profile(&p);
            assert!(t.is_priced_sane(), "{}", p.name);
            for tr in t.transitions() {
                assert_eq!(tr.energy_nj, joules_to_nj(tr.energy_j));
            }
        }
    }

    #[test]
    fn transition_lookup_finds_cycle_edges() {
        let t = TransitionTable::from_profile(&NEXUS_ONE);
        let resume = t
            .transition(RadioState::Suspended, RadioState::Resuming)
            .unwrap();
        assert_eq!(resume.energy_j, NEXUS_ONE.resume_energy);
        assert_eq!(resume.energy_nj, joules_to_nj(NEXUS_ONE.resume_energy));
        assert!(t
            .transition(RadioState::Suspended, RadioState::Tx)
            .is_none());
    }

    #[test]
    fn dwell_pricing_matches_manual_conversion() {
        let t = TransitionTable::from_profile(&NEXUS_ONE);
        assert_eq!(
            t.dwell_nj(RadioState::ActiveIdle, 2.0),
            joules_to_nj(NEXUS_ONE.active_idle_power * 2.0)
        );
        assert_eq!(t.dwell_nj(RadioState::Suspended, 0.0), 0);
    }

    #[test]
    fn state_names_unique() {
        let mut names: Vec<&str> = RadioState::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RadioState::COUNT);
    }
}
