//! Per-client, per-cause energy attribution — the join between the
//! wakeup-provenance stream and the Table I device profiles.
//!
//! The fleet pipeline already classifies every wake decision (proper /
//! legacy / spurious / missed, each with a causal tag); this module
//! prices those decisions in joules so the provenance breakdown becomes
//! an energy budget. Two producers feed the same ledger type:
//!
//! * **online** — the BSS engine charges each energy event into an
//!   [`AttributionLedger`] as it happens (beacons, burst receptions,
//!   refresh transmissions, wake cycles), keyed by `(source, aid)`;
//! * **trace join** — [`AttributionLedger::price`] multiplies the
//!   per-client wake counts of an [`hide_obs::ProvenanceLedger`] by the
//!   per-event prices of a [`WakePricing`].
//!
//! Because both paths charge the *same pre-rounded integer price* per
//! wake event, the wake columns of the online ledger and the trace-join
//! ledger are **exactly** equal — not merely close — which is the
//! invariant the fleet tests pin down.
//!
//! # Why integer nanojoules
//!
//! The ledger accounts in `u64` nanojoules rather than `f64` joules for
//! two reasons. First, the `hide-metrics/1` artifact is integer-only by
//! schema, so the energy section can ride in it unchanged. Second,
//! integer addition is exactly associative and commutative, so shard
//! ledgers fanned in from any `--jobs` split merge to byte-identical
//! output — the same determinism contract the [`hide_obs::Recorder`]
//! obeys. At Table I magnitudes (`u64::MAX` nJ ≈ 1.8×10¹⁰ J) overflow
//! would take ~10⁸ device-years of wakeups; far beyond any fleet run.
//!
//! # Pricing model
//!
//! * A **proper, legacy or spurious** wake costs one full
//!   suspend-to-active round trip plus the wakelock tail:
//!   `E_rm + E_sp + τ·P_sa` (Eqs. 12–13) — for spurious wakes this is
//!   the *resume–tail–suspend* energy wasted on stale interests.
//! * A **missed** wake is priced at the *forgone-suspend* cost: the
//!   wake-cycle energy the client would have spent minus the suspend
//!   floor it actually burned over the same window,
//!   `(E_rm + E_sp + τ·P_sa) − (T_rm + τ + T_sp)·P_ss`. Missed energy
//!   is a counterfactual — traffic the client wanted slipped past — so
//!   it is reported separately and **excluded** from
//!   [`ClientEnergy::spent_nj`].

use crate::profile::DeviceProfile;
use hide_obs::provenance::{ClientKey, ProvenanceLedger};
use hide_obs::{WakeCause, WakeClass};
use std::fmt::Write as _;

/// Converts joules to the ledger's integer nanojoule unit (half-up
/// rounding). Each conversion is exact to ±0.5 nJ.
#[must_use]
pub fn joules_to_nj(joules: f64) -> u64 {
    (joules * 1e9).round() as u64
}

/// Pre-rounded integer prices (nanojoules) for one wake event under a
/// device profile.
///
/// Both the online engine and the trace join charge these exact
/// integers, so `count × price` accounting and per-event accounting
/// agree bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakePricing {
    /// Full wake cycle: `E_rm + E_sp + τ·P_sa`, nJ.
    pub wake_nj: u64,
    /// Forgone-suspend price of a missed wake: wake cycle minus the
    /// suspend floor over the same `T_rm + τ + T_sp` window, nJ.
    pub forgone_nj: u64,
    /// One DTIM beacon reception `E^u_b`, nJ.
    pub beacon_nj: u64,
}

impl WakePricing {
    /// Derives the integer prices from a Table I profile: the wake price
    /// is the wake cycle `E_rm + E_sp` plus the wakelock tail `τ·P_sa`;
    /// the forgone price subtracts the suspend floor `P_ss` over the
    /// same `T_rm + τ + T_sp` window; the beacon price is the profile's
    /// `E^u_b`. Each price rounds once to a whole nanojoule.
    #[must_use]
    pub fn from_profile(profile: &DeviceProfile) -> Self {
        let wake_j =
            profile.wake_cycle_energy() + profile.wakelock_secs * profile.active_idle_power;
        let window_secs = profile.resume_secs + profile.wakelock_secs + profile.suspend_secs;
        let floor_j = window_secs * profile.suspend_power;
        let wake_nj = joules_to_nj(wake_j);
        WakePricing {
            wake_nj,
            forgone_nj: wake_nj.saturating_sub(joules_to_nj(floor_j)),
            beacon_nj: joules_to_nj(profile.beacon_energy),
        }
    }
}

/// Nanojoules attributed per causal tag (mirrors
/// [`hide_obs::CauseCounts`], but holding energy instead of counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseEnergy {
    /// Energy attributed to lost UDP Port Message refreshes, nJ.
    pub refresh_lost: u64,
    /// Energy attributed to stale-timeout expiry of port entries, nJ.
    pub entry_expired: u64,
    /// Energy attributed to port churn between refreshes, nJ.
    pub port_churn: u64,
    /// Energy with no attributable cause, nJ.
    pub unknown: u64,
}

impl CauseEnergy {
    /// Sum across causes, nJ.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.refresh_lost + self.entry_expired + self.port_churn + self.unknown
    }

    /// Charges `nj` to the slot for `cause`.
    pub fn charge(&mut self, cause: WakeCause, nj: u64) {
        match cause {
            WakeCause::RefreshLost => self.refresh_lost += nj,
            WakeCause::EntryExpired => self.entry_expired += nj,
            WakeCause::PortChurn => self.port_churn += nj,
            WakeCause::Proper | WakeCause::Unknown => self.unknown += nj,
        }
    }

    /// Adds another tally into this one (field-wise).
    pub fn merge_from(&mut self, other: &CauseEnergy) {
        self.refresh_lost += other.refresh_lost;
        self.entry_expired += other.entry_expired;
        self.port_churn += other.port_churn;
        self.unknown += other.unknown;
    }
}

/// Energy attributed to one client lane, nJ throughout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientEnergy {
    /// Wake cycles that delivered wanted traffic.
    pub proper_nj: u64,
    /// Wake cycles of legacy (non-HIDE) clients.
    pub legacy_nj: u64,
    /// Wasted wake cycles (stale interests), split by cause.
    pub spurious_nj: CauseEnergy,
    /// Forgone-suspend cost of missed wakes, split by cause.
    /// Counterfactual — excluded from [`ClientEnergy::spent_nj`].
    pub missed_forgone_nj: CauseEnergy,
    /// DTIM beacon receptions.
    pub beacon_nj: u64,
    /// Broadcast-burst receptions (awake or woken).
    pub burst_rx_nj: u64,
    /// UDP Port Message transmissions.
    pub refresh_tx_nj: u64,
}

impl ClientEnergy {
    /// Energy the client actually consumed, nJ: everything except the
    /// counterfactual missed-wake column.
    #[must_use]
    pub fn spent_nj(&self) -> u64 {
        self.proper_nj
            + self.legacy_nj
            + self.spurious_nj.total()
            + self.beacon_nj
            + self.burst_rx_nj
            + self.refresh_tx_nj
    }

    /// Charges one wake decision at the given pricing.
    pub fn charge_wake(&mut self, class: WakeClass, cause: WakeCause, pricing: &WakePricing) {
        match class {
            WakeClass::Proper => self.proper_nj += pricing.wake_nj,
            WakeClass::Legacy => self.legacy_nj += pricing.wake_nj,
            WakeClass::Spurious => self.spurious_nj.charge(cause, pricing.wake_nj),
            WakeClass::Missed => self.missed_forgone_nj.charge(cause, pricing.forgone_nj),
        }
    }

    /// Adds another client tally into this one (field-wise).
    pub fn merge_from(&mut self, other: &ClientEnergy) {
        self.proper_nj += other.proper_nj;
        self.legacy_nj += other.legacy_nj;
        self.spurious_nj.merge_from(&other.spurious_nj);
        self.missed_forgone_nj.merge_from(&other.missed_forgone_nj);
        self.beacon_nj += other.beacon_nj;
        self.burst_rx_nj += other.burst_rx_nj;
        self.refresh_tx_nj += other.refresh_tx_nj;
    }
}

/// The per-client joule ledger: `(source, aid) → ClientEnergy`, rows
/// kept sorted by key.
///
/// `source` is the fleet BSS index (or the flight-recorder source
/// lane), `aid` the 802.11 association ID — one row per *association
/// lane*, the only client identity the on-air protocol exposes. When an
/// AP reuses an AID after a leave/join, charges from both tenancies land
/// on the same row; the ledger prices lanes, not persistent devices.
///
/// Merging is field-wise `u64` addition on sorted rows, so it is
/// exactly associative and commutative: shard ledgers fanned in from
/// any `--jobs` split produce byte-identical exports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionLedger {
    rows: Vec<(ClientKey, ClientEnergy)>,
}

impl AttributionLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        AttributionLedger { rows: Vec::new() }
    }

    /// Builds a ledger directly from rows already sorted strictly
    /// ascending by key — the zero-cost exit for producers (like the
    /// BSS engine's dense per-AID lanes) that accumulate charges in
    /// key order and only need the ledger shape at the end.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the rows are not strictly sorted;
    /// an unsorted ledger would silently break `entry`/`get`/`merge`.
    #[must_use]
    pub fn from_sorted_rows(rows: Vec<(ClientKey, ClientEnergy)>) -> Self {
        debug_assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "rows must be strictly ascending by (source, aid)"
        );
        AttributionLedger { rows }
    }

    /// The rows, sorted by `(source, aid)`.
    #[must_use]
    pub fn rows(&self) -> &[(ClientKey, ClientEnergy)] {
        &self.rows
    }

    /// Number of client lanes with at least one charge.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no charge has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The tally for one client lane, if any charge was recorded.
    #[must_use]
    pub fn get(&self, key: ClientKey) -> Option<&ClientEnergy> {
        self.rows
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &self.rows[i].1)
    }

    /// Mutable tally for `key`, inserting a zero row at the sorted
    /// position on first touch.
    pub fn entry(&mut self, key: ClientKey) -> &mut ClientEnergy {
        let i = match self.rows.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => i,
            Err(i) => {
                self.rows.insert(i, (key, ClientEnergy::default()));
                i
            }
        };
        &mut self.rows[i].1
    }

    /// Fleet-wide tally: every row summed field-wise.
    #[must_use]
    pub fn totals(&self) -> ClientEnergy {
        let mut out = ClientEnergy::default();
        for (_, e) in &self.rows {
            out.merge_from(e);
        }
        out
    }

    /// Energy the whole ledger actually consumed, nJ.
    #[must_use]
    pub fn spent_nj(&self) -> u64 {
        self.rows.iter().map(|(_, e)| e.spent_nj()).sum()
    }

    /// Folds another ledger into this one: rows with equal keys add
    /// field-wise, others interleave at their sorted positions.
    ///
    /// Disjoint key ranges append in place: the fleet fan-in folds
    /// shard ledgers in ascending source order, so without this fast
    /// path every fold would re-copy all previously merged rows and
    /// the sequential merge would go quadratic in the shard count.
    pub fn merge_from(&mut self, other: &AttributionLedger) {
        if other.rows.is_empty() {
            return;
        }
        match self.rows.last() {
            None => {
                self.rows = other.rows.clone();
                return;
            }
            Some((last, _)) if other.rows[0].0 > *last => {
                self.rows.extend_from_slice(&other.rows);
                return;
            }
            Some(_) => {}
        }
        let mut merged = Vec::with_capacity(self.rows.len() + other.rows.len());
        let mut a = self.rows.iter().peekable();
        let mut b = other.rows.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some((ka, ea)), Some((kb, eb))) => match ka.cmp(kb) {
                    std::cmp::Ordering::Less => {
                        merged.push((*ka, *ea));
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((*kb, *eb));
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        let mut e = *ea;
                        e.merge_from(eb);
                        merged.push((*ka, e));
                        a.next();
                        b.next();
                    }
                },
                (Some(&&row), None) => {
                    merged.push(row);
                    a.next();
                }
                (None, Some(&&row)) => {
                    merged.push(row);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.rows = merged;
    }

    /// Prices a provenance wake-count ledger: every per-client wake
    /// count is multiplied by the matching [`WakePricing`] integer
    /// price. Only the wake columns are populated — beacon, burst and
    /// refresh energy are not visible in wake decisions — and those
    /// columns equal the online engine's exactly.
    #[must_use]
    pub fn price(wakes: &ProvenanceLedger, profile: &DeviceProfile) -> Self {
        let pricing = WakePricing::from_profile(profile);
        let mut out = AttributionLedger::new();
        for (key, w) in wakes.rows() {
            let e = out.entry(*key);
            e.proper_nj = w.proper * pricing.wake_nj;
            e.legacy_nj = w.legacy * pricing.wake_nj;
            e.spurious_nj = CauseEnergy {
                refresh_lost: w.spurious.refresh_lost * pricing.wake_nj,
                entry_expired: w.spurious.entry_expired * pricing.wake_nj,
                port_churn: w.spurious.port_churn * pricing.wake_nj,
                unknown: w.spurious.unknown * pricing.wake_nj,
            };
            e.missed_forgone_nj = CauseEnergy {
                refresh_lost: w.missed.refresh_lost * pricing.forgone_nj,
                entry_expired: w.missed.entry_expired * pricing.forgone_nj,
                port_churn: w.missed.port_churn * pricing.forgone_nj,
                unknown: w.missed.unknown * pricing.forgone_nj,
            };
        }
        out
    }

    /// True when the wake columns (proper, legacy, spurious, missed) of
    /// both ledgers are identical row-for-row, ignoring the beacon,
    /// burst and refresh columns the trace join cannot see.
    #[must_use]
    pub fn wake_columns_eq(&self, other: &AttributionLedger) -> bool {
        fn wake_rows(
            l: &AttributionLedger,
        ) -> Vec<(ClientKey, u64, u64, CauseEnergy, CauseEnergy)> {
            l.rows
                .iter()
                .map(|(k, e)| {
                    (
                        *k,
                        e.proper_nj,
                        e.legacy_nj,
                        e.spurious_nj,
                        e.missed_forgone_nj,
                    )
                })
                .filter(|(_, p, lg, s, m)| *p + *lg + s.total() + m.total() > 0)
                .collect()
        }
        wake_rows(self) == wake_rows(other)
    }

    /// Renders the fleet-wide totals as one line of integer-only JSON —
    /// the `"energy"` section of the `hide-metrics/1` artifact. Keys
    /// appear in fixed order, so the output is deterministic.
    #[must_use]
    pub fn to_metrics_section(&self) -> String {
        // `totals().spent_nj()` equals the row-wise `spent_nj()` sum
        // exactly: both are the same `u64` additions reassociated.
        metrics_section_for(&self.totals(), self.len())
    }

    /// Renders the per-client rows as CSV (header + one line per lane),
    /// sorted by `(source, aid)`. Deterministic byte-for-byte.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 + self.rows.len() * 96);
        out.push_str(ATTRIBUTION_CSV_HEADER);
        for (key, e) in &self.rows {
            write_csv_row(&mut out, *key, e);
        }
        out
    }

    /// Renders the per-client rows as JSON Lines with full per-cause
    /// detail, sorted by `(source, aid)`. Deterministic byte-for-byte.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 256);
        for (key, e) in &self.rows {
            write_jsonl_row(&mut out, *key, e);
        }
        out
    }
}

/// Header line of the attribution CSV export (trailing newline
/// included).
pub const ATTRIBUTION_CSV_HEADER: &str =
    "source,aid,proper_nj,legacy_nj,spurious_nj,missed_forgone_nj,\
     beacon_nj,burst_rx_nj,refresh_tx_nj,spent_nj\n";

/// Renders one attribution CSV row (trailing newline included) — the
/// shared renderer behind [`AttributionLedger::to_csv`] and the
/// streamed export lane, so both paths emit identical bytes per row.
pub fn write_csv_row(out: &mut String, (source, aid): ClientKey, e: &ClientEnergy) {
    let _ = writeln!(
        out,
        "{source},{aid},{},{},{},{},{},{},{},{}",
        e.proper_nj,
        e.legacy_nj,
        e.spurious_nj.total(),
        e.missed_forgone_nj.total(),
        e.beacon_nj,
        e.burst_rx_nj,
        e.refresh_tx_nj,
        e.spent_nj()
    );
}

/// Renders one attribution JSONL row (trailing newline included) — the
/// shared renderer behind [`AttributionLedger::to_jsonl`] and the
/// streamed export lane.
pub fn write_jsonl_row(out: &mut String, (source, aid): ClientKey, e: &ClientEnergy) {
    let _ = writeln!(
        out,
        "{{\"source\":{source},\"aid\":{aid},\"proper_nj\":{},\"legacy_nj\":{},\
         \"spurious\":{{\"refresh_lost\":{},\"entry_expired\":{},\"port_churn\":{},\
         \"unknown\":{}}},\"missed_forgone\":{{\"refresh_lost\":{},\
         \"entry_expired\":{},\"port_churn\":{},\"unknown\":{}}},\"beacon_nj\":{},\
         \"burst_rx_nj\":{},\"refresh_tx_nj\":{},\"spent_nj\":{}}}",
        e.proper_nj,
        e.legacy_nj,
        e.spurious_nj.refresh_lost,
        e.spurious_nj.entry_expired,
        e.spurious_nj.port_churn,
        e.spurious_nj.unknown,
        e.missed_forgone_nj.refresh_lost,
        e.missed_forgone_nj.entry_expired,
        e.missed_forgone_nj.port_churn,
        e.missed_forgone_nj.unknown,
        e.beacon_nj,
        e.burst_rx_nj,
        e.refresh_tx_nj,
        e.spent_nj()
    );
}

/// Renders the `"energy"` metrics section from already-accumulated
/// totals and a lane count — the streamed fleet path accumulates
/// `ClientEnergy` totals shard by shard (exact `u64` addition) instead
/// of materializing the fleet-wide ledger, then renders through the
/// same formatter as [`AttributionLedger::to_metrics_section`].
#[must_use]
pub fn metrics_section_for(t: &ClientEnergy, clients: usize) -> String {
    format!(
        "{{\"clients\": {}, \"proper_wake_nj\": {}, \"legacy_wake_nj\": {}, \
         \"spurious_wake_nj\": {}, \"spurious_refresh_lost_nj\": {}, \
         \"spurious_entry_expired_nj\": {}, \"spurious_port_churn_nj\": {}, \
         \"spurious_unknown_nj\": {}, \"missed_forgone_nj\": {}, \
         \"missed_refresh_lost_nj\": {}, \"missed_entry_expired_nj\": {}, \
         \"missed_port_churn_nj\": {}, \"missed_unknown_nj\": {}, \
         \"beacon_nj\": {}, \"burst_rx_nj\": {}, \"refresh_tx_nj\": {}, \
         \"spent_nj\": {}}}",
        clients,
        t.proper_nj,
        t.legacy_nj,
        t.spurious_nj.total(),
        t.spurious_nj.refresh_lost,
        t.spurious_nj.entry_expired,
        t.spurious_nj.port_churn,
        t.spurious_nj.unknown,
        t.missed_forgone_nj.total(),
        t.missed_forgone_nj.refresh_lost,
        t.missed_forgone_nj.entry_expired,
        t.missed_forgone_nj.port_churn,
        t.missed_forgone_nj.unknown,
        t.beacon_nj,
        t.burst_rx_nj,
        t.refresh_tx_nj,
        t.spent_nj(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{BUILTIN_PROFILES, GALAXY_S4, NEXUS_ONE};

    #[test]
    fn pricing_matches_profile_arithmetic() {
        let p = WakePricing::from_profile(&NEXUS_ONE);
        // E_rm + E_sp + τ·P_sa = 35.92 mJ + 1 s × 125 mW = 160.92 mJ.
        assert_eq!(p.wake_nj, 160_920_000);
        // Suspend floor over T_rm + τ + T_sp = 1.132 s at 11 mW.
        assert_eq!(p.forgone_nj, 160_920_000 - 12_452_000);
        assert_eq!(p.beacon_nj, 1_250_000);
        // The S4's wake cycle is far more expensive (Table I).
        let s4 = WakePricing::from_profile(&GALAXY_S4);
        assert!(s4.wake_nj > 250_000_000);
        assert!(s4.forgone_nj < s4.wake_nj);
    }

    #[test]
    fn joules_to_nj_rounds_to_the_nearest_nanojoule() {
        assert_eq!(joules_to_nj(0.0), 0);
        assert_eq!(joules_to_nj(0.4e-9), 0);
        assert_eq!(joules_to_nj(0.6e-9), 1);
        assert_eq!(joules_to_nj(160.92e-3), 160_920_000);
        assert_eq!(joules_to_nj(2.0), 2_000_000_000);
        // The ledger has no negative energy: a negative input clamps.
        assert_eq!(joules_to_nj(-1.0), 0);
    }

    #[test]
    fn builtin_prices_follow_profile_arithmetic() {
        for p in BUILTIN_PROFILES {
            let pricing = WakePricing::from_profile(&p);
            let wake_j = p.wake_cycle_energy() + p.wakelock_secs * p.active_idle_power;
            let floor_j = (p.resume_secs + p.wakelock_secs + p.suspend_secs) * p.suspend_power;
            assert_eq!(pricing.wake_nj, joules_to_nj(wake_j), "{}", p.name);
            assert_eq!(
                pricing.forgone_nj,
                joules_to_nj(wake_j) - joules_to_nj(floor_j),
                "{}",
                p.name
            );
            assert_eq!(
                pricing.beacon_nj,
                joules_to_nj(p.beacon_energy),
                "{}",
                p.name
            );
            assert!(pricing.beacon_nj < pricing.forgone_nj, "{}", p.name);
            assert!(pricing.forgone_nj < pricing.wake_nj, "{}", p.name);
        }
    }

    #[test]
    fn each_wakelock_second_adds_active_idle_power() {
        // One more second of wakelock costs P_sa more per wake, and
        // forgoes P_sa − P_ss more against the suspend floor (±1 nJ from
        // rounding each price once).
        for p in BUILTIN_PROFILES {
            let short = WakePricing::from_profile(&p);
            let long = WakePricing::from_profile(&DeviceProfile {
                wakelock_secs: p.wakelock_secs + 1.0,
                ..p
            });
            let wake_step = long.wake_nj - short.wake_nj;
            assert!(
                wake_step.abs_diff(joules_to_nj(p.active_idle_power)) <= 1,
                "{}: {wake_step}",
                p.name
            );
            let forgone_step = long.forgone_nj - short.forgone_nj;
            let expected = joules_to_nj(p.active_idle_power - p.suspend_power);
            assert!(
                forgone_step.abs_diff(expected) <= 1,
                "{}: {forgone_step} vs {expected}",
                p.name
            );
            assert_eq!(long.beacon_nj, short.beacon_nj);
        }
    }

    #[test]
    fn forgone_price_saturates_at_zero() {
        // Slow state transfers at a suspend draw close to the wakelock
        // draw: the suspend floor over T_rm + τ + T_sp (3 s × 120 mW)
        // outweighs the whole wake (2 mJ + 125 mJ), so nothing is forgone.
        let p = DeviceProfile {
            resume_secs: 1.0,
            suspend_secs: 1.0,
            resume_energy: 1e-3,
            suspend_energy: 1e-3,
            suspend_power: 0.120,
            ..NEXUS_ONE
        };
        assert!(p.is_consistent());
        let pricing = WakePricing::from_profile(&p);
        assert_eq!(pricing.wake_nj, 127_000_000);
        assert_eq!(pricing.forgone_nj, 0);
    }

    #[test]
    fn charge_wake_routes_by_class_and_cause() {
        let pricing = WakePricing::from_profile(&NEXUS_ONE);
        let mut e = ClientEnergy::default();
        e.charge_wake(WakeClass::Proper, WakeCause::Proper, &pricing);
        e.charge_wake(WakeClass::Legacy, WakeCause::Proper, &pricing);
        e.charge_wake(WakeClass::Spurious, WakeCause::PortChurn, &pricing);
        e.charge_wake(WakeClass::Missed, WakeCause::RefreshLost, &pricing);
        e.charge_wake(WakeClass::Missed, WakeCause::EntryExpired, &pricing);
        assert_eq!(e.proper_nj, pricing.wake_nj);
        assert_eq!(e.legacy_nj, pricing.wake_nj);
        assert_eq!(e.spurious_nj.port_churn, pricing.wake_nj);
        assert_eq!(e.missed_forgone_nj.refresh_lost, pricing.forgone_nj);
        assert_eq!(e.missed_forgone_nj.entry_expired, pricing.forgone_nj);
        // Missed energy is counterfactual: not part of spent.
        assert_eq!(e.spent_nj(), 3 * pricing.wake_nj);
    }

    #[test]
    fn ledger_entry_keeps_rows_sorted() {
        let mut l = AttributionLedger::new();
        l.entry((3, 1)).beacon_nj = 10;
        l.entry((0, 2)).beacon_nj = 20;
        l.entry((0, 1)).beacon_nj = 30;
        l.entry((0, 2)).beacon_nj += 5;
        let keys: Vec<ClientKey> = l.rows().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(0, 1), (0, 2), (3, 1)]);
        assert_eq!(l.get((0, 2)).unwrap().beacon_nj, 25);
        assert_eq!(l.get((7, 7)), None);
        assert_eq!(l.totals().beacon_nj, 65);
        assert_eq!(l.spent_nj(), 65);
    }

    #[test]
    fn merge_interleaves_and_adds() {
        let mut a = AttributionLedger::new();
        a.entry((0, 1)).proper_nj = 100;
        a.entry((2, 9)).burst_rx_nj = 7;
        let mut b = AttributionLedger::new();
        b.entry((0, 1)).proper_nj = 50;
        b.entry((1, 4)).refresh_tx_nj = 3;

        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.len(), 3);
        assert_eq!(ab.get((0, 1)).unwrap().proper_nj, 150);
        assert_eq!(ab.spent_nj(), 160);
        let mut with_empty = ab.clone();
        with_empty.merge_from(&AttributionLedger::new());
        assert_eq!(with_empty, ab);
    }

    #[test]
    fn from_sorted_rows_equals_entry_built_ledger() {
        let mut by_entry = AttributionLedger::new();
        by_entry.entry((0, 1)).proper_nj = 10;
        by_entry.entry((0, 5)).beacon_nj = 20;
        let direct = AttributionLedger::from_sorted_rows(vec![
            (
                (0, 1),
                ClientEnergy {
                    proper_nj: 10,
                    ..ClientEnergy::default()
                },
            ),
            (
                (0, 5),
                ClientEnergy {
                    beacon_nj: 20,
                    ..ClientEnergy::default()
                },
            ),
        ]);
        assert_eq!(by_entry, direct);
    }

    #[test]
    fn disjoint_merge_appends_exactly_like_the_general_path() {
        // Shard-shaped ledgers: strictly increasing source lanes.
        let mut shard0 = AttributionLedger::new();
        shard0.entry((0, 1)).proper_nj = 1;
        shard0.entry((0, 7)).beacon_nj = 2;
        let mut shard1 = AttributionLedger::new();
        shard1.entry((1, 2)).legacy_nj = 3;
        let mut shard2 = AttributionLedger::new();
        shard2.entry((2, 1)).burst_rx_nj = 4;

        let mut folded = AttributionLedger::new();
        folded.merge_from(&shard0);
        folded.merge_from(&shard1);
        folded.merge_from(&shard2);

        // Reference: force the interleaving path by merging in an
        // order that defeats the append fast path.
        let mut reference = AttributionLedger::new();
        reference.merge_from(&shard2);
        reference.merge_from(&shard0);
        reference.merge_from(&shard1);
        assert_eq!(folded, reference);
        assert_eq!(folded.len(), 4);
    }

    #[test]
    fn price_equals_per_event_charging() {
        use hide_obs::trace::{FlightRecorder, TraceEventKind, TraceSink};

        // A trace with a mix of wake classes on two lanes.
        let mut fr = FlightRecorder::new();
        let wake = |aid: u16, class: WakeClass, cause: WakeCause| TraceEventKind::WakeDecision {
            aid,
            port: 80,
            frame_id: 1,
            class,
            cause,
        };
        fr.emit(0.1, wake(1, WakeClass::Proper, WakeCause::Proper));
        fr.emit(0.2, wake(1, WakeClass::Proper, WakeCause::Proper));
        fr.emit(0.3, wake(1, WakeClass::Missed, WakeCause::RefreshLost));
        fr.emit(0.4, wake(2, WakeClass::Spurious, WakeCause::PortChurn));
        fr.emit(0.5, wake(2, WakeClass::Legacy, WakeCause::Proper));

        let counts = hide_obs::provenance::per_client(&fr);
        let priced = AttributionLedger::price(&counts, &NEXUS_ONE);

        // Re-derive by charging each event individually.
        let pricing = WakePricing::from_profile(&NEXUS_ONE);
        let mut online = AttributionLedger::new();
        for e in fr.events() {
            if let TraceEventKind::WakeDecision {
                aid, class, cause, ..
            } = e.kind
            {
                online
                    .entry((e.source, aid))
                    .charge_wake(class, cause, &pricing);
            }
        }
        assert_eq!(priced, online);
        assert!(priced.wake_columns_eq(&online));
        assert_eq!(priced.get((0, 1)).unwrap().proper_nj, 2 * pricing.wake_nj);
    }

    #[test]
    fn wake_columns_eq_ignores_radio_columns() {
        let mut a = AttributionLedger::new();
        a.entry((0, 1)).proper_nj = 5;
        let mut b = a.clone();
        b.entry((0, 1)).beacon_nj = 999;
        b.entry((0, 2)).burst_rx_nj = 7; // radio-only lane: invisible to wakes
        assert!(a.wake_columns_eq(&b));
        b.entry((0, 2)).legacy_nj = 1;
        assert!(!a.wake_columns_eq(&b));
    }

    #[test]
    fn exports_are_deterministic_and_integer_only() {
        let mut l = AttributionLedger::new();
        l.entry((0, 1)).proper_nj = 160_920_000;
        l.entry((0, 1)).beacon_nj = 1_250_000;
        l.entry((1, 2)).missed_forgone_nj.refresh_lost = 148_468_000;

        let section = l.to_metrics_section();
        assert!(section.starts_with("{\"clients\": 2"));
        assert!(section.contains("\"missed_refresh_lost_nj\": 148468000"));
        assert!(section.contains("\"spent_nj\": 162170000"));
        assert!(!section.contains('.'), "section must stay integer-only");
        assert_eq!(section.matches('{').count(), section.matches('}').count());

        let csv = l.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("source,aid,"));
        assert_eq!(lines[1], "0,1,160920000,0,0,0,1250000,0,0,162170000");

        let jsonl = l.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"missed_forgone\":{\"refresh_lost\":148468000"));
        assert_eq!(l.to_csv(), l.clone().to_csv());
    }

    #[test]
    fn streamed_lane_renderers_match_ledger_exports() {
        // The streamed fleet path emits header + rows shard by shard and
        // accumulates totals instead of building the fleet ledger; both
        // must be byte-equal to the in-memory ledger exports.
        let mut l = AttributionLedger::new();
        l.entry((0, 1)).proper_nj = 160_920_000;
        l.entry((0, 3)).spurious_nj.port_churn = 321_840_000;
        l.entry((2, 1)).missed_forgone_nj.unknown = 148_468_000;
        l.entry((2, 1)).beacon_nj = 1_250_000;

        let mut csv = String::from(ATTRIBUTION_CSV_HEADER);
        let mut jsonl = String::new();
        let mut totals = ClientEnergy::default();
        let mut clients = 0usize;
        for (key, e) in l.rows() {
            write_csv_row(&mut csv, *key, e);
            write_jsonl_row(&mut jsonl, *key, e);
            totals.merge_from(e);
            clients += 1;
        }
        assert_eq!(csv, l.to_csv());
        assert_eq!(jsonl, l.to_jsonl());
        assert_eq!(
            metrics_section_for(&totals, clients),
            l.to_metrics_section()
        );
    }
}
