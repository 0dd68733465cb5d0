//! The Client UDP Port Table (Section III.C).
//!
//! A hash table keyed by UDP port, mapping to the set of clients (AIDs)
//! that listen on that port. Refreshed whenever a UDP Port Message
//! arrives: the client's old ports are deleted and the new ones
//! inserted — exactly the `τ_del`/`τ_ins` operations the paper's delay
//! analysis (Eq. 25) charges for. Lookup (`τ_lp`) happens once per
//! buffered broadcast frame at each DTIM boundary (Eq. 26).
//!
//! The paper models the table as O(1) hash lookups; this
//! implementation delivers that: the port side is a deterministic
//! [`FxHashMap`] whose values are compact **sorted `Vec<Aid>` posting
//! lists**, so [`ClientPortTable::postings_for_port`] is a hash probe
//! plus a borrowed slice — no allocation and no tree walk on the
//! per-DTIM hot path. The client side is a column indexed by AID value
//! (AIDs are small and dense, at most 2007), as the BTIM's partial
//! virtual bitmap is.
//!
//! Operation counts are tracked so the delay analysis and the benches
//! can report them.

use crate::fx::FxHashMap;
use hide_obs::{Counter, MetricsSink};
use hide_wifi::mac::Aid;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters of hash-table operations performed, matching the
/// `τ_ins` / `τ_del` / `τ_lp` cost terms of Eqs. (25)–(26).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableOpCounts {
    /// Number of port insertions.
    pub inserts: u64,
    /// Number of port deletions.
    pub deletes: u64,
    /// Number of port lookups.
    pub lookups: u64,
    /// Lookups that found at least one listening client.
    pub lookup_hits: u64,
    /// Lookups that found no listener.
    pub lookup_misses: u64,
}

/// What [`ClientPortTable::expire_stale`] removed: the affected
/// clients (sorted by AID, so callers iterate deterministically) and
/// the number of `(port, client)` entries dropped.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExpiryReport {
    /// Clients whose entries were expired, ascending by AID.
    pub clients: Vec<Aid>,
    /// Total `(port, client)` pairs removed.
    pub entries_removed: u64,
}

impl ExpiryReport {
    /// `true` when nothing was expired.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }
}

/// The AP's table of open UDP ports per client.
///
/// # Example
///
/// ```
/// use hide_core::ap::ClientPortTable;
/// use hide_wifi::mac::Aid;
///
/// let mut table = ClientPortTable::new();
/// let a = Aid::new(1)?;
/// let b = Aid::new(2)?;
/// table.update_client(a, &[5353, 1900]);
/// table.update_client(b, &[5353]);
/// assert_eq!(table.clients_for_port(5353), vec![a, b]);
/// assert_eq!(table.clients_for_port(1900), vec![a]);
/// assert!(table.clients_for_port(9999).is_empty());
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Debug, Default)]
pub struct ClientPortTable {
    /// port → sorted posting list of listening clients.
    by_port: FxHashMap<u16, Vec<Aid>>,
    /// AID value → sorted list of the client's open ports (empty when
    /// it has none), grown on first use. A cleared list keeps its
    /// capacity, so a refresh that changes the set allocates nothing.
    by_client: Vec<Vec<u16>>,
    /// AID value → time the client's entries were last refreshed.
    /// Only clients updated through [`ClientPortTable::update_client_at`]
    /// have a stamp; untimestamped clients are exempt from expiry. A
    /// stamp implies a non-empty port list.
    last_refresh: Vec<Option<f64>>,
    /// Running counts of clients with at least one port and of stamped
    /// clients, so [`ClientPortTable::client_count`] and the "no
    /// stamp" test of [`ClientPortTable::expire_stale`] stay O(1).
    clients: usize,
    stamped: usize,
    /// Running count of stored `(port, client)` pairs, so
    /// [`ClientPortTable::entry_count`] is O(1) on the per-DTIM path
    /// instead of a walk over every client's port list.
    entries: usize,
    /// Conservative lower bound on the minimum `last_refresh`
    /// timestamp (never above it, may be below). Lets
    /// [`ClientPortTable::expire_stale`] prove "nothing is stale"
    /// without scanning: if the bound is at or past the cutoff, so is
    /// every timestamp. The `Default` of 0.0 is sound for the
    /// non-negative simulation clocks every caller uses.
    min_refresh: f64,
    /// Reusable sort/dedup buffer for
    /// [`ClientPortTable::update_client`], so steady-state refreshes
    /// are allocation-free.
    scratch: Vec<u16>,
    inserts: AtomicU64,
    deletes: AtomicU64,
    lookups: AtomicU64,
    lookup_hits: AtomicU64,
    lookup_misses: AtomicU64,
}

/// Index of `client` in the AID-indexed columns.
fn slot(client: Aid) -> usize {
    usize::from(client.value())
}

impl ClientPortTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ClientPortTable::default()
    }

    /// Replaces `client`'s port set with `ports`: deletes every old
    /// entry, then inserts every new one (the refresh procedure of
    /// Section V.B). Duplicate ports in the input are inserted once.
    pub fn update_client(&mut self, client: Aid, ports: &[u16]) {
        let v = slot(client);
        if self.by_client.len() <= v {
            self.by_client.resize_with(v + 1, Vec::new);
            self.last_refresh.resize(v + 1, None);
        }
        // Sort/dedup into the reusable scratch buffer — steady-state
        // refreshes allocate nothing.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(ports);
        scratch.sort_unstable();
        scratch.dedup();
        // Refresh fast path: when the new set equals the stored one,
        // the delete-all-then-reinsert below would rebuild the exact
        // same postings. Skip the structural churn but tick the
        // counters exactly as the full procedure would — the deletes
        // and inserts still *happen* per Section V.B, they just cancel.
        if self.by_client[v] == scratch {
            if self.last_refresh[v].take().is_some() {
                self.stamped -= 1;
            }
            self.deletes
                .fetch_add(scratch.len() as u64, Ordering::Relaxed);
            self.inserts
                .fetch_add(scratch.len() as u64, Ordering::Relaxed);
            self.scratch = scratch;
            return;
        }
        self.remove_client(client);
        for &port in &scratch {
            let postings = self.by_port.entry(port).or_default();
            if let Err(at) = postings.binary_search(&client) {
                postings.insert(at, client);
            }
        }
        self.inserts
            .fetch_add(scratch.len() as u64, Ordering::Relaxed);
        self.entries += scratch.len();
        if !scratch.is_empty() {
            self.clients += 1;
            self.by_client[v].extend_from_slice(&scratch);
        }
        self.scratch = scratch;
    }

    /// [`ClientPortTable::update_client`] plus a refresh timestamp, so
    /// the entries become eligible for [`ClientPortTable::expire_stale`]
    /// once `now` falls behind the cutoff. This is the time-aware form
    /// a discrete-event AP uses for UDP Port Message refreshes.
    pub fn update_client_at(&mut self, client: Aid, ports: &[u16], now: f64) {
        self.update_client(client, ports);
        // The update left the client unstamped; stamp it if it kept
        // any port.
        let v = slot(client);
        if !self.by_client[v].is_empty() {
            if self.stamped == 0 || now < self.min_refresh {
                self.min_refresh = now;
            }
            self.last_refresh[v] = Some(now);
            self.stamped += 1;
        }
    }

    /// Time `client`'s entries were last refreshed via
    /// [`ClientPortTable::update_client_at`], if ever.
    pub fn last_refresh_of(&self, client: Aid) -> Option<f64> {
        self.last_refresh.get(slot(client)).copied().flatten()
    }

    /// Every client that currently has at least one stored port,
    /// ascending by AID.
    pub fn client_aids(&self) -> Vec<Aid> {
        self.aids_where(|v| !self.by_client[v].is_empty())
    }

    /// The AIDs whose column index satisfies `keep`, ascending.
    fn aids_where(&self, mut keep: impl FnMut(usize) -> bool) -> Vec<Aid> {
        (1..self.by_client.len())
            .filter(|&v| keep(v))
            .map(|v| Aid::new(v as u16).expect("column indices are AID values"))
            .collect()
    }

    /// Drops every timestamped client whose last refresh is strictly
    /// before `cutoff` — the AP-side aging that keeps the table from
    /// accumulating entries for clients that silently left (Section
    /// V.B's refresh contract). Clients stored through the untimestamped
    /// [`ClientPortTable::update_client`] are never expired.
    pub fn expire_stale(&mut self, cutoff: f64) -> ExpiryReport {
        // Every timestamp is at least `min_refresh`; if that bound has
        // not fallen behind the cutoff, no entry has either, and the
        // per-DTIM call costs two comparisons instead of a table scan.
        if self.stamped == 0 || self.min_refresh >= cutoff {
            return ExpiryReport::default();
        }
        let mut keep_min = f64::INFINITY;
        let stale = self.aids_where(|v| match self.last_refresh[v] {
            Some(at) if at < cutoff => true,
            Some(at) => {
                keep_min = keep_min.min(at);
                false
            }
            None => false,
        });
        self.min_refresh = if keep_min.is_finite() { keep_min } else { 0.0 };
        let mut entries_removed = 0u64;
        for &client in &stale {
            entries_removed += self.ports_of(client).len() as u64;
            self.remove_client(client);
        }
        ExpiryReport {
            clients: stale,
            entries_removed,
        }
    }

    /// Removes every entry for `client` (disassociation, or the delete
    /// half of a refresh).
    pub fn remove_client(&mut self, client: Aid) {
        let v = slot(client);
        let Some(old_ports) = self.by_client.get_mut(v) else {
            return;
        };
        if self.last_refresh[v].take().is_some() {
            self.stamped -= 1;
        }
        if old_ports.is_empty() {
            return;
        }
        self.clients -= 1;
        self.entries -= old_ports.len();
        let mut deleted = 0u64;
        for port in old_ports.drain(..) {
            if let Some(postings) = self.by_port.get_mut(&port) {
                if let Ok(at) = postings.binary_search(&client) {
                    postings.remove(at);
                }
                if postings.is_empty() {
                    self.by_port.remove(&port);
                }
                deleted += 1;
            }
        }
        self.deletes.fetch_add(deleted, Ordering::Relaxed);
    }

    /// Looks up the clients listening on `port` (Algorithm 1, line 4),
    /// sorted by AID. Allocates the result; the flag hot path uses
    /// [`ClientPortTable::postings_for_port`] instead.
    pub fn clients_for_port(&self, port: u16) -> Vec<Aid> {
        self.postings_for_port(port).to_vec()
    }

    /// The posting list of `port` **without** touching the `τ_lp`
    /// counters (`None` when the port has no listeners): the raw read
    /// behind batched flag sweeps that reconstruct the exact lookup
    /// tallies themselves via [`ClientPortTable::charge_lookups`].
    pub fn raw_postings(&self, port: u16) -> Option<&[Aid]> {
        self.by_port.get(&port).map(Vec::as_slice)
    }

    /// Adds a batch of `τ_lp` accounting in one shot, equivalent to
    /// `lookups` individual [`ClientPortTable::client_listens_on`]
    /// calls of which `hits` found the port present and `misses` did
    /// not. The counters are plain sums, so batched and per-call
    /// charging snapshot identically.
    pub fn charge_lookups(&self, lookups: u64, hits: u64, misses: u64) {
        debug_assert_eq!(lookups, hits + misses);
        self.lookups.fetch_add(lookups, Ordering::Relaxed);
        self.lookup_hits.fetch_add(hits, Ordering::Relaxed);
        self.lookup_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Borrowed posting list of the clients listening on `port`,
    /// sorted by AID — the allocation-free form of
    /// [`ClientPortTable::clients_for_port`]. Counts one `τ_lp`.
    pub fn postings_for_port(&self, port: u16) -> &[Aid] {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        match self.by_port.get(&port) {
            Some(postings) => {
                self.lookup_hits.fetch_add(1, Ordering::Relaxed);
                postings
            }
            None => {
                self.lookup_misses.fetch_add(1, Ordering::Relaxed);
                &[]
            }
        }
    }

    /// Whether `client` listens on `port`.
    pub fn client_listens_on(&self, client: Aid, port: u16) -> bool {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        match self.by_port.get(&port) {
            Some(postings) => {
                self.lookup_hits.fetch_add(1, Ordering::Relaxed);
                postings.binary_search(&client).is_ok()
            }
            None => {
                self.lookup_misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// The ports currently stored for `client`, sorted.
    pub fn ports_of(&self, client: Aid) -> &[u16] {
        self.by_client.get(slot(client)).map_or(&[], Vec::as_slice)
    }

    /// Number of clients with at least one stored port.
    pub fn client_count(&self) -> usize {
        self.clients
    }

    /// Number of distinct ports with at least one listener.
    pub fn port_count(&self) -> usize {
        self.by_port.len()
    }

    /// Total stored (port, client) pairs. O(1): the count is maintained
    /// by every update and removal.
    pub fn entry_count(&self) -> usize {
        debug_assert_eq!(self.entries, self.by_client.iter().map(Vec::len).sum());
        self.entries
    }

    /// Snapshot of the operation counters.
    pub fn op_counts(&self) -> TableOpCounts {
        TableOpCounts {
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            lookup_hits: self.lookup_hits.load(Ordering::Relaxed),
            lookup_misses: self.lookup_misses.load(Ordering::Relaxed),
        }
    }

    /// Resets the operation counters.
    pub fn reset_op_counts(&self) {
        self.inserts.store(0, Ordering::Relaxed);
        self.deletes.store(0, Ordering::Relaxed);
        self.lookups.store(0, Ordering::Relaxed);
        self.lookup_hits.store(0, Ordering::Relaxed);
        self.lookup_misses.store(0, Ordering::Relaxed);
    }

    /// Snapshots the operation counters into a metrics sink — the
    /// counter-snapshot idiom: the table keeps cheap relaxed atomics on
    /// its hot paths and the caller folds them into the run's recorder
    /// once, at a point of its choosing.
    pub fn observe_into<S: MetricsSink>(&self, sink: &mut S) {
        let counts = self.op_counts();
        sink.add(Counter::PortInserts, counts.inserts);
        sink.add(Counter::PortDeletes, counts.deletes);
        sink.add(Counter::PortLookups, counts.lookups);
        sink.add(Counter::PortLookupHits, counts.lookup_hits);
        sink.add(Counter::PortLookupMisses, counts.lookup_misses);
    }
}

impl Clone for ClientPortTable {
    fn clone(&self) -> Self {
        ClientPortTable {
            by_port: self.by_port.clone(),
            by_client: self.by_client.clone(),
            last_refresh: self.last_refresh.clone(),
            clients: self.clients,
            stamped: self.stamped,
            entries: self.entries,
            min_refresh: self.min_refresh,
            scratch: Vec::new(),
            inserts: AtomicU64::new(self.inserts.load(Ordering::Relaxed)),
            deletes: AtomicU64::new(self.deletes.load(Ordering::Relaxed)),
            lookups: AtomicU64::new(self.lookups.load(Ordering::Relaxed)),
            lookup_hits: AtomicU64::new(self.lookup_hits.load(Ordering::Relaxed)),
            lookup_misses: AtomicU64::new(self.lookup_misses.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_wifi::mac::MAX_AID;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn aid(v: u16) -> Aid {
        Aid::new(v).unwrap()
    }

    #[test]
    fn empty_table() {
        let table = ClientPortTable::new();
        assert_eq!(table.client_count(), 0);
        assert_eq!(table.port_count(), 0);
        assert!(table.clients_for_port(80).is_empty());
    }

    #[test]
    fn update_then_lookup() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[80, 443]);
        assert_eq!(table.clients_for_port(80), vec![aid(1)]);
        assert_eq!(table.ports_of(aid(1)), &[80, 443]);
        assert!(table.client_listens_on(aid(1), 443));
        assert!(!table.client_listens_on(aid(1), 8080));
    }

    #[test]
    fn refresh_replaces_old_ports() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[80, 443]);
        table.update_client(aid(1), &[443, 8080]);
        assert!(table.clients_for_port(80).is_empty());
        assert_eq!(table.clients_for_port(8080), vec![aid(1)]);
        assert_eq!(table.entry_count(), 2);
    }

    #[test]
    fn refresh_counts_deletes_and_inserts() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[1, 2, 3]);
        table.update_client(aid(1), &[4, 5]);
        let counts = table.op_counts();
        assert_eq!(counts.inserts, 5);
        assert_eq!(counts.deletes, 3);
    }

    #[test]
    fn multiple_clients_share_a_port() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(2), &[5353]);
        table.update_client(aid(1), &[5353]);
        // Sorted by AID regardless of insertion order.
        assert_eq!(table.clients_for_port(5353), vec![aid(1), aid(2)]);
    }

    #[test]
    fn remove_client_clears_entries() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[5353]);
        table.update_client(aid(2), &[5353]);
        table.remove_client(aid(1));
        assert_eq!(table.clients_for_port(5353), vec![aid(2)]);
        table.remove_client(aid(2));
        assert_eq!(table.port_count(), 0);
        // Removing an absent client is a no-op.
        table.remove_client(aid(7));
    }

    #[test]
    fn duplicate_ports_deduplicated() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[80, 80, 80]);
        assert_eq!(table.entry_count(), 1);
        assert_eq!(table.op_counts().inserts, 1);
    }

    #[test]
    fn empty_port_list_clears_client() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[80]);
        table.update_client(aid(1), &[]);
        assert_eq!(table.client_count(), 0);
        assert!(table.ports_of(aid(1)).is_empty());
    }

    #[test]
    fn lookup_counter_increments() {
        let table = ClientPortTable::new();
        table.reset_op_counts();
        let _ = table.clients_for_port(1);
        let _ = table.client_listens_on(aid(1), 2);
        assert_eq!(table.op_counts().lookups, 2);
    }

    #[test]
    fn postings_borrow_is_sorted_and_counts_one_lookup() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(9), &[5353]);
        table.update_client(aid(3), &[5353]);
        table.update_client(aid(6), &[5353]);
        table.reset_op_counts();
        let postings = table.postings_for_port(5353);
        assert_eq!(postings, &[aid(3), aid(6), aid(9)]);
        assert_eq!(table.op_counts().lookups, 1);
    }

    #[test]
    fn lookups_split_into_hits_and_misses() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[5353]);
        table.reset_op_counts();
        let _ = table.postings_for_port(5353); // hit
        let _ = table.postings_for_port(80); // miss
        let _ = table.client_listens_on(aid(2), 5353); // hit (port known)
        let _ = table.client_listens_on(aid(1), 80); // miss
        let counts = table.op_counts();
        assert_eq!(counts.lookups, 4);
        assert_eq!(counts.lookup_hits, 2);
        assert_eq!(counts.lookup_misses, 2);
    }

    #[test]
    fn raw_postings_reads_without_counting() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[5353]);
        table.reset_op_counts();
        assert_eq!(table.raw_postings(5353), Some([aid(1)].as_slice()));
        assert_eq!(table.raw_postings(80), None);
        assert_eq!(table.op_counts().lookups, 0);
    }

    #[test]
    fn charge_lookups_matches_per_call_counting() {
        let mut counted = ClientPortTable::new();
        counted.update_client(aid(1), &[5353]);
        let batched = counted.clone();
        counted.reset_op_counts();
        batched.reset_op_counts();
        let _ = counted.client_listens_on(aid(1), 5353); // hit
        let _ = counted.client_listens_on(aid(2), 5353); // hit (port known)
        let _ = counted.client_listens_on(aid(1), 80); // miss
        batched.charge_lookups(3, 2, 1);
        assert_eq!(counted.op_counts(), batched.op_counts());
    }

    #[test]
    fn entry_count_tracks_updates_and_expiry() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[80, 443]);
        table.update_client_at(aid(2), &[80, 443, 8080], 0.0);
        assert_eq!(table.entry_count(), 5);
        table.update_client(aid(1), &[80]);
        assert_eq!(table.entry_count(), 4);
        let report = table.expire_stale(1.0);
        assert_eq!(report.entries_removed, 3);
        assert_eq!(table.entry_count(), 1);
        table.remove_client(aid(1));
        assert_eq!(table.entry_count(), 0);
    }

    #[test]
    fn observe_into_snapshots_op_counts() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[1, 2]);
        table.update_client(aid(1), &[3]);
        let _ = table.postings_for_port(3);
        let _ = table.postings_for_port(999);
        let mut rec = hide_obs::Recorder::new();
        table.observe_into(&mut rec);
        assert_eq!(rec.counter(Counter::PortInserts), 3);
        assert_eq!(rec.counter(Counter::PortDeletes), 2);
        assert_eq!(rec.counter(Counter::PortLookups), 2);
        assert_eq!(rec.counter(Counter::PortLookupHits), 1);
        assert_eq!(rec.counter(Counter::PortLookupMisses), 1);
    }

    #[test]
    fn clone_preserves_contents() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[80]);
        table.update_client_at(aid(2), &[81], 5.0);
        let copy = table.clone();
        assert_eq!(copy.clients_for_port(80), vec![aid(1)]);
        assert_eq!(copy.last_refresh_of(aid(2)), Some(5.0));
    }

    #[test]
    fn expire_stale_drops_old_timestamped_entries() {
        let mut table = ClientPortTable::new();
        table.update_client_at(aid(1), &[80, 443], 0.0);
        table.update_client_at(aid(2), &[80], 10.0);
        let report = table.expire_stale(5.0);
        assert_eq!(report.clients, vec![aid(1)]);
        assert_eq!(report.entries_removed, 2);
        assert!(!report.is_empty());
        assert_eq!(table.clients_for_port(80), vec![aid(2)]);
        assert!(table.ports_of(aid(1)).is_empty());
        assert_eq!(table.last_refresh_of(aid(1)), None);
    }

    #[test]
    fn expire_stale_spares_untimestamped_clients() {
        let mut table = ClientPortTable::new();
        table.update_client(aid(1), &[80]);
        let report = table.expire_stale(f64::MAX);
        assert!(report.is_empty());
        assert_eq!(report.entries_removed, 0);
        assert_eq!(table.clients_for_port(80), vec![aid(1)]);
    }

    #[test]
    fn expire_stale_report_is_sorted() {
        let mut table = ClientPortTable::new();
        for v in [9u16, 3, 6, 1] {
            table.update_client_at(aid(v), &[5353], 0.0);
        }
        let report = table.expire_stale(1.0);
        assert_eq!(report.clients, vec![aid(1), aid(3), aid(6), aid(9)]);
        assert_eq!(report.entries_removed, 4);
        assert_eq!(table.port_count(), 0);
    }

    #[test]
    fn refresh_renews_timestamp() {
        let mut table = ClientPortTable::new();
        table.update_client_at(aid(1), &[80], 0.0);
        table.update_client_at(aid(1), &[80], 20.0);
        assert_eq!(table.last_refresh_of(aid(1)), Some(20.0));
        assert!(table.expire_stale(10.0).is_empty());
        // Plain update clears the stamp: the client is exempt again.
        table.update_client(aid(1), &[80]);
        assert_eq!(table.last_refresh_of(aid(1)), None);
        assert!(table.expire_stale(f64::MAX).is_empty());
    }

    #[test]
    fn empty_refresh_leaves_no_stamp() {
        let mut table = ClientPortTable::new();
        table.update_client_at(aid(1), &[], 3.0);
        assert_eq!(table.last_refresh_of(aid(1)), None);
        assert_eq!(table.client_count(), 0);
    }

    /// The table's contract written with ordered maps and no fast
    /// paths: the oracle the hash/column table is checked against.
    #[derive(Debug, Default)]
    struct BTreePortTable {
        by_port: BTreeMap<u16, BTreeSet<Aid>>,
        by_client: BTreeMap<Aid, Vec<u16>>,
        last_refresh: BTreeMap<Aid, f64>,
        counts: TableOpCounts,
    }

    impl BTreePortTable {
        fn update_client(&mut self, client: Aid, ports: &[u16]) {
            self.remove_client(client);
            let mut stored = ports.to_vec();
            stored.sort_unstable();
            stored.dedup();
            for &port in &stored {
                self.by_port.entry(port).or_default().insert(client);
            }
            self.counts.inserts += stored.len() as u64;
            if !stored.is_empty() {
                self.by_client.insert(client, stored);
            }
        }

        fn update_client_at(&mut self, client: Aid, ports: &[u16], now: f64) {
            self.update_client(client, ports);
            if self.by_client.contains_key(&client) {
                self.last_refresh.insert(client, now);
            }
        }

        fn remove_client(&mut self, client: Aid) {
            self.last_refresh.remove(&client);
            let Some(old_ports) = self.by_client.remove(&client) else {
                return;
            };
            self.counts.deletes += old_ports.len() as u64;
            for port in old_ports {
                let set = self.by_port.get_mut(&port).expect("posted port");
                set.remove(&client);
                if set.is_empty() {
                    self.by_port.remove(&port);
                }
            }
        }

        fn expire_stale(&mut self, cutoff: f64) -> ExpiryReport {
            let clients: Vec<Aid> = self
                .last_refresh
                .iter()
                .filter(|&(_, &at)| at < cutoff)
                .map(|(&client, _)| client)
                .collect();
            let entries_removed = clients.iter().map(|c| self.by_client[c].len() as u64).sum();
            for &client in &clients {
                self.remove_client(client);
            }
            ExpiryReport {
                clients,
                entries_removed,
            }
        }

        fn client_listens_on(&mut self, client: Aid, port: u16) -> bool {
            self.counts.lookups += 1;
            match self.by_port.get(&port) {
                Some(set) => {
                    self.counts.lookup_hits += 1;
                    set.contains(&client)
                }
                None => {
                    self.counts.lookup_misses += 1;
                    false
                }
            }
        }
    }

    proptest! {
        /// Random refreshes (timed, untimed, unchanged and changed
        /// sets), removals, lookups and expiries over the whole AID
        /// space leave the table observably equal to the oracle after
        /// every call.
        #[test]
        fn agrees_with_btree_oracle(
            ops in vec(
                (
                    0u8..6,
                    (0u8..4, 1u16..=MAX_AID)
                        .prop_map(|(k, v)| if k == 0 { v } else { v % 12 + 1 }),
                    vec(1u16..40, 0..6),
                    0u16..60,
                ),
                1..120,
            ),
        ) {
            let mut table = ClientPortTable::new();
            let mut oracle = BTreePortTable::default();
            let mut seen = BTreeSet::new();
            for (kind, v, ports, t) in ops {
                let client = aid(v);
                seen.insert(client);
                let at = f64::from(t);
                // Kinds 2 and 3 re-send the stored set, out of order and
                // with a duplicate, to take the unchanged-set fast path.
                let mut same = oracle.by_client.get(&client).cloned().unwrap_or_default();
                same.reverse();
                same.extend(same.first().copied());
                match kind {
                    0 => {
                        table.update_client(client, &ports);
                        oracle.update_client(client, &ports);
                    }
                    1 => {
                        table.update_client_at(client, &ports, at);
                        oracle.update_client_at(client, &ports, at);
                    }
                    2 => {
                        table.update_client_at(client, &same, at);
                        oracle.update_client_at(client, &same, at);
                    }
                    3 => {
                        table.update_client(client, &same);
                        oracle.update_client(client, &same);
                    }
                    4 => {
                        table.remove_client(client);
                        oracle.remove_client(client);
                        let port = ports.first().copied().unwrap_or(1);
                        prop_assert_eq!(
                            table.client_listens_on(client, port),
                            oracle.client_listens_on(client, port)
                        );
                    }
                    _ => prop_assert_eq!(table.expire_stale(at), oracle.expire_stale(at)),
                }
                for port in 1u16..40 {
                    let want: Vec<Aid> = oracle
                        .by_port
                        .get(&port)
                        .map(|set| set.iter().copied().collect())
                        .unwrap_or_default();
                    prop_assert_eq!(table.raw_postings(port).unwrap_or(&[]), want.as_slice());
                }
                for &c in &seen {
                    let want = oracle.by_client.get(&c).map_or(&[][..], Vec::as_slice);
                    prop_assert_eq!(table.ports_of(c), want);
                    prop_assert_eq!(table.last_refresh_of(c), oracle.last_refresh.get(&c).copied());
                }
                let aids: Vec<Aid> = oracle.by_client.keys().copied().collect();
                prop_assert_eq!(table.client_aids(), aids);
                prop_assert_eq!(table.client_count(), oracle.by_client.len());
                prop_assert_eq!(table.port_count(), oracle.by_port.len());
                let entries: usize = oracle.by_client.values().map(Vec::len).sum();
                prop_assert_eq!(table.entry_count(), entries);
                prop_assert_eq!(table.op_counts(), oracle.counts);
            }
        }
    }
}
