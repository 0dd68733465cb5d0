//! Wakeup provenance: causal attribution of missed and spurious
//! wakeups from the event log.
//!
//! For every `WakeDecision` classified missed or spurious, the analyzer
//! walks the log **backward** over that client's events (same source
//! lane, same AID) to the nearest de-synchronizing event — a lost UDP
//! Port Message refresh, a staleness expiry, or a port-churn race — and
//! stops at the nearest *synchronizing* event (an applied refresh or a
//! join), beyond which the AP table and ground truth agreed and no
//! earlier event can be the cause.
//!
//! The fleet engine performs the same attribution online (it is O(1)
//! per wake decision there) and stamps the result into each
//! `WakeDecision` event; this analyzer re-derives the causes
//! independently from the log, so the two can be cross-checked — a
//! disagreement means either the engine or the log is wrong.

use crate::trace::{FlightRecorder, TraceEvent, TraceEventKind, WakeCause, WakeClass};

/// Per-cause tallies for one wake classification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseCounts {
    /// Attributed to a lost UDP Port Message refresh.
    pub refresh_lost: u64,
    /// Attributed to AP-side staleness expiry.
    pub entry_expired: u64,
    /// Attributed to a client-side port-churn race.
    pub port_churn: u64,
    /// No causal event found before the nearest sync point (or the
    /// ring bound dropped it).
    pub unknown: u64,
}

impl CauseCounts {
    /// Sum over all causes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.refresh_lost + self.entry_expired + self.port_churn + self.unknown
    }

    /// Adds another tally into this one (field-wise).
    pub fn merge_from(&mut self, other: &CauseCounts) {
        self.refresh_lost += other.refresh_lost;
        self.entry_expired += other.entry_expired;
        self.port_churn += other.port_churn;
        self.unknown += other.unknown;
    }

    fn bump(&mut self, cause: WakeCause) {
        match cause {
            WakeCause::RefreshLost => self.refresh_lost += 1,
            WakeCause::EntryExpired => self.entry_expired += 1,
            WakeCause::PortChurn => self.port_churn += 1,
            WakeCause::Proper | WakeCause::Unknown => self.unknown += 1,
        }
    }
}

/// The full provenance breakdown of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvenanceBreakdown {
    /// Wake decisions classified proper.
    pub proper: u64,
    /// Legacy (receive-all) wakes.
    pub legacy: u64,
    /// Missed wakeups, by cause.
    pub missed: CauseCounts,
    /// Spurious wakeups, by cause.
    pub spurious: CauseCounts,
}

impl ProvenanceBreakdown {
    /// True when every missed and spurious wakeup found a cause.
    #[must_use]
    pub fn fully_attributed(&self) -> bool {
        self.missed.unknown == 0 && self.spurious.unknown == 0
    }
}

/// Is this event a de-sync or sync point for `(source, aid)`, and if
/// de-sync, which cause does it carry for the given classification?
fn cause_at(kind: &TraceEventKind, class: WakeClass) -> Option<Result<WakeCause, ()>> {
    // `Ok(cause)` attributes; `Err(())` is a sync boundary (stop, unknown).
    match (kind, class) {
        (TraceEventKind::RefreshLost { .. }, WakeClass::Missed) => Some(Ok(WakeCause::RefreshLost)),
        (TraceEventKind::EntryExpired { .. }, WakeClass::Missed) => {
            Some(Ok(WakeCause::EntryExpired))
        }
        (TraceEventKind::PortChurn { .. }, _) => Some(Ok(WakeCause::PortChurn)),
        (TraceEventKind::RefreshApplied { .. } | TraceEventKind::Join { .. }, _) => Some(Err(())),
        _ => None,
    }
}

/// Walks backward from `at` to the causal event for a missed or
/// spurious wake of `(source, aid)`.
fn attribute(events: &[&TraceEvent], at: usize, class: WakeClass) -> WakeCause {
    let me = events[at];
    let (source, aid) = match me.kind {
        TraceEventKind::WakeDecision { aid, .. } => (me.source, aid),
        _ => return WakeCause::Unknown,
    };
    for e in events[..at].iter().rev() {
        if e.source != source {
            continue;
        }
        let event_aid = match e.kind {
            TraceEventKind::RefreshApplied { aid }
            | TraceEventKind::RefreshLost { aid }
            | TraceEventKind::PortChurn { aid }
            | TraceEventKind::EntryExpired { aid }
            | TraceEventKind::Join { aid, .. }
            | TraceEventKind::Leave { aid } => aid,
            _ => continue,
        };
        if event_aid != aid {
            continue;
        }
        match cause_at(&e.kind, class) {
            Some(Ok(cause)) => return cause,
            Some(Err(())) => return WakeCause::Unknown,
            None => continue,
        }
    }
    WakeCause::Unknown
}

/// Analyzes a trace: re-derives the cause of every missed and spurious
/// wakeup by walking the log backward, independently of the causes the
/// engine stamped online.
#[must_use]
pub fn analyze(rec: &FlightRecorder) -> ProvenanceBreakdown {
    let events: Vec<&TraceEvent> = rec.events().collect();
    let mut out = ProvenanceBreakdown::default();
    for (i, e) in events.iter().enumerate() {
        let TraceEventKind::WakeDecision { class, .. } = e.kind else {
            continue;
        };
        match class {
            WakeClass::Proper => out.proper += 1,
            WakeClass::Legacy => out.legacy += 1,
            WakeClass::Missed => out.missed.bump(attribute(&events, i, class)),
            WakeClass::Spurious => out.spurious.bump(attribute(&events, i, class)),
        }
    }
    out
}

/// Identity of one association lane: the emitting source (BSS index in
/// fleet runs) and the AID the AP assigned.
///
/// This is the only client identity the on-air protocol exposes, so
/// per-client attribution is really per-(source, AID): a client that
/// disassociates and rejoins under a new AID opens a new lane, and a
/// reused AID continues the old one.
pub type ClientKey = (u32, u16);

/// Wake-decision tallies for one client (one association lane).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientWakes {
    /// Wake decisions classified proper.
    pub proper: u64,
    /// Legacy (receive-all) wakes.
    pub legacy: u64,
    /// Missed wakeups, by cause.
    pub missed: CauseCounts,
    /// Spurious wakeups, by cause.
    pub spurious: CauseCounts,
}

impl ClientWakes {
    /// Total wake decisions recorded for this client.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.proper + self.legacy + self.missed.total() + self.spurious.total()
    }

    /// Adds another tally into this one (field-wise).
    pub fn merge_from(&mut self, other: &ClientWakes) {
        self.proper += other.proper;
        self.legacy += other.legacy;
        self.missed.merge_from(&other.missed);
        self.spurious.merge_from(&other.spurious);
    }

    fn bump(&mut self, class: WakeClass, cause: WakeCause) {
        match class {
            WakeClass::Proper => self.proper += 1,
            WakeClass::Legacy => self.legacy += 1,
            WakeClass::Missed => self.missed.bump(cause),
            WakeClass::Spurious => self.spurious.bump(cause),
        }
    }
}

/// Per-client wake-decision tallies for a whole trace, sorted by
/// [`ClientKey`] — the join surface between the flight recorder's
/// provenance stream and the energy model (`hide_energy::attribution`
/// prices each row under a device profile).
///
/// Merging is field-wise addition under a sorted key merge, so it is
/// associative and commutative and per-shard ledgers fanned in any
/// order produce identical rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvenanceLedger {
    rows: Vec<(ClientKey, ClientWakes)>,
}

impl ProvenanceLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        ProvenanceLedger::default()
    }

    /// The rows in ascending `(source, aid)` order.
    #[must_use]
    pub fn rows(&self) -> &[(ClientKey, ClientWakes)] {
        &self.rows
    }

    /// Number of clients (association lanes) with at least one wake
    /// decision.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no wake decisions were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The tallies for one client, if any were recorded.
    #[must_use]
    pub fn get(&self, key: ClientKey) -> Option<&ClientWakes> {
        self.rows
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &self.rows[i].1)
    }

    /// Mutable access to one client's row, inserted zeroed when absent.
    pub fn entry(&mut self, key: ClientKey) -> &mut ClientWakes {
        let i = match self.rows.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => i,
            Err(i) => {
                self.rows.insert(i, (key, ClientWakes::default()));
                i
            }
        };
        &mut self.rows[i].1
    }

    /// Sum over every client.
    #[must_use]
    pub fn totals(&self) -> ClientWakes {
        let mut out = ClientWakes::default();
        for (_, w) in &self.rows {
            out.merge_from(w);
        }
        out
    }

    /// Folds another ledger into this one: rows with the same key add
    /// field-wise, new keys insert in sorted position.
    pub fn merge_from(&mut self, other: &ProvenanceLedger) {
        let mut merged = Vec::with_capacity(self.rows.len() + other.rows.len());
        let (mut a, mut b) = (self.rows.iter().peekable(), other.rows.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some((ka, _)), Some((kb, _))) => match ka.cmp(kb) {
                    std::cmp::Ordering::Less => merged.push(*a.next().unwrap()),
                    std::cmp::Ordering::Greater => merged.push(*b.next().unwrap()),
                    std::cmp::Ordering::Equal => {
                        let (k, mut w) = *a.next().unwrap();
                        w.merge_from(&b.next().unwrap().1);
                        merged.push((k, w));
                    }
                },
                (Some(_), None) => merged.push(*a.next().unwrap()),
                (None, Some(_)) => merged.push(*b.next().unwrap()),
                (None, None) => break,
            }
        }
        self.rows = merged;
    }
}

/// Joins the trace's wake-decision stream into a per-client ledger
/// using the causes the engine stamped online (cross-checked against
/// the backward walk by [`analyze`]).
#[must_use]
pub fn per_client(rec: &FlightRecorder) -> ProvenanceLedger {
    let mut out = ProvenanceLedger::new();
    for e in rec.events() {
        let TraceEventKind::WakeDecision {
            aid, class, cause, ..
        } = e.kind
        else {
            continue;
        };
        out.entry((e.source, aid)).bump(class, cause);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;

    fn wake(class: WakeClass) -> TraceEventKind {
        TraceEventKind::WakeDecision {
            aid: 1,
            port: 5353,
            frame_id: 0,
            class,
            cause: WakeCause::Unknown,
        }
    }

    #[test]
    fn missed_wake_attributes_to_nearest_desync() {
        let mut fr = FlightRecorder::new();
        fr.emit(0.0, TraceEventKind::Join { aid: 1, hide: true });
        fr.emit(0.1, TraceEventKind::RefreshApplied { aid: 1 });
        fr.emit(0.2, TraceEventKind::RefreshLost { aid: 1 });
        fr.emit(0.3, wake(WakeClass::Missed));
        let b = analyze(&fr);
        assert_eq!(b.missed.refresh_lost, 1);
        assert_eq!(b.missed.total(), 1);
        assert!(b.fully_attributed());
    }

    #[test]
    fn sync_boundary_stops_the_walk() {
        let mut fr = FlightRecorder::new();
        fr.emit(0.1, TraceEventKind::RefreshLost { aid: 1 });
        fr.emit(0.2, TraceEventKind::RefreshApplied { aid: 1 });
        fr.emit(0.3, wake(WakeClass::Missed));
        let b = analyze(&fr);
        assert_eq!(b.missed.unknown, 1);
        assert!(!b.fully_attributed());
    }

    #[test]
    fn spurious_wake_attributes_to_port_churn_only() {
        let mut fr = FlightRecorder::new();
        fr.emit(0.1, TraceEventKind::RefreshLost { aid: 1 });
        fr.emit(0.2, TraceEventKind::PortChurn { aid: 1 });
        fr.emit(0.3, wake(WakeClass::Spurious));
        let b = analyze(&fr);
        assert_eq!(b.spurious.port_churn, 1);
        // A second spurious wake with only a lost refresh behind it
        // stays unknown: losing a refresh cannot flag a *wrong* port.
        let mut fr2 = FlightRecorder::new();
        fr2.emit(0.1, TraceEventKind::RefreshLost { aid: 1 });
        fr2.emit(0.3, wake(WakeClass::Spurious));
        assert_eq!(analyze(&fr2).spurious.unknown, 1);
    }

    #[test]
    fn attribution_is_per_client_and_per_source() {
        let mut fr = FlightRecorder::new();
        // De-sync on a different AID and a different source must not
        // leak into client (src 0, aid 1).
        fr.emit(0.1, TraceEventKind::RefreshLost { aid: 2 });
        let mut other = FlightRecorder::new();
        other.set_source(9);
        other.emit(0.15, TraceEventKind::RefreshLost { aid: 1 });
        let mut fr = FlightRecorder::merged(vec![fr, other]);
        fr.emit(0.3, wake(WakeClass::Missed));
        let b = analyze(&fr);
        assert_eq!(b.missed.unknown, 1);
        assert_eq!(b.missed.refresh_lost, 0);
    }

    fn wake_for(aid: u16, class: WakeClass, cause: WakeCause) -> TraceEventKind {
        TraceEventKind::WakeDecision {
            aid,
            port: 5353,
            frame_id: 0,
            class,
            cause,
        }
    }

    #[test]
    fn per_client_ledger_splits_by_source_and_aid() {
        let mut a = FlightRecorder::new();
        a.emit(0.1, wake_for(1, WakeClass::Proper, WakeCause::Proper));
        a.emit(0.2, wake_for(1, WakeClass::Missed, WakeCause::RefreshLost));
        a.emit(0.3, wake_for(2, WakeClass::Spurious, WakeCause::PortChurn));
        let mut b = FlightRecorder::new();
        b.set_source(5);
        b.emit(0.15, wake_for(1, WakeClass::Legacy, WakeCause::Proper));
        let a = FlightRecorder::merged(vec![a, b]);

        let ledger = per_client(&a);
        assert_eq!(ledger.len(), 3);
        let keys: Vec<ClientKey> = ledger.rows().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(0, 1), (0, 2), (5, 1)]);
        let c01 = ledger.get((0, 1)).unwrap();
        assert_eq!(c01.proper, 1);
        assert_eq!(c01.missed.refresh_lost, 1);
        assert_eq!(ledger.get((0, 2)).unwrap().spurious.port_churn, 1);
        assert_eq!(ledger.get((5, 1)).unwrap().legacy, 1);
        assert_eq!(ledger.get((9, 9)), None);
        let totals = ledger.totals();
        assert_eq!(totals.total(), 4);
    }

    #[test]
    fn ledger_merge_adds_and_interleaves() {
        let mut a = ProvenanceLedger::new();
        a.entry((0, 1)).proper = 2;
        a.entry((2, 1)).missed.entry_expired = 1;
        let mut b = ProvenanceLedger::new();
        b.entry((0, 1)).proper = 3;
        b.entry((1, 4)).legacy = 7;

        // a + b == b + a, and shared keys add field-wise.
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.len(), 3);
        assert_eq!(ab.get((0, 1)).unwrap().proper, 5);
        assert_eq!(ab.get((1, 4)).unwrap().legacy, 7);
        let mut with_empty = ab.clone();
        with_empty.merge_from(&ProvenanceLedger::new());
        assert_eq!(with_empty, ab);
    }

    #[test]
    fn proper_and_legacy_are_tallied() {
        let mut fr = FlightRecorder::new();
        fr.emit(0.1, wake(WakeClass::Proper));
        fr.emit(
            0.2,
            TraceEventKind::WakeDecision {
                aid: 2,
                port: 0,
                frame_id: 1,
                class: WakeClass::Legacy,
                cause: WakeCause::Proper,
            },
        );
        let b = analyze(&fr);
        assert_eq!(b.proper, 1);
        assert_eq!(b.legacy, 1);
        assert_eq!(b.missed.total() + b.spurious.total(), 0);
    }
}
