//! The event-tracing layer: a zero-cost [`TraceSink`] and the bounded
//! [`FlightRecorder`] ring buffer behind it.
//!
//! Tracing follows the same pattern as metrics ([`crate::MetricsSink`]):
//! hot paths are generic over a sink, and the default [`NoopTrace`]
//! monomorphizes to nothing — [`TraceSink::is_enabled`] returns a
//! compile-time `false`, so event-payload construction is guarded out
//! and the instrumented code compiles to the uninstrumented code.
//!
//! Determinism rules mirror the recorder's: events carry **simulation
//! time**, never wall clock; every recorder stamps its events with a
//! `(source, seq)` pair; and [`FlightRecorder::merged`] performs an
//! ordered merge on `(time, source, seq)`. Per-shard logs depend only
//! on the shard's inputs, and the order is total, so the merged log —
//! and every byte exported from it — is identical at any `--jobs`
//! count.

use std::collections::VecDeque;

/// How a DTIM wake decision is classified against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeClass {
    /// The client was woken and genuinely wanted the traffic.
    Proper,
    /// The client slept through traffic it wanted (stale AP state).
    Missed,
    /// The client was woken for traffic it no longer wanted.
    Spurious,
    /// A legacy (non-HIDE) client woken by any buffered broadcast.
    Legacy,
}

impl WakeClass {
    /// Stable snake_case label used in exported traces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WakeClass::Proper => "proper",
            WakeClass::Missed => "missed",
            WakeClass::Spurious => "spurious",
            WakeClass::Legacy => "legacy",
        }
    }
}

/// The causal event behind a wake decision, found by walking the event
/// log backward from the decision to the nearest de-synchronizing event
/// for that client (see [`crate::provenance`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeCause {
    /// Nothing went wrong: AP state matched ground truth.
    Proper,
    /// A UDP Port Message refresh was lost before reaching the AP.
    RefreshLost,
    /// The AP aged the client's port entries out (staleness expiry).
    EntryExpired,
    /// The client re-sampled its ports and the AP has not yet heard.
    PortChurn,
    /// No causal event found in the retained window.
    Unknown,
}

impl WakeCause {
    /// Stable snake_case label used in exported traces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WakeCause::Proper => "proper",
            WakeCause::RefreshLost => "refresh_lost",
            WakeCause::EntryExpired => "entry_expired",
            WakeCause::PortChurn => "port_churn",
            WakeCause::Unknown => "unknown",
        }
    }
}

/// Payload of one trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// A DTIM boundary: the AP evaluates its buffered broadcast burst.
    DtimBoundary {
        /// Broadcast frames buffered since the previous boundary.
        buffered: u32,
        /// `(port, client)` entries live in the AP port table.
        table_entries: u32,
    },
    /// A BTIM element went on air.
    BtimEmitted {
        /// Encoded element bytes (2-byte ID/length header included).
        bytes: u32,
        /// Broadcast-flag bits set in the partial virtual bitmap.
        bits_set: u32,
    },
    /// A per-client wake decision at a DTIM boundary.
    WakeDecision {
        /// The client's association ID.
        aid: u16,
        /// The UDP port that decided the outcome (the flagged port for
        /// wakes, the wanted-but-unflagged port for missed wakeups, 0
        /// for legacy receive-all wakes).
        port: u16,
        /// Id of the first buffered frame on that port (0 when none).
        frame_id: u64,
        /// Classification against the client's true ports.
        class: WakeClass,
        /// Causal attribution (online; cross-checked by the analyzer).
        cause: WakeCause,
    },
    /// A client's UDP Port Message reached the AP and was applied.
    RefreshApplied {
        /// The client's association ID.
        aid: u16,
    },
    /// A client's UDP Port Message was lost on the way to the AP.
    RefreshLost {
        /// The client's association ID.
        aid: u16,
    },
    /// A client re-sampled its listened-on ports (ground truth moved).
    PortChurn {
        /// The client's association ID.
        aid: u16,
    },
    /// The AP aged out a client's port entries (staleness expiry).
    EntryExpired {
        /// The client's association ID.
        aid: u16,
    },
    /// A client associated.
    Join {
        /// The AID the AP assigned.
        aid: u16,
        /// Whether the client negotiated HIDE support.
        hide: bool,
    },
    /// A client disassociated.
    Leave {
        /// The association ID the client held.
        aid: u16,
    },
}

impl TraceEventKind {
    /// Stable snake_case label used in exported traces.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::DtimBoundary { .. } => "dtim_boundary",
            TraceEventKind::BtimEmitted { .. } => "btim_emitted",
            TraceEventKind::WakeDecision { .. } => "wake_decision",
            TraceEventKind::RefreshApplied { .. } => "refresh_applied",
            TraceEventKind::RefreshLost { .. } => "refresh_lost",
            TraceEventKind::PortChurn { .. } => "port_churn",
            TraceEventKind::EntryExpired { .. } => "entry_expired",
            TraceEventKind::Join { .. } => "join",
            TraceEventKind::Leave { .. } => "leave",
        }
    }
}

/// One recorded event: simulation time, source lane (BSS index),
/// per-source sequence number, and the payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation time in seconds.
    pub time: f64,
    /// Source lane — the BSS index in fleet runs, 0 elsewhere.
    pub source: u32,
    /// Per-source emission sequence number (ties within one source
    /// replay in emission order).
    pub seq: u64,
    /// The payload.
    pub kind: TraceEventKind,
}

/// A sink for structured trace events.
///
/// Mirrors [`crate::MetricsSink`]: instrumented code is generic over
/// `T: TraceSink` and passes [`NoopTrace`] when tracing is off, which
/// monomorphizes every `emit` to nothing. Guard payload construction
/// with [`TraceSink::is_enabled`] so a disabled sink costs no work at
/// all:
///
/// ```
/// use hide_obs::{NoopTrace, TraceEventKind, TraceSink};
///
/// fn hot_path<T: TraceSink>(trace: &mut T) {
///     if trace.is_enabled() {
///         trace.emit(0.5, TraceEventKind::EntryExpired { aid: 1 });
///     }
/// }
/// hot_path(&mut NoopTrace);
/// ```
pub trait TraceSink {
    /// Record one event at simulation time `time` (seconds).
    ///
    /// Callers must emit in nondecreasing `time` order — the
    /// discrete-event kernels guarantee this — so a recorder's log is
    /// sorted by construction.
    fn emit(&mut self, time: f64, kind: TraceEventKind);

    /// Whether emitted events are retained. `false` lets callers skip
    /// building payloads entirely; the constant answer folds the guard
    /// away after monomorphization.
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The zero-cost sink: events vanish, [`TraceSink::is_enabled`] is a
/// compile-time `false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopTrace;

impl TraceSink for NoopTrace {
    #[inline]
    fn emit(&mut self, _time: f64, _kind: TraceEventKind) {}

    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }
}

impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    #[inline]
    fn emit(&mut self, time: f64, kind: TraceEventKind) {
        (**self).emit(time, kind);
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }
}

/// Default per-recorder event capacity (events retained before the
/// oldest are dropped).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// A bounded, deterministic in-memory event log.
///
/// Live recording keeps at most `capacity` events, dropping the oldest
/// (and counting the drops) when full — a flight recorder keeps the
/// most recent window, which is the window that explains a failure.
/// [`FlightRecorder::merged`] never drops: per-shard logs are
/// complete within their own bound, and the merged log is their ordered
/// union, so fan-in order cannot change the bytes exported from it.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    source: u32,
    next_seq: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// An empty recorder with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        FlightRecorder::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An empty recorder retaining at most `capacity` events (floored
    /// at 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            source: 0,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Sets the source lane stamped on subsequently emitted events
    /// (the BSS index in fleet runs).
    pub fn set_source(&mut self, source: u32) {
        self.source = source;
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped by the ring bound (oldest-first), summed across
    /// merges.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The live-recording retention bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained events in `(time, source, seq)` order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Removes and returns every retained event together with the drop
    /// count accumulated since the last take, leaving the recorder
    /// live (source lane, sequence counter and capacity all carry on).
    ///
    /// This is the spill seam: the caller becomes responsible for the
    /// returned events **and** the returned drops — the recorder's own
    /// [`dropped`](Self::dropped) resets to 0, so a spill file that
    /// records the taken count and a recorder that keeps dropping
    /// afterwards never double-count, and the sum of all taken counts
    /// plus the final residue is exact across any number of spill
    /// boundaries.
    pub fn take_spill_chunk(&mut self) -> (Vec<TraceEvent>, u64) {
        let events = Vec::from(std::mem::take(&mut self.events));
        let dropped = std::mem::take(&mut self.dropped);
        (events, dropped)
    }

    /// The ordered union of `logs` on `(time, source, seq)`, merged in
    /// one [`KWayMerge`](crate::KWayMerge) pass. It keeps the first
    /// log's source lane, sequence counter and capacity, and sums every
    /// log's drops. Merging never drops events (only live recording
    /// does), so merging per-shard logs yields the same log however the
    /// shards were scheduled. An empty `logs` gives an empty default
    /// recorder.
    #[must_use]
    pub fn merged(mut logs: Vec<FlightRecorder>) -> FlightRecorder {
        let (mut merge, events, dropped) = crate::spill::merge_logs(&mut logs);
        let mut out = logs.into_iter().next().unwrap_or_default();
        out.events.reserve(events as usize);
        while let Some(e) = merge.next_event().expect("in-memory lanes cannot fail") {
            out.events.push_back(e);
        }
        out.dropped = dropped;
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl TraceSink for FlightRecorder {
    fn emit(&mut self, time: f64, kind: TraceEventKind) {
        // `>=`, not `==`: a merge can legitimately leave more than
        // `capacity` events retained (merging never drops), and the
        // next live emission must restore the ring bound and count
        // every evicted event — an equality check would stop dropping
        // entirely and let the ring grow without bound.
        while self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push_back(TraceEvent {
            time,
            source: self.source,
            seq,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(source: u32, times: &[f64]) -> FlightRecorder {
        let mut r = FlightRecorder::new();
        r.set_source(source);
        for &t in times {
            r.emit(t, TraceEventKind::EntryExpired { aid: 1 });
        }
        r
    }

    /// The total order merged logs observe: time, then source lane,
    /// then per-source sequence.
    fn sort_key(e: &TraceEvent) -> (f64, u32, u64) {
        (e.time, e.source, e.seq)
    }

    #[test]
    fn noop_trace_is_disabled() {
        let mut t = NoopTrace;
        assert!(!t.is_enabled());
        t.emit(1.0, TraceEventKind::RefreshLost { aid: 3 });
        let fr = FlightRecorder::new();
        assert!(fr.is_empty());
        // The forwarding impl must preserve the compile-time disable.
        let mut inner = NoopTrace;
        let forwarded: &mut NoopTrace = &mut inner;
        assert!(!<&mut NoopTrace as TraceSink>::is_enabled(&forwarded));
    }

    #[test]
    fn emit_stamps_source_and_sequence() {
        let r = rec(7, &[0.1, 0.2, 0.2]);
        let events: Vec<&TraceEvent> = r.events().collect();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.source == 7));
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn ring_bound_drops_oldest() {
        let mut r = FlightRecorder::with_capacity(2);
        for t in [0.1, 0.2, 0.3, 0.4] {
            r.emit(t, TraceEventKind::RefreshLost { aid: 1 });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 2);
        let times: Vec<f64> = r.events().map(|e| e.time).collect();
        assert_eq!(times, vec![0.3, 0.4]);
    }

    #[test]
    fn merge_interleaves_by_time_then_source() {
        let a = rec(0, &[0.1, 0.5, 0.5]);
        let b = rec(1, &[0.2, 0.5]);
        let merged = FlightRecorder::merged(vec![a, b]);
        let keys: Vec<(f64, u32, u64)> = merged.events().map(sort_key).collect();
        assert_eq!(
            keys,
            vec![
                (0.1, 0, 0),
                (0.2, 1, 0),
                (0.5, 0, 1),
                (0.5, 0, 2),
                (0.5, 1, 1),
            ]
        );
    }

    #[test]
    fn merge_order_of_disjoint_sources_is_immaterial() {
        let shards = [rec(0, &[0.3, 0.9]), rec(1, &[0.1]), rec(2, &[0.3, 0.4])];
        let fwd = FlightRecorder::merged(shards.to_vec());
        let rev = FlightRecorder::merged(shards.iter().rev().cloned().collect());
        assert!(fwd.events().eq(rev.events()));
        assert_eq!(fwd.len(), 5);
    }

    #[test]
    fn ring_bound_recovers_after_merge_growth() {
        // Regression: merging can push the ring past its capacity; the
        // next live emission must evict back down to the bound and
        // count every eviction, instead of growing without bound (the
        // old `==` check never fired again once len > capacity).
        let mut a = FlightRecorder::with_capacity(3);
        a.set_source(0);
        for t in [0.1, 0.2, 0.3] {
            a.emit(t, TraceEventKind::RefreshLost { aid: 1 });
        }
        let b = rec(1, &[0.15, 0.25, 0.35]);
        let mut a = FlightRecorder::merged(vec![a, b]);
        assert_eq!(a.capacity(), 3, "the first log's ring bound carries over");
        assert_eq!(a.len(), 6, "merge itself never drops");
        assert_eq!(a.dropped(), 0);
        a.emit(0.4, TraceEventKind::RefreshLost { aid: 2 });
        assert_eq!(a.len(), 3, "live recording restores the bound");
        assert_eq!(a.dropped(), 4, "every evicted event is counted");
        a.emit(0.5, TraceEventKind::RefreshLost { aid: 2 });
        assert_eq!(a.len(), 3);
        assert_eq!(a.dropped(), 5);
    }

    #[test]
    fn take_spill_chunk_moves_drop_responsibility() {
        let mut r = FlightRecorder::with_capacity(2);
        r.set_source(4);
        for t in [0.1, 0.2, 0.3] {
            r.emit(t, TraceEventKind::RefreshLost { aid: 1 });
        }
        assert_eq!(r.dropped(), 1);
        let (events, taken) = r.take_spill_chunk();
        assert_eq!(events.len(), 2);
        assert_eq!(taken, 1, "drops travel with the spilled chunk");
        assert_eq!(r.dropped(), 0, "the live recorder starts a new tally");
        assert!(r.is_empty());
        // Recording continues with the same source and sequence stream.
        r.emit(0.4, TraceEventKind::RefreshLost { aid: 1 });
        let next: Vec<&TraceEvent> = r.events().collect();
        assert_eq!(next[0].seq, 3);
        assert_eq!(next[0].source, 4);
        // Exactness across boundaries: taken + residue == total drops.
        for t in [0.5, 0.6, 0.7] {
            r.emit(t, TraceEventKind::RefreshLost { aid: 1 });
        }
        let (more, taken2) = r.take_spill_chunk();
        assert_eq!(more.len(), 2);
        assert_eq!(taken + taken2, 3);
    }

    #[test]
    fn partially_spilled_merge_accounting_is_exact() {
        // A recorder that already spilled a chunk (drops taken by the
        // spill file) merges another shard that also dropped: the
        // merged count must be exactly the *unspilled* drops of both —
        // nothing double-counted, nothing lost.
        let mut a = FlightRecorder::with_capacity(2);
        a.set_source(0);
        for t in [0.1, 0.2, 0.3] {
            a.emit(t, TraceEventKind::RefreshLost { aid: 1 });
        }
        let (_, spilled_a) = a.take_spill_chunk();
        assert_eq!(spilled_a, 1);
        for t in [0.4, 0.5, 0.6] {
            a.emit(t, TraceEventKind::RefreshLost { aid: 1 });
        }
        assert_eq!(a.dropped(), 1);

        let mut b = FlightRecorder::with_capacity(2);
        b.set_source(1);
        for t in [0.35, 0.45, 0.55, 0.65] {
            b.emit(t, TraceEventKind::RefreshLost { aid: 2 });
        }
        assert_eq!(b.dropped(), 2);

        let a = FlightRecorder::merged(vec![a, b]);
        assert_eq!(a.dropped(), 3, "merged residue excludes spilled drops");
        assert_eq!(spilled_a + a.dropped(), 4, "file + live == total");
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn merge_accumulates_drops_without_truncating() {
        let mut a = FlightRecorder::with_capacity(2);
        a.set_source(0);
        for t in [0.1, 0.2, 0.3] {
            a.emit(t, TraceEventKind::RefreshLost { aid: 1 });
        }
        let b = rec(1, &[0.15, 0.25, 0.35]);
        let merged = FlightRecorder::merged(vec![a, b]);
        assert_eq!(merged.len(), 5);
        assert_eq!(merged.dropped(), 1);
    }
}
