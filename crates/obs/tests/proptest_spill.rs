//! Property tests of the `hide-spill/2` framed codec and the k-way
//! merge the out-of-core export pipeline is built on.
//!
//! Three families:
//!
//! 1. **Round trip** — encode→decode is the identity, at the event
//!    level and through a real spill file at any chunk size (including
//!    1 and larger-than-input).
//! 2. **Hostile bytes** — every strict prefix of a valid file and
//!    every single-byte flip is rejected with a structured
//!    [`SpillError`]; nothing panics and nothing allocates on
//!    attacker-controlled lengths. Every frame's check is built from
//!    steps that are injective in their input and bijective in their
//!    state, so a change confined to one byte always alters it:
//!    detection is a guarantee, not a probability. Beside the random
//!    flips, one small file is swept exhaustively, every bit of every
//!    byte, and a `hide-spill/1` magic is rejected.
//! 3. **Merge order** — [`KWayMerge`] over arbitrarily partitioned,
//!    arbitrarily chunked spilled runs pops the exact sequence the
//!    in-memory tree fold produces. The `(time, source, seq)` key is a
//!    strict total order over distinct events, so this is equality of
//!    sequences, not just multisets.
//!
//! The vendored proptest has no enum strategies, so events are decoded
//! from plain integer tuples (the same idiom `proptest_recorder.rs`
//! uses for the metric namespace).

use hide_obs::spill::{decode_chunk_events, encode_event, read_all_runs};
use hide_obs::trace::{TraceEvent, TraceEventKind, WakeCause, WakeClass};
use hide_obs::{FlightRecorder, KWayMerge, SpillError, SpillIndex, SpillWriter, TraceSink};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique temp path per proptest case (cases run in one process, so a
/// static counter keeps concurrently open files independent).
fn temp_spill_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "hide-proptest-spill-{}-{n}.bin",
        std::process::id()
    ))
}

/// Removes the file even when an assertion inside the case fails.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Decodes one event payload from a `(selector, a, b)` integer tuple,
/// covering every kind, every wake class, and every wake cause.
fn kind_from(selector: u8, a: u64, b: u64) -> TraceEventKind {
    let aid = a as u16;
    match selector % 9 {
        0 => TraceEventKind::DtimBoundary {
            buffered: a as u32,
            table_entries: (a >> 32) as u32,
        },
        1 => TraceEventKind::BtimEmitted {
            bytes: a as u32,
            bits_set: (a >> 32) as u32,
        },
        2 => TraceEventKind::WakeDecision {
            aid,
            port: (a >> 16) as u16,
            frame_id: b,
            class: [
                WakeClass::Proper,
                WakeClass::Missed,
                WakeClass::Spurious,
                WakeClass::Legacy,
            ][(a >> 32) as usize % 4],
            cause: [
                WakeCause::Proper,
                WakeCause::RefreshLost,
                WakeCause::EntryExpired,
                WakeCause::PortChurn,
                WakeCause::Unknown,
            ][(a >> 40) as usize % 5],
        },
        3 => TraceEventKind::RefreshApplied { aid },
        4 => TraceEventKind::RefreshLost { aid },
        5 => TraceEventKind::PortChurn { aid },
        6 => TraceEventKind::EntryExpired { aid },
        7 => TraceEventKind::Join {
            aid,
            hide: b.is_multiple_of(2),
        },
        _ => TraceEventKind::Leave { aid },
    }
}

/// Finite time from arbitrary bits — the codec stores exact IEEE-754
/// bits and rejects NaN/inf on decode, so clearing the exponent of a
/// non-finite draw keeps sign, subnormals, and negative zero in scope.
fn time_from(bits: u64) -> f64 {
    let t = f64::from_bits(bits);
    if t.is_finite() {
        t
    } else {
        f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF)
    }
}

/// Raw material for one arbitrary event.
type RawEvent = (u8, u64, u64, u64, u64);

fn event_from((selector, a, b, time_bits, meta): RawEvent) -> TraceEvent {
    TraceEvent {
        time: time_from(time_bits),
        source: meta as u32,
        seq: meta >> 32,
        kind: kind_from(selector, a, b),
    }
}

fn events_from(raw: &[RawEvent]) -> Vec<TraceEvent> {
    raw.iter().map(|r| event_from(*r)).collect()
}

/// Sorted per-source lanes, as the fleet shards produce them: each
/// lane's events are time-ordered with sequential seq, so every run
/// handed to the merge is sorted under `(time, source, seq)` and all
/// events are globally distinct.
fn lanes_from(raw: &[Vec<(u32, u8, u64, u64)>]) -> Vec<Vec<TraceEvent>> {
    raw.iter()
        .enumerate()
        .map(|(source, lane)| {
            let mut ticks: Vec<u32> = lane.iter().map(|(t, ..)| *t).collect();
            ticks.sort_unstable();
            ticks
                .into_iter()
                .zip(lane)
                .enumerate()
                .map(|(seq, (tick, (_, selector, a, b)))| TraceEvent {
                    time: f64::from(tick) * 1e-3,
                    source: source as u32,
                    seq: seq as u64,
                    kind: kind_from(*selector, *a, *b),
                })
                .collect()
        })
        .collect()
}

/// The reference two-log merge: a two-pointer walk on
/// `(time, source, seq)` under `f64::total_cmp`, the left log winning a
/// tied key. The k-way merges are checked against it.
fn two_way_merge(left: &[TraceEvent], right: &[TraceEvent]) -> Vec<TraceEvent> {
    let precedes = |a: &TraceEvent, b: &TraceEvent| match a.time.total_cmp(&b.time) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => (a.source, a.seq) <= (b.source, b.seq),
    };
    let mut merged = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        if precedes(&left[i], &right[j]) {
            merged.push(left[i]);
            i += 1;
        } else {
            merged.push(right[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&left[i..]);
    merged.extend_from_slice(&right[j..]);
    merged
}

/// The in-memory reference: tree-fold the lanes pairwise through
/// [`two_way_merge`], as a parallel fan-in would.
fn tree_fold(lanes: &[Vec<TraceEvent>]) -> Vec<TraceEvent> {
    let mut level = lanes.to_vec();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [left, right] => two_way_merge(left, right),
                [left] => left.clone(),
                _ => unreachable!("chunks(2) yields one or two lanes"),
            })
            .collect();
    }
    level.pop().unwrap_or_default()
}

/// Per-source recorders replaying `lanes` under a ring of `capacity`,
/// so small capacities drop events.
fn recorders_from(lanes: &[Vec<TraceEvent>], capacity: usize) -> Vec<FlightRecorder> {
    lanes
        .iter()
        .enumerate()
        .map(|(source, lane)| {
            let mut r = FlightRecorder::with_capacity(capacity);
            r.set_source(source as u32);
            for e in lane {
                r.emit(e.time, e.kind);
            }
            r
        })
        .collect()
}

/// Bit-exact event equality: `PartialEq` treats `-0.0 == 0.0`, but the
/// codec must preserve the sign bit.
fn assert_events_bit_equal(got: &[TraceEvent], want: &[TraceEvent]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        prop_assert_eq!(g.time.to_bits(), w.time.to_bits());
        prop_assert_eq!((g.source, g.seq, g.kind), (w.source, w.seq, w.kind));
    }
    Ok(())
}

/// A small file of three runs at two events per chunk: two runs of
/// several chunks (the first ends on a short chunk) around an empty
/// run, covering all nine event kinds and the largest frame.
fn sweep_file() -> (TempFile, SpillIndex) {
    let event = |i: usize, time: f64| TraceEvent {
        time,
        source: i as u32 % 3,
        seq: i as u64,
        kind: kind_from(i as u8, 0x0004_0301_1234_5678 + i as u64, 0xdead_beef),
    };
    let first: Vec<TraceEvent> = (0..5).map(|i| event(i, 0.25 * i as f64)).collect();
    let last: Vec<TraceEvent> = (5..9).map(|i| event(i, i as f64)).collect();
    write_spill(&[(first, 3), (Vec::new(), 0), (last, 1 << 40)], 2)
}

/// Writes `runs` into a fresh spill file and returns the temp handle.
fn write_spill(
    runs: &[(Vec<TraceEvent>, u64)],
    chunk_events: usize,
) -> (TempFile, hide_obs::SpillIndex) {
    let file = TempFile(temp_spill_path());
    let mut writer = SpillWriter::create(&file.0, chunk_events).expect("create spill");
    for (events, dropped) in runs {
        writer.write_run(events, *dropped).expect("write run");
    }
    let index = writer.finish().expect("finish spill");
    (file, index)
}

proptest! {
    /// Event-level codec: encode then decode is the identity, for any
    /// batch of arbitrary events in one chunk payload.
    #[test]
    fn encode_decode_is_identity(
        raw in vec((any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..64),
    ) {
        let events = events_from(&raw);
        let mut payload = Vec::new();
        for e in &events {
            encode_event(&mut payload, e);
        }
        let mut decoded = Vec::new();
        decode_chunk_events(&payload, events.len() as u32, 0, &mut decoded)
            .expect("own encoding must decode");
        assert_events_bit_equal(&decoded, &events)?;
    }

    /// File-level round trip at any chunk size — 1 (every event its
    /// own frame) through larger than the input (one frame total) —
    /// with multiple runs and per-run dropped tallies. Dropped values
    /// are bounded so the index's plain `sum()` cannot overflow in
    /// debug builds.
    #[test]
    fn spill_file_round_trip(
        raw in vec(
            (
                vec((any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..30),
                0u64..=u64::from(u32::MAX),
            ),
            0..4,
        ),
        chunk_events in 1usize..64,
    ) {
        let runs: Vec<(Vec<TraceEvent>, u64)> = raw
            .iter()
            .map(|(events, dropped)| (events_from(events), *dropped))
            .collect();
        let (file, index) = write_spill(&runs, chunk_events);
        prop_assert_eq!(index.runs.len(), runs.len());
        prop_assert_eq!(
            index.total_events(),
            runs.iter().map(|(e, _)| e.len() as u64).sum::<u64>()
        );
        prop_assert_eq!(
            index.total_dropped(),
            runs.iter().map(|(_, d)| *d).sum::<u64>()
        );

        let read_back = read_all_runs(&file.0).expect("validated file reads");
        prop_assert_eq!(read_back.len(), runs.len());
        for ((got, got_dropped), (want, want_dropped)) in read_back.iter().zip(&runs) {
            prop_assert_eq!(got_dropped, want_dropped);
            assert_events_bit_equal(got, want)?;
        }
    }

    /// Every strict prefix of a valid spill file is a structured error:
    /// a crash part-way through a run can never read as a shorter,
    /// valid export.
    #[test]
    fn any_strict_prefix_is_a_structured_error(
        raw in vec(
            (
                vec((any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..12),
                0u64..1000,
            ),
            1..3,
        ),
        chunk_events in 1usize..16,
        cut_selector in any::<u64>(),
    ) {
        let runs: Vec<(Vec<TraceEvent>, u64)> = raw
            .iter()
            .map(|(events, dropped)| (events_from(events), *dropped))
            .collect();
        let (file, _) = write_spill(&runs, chunk_events);

        let bytes = std::fs::read(&file.0).expect("read spill back");
        let cut = (cut_selector % bytes.len() as u64) as usize; // 0..len: always strict
        let truncated = TempFile(temp_spill_path());
        std::fs::write(&truncated.0, &bytes[..cut]).expect("write prefix");

        let err = SpillIndex::load(&truncated.0).expect_err("prefix must not validate");
        prop_assert!(matches!(
            err,
            SpillError::Truncated { .. } | SpillError::Corrupt { .. } | SpillError::BadMagic { .. }
        ), "unexpected error shape: {err:?}");
        prop_assert!(!err.to_string().is_empty());
    }

    /// Every single-byte flip anywhere in the file is a structured
    /// error — header fields, length fields, payloads, magic, and the
    /// checksums themselves are all covered.
    #[test]
    fn any_single_byte_flip_is_a_structured_error(
        raw in vec(
            (
                vec((any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..12),
                0u64..1000,
            ),
            1..3,
        ),
        chunk_events in 1usize..16,
        at_selector in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let runs: Vec<(Vec<TraceEvent>, u64)> = raw
            .iter()
            .map(|(events, dropped)| (events_from(events), *dropped))
            .collect();
        let (file, _) = write_spill(&runs, chunk_events);

        let mut bytes = std::fs::read(&file.0).expect("read spill back");
        let at = (at_selector % bytes.len() as u64) as usize;
        bytes[at] ^= mask;
        let corrupt = TempFile(temp_spill_path());
        std::fs::write(&corrupt.0, &bytes).expect("write corrupted copy");

        let err = SpillIndex::load(&corrupt.0)
            .expect_err("a flipped byte must not validate");
        prop_assert!(matches!(
            err,
            SpillError::Truncated { .. } | SpillError::Corrupt { .. } | SpillError::BadMagic { .. }
        ), "unexpected error shape: {err:?}");
    }

    /// KWayMerge over spilled runs == the in-memory tree fold, for any
    /// lane partitioning and any chunk size — 1, tiny, or larger than
    /// every run.
    #[test]
    fn kway_merge_matches_tree_fold(
        raw in vec(vec((0u32..500_000, any::<u8>(), any::<u64>(), any::<u64>()), 0..40), 1..6),
        chunk_selector in any::<u8>(),
    ) {
        let chunk_events = match chunk_selector % 3 {
            0 => 1,
            1 => 2 + chunk_selector as usize % 6,
            _ => 10_000,
        };
        let lanes = lanes_from(&raw);
        let expected = tree_fold(&lanes);

        let runs: Vec<(Vec<TraceEvent>, u64)> =
            lanes.iter().map(|lane| (lane.clone(), 0)).collect();
        let (_file, index) = write_spill(&runs, chunk_events);
        let merged = index
            .merge()
            .expect("open merge")
            .collect_all()
            .expect("merge clean file");

        assert_events_bit_equal(&merged, &expected)?;
    }

    /// One k-way pass over shard logs — into a recorder or straight
    /// into a spill run — equals folding their retained events through
    /// the two-log merge in order, with every log's drops summed; the
    /// merged recorder carries on with the first log's source lane,
    /// sequence counter and capacity.
    #[test]
    fn merged_logs_match_sequential_fold(
        raw in vec(vec((0u32..500_000, any::<u8>(), any::<u64>(), any::<u64>()), 0..40), 1..6),
        capacity in 1usize..48,
        chunk_events in 1usize..16,
    ) {
        let logs = recorders_from(&lanes_from(&raw), capacity);
        let retained: Vec<Vec<TraceEvent>> =
            logs.iter().map(|log| log.events().copied().collect()).collect();
        let want = retained[1..]
            .iter()
            .fold(retained[0].clone(), |acc, lane| two_way_merge(&acc, lane));
        let want_dropped: u64 = logs.iter().map(FlightRecorder::dropped).sum();

        let mut merged = FlightRecorder::merged(logs.clone());
        assert_events_bit_equal(&merged.events().copied().collect::<Vec<_>>(), &want)?;
        prop_assert_eq!(merged.dropped(), want_dropped);
        prop_assert_eq!(merged.capacity(), logs[0].capacity());
        // The next live event is stamped as the first log's would be.
        let mut first = logs[0].clone();
        let probe = TraceEventKind::RefreshLost { aid: 1 };
        merged.emit(1e9, probe);
        first.emit(1e9, probe);
        let (m, f) = (merged.events().last(), first.events().last());
        prop_assert_eq!(m.map(|e| (e.source, e.seq)), f.map(|e| (e.source, e.seq)));

        let file = TempFile(temp_spill_path());
        let mut writer = SpillWriter::create(&file.0, chunk_events).expect("create spill");
        let mut window = logs;
        writer.write_merged_run(&mut window).expect("write merged run");
        prop_assert!(window.iter().all(FlightRecorder::is_empty));
        writer.finish().expect("finish spill");
        let runs = read_all_runs(&file.0).expect("validated file reads");
        prop_assert_eq!(runs.len(), 1);
        prop_assert_eq!(runs[0].1, want_dropped);
        assert_events_bit_equal(&runs[0].0, &want)?;
    }

    /// The merge is also correct over in-memory sources: partitioning
    /// sorted events by source lane and merging recovers the globally
    /// sorted sequence.
    #[test]
    fn kway_merge_of_mem_sources_sorts_globally(
        raw in vec(vec((0u32..500_000, any::<u8>(), any::<u64>(), any::<u64>()), 0..40), 1..6),
    ) {
        let lanes = lanes_from(&raw);
        let mut expected: Vec<TraceEvent> = lanes.iter().flatten().copied().collect();
        expected.sort_by(|x, y| {
            x.time
                .total_cmp(&y.time)
                .then(x.source.cmp(&y.source))
                .then(x.seq.cmp(&y.seq))
        });

        let sources: Vec<_> = lanes.iter().map(|lane| lane.clone().into_iter()).collect();
        let merged = KWayMerge::new(sources)
            .expect("mem sources never fail to open")
            .collect_all()
            .expect("mem sources never fail");

        assert_events_bit_equal(&merged, &expected)?;
    }
}

/// Every bit of every byte of one multi-run, multi-chunk file, flipped
/// alone, is a structured error from the scan; a flip inside a run's
/// chunk frames is also an error from the streaming merge over the
/// writer's index, the path exports take.
#[test]
fn every_single_bit_flip_is_a_structured_error() {
    let (file, index) = sweep_file();
    let clean = std::fs::read(&file.0).expect("read spill back");
    // Three and two chunks around an empty run.
    let events: Vec<u64> = index.runs.iter().map(|run| run.events).collect();
    assert_eq!(events, [5, 0, 4]);
    assert_eq!(
        index
            .merge()
            .expect("open merge")
            .collect_all()
            .expect("clean merge")
            .len(),
        9
    );

    let corrupt = TempFile(temp_spill_path());
    let corrupt_index = SpillIndex {
        path: corrupt.0.clone(),
        ..index.clone()
    };
    let mut bytes = clean.clone();
    for at in 0..clean.len() {
        let in_chunks = index
            .runs
            .iter()
            .any(|run| (run.start..run.end).contains(&(at as u64)));
        for bit in 0..8 {
            bytes[at] ^= 1 << bit;
            std::fs::write(&corrupt.0, &bytes).expect("write corrupted copy");
            bytes[at] = clean[at];

            let err = SpillIndex::load(&corrupt.0)
                .expect_err(&format!("byte {at} bit {bit}: a flip must not validate"));
            assert!(
                matches!(
                    err,
                    SpillError::Truncated { .. }
                        | SpillError::Corrupt { .. }
                        | SpillError::BadMagic { .. }
                ),
                "byte {at} bit {bit}: unexpected {err:?}"
            );
            if in_chunks {
                let merged = corrupt_index.merge().and_then(KWayMerge::collect_all);
                assert!(
                    matches!(merged, Err(SpillError::Corrupt { .. })),
                    "byte {at} bit {bit}: the merge read a flipped chunk as {merged:?}"
                );
            }
        }
    }
}

/// A file that opens with the `hide-spill/1` magic is not read as a
/// `hide-spill/2` file, even when every frame after it is well formed.
#[test]
fn a_hide_spill_1_magic_is_bad_magic() {
    let (file, _) = sweep_file();
    let mut bytes = std::fs::read(&file.0).expect("read spill back");
    bytes[..8].copy_from_slice(b"HIDESPL1");
    std::fs::write(&file.0, &bytes).expect("write v1 magic");
    match SpillIndex::load(&file.0) {
        Err(SpillError::BadMagic { found }) => assert_eq!(found, b"HIDESPL1"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}
