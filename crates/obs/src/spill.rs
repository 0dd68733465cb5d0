//! Out-of-core trace spilling: a compact framed on-disk codec for
//! [`TraceEvent`] runs plus the chunked k-way merge that streams them
//! back in global `(time, source, seq)` order with bounded memory.
//!
//! The in-memory export path accumulates every shard's
//! [`FlightRecorder`] and merges them before serializing — simple, but
//! resident memory grows with the fleet, and a metro-scale run (100k
//! BSSes) does not fit. This module is the other half of the trade:
//! each window of shards merges its **already-sorted** logs in one
//! [`KWayMerge`] pass straight into the spill file as one *run* of
//! fixed-size framed chunks ([`SpillWriter::write_merged_run`]), and a
//! second [`KWayMerge`] streams the runs back into the exporters,
//! holding one cursor and one decoded chunk per run.
//!
//! # Determinism contract
//!
//! `(time, source, seq)` is a *strict* total order over distinct
//! events (a source never reuses a sequence number), so any correct
//! merge — [`FlightRecorder::merged`] in memory or the on-disk k-way
//! merge, at any chunk size, any run partitioning, any `--jobs` count
//! — yields the same event sequence, and therefore byte-identical
//! exports. The codec stores `f64` time
//! as its exact IEEE-754 bits, so nothing is lost in the round trip.
//! The differential tests in
//! `crates/obs/tests/proptest_spill.rs` and
//! `crates/bench/tests/stream_differential.rs` pin this down.
//!
//! # File format (`hide-spill/2`)
//!
//! ```text
//! magic "HIDESPL2"                                         8 bytes
//! frame*                                                   tag-prefixed
//!   0x01 RUN   { events: u64, dropped: u64, check: u32 }   one per run
//!   0x02 CHUNK { count: u32, bytes: u32, check: u32 }      then payload
//!   0x03 END   { runs: u32, events: u64, check: u32 }      exactly once
//! ```
//!
//! Chunk payloads are consecutive event frames (tag byte, raw time
//! bits, source, seq, kind fields — all little-endian, length implied
//! by the tag). Every frame header and chunk payload carries a 32-bit
//! word-at-a-time check (`check32`) that any change confined to one
//! byte alters; a missing `END` frame marks truncation. Decoding never
//! panics: every malformed input maps to a structured [`SpillError`].
//! `hide-spill/1` differed only in its check, the low 32 bits of the
//! byte-serial FNV-1a-64; its files load as [`SpillError::BadMagic`].

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::trace::{FlightRecorder, TraceEvent, TraceEventKind, WakeCause, WakeClass};

/// Magic bytes opening every spill file.
pub const SPILL_MAGIC: [u8; 8] = *b"HIDESPL2";

/// Default number of events per framed chunk.
pub const DEFAULT_CHUNK_EVENTS: usize = 1024;

/// Longest encoded event frame: a wake decision (tag, time, source,
/// seq, aid, port, frame id, class, cause).
const MAX_EVENT_FRAME_LEN: usize = 1 + 8 + 4 + 8 + 2 + 2 + 8 + 1 + 1;

const TAG_RUN: u8 = 0x01;
const TAG_CHUNK: u8 = 0x02;
const TAG_END: u8 = 0x03;

const RUN_HEADER_LEN: usize = 1 + 8 + 8 + 4;
const CHUNK_HEADER_LEN: usize = 1 + 4 + 4 + 4;
const END_FRAME_LEN: usize = 1 + 4 + 8 + 4;

/// Anything that can go wrong writing or reading a spill file.
///
/// Decoding is total: truncated files, flipped bytes, unknown frame
/// or event tags, and impossible field values all surface as a
/// variant here — never as a panic.
#[derive(Debug)]
#[non_exhaustive]
pub enum SpillError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with [`SPILL_MAGIC`].
    BadMagic {
        /// The bytes actually found (may be shorter than 8).
        found: Vec<u8>,
    },
    /// The file ended mid-frame, or before the `END` frame.
    Truncated {
        /// Byte offset at which more data was expected.
        offset: u64,
    },
    /// A frame failed its checksum or carried an impossible value.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What the decoder objected to.
        reason: &'static str,
    },
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill I/O error: {e}"),
            SpillError::BadMagic { found } => {
                write!(f, "not a hide-spill/2 file (magic {found:02x?})")
            }
            SpillError::Truncated { offset } => {
                write!(f, "spill file truncated at byte {offset}")
            }
            SpillError::Corrupt { offset, reason } => {
                write!(f, "spill file corrupt at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SpillError {
    fn from(e: io::Error) -> Self {
        SpillError::Io(e)
    }
}

/// FNV-1a 64-bit over `bytes` — the content hash the determinism gates
/// pin. Spill frames carry `check32` instead.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64-bit hash from a previous state — lets large
/// exports be hashed as they stream through a writer.
#[must_use]
pub fn fnv1a64_extend(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// Odd multiplier of the check lanes: a prime close to 2^32 / φ.
const CHECK_MUL: u32 = 0x9e37_79b1;

/// One check step: xor in a word, multiply by an odd constant, rotate.
/// For a fixed word the step is a bijection of the state (xor,
/// multiplication by an odd number mod 2^32 and rotation all are), and
/// for a fixed state it is injective in the word. The rotation only
/// mixes: without it a word's top bit reaches only the state's top
/// bit, so two top-bit flips in one lane would cancel.
#[inline]
fn check_step(state: u32, word: u32) -> u32 {
    (state ^ word).wrapping_mul(CHECK_MUL).rotate_left(15)
}

/// The 32-bit check of a frame header or chunk payload.
///
/// Four independent lanes each step through every fourth
/// little-endian word of the 16-byte blocks, so four multiply chains
/// run at once, each taking four bytes per step. The lanes fold into
/// one state by the same step, and the 0–15 bytes past the last block
/// follow one step each.
///
/// A change confined to one byte always alters the check. It changes
/// one word of one lane, or one trailing byte. The step that takes it
/// is injective in its input, and every later step of that lane, the
/// fold and the trailing steps are bijections of the state, so the
/// difference reaches the result.
fn check32(bytes: &[u8]) -> u32 {
    let mut lanes = [0x811c_9dc5, 0x811c_9dc6, 0x811c_9dc7, 0x811c_9dc8];
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            let word = u32::from_le_bytes(word.try_into().expect("4-byte word"));
            *lane = check_step(*lane, word);
        }
    }
    let folded = lanes[1..]
        .iter()
        .fold(lanes[0], |s, &lane| check_step(s, lane));
    blocks
        .remainder()
        .iter()
        .fold(folded, |s, &b| check_step(s, u32::from(b)))
}

// ---------------------------------------------------------------------
// Event codec
// ---------------------------------------------------------------------

fn kind_tag(kind: &TraceEventKind) -> u8 {
    match kind {
        TraceEventKind::DtimBoundary { .. } => 1,
        TraceEventKind::BtimEmitted { .. } => 2,
        TraceEventKind::WakeDecision { .. } => 3,
        TraceEventKind::RefreshApplied { .. } => 4,
        TraceEventKind::RefreshLost { .. } => 5,
        TraceEventKind::PortChurn { .. } => 6,
        TraceEventKind::EntryExpired { .. } => 7,
        TraceEventKind::Join { .. } => 8,
        TraceEventKind::Leave { .. } => 9,
    }
}

fn class_code(class: WakeClass) -> u8 {
    match class {
        WakeClass::Proper => 0,
        WakeClass::Missed => 1,
        WakeClass::Spurious => 2,
        WakeClass::Legacy => 3,
    }
}

fn class_from(code: u8) -> Option<WakeClass> {
    Some(match code {
        0 => WakeClass::Proper,
        1 => WakeClass::Missed,
        2 => WakeClass::Spurious,
        3 => WakeClass::Legacy,
        _ => return None,
    })
}

fn cause_code(cause: WakeCause) -> u8 {
    match cause {
        WakeCause::Proper => 0,
        WakeCause::RefreshLost => 1,
        WakeCause::EntryExpired => 2,
        WakeCause::PortChurn => 3,
        WakeCause::Unknown => 4,
    }
}

fn cause_from(code: u8) -> Option<WakeCause> {
    Some(match code {
        0 => WakeCause::Proper,
        1 => WakeCause::RefreshLost,
        2 => WakeCause::EntryExpired,
        3 => WakeCause::PortChurn,
        4 => WakeCause::Unknown,
        _ => return None,
    })
}

/// Appends one event frame to `buf`: kind tag, exact `f64` time bits,
/// source, seq, then the kind's fields — all little-endian.
pub fn encode_event(buf: &mut Vec<u8>, e: &TraceEvent) {
    buf.push(kind_tag(&e.kind));
    buf.extend_from_slice(&e.time.to_bits().to_le_bytes());
    buf.extend_from_slice(&e.source.to_le_bytes());
    buf.extend_from_slice(&e.seq.to_le_bytes());
    match e.kind {
        TraceEventKind::DtimBoundary {
            buffered,
            table_entries,
        } => {
            buf.extend_from_slice(&buffered.to_le_bytes());
            buf.extend_from_slice(&table_entries.to_le_bytes());
        }
        TraceEventKind::BtimEmitted { bytes, bits_set } => {
            buf.extend_from_slice(&bytes.to_le_bytes());
            buf.extend_from_slice(&bits_set.to_le_bytes());
        }
        TraceEventKind::WakeDecision {
            aid,
            port,
            frame_id,
            class,
            cause,
        } => {
            buf.extend_from_slice(&aid.to_le_bytes());
            buf.extend_from_slice(&port.to_le_bytes());
            buf.extend_from_slice(&frame_id.to_le_bytes());
            buf.push(class_code(class));
            buf.push(cause_code(cause));
        }
        TraceEventKind::Join { aid, hide } => {
            buf.extend_from_slice(&aid.to_le_bytes());
            buf.push(u8::from(hide));
        }
        TraceEventKind::RefreshApplied { aid }
        | TraceEventKind::RefreshLost { aid }
        | TraceEventKind::PortChurn { aid }
        | TraceEventKind::EntryExpired { aid }
        | TraceEventKind::Leave { aid } => {
            buf.extend_from_slice(&aid.to_le_bytes());
        }
    }
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SpillError> {
        if self.pos + n > self.bytes.len() {
            return Err(SpillError::Corrupt {
                offset: self.base + self.pos as u64,
                reason: "event frame runs past its chunk",
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SpillError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SpillError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SpillError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SpillError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decodes the event frames of one chunk payload into `out`. `base` is
/// the payload's absolute file offset, used for error reporting.
pub fn decode_chunk_events(
    payload: &[u8],
    count: u32,
    base: u64,
    out: &mut Vec<TraceEvent>,
) -> Result<(), SpillError> {
    let mut r = ByteReader {
        bytes: payload,
        pos: 0,
        base,
    };
    for _ in 0..count {
        let frame_at = base + r.pos as u64;
        let tag = r.u8()?;
        let time = f64::from_bits(r.u64()?);
        let source = r.u32()?;
        let seq = r.u64()?;
        let kind = match tag {
            1 => TraceEventKind::DtimBoundary {
                buffered: r.u32()?,
                table_entries: r.u32()?,
            },
            2 => TraceEventKind::BtimEmitted {
                bytes: r.u32()?,
                bits_set: r.u32()?,
            },
            3 => {
                let aid = r.u16()?;
                let port = r.u16()?;
                let frame_id = r.u64()?;
                let class = class_from(r.u8()?).ok_or(SpillError::Corrupt {
                    offset: frame_at,
                    reason: "invalid wake class code",
                })?;
                let cause = cause_from(r.u8()?).ok_or(SpillError::Corrupt {
                    offset: frame_at,
                    reason: "invalid wake cause code",
                })?;
                TraceEventKind::WakeDecision {
                    aid,
                    port,
                    frame_id,
                    class,
                    cause,
                }
            }
            4 => TraceEventKind::RefreshApplied { aid: r.u16()? },
            5 => TraceEventKind::RefreshLost { aid: r.u16()? },
            6 => TraceEventKind::PortChurn { aid: r.u16()? },
            7 => TraceEventKind::EntryExpired { aid: r.u16()? },
            8 => TraceEventKind::Join {
                aid: r.u16()?,
                hide: r.u8()? != 0,
            },
            9 => TraceEventKind::Leave { aid: r.u16()? },
            _ => {
                return Err(SpillError::Corrupt {
                    offset: frame_at,
                    reason: "unknown event kind tag",
                })
            }
        };
        if !time.is_finite() {
            return Err(SpillError::Corrupt {
                offset: frame_at,
                reason: "non-finite event time",
            });
        }
        out.push(TraceEvent {
            time,
            source,
            seq,
            kind,
        });
    }
    if r.pos != payload.len() {
        return Err(SpillError::Corrupt {
            offset: base + r.pos as u64,
            reason: "trailing bytes after last event frame in chunk",
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Byte range and tallies of one sorted run inside a spill file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMeta {
    /// Offset of the first chunk frame (just past the `RUN` header).
    pub start: u64,
    /// Offset one past the run's final chunk frame.
    pub end: u64,
    /// Events in the run.
    pub events: u64,
    /// Ring-bound drops the producing recorder(s) accumulated — the
    /// drop count travels with the spilled data so accounting stays
    /// exact across spill boundaries.
    pub dropped: u64,
}

/// Appends sorted runs of framed, checksummed chunks to a spill file.
///
/// Each run must be internally sorted by `(time, source, seq)` — shard
/// logs are sorted by construction, merged windows by the merge — and
/// the writer records each run's byte range so [`SpillIndex::merge`]
/// can stream them back without re-scanning the file.
#[derive(Debug)]
pub struct SpillWriter {
    out: BufWriter<File>,
    path: PathBuf,
    offset: u64,
    runs: Vec<RunMeta>,
    chunk_events: usize,
    scratch: Vec<u8>,
}

impl SpillWriter {
    /// Creates (truncating) the spill file and writes the magic.
    /// `chunk_events` is floored at 1.
    ///
    /// # Errors
    ///
    /// A `chunk_events` whose chunk payload could exceed the `u32`
    /// length field of a chunk header (over ~122.7 M events) is
    /// rejected as an [`io::ErrorKind::InvalidInput`] before the file
    /// is created; any filesystem failure surfaces as
    /// [`SpillError::Io`].
    pub fn create(path: impl Into<PathBuf>, chunk_events: usize) -> Result<Self, SpillError> {
        if chunk_events > u32::MAX as usize / MAX_EVENT_FRAME_LEN {
            return Err(invalid_chunk(format!(
                "chunks of {chunk_events} events could overflow the u32 chunk length"
            )));
        }
        let path = path.into();
        let file = File::create(&path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&SPILL_MAGIC)?;
        Ok(SpillWriter {
            out,
            path,
            offset: SPILL_MAGIC.len() as u64,
            runs: Vec::new(),
            chunk_events: chunk_events.max(1),
            scratch: Vec::new(),
        })
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), SpillError> {
        self.out.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Appends one sorted run, chunked at the writer's chunk size, and
    /// records `dropped` ring-bound evictions alongside it.
    ///
    /// # Errors
    ///
    /// Any filesystem failure surfaces as [`SpillError::Io`].
    pub fn write_run(&mut self, events: &[TraceEvent], dropped: u64) -> Result<(), SpillError> {
        self.write_run_from(&mut events.iter().copied(), events.len() as u64, dropped)
    }

    /// Appends the ordered union of `logs` as one sorted run, merged in
    /// one [`KWayMerge`] pass and encoded chunk by chunk — the merged
    /// run is never materialized. The run's counts are the sums of the
    /// logs' lengths and ring-bound drops. The logs are left empty.
    ///
    /// # Errors
    ///
    /// Any filesystem failure surfaces as [`SpillError::Io`].
    pub fn write_merged_run(&mut self, logs: &mut [FlightRecorder]) -> Result<(), SpillError> {
        let (mut merge, events, dropped) = merge_logs(logs);
        self.write_run_from(&mut merge, events, dropped)
    }

    /// Appends the `events` events of `src` as one run.
    fn write_run_from<S: EventSource>(
        &mut self,
        src: &mut S,
        events: u64,
        dropped: u64,
    ) -> Result<(), SpillError> {
        let mut header = [0u8; RUN_HEADER_LEN];
        header[0] = TAG_RUN;
        header[1..9].copy_from_slice(&events.to_le_bytes());
        header[9..17].copy_from_slice(&dropped.to_le_bytes());
        let check = check32(&header[1..17]);
        header[17..21].copy_from_slice(&check.to_le_bytes());
        self.write_all(&header)?;

        let start = self.offset;
        let mut written = 0u64;
        loop {
            self.scratch.clear();
            let mut count = 0usize;
            while count < self.chunk_events {
                let Some(e) = src.next_event()? else { break };
                encode_event(&mut self.scratch, &e);
                count += 1;
            }
            if count == 0 {
                break;
            }
            let count_field = u32::try_from(count).map_err(|_| {
                invalid_chunk(format!("{count} events overflow the u32 chunk count"))
            })?;
            let len = self.scratch.len();
            let len_field = u32::try_from(len)
                .map_err(|_| invalid_chunk(format!("{len} bytes overflow the u32 chunk length")))?;
            let mut ch = [0u8; CHUNK_HEADER_LEN];
            ch[0] = TAG_CHUNK;
            ch[1..5].copy_from_slice(&count_field.to_le_bytes());
            ch[5..9].copy_from_slice(&len_field.to_le_bytes());
            ch[9..13].copy_from_slice(&check32(&self.scratch).to_le_bytes());
            self.write_all(&ch)?;
            let payload = std::mem::take(&mut self.scratch);
            self.write_all(&payload)?;
            self.scratch = payload;
            written += count as u64;
            if count < self.chunk_events {
                break;
            }
        }
        assert_eq!(written, events, "a run header must count its events");
        self.runs.push(RunMeta {
            start,
            end: self.offset,
            events,
            dropped,
        });
        Ok(())
    }

    /// Writes the `END` frame, flushes, and returns the run index.
    ///
    /// # Errors
    ///
    /// Any filesystem failure surfaces as [`SpillError::Io`].
    pub fn finish(mut self) -> Result<SpillIndex, SpillError> {
        let total: u64 = self.runs.iter().map(|r| r.events).sum();
        let mut end = [0u8; END_FRAME_LEN];
        end[0] = TAG_END;
        end[1..5].copy_from_slice(&(self.runs.len() as u32).to_le_bytes());
        end[5..13].copy_from_slice(&total.to_le_bytes());
        let check = check32(&end[1..13]);
        end[13..17].copy_from_slice(&check.to_le_bytes());
        self.write_all(&end)?;
        self.out.flush()?;
        Ok(SpillIndex {
            path: self.path,
            runs: self.runs,
            bytes: self.offset,
        })
    }
}

/// A chunk the `u32` fields of its header cannot describe.
fn invalid_chunk(reason: String) -> SpillError {
    SpillError::Io(io::Error::new(io::ErrorKind::InvalidInput, reason))
}

/// Moves every log's events into one merge, returning it with the
/// logs' total event count and summed ring-bound drops. The logs keep
/// their source lane, sequence counter and capacity.
pub(crate) fn merge_logs(
    logs: &mut [FlightRecorder],
) -> (KWayMerge<std::vec::IntoIter<TraceEvent>>, u64, u64) {
    let (mut events, mut dropped) = (0u64, 0u64);
    let lanes = logs
        .iter_mut()
        .map(|log| {
            let (lane, lane_dropped) = log.take_spill_chunk();
            events += lane.len() as u64;
            dropped += lane_dropped;
            lane.into_iter()
        })
        .collect();
    let merge = KWayMerge::new(lanes).expect("in-memory lanes cannot fail");
    (merge, events, dropped)
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Where every run of a finished spill file lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillIndex {
    /// The spill file.
    pub path: PathBuf,
    /// Byte ranges and tallies, in append order.
    pub runs: Vec<RunMeta>,
    /// Total file size in bytes.
    pub bytes: u64,
}

impl SpillIndex {
    /// Rebuilds the index by scanning a finished spill file,
    /// verifying the magic, every frame checksum, chunk/run event
    /// counts, and the `END` frame.
    ///
    /// # Errors
    ///
    /// [`SpillError::BadMagic`] / [`Truncated`](SpillError::Truncated)
    /// / [`Corrupt`](SpillError::Corrupt) on any malformed input;
    /// [`SpillError::Io`] on filesystem failure.
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, SpillError> {
        let path = path.into();
        let bytes = std::fs::read(&path)?;
        let runs = scan(&bytes)?;
        Ok(SpillIndex {
            path,
            runs,
            bytes: bytes.len() as u64,
        })
    }

    /// Sum of every run's event count.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }

    /// Sum of every run's recorded ring-bound drops.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.runs.iter().map(|r| r.dropped).sum()
    }

    /// Opens one cursor per run and returns the k-way merge over them.
    /// The merge holds one decoded chunk per run — memory is bounded
    /// by `runs × chunk size`, independent of the file size.
    ///
    /// # Errors
    ///
    /// Any filesystem or decode failure surfaces as a [`SpillError`].
    pub fn merge(&self) -> Result<KWayMerge<RunReader>, SpillError> {
        let file = Arc::new(File::open(&self.path)?);
        let sources = self
            .runs
            .iter()
            .map(|run| RunReader::open(Arc::clone(&file), run))
            .collect();
        KWayMerge::new(sources)
    }
}

/// Validates `bytes` as a complete spill file and returns its runs.
fn scan(bytes: &[u8]) -> Result<Vec<RunMeta>, SpillError> {
    if bytes.len() < SPILL_MAGIC.len() || bytes[..SPILL_MAGIC.len()] != SPILL_MAGIC {
        return Err(SpillError::BadMagic {
            found: bytes[..bytes.len().min(SPILL_MAGIC.len())].to_vec(),
        });
    }
    let mut pos = SPILL_MAGIC.len();
    let mut runs: Vec<RunMeta> = Vec::new();
    let mut open_run: Option<RunMeta> = None;
    let mut decoded_in_run = 0u64;
    let mut saw_end = false;
    while pos < bytes.len() {
        let frame_at = pos as u64;
        let need = |n: usize, at: usize| -> Result<(), SpillError> {
            if at + n > bytes.len() {
                Err(SpillError::Truncated { offset: at as u64 })
            } else {
                Ok(())
            }
        };
        match bytes[pos] {
            TAG_RUN => {
                need(RUN_HEADER_LEN, pos)?;
                let body = &bytes[pos + 1..pos + 17];
                let check = u32::from_le_bytes(bytes[pos + 17..pos + 21].try_into().unwrap());
                if check != check32(body) {
                    return Err(SpillError::Corrupt {
                        offset: frame_at,
                        reason: "run header checksum mismatch",
                    });
                }
                if let Some(mut run) = open_run.take() {
                    if decoded_in_run != run.events {
                        return Err(SpillError::Corrupt {
                            offset: frame_at,
                            reason: "run event count disagrees with its chunks",
                        });
                    }
                    run.end = frame_at;
                    runs.push(run);
                }
                pos += RUN_HEADER_LEN;
                open_run = Some(RunMeta {
                    start: pos as u64,
                    end: pos as u64,
                    events: u64::from_le_bytes(body[..8].try_into().unwrap()),
                    dropped: u64::from_le_bytes(body[8..16].try_into().unwrap()),
                });
                decoded_in_run = 0;
            }
            TAG_CHUNK => {
                if open_run.is_none() {
                    return Err(SpillError::Corrupt {
                        offset: frame_at,
                        reason: "chunk frame outside any run",
                    });
                }
                need(CHUNK_HEADER_LEN, pos)?;
                let count = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap());
                let len = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().unwrap()) as usize;
                let check = u32::from_le_bytes(bytes[pos + 9..pos + 13].try_into().unwrap());
                need(len, pos + CHUNK_HEADER_LEN)?;
                let payload = &bytes[pos + CHUNK_HEADER_LEN..pos + CHUNK_HEADER_LEN + len];
                if check != check32(payload) {
                    return Err(SpillError::Corrupt {
                        offset: frame_at,
                        reason: "chunk payload checksum mismatch",
                    });
                }
                // No capacity hint from `count`: the field is outside
                // the payload checksum, and a corrupted value must not
                // drive a giant allocation before decode rejects it.
                let mut events = Vec::new();
                decode_chunk_events(payload, count, (pos + CHUNK_HEADER_LEN) as u64, &mut events)?;
                decoded_in_run += u64::from(count);
                pos += CHUNK_HEADER_LEN + len;
            }
            TAG_END => {
                need(END_FRAME_LEN, pos)?;
                let body = &bytes[pos + 1..pos + 13];
                let check = u32::from_le_bytes(bytes[pos + 13..pos + 17].try_into().unwrap());
                if check != check32(body) {
                    return Err(SpillError::Corrupt {
                        offset: frame_at,
                        reason: "end frame checksum mismatch",
                    });
                }
                if let Some(mut run) = open_run.take() {
                    if decoded_in_run != run.events {
                        return Err(SpillError::Corrupt {
                            offset: frame_at,
                            reason: "run event count disagrees with its chunks",
                        });
                    }
                    run.end = frame_at;
                    runs.push(run);
                }
                let end_runs = u32::from_le_bytes(body[..4].try_into().unwrap());
                let end_events = u64::from_le_bytes(body[4..12].try_into().unwrap());
                if end_runs as usize != runs.len()
                    || end_events != runs.iter().map(|r| r.events).sum::<u64>()
                {
                    return Err(SpillError::Corrupt {
                        offset: frame_at,
                        reason: "end frame tallies disagree with the runs",
                    });
                }
                pos += END_FRAME_LEN;
                if pos != bytes.len() {
                    return Err(SpillError::Corrupt {
                        offset: pos as u64,
                        reason: "trailing bytes after end frame",
                    });
                }
                saw_end = true;
            }
            _ => {
                return Err(SpillError::Corrupt {
                    offset: frame_at,
                    reason: "unknown frame tag",
                });
            }
        }
    }
    if !saw_end {
        return Err(SpillError::Truncated {
            offset: bytes.len() as u64,
        });
    }
    Ok(runs)
}

/// A streaming source of events in `(time, source, seq)` order —
/// either a decoded spill run or an in-memory sequence.
pub trait EventSource {
    /// The next event, `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// Decode or I/O failures surface as a [`SpillError`].
    fn next_event(&mut self) -> Result<Option<TraceEvent>, SpillError>;
}

/// Any in-memory event iterator is a source that never fails — a
/// recorder's log (`rec.events().copied()`), a slice, or an owned
/// `Vec`'s `into_iter()`.
impl<I: Iterator<Item = TraceEvent>> EventSource for I {
    #[inline]
    fn next_event(&mut self) -> Result<Option<TraceEvent>, SpillError> {
        Ok(self.next())
    }
}

/// A cursor over one run's chunk frames, decoding a chunk at a time.
///
/// All cursors of a merge share one file handle; each positions the
/// shared handle before every read, so the merge stays portable while
/// holding exactly one descriptor open however many runs the file
/// contains. A merge may move to another thread, but it reads from one
/// thread at a time.
#[derive(Debug)]
pub struct RunReader {
    file: Arc<File>,
    offset: u64,
    end: u64,
    remaining: u64,
    buf: Vec<u8>,
    /// The current chunk's events; `next` indexes the first unread.
    decoded: Vec<TraceEvent>,
    next: usize,
}

impl RunReader {
    fn open(file: Arc<File>, run: &RunMeta) -> Self {
        RunReader {
            file,
            offset: run.start,
            end: run.end,
            remaining: run.events,
            buf: Vec::new(),
            decoded: Vec::new(),
            next: 0,
        }
    }

    fn read_exact_at(&mut self, len: usize) -> Result<(), SpillError> {
        self.buf.resize(len, 0);
        let mut f: &File = &self.file;
        f.seek(SeekFrom::Start(self.offset))?;
        f.read_exact(&mut self.buf)?;
        self.offset += len as u64;
        Ok(())
    }

    fn refill(&mut self) -> Result<bool, SpillError> {
        if self.remaining == 0 || self.offset >= self.end {
            return Ok(false);
        }
        let frame_at = self.offset;
        self.read_exact_at(CHUNK_HEADER_LEN)?;
        if self.buf[0] != TAG_CHUNK {
            return Err(SpillError::Corrupt {
                offset: frame_at,
                reason: "expected chunk frame inside run",
            });
        }
        let count = u32::from_le_bytes(self.buf[1..5].try_into().unwrap());
        let len = u32::from_le_bytes(self.buf[5..9].try_into().unwrap()) as usize;
        let check = u32::from_le_bytes(self.buf[9..13].try_into().unwrap());
        // Re-validate the length against the run's byte range even
        // though `load` scanned the file: if the file shrank or was
        // rewritten since, the corrupted length must surface as an
        // error, not as a giant buffer allocation.
        if len as u64 > self.end.saturating_sub(self.offset) {
            return Err(SpillError::Corrupt {
                offset: frame_at,
                reason: "chunk length exceeds its run",
            });
        }
        let payload_at = self.offset;
        self.read_exact_at(len)?;
        if check != check32(&self.buf) {
            return Err(SpillError::Corrupt {
                offset: frame_at,
                reason: "chunk payload checksum mismatch",
            });
        }
        self.decoded.clear();
        self.next = 0;
        decode_chunk_events(&self.buf, count, payload_at, &mut self.decoded)?;
        self.remaining = self.remaining.saturating_sub(u64::from(count));
        Ok(true)
    }
}

impl EventSource for RunReader {
    fn next_event(&mut self) -> Result<Option<TraceEvent>, SpillError> {
        loop {
            if let Some(&e) = self.decoded.get(self.next) {
                self.next += 1;
                return Ok(Some(e));
            }
            if !self.refill()? {
                return Ok(None);
            }
        }
    }
}

/// A lane head's merge key: exhausted lanes last — by this flag, not
/// a sentinel, since a NaN time can map to `u64::MAX` — then the
/// `total_cmp` image of time, source and seq. The lane index breaks
/// the remaining tie.
type HeadKey = (bool, u64, u32, u64);

/// Maps `t` to a `u64` whose unsigned order is `f64::total_cmp`'s.
fn time_key(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Streaming k-way merge over sorted [`EventSource`]s under the global
/// `(time, source, seq)` order, with the source index as the final
/// tie-break (on a tied key the lower lane pops first), so merges in
/// memory and on disk pop identical sequences.
///
/// A loser tree: each internal node keeps the lane that lost the match
/// there, so a pop replays one leaf-to-root path of `log₂ k`
/// comparisons against the stored losers, and moves no event.
pub struct KWayMerge<S: EventSource> {
    sources: Vec<S>,
    /// Each lane's current head, `None` once the lane is exhausted.
    heads: Vec<Option<TraceEvent>>,
    keys: Vec<HeadKey>,
    /// `tree[0]` is the winning lane; `tree[1..k]` hold the losers of
    /// the matches at internal nodes. Lane `i` is leaf `k + i`, and
    /// node `n`'s parent is `n / 2`.
    tree: Vec<usize>,
}

impl<S: EventSource> KWayMerge<S> {
    /// Primes one cursor per source.
    ///
    /// # Errors
    ///
    /// Propagates the first source's decode or I/O failure.
    pub fn new(sources: Vec<S>) -> Result<Self, SpillError> {
        let k = sources.len();
        let mut merge = KWayMerge {
            sources,
            heads: vec![None; k],
            keys: vec![(true, 0, 0, 0); k],
            tree: vec![0; k],
        };
        for lane in 0..k {
            merge.advance(lane)?;
        }
        if k > 0 {
            let mut winners = vec![0; 2 * k];
            for lane in 0..k {
                winners[k + lane] = lane;
            }
            for node in (1..k).rev() {
                let (a, b) = (winners[2 * node], winners[2 * node + 1]);
                let (win, lose) = if merge.beats(a, b) { (a, b) } else { (b, a) };
                winners[node] = win;
                merge.tree[node] = lose;
            }
            merge.tree[0] = winners[1];
        }
        Ok(merge)
    }

    /// Whether lane `a`'s head pops before lane `b`'s.
    fn beats(&self, a: usize, b: usize) -> bool {
        (self.keys[a], a) < (self.keys[b], b)
    }

    /// Pulls `lane`'s next event into its head.
    fn advance(&mut self, lane: usize) -> Result<(), SpillError> {
        let next = self.sources[lane].next_event()?;
        self.keys[lane] = match &next {
            Some(e) => (false, time_key(e.time), e.source, e.seq),
            None => (true, 0, 0, 0),
        };
        self.heads[lane] = next;
        Ok(())
    }

    /// Pops the globally next event, refilling the lane it came from.
    ///
    /// # Errors
    ///
    /// Propagates the lane's decode or I/O failure.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, SpillError> {
        let Some(&lane) = self.tree.first() else {
            return Ok(None);
        };
        // Exhausted lanes sort last: an empty winner means all are.
        let Some(event) = self.heads[lane].take() else {
            return Ok(None);
        };
        self.advance(lane)?;
        let mut winner = lane;
        let mut node = (self.tree.len() + lane) / 2;
        while node > 0 {
            let rival = self.tree[node];
            if self.beats(rival, winner) {
                self.tree[node] = winner;
                winner = rival;
            }
            node /= 2;
        }
        self.tree[0] = winner;
        Ok(Some(event))
    }

    /// Drains the merge into a vector — test and small-input helper;
    /// metro-scale callers should stream via [`next_event`](Self::next_event).
    ///
    /// # Errors
    ///
    /// Propagates the first decode or I/O failure.
    pub fn collect_all(mut self) -> Result<Vec<TraceEvent>, SpillError> {
        let mut out = Vec::new();
        while let Some(e) = self.next_event()? {
            out.push(e);
        }
        Ok(out)
    }
}

impl<S: EventSource> EventSource for KWayMerge<S> {
    fn next_event(&mut self) -> Result<Option<TraceEvent>, SpillError> {
        KWayMerge::next_event(self)
    }
}

/// An [`io::Write`] adapter that FNV-1a-hashes and counts every byte
/// on its way through — how the determinism gates fingerprint exports
/// that are too large to pin as goldens.
#[derive(Debug)]
pub struct HashingWriter<W: Write> {
    inner: W,
    hash: u64,
    bytes: u64,
}

impl<W: Write> HashingWriter<W> {
    /// Wraps `inner` with a fresh FNV-1a state.
    pub fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }

    /// FNV-1a 64 hash of everything written so far.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a64_extend(self.hash, &buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reads every run of a finished spill file into memory — the
/// round-trip half of the codec tests; production paths stream via
/// [`SpillIndex::merge`].
///
/// # Errors
///
/// Any malformed input surfaces as a structured [`SpillError`].
pub fn read_all_runs(path: &Path) -> Result<Vec<(Vec<TraceEvent>, u64)>, SpillError> {
    let index = SpillIndex::load(path)?;
    let mut out = Vec::with_capacity(index.runs.len());
    for run in &index.runs {
        let file = Arc::new(File::open(path)?);
        let mut reader = RunReader::open(file, run);
        let mut events = Vec::with_capacity(run.events as usize);
        while let Some(e) = reader.next_event()? {
            events.push(e);
        }
        out.push((events, run.dropped));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FlightRecorder, TraceSink};

    fn sample_events() -> Vec<TraceEvent> {
        let mut fr = FlightRecorder::new();
        fr.set_source(3);
        fr.emit(
            0.1,
            TraceEventKind::DtimBoundary {
                buffered: 2,
                table_entries: 5,
            },
        );
        fr.emit(
            0.1,
            TraceEventKind::WakeDecision {
                aid: 7,
                port: 5353,
                frame_id: 42,
                class: WakeClass::Missed,
                cause: WakeCause::RefreshLost,
            },
        );
        fr.emit(0.2, TraceEventKind::Join { aid: 9, hide: true });
        fr.emit(0.3, TraceEventKind::Leave { aid: 9 });
        fr.events().copied().collect()
    }

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "hide-spill-unit-{}-{tag}-{n}.bin",
            std::process::id()
        ))
    }

    #[test]
    fn write_read_round_trip_at_chunk_size_one() {
        let events = sample_events();
        let path = temp_path("rt1");
        let mut w = SpillWriter::create(&path, 1).unwrap();
        w.write_run(&events, 7).unwrap();
        let index = w.finish().unwrap();
        assert_eq!(index.total_events(), 4);
        assert_eq!(index.total_dropped(), 7);
        let runs = read_all_runs(&path).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].0, events);
        assert_eq!(runs[0].1, 7);
        // The scan-built index agrees with the writer's.
        assert_eq!(SpillIndex::load(&path).unwrap(), index);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_of_disjoint_runs_matches_tree_fold() {
        let mut a = FlightRecorder::new();
        a.set_source(0);
        for t in [0.1, 0.5, 0.5] {
            a.emit(t, TraceEventKind::EntryExpired { aid: 1 });
        }
        let mut b = FlightRecorder::new();
        b.set_source(1);
        for t in [0.2, 0.5] {
            b.emit(t, TraceEventKind::EntryExpired { aid: 2 });
        }
        let reference = FlightRecorder::merged(vec![a.clone(), b.clone()]);

        let path = temp_path("merge");
        let mut w = SpillWriter::create(&path, 2).unwrap();
        w.write_run(&a.events().copied().collect::<Vec<_>>(), 0)
            .unwrap();
        w.write_run(&b.events().copied().collect::<Vec<_>>(), 0)
            .unwrap();
        let index = w.finish().unwrap();
        let merged = index.merge().unwrap().collect_all().unwrap();
        assert_eq!(merged, reference.events().copied().collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_structured_error() {
        let path = temp_path("trunc");
        let mut w = SpillWriter::create(&path, 2).unwrap();
        w.write_run(&sample_events(), 0).unwrap();
        w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [0, 4, 9, full.len() / 2, full.len() - 1] {
            let short = &full[..cut];
            std::fs::write(&path, short).unwrap();
            let err = SpillIndex::load(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    SpillError::Truncated { .. } | SpillError::BadMagic { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_byte_is_a_structured_error() {
        let path = temp_path("corrupt");
        let mut w = SpillWriter::create(&path, 3).unwrap();
        w.write_run(&sample_events(), 1).unwrap();
        w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();
        for at in [8, 12, 25, 40, full.len() - 3] {
            let mut bad = full.clone();
            bad[at] ^= 0x5a;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                SpillIndex::load(&path).is_err(),
                "flip at {at} went undetected"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check32_alters_on_every_single_byte_change() {
        // Lengths 0–40 cover no block, a lone tail, whole blocks and
        // blocks plus every tail length.
        for len in 0..=40usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let clean = check32(&bytes);
            for at in 0..len {
                for mask in 1..=255u8 {
                    let mut changed = bytes.clone();
                    changed[at] ^= mask;
                    assert_ne!(
                        check32(&changed),
                        clean,
                        "len {len}, byte {at}, mask {mask:#04x}"
                    );
                }
            }
        }
    }

    #[test]
    fn check32_is_pinned() {
        // The check is part of the hide-spill/2 format: changing it
        // needs a new magic. Two blocks and a five-byte tail.
        assert_eq!(check32(b""), 0x57a1_341e);
        assert_eq!(
            check32(b"hide-spill/2 frame check, 37 bytes..."),
            0xb4b9_0361
        );
    }

    #[test]
    fn create_rejects_a_chunk_size_the_header_cannot_hold() {
        let path = temp_path("overflow");
        let err = SpillWriter::create(&path, usize::MAX).unwrap_err();
        assert!(
            matches!(&err, SpillError::Io(e) if e.kind() == io::ErrorKind::InvalidInput),
            "unexpected {err:?}"
        );
        assert!(!path.exists(), "rejected before the file is created");
        let largest = u32::MAX as usize / MAX_EVENT_FRAME_LEN;
        assert!(SpillWriter::create(&path, largest + 1).is_err());
        SpillWriter::create(&path, largest).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exhausted_lanes_sort_after_a_maximal_nan_time() {
        // This NaN maps to the largest key, u64::MAX; exhausted lanes
        // still sort after it.
        let nan = f64::from_bits(0x7fff_ffff_ffff_ffff);
        let event = |time, source| TraceEvent {
            time,
            source,
            seq: 0,
            kind: TraceEventKind::Leave { aid: 1 },
        };
        let lanes = vec![
            vec![event(nan, u32::MAX)].into_iter(),
            Vec::new().into_iter(),
            vec![event(-0.0, 2), event(0.5, 2)].into_iter(),
            vec![event(0.0, 3)].into_iter(),
        ];
        let merged = KWayMerge::new(lanes).unwrap().collect_all().unwrap();
        let popped: Vec<(u64, u32)> = merged
            .iter()
            .map(|e| (e.time.to_bits(), e.source))
            .collect();
        assert_eq!(
            popped,
            vec![
                ((-0.0f64).to_bits(), 2),
                (0.0f64.to_bits(), 3),
                (0.5f64.to_bits(), 2),
                (nan.to_bits(), u32::MAX),
            ]
        );
        assert!(KWayMerge::<std::vec::IntoIter<TraceEvent>>::new(Vec::new())
            .unwrap()
            .collect_all()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn equal_keys_pop_in_lane_order() {
        // The left-wins rule: on a tied key the lower lane pops first.
        let event = |aid| TraceEvent {
            time: 0.5,
            source: 1,
            seq: 0,
            kind: TraceEventKind::Leave { aid },
        };
        let lanes = (0..3).map(|aid| vec![event(aid)].into_iter()).collect();
        let merged = KWayMerge::new(lanes).unwrap().collect_all().unwrap();
        assert_eq!(merged, vec![event(0), event(1), event(2)]);
    }

    #[test]
    fn hashing_writer_matches_one_shot_fnv() {
        let mut hw = HashingWriter::new(Vec::new());
        hw.write_all(b"hello ").unwrap();
        hw.write_all(b"world").unwrap();
        assert_eq!(hw.hash(), fnv1a64(b"hello world"));
        assert_eq!(hw.bytes(), 11);
        assert_eq!(hw.into_inner(), b"hello world".to_vec());
    }
}
