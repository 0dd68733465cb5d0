//! Property tests pinning the byte-level trace renderers to
//! `core::fmt`.
//!
//! `hide_obs::export` writes ASCII straight into a byte buffer: digits
//! through a table, and the JSONL `t` field through an exact
//! fixed-point path that must reproduce `format!("{t:.9}")` — the
//! binary value rounded to 9 decimals, ties to even. The oracle below
//! is the `write!`-based renderer the byte renderers replaced; every
//! line either format emits must equal its line.
//!
//! The fleet battery never emits `btim_emitted` (only the protocol sim
//! does), so these properties are the byte check for that kind.

use std::fmt::Write as _;

use hide_obs::export::{stream_chrome_trace, stream_jsonl};
use hide_obs::trace::{TraceEvent, TraceEventKind, WakeCause, WakeClass};
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The oracle: the `core::fmt` renderer.
// ---------------------------------------------------------------------

fn oracle_jsonl_line(out: &mut String, e: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"t\":{:.9},\"src\":{},\"seq\":{},\"kind\":\"{}\"",
        e.time,
        e.source,
        e.seq,
        e.kind.name()
    );
    match e.kind {
        TraceEventKind::DtimBoundary {
            buffered,
            table_entries,
        } => {
            let _ = write!(
                out,
                ",\"buffered\":{buffered},\"table_entries\":{table_entries}"
            );
        }
        TraceEventKind::BtimEmitted { bytes, bits_set } => {
            let _ = write!(out, ",\"bytes\":{bytes},\"bits_set\":{bits_set}");
        }
        TraceEventKind::WakeDecision {
            aid,
            port,
            frame_id,
            class,
            cause,
        } => {
            let _ = write!(
                out,
                ",\"aid\":{aid},\"port\":{port},\"frame\":{frame_id},\"class\":\"{}\",\"cause\":\"{}\"",
                class.name(),
                cause.name()
            );
        }
        TraceEventKind::Join { aid, hide } => {
            let _ = write!(out, ",\"aid\":{aid},\"hide\":{hide}");
        }
        TraceEventKind::RefreshApplied { aid }
        | TraceEventKind::RefreshLost { aid }
        | TraceEventKind::PortChurn { aid }
        | TraceEventKind::EntryExpired { aid }
        | TraceEventKind::Leave { aid } => {
            let _ = write!(out, ",\"aid\":{aid}");
        }
    }
    out.push_str("}\n");
}

fn oracle_chrome(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"simulation (sim time)\"}}",
    );
    for e in events {
        out.push_str(",\n");
        let name: String = match e.kind {
            TraceEventKind::WakeDecision { class, .. } => format!("wake:{}", class.name()),
            _ => e.kind.name().to_string(),
        };
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{",
            e.source,
            (e.time * 1e6).round() as u64
        );
        match e.kind {
            TraceEventKind::DtimBoundary {
                buffered,
                table_entries,
            } => {
                let _ = write!(
                    out,
                    "\"buffered\":{buffered},\"table_entries\":{table_entries}"
                );
            }
            TraceEventKind::BtimEmitted { bytes, bits_set } => {
                let _ = write!(out, "\"bytes\":{bytes},\"bits_set\":{bits_set}");
            }
            TraceEventKind::WakeDecision {
                aid,
                port,
                frame_id,
                cause,
                ..
            } => {
                let _ = write!(
                    out,
                    "\"aid\":{aid},\"port\":{port},\"frame\":{frame_id},\"cause\":\"{}\"",
                    cause.name()
                );
            }
            TraceEventKind::Join { aid, hide } => {
                let _ = write!(out, "\"aid\":{aid},\"hide\":{hide}");
            }
            TraceEventKind::RefreshApplied { aid }
            | TraceEventKind::RefreshLost { aid }
            | TraceEventKind::PortChurn { aid }
            | TraceEventKind::EntryExpired { aid }
            | TraceEventKind::Leave { aid } => {
                let _ = write!(out, "\"aid\":{aid}");
            }
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------
// The renderers under test.
// ---------------------------------------------------------------------

fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = Vec::new();
    let n = stream_jsonl(&mut events.iter().copied(), &mut out).expect("in memory");
    assert_eq!(n, events.len() as u64);
    String::from_utf8(out).expect("ASCII")
}

fn chrome(events: &[TraceEvent]) -> String {
    let mut out = Vec::new();
    let n = stream_chrome_trace(&mut events.iter().copied(), &mut out).expect("in memory");
    assert_eq!(n, events.len() as u64);
    String::from_utf8(out).expect("ASCII")
}

/// The `t` field the JSONL renderer writes for time `x`.
fn rendered_t(x: f64) -> String {
    let event = TraceEvent {
        time: x,
        source: 0,
        seq: 0,
        kind: TraceEventKind::Leave { aid: 0 },
    };
    let line = jsonl(&[event]);
    let start = "{\"t\":".len();
    let end = line.find(",\"src\":").expect("src follows t");
    line[start..end].to_string()
}

/// Any of the nine kinds, every wake class and cause, from integers.
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

/// A time from raw material: arbitrary bits, or `m × 2⁻ˢ` with a
/// 53-bit `m` — the shape of the fast path, its ties and its limit.
fn time_from(bits: u64, m: u64, s: u8, arbitrary: bool) -> f64 {
    if arbitrary {
        f64::from_bits(bits)
    } else {
        (m >> 11) as f64 * 2f64.powi(-i32::from(s % 96))
    }
}

type RawEvent = (u8, u64, u64, (u64, u64, u8, bool), u64);

fn event_from((selector, a, b, (bits, m, s, arbitrary), meta): RawEvent) -> TraceEvent {
    TraceEvent {
        time: time_from(bits, m, s, arbitrary),
        source: meta as u32,
        seq: meta >> 32,
        kind: kind_from(selector, a, b),
    }
}

#[test]
fn t_matches_core_fmt_on_edge_values() {
    let limit = 2f64.powi(64) / 1e9;
    let mut cases = vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE,
        0.1024,
        1e-9,
        5e-10,
        4.999_999_999_999_999e-10,
        limit,
        f64::from_bits(limit.to_bits() - 1),
        f64::from_bits(limit.to_bits() + 1),
        2f64.powi(52),
        f64::MAX,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.5,
    ];
    // Odd multiples of 2⁻¹⁰ are exact ties at the 9th decimal.
    for k in [1u32, 3, 5, 7, 9, 11, 1023, 2047, 123_457] {
        cases.push(f64::from(k) / 1024.0);
    }
    for x in cases {
        assert_eq!(
            rendered_t(x),
            format!("{x:.9}"),
            "t = {x:e} ({:#x})",
            x.to_bits()
        );
    }
    assert_eq!(rendered_t(0.0009765625), "0.000976562");
    assert_eq!(rendered_t(0.0029296875), "0.002929688");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The `t` formatter equals `{:.9}` on arbitrary bit patterns and
    /// on fast-path-shaped values.
    #[test]
    fn t_matches_core_fmt(bits in any::<u64>(), m in any::<u64>(), s in any::<u8>()) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(rendered_t(x), format!("{x:.9}"), "bits {:#x}", bits);
        let y = time_from(bits, m, s, false);
        prop_assert_eq!(rendered_t(y), format!("{y:.9}"), "m {} s {}", m >> 11, s % 96);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whole JSONL and Chrome documents over arbitrary events of all
    /// nine kinds equal the oracle's.
    #[test]
    fn lines_match_core_fmt(
        raw in vec(
            (
                any::<u8>(),
                any::<u64>(),
                any::<u64>(),
                (any::<u64>(), any::<u64>(), any::<u8>(), any::<bool>()),
                any::<u64>(),
            ),
            0..32,
        ),
    ) {
        let events: Vec<TraceEvent> = raw.into_iter().map(event_from).collect();
        let mut want = String::new();
        for e in &events {
            oracle_jsonl_line(&mut want, e);
        }
        prop_assert_eq!(jsonl(&events), want);
        prop_assert_eq!(chrome(&events), oracle_chrome(&events));
    }
}
