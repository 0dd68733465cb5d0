//! Trace exporters: JSONL event logs and Chrome-trace/Perfetto JSON.
//!
//! Both formats are rendered with fixed field order and fixed float
//! precision, so exporting the same event sequence always yields the
//! same bytes. Both contain **only** simulation-time data and are
//! therefore byte-identical across reruns and `--jobs` counts.
//!
//! Each format has one per-event renderer, which writes ASCII straight
//! into a reused byte buffer: integers through a two-digit table, and
//! the JSONL `t` field through an exact fixed-point path that rounds
//! the `f64`'s binary value to 9 decimals, ties to even — the bytes
//! `format!("{t:.9}")` produces, without going through `core::fmt`.
//! The streaming functions ([`stream_jsonl`], [`stream_chrome_trace`])
//! pull from any [`EventSource`] — typically a
//! [`KWayMerge`](crate::spill::KWayMerge) over spilled runs — and push
//! into an [`io::Write`]; the in-memory functions ([`to_jsonl`],
//! [`to_chrome_trace`]) are those same streams over a recorder's log.
//! `crates/obs/tests/proptest_export.rs` pins the renderers against
//! `core::fmt`.

use std::io::{self, Write as _};

use crate::spill::{EventSource, SpillError};
use crate::trace::{FlightRecorder, TraceEvent, TraceEventKind};

/// Rendered bytes buffered before each write to the output.
const WRITE_BATCH: usize = 64 * 1024;

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `"00" "01" … "99"`: two ASCII digits per entry.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Appends the decimal digits of `v`.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Seconds as whole nanoseconds: the exact binary value of `t` times
/// 10⁹, rounded half to even — the rule `{:.9}` applies. `None` for
/// negative (`-0.0` included) or non-finite times, and for times of
/// 2⁶⁴ ns or more.
fn exact_nanos(t: f64) -> Option<u64> {
    if t.is_sign_negative() || !t.is_finite() {
        return None;
    }
    let bits = t.to_bits();
    let biased = (bits >> 52) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // t = mantissa × 2^exp, exactly.
    let (mantissa, exp) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    if exp >= 0 {
        return None; // t ≥ 2⁵² s, far past 2⁶⁴ ns.
    }
    let scaled = u128::from(mantissa) * u128::from(NANOS_PER_SEC);
    let shift = exp.unsigned_abs();
    if shift >= 128 {
        return Some(0); // scaled < 2⁸³: below half a nanosecond.
    }
    let whole = scaled >> shift;
    let rest = scaled & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    let rounded = if rest > half || (rest == half && whole & 1 == 1) {
        whole + 1
    } else {
        whole
    };
    u64::try_from(rounded).ok()
}

/// Appends simulation seconds with 9 decimals, byte-equal to
/// `format!("{t:.9}")`.
fn push_secs(out: &mut Vec<u8>, t: f64) {
    let Some(ns) = exact_nanos(t) else {
        write!(out, "{t:.9}").expect("writing to a Vec cannot fail");
        return;
    };
    push_u64(out, ns / NANOS_PER_SEC);
    out.push(b'.');
    let mut frac = ns % NANOS_PER_SEC;
    let mut digits = [0u8; 9];
    for i in (0..4).rev() {
        let pair = (frac % 100) as usize * 2;
        frac /= 100;
        digits[1 + 2 * i..3 + 2 * i].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    digits[0] = b'0' + frac as u8;
    out.extend_from_slice(&digits);
}

/// Appends `"key":value` for an integer value; `key` carries its
/// quotes and colon.
fn push_int(out: &mut Vec<u8>, key: &[u8], v: u64) {
    out.extend_from_slice(key);
    push_u64(out, v);
}

/// Appends `"key":"label"`; `key` carries its quotes and colon.
fn push_label(out: &mut Vec<u8>, key: &[u8], label: &str) {
    out.extend_from_slice(key);
    out.push(b'"');
    out.extend_from_slice(label.as_bytes());
    out.push(b'"');
}

/// Appends the payload fields of `kind`, comma-separated, in schema
/// order. The wake class is a field in JSONL (`with_class`) but part
/// of the event name in Chrome traces.
fn push_fields(out: &mut Vec<u8>, kind: &TraceEventKind, with_class: bool) {
    match *kind {
        TraceEventKind::DtimBoundary {
            buffered,
            table_entries,
        } => {
            push_int(out, b"\"buffered\":", buffered.into());
            push_int(out, b",\"table_entries\":", table_entries.into());
        }
        TraceEventKind::BtimEmitted { bytes, bits_set } => {
            push_int(out, b"\"bytes\":", bytes.into());
            push_int(out, b",\"bits_set\":", bits_set.into());
        }
        TraceEventKind::WakeDecision {
            aid,
            port,
            frame_id,
            class,
            cause,
        } => {
            push_int(out, b"\"aid\":", aid.into());
            push_int(out, b",\"port\":", port.into());
            push_int(out, b",\"frame\":", frame_id);
            if with_class {
                push_label(out, b",\"class\":", class.name());
            }
            push_label(out, b",\"cause\":", cause.name());
        }
        TraceEventKind::Join { aid, hide } => {
            push_int(out, b"\"aid\":", aid.into());
            out.extend_from_slice(if hide {
                b",\"hide\":true"
            } else {
                b",\"hide\":false"
            });
        }
        TraceEventKind::RefreshApplied { aid }
        | TraceEventKind::RefreshLost { aid }
        | TraceEventKind::PortChurn { aid }
        | TraceEventKind::EntryExpired { aid }
        | TraceEventKind::Leave { aid } => push_int(out, b"\"aid\":", aid.into()),
    }
}

/// Renders one event as a JSON line, trailing newline included.
fn push_jsonl_line(out: &mut Vec<u8>, e: &TraceEvent) {
    out.extend_from_slice(b"{\"t\":");
    push_secs(out, e.time);
    push_int(out, b",\"src\":", e.source.into());
    push_int(out, b",\"seq\":", e.seq);
    push_label(out, b",\"kind\":", e.kind.name());
    out.push(b',');
    push_fields(out, &e.kind, true);
    out.extend_from_slice(b"}\n");
}

/// Renders every event of `src` through `render` into `out`, batching
/// the writes. Returns the number of events rendered.
fn stream_events<S, W>(
    src: &mut S,
    buf: &mut Vec<u8>,
    out: &mut W,
    render: fn(&mut Vec<u8>, &TraceEvent),
) -> Result<u64, SpillError>
where
    S: EventSource,
    W: io::Write,
{
    let mut count = 0u64;
    while let Some(e) = src.next_event()? {
        render(buf, &e);
        count += 1;
        if buf.len() >= WRITE_BATCH {
            out.write_all(buf)?;
            buf.clear();
        }
    }
    Ok(count)
}

/// Serializes the event log as JSON Lines: one event object per line,
/// in `(time, source, seq)` order, with the schema documented in
/// `docs/metrics-schema.md`. Deterministic byte-for-byte.
#[must_use]
pub fn to_jsonl(rec: &FlightRecorder) -> String {
    in_memory(|out| stream_jsonl(&mut rec.events().copied(), out))
}

/// Streams a sorted event source as JSON Lines into `out`, holding one
/// event and one write batch at a time. Returns the number of events
/// written.
///
/// # Errors
///
/// Propagates the source's decode failures and the writer's I/O
/// failures as [`SpillError`].
pub fn stream_jsonl<S, W>(src: &mut S, out: &mut W) -> Result<u64, SpillError>
where
    S: EventSource,
    W: io::Write,
{
    let mut buf = Vec::with_capacity(WRITE_BATCH + 256);
    let count = stream_events(src, &mut buf, out, push_jsonl_line)?;
    out.write_all(&buf)?;
    Ok(count)
}

/// Simulation seconds → Chrome-trace microsecond timestamps.
fn sim_micros(time: f64) -> u64 {
    (time * 1e6).round() as u64
}

/// Renders the Chrome-trace opening: header plus process-name
/// metadata.
fn push_chrome_prelude(out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.extend_from_slice(
        b"{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
          \"args\":{\"name\":\"simulation (sim time)\"}}",
    );
}

/// Renders one simulation event as a Chrome instant event, with its
/// leading `",\n"` separator.
fn push_chrome_event(out: &mut Vec<u8>, e: &TraceEvent) {
    out.extend_from_slice(b",\n{\"name\":\"");
    if let TraceEventKind::WakeDecision { class, .. } = e.kind {
        out.extend_from_slice(b"wake:");
        out.extend_from_slice(class.name().as_bytes());
    } else {
        out.extend_from_slice(e.kind.name().as_bytes());
    }
    push_int(
        out,
        b"\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":",
        e.source.into(),
    );
    push_int(out, b",\"ts\":", sim_micros(e.time));
    out.extend_from_slice(b",\"args\":{");
    push_fields(out, &e.kind, false);
    out.extend_from_slice(b"}}");
}

/// Serializes the event log in the Chrome trace event format (load it
/// in `chrome://tracing` or Perfetto).
///
/// Simulation-time events render as instant events (`ph:"i"`) on
/// process 1, one thread track per source lane.
#[must_use]
pub fn to_chrome_trace(rec: &FlightRecorder) -> String {
    in_memory(|out| stream_chrome_trace(&mut rec.events().copied(), out))
}

/// Streams a sorted event source in the Chrome trace event format into
/// `out`, holding one event and one write batch at a time. Returns the
/// number of simulation events written.
///
/// # Errors
///
/// Propagates the source's decode failures and the writer's I/O
/// failures as [`SpillError`].
pub fn stream_chrome_trace<S, W>(src: &mut S, out: &mut W) -> Result<u64, SpillError>
where
    S: EventSource,
    W: io::Write,
{
    let mut buf = Vec::with_capacity(WRITE_BATCH + 512);
    push_chrome_prelude(&mut buf);
    let count = stream_events(src, &mut buf, out, push_chrome_event)?;
    buf.extend_from_slice(b"\n]}\n");
    out.write_all(&buf)?;
    Ok(count)
}

/// Runs a stream renderer into memory.
fn in_memory(render: impl FnOnce(&mut Vec<u8>) -> Result<u64, SpillError>) -> String {
    let mut out = Vec::new();
    render(&mut out).expect("in-memory sources and writers cannot fail");
    String::from_utf8(out).expect("the renderers write ASCII only")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceSink, WakeCause, WakeClass};

    fn sample() -> FlightRecorder {
        let mut fr = FlightRecorder::new();
        fr.set_source(3);
        fr.emit(
            0.1024,
            TraceEventKind::DtimBoundary {
                buffered: 2,
                table_entries: 5,
            },
        );
        fr.emit(
            0.1024,
            TraceEventKind::BtimEmitted {
                bytes: 4,
                bits_set: 1,
            },
        );
        fr.emit(
            0.1024,
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
        fr
    }

    #[test]
    fn jsonl_lines_are_well_formed_and_ordered() {
        let jsonl = to_jsonl(&sample());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(lines[0].contains("\"kind\":\"dtim_boundary\""));
        assert!(lines[0].contains("\"t\":0.102400000"));
        assert!(lines[2].contains("\"class\":\"missed\""));
        assert!(lines[2].contains("\"cause\":\"refresh_lost\""));
        assert!(lines[3].contains("\"hide\":true"));
    }

    #[test]
    fn jsonl_is_deterministic() {
        assert_eq!(to_jsonl(&sample()), to_jsonl(&sample()));
    }

    #[test]
    fn exact_ties_round_half_to_even() {
        let t = |x: f64| {
            let mut out = Vec::new();
            push_secs(&mut out, x);
            String::from_utf8(out).unwrap()
        };
        assert_eq!(t(0.0009765625), "0.000976562");
        assert_eq!(t(0.0029296875), "0.002929688");
        assert_eq!(t(0.0), "0.000000000");
        assert_eq!(t(-0.0), "-0.000000000");
        assert_eq!(t(1234.5), "1234.500000000");
    }

    #[test]
    fn chrome_trace_has_instant_events_per_source_track() {
        let json = to_chrome_trace(&sample());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"name\":\"wake:missed\""));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"ts\":102400"));
        assert!(!json.contains("\"pid\":2"));
    }

    #[test]
    fn empty_log_renders_only_the_simulation_process() {
        // The header and the one process-name record: no other process
        // or track is drawn when there is nothing to draw.
        assert_eq!(
            to_chrome_trace(&FlightRecorder::new()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"simulation (sim time)\"}}\n]}\n"
        );
        assert_eq!(to_jsonl(&FlightRecorder::new()), "");
    }

    #[test]
    fn streamed_jsonl_is_byte_identical_to_in_memory() {
        let rec = sample();
        let mut src = rec.events().copied();
        let mut out = Vec::new();
        let n = stream_jsonl(&mut src, &mut out).unwrap();
        assert_eq!(n, 5);
        assert_eq!(out, to_jsonl(&rec).into_bytes());
    }

    #[test]
    fn streamed_chrome_trace_is_byte_identical_to_in_memory() {
        let rec = sample();
        let mut src = rec.events().copied();
        let mut out = Vec::new();
        let n = stream_chrome_trace(&mut src, &mut out).unwrap();
        assert_eq!(n, 5);
        assert_eq!(out, to_chrome_trace(&rec).into_bytes());
    }
}
