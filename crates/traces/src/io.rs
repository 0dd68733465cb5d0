//! Trace serialization: JSON save/load so generated traces can be
//! inspected, archived and replayed byte-identically.
//!
//! A trace has a fixed, flat shape (a header plus an array of frames of
//! four scalars and a rate tag): a small writer emits it, and the
//! workspace's JSON reader ([`hide_obs::json`]) reads it back before the
//! typed checks here. Floats are emitted with Rust's shortest
//! round-trip formatting (`{:?}`), which guarantees save → load is
//! lossless.

use crate::record::{Trace, TraceFrame};
use hide_obs::json::{self, Kind, Value};
use hide_wifi::phy::DataRate;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

pub use hide_obs::json::JsonError;

/// Errors from trace (de)serialization.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceIoError {
    /// Filesystem error.
    Io(io::Error),
    /// JSON encoding/decoding error.
    Json(JsonError),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace file i/o error: {e}"),
            TraceIoError::Json(e) => write!(f, "trace json error: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Json(e) => Some(e),
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<JsonError> for TraceIoError {
    fn from(e: JsonError) -> Self {
        TraceIoError::Json(e)
    }
}

fn rate_tag(rate: DataRate) -> &'static str {
    match rate {
        DataRate::R1M => "R1M",
        DataRate::R2M => "R2M",
        DataRate::R5_5M => "R5_5M",
        DataRate::R11M => "R11M",
    }
}

fn rate_from_tag(tag: &str, offset: usize) -> Result<DataRate, JsonError> {
    match tag {
        "R1M" => Ok(DataRate::R1M),
        "R2M" => Ok(DataRate::R2M),
        "R5_5M" => Ok(DataRate::R5_5M),
        "R11M" => Ok(DataRate::R11M),
        other => Err(JsonError::new(
            format!("unknown data rate {other:?}"),
            offset,
        )),
    }
}

/// Serializes a trace to JSON.
///
/// # Errors
///
/// Returns [`TraceIoError::Json`] on encoding failure (never occurs for
/// well-formed traces; kept for API stability).
pub fn to_json(trace: &Trace) -> Result<String, TraceIoError> {
    // ~64 bytes per frame is a comfortable overestimate.
    let mut out = String::with_capacity(64 + trace.frames.len() * 64);
    out.push_str("{\"scenario\":");
    json::push_string(&mut out, &trace.scenario);
    out.push_str(",\"duration\":");
    out.push_str(&format!("{:?}", trace.duration));
    out.push_str(",\"frames\":[");
    for (i, f) in trace.frames.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"time\":{:?},\"len_bytes\":{},\"rate\":\"{}\",\"dst_port\":{},\"more_data\":{}}}",
            f.time,
            f.len_bytes,
            rate_tag(f.rate),
            f.dst_port,
            f.more_data
        ));
    }
    out.push_str("]}");
    Ok(out)
}

fn field<'v, 'a>(
    obj: &'v Value<'a>,
    name: &str,
    obj_at: usize,
) -> Result<&'v Value<'a>, JsonError> {
    obj.get(name)
        .ok_or_else(|| JsonError::new(format!("missing field {name:?}"), obj_at))
}

fn as_f64(v: &Value, name: &str) -> Result<f64, JsonError> {
    v.as_f64()
        .ok_or_else(|| JsonError::new(format!("field {name:?} must be a number"), v.offset))
}

fn as_u16(v: &Value, name: &str) -> Result<u16, JsonError> {
    let n = as_f64(v, name)?;
    if n.fract() == 0.0 && (0.0..=u16::MAX as f64).contains(&n) {
        Ok(n as u16)
    } else {
        Err(JsonError::new(
            format!("field {name:?} must be a u16"),
            v.offset,
        ))
    }
}

/// Deserializes a trace from JSON.
///
/// # Errors
///
/// Returns [`TraceIoError::Json`] on malformed input.
pub fn from_json(json: &str) -> Result<Trace, TraceIoError> {
    let root = json::parse(json)?;
    if !matches!(root.kind, Kind::Object(_)) {
        return Err(JsonError::new("trace must be a JSON object", 0).into());
    }

    let scenario = field(&root, "scenario", 0)?;
    let scenario = scenario
        .as_str()
        .ok_or_else(|| JsonError::new("field \"scenario\" must be a string", scenario.offset))?;
    let duration = as_f64(field(&root, "duration", 0)?, "duration")?;
    let raw_frames = field(&root, "frames", 0)?;
    let raw_frames = raw_frames
        .as_array()
        .ok_or_else(|| JsonError::new("field \"frames\" must be an array", raw_frames.offset))?;

    let mut frames = Vec::with_capacity(raw_frames.len());
    for f in raw_frames {
        if !matches!(f.kind, Kind::Object(_)) {
            return Err(JsonError::new("frame must be a JSON object", f.offset).into());
        }
        let rate = field(f, "rate", f.offset)?;
        let tag = rate
            .as_str()
            .ok_or_else(|| JsonError::new("field \"rate\" must be a string", rate.offset))?;
        let rate = rate_from_tag(tag, rate.offset)?;
        let more_data = field(f, "more_data", f.offset)?;
        let more_data = more_data.as_bool().ok_or_else(|| {
            JsonError::new("field \"more_data\" must be a bool", more_data.offset)
        })?;
        frames.push(TraceFrame {
            time: as_f64(field(f, "time", f.offset)?, "time")?,
            len_bytes: as_u16(field(f, "len_bytes", f.offset)?, "len_bytes")?,
            rate,
            dst_port: as_u16(field(f, "dst_port", f.offset)?, "dst_port")?,
            more_data,
        });
    }

    Ok(Trace {
        scenario: scenario.to_string(),
        duration,
        frames,
    })
}

/// Writes a trace to a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError`] on filesystem or encoding failure.
pub fn save<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<(), TraceIoError> {
    fs::write(path, to_json(trace)?)?;
    Ok(())
}

/// Reads a trace from a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError`] on filesystem or decoding failure.
pub fn load<P: AsRef<Path>>(path: P) -> Result<Trace, TraceIoError> {
    from_json(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn json_round_trip() {
        let trace = Scenario::Starbucks.generate(60.0, 21);
        let json = to_json(&trace).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn file_round_trip() {
        let trace = Scenario::Wrl.generate(30.0, 22);
        let dir = std::env::temp_dir().join("hide_trace_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrl.json");
        save(&trace, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_is_error() {
        assert!(matches!(from_json("{not json"), Err(TraceIoError::Json(_))));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load("/nonexistent/path/trace.json"),
            Err(TraceIoError::Io(_))
        ));
    }

    #[test]
    fn whitespace_and_escapes_are_tolerated() {
        let json = r#" {
            "scenario" : "café \"lab\"",
            "duration" : 1.5 ,
            "frames" : [ { "time": 0.25, "len_bytes": 300,
                           "rate": "R11M", "dst_port": 5353,
                           "more_data": true } ]
        } "#;
        let t = from_json(json).unwrap();
        assert_eq!(t.scenario, "café \"lab\"");
        assert_eq!(t.frames.len(), 1);
        assert_eq!(t.frames[0].dst_port, 5353);
        assert!(t.frames[0].more_data);
        // Round-trips through the compact writer too.
        let back = from_json(&to_json(&t).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn float_precision_survives_round_trip() {
        let mut trace = Scenario::Classroom.generate(10.0, 7);
        if let Some(f) = trace.frames.first_mut() {
            f.time = 0.1 + 0.2; // classic non-representable sum
        }
        let back = from_json(&to_json(&trace).unwrap()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn bad_rate_tag_is_json_error_at_the_tag() {
        let json = r#"{"scenario":"x","duration":1.0,"frames":[{"time":0.0,"len_bytes":100,"rate":"R54M","dst_port":1,"more_data":false}]}"#;
        match from_json(json) {
            Err(TraceIoError::Json(e)) => {
                assert_eq!(e.offset(), 76);
                assert_eq!(e.to_string(), "unknown data rate \"R54M\" at byte 76");
            }
            other => panic!("expected a json error, got {other:?}"),
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(matches!(
            from_json(&"[".repeat(200_000)),
            Err(TraceIoError::Json(_))
        ));
    }
}
