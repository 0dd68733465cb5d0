//! Leveled structured logging for the workspace binaries.
//!
//! A deliberately small facility (no external crates, no global
//! subscriber machinery): one process-wide level gate, RFC 3339
//! timestamps, `key=value`-friendly single-line records on stderr, and
//! a bounded in-memory ring of the most recent warn/error records so a
//! running daemon can include them in its `hide-apd-health/1` report.
//!
//! * `--log-level off` is **byte-silent**: nothing is ever written to
//!   stderr, which un-interleaves multi-threaded test output.
//! * Levels order `Error < Warn < Info < Debug`; a record is emitted
//!   when its level is at or below the configured maximum.
//! * The [`log_error!`](crate::log_error)/[`log_warn!`](crate::log_warn)/[`log_info!`](crate::log_info)/[`log_debug!`](crate::log_debug)
//!   macros capture the caller's crate name as the record target and
//!   format lazily — arguments are not evaluated when the level is
//!   disabled.

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Verbosity levels, in increasing order of chattiness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Nothing is ever written (byte-silent stderr).
    Off,
    /// Unrecoverable or correctness-relevant failures.
    Error,
    /// Degraded-but-running conditions (watchdog stalls, drops).
    Warn,
    /// Lifecycle and progress messages. The default.
    Info,
    /// Per-operation detail for debugging sessions.
    Debug,
}

impl LogLevel {
    /// Stable lowercase name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    fn from_u8(v: u8) -> LogLevel {
        match v {
            0 => LogLevel::Off,
            1 => LogLevel::Error,
            2 => LogLevel::Warn,
            4 => LogLevel::Debug,
            _ => LogLevel::Info,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            LogLevel::Off => 0,
            LogLevel::Error => 1,
            LogLevel::Warn => 2,
            LogLevel::Info => 3,
            LogLevel::Debug => 4,
        }
    }
}

impl std::str::FromStr for LogLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" | "silent" => Ok(LogLevel::Off),
            "error" => Ok(LogLevel::Error),
            "warn" | "warning" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!(
                "unknown log level {other:?} (expected off|error|warn|info|debug)"
            )),
        }
    }
}

/// One retained warn/error record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Nanoseconds since the UNIX epoch at emission.
    pub unix_nanos: u64,
    /// Severity of the record.
    pub level: LogLevel,
    /// Crate (or subsystem) that emitted it.
    pub target: String,
    /// The formatted single-line message.
    pub message: String,
}

impl LogRecord {
    /// The record as its stderr line: `TS LEVEL target: message`.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{} {:5} {}: {}",
            rfc3339_nanos(self.unix_nanos),
            self.level.label(),
            self.target,
            self.message
        )
    }
}

/// Default capacity of the retained warn/error ring.
pub const DEFAULT_LOG_RING: usize = 64;

static MAX_LEVEL: AtomicU8 = AtomicU8::new(3); // Info
static RING_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_LOG_RING);
static RING: OnceLock<Mutex<VecDeque<LogRecord>>> = OnceLock::new();

fn ring() -> &'static Mutex<VecDeque<LogRecord>> {
    RING.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Set the process-wide maximum level.
pub fn set_level(level: LogLevel) {
    MAX_LEVEL.store(level.as_u8(), Ordering::Relaxed);
}

/// The current process-wide maximum level.
#[must_use]
pub fn level() -> LogLevel {
    LogLevel::from_u8(MAX_LEVEL.load(Ordering::Relaxed))
}

/// True when a record at `at` would be emitted.
#[inline]
#[must_use]
pub fn enabled(at: LogLevel) -> bool {
    at != LogLevel::Off && at.as_u8() <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Resize the retained warn/error ring (existing overflow is trimmed).
#[cfg(test)]
fn set_ring_capacity(capacity: usize) {
    RING_CAP.store(capacity, Ordering::Relaxed);
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    while ring.len() > capacity {
        ring.pop_front();
    }
}

/// The retained warn/error records, oldest first.
#[must_use]
pub fn recent_records() -> Vec<LogRecord> {
    ring()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect()
}

/// Drop all retained records (test isolation).
#[cfg(test)]
fn clear_records() {
    ring().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Emit one record: write the line to stderr and, for warn/error,
/// retain it in the bounded ring. Callers normally go through the
/// level macros, which check [`enabled`] first.
pub fn log(at: LogLevel, target: &str, args: std::fmt::Arguments<'_>) {
    if !enabled(at) {
        return;
    }
    let unix_nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let record = LogRecord {
        unix_nanos,
        level: at,
        target: target.to_string(),
        message: args.to_string(),
    };
    {
        let stderr = std::io::stderr();
        let mut out = stderr.lock();
        let _ = writeln!(out, "{}", record.render());
    }
    if at <= LogLevel::Warn {
        let cap = RING_CAP.load(Ordering::Relaxed);
        let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
        while ring.len() >= cap.max(1) {
            ring.pop_front();
        }
        if cap > 0 {
            ring.push_back(record);
        }
    }
}

/// Format nanoseconds-since-epoch as RFC 3339 UTC with nanosecond
/// precision, e.g. `2026-08-08T12:34:56.000000789Z`.
#[must_use]
pub fn rfc3339_nanos(unix_nanos: u64) -> String {
    let secs = (unix_nanos / 1_000_000_000) as i64;
    let nanos = unix_nanos % 1_000_000_000;
    let days = secs.div_euclid(86_400);
    let sod = secs.rem_euclid(86_400);
    let (year, month, day) = civil_from_days(days);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}.{nanos:09}Z",
        sod / 3600,
        (sod % 3600) / 60,
        sod % 60
    )
}

/// Proleptic-Gregorian date from days since 1970-01-01 (Howard
/// Hinnant's `civil_from_days` algorithm, integer-only).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (y + i64::from(m <= 2), m, d)
}

/// Log at [`LogLevel::Error`]; format args evaluate only when enabled.
#[macro_export]
macro_rules! log_error {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::LogLevel::Error) {
            $crate::log::log(
                $crate::log::LogLevel::Error,
                env!("CARGO_PKG_NAME"),
                format_args!($($arg)*),
            );
        }
    };
}

/// Log at [`LogLevel::Warn`]; format args evaluate only when enabled.
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::LogLevel::Warn) {
            $crate::log::log(
                $crate::log::LogLevel::Warn,
                env!("CARGO_PKG_NAME"),
                format_args!($($arg)*),
            );
        }
    };
}

/// Log at [`LogLevel::Info`]; format args evaluate only when enabled.
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::LogLevel::Info) {
            $crate::log::log(
                $crate::log::LogLevel::Info,
                env!("CARGO_PKG_NAME"),
                format_args!($($arg)*),
            );
        }
    };
}

/// Log at [`LogLevel::Debug`]; format args evaluate only when enabled.
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::LogLevel::Debug) {
            $crate::log::log(
                $crate::log::LogLevel::Debug,
                env!("CARGO_PKG_NAME"),
                format_args!($($arg)*),
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The logger is process-global state; tests that touch the level
    /// or the ring serialize on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Error < LogLevel::Warn);
        assert!(LogLevel::Warn < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
        for (text, level) in [
            ("off", LogLevel::Off),
            ("ERROR", LogLevel::Error),
            ("warn", LogLevel::Warn),
            ("info", LogLevel::Info),
            ("debug", LogLevel::Debug),
        ] {
            assert_eq!(text.parse::<LogLevel>().unwrap(), level);
        }
        assert!("verbose".parse::<LogLevel>().is_err());
    }

    #[test]
    fn rfc3339_known_instants() {
        assert_eq!(rfc3339_nanos(0), "1970-01-01T00:00:00.000000000Z");
        // 2026-08-08T00:00:00Z = 1786147200 seconds.
        assert_eq!(
            rfc3339_nanos(1_786_147_200_000_000_000),
            "2026-08-08T00:00:00.000000000Z"
        );
        // Leap-year day: 2024-02-29T12:00:00Z = 1709208000.
        assert_eq!(
            rfc3339_nanos(1_709_208_000_123_456_789),
            "2024-02-29T12:00:00.123456789Z"
        );
    }

    #[test]
    fn ring_retains_warn_and_error_only() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_records();
        set_level(LogLevel::Debug);
        log(LogLevel::Info, "test", format_args!("not retained"));
        log(LogLevel::Warn, "test", format_args!("w1"));
        log(LogLevel::Error, "test", format_args!("e1"));
        let recent = recent_records();
        let msgs: Vec<&str> = recent.iter().map(|r| r.message.as_str()).collect();
        assert!(msgs.contains(&"w1"));
        assert!(msgs.contains(&"e1"));
        assert!(!msgs.contains(&"not retained"));
        set_level(LogLevel::Info);
        clear_records();
    }

    #[test]
    fn off_is_silent_and_disabled() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = level();
        set_level(LogLevel::Off);
        assert!(!enabled(LogLevel::Error));
        assert!(!enabled(LogLevel::Debug));
        set_level(prev);
    }

    #[test]
    fn ring_is_bounded() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_records();
        set_level(LogLevel::Debug);
        set_ring_capacity(4);
        for i in 0..10 {
            log(LogLevel::Warn, "test", format_args!("w{i}"));
        }
        let recent = recent_records();
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].message, "w6");
        assert_eq!(recent[3].message, "w9");
        set_ring_capacity(DEFAULT_LOG_RING);
        set_level(LogLevel::Info);
        clear_records();
    }
}
