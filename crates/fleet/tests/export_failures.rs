//! Failure paths of the overlapped streamed export. The streamed run
//! hands windows to a spill thread, and the trace writers render on a
//! render thread; a failure on either side must stop both and return a
//! [`FleetError::Export`], never hang and never panic.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use hide_fleet::{
    ChurnConfig, FleetConfig, FleetError, StreamExportConfig, StreamSinks, StreamedFleetResult,
};
use hide_traces::scenario::Scenario;

/// Six BSSes of dense traffic in windows of two, so a run spills three
/// runs of many small chunks and its trace spans many render blocks.
fn config() -> FleetConfig {
    FleetConfig {
        bss_count: 6,
        clients_per_bss: 40,
        duration_secs: 100.0,
        scenario: Scenario::Wml,
        churn: ChurnConfig {
            refresh_interval_secs: 2.0,
            stale_timeout_secs: 7.0,
            refresh_loss: 0.2,
            ..ChurnConfig::default()
        },
        ..FleetConfig::default()
    }
}

fn stream_config(dir: &Path) -> StreamExportConfig {
    let mut stream = StreamExportConfig::new(dir);
    stream.window = 2;
    stream.chunk_events = 64;
    stream
}

/// A fresh, empty spill directory per test.
fn spill_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hide-export-failures-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn files_in(dir: &Path) -> usize {
    std::fs::read_dir(dir).unwrap().count()
}

/// Runs `f` on a thread of its own and fails the test if it panics or
/// has not returned within a generous bound, so a hang reads as a
/// failure instead of stalling the suite.
fn returns<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("the export hung"),
        Err(RecvTimeoutError::Disconnected) => panic!("the export panicked"),
    }
}

/// A sink that accepts `left` bytes, keeps them, then fails every
/// write.
struct FailAfter {
    left: usize,
    kept: Vec<u8>,
}

const SINK_ERROR: &str = "sink full";

impl io::Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other(SINK_ERROR));
        }
        let n = buf.len().min(self.left);
        self.kept.extend_from_slice(&buf[..n]);
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn streamed(dir: &Path) -> StreamedFleetResult {
    config()
        .try_run_streamed_with_jobs(2, &stream_config(dir), StreamSinks::default())
        .unwrap()
}

fn full_jsonl(run: &StreamedFleetResult) -> Vec<u8> {
    let mut out = Vec::new();
    run.write_trace_jsonl(&mut out).unwrap();
    out
}

#[test]
fn failing_attribution_sink_stops_the_run_and_removes_the_spill_file() {
    let dir = spill_dir("attribution");
    let mut csv = Vec::new();
    let run = config()
        .try_run_streamed_with_jobs(
            2,
            &stream_config(&dir),
            StreamSinks {
                attribution_csv: Some(&mut csv),
                attribution_jsonl: None,
            },
        )
        .unwrap();
    run.cleanup().unwrap();
    // Fail on the header, inside the first window, and in a later one.
    for limit in [0, csv.len() / 10, csv.len() * 2 / 3] {
        let run_dir = dir.clone();
        let (result, kept) = returns(move || {
            let mut csv = FailAfter {
                left: limit,
                kept: Vec::new(),
            };
            let result = config().try_run_streamed_with_jobs(
                2,
                &stream_config(&run_dir),
                StreamSinks {
                    attribution_csv: Some(&mut csv),
                    attribution_jsonl: None,
                },
            );
            (result.map(|r| r.spill.path), csv.kept)
        });
        assert_eq!(
            result,
            Err(FleetError::Export(SINK_ERROR.into())),
            "limit {limit}"
        );
        assert_eq!(kept.len(), limit, "the sink saw the run up to its limit");
        assert_eq!(files_in(&dir), 0, "limit {limit}: the spill file is gone");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failing_trace_writer_stops_the_render() {
    let dir = spill_dir("writer");
    let run = streamed(&dir);
    let full = full_jsonl(&run);
    assert!(
        full.len() > 2 << 20,
        "the trace must span many render blocks, got {} bytes",
        full.len()
    );
    let run = Arc::new(run);
    // Fail on the first byte, inside the first block, and mid-stream.
    for limit in [0, 1000, full.len() / 2] {
        let run = Arc::clone(&run);
        let (result, kept) = returns(move || {
            let mut out = FailAfter {
                left: limit,
                kept: Vec::new(),
            };
            (run.write_trace_jsonl(&mut out), out.kept)
        });
        assert_eq!(
            result,
            Err(FleetError::Export(SINK_ERROR.into())),
            "limit {limit}"
        );
        assert!(
            kept == full[..limit],
            "limit {limit}: the written prefix differs"
        );
    }
    // The spill file is untouched: a later export still succeeds.
    assert!(full_jsonl(&run) == full, "a later export differs");
    run.cleanup().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_spill_chunk_is_an_export_error() {
    let dir = spill_dir("corrupt");
    let run = streamed(&dir);
    let pristine = std::fs::read(&run.spill.path).unwrap();
    // The last payload byte of the first run's last chunk — read
    // mid-stream — and of the file's last chunk.
    let first_run_end = run.spill.runs[0].end as usize;
    let last_run_end = run.spill.runs.last().unwrap().end as usize;
    let run = Arc::new(run);
    for at in [first_run_end - 1, last_run_end - 1] {
        let mut bad = pristine.clone();
        bad[at] ^= 0x20;
        std::fs::write(&run.spill.path, &bad).unwrap();
        let run = Arc::clone(&run);
        let result = returns(move || run.write_trace_jsonl(&mut io::sink()));
        match result {
            Err(FleetError::Export(msg)) => {
                assert!(msg.contains("checksum mismatch"), "flip at {at}: {msg}")
            }
            other => panic!("flip at {at}: expected an export error, got {other:?}"),
        }
    }
    run.cleanup().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
