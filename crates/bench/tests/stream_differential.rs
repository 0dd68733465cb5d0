//! Differential battery pinning the out-of-core export pipeline to
//! the in-memory path: at 1000 churning BSSes, every artifact the
//! streamed pipeline emits — trace JSONL, Chrome trace, attribution
//! CSV and JSONL, the energy-extended `hide-metrics/1` document, the
//! derived-scalar summary, and the ring-bound drop count — must be
//! **byte-identical** to what the accumulate-in-RAM path produces,
//! for every `--jobs` count and for adversarial spill-chunk and
//! window sizes.
//!
//! Why bytes and not semantic equality: the `(time, source, seq)`
//! event key is a strict total order over distinct events, so any
//! correct merge — the in-memory one-pass merge or the on-disk k-way
//! merge at any run partitioning — yields the *identical sequence*. A merge
//! that is merely "equivalent" (stable-sorted, re-rounded, reordered
//! ties) is a bug this battery is designed to catch.

use hide_bench as harness;
use hide_fleet::{ChurnConfig, FleetConfig, StreamExportConfig, StreamSinks};
use hide_obs::export;
use hide_obs::spill::fnv1a64;

/// The deployment-scale scenario `determinism.rs` pins, reused here so
/// the streamed path is compared against a configuration with refresh
/// loss, port churn, and expiries all active.
fn battery_config() -> FleetConfig {
    FleetConfig {
        bss_count: 1000,
        clients_per_bss: 8,
        adoption: 0.75,
        duration_secs: 15.0,
        seed: harness::TRACE_SEED,
        churn: ChurnConfig {
            mean_present_secs: 60.0,
            mean_absent_secs: 15.0,
            mean_active_secs: 8.0,
            mean_suspended_secs: 20.0,
            refresh_interval_secs: 4.0,
            refresh_loss: 0.2,
            port_churn: 0.25,
            stale_timeout_secs: 9.0,
            ..ChurnConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// Everything the in-memory reference path can emit, rendered once.
struct Reference {
    jsonl: String,
    chrome: String,
    attr_csv: String,
    attr_jsonl: String,
    metrics: String,
    summary: String,
    dropped: u64,
    events: u64,
}

fn in_memory_reference(cfg: &FleetConfig) -> Reference {
    let (result, flight) = cfg
        .try_run_traced_with_jobs(2, hide_obs::DEFAULT_TRACE_CAPACITY)
        .expect("valid fleet config");
    Reference {
        jsonl: export::to_jsonl(&flight),
        chrome: export::to_chrome_trace(&flight),
        attr_csv: result.attribution().to_csv(),
        attr_jsonl: result.attribution().to_jsonl(),
        metrics: result.metrics_json_with_energy(),
        summary: result.summary_json(),
        dropped: flight.dropped(),
        events: flight.len() as u64,
    }
}

/// Streamed run at the given jobs/chunk/window, all sinks captured.
struct Streamed {
    jsonl: Vec<u8>,
    chrome: Vec<u8>,
    attr_csv: Vec<u8>,
    metrics: String,
    summary: String,
    dropped: u64,
    events: u64,
}

fn streamed_run(cfg: &FleetConfig, jobs: usize, chunk: usize, window: usize) -> Streamed {
    let mut stream = StreamExportConfig::new(std::env::temp_dir());
    stream.chunk_events = chunk;
    stream.window = window;
    let mut attr_csv = Vec::new();
    let streamed = cfg
        .try_run_streamed_with_jobs(
            jobs,
            &stream,
            StreamSinks {
                attribution_csv: Some(&mut attr_csv),
                attribution_jsonl: None,
            },
        )
        .expect("valid fleet config");
    let mut jsonl = Vec::new();
    let jsonl_events = streamed
        .write_trace_jsonl(&mut jsonl)
        .expect("spill file survives until cleanup");
    let mut chrome = Vec::new();
    streamed
        .write_chrome_trace(&mut chrome)
        .expect("merge is repeatable");
    assert_eq!(jsonl_events, streamed.events(), "merge lost or grew events");
    let out = Streamed {
        jsonl,
        chrome,
        attr_csv,
        metrics: streamed.metrics_json_with_energy(),
        summary: streamed.result.summary_json(),
        dropped: streamed.dropped(),
        events: streamed.events(),
    };
    streamed.cleanup().expect("spill file removable");
    out
}

/// The headline battery: jobs {1, 4, 8} × adversarial chunk/window
/// pairs, every artifact byte-compared against the in-memory render.
/// Chunk size 7 forces many tiny frames per run; window 3 forces ~334
/// spilled runs into the k-way merge at jobs 8.
#[test]
fn streamed_artifacts_match_in_memory_at_1000_bss() {
    let cfg = battery_config();
    let reference = in_memory_reference(&cfg);
    assert!(reference.events > 0, "reference run logged nothing");
    // Recorded values: every other check here compares two outputs of
    // the same renderers and merge, so only these catch a changed byte.
    assert_eq!(
        (
            fnv1a64(reference.jsonl.as_bytes()),
            reference.jsonl.len(),
            reference.events
        ),
        (0xb3ef_7bfe_189a_4066, 16_501_792, 182_157),
        "trace JSONL moved off its recorded bytes"
    );
    assert_eq!(
        (fnv1a64(reference.chrome.as_bytes()), reference.chrome.len()),
        (0x8321_7b1f_6aff_9ee9, 22_608_922),
        "Chrome trace moved off its recorded bytes"
    );

    for (jobs, chunk, window) in [(1, 4096, 0), (4, 7, 64), (8, 1024, 3)] {
        let streamed = streamed_run(&cfg, jobs, chunk, window);
        let tag = format!("jobs {jobs} chunk {chunk} window {window}");
        assert_eq!(
            streamed.jsonl.as_slice(),
            reference.jsonl.as_bytes(),
            "trace JSONL diverged ({tag})"
        );
        assert_eq!(
            streamed.chrome.as_slice(),
            reference.chrome.as_bytes(),
            "Chrome trace diverged ({tag})"
        );
        assert_eq!(
            streamed.attr_csv.as_slice(),
            reference.attr_csv.as_bytes(),
            "attribution CSV diverged ({tag})"
        );
        assert_eq!(
            streamed.metrics, reference.metrics,
            "metrics diverged ({tag})"
        );
        assert_eq!(
            streamed.summary, reference.summary,
            "summary diverged ({tag})"
        );
        assert_eq!(
            streamed.dropped, reference.dropped,
            "drop count diverged ({tag})"
        );
        assert_eq!(
            streamed.events, reference.events,
            "event count diverged ({tag})"
        );
    }
}

/// The JSONL attribution lane matches the ledger's `to_jsonl` the same
/// way the CSV lane matches `to_csv` — shard-ascending `(bss, aid)`
/// keys mean streamed concatenation equals the merged-ledger render.
#[test]
fn streamed_attribution_jsonl_matches_ledger() {
    let cfg = FleetConfig {
        bss_count: 120,
        clients_per_bss: 8,
        duration_secs: 10.0,
        ..battery_config()
    };
    let reference = in_memory_reference(&cfg);
    let mut stream = StreamExportConfig::new(std::env::temp_dir());
    stream.window = 5;
    let mut attr_jsonl = Vec::new();
    let streamed = cfg
        .try_run_streamed_with_jobs(
            3,
            &stream,
            StreamSinks {
                attribution_csv: None,
                attribution_jsonl: Some(&mut attr_jsonl),
            },
        )
        .expect("valid fleet config");
    streamed.cleanup().expect("spill file removable");
    assert_eq!(
        attr_jsonl.as_slice(),
        reference.attr_jsonl.as_bytes(),
        "attribution JSONL diverged from the ledger render"
    );
    assert!(!attr_jsonl.is_empty(), "no attribution rows streamed");
}

/// A trace capacity far below the event volume forces ring-bound drops
/// inside every shard; the streamed pipeline must reproduce the
/// in-memory path's drop accounting and its (truncated) event log
/// exactly, because both bound each shard's ring the same way before
/// the merge.
#[test]
fn constrained_capacity_drop_accounting_matches() {
    let cfg = FleetConfig {
        bss_count: 200,
        clients_per_bss: 8,
        duration_secs: 10.0,
        ..battery_config()
    };
    let capacity = 16;
    let (_, flight) = cfg
        .try_run_traced_with_jobs(4, capacity)
        .expect("valid fleet config");
    assert!(flight.dropped() > 0, "capacity 16 must force drops");
    let recorded = export::to_jsonl(&flight);
    assert_eq!(
        (
            fnv1a64(recorded.as_bytes()),
            recorded.len(),
            flight.dropped()
        ),
        (0x18c5_b49f_bdd4_3c91, 286_797, 21_660),
        "drop-truncated trace moved off its recorded bytes"
    );

    let mut stream = StreamExportConfig::new(std::env::temp_dir());
    stream.trace_capacity = capacity;
    stream.window = 7;
    let streamed = cfg
        .try_run_streamed_with_jobs(6, &stream, StreamSinks::default())
        .expect("valid fleet config");
    let mut jsonl = Vec::new();
    streamed
        .write_trace_jsonl(&mut jsonl)
        .expect("merge succeeds");
    streamed.cleanup().expect("spill file removable");

    assert_eq!(
        streamed.dropped(),
        flight.dropped(),
        "spill boundaries changed the drop count"
    );
    assert_eq!(
        jsonl.as_slice(),
        export::to_jsonl(&flight).as_bytes(),
        "drop-truncated trace diverged"
    );
}
