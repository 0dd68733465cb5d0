//! The parallel experiment engine must be invisible in the output:
//! any `--jobs` count produces byte-identical results — including the
//! `hide-metrics/1` JSON the observability layer serializes.
//!
//! The experiment-engine test is a single `#[test]` on purpose — its
//! job count is process-global, so concurrent copies inside this
//! binary would race on it. The fleet test is exempt: it passes the
//! job count explicitly through `try_run_with_jobs`, never touching
//! the global.

use hide_bench as harness;
use hide_energy::attribution::{joules_to_nj, WakePricing};
use hide_energy::profile::NEXUS_ONE;
use hide_fleet::{ChurnConfig, FleetConfig, StreamExportConfig, StreamSinks};
use hide_obs::{HashingWriter, Recorder};
use hide_sim::experiment::{self, PAPER_FRACTIONS};
use hide_traces::scenario::Scenario;
use hide_wifi::frame::UdpPortMessage;
use hide_wifi::mac::MacAddr;
use hide_wifi::phy::{self, DataRate};

/// Runs the full instrumented suite at the current job count and
/// returns the merged recorder plus the rendered figure text.
fn instrumented_suite(traces: &[hide_traces::Trace]) -> (Recorder, String) {
    let mut recorder = Recorder::new();
    let mut text = String::new();
    text.push_str(
        &harness::figure_7_or_8_with(NEXUS_ONE, traces, &mut recorder).expect("traces are valid"),
    );
    text.push_str(&harness::figure_9_with(traces, &mut recorder).expect("traces are valid"));
    text.push_str(&harness::extensions_with(traces, &mut recorder));
    (recorder, text)
}

#[test]
fn parallel_and_sequential_runs_are_identical() {
    let traces = Scenario::generate_all(120.0, harness::TRACE_SEED);

    hide_par::set_default_jobs(1);
    let seq_cmp =
        experiment::energy_comparison(NEXUS_ONE, &traces, &PAPER_FRACTIONS, &mut Recorder::new())
            .unwrap();
    let seq_suspend =
        experiment::suspend_fractions(NEXUS_ONE, &traces, &mut Recorder::new()).unwrap();
    let seq_ext = experiment::unicast_sensitivity(
        NEXUS_ONE,
        &traces[1],
        &[0.0, 0.5, 2.0],
        &mut Recorder::new(),
    )
    .unwrap();
    let seq_dir = std::env::temp_dir().join("hide_determinism_seq");
    harness::write_csvs_with(&traces, &seq_dir, &mut Recorder::new()).unwrap();
    let (seq_rec, seq_text) = instrumented_suite(&traces);

    hide_par::set_default_jobs(4);
    let par_cmp =
        experiment::energy_comparison(NEXUS_ONE, &traces, &PAPER_FRACTIONS, &mut Recorder::new())
            .unwrap();
    let par_suspend =
        experiment::suspend_fractions(NEXUS_ONE, &traces, &mut Recorder::new()).unwrap();
    let par_ext = experiment::unicast_sensitivity(
        NEXUS_ONE,
        &traces[1],
        &[0.0, 0.5, 2.0],
        &mut Recorder::new(),
    )
    .unwrap();
    let par_dir = std::env::temp_dir().join("hide_determinism_par");
    harness::write_csvs_with(&traces, &par_dir, &mut Recorder::new()).unwrap();
    let (par_rec, par_text) = instrumented_suite(&traces);

    hide_par::set_default_jobs(0);

    // Bit-exact struct equality, not approximate: the engine reorders
    // scheduling, never arithmetic.
    assert_eq!(seq_cmp, par_cmp);
    assert_eq!(seq_suspend, par_suspend);
    assert_eq!(seq_ext, par_ext);

    // And the serialized artifacts match byte for byte.
    for file in harness::CSV_FILES {
        let seq_bytes = std::fs::read(seq_dir.join(file)).unwrap();
        let par_bytes = std::fs::read(par_dir.join(file)).unwrap();
        assert_eq!(seq_bytes, par_bytes, "{file} differs between job counts");
        assert!(!seq_bytes.is_empty(), "{file} is empty");
    }

    // The observability layer inherits the guarantee: per-worker
    // recorders merge in input order, and wall-clock span timings are
    // excluded from serialization, so the metrics JSON is byte-
    // identical at any job count (and so is the rendered text).
    assert_eq!(seq_text, par_text, "figure text differs between job counts");
    let seq_json = seq_rec.to_json();
    let par_json = par_rec.to_json();
    assert_eq!(
        seq_json, par_json,
        "metrics JSON differs between job counts"
    );
    assert!(seq_json.contains("\"schema\": \"hide-metrics/1\""));
    assert!(!seq_rec.is_empty(), "instrumented suite recorded nothing");
    assert!(
        seq_json.contains("\"btim_beacons\""),
        "protocol counters missing from metrics JSON"
    );

    std::fs::remove_dir_all(&seq_dir).ok();
    std::fs::remove_dir_all(&par_dir).ok();
}

/// The fleet simulator inherits the same guarantee at deployment
/// scale: 1000 churning BSSes produce byte-identical `hide-metrics/1`
/// JSON (and derived-scalar summary JSON) at `--jobs 1` and
/// `--jobs 8`, with refresh loss and port churn active. A loss-free
/// control run must report zero missed wakeups — the AP's view can
/// only fall behind the truth when refreshes are actually lost.
#[test]
fn fleet_runs_are_identical_across_job_counts() {
    let cfg = FleetConfig {
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
    };

    let serial = cfg.try_run_with_jobs(1).expect("valid fleet config");
    let parallel = cfg.try_run_with_jobs(8).expect("valid fleet config");

    let seq_json = serial.metrics_json();
    assert_eq!(
        seq_json,
        parallel.metrics_json(),
        "fleet metrics JSON differs between job counts"
    );
    assert_eq!(
        serial.summary_json(),
        parallel.summary_json(),
        "fleet summary JSON differs between job counts"
    );
    assert_eq!(serial.report, parallel.report);
    assert!(seq_json.contains("\"schema\": \"hide-metrics/1\""));
    assert!(seq_json.contains("\"fleet_bss_runs\""));
    assert!(serial.report.events > 0 && serial.report.refreshes_lost > 0);

    // The per-client energy ledger inherits the guarantee at the same
    // scale: integer-nanojoule shard ledgers merge in input order, so
    // the energy-extended metrics artifact and both per-client exports
    // (what `fleet_sim --energy-attribution --attribution-out` writes)
    // are byte-identical across job counts.
    let energy_json = serial.metrics_json_with_energy();
    assert_eq!(
        energy_json,
        parallel.metrics_json_with_energy(),
        "energy-attribution metrics JSON differs between job counts"
    );
    assert!(energy_json.contains("\"energy\": {\"clients\":"));
    assert_eq!(
        serial.attribution().to_csv(),
        parallel.attribution().to_csv(),
        "attribution CSV differs between job counts"
    );
    assert_eq!(
        serial.attribution().to_jsonl(),
        parallel.attribution().to_jsonl(),
        "attribution JSONL differs between job counts"
    );
    // Exact identities at deployment scale: the merged rows spend what
    // the folded totals spend, and every wake and refresh column is its
    // event count times one integer price (every client lists
    // `ports_per_client` ports, so every UDP Port Message costs the
    // same).
    let (r, t) = (&serial.report, &serial.energy_totals);
    assert_eq!(serial.attribution().spent_nj(), t.spent_nj());
    let p = WakePricing::from_profile(&cfg.profile);
    let ports = 1..=cfg.churn.ports_per_client as u16;
    let msg = UdpPortMessage::new(MacAddr::station(1), MacAddr::station(0), ports).unwrap();
    let msg_nj = joules_to_nj(
        phy::airtime_of_total_bytes(msg.len_bytes(), DataRate::R1M) * cfg.profile.tx_power,
    );
    assert_eq!(
        t.proper_nj,
        (r.hide_wakeups - r.spurious_wakeups) * p.wake_nj
    );
    assert_eq!(t.spurious_nj.total(), r.spurious_wakeups * p.wake_nj);
    assert_eq!(t.legacy_nj, (r.wakeups - r.hide_wakeups) * p.wake_nj);
    assert_eq!(t.missed_forgone_nj.total(), r.missed_wakeups * p.forgone_nj);
    assert_eq!(t.refresh_tx_nj, r.refreshes_sent * msg_nj);
    // With refresh loss active some missed-wakeup energy must appear,
    // and it stays out of the spent column by construction.
    assert!(serial.attribution().totals().missed_forgone_nj.total() > 0);

    let mut lossless = cfg.clone();
    lossless.churn.refresh_loss = 0.0;
    let control = lossless.try_run_with_jobs(8).expect("valid fleet config");
    assert_eq!(
        control.report.missed_wakeups, 0,
        "missed wakeups with zero refresh loss"
    );
    assert!(control.report.useful_opportunities > 0);

    // The flight recorder inherits the guarantee: per-shard event logs
    // merge in input order, so the exported trace — JSONL and Chrome
    // JSON alike — is byte-identical at any job count, on the same
    // 1000-BSS churning scenario.
    let (traced, serial_flight) = cfg
        .try_run_traced_with_jobs(1, hide_obs::DEFAULT_TRACE_CAPACITY)
        .expect("valid fleet config");
    let (_, parallel_flight) = cfg
        .try_run_traced_with_jobs(8, hide_obs::DEFAULT_TRACE_CAPACITY)
        .expect("valid fleet config");
    let serial_jsonl = hide_obs::export::to_jsonl(&serial_flight);
    assert_eq!(
        serial_jsonl,
        hide_obs::export::to_jsonl(&parallel_flight),
        "fleet trace JSONL differs between job counts"
    );
    assert_eq!(
        hide_obs::export::to_chrome_trace(&serial_flight),
        hide_obs::export::to_chrome_trace(&parallel_flight),
        "fleet Chrome trace differs between job counts"
    );
    assert_eq!(serial_flight, parallel_flight);
    assert!(!serial_flight.is_empty(), "traced fleet run logged nothing");

    // Tracing is an observer: the metrics artifact is unchanged, and
    // with churn active every missed and spurious wakeup still carries
    // a concrete cause — nothing in the log is `unknown`.
    assert_eq!(traced.metrics_json(), seq_json);
    for line in serial_jsonl.lines() {
        assert!(
            !line.contains("\"cause\":\"unknown\""),
            "unattributed wakeup in trace: {line}"
        );
    }
}

/// Metro scale: the out-of-core pipeline inherits the determinism
/// guarantee at 100k BSSes, where full goldens are too big to pin
/// (the rendered trace alone is ~1.6 GB), so the gate is a content
/// hash: the streamed JSONL render, the attribution CSV lane, and the
/// energy-extended metrics document must be identical at `--jobs 1`
/// and `--jobs 8`. Ignored by default — the workload needs a release
/// build (CI runs it explicitly with `--ignored`); run locally with
/// `cargo test --release -p hide-bench --test determinism -- --ignored`.
#[test]
#[ignore = "metro-scale workload; CI runs it in release with --ignored"]
fn streamed_100k_bss_run_is_hash_identical_across_job_counts() {
    let cfg = FleetConfig {
        bss_count: 100_000,
        clients_per_bss: 100,
        duration_secs: 2.0,
        seed: 42,
        ..FleetConfig::default()
    };

    let run = |jobs: usize| {
        let mut stream = StreamExportConfig::new(std::env::temp_dir());
        stream.chunk_events = 1024;
        let mut attr = HashingWriter::new(std::io::sink());
        let streamed = cfg
            .try_run_streamed_with_jobs(
                jobs,
                &stream,
                StreamSinks {
                    attribution_csv: Some(&mut attr),
                    attribution_jsonl: None,
                },
            )
            .expect("valid fleet config");
        let mut trace = HashingWriter::new(std::io::sink());
        let events = streamed
            .write_trace_jsonl(&mut trace)
            .expect("merge the spill file");
        let metrics = streamed.metrics_json_with_energy();
        let out = (
            trace.hash(),
            trace.bytes(),
            attr.hash(),
            attr.bytes(),
            events,
            streamed.dropped(),
            metrics,
        );
        streamed.cleanup().expect("remove spill file");
        out
    };

    let serial = run(1);
    // Recorded values: the job-count comparison below cannot see a
    // byte that both runs render differently from before.
    assert_eq!(
        (serial.0, serial.1, serial.4),
        (0xe6c2_8e74_6bb9_3fe5, 1_481_721_160, 19_464_120),
        "streamed 100k-BSS trace moved off its recorded bytes"
    );
    assert_eq!(
        (serial.2, serial.3),
        (0xe076_b07b_603a_0793, 435_097_069),
        "streamed 100k-BSS attribution CSV moved off its recorded bytes"
    );
    let parallel = run(8);
    assert!(serial.4 > 1_000_000, "metro run logged too few events");
    assert_eq!(
        (serial.0, serial.1),
        (parallel.0, parallel.1),
        "streamed 100k-BSS trace hash differs between job counts"
    );
    assert_eq!(
        (serial.2, serial.3),
        (parallel.2, parallel.3),
        "streamed 100k-BSS attribution hash differs between job counts"
    );
    assert_eq!(serial.5, parallel.5, "drop accounting differs");
    assert_eq!(serial.6, parallel.6, "metrics JSON differs");
}
