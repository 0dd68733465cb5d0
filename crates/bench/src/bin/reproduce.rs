//! Reproduction harness: regenerates every table and figure of the
//! HIDE paper.
//!
//! ```text
//! reproduce [all|table1|table2|fig6|fig7|fig8|fig9|fig10|fig11|fig12|host-costs|ext|policy]
//!           [--csv <dir>] [--jobs N] [--metrics <file.json>] [--trace <file>]
//!           [--policy NAME] [--device NAME]
//!           [--energy-attribution] [--attribution-out <file>]
//! ```
//!
//! With no argument (or `all`) every experiment runs in paper order.
//! `ext` runs the extension experiments (hybrid, DTIM batching, unicast
//! sensitivity, fleet adoption, sync-loss robustness). `policy` runs
//! the cross-policy × cross-device matrix (HIDE vs legacy PSM vs
//! scheduled wake over every device in the policy registry, with
//! battery-lifetime projections); `--policy hide|psm|scheduled` and
//! `--device <registry key>` filter it to a single cell. `--csv <dir>`
//! additionally writes plot-ready CSV files for every figure.
//!
//! `--jobs N` caps the worker threads the experiment engine fans out
//! over (default: all cores; `--jobs 1` forces a sequential run). The
//! output is byte-identical for every job count — parallel results are
//! reassembled in input order.
//!
//! `--metrics <file.json>` writes the run's metrics (simulation
//! counters, distributions and per-stage call counts) as
//! `hide-metrics/1` JSON — see `docs/metrics-schema.md` — and prints a
//! summary table. The JSON is byte-identical for every `--jobs` count;
//! wall-clock stage timings appear only in the printed summary.
//!
//! `--trace <file>` flight-records the reference protocol run (the
//! real AP and client over the coffee-shop trace) and exports the
//! event log: a JSONL stream when the path ends in `.jsonl`, otherwise
//! Chrome-trace JSON (open in Perfetto or `chrome://tracing`). The
//! run's wall-clock stage timings print in `--metrics`'s summary.
//!
//! `--energy-attribution` joins that flight-recorded wake stream
//! against the Nexus One profile (trace-join pricing, see
//! `crates/energy/src/attribution.rs`): the `--metrics` artifact gains
//! an integer-only `"energy"` section and a per-client summary prints.
//! The reference protocol run wakes only on wanted traffic, so the
//! ledger holds proper-wake energy — a pricing cross-check rather than
//! a failure audit (the fleet driver exercises the missed/spurious
//! columns). `--attribution-out <file>` exports the per-client rows as
//! CSV (`.csv`) or JSON Lines.
//!
//! An unknown `--` flag, or a flag missing its value, is a usage error
//! (exit 2).

use hide::HideError;
use hide_bench as harness;
use hide_energy::profile::{GALAXY_S4, NEXUS_ONE};
use hide_obs::{export, FlightRecorder, Recorder, Stage};
use hide_sim::protocol_sim::ProtocolSimulation;
use std::time::Instant;

/// Flags that take a value; `--energy-attribution` is the only switch.
const VALUE_FLAGS: [&str; 7] = [
    "--csv",
    "--jobs",
    "--metrics",
    "--trace",
    "--attribution-out",
    "--policy",
    "--device",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(Exit::Usage(msg)) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
        Err(Exit::Failure(e)) => {
            eprintln!("reproduce failed: {e}");
            std::process::exit(1);
        }
    }
}

/// How a run can end unsuccessfully: bad invocation (exit 2) or a
/// layer failure (exit 1).
enum Exit {
    Usage(String),
    Failure(HideError),
}

impl<E: Into<HideError>> From<E> for Exit {
    fn from(e: E) -> Self {
        Exit::Failure(e.into())
    }
}

fn run(args: &[String]) -> Result<(), Exit> {
    if let Some(flag) = args.iter().find(|a| {
        a.starts_with("--") && *a != "--energy-attribution" && !VALUE_FLAGS.contains(&a.as_str())
    }) {
        return Err(Exit::Usage(format!("unknown flag {flag:?}")));
    }
    let csv_dir = flag_value(args, "--csv")?.map(std::path::PathBuf::from);
    let metrics_path = flag_value(args, "--metrics")?.map(std::path::PathBuf::from);
    let trace_path = flag_value(args, "--trace")?.map(std::path::PathBuf::from);
    let attribution_path = flag_value(args, "--attribution-out")?.map(std::path::PathBuf::from);
    let policy_filter = flag_value(args, "--policy")?.map(str::to_string);
    let device_filter = flag_value(args, "--device")?.map(str::to_string);
    let energy_attr = args.iter().any(|a| a == "--energy-attribution");
    if attribution_path.is_some() && !energy_attr {
        return Err(Exit::Usage(
            "--attribution-out requires --energy-attribution".to_string(),
        ));
    }
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        match args.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(jobs)) => hide_par::set_default_jobs(jobs),
            got => {
                let got = got.map_or("nothing", |_| args[i + 1].as_str());
                return Err(Exit::Usage(format!(
                    "--jobs expects a thread count (0 = all cores), got {got:?}"
                )));
            }
        }
    }
    // Flag values must not be mistaken for the experiment name.
    let flag_values: Vec<usize> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| VALUE_FLAGS.contains(&a.as_str()))
        .map(|(i, _)| i + 1)
        .collect();
    let arg = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && !flag_values.contains(i))
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "all".to_string());
    let what = arg.as_str();
    let all = what == "all";
    let mut recorder = Recorder::new();

    let needs_traces = all
        || csv_dir.is_some()
        || trace_path.is_some()
        || energy_attr
        || matches!(what, "fig6" | "fig7" | "fig8" | "fig9" | "ext");
    let traces = if needs_traces {
        eprintln!(
            "generating 5 canonical traces ({} s each, seed {})...",
            harness::TRACE_DURATION_SECS,
            harness::TRACE_SEED
        );
        recorder.time(Stage::TraceGen, harness::canonical_traces)
    } else {
        Vec::new()
    };

    let mut ran = false;
    let mut section = |title: &str, body: String| {
        println!("\n===== {title} =====");
        print!("{body}");
        ran = true;
    };

    if all || what == "table1" {
        section(
            "Table I: energy/power constants measured from phones",
            recorder.time(Stage::Table1, harness::table_1),
        );
    }
    if all || what == "table2" {
        section(
            "Table II: network configuration for overhead analysis",
            recorder.time(Stage::Table2, harness::table_2),
        );
    }
    if all || what == "fig6" {
        section(
            "Fig. 6: broadcast traffic volumes in traces",
            recorder.time(Stage::Fig6, || harness::figure_6(&traces)),
        );
    }
    if all || what == "fig7" {
        let start = Instant::now();
        let body = harness::figure_7_or_8_with(NEXUS_ONE, &traces, &mut recorder)?;
        recorder.add_span(Stage::Fig7, start.elapsed().as_nanos() as u64);
        section("Fig. 7: energy consumption comparison (Nexus One)", body);
    }
    if all || what == "fig8" {
        let start = Instant::now();
        let body = harness::figure_7_or_8_with(GALAXY_S4, &traces, &mut recorder)?;
        recorder.add_span(Stage::Fig8, start.elapsed().as_nanos() as u64);
        section("Fig. 8: energy consumption comparison (Galaxy S4)", body);
    }
    if all || what == "fig9" {
        let start = Instant::now();
        let body = harness::figure_9_with(&traces, &mut recorder)?;
        recorder.add_span(Stage::Fig9, start.elapsed().as_nanos() as u64);
        section("Fig. 9: fraction of time in suspend mode (Nexus One)", body);
    }
    if all || what == "fig10" {
        section(
            "Fig. 10: decrease in network capacity",
            recorder.time(Stage::Fig10, harness::figure_10),
        );
    }
    if all || what == "fig11" {
        section(
            "Fig. 11: delay overhead vs UDP Port Message interval",
            recorder.time(Stage::Fig11, harness::figure_11),
        );
    }
    if all || what == "fig12" {
        section(
            "Fig. 12: delay overhead vs open UDP ports per client",
            recorder.time(Stage::Fig12, harness::figure_12),
        );
    }
    if all || what == "host-costs" {
        let costs = recorder.time(Stage::HostCosts, || {
            hide_analysis::delay::measure_host_costs(50, harness::TRACE_SEED)
        });
        section(
            "Host-measured Client UDP Port Table costs (paper procedure)",
            format!(
                "insert {:.1} ns   delete {:.1} ns   lookup {:.1} ns\n\
                 (calibrated 1 GHz ARM model: insert/delete 90 us, lookup 1.5 us)\n",
                costs.insert_secs * 1e9,
                costs.delete_secs * 1e9,
                costs.lookup_secs * 1e9
            ),
        );
    }

    if all || what == "ext" {
        let start = Instant::now();
        let body = harness::extensions_with(&traces, &mut recorder);
        recorder.add_span(Stage::Extensions, start.elapsed().as_nanos() as u64);
        section("Extensions beyond the paper", body);
    }

    if all || what == "policy" {
        let start = Instant::now();
        let body = harness::policy_matrix_with(
            policy_filter.as_deref(),
            device_filter.as_deref(),
            &mut recorder,
        )?;
        recorder.add_span(Stage::Policy, start.elapsed().as_nanos() as u64);
        section(
            "Policy matrix: HIDE vs legacy PSM vs scheduled wake, per device",
            body,
        );
    }

    if let Some(dir) = &csv_dir {
        let start = Instant::now();
        harness::write_csvs_with(&traces, dir, &mut recorder)?;
        recorder.add_span(Stage::Csv, start.elapsed().as_nanos() as u64);
        println!("\ncsv files written to {}", dir.display());
        ran = true;
    }

    if !ran {
        return Err(Exit::Usage(format!(
            "unknown experiment '{what}'; expected one of: all table1 table2 \
             fig6 fig7 fig8 fig9 fig10 fig11 fig12 host-costs ext policy \
             [--csv <dir>] [--jobs N] [--metrics <file.json>] [--trace <file>] \
             [--policy NAME] [--device NAME] \
             [--energy-attribution] [--attribution-out <file>]"
        )));
    }

    let mut attribution = None;
    if trace_path.is_some() || energy_attr {
        // Flight-record the reference protocol run (the same setup the
        // `ext` cross-validation uses). Counters go to a no-op sink so
        // the --metrics artifact is identical with or without --trace.
        let mut flight = FlightRecorder::new();
        ProtocolSimulation::new(&traces[0], NEXUS_ONE, 0.10)
            .run(hide_obs::NoopSink, &mut flight)?;
        if let Some(path) = &trace_path {
            let events = flight.len();
            let rendered = if path.extension().is_some_and(|e| e == "jsonl") {
                export::to_jsonl(&flight)
            } else {
                export::to_chrome_trace(&flight)
            };
            std::fs::write(path, rendered).map_err(HideError::from)?;
            println!("\ntrace written to {} ({events} events)", path.display());
        }
        if energy_attr {
            // Trace join: per-client wake counts priced under the
            // Nexus One profile with pre-rounded integer prices.
            let counts = hide_obs::provenance::per_client(&flight);
            let ledger = hide_energy::AttributionLedger::price(&counts, &NEXUS_ONE);
            let totals = ledger.totals();
            println!("\n===== energy attribution (trace join, Nexus One) =====");
            println!(
                "{} client lanes, {:.3} J across proper wakes \
                 (spurious {:.3} J, missed forgone {:.3} J)",
                ledger.len(),
                totals.proper_nj as f64 / 1e9,
                totals.spurious_nj.total() as f64 / 1e9,
                totals.missed_forgone_nj.total() as f64 / 1e9,
            );
            attribution = Some(ledger);
        }
    }

    if let Some(path) = &attribution_path {
        let Some(ledger) = &attribution else {
            return Err(Exit::Usage(
                "--attribution-out requires --energy-attribution".to_string(),
            ));
        };
        let rendered = if path.extension().is_some_and(|e| e == "csv") {
            ledger.to_csv()
        } else {
            ledger.to_jsonl()
        };
        std::fs::write(path, rendered).map_err(HideError::from)?;
        println!("attribution ledger written to {}", path.display());
    }

    if let Some(path) = &metrics_path {
        let rendered = match &attribution {
            Some(ledger) => {
                let energy = ledger.to_metrics_section();
                recorder.to_json_with_sections(&[("energy", &energy)])
            }
            None => recorder.to_json(),
        };
        std::fs::write(path, rendered).map_err(HideError::from)?;
        println!("\n===== metrics summary =====");
        print!("{}", recorder.render_summary());
        println!("metrics json written to {}", path.display());
    }
    Ok(())
}

/// The value following `flag`: `Ok(None)` if the flag is absent, a
/// usage error if the flag is present without a value.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, Exit> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(Exit::Usage(format!("{flag} expects a value"))),
        },
    }
}
