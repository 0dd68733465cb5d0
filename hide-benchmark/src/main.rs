//! `hide-benchmark` command line.
//!
//! ```text
//! hide-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                    [--quick] [--out FILE.json]
//! hide-benchmark compare [--benchmark BENCHMARK.json]
//!                        --parent FILE.json... --change FILE.json...
//! ```
//!
//! `run` prints `name value unit` for every registered metric, then,
//! as its last line, the one-line JSON result (`correct`, `attempted`,
//! `failed`, `metrics`). It exits 1 when a correctness check fails.
//! `compare` exits 1 on a regression or a rise in the failure fraction.

use hide_benchmark::{compare, host, workloads, RunOpts};
use std::process::ExitCode;

/// Default measured seconds per run (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Default input seed: the paper reproduction's canonical seed.
const DEFAULT_SEED: u64 = 2016;

const USAGE: &str = "usage: hide-benchmark run --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--out FILE.json]\n       \
                     hide-benchmark compare [--benchmark BENCHMARK.json] \
                     --parent FILE.json... --change FILE.json...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("hide-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The value after `flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a valid value\n{USAGE}")),
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let workload: String = flag(args, "--workload")?.ok_or(USAGE)?;
    let trace = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
    };
    let opts = RunOpts {
        seed: flag(args, "--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS),
        trace,
        quick: args.iter().any(|a| a == "--quick"),
    };
    let outcome = workloads::run(&workload, &opts)?;
    let registered = outcome.registered(trace)?;
    for (name, unit, value) in &registered {
        println!("{name} {value} {unit}");
    }
    for problem in &outcome.problems {
        eprintln!("hide-benchmark: check failed: {problem}");
    }
    if let Some(path) = flag::<String>(args, "--out")? {
        let doc = outcome.document(&workload, &opts, &host::Host::probe());
        std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.result_line(&registered));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The arguments after `flag` up to the next `--` flag.
fn list(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .skip_while(|a| *a != name)
        .skip(1)
        .take_while(|a| !a.starts_with("--"))
        .cloned()
        .collect()
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let benchmark: String = flag(args, "--benchmark")?.unwrap_or_else(|| "BENCHMARK.json".into());
    let (parent, change) = (list(args, "--parent"), list(args, "--change"));
    if parent.is_empty() || change.is_empty() {
        return Err(USAGE.to_string());
    }
    let (table, regressed) = compare::compare(&benchmark, &parent, &change)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
