//! The five workloads. Each stresses a different set of layers, so a
//! change to one layer has a workload that exercises it and one that
//! bypasses it (where the prediction is "no change").

pub mod apd;
pub mod fleet;
pub mod reproduce;

use crate::{Outcome, RunOpts};
use std::time::Instant;

/// The `reproduce all` sequence, in process.
pub const PAPER_REPRODUCE: &str = "paper-reproduce";
/// The in-memory fleet under heavy client churn.
pub const FLEET_CHURN: &str = "fleet-churn";
/// The streamed fleet: spill, k-way merge and JSONL render.
pub const FLEET_EXPORT: &str = "fleet-export";
/// The daemon under port-message refreshes (open and closed loop).
pub const APD_REFRESH: &str = "apd-refresh";
/// The daemon buffering broadcast traffic between DTIM ticks.
pub const APD_BROADCAST: &str = "apd-broadcast";

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    PAPER_REPRODUCE,
    FLEET_CHURN,
    FLEET_EXPORT,
    APD_REFRESH,
    APD_BROADCAST,
];

/// Worker threads for the parallel layers: sized for a 2-core host.
pub const JOBS: usize = 2;

/// Runs workload `name`.
///
/// # Errors
///
/// Returns a message for an unknown workload or a layer error that
/// stopped the run (correctness failures land in the outcome instead).
pub fn run(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = match name {
        PAPER_REPRODUCE => reproduce::run(opts),
        FLEET_CHURN => fleet::run_churn(opts),
        FLEET_EXPORT => fleet::run_export(opts),
        APD_REFRESH => apd::run_refresh(opts),
        APD_BROADCAST => apd::run_broadcast(opts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }?;
    if !opts.trace {
        let rss = crate::peak_rss_mb().ok_or("peak RSS needs /proc/self/status")?;
        out.push(crate::Metric::value("peak_rss_mb", "MiB", rss));
    }
    Ok(out)
}

/// Calls `f` until at least `seconds` have passed and it ran at least
/// `min_iters` times; returns the sample (a wall time, in seconds)
/// each call measured for itself.
pub fn timed_loop<E>(
    seconds: f64,
    min_iters: usize,
    mut f: impl FnMut() -> Result<f64, E>,
) -> Result<Vec<f64>, E> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_iters || start.elapsed().as_secs_f64() < seconds {
        samples.push(f()?);
    }
    Ok(samples)
}

/// Milliseconds in `secs`.
#[must_use]
pub fn ms(secs: f64) -> f64 {
    secs * 1e3
}
