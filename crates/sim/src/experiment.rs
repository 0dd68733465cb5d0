//! Experiment runners for the paper's figures.
//!
//! Each function reproduces the data behind one figure:
//!
//! * [`trace_volumes`] — Fig. 6 (CDFs of broadcast frames/second),
//! * [`energy_comparison`] — Figs. 7 and 8 (stacked average power per
//!   solution per trace),
//! * [`suspend_fractions`] — Fig. 9 (fraction of time in suspend mode),
//! * [`savings_summary`] — the headline savings ranges quoted in the
//!   abstract and conclusion.
//!
//! Every simulating runner is fallible and takes a [`Recorder`]: each
//! (trace, solution) cell records into its own local recorder, and the
//! locals are folded back **in input order** after the parallel map,
//! so the merged metrics are byte-identical at any `--jobs` count. A
//! caller that wants no metrics passes `&mut Recorder::new()`.

use crate::error::SimError;
use crate::simulation::SimulationBuilder;
use crate::solution::Solution;
use hide_energy::profile::DeviceProfile;
use hide_obs::Recorder;
use hide_traces::record::Trace;

/// The useful-frame percentages Figs. 7 and 8 sweep, in figure order.
pub const PAPER_FRACTIONS: [f64; 5] = [0.10, 0.08, 0.06, 0.04, 0.02];

/// One bar of Figs. 7/8: a solution's stacked average power.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyBar {
    /// Solution label (`receive-all`, `client-side`, `HIDE:10%`, …).
    pub label: String,
    /// `[Eb, Ef, Est, Ewl, Eo] / T` in milliwatts, figure stacking order.
    pub stacked_mw: [f64; 5],
    /// Total average power in milliwatts.
    pub total_mw: f64,
    /// Fraction of time in suspend mode (Fig. 9's metric).
    pub suspend_fraction: f64,
    /// Energy saving vs. the receive-all bar of the same scenario.
    pub saving_vs_receive_all: f64,
}

/// All bars for one trace (one sub-figure of Figs. 7/8).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioComparison {
    /// Scenario label.
    pub scenario: String,
    /// Device name.
    pub device: String,
    /// Bars in figure order: receive-all, client-side, HIDE at each
    /// fraction.
    pub bars: Vec<EnergyBar>,
}

impl ScenarioComparison {
    /// The bar with the given label, if present.
    pub fn bar(&self, label: &str) -> Option<&EnergyBar> {
        self.bars.iter().find(|b| b.label == label)
    }
}

/// Runs the Figs. 7/8 experiment: for every trace, simulate
/// receive-all, the client-side lower bound, and HIDE at each fraction.
///
/// The (trace, solution) cells are independent seeded simulations, so
/// they fan out over [`hide_par`]'s worker pool; results come back in
/// input order, making the output identical for any job count. Every
/// cell's metrics land in `recorder`, merged in input order.
///
/// # Errors
///
/// Returns [`SimError::Energy`] when a trace is degenerate.
pub fn energy_comparison(
    profile: DeviceProfile,
    traces: &[Trace],
    fractions: &[f64],
    recorder: &mut Recorder,
) -> Result<Vec<ScenarioComparison>, SimError> {
    let mut solutions = Vec::with_capacity(2 + fractions.len());
    solutions.push(Solution::ReceiveAll);
    solutions.push(Solution::client_side_lower_bound());
    solutions.extend(fractions.iter().map(|&f| Solution::hide(f)));

    let cells: Vec<(usize, Solution)> = traces
        .iter()
        .enumerate()
        .flat_map(|(ti, _)| solutions.iter().map(move |&s| (ti, s)))
        .collect();
    let runs = hide_par::par_map(&cells, |&(ti, solution)| {
        let mut local = Recorder::new();
        let result = SimulationBuilder::new(&traces[ti], profile)
            .solution(solution)
            .run(&mut local);
        (result, local)
    });
    let mut results = Vec::with_capacity(runs.len());
    for (result, local) in runs {
        recorder.merge_from(&local);
        results.push(result?);
    }

    // Cells for one trace are contiguous; the receive-all cell leads
    // each chunk and anchors the per-scenario saving.
    Ok(results
        .chunks(solutions.len())
        .zip(traces)
        .map(|(chunk, trace)| {
            let baseline_total = chunk[0].energy.breakdown.total();
            let bars = chunk
                .iter()
                .map(|result| {
                    let d = result.energy.duration;
                    EnergyBar {
                        label: result.solution.label(),
                        stacked_mw: result.energy.breakdown.stacked_milliwatts(d),
                        total_mw: result.energy.average_power_mw(),
                        suspend_fraction: result.energy.suspend_fraction(),
                        saving_vs_receive_all: 1.0
                            - result.energy.breakdown.total() / baseline_total,
                    }
                })
                .collect();
            ScenarioComparison {
                scenario: trace.scenario.clone(),
                device: profile.name.to_string(),
                bars,
            }
        })
        .collect())
}

/// One scenario's suspend-time fractions (Fig. 9): receive-all,
/// client-side, HIDE:10%, HIDE:2%.
#[derive(Debug, Clone, PartialEq)]
pub struct SuspendFractionRow {
    /// Scenario label.
    pub scenario: String,
    /// `(solution label, fraction of time suspended)` in figure order.
    pub fractions: Vec<(String, f64)>,
}

/// Runs the Fig. 9 experiment, fanning the (trace, solution) cells out
/// in parallel like [`energy_comparison`]; per-cell metrics merge into
/// `recorder` in input order.
///
/// # Errors
///
/// Returns [`SimError::Energy`] when a trace is degenerate.
pub fn suspend_fractions(
    profile: DeviceProfile,
    traces: &[Trace],
    recorder: &mut Recorder,
) -> Result<Vec<SuspendFractionRow>, SimError> {
    let solutions = [
        Solution::ReceiveAll,
        Solution::client_side_lower_bound(),
        Solution::hide(0.10),
        Solution::hide(0.02),
    ];
    let cells: Vec<(usize, Solution)> = traces
        .iter()
        .enumerate()
        .flat_map(|(ti, _)| solutions.iter().map(move |&s| (ti, s)))
        .collect();
    let runs = hide_par::par_map(&cells, |&(ti, s)| {
        let mut local = Recorder::new();
        let r = SimulationBuilder::new(&traces[ti], profile)
            .solution(s)
            .run(&mut local);
        (r.map(|r| (s.label(), r.energy.suspend_fraction())), local)
    });
    let mut fractions = Vec::with_capacity(runs.len());
    for (row, local) in runs {
        recorder.merge_from(&local);
        fractions.push(row?);
    }
    Ok(fractions
        .chunks(solutions.len())
        .zip(traces)
        .map(|(chunk, trace)| SuspendFractionRow {
            scenario: trace.scenario.clone(),
            fractions: chunk.to_vec(),
        })
        .collect())
}

/// Per-trace volume statistics behind Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceVolume {
    /// Scenario label.
    pub scenario: String,
    /// Mean broadcast frames per second (the black square).
    pub mean_fps: f64,
    /// Frame count in the trace.
    pub frames: usize,
    /// Selected CDF points `(frames/sec, P)`.
    pub cdf_points: Vec<(f64, f64)>,
}

/// Computes the Fig. 6 data for each trace, one worker per trace.
pub fn trace_volumes(traces: &[Trace]) -> Vec<TraceVolume> {
    hide_par::par_map(traces, |t| {
        let cdf = t.fps_cdf();
        TraceVolume {
            scenario: t.scenario.clone(),
            mean_fps: t.mean_fps(),
            frames: t.len(),
            cdf_points: cdf.plot_points(25),
        }
    })
}

/// One row of the unicast-sensitivity extension experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct UnicastSensitivityRow {
    /// Unicast arrival rate, frames/second.
    pub unicast_rate: f64,
    /// receive-all average power, mW.
    pub receive_all_mw: f64,
    /// HIDE:10% average power, mW.
    pub hide_mw: f64,
    /// HIDE:10% saving vs. receive-all at this unicast load.
    pub saving: f64,
}

/// Extension experiment: how background unicast traffic (which wakes
/// the client under every solution) dilutes HIDE's savings. Per-rate
/// metrics merge into `recorder` in input order.
///
/// # Errors
///
/// Returns [`SimError::Energy`] when the trace is degenerate.
pub fn unicast_sensitivity(
    profile: DeviceProfile,
    trace: &Trace,
    rates: &[f64],
    recorder: &mut Recorder,
) -> Result<Vec<UnicastSensitivityRow>, SimError> {
    use hide_traces::unicast::UnicastTrace;
    let runs = hide_par::par_map(rates, |&rate| {
        let mut local = Recorder::new();
        let unicast = UnicastTrace::poisson(trace.duration, rate, 99);
        let row = (|| -> Result<UnicastSensitivityRow, SimError> {
            let all = SimulationBuilder::new(trace, profile)
                .unicast(&unicast)
                .run(&mut local)?;
            let hide = SimulationBuilder::new(trace, profile)
                .solution(Solution::hide(0.10))
                .unicast(&unicast)
                .run(&mut local)?;
            Ok(UnicastSensitivityRow {
                unicast_rate: rate,
                receive_all_mw: all.energy.average_power_mw(),
                hide_mw: hide.energy.average_power_mw(),
                saving: hide.energy.saving_vs(&all.energy),
            })
        })();
        (row, local)
    });
    let mut rows = Vec::with_capacity(runs.len());
    for (row, local) in runs {
        recorder.merge_from(&local);
        rows.push(row?);
    }
    Ok(rows)
}

/// The headline savings ranges quoted in the paper's abstract: min/max
/// HIDE saving vs. receive-all across traces, and the average extra
/// saving over the client-side solution.
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsSummary {
    /// Device name.
    pub device: String,
    /// Useful fraction the summary is for.
    pub fraction: f64,
    /// Minimum saving vs. receive-all across traces.
    pub min_saving: f64,
    /// Maximum saving vs. receive-all across traces.
    pub max_saving: f64,
    /// Mean of (HIDE saving − client-side saving) across traces.
    pub mean_extra_vs_client_side: f64,
}

/// Summarizes a set of [`ScenarioComparison`]s at one HIDE fraction.
///
/// # Errors
///
/// Returns [`SimError::MissingBar`] when `comparisons` is empty or a
/// comparison lacks the `client-side` or requested HIDE bar (they
/// always exist when produced by [`energy_comparison`] with that
/// fraction included).
pub fn savings_summary(
    comparisons: &[ScenarioComparison],
    fraction: f64,
) -> Result<SavingsSummary, SimError> {
    let label = Solution::hide(fraction).label();
    let Some(first) = comparisons.first() else {
        return Err(SimError::MissingBar { label });
    };
    let mut min_saving = f64::INFINITY;
    let mut max_saving = f64::NEG_INFINITY;
    let mut extra_sum = 0.0;
    for c in comparisons {
        let hide = c.bar(&label).ok_or_else(|| SimError::MissingBar {
            label: label.clone(),
        })?;
        let cs = c.bar("client-side").ok_or_else(|| SimError::MissingBar {
            label: "client-side".to_string(),
        })?;
        min_saving = min_saving.min(hide.saving_vs_receive_all);
        max_saving = max_saving.max(hide.saving_vs_receive_all);
        extra_sum += hide.saving_vs_receive_all - cs.saving_vs_receive_all;
    }
    Ok(SavingsSummary {
        device: first.device.clone(),
        fraction,
        min_saving,
        max_saving,
        mean_extra_vs_client_side: extra_sum / comparisons.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_energy::profile::NEXUS_ONE;
    use hide_traces::scenario::Scenario;

    fn traces() -> Vec<Trace> {
        Scenario::generate_all(600.0, 31)
    }

    #[test]
    fn energy_comparison_has_expected_bars() {
        let traces = traces();
        let comparisons =
            energy_comparison(NEXUS_ONE, &traces, &PAPER_FRACTIONS, &mut Recorder::new()).unwrap();
        assert_eq!(comparisons.len(), 5);
        for c in &comparisons {
            assert_eq!(c.bars.len(), 7);
            assert_eq!(c.bars[0].label, "receive-all");
            assert_eq!(c.bars[1].label, "client-side");
            assert_eq!(c.bars[2].label, "HIDE:10%");
            assert_eq!(c.bars[6].label, "HIDE:2%");
            // Every HIDE bar must beat receive-all.
            for bar in &c.bars[2..] {
                assert!(
                    bar.saving_vs_receive_all > 0.0,
                    "{} {} saved nothing",
                    c.scenario,
                    bar.label
                );
            }
        }
    }

    #[test]
    fn stacked_components_sum_to_total() {
        let traces = traces();
        let comparisons =
            energy_comparison(NEXUS_ONE, &traces[..1], &[0.10], &mut Recorder::new()).unwrap();
        for bar in &comparisons[0].bars {
            let sum: f64 = bar.stacked_mw.iter().sum();
            assert!((sum - bar.total_mw).abs() < 1e-9);
        }
    }

    #[test]
    fn suspend_fractions_ordered_by_solution() {
        let traces = traces();
        let rows = suspend_fractions(NEXUS_ONE, &traces, &mut Recorder::new()).unwrap();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert_eq!(row.fractions.len(), 4);
            let get = |label: &str| {
                row.fractions
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            // HIDE:2% suspends at least as much as HIDE:10%, which beats
            // receive-all.
            assert!(get("HIDE:2%") >= get("HIDE:10%") - 1e-9, "{}", row.scenario);
            assert!(get("HIDE:10%") > get("receive-all"), "{}", row.scenario);
            for (_, v) in &row.fractions {
                assert!((0.0..=1.0).contains(v));
            }
        }
    }

    #[test]
    fn trace_volumes_report_means() {
        let traces = traces();
        let vols = trace_volumes(&traces);
        assert_eq!(vols.len(), 5);
        for v in &vols {
            assert!(v.mean_fps > 0.0);
            assert!(!v.cdf_points.is_empty());
            let last = v.cdf_points.last().unwrap();
            assert!((last.1 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn savings_summary_ranges() {
        let traces = traces();
        let comparisons =
            energy_comparison(NEXUS_ONE, &traces, &[0.10, 0.02], &mut Recorder::new()).unwrap();
        let s10 = savings_summary(&comparisons, 0.10).unwrap();
        let s2 = savings_summary(&comparisons, 0.02).unwrap();
        assert!(s10.min_saving <= s10.max_saving);
        assert!(s10.min_saving > 0.0);
        assert!(s2.min_saving >= s10.min_saving - 0.05);
        assert!(s2.max_saving > s10.max_saving - 0.05);
    }

    #[test]
    fn savings_summary_of_nothing_is_missing_bar() {
        // Regression: an empty set used to summarize to Ok with
        // min = inf, max = -inf and an empty device name.
        let err = savings_summary(&[], 0.10).unwrap_err();
        assert_eq!(
            err,
            SimError::MissingBar {
                label: "HIDE:10%".to_string()
            }
        );
    }
}
