//! Text-table rendering of experiment results, in the same shape the
//! paper's figures report them. Used by the `reproduce` binary and the
//! EXPERIMENTS.md generator.

use crate::experiment::{ScenarioComparison, SuspendFractionRow, TraceVolume};
use std::fmt::Write as _;

/// Renders the Fig. 6 data: per-scenario mean frames/sec and CDF
/// quartiles.
pub fn render_trace_volumes(volumes: &[TraceVolume]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "scenario", "frames", "mean fps", "p25", "p50", "p75", "max"
    );
    for v in volumes {
        let q = |p: f64| {
            // Invert the plotted CDF: smallest x with P >= p.
            v.cdf_points
                .iter()
                .find(|(_, prob)| *prob >= p)
                .map(|(x, _)| *x)
                .unwrap_or(0.0)
        };
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>10.2} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            v.scenario,
            v.frames,
            v.mean_fps,
            q(0.25),
            q(0.50),
            q(0.75),
            v.cdf_points.last().map(|(x, _)| *x).unwrap_or(0.0),
        );
    }
    out
}

/// Renders a Figs. 7/8 panel: stacked average power per solution for
/// every scenario.
pub fn render_energy_comparison(comparisons: &[ScenarioComparison]) -> String {
    let mut out = String::new();
    for c in comparisons {
        let _ = writeln!(out, "--- {} ({}) ---", c.scenario, c.device);
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9}",
            "solution", "Eb/T", "Ef/T", "Est/T", "Ewl/T", "Eo/T", "total mW", "saving"
        );
        for bar in &c.bars {
            let [eb, ef, est, ewl, eo] = bar.stacked_mw;
            let _ = writeln!(
                out,
                "{:<14} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.3} {:>10.2} {:>8.1}%",
                bar.label,
                eb,
                ef,
                est,
                ewl,
                eo,
                bar.total_mw,
                bar.saving_vs_receive_all * 100.0
            );
        }
    }
    out
}

/// Renders the Fig. 9 table: suspend-time fraction per solution per
/// scenario.
pub fn render_suspend_fractions(rows: &[SuspendFractionRow]) -> String {
    let mut out = String::new();
    let labels: Vec<String> = rows
        .first()
        .map(|r| r.fractions.iter().map(|(l, _)| l.clone()).collect())
        .unwrap_or_default();
    let _ = write!(out, "{:<12}", "scenario");
    for l in &labels {
        let _ = write!(out, " {l:>12}");
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "{:<12}", row.scenario);
        for (_, v) in &row.fractions {
            let _ = write!(out, " {:>11.1}%", v * 100.0);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{self, PAPER_FRACTIONS};
    use hide_energy::profile::NEXUS_ONE;
    use hide_obs::Recorder;
    use hide_traces::scenario::Scenario;

    #[test]
    fn tables_render_nonempty() {
        let traces = Scenario::generate_all(120.0, 41);
        let volumes = experiment::trace_volumes(&traces);
        let vol_table = render_trace_volumes(&volumes);
        assert!(vol_table.contains("Classroom"));
        assert!(vol_table.contains("mean fps"));

        let comparisons = experiment::energy_comparison(
            NEXUS_ONE,
            &traces[..1],
            &PAPER_FRACTIONS,
            &mut Recorder::new(),
        )
        .unwrap();
        let energy_table = render_energy_comparison(&comparisons);
        assert!(energy_table.contains("receive-all"));
        assert!(energy_table.contains("HIDE:2%"));
        assert!(energy_table.contains("Eo/T"));

        let rows =
            experiment::suspend_fractions(NEXUS_ONE, &traces[..1], &mut Recorder::new()).unwrap();
        let suspend_table = render_suspend_fractions(&rows);
        assert!(suspend_table.contains("HIDE:10%"));
        assert!(suspend_table.contains('%'));
    }

    #[test]
    fn empty_inputs_render_headers_only() {
        assert!(render_energy_comparison(&[]).is_empty());
        let s = render_suspend_fractions(&[]);
        assert!(s.starts_with("scenario"));
    }
}
