//! `compare`: decides, metric by metric, whether a change improved,
//! kept or worsened the parent's end-to-end numbers.
//!
//! The rule (see `README.md`):
//! * **improved** — at least 10 parent/change pairs, the change wins at
//!   least 9 in 10 (ties count for neither side), and the medians
//!   differ by more than the parent's inter-quartile range;
//! * **unresolved** — otherwise, when either side's IQR is wider than
//!   the metric's bound (relative to its median), unless every change
//!   run beats every parent run;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound `BENCHMARK.json` fixes;
//! * **unchanged** — everything else.

use crate::json::Json;
use crate::metrics::Better;
use crate::stats::{median, quartiles};
use std::fmt::Write as _;

/// A comparison verdict for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain that clears the pair and spread rules.
    Improved,
    /// No change beyond the bound.
    Unchanged,
    /// Worse than the parent by more than the bound.
    Worse,
    /// Spread too wide to tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label as printed.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs a gain claim needs.
pub const MIN_PAIRS: usize = 10;

/// How much better `x` is than `base`, in the metric's direction.
fn gain(x: f64, base: f64, better: Better) -> f64 {
    match better {
        Better::Lower => base - x,
        Better::Higher => x - base,
    }
}

/// Applies the rule to one metric. `parent[i]` and `change[i]` form
/// pair `i`; `bound` is the allowed relative worsening.
///
/// # Panics
///
/// Panics when either side has no samples.
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (pm, cm) = (median(parent), median(change));
    let (pq1, pq3) = quartiles(parent);
    let (cq1, cq3) = quartiles(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| gain(c, p, better) > 0.0)
        .count();
    let delta = gain(cm, pm, better);
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && delta > pq3 - pq1 {
        return Verdict::Improved;
    }
    let spread = ((pq3 - pq1) / pm.abs()).max((cq3 - cq1) / cm.abs());
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| gain(c, p, better) > 0.0));
    if spread > bound && !all_better {
        Verdict::Unresolved
    } else if -delta / pm.abs() > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    better: Better,
    bound: f64,
}

/// One result file: its workload, counts and metric values.
struct RunDoc {
    workload: String,
    trace: bool,
    attempted: f64,
    failed: f64,
    metrics: Json,
}

fn load_run(path: &str) -> Result<RunDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::str) != Some("hide-benchmark/1") {
        return Err(format!("{path}: not a hide-benchmark/1 document"));
    }
    let field = |k: &str| doc.get(k).and_then(Json::num).unwrap_or(0.0);
    Ok(RunDoc {
        workload: doc
            .get("workload")
            .and_then(Json::str)
            .unwrap_or_default()
            .to_string(),
        trace: doc.get("trace") == Some(&Json::Bool(true)),
        attempted: field("attempted"),
        failed: field("failed"),
        metrics: doc.get("metrics").cloned().unwrap_or(Json::Null),
    })
}

/// The untraced runs of `workload`, in file order.
fn untraced<'a>(runs: &'a [RunDoc], workload: &str) -> Vec<&'a RunDoc> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.trace)
        .collect()
}

fn load_declared(path: &str) -> Result<(Vec<String>, Vec<Declared>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::arr)
        .ok_or_else(|| format!("{path}: no workloads"))?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::str).map(str::to_string))
        .collect();
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or_else(|| format!("{path}: no end_to_end metrics"))?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.str()?.to_string(),
                better: match m.get("better")?.str()? {
                    "higher" => Better::Higher,
                    _ => Better::Lower,
                },
                bound: m.get("bound")?.num()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed end_to_end entry"))?;
    Ok((workloads, metrics))
}

/// Compares the untraced result files of the parent with those of the
/// change, in run order (parent file `i` pairs with change file `i` of the same
/// workload). Returns the printed table and whether any metric got
/// worse or the failure fraction rose.
///
/// # Errors
///
/// Fails on an unreadable or malformed input.
pub fn compare(
    benchmark: &str,
    parent: &[String],
    change: &[String],
) -> Result<(String, bool), String> {
    let (workloads, declared) = load_declared(benchmark)?;
    let parent = parent
        .iter()
        .map(|p| load_run(p))
        .collect::<Result<Vec<_>, _>>()?;
    let change = change
        .iter()
        .map(|p| load_run(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut table = format!(
        "{:<16} {:<14} {:>5} {:>38} {:>38} {:>8} {:>7}  verdict\n",
        "workload",
        "metric",
        "pairs",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "ratio",
        "bound"
    );
    let mut regressed = false;
    for workload in &workloads {
        let (p_runs, c_runs) = (untraced(&parent, workload), untraced(&change, workload));
        if p_runs.is_empty() || c_runs.is_empty() {
            continue;
        }
        let failed_frac = |runs: &[&RunDoc]| {
            runs.iter().map(|r| r.failed).sum::<f64>()
                / runs.iter().map(|r| r.attempted).sum::<f64>().max(1.0)
        };
        let (pf, cf) = (failed_frac(&p_runs), failed_frac(&c_runs));
        if cf > pf {
            regressed = true;
        }
        let _ = writeln!(
            table,
            "{workload:<16} {:<14} {:>5} {:>38} {:>38} {:>8} {:>7}  {}",
            "failed_frac",
            p_runs.len().min(c_runs.len()),
            format!("{pf:.6}"),
            format!("{cf:.6}"),
            "",
            "0",
            if cf > pf { "worse" } else { "unchanged" }
        );
        for m in &declared {
            let values = |runs: &[&RunDoc]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&m.name)?.get("value")?.num())
                    .collect()
            };
            let (p, c) = (values(&p_runs), values(&c_runs));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let v = verdict(&p, &c, m.better, m.bound);
            regressed |= v == Verdict::Worse;
            let show = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.6} [{q1:.6}, {q3:.6}]", median(x))
            };
            let _ = writeln!(
                table,
                "{workload:<16} {:<14} {:>5} {:>38} {:>38} {:>8.4} {:>7}  {}",
                m.name,
                p.len().min(c.len()),
                show(&p),
                show(&c),
                median(&c) / median(&p),
                m.bound,
                v.label()
            );
        }
    }
    table.push_str("ratio = change median / parent median (base: the parent median)\n");
    Ok((table, regressed))
}
