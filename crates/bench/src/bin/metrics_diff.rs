//! `hide-metrics-diff`: names the keys that moved between two
//! `hide-metrics/1` artifacts.
//!
//! ```text
//! hide-metrics-diff <golden.json> <candidate.json>
//! ```
//!
//! Both files must carry the `hide-metrics/1` schema identifier. Every
//! numeric leaf is flattened to a dotted key (`counters.fleet_events`,
//! `distributions.frames_per_dtim.sum`, `stages.fleet.calls`; histogram
//! buckets become `...buckets.<bucket>`), and golden and candidate are
//! compared key by key, exactly: a key present on one side only, or a
//! value that differs, is a regression. Leaves are signed integers
//! (`battery.lifetime_gain_ppm` is negative when a policy costs
//! energy); any other number is a parse error.
//!
//! Exit status: 0 when the artifacts agree, 1 on any regression, 2 on
//! usage or parse errors. CI gates the goldens under `golden/` with
//! `cmp` and runs this only after a `cmp` fails, to name the keys that
//! moved (see the `metrics-gate` job).

use hide_obs::json::{self, Kind, Value};
use std::cmp::Ordering;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("hide-metrics-diff: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag {flag:?}"));
    }
    let [golden_path, candidate_path] = args else {
        return Err("usage: hide-metrics-diff <golden> <candidate>".to_string());
    };
    let golden = load(golden_path)?;
    let candidate = load(candidate_path)?;
    let report = diff(&golden, &candidate);
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "{} keys compared, {} regression{}",
        report.compared,
        report.regressions,
        if report.regressions == 1 { "" } else { "s" }
    );
    Ok(report.regressions == 0)
}

fn load(path: &str) -> Result<Vec<(String, i128)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    flatten_artifact(&text).map_err(|e| format!("{path}: {e}"))
}

/// Parses one `hide-metrics/1` document and flattens its numeric
/// leaves.
fn flatten_artifact(text: &str) -> Result<Vec<(String, i128)>, String> {
    let value = json::parse(text).map_err(|e| e.to_string())?;
    let schema = value
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\" field")?;
    if schema != "hide-metrics/1" {
        return Err(format!("unsupported schema {schema:?}"));
    }
    let mut flat = Vec::new();
    flatten("", &value, &mut flat)?;
    Ok(flat)
}

struct DiffReport {
    lines: Vec<String>,
    compared: usize,
    regressions: usize,
}

/// Exact comparison of two flattened artifacts. Both inputs are
/// sorted-merged so a key present on one side only is detected in one
/// pass.
fn diff(golden: &[(String, i128)], candidate: &[(String, i128)]) -> DiffReport {
    let mut golden: Vec<_> = golden.to_vec();
    let mut candidate: Vec<_> = candidate.to_vec();
    golden.sort();
    candidate.sort();

    let mut report = DiffReport {
        lines: Vec::new(),
        compared: 0,
        regressions: 0,
    };
    let (mut gi, mut ci) = (0, 0);
    while gi < golden.len() || ci < candidate.len() {
        let order = match (golden.get(gi), candidate.get(ci)) {
            (Some((g, _)), Some((c, _))) => g.cmp(c),
            (Some(_), None) => Ordering::Less,
            (None, _) => Ordering::Greater,
        };
        let line = match order {
            Ordering::Less => {
                let (key, value) = &golden[gi];
                gi += 1;
                format!("{key}: missing from candidate (golden {value})")
            }
            Ordering::Greater => {
                let (key, value) = &candidate[ci];
                ci += 1;
                format!("{key}: not in golden (candidate {value})")
            }
            Ordering::Equal => {
                let (key, g) = &golden[gi];
                let c = candidate[ci].1;
                gi += 1;
                ci += 1;
                report.compared += 1;
                if *g == c {
                    continue;
                }
                format!("{key}: golden {g}, candidate {c}")
            }
        };
        report.regressions += 1;
        report.lines.push(line);
    }
    report
}

/// Flattens integer leaves to dotted keys; strings are skipped and any
/// other leaf is an error. Arrays whose elements are all
/// `[bucket, count]` integer pairs (histogram buckets) become
/// `prefix.<bucket> = count` so bucket insertions don't shift sibling
/// keys; any other array indexes positionally.
fn flatten(prefix: &str, value: &Value, out: &mut Vec<(String, i128)>) -> Result<(), String> {
    let child = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    match &value.kind {
        Kind::String(_) => {}
        Kind::Object(members) => {
            for (key, v) in members {
                flatten(&child(key), v, out)?;
            }
        }
        Kind::Array(items) => {
            let pairs: Option<Vec<(i128, i128)>> = items
                .iter()
                .map(|item| match item.as_array()? {
                    [b, n] => Some((integer(b).ok()?, integer(n).ok()?)),
                    _ => None,
                })
                .collect();
            match pairs {
                Some(pairs) => {
                    for (bucket, count) in pairs {
                        out.push((child(&bucket.to_string()), count));
                    }
                }
                None => {
                    for (i, item) in items.iter().enumerate() {
                        flatten(&child(&i.to_string()), item, out)?;
                    }
                }
            }
        }
        _ => out.push((prefix.to_string(), integer(value)?)),
    }
    Ok(())
}

/// The integer a leaf holds, over the whole `i64` and `u64` range.
fn integer(value: &Value) -> Result<i128, String> {
    value
        .as_i64()
        .map(i128::from)
        .or_else(|| value.as_u64().map(i128::from))
        .ok_or(format!(
            "non-integer value at byte {} (hide-metrics/1 is integer-only)",
            value.offset
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(pairs: &[(&str, i128)]) -> Vec<(String, i128)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn parses_and_flattens_a_real_artifact() {
        let rec = hide_obs::Recorder::new();
        let flat = flatten_artifact(&rec.to_json()).unwrap();
        for key in [
            "counters.fleet_events",
            "counters.fleet_missed_refresh_lost",
            "stages.fleet_merge.calls",
            "distributions.frames_per_dtim.sum",
        ] {
            assert!(flat.iter().any(|(k, _)| k == key), "{key}");
        }
    }

    #[test]
    fn identical_artifacts_pass_and_drift_fails() {
        let a = artifact(&[("counters.x", 10), ("counters.y", 0)]);
        assert_eq!(diff(&a, &a).regressions, 0);

        let b = artifact(&[("counters.x", 11), ("counters.y", 0)]);
        let report = diff(&a, &b);
        assert_eq!(report.regressions, 1);
        assert!(report.lines[0].contains("counters.x"));
    }

    #[test]
    fn negative_leaves_diff_clean_and_their_drift_is_one_regression() {
        let doc = r#"{"schema": "hide-metrics/1", "battery": {"lifetime_gain_ppm": -436769, "clients": 16}}"#;
        let a = flatten_artifact(doc).unwrap();
        assert!(a.contains(&("battery.lifetime_gain_ppm".to_string(), -436_769)));
        assert_eq!(diff(&a, &a).regressions, 0);
        let b = flatten_artifact(&doc.replace("-436769", "-436770")).unwrap();
        let report = diff(&a, &b);
        assert_eq!(report.regressions, 1);
        assert_eq!(
            report.lines,
            ["battery.lifetime_gain_ppm: golden -436769, candidate -436770"]
        );
    }

    #[test]
    fn structural_differences_are_regressions() {
        let a = artifact(&[("counters.x", 1), ("stages.old.calls", 2)]);
        let b = artifact(&[("counters.x", 1), ("stages.new.calls", 2)]);
        let report = diff(&a, &b);
        assert_eq!(report.regressions, 2);
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn buckets_flatten_by_bucket_value_not_position() {
        let value = json::parse(r#"{"buckets": [[3, 7], [9, 1]]}"#).unwrap();
        let mut flat = Vec::new();
        flatten("", &value, &mut flat).unwrap();
        assert_eq!(flat, artifact(&[("buckets.3", 7), ("buckets.9", 1)]));
    }

    #[test]
    fn rejects_non_metrics_json() {
        let err = flatten_artifact(r#"{"schema": "hide-metrics/1", "a": 1.5}"#).unwrap_err();
        assert_eq!(
            err,
            "non-integer value at byte 34 (hide-metrics/1 is integer-only)"
        );
        let deep = "[".repeat(200_000);
        for text in [
            r#"{"schema": "hide-metrics/1", "a": true}"#,
            r#"{"schema": "hide-metrics/2"}"#,
            r#"{"a": 1}"#,
            "[1, 2",
            r#"{"schema": "hide-metrics/1"} x"#,
            &deep,
        ] {
            assert!(flatten_artifact(text).is_err(), "{text:.40}");
        }
    }

    #[test]
    fn takes_exactly_two_paths_and_no_flags() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for flag in ["--profile", "--tol", "--tol-default", "--ignore"] {
            let err = run(&args(&["a.json", "b.json", flag, "x"])).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag:?}"));
        }
        assert!(run(&args(&["a.json"])).unwrap_err().starts_with("usage"));
    }
}
