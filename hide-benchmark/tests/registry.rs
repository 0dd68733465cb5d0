//! `BENCHMARK.json` and the metric registry agree, and a `--quick` run
//! of every workload emits every metric of its layers with all
//! correctness checks on.

use hide_benchmark::json::Json;
use hide_benchmark::metrics::{end_to_end, per_layer, Def};
use hide_benchmark::workloads::{self, APD_REFRESH, WORKLOADS};
use hide_benchmark::RunOpts;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::str).unwrap_or_default().to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn registered(defs: &[Def]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            (
                d.name.clone(),
                d.unit.to_string(),
                d.better.label().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_registry() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), registered(&end_to_end()));
    assert_eq!(declared(&doc, "per_layer"), registered(&per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::str))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let mut names: Vec<String> = end_to_end()
        .into_iter()
        .chain(per_layer())
        .map(|d| d.name)
        .collect();
    names.extend(WORKLOADS.iter().map(|w| w.to_string()));
    for name in &names {
        assert!(valid_name(name), "invalid name {name:?}");
    }
    let count = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
}

#[test]
fn quick_runs_emit_every_metric_of_their_workload() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            // The open-loop p99.9 needs 10,000 latencies from the
            // telemetry-on rounds, a quarter of the traced run.
            let seconds = if workload == APD_REFRESH && trace {
                4.0
            } else {
                0.5
            };
            let opts = RunOpts {
                seed: 3,
                seconds,
                trace,
                quick: true,
            };
            let out = workloads::run(workload, &opts).expect("quick run completes");
            assert!(out.correct(), "{workload}: {:?}", out.problems);
            assert!(out.attempted > 0, "{workload} attempted nothing");

            let defs = if trace { per_layer() } else { end_to_end() };
            for d in defs.iter().filter(|d| d.workloads.contains(&workload)) {
                assert!(
                    out.metric(&d.name).is_some(),
                    "{workload} (trace {trace}) did not emit {}",
                    d.name
                );
            }
            for m in &out.metrics {
                assert!(
                    defs.iter().any(|d| d.name == m.name && d.unit == m.unit),
                    "{workload} emitted unregistered {} ({})",
                    m.name,
                    m.unit
                );
            }

            let line = out.result_line(&out.registered(trace).expect("registered"));
            let result = Json::parse(&line).expect("result line is JSON");
            let keys: Vec<&str> = result
                .obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = result.get("metrics").and_then(Json::obj).expect("metrics");
            assert_eq!(metrics.len(), defs.len());
        }
    }
}
