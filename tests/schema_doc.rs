//! Every JSON document the system emits, checked against
//! docs/metrics-schema.md.
//!
//! Each test renders a real document in process from a small config,
//! parses it with `hide_obs::json`, and asserts that its set of key
//! paths equals the set its doc section lists. The doc's sets come from
//! the doc itself: the backticked names in the first column of each key
//! table, and every key of each `json` example block. A path joins
//! object keys with `.` and collapses array elements to `[]`
//! (`shards[].queue_depth`).
//!
//! The Chrome trace format and `hide-bench-apd/1` have no key list in
//! the doc, so they are not checked here.

use hide::apd::{ApdConfig, DaemonHandle};
use hide::fleet::{FleetConfig, FleetResult, StageProfile};
use hide::obs::json::{self, Kind, Value};
use hide::obs::{FlightRecorder, TraceEventKind, TraceSink, WakeCause, WakeClass};
use std::collections::{BTreeMap, BTreeSet};

const DOC: &str = include_str!("../docs/metrics-schema.md");

type Paths = BTreeSet<String>;

/// The body of the `## ` section whose heading starts with `title`.
fn section(title: &str) -> &'static str {
    let start = DOC
        .find(&format!("\n## {title}"))
        .unwrap_or_else(|| panic!("docs/metrics-schema.md has no section {title:?}"));
    let body = &DOC[start + 1..];
    let body = &body[body.find('\n').expect("a heading line ends")..];
    &body[..body.find("\n## ").unwrap_or(body.len())]
}

/// The body rows of every table in `section`, each as its cells'
/// backticked names.
fn table_rows(section: &str) -> Vec<Vec<Vec<&str>>> {
    let mut rows = Vec::new();
    let mut in_body = false;
    for line in section.lines() {
        if line.starts_with("|-") {
            in_body = true;
        } else if !line.starts_with('|') {
            in_body = false;
        } else if in_body {
            let cells = line.trim_matches('|').split('|');
            rows.push(
                cells
                    .map(|cell| cell.split('`').skip(1).step_by(2).collect())
                    .collect(),
            );
        }
    }
    rows
}

/// The first-column names of the tables in `section`, with the
/// parents of dotted names.
fn table_paths(section: &str) -> Paths {
    let mut out = Paths::new();
    for row in table_rows(section) {
        for name in &row[0] {
            let mut path = String::new();
            for part in name.split('.') {
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(part);
                out.insert(path.clone());
            }
        }
    }
    out
}

/// The `json` example blocks of `section`; a block that starts with `"`
/// is one member of an object, and comes back wrapped in braces.
fn example_blocks(section: &str) -> Vec<String> {
    section
        .split("```json\n")
        .skip(1)
        .map(|rest| {
            let block = rest[..rest.find("```").expect("a closed block")].trim();
            if block.starts_with('"') {
                format!("{{{block}}}")
            } else {
                block.to_string()
            }
        })
        .collect()
}

fn parse(text: &str) -> Value<'_> {
    json::parse(text).unwrap_or_else(|e| panic!("{e} in:\n{text}"))
}

fn key_paths(text: &str) -> Paths {
    fn walk(prefix: &str, value: &Value, out: &mut Paths) {
        match &value.kind {
            Kind::Object(members) => {
                for (key, v) in members {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    walk(&path, v, out);
                    out.insert(path);
                }
            }
            Kind::Array(items) => {
                for item in items {
                    walk(&format!("{prefix}[]"), item, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Paths::new();
    walk("", &parse(text), &mut out);
    out
}

/// The key paths of every example block in `section`, and of its
/// tables.
fn doc_paths(section: &str) -> Paths {
    let mut out = table_paths(section);
    for block in example_blocks(section) {
        out.extend(key_paths(&block));
    }
    out
}

fn assert_same(what: &str, doc: &Paths, emitted: &Paths) {
    let doc_only: Vec<_> = doc.difference(emitted).collect();
    let emitted_only: Vec<_> = emitted.difference(doc).collect();
    assert!(
        doc_only.is_empty() && emitted_only.is_empty(),
        "{what}: only in docs/metrics-schema.md: {doc_only:?}; \
         only in the emitted document: {emitted_only:?}"
    );
}

/// The paths the doc gives the `hide-metrics/1` section `name`: its
/// table's keys under `name.`, each with the member shape of the
/// section's example block when it has one (`distributions`, `stages`).
fn metrics_section(name: &str) -> Paths {
    let section = section(&format!("`{name}`"));
    let shape: Paths = example_blocks(section)
        .first()
        .map(|block| {
            key_paths(block)
                .iter()
                .filter_map(|p| p.split_once('.').map(|(_, field)| field.to_string()))
                .collect()
        })
        .unwrap_or_default();
    let mut out = Paths::from([name.to_string()]);
    for key in table_paths(section) {
        out.extend(shape.iter().map(|field| format!("{name}.{key}.{field}")));
        out.insert(format!("{name}.{key}"));
    }
    out
}

/// `schema` plus the top-level example's sections, all of them or only
/// the ones whose heading does not say "(optional".
fn metrics_doc(with_optional: bool) -> Paths {
    let top = key_paths(&example_blocks(section("Top level"))[0]);
    let mut out = Paths::from(["schema".to_string()]);
    for name in top.iter().filter(|k| *k != "schema") {
        if with_optional || !DOC.contains(&format!("\n## `{name}` (optional")) {
            out.extend(metrics_section(name));
        }
    }
    out
}

/// A small fleet run with energy attribution and the stage profile on.
fn fleet() -> (FleetResult, StageProfile) {
    let cfg = FleetConfig {
        bss_count: 2,
        clients_per_bss: 4,
        duration_secs: 5.0,
        seed: 7,
        ..FleetConfig::default()
    };
    cfg.try_run_profiled_with_jobs(1)
        .expect("the small fleet runs")
}

#[test]
fn fleet_metrics_artifact_matches_the_doc() {
    let emitted = key_paths(&fleet().0.metrics_json_with_energy());
    assert_same("hide-metrics/1 (fleet)", &metrics_doc(true), &emitted);
}

#[test]
fn daemon_documents_match_the_doc() {
    let daemon = DaemonHandle::spawn(ApdConfig::new()).expect("the daemon binds loopback");
    hide::obs::log_warn!("schema_doc: one record for recent_log");
    let metrics = daemon.metrics_json().expect("the shards answer");
    let health = daemon.health_json();
    daemon.shutdown().expect("the daemon shuts down");

    let mut doc = metrics_doc(false);
    doc.extend(key_paths(&example_blocks(section("Live telemetry"))[0]));
    assert_same("hide-metrics/1 (daemon)", &doc, &key_paths(&metrics));

    let doc = doc_paths(section("The `hide-apd-health/1`"));
    assert_same("hide-apd-health/1", &doc, &key_paths(&health));
}

#[test]
fn fleet_summary_and_stage_profile_match_the_doc() {
    let (result, profile) = fleet();
    let doc = doc_paths(section("The `hide-fleet-summary/1`"));
    assert_same(
        "hide-fleet-summary/1",
        &doc,
        &key_paths(&result.summary_json()),
    );
    let doc = doc_paths(section("The `hide-fleet-stages/1`"));
    assert_same("hide-fleet-stages/1", &doc, &key_paths(&profile.to_json()));
}

#[test]
fn attribution_rows_match_the_doc() {
    let rows = fleet().0.attribution().to_jsonl();
    assert!(!rows.is_empty());
    let doc = doc_paths(section("The attribution event-log schema"));
    for row in rows.lines() {
        assert_same("attribution JSONL", &doc, &key_paths(row));
    }
}

/// The `kind` field of one trace event line.
fn kind_of(line: &str) -> String {
    let value = parse(line);
    let kind = value.get("kind").and_then(Value::as_str);
    kind.expect("a trace line has a kind").to_string()
}

#[test]
fn trace_event_lines_match_the_per_kind_table() {
    let section = section("The trace event-log schema");
    let payload: BTreeMap<&str, Paths> = table_rows(section)
        .into_iter()
        .map(|row| (row[0][0], row[1].iter().map(|f| f.to_string()).collect()))
        .collect();
    // The fields every line carries: the example's keys without its
    // kind's payload.
    let example = &example_blocks(section)[0];
    let common: Paths = key_paths(example)
        .difference(&payload[kind_of(example).as_str()])
        .cloned()
        .collect();

    let mut fr = FlightRecorder::new();
    for kind in [
        TraceEventKind::DtimBoundary {
            buffered: 2,
            table_entries: 5,
        },
        TraceEventKind::BtimEmitted {
            bytes: 4,
            bits_set: 1,
        },
        TraceEventKind::WakeDecision {
            aid: 7,
            port: 5353,
            frame_id: 42,
            class: WakeClass::Missed,
            cause: WakeCause::RefreshLost,
        },
        TraceEventKind::RefreshApplied { aid: 1 },
        TraceEventKind::RefreshLost { aid: 1 },
        TraceEventKind::PortChurn { aid: 1 },
        TraceEventKind::EntryExpired { aid: 1 },
        TraceEventKind::Join { aid: 9, hide: true },
        TraceEventKind::Leave { aid: 9 },
    ] {
        fr.emit(0.1024, kind);
    }
    let jsonl = hide::obs::export::to_jsonl(&fr);
    let mut kinds = BTreeSet::new();
    for line in jsonl.lines() {
        let kind = kind_of(line);
        let fields = payload
            .get(kind.as_str())
            .unwrap_or_else(|| panic!("kind {kind:?} is not in the doc's table"));
        let doc: Paths = common.union(fields).cloned().collect();
        assert_same(&format!("trace JSONL {kind}"), &doc, &key_paths(line));
        kinds.insert(kind);
    }
    let documented: BTreeSet<String> = payload.keys().map(|k| k.to_string()).collect();
    assert_eq!(kinds, documented);
}
