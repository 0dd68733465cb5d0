//! Byte pins for the canonical report: every rendered section of a
//! `reproduce all` pass over `canonical_traces()` (Tables I–II,
//! Figs. 6–12, the extensions and the policy matrix) and the merged
//! `hide-metrics/1` document, each as an FNV-1a-64 hash plus a byte
//! length. The host-costs section is left out: it is a live wall-clock
//! measurement.
//!
//! `golden/reproduce_metrics.json` pins only the counters, and
//! `canonical_pins.rs` holds a few bars within ±3 mW; these pins catch
//! any change to a rendered digit. They are asserted at `--jobs` 1 and
//! 4 in one `#[test]`, in a binary of its own, because the job count
//! is process-global.

use hide_bench as harness;
use hide_energy::profile::{GALAXY_S4, NEXUS_ONE};
use hide_obs::spill::fnv1a64;
use hide_obs::Recorder;

/// `(section, FNV-1a-64 of its bytes, byte length)`, in pass order.
const PINS: [(&str, u64, usize); 8] = [
    ("tables+fig6", 0xe196e7c3403ed338, 1087),
    ("fig7", 0xa5b558d7f223cba0, 3534),
    ("fig8", 0x47ea5af79e9eafe0, 3536),
    ("fig9", 0xab4901296e6c5cac, 390),
    ("fig10-12", 0x56c9c58aa08f4387, 1141),
    ("extensions", 0xee5517b383becaea, 2109),
    ("policy", 0x074380fc34b860d5, 1691),
    ("metrics", 0x75706c32f1a09ab2, 3131),
];

/// The sections of one pass at the current job count, in pass order,
/// then the metrics document.
fn pass(traces: &[hide_traces::Trace]) -> Vec<String> {
    let mut rec = Recorder::new();
    let mut sections = vec![
        [
            harness::table_1(),
            harness::table_2(),
            harness::figure_6(traces),
        ]
        .concat(),
        harness::figure_7_or_8_with(NEXUS_ONE, traces, &mut rec).expect("canonical traces"),
        harness::figure_7_or_8_with(GALAXY_S4, traces, &mut rec).expect("canonical traces"),
        harness::figure_9_with(traces, &mut rec).expect("canonical traces"),
        [
            harness::figure_10(),
            harness::figure_11(),
            harness::figure_12(),
        ]
        .concat(),
        harness::extensions_with(traces, &mut rec),
        harness::policy_matrix_with(None, None, &mut rec).expect("builtin fleet configs"),
    ];
    sections.push(rec.to_json());
    sections
}

#[test]
fn canonical_report_bytes_are_pinned_at_one_and_four_jobs() {
    let traces = harness::canonical_traces();
    for jobs in [1, 4] {
        hide_par::set_default_jobs(jobs);
        let sections = pass(&traces);
        let got: Vec<(&str, u64, usize)> = PINS
            .iter()
            .zip(&sections)
            .map(|(&(name, _, _), s)| (name, fnv1a64(s.as_bytes()), s.len()))
            .collect();
        let table: String = got
            .iter()
            .map(|(name, hash, len)| format!("    (\"{name}\", 0x{hash:016x}, {len}),\n"))
            .collect();
        assert_eq!(
            got, PINS,
            "report bytes moved at --jobs {jobs}; now:\n{table}"
        );
    }
    hide_par::set_default_jobs(0);
}
