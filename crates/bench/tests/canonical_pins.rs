//! Regression pins for the canonical reproduction: the seeded trace
//! generator and the energy pipeline must keep producing the numbers
//! EXPERIMENTS.md documents (within loose tolerances that absorb
//! honest recalibration but catch accidental behavioural drift).

use hide_bench::{TRACE_DURATION_SECS, TRACE_SEED};
use hide_energy::profile::NEXUS_ONE;
use hide_obs::NoopSink;
use hide_sim::solution::Solution;
use hide_sim::SimulationBuilder;
use hide_traces::scenario::Scenario;

/// Fig. 6 pins: mean frames/second of each canonical trace.
#[test]
fn canonical_trace_volumes_pinned() {
    let pins = [
        (Scenario::Classroom, 17.3),
        (Scenario::CsDept, 8.1),
        (Scenario::Wml, 25.1),
        (Scenario::Starbucks, 1.4),
        (Scenario::Wrl, 3.2),
    ];
    for (i, (scenario, expected)) in pins.into_iter().enumerate() {
        let trace = scenario.generate(TRACE_DURATION_SECS, TRACE_SEED + i as u64);
        let mean = trace.mean_fps();
        assert!(
            (mean - expected).abs() < 0.15,
            "{scenario}: mean {mean:.2} drifted from pinned {expected}"
        );
    }
}

/// Fig. 7 pins: the Classroom/Nexus One bar heights EXPERIMENTS.md
/// reports (±3 mW).
#[test]
fn canonical_classroom_bars_pinned() {
    let trace = Scenario::Classroom.generate(TRACE_DURATION_SECS, TRACE_SEED);
    let pins = [
        (Solution::ReceiveAll, 265.7),
        (Solution::client_side_lower_bound(), 308.9),
        (Solution::hide(0.10), 131.8),
        (Solution::hide(0.02), 55.9),
    ];
    for (solution, expected) in pins {
        let r = SimulationBuilder::new(&trace, NEXUS_ONE)
            .solution(solution)
            .run(NoopSink)
            .unwrap();
        let mw = r.energy.average_power_mw();
        assert!(
            (mw - expected).abs() < 3.0,
            "{solution}: {mw:.1} mW drifted from pinned {expected}"
        );
    }
}
