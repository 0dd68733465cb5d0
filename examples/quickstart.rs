//! Quickstart: generate a broadcast trace, run the three solutions on a
//! Nexus One, and print what HIDE saves.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hide::prelude::*;

fn main() -> Result<(), HideError> {
    // 10 minutes of coffee-shop broadcast traffic, deterministic seed.
    let trace = Scenario::Starbucks.generate(600.0, 42);
    println!(
        "trace: {} ({:.0} s, {} broadcast frames, {:.1} frames/s)\n",
        trace.scenario,
        trace.duration,
        trace.len(),
        trace.mean_fps()
    );

    let solutions = [
        Solution::ReceiveAll,
        Solution::client_side_lower_bound(),
        Solution::hide(0.10),
        Solution::hide(0.02),
    ];

    println!(
        "{:<14} {:>10} {:>12} {:>10}",
        "solution", "avg power", "suspended", "wake-ups"
    );
    let baseline = SimulationBuilder::new(&trace, NEXUS_ONE).run(NoopSink)?;
    for solution in solutions {
        let result = SimulationBuilder::new(&trace, NEXUS_ONE)
            .solution(solution)
            .run(NoopSink)?;
        println!(
            "{:<14} {:>7.1} mW {:>11.1}% {:>10}",
            solution.label(),
            result.energy.average_power_mw(),
            result.energy.suspend_fraction() * 100.0,
            result.energy.resume_count,
        );
        if solution != Solution::ReceiveAll {
            println!(
                "{:<14}   ({:.0}% less energy than receive-all)",
                "",
                result.energy.saving_vs(&baseline.energy) * 100.0
            );
        }
    }
    Ok(())
}
