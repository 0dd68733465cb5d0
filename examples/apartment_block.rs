//! Fleet study: a whole BSS of phones with partial HIDE adoption, plus
//! a robustness check under port churn and sync loss.
//!
//! Answers the questions a vendor would ask before shipping HIDE:
//! how does fleet energy scale with adoption, and how badly do lost
//! UDP Port Messages hurt when apps churn their ports?
//!
//! ```text
//! cargo run --release --example apartment_block
//! ```

use hide::prelude::*;
use hide::sim::network::{fleet, NetworkSimulation};
use hide::sim::reliability::{self, ReliabilityConfig};

fn main() -> Result<(), HideError> {
    let trace = Scenario::Classroom.generate(600.0, 2024);
    println!(
        "shared medium: {} trace, {:.1} broadcast frames/s\n",
        trace.scenario,
        trace.mean_fps()
    );

    println!("fleet energy vs HIDE adoption (20 phones, Nexus One):");
    println!(
        "{:>10} {:>14} {:>14} {:>12} {:>14}",
        "adoption", "fleet power", "baseline", "saving", "port msgs/s"
    );
    for adoption in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let result = NetworkSimulation::new(&trace, NEXUS_ONE, fleet(20, adoption, 7)).run()?;
        println!(
            "{:>9.0}% {:>11.0} mW {:>11.0} mW {:>11.1}% {:>14.2}",
            adoption * 100.0,
            result.total_power_mw,
            result.baseline_power_mw,
            result.fleet_saving * 100.0,
            result.port_messages_per_sec,
        );
    }

    println!("\nper-client detail at 50% adoption:");
    let result = NetworkSimulation::new(&trace, NEXUS_ONE, fleet(20, 0.5, 7)).run()?;
    for c in result.clients.iter().take(6) {
        println!(
            "  {:<10} {:<12} useful {:>4.1}%  {:>6.1} mW  saving {:>5.1}%",
            c.spec.name,
            if c.spec.hide_enabled {
                "HIDE"
            } else {
                "legacy"
            },
            c.result.achieved_useful_fraction.unwrap_or(0.0) * 100.0,
            c.result.energy.average_power_mw(),
            c.saving * 100.0,
        );
    }
    println!("  ... ({} clients total)", result.clients.len());

    println!("\nrobustness: port churn every 2 min, varying sync loss:");
    println!(
        "{:>8} {:>14} {:>16} {:>16} {:>12}",
        "loss", "failed syncs", "missed useful", "spurious wakes", "stale time"
    );
    for loss in [0.0, 0.1, 0.3, 0.5, 0.9] {
        let cfg = ReliabilityConfig {
            loss_probability: loss,
            retries: 3,
            churn_interval_secs: 120.0,
            ..ReliabilityConfig::default()
        };
        let r = reliability::run(&trace, &cfg);
        println!(
            "{:>7.0}% {:>8}/{:<5} {:>15.3}% {:>15.3}% {:>11.1}%",
            loss * 100.0,
            r.syncs_failed,
            r.syncs_attempted,
            r.missed_useful_fraction * 100.0,
            r.spurious_wake_fraction * 100.0,
            r.stale_time_fraction * 100.0,
        );
    }
    println!(
        "\n(802.11 retransmission keeps the table fresh until loss rates\n\
         far beyond anything a working WLAN exhibits)"
    );
    Ok(())
}
