//! Campus energy audit: how much battery would HIDE save across every
//! venue, for both phones of Table I?
//!
//! Sweeps all five scenarios and both device profiles, then prints a
//! deployment-style report: savings at 10% and 2% useful traffic, time
//! in suspend mode, and the estimated battery-life extension.
//!
//! ```text
//! cargo run --release --example campus_audit
//! ```

use hide::energy::battery::Battery;
use hide::energy::profile::ALL_PROFILES;
use hide::prelude::*;

fn main() -> Result<(), HideError> {
    let duration = 900.0; // 15-minute sample per venue
    let traces: Vec<Trace> = Scenario::ALL
        .iter()
        .map(|s| s.generate(duration, 7))
        .collect();

    for profile in ALL_PROFILES {
        let battery = if profile.name == "Galaxy S4" {
            Battery::GALAXY_S4
        } else {
            Battery::NEXUS_ONE
        };
        println!("================ {} ================", profile.name);
        println!(
            "{:<12} {:>9} {:>9} {:>9} {:>8} {:>8} {:>11}",
            "venue", "recv-all", "HIDE:10%", "HIDE:2%", "sav 10%", "sav 2%", "standby x"
        );
        for trace in &traces {
            let all = SimulationBuilder::new(trace, profile).run(NoopSink)?;
            let hide10 = SimulationBuilder::new(trace, profile)
                .solution(Solution::hide(0.10))
                .run(NoopSink)?;
            let hide2 = SimulationBuilder::new(trace, profile)
                .solution(Solution::hide(0.02))
                .run(NoopSink)?;

            // Standby life handling broadcast traffic: battery over
            // (broadcast power + suspend floor).
            let floor = profile.suspend_power;
            let ext = battery.life_extension(
                all.energy.average_power() + floor,
                hide10.energy.average_power() + floor,
            );

            println!(
                "{:<12} {:>6.1} mW {:>6.1} mW {:>6.1} mW {:>7.0}% {:>7.0}% {:>10.1}x",
                trace.scenario,
                all.energy.average_power_mw(),
                hide10.energy.average_power_mw(),
                hide2.energy.average_power_mw(),
                hide10.energy.saving_vs(&all.energy) * 100.0,
                hide2.energy.saving_vs(&all.energy) * 100.0,
                ext,
            );
        }
        println!();
    }

    println!("suspend-mode time, Nexus One (cf. Fig. 9):");
    println!(
        "{:<12} {:>10} {:>11} {:>9} {:>8}",
        "venue", "recv-all", "client-side", "HIDE:10%", "HIDE:2%"
    );
    for trace in &traces {
        let frac = |s: Solution| -> Result<f64, SimError> {
            let r = SimulationBuilder::new(trace, NEXUS_ONE)
                .solution(s)
                .run(NoopSink)?;
            Ok(r.energy.suspend_fraction() * 100.0)
        };
        println!(
            "{:<12} {:>9.1}% {:>10.1}% {:>8.1}% {:>7.1}%",
            trace.scenario,
            frac(Solution::ReceiveAll)?,
            frac(Solution::client_side_lower_bound())?,
            frac(Solution::hide(0.10))?,
            frac(Solution::hide(0.02))?,
        );
    }
    Ok(())
}
