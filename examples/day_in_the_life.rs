//! A phone's full day at a campus café: hour-by-hour broadcast energy
//! with and without HIDE, and what it means for the battery.
//!
//! Uses the diurnal trace generator (24 hourly MMPP segments following
//! a venue activity curve) and the battery projections.
//!
//! ```text
//! cargo run --release --example day_in_the_life
//! ```

use hide::energy::battery::Battery;
use hide::prelude::*;
use hide::traces::generate::{self, GeneratorParams, PortMix};

fn main() -> Result<(), HideError> {
    let params = GeneratorParams {
        idle_rate_fps: 2.0,
        burst_rate_fps: 16.0,
        mean_idle_secs: 20.0,
        mean_burst_secs: 6.0,
        port_mix: PortMix::cafe(),
    };
    let day = generate::diurnal("cafe", &params, 2026);
    println!(
        "one day at the café: {} broadcast frames ({:.2}/s average)\n",
        day.len(),
        day.mean_fps()
    );

    println!(
        "{:>6} {:>8} {:>12} {:>10} {:>10}",
        "hour", "frames", "receive-all", "HIDE:10%", "saving"
    );
    let mut energy_all = 0.0;
    let mut energy_hide = 0.0;
    for hour in 0..24usize {
        let slice = day.slice(hour as f64 * 3600.0, (hour + 1) as f64 * 3600.0);
        if slice.is_empty() {
            println!("{hour:>6} {:>8} {:>12} {:>10} {:>10}", 0, "-", "-", "-");
            continue;
        }
        let all = SimulationBuilder::new(&slice, NEXUS_ONE).run(NoopSink)?;
        let hide = SimulationBuilder::new(&slice, NEXUS_ONE)
            .solution(Solution::hide(0.10))
            .run(NoopSink)?;
        energy_all += all.energy.breakdown.total();
        energy_hide += hide.energy.breakdown.total();
        println!(
            "{hour:>6} {:>8} {:>9.1} mW {:>7.1} mW {:>9.0}%",
            slice.len(),
            all.energy.average_power_mw(),
            hide.energy.average_power_mw(),
            hide.energy.saving_vs(&all.energy) * 100.0,
        );
    }

    let battery = Battery::NEXUS_ONE;
    let day_secs = 86_400.0;
    let floor = NEXUS_ONE.suspend_power;
    let p_all = energy_all / day_secs + floor;
    let p_hide = energy_hide / day_secs + floor;
    println!("\nwhole-day broadcast handling:");
    println!(
        "  receive-all: {:.1} J  ({:.1}% of the {:.1} Wh battery per day)",
        energy_all,
        energy_all / 3600.0 / battery.capacity_wh() * 100.0,
        battery.capacity_wh(),
    );
    println!(
        "  HIDE:10%:    {:.1} J  ({:.1}% of battery per day)",
        energy_hide,
        energy_hide / 3600.0 / battery.capacity_wh() * 100.0,
    );
    println!(
        "  standby life (incl. suspend floor): {:.1} d -> {:.1} d ({:.2}x)",
        battery.standby_days(p_all),
        battery.standby_days(p_hide),
        battery.life_extension(p_all, p_hide),
    );
    Ok(())
}
