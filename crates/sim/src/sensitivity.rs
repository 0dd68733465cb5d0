//! Sensitivity of the results to the model's fixed parameters.
//!
//! The paper adopts `τ = 1 s` (the WiFi-driver wakelock per received
//! frame) from its reference \[6\] and never varies it; the suspend and
//! resume costs come from two specific handsets. These sweeps quantify
//! how much the headline comparison depends on those choices — the
//! robustness questions a reviewer would ask.

use crate::error::SimError;
use crate::solution::Solution;
use crate::SimulationBuilder;
use hide_energy::profile::DeviceProfile;
use hide_obs::NoopSink;
use hide_traces::record::Trace;

/// One point of a parameter sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityPoint {
    /// The swept parameter's value.
    pub value: f64,
    /// receive-all average power, mW.
    pub receive_all_mw: f64,
    /// client-side lower-bound average power, mW.
    pub client_side_mw: f64,
    /// HIDE:10% average power, mW.
    pub hide_mw: f64,
    /// HIDE:10% saving vs. receive-all.
    pub hide_saving: f64,
}

fn point(trace: &Trace, profile: DeviceProfile, value: f64) -> Result<SensitivityPoint, SimError> {
    let all = SimulationBuilder::new(trace, profile).run(NoopSink)?;
    let cs = SimulationBuilder::new(trace, profile)
        .solution(Solution::client_side_lower_bound())
        .run(NoopSink)?;
    let hide = SimulationBuilder::new(trace, profile)
        .solution(Solution::hide(0.10))
        .run(NoopSink)?;
    Ok(SensitivityPoint {
        value,
        receive_all_mw: all.energy.average_power_mw(),
        client_side_mw: cs.energy.average_power_mw(),
        hide_mw: hide.energy.average_power_mw(),
        hide_saving: hide.energy.saving_vs(&all.energy),
    })
}

/// Sweeps the per-frame wakelock duration `τ`.
///
/// # Errors
///
/// Returns [`SimError::Energy`] when the trace is degenerate.
///
/// # Panics
///
/// Panics if any value is non-positive.
pub fn wakelock_sweep(
    trace: &Trace,
    base: DeviceProfile,
    taus_secs: &[f64],
) -> Result<Vec<SensitivityPoint>, SimError> {
    // Validate before fanning out so the panic carries its message
    // instead of surfacing as a worker-thread failure.
    for &tau in taus_secs {
        assert!(tau > 0.0, "wakelock duration must be positive");
    }
    hide_par::par_map(taus_secs, |&tau| {
        let profile = DeviceProfile {
            wakelock_secs: tau,
            ..base
        };
        point(trace, profile, tau)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_energy::profile::NEXUS_ONE;
    use hide_traces::scenario::Scenario;

    fn trace() -> Trace {
        Scenario::CsDept.generate(600.0, 101)
    }

    /// Sweeps a multiplier `k` on the suspend/resume energies (`E_rm`,
    /// `E_sp`), interpolating between Nexus-One-like and worse-than-S4
    /// state-transfer costs.
    fn state_cost_sweep(
        trace: &Trace,
        base: DeviceProfile,
        multipliers: &[f64],
    ) -> Result<Vec<SensitivityPoint>, SimError> {
        hide_par::par_map(multipliers, |&k| {
            let profile = DeviceProfile {
                resume_energy: base.resume_energy * k,
                suspend_energy: base.suspend_energy * k,
                ..base
            };
            point(trace, profile, k)
        })
        .into_iter()
        .collect()
    }

    #[test]
    fn hide_wins_across_wakelock_durations() {
        // The headline conclusion must not hinge on τ = 1 s.
        let t = trace();
        let sweep = wakelock_sweep(&t, NEXUS_ONE, &[0.25, 0.5, 1.0, 2.0, 5.0]).unwrap();
        for p in &sweep {
            assert!(
                p.hide_mw < p.receive_all_mw,
                "tau={}: HIDE {} vs receive-all {}",
                p.value,
                p.hide_mw,
                p.receive_all_mw
            );
            assert!(
                p.hide_saving > 0.2,
                "tau={}: saving {}",
                p.value,
                p.hide_saving
            );
        }
    }

    #[test]
    fn longer_wakelocks_raise_all_solutions() {
        let t = trace();
        let sweep = wakelock_sweep(&t, NEXUS_ONE, &[0.5, 1.0, 2.0]).unwrap();
        for w in sweep.windows(2) {
            assert!(w[1].receive_all_mw >= w[0].receive_all_mw);
            assert!(w[1].hide_mw >= w[0].hide_mw);
        }
    }

    #[test]
    fn state_costs_hurt_client_side_most() {
        // As suspend/resume get pricier, the client-side solution —
        // which thrashes state transfers — degrades faster than HIDE.
        let t = trace();
        let sweep = state_cost_sweep(&t, NEXUS_ONE, &[1.0, 2.0, 4.0]).unwrap();
        let cs_growth = sweep.last().unwrap().client_side_mw / sweep[0].client_side_mw;
        let hide_growth = sweep.last().unwrap().hide_mw / sweep[0].hide_mw;
        assert!(
            cs_growth > hide_growth,
            "client-side x{cs_growth:.2} vs HIDE x{hide_growth:.2}"
        );
        // receive-all barely notices: it rarely suspends on this trace.
        let all_growth = sweep.last().unwrap().receive_all_mw / sweep[0].receive_all_mw;
        assert!(all_growth < cs_growth);
    }

    #[test]
    fn both_sweeps_meet_at_the_base_profile() {
        // τ = 1 s and a unit state-cost multiplier are both Nexus One
        // itself, so the two sweeps must report the same point there.
        let t = trace();
        let by_tau = wakelock_sweep(&t, NEXUS_ONE, &[NEXUS_ONE.wakelock_secs]).unwrap();
        let by_cost = state_cost_sweep(&t, NEXUS_ONE, &[1.0]).unwrap();
        assert_eq!(by_tau, by_cost);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tau_panics() {
        let t = trace();
        let _ = wakelock_sweep(&t, NEXUS_ONE, &[0.0]);
    }
}
