//! Multi-client network simulation: one AP, many heterogeneous
//! clients, partial HIDE adoption.
//!
//! The paper's Figs. 7–9 evaluate a single client against a trace; this
//! module scales that out to a whole BSS, the setting its overhead
//! analysis (Figs. 10–12) assumes: `N` clients, a fraction `p` of them
//! HIDE-enabled, each with its own useful-port set. It reports
//! per-client and aggregate energy, the AP-side hash-table load, and
//! the aggregate port-message airtime (the quantity behind Eq. 21).

use crate::error::SimError;
use crate::simulation::{MarkingStrategy, SimulationBuilder, SimulationResult};
use crate::solution::Solution;
use hide_energy::profile::DeviceProfile;
use hide_obs::NoopSink;
use hide_traces::record::Trace;
use hide_wifi::frame::UdpPortMessage;
use hide_wifi::mac::MacAddr;
use hide_wifi::phy::{self, DataRate};

/// One client in the simulated BSS.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSpec {
    /// Display name.
    pub name: String,
    /// Whether the client runs HIDE (`false` = legacy receive-all).
    pub hide_enabled: bool,
    /// Target fraction of broadcast frames useful to this client.
    pub useful_fraction: f64,
    /// Seed choosing which ports make up that fraction.
    pub seed: u64,
}

/// Builds a fleet of `n` clients with `adoption` of them HIDE-enabled,
/// useful fractions cycling through the paper's sweep values.
///
/// `adoption` is clamped to `[0, 1]` (NaN counts as 0), so an
/// out-of-range sweep value can never mislabel the population.
pub fn fleet(n: usize, adoption: f64, base_seed: u64) -> Vec<ClientSpec> {
    let fractions = [0.10, 0.08, 0.06, 0.04, 0.02];
    let adoption = if adoption.is_nan() {
        0.0
    } else {
        adoption.clamp(0.0, 1.0)
    };
    let hide_count = (n as f64 * adoption).round() as usize;
    (0..n)
        .map(|i| ClientSpec {
            name: format!("client-{i}"),
            hide_enabled: i < hide_count,
            useful_fraction: fractions[i % fractions.len()],
            seed: base_seed.wrapping_add(i as u64),
        })
        .collect()
}

/// Outcome for one client.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// The spec this outcome belongs to.
    pub spec: ClientSpec,
    /// The client's simulation result.
    pub result: SimulationResult,
    /// Saving vs. what this client would burn with receive-all.
    pub saving: f64,
}

/// Aggregate outcome of a network simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkResult {
    /// Per-client outcomes, in spec order.
    pub clients: Vec<ClientOutcome>,
    /// Sum of all clients' average power, milliwatts.
    pub total_power_mw: f64,
    /// Total power if every client ran receive-all, milliwatts.
    pub baseline_power_mw: f64,
    /// Fleet-wide energy saving.
    pub fleet_saving: f64,
    /// UDP Port Messages per second across the BSS (`n_u` of Eq. 21).
    pub port_messages_per_sec: f64,
    /// Fraction of airtime consumed by port messages.
    pub port_message_airtime_share: f64,
}

/// Configures a BSS-level simulation over one trace.
#[derive(Debug, Clone)]
pub struct NetworkSimulation<'a> {
    trace: &'a Trace,
    profile: DeviceProfile,
    clients: Vec<ClientSpec>,
    sync_interval_secs: f64,
}

impl<'a> NetworkSimulation<'a> {
    /// Creates a network simulation.
    pub fn new(trace: &'a Trace, profile: DeviceProfile, clients: Vec<ClientSpec>) -> Self {
        NetworkSimulation {
            trace,
            profile,
            clients,
            sync_interval_secs: 10.0,
        }
    }

    /// Sets the UDP Port Message interval for every HIDE client.
    pub fn sync_interval_secs(mut self, secs: f64) -> Self {
        self.sync_interval_secs = secs;
        self
    }

    /// Runs every client against the trace. Clients are independent,
    /// so they fan out over [`hide_par`]'s worker pool; the shared
    /// receive-all baseline (identical for every client) is computed
    /// once up front instead of once per client.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Energy`] when the trace is degenerate.
    pub fn run(&self) -> Result<NetworkResult, SimError> {
        let span = self.clients.len().max(1) as u16;
        let baseline = SimulationBuilder::new(self.trace, self.profile)
            .network_aid_span(span)
            .run(NoopSink)?;

        let results = hide_par::par_map(&self.clients, |spec| {
            if spec.hide_enabled {
                SimulationBuilder::new(self.trace, self.profile)
                    .solution(Solution::hide(spec.useful_fraction))
                    .marking(MarkingStrategy::PortBasedSeeded { seed: spec.seed })
                    .sync_interval_secs(self.sync_interval_secs)
                    .network_aid_span(span)
                    .run(NoopSink)
            } else {
                Ok(baseline.clone())
            }
        });

        let mut outcomes = Vec::with_capacity(self.clients.len());
        let mut total = 0.0;
        let mut baseline_total = 0.0;
        let mut hide_clients = 0u32;
        for (spec, result) in self.clients.iter().zip(results) {
            let result = result?;
            if spec.hide_enabled {
                hide_clients += 1;
            }
            total += result.energy.average_power_mw();
            baseline_total += baseline.energy.average_power_mw();
            let saving = result.energy.saving_vs(&baseline.energy);
            outcomes.push(ClientOutcome {
                spec: spec.clone(),
                result,
                saving,
            });
        }

        // Aggregate port-message load (Eq. 21 with p implied by specs).
        let msgs_per_sec = hide_clients as f64 / self.sync_interval_secs;
        let msg = UdpPortMessage::new(
            MacAddr::station(1),
            MacAddr::station(0),
            (0..100u16).map(|i| 1024 + i),
        )
        .expect("within element limit");
        let msg_airtime = phy::airtime_of_total_bytes(msg.len_bytes(), DataRate::R1M);

        Ok(NetworkResult {
            clients: outcomes,
            total_power_mw: total,
            baseline_power_mw: baseline_total,
            fleet_saving: if baseline_total > 0.0 {
                1.0 - total / baseline_total
            } else {
                0.0
            },
            port_messages_per_sec: msgs_per_sec,
            port_message_airtime_share: msgs_per_sec * msg_airtime,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_energy::profile::NEXUS_ONE;
    use hide_traces::scenario::Scenario;

    fn trace() -> Trace {
        Scenario::CsDept.generate(300.0, 61)
    }

    #[test]
    fn fleet_builder_respects_adoption() {
        let f = fleet(10, 0.5, 1);
        assert_eq!(f.len(), 10);
        assert_eq!(f.iter().filter(|c| c.hide_enabled).count(), 5);
        let g = fleet(10, 1.0, 1);
        assert!(g.iter().all(|c| c.hide_enabled));
    }

    #[test]
    fn fleet_clamps_out_of_range_adoption() {
        // Regression: adoption > 1 used to yield hide_count > n, which
        // marked every client HIDE while claiming a different fraction.
        let over = fleet(10, 1.5, 1);
        assert_eq!(over.iter().filter(|c| c.hide_enabled).count(), 10);
        let under = fleet(10, -0.5, 1);
        assert_eq!(under.iter().filter(|c| c.hide_enabled).count(), 0);
        let nan = fleet(10, f64::NAN, 1);
        assert_eq!(nan.iter().filter(|c| c.hide_enabled).count(), 0);
        // In-range values are untouched.
        let half = fleet(10, 0.5, 1);
        assert_eq!(half.iter().filter(|c| c.hide_enabled).count(), 5);
    }

    #[test]
    fn full_adoption_saves_fleet_energy() {
        let t = trace();
        let result = NetworkSimulation::new(&t, NEXUS_ONE, fleet(8, 1.0, 3))
            .run()
            .unwrap();
        assert_eq!(result.clients.len(), 8);
        assert!(result.fleet_saving > 0.3, "saving {}", result.fleet_saving);
        assert!(result.total_power_mw < result.baseline_power_mw);
        for c in &result.clients {
            assert!(c.saving > 0.0, "{} saved nothing", c.spec.name);
        }
    }

    #[test]
    fn zero_adoption_saves_nothing() {
        let t = trace();
        let result = NetworkSimulation::new(&t, NEXUS_ONE, fleet(4, 0.0, 3))
            .run()
            .unwrap();
        assert!(result.fleet_saving.abs() < 1e-9);
        assert_eq!(result.port_messages_per_sec, 0.0);
    }

    #[test]
    fn saving_scales_with_adoption() {
        let t = trace();
        let run = |p: f64| {
            NetworkSimulation::new(&t, NEXUS_ONE, fleet(10, p, 3))
                .run()
                .unwrap()
                .fleet_saving
        };
        let half = run(0.5);
        let full = run(1.0);
        assert!(full > half, "full {full} vs half {half}");
    }

    #[test]
    fn distinct_seeds_give_distinct_port_sets() {
        let t = trace();
        let result = NetworkSimulation::new(&t, NEXUS_ONE, fleet(5, 1.0, 3))
            .run()
            .unwrap();
        let counts: Vec<usize> = result
            .clients
            .iter()
            .map(|c| c.result.received_frames)
            .collect();
        // Not all clients should receive an identical frame subset.
        assert!(counts.windows(2).any(|w| w[0] != w[1]), "{counts:?}");
    }

    #[test]
    fn port_message_airtime_share_is_tiny() {
        let t = trace();
        let result = NetworkSimulation::new(&t, NEXUS_ONE, fleet(50, 0.75, 3))
            .run()
            .unwrap();
        // ~3.75 msgs/s * ~2 ms each: well under 1% of airtime.
        assert!(result.port_message_airtime_share < 0.01);
        assert!((result.port_messages_per_sec - 3.8).abs() < 0.2);
    }
}
