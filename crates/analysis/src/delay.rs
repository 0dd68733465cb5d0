//! Network delay overhead (Section V.B, Eqs. 25–27, Figs. 11–12).
//!
//! For each UDP Port Message the AP refreshes the Client UDP Port
//! Table (`n_o` deletes + `n_o` inserts), and at each DTIM it looks up
//! one port per buffered broadcast frame. The resulting increase in
//! packet round-trip time is
//!
//! ```text
//! t1 = f · D · N · p · n_o · (τ_del + τ_ins)     (Eq. 25)
//! t2 = n_f · τ_lp                                 (Eq. 26)
//! d  = (t1 + t2) / D                              (Eq. 27)
//! ```
//!
//! The paper measured `τ_del`, `τ_ins`, `τ_lp` on a smartphone with a
//! 1 GHz ARM CPU and 512 MB RAM (comparable to commodity AP hardware).
//! We have no such device, so [`ArmCostModel`] provides deterministic
//! costs *calibrated so the reported overhead band is reproduced*:
//! ≈2.3% at `N = 50`, `1/f = 10 s`, `n_o = 50`; ≈0.05% at
//! `1/f = 600 s`; <1.6% at `n_o = 100`, `1/f = 30 s`. The measurement
//! *procedure* itself (seed the table with `N · 50% · 50` random pairs,
//! 10 repeats of 100 operations, take the mean) is implemented in
//! [`measure_host_costs`] and runnable against the real
//! [`hide_core::ap::ClientPortTable`] on the host.

use hide_core::ap::ClientPortTable;
use hide_wifi::mac::{Aid, MAX_AID};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Durations of the three hash-table operations, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmCostModel {
    /// `τ_ins` — one port insertion.
    pub insert_secs: f64,
    /// `τ_del` — one port deletion.
    pub delete_secs: f64,
    /// `τ_lp` — one port lookup.
    pub lookup_secs: f64,
}

impl ArmCostModel {
    /// The calibrated 1 GHz ARM smartphone model (see module docs).
    /// Insert/delete dominate (they touch both index directions and,
    /// on the measured Android device, allocator churn); lookups are
    /// read-only and two orders of magnitude cheaper — which is why the
    /// paper finds `t1 ≫ t2`.
    pub const PAPER_ARM: ArmCostModel = ArmCostModel {
        insert_secs: 90e-6,
        delete_secs: 90e-6,
        lookup_secs: 1.5e-6,
    };

    /// `τ_del + τ_ins`, the per-port refresh cost of Eq. (25).
    pub fn refresh_pair_secs(&self) -> f64 {
        self.insert_secs + self.delete_secs
    }
}

impl Default for ArmCostModel {
    fn default() -> Self {
        ArmCostModel::PAPER_ARM
    }
}

/// Configuration of the delay analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayConfig {
    /// Baseline packet round-trip time `D` in seconds. The paper
    /// measured 79.5 ms pinging a YouTube server through a deployed AP
    /// (and notes the result barely depends on it).
    pub rtt_secs: f64,
    /// Fraction of clients with HIDE enabled (`p`, paper: 50%).
    pub hide_fraction: f64,
    /// Average open UDP ports per client (`n_o`).
    pub open_ports: u32,
    /// UDP Port Message interval `1/f` in seconds.
    pub sync_interval_secs: f64,
    /// Broadcast frames buffered per DTIM (`n_f`, paper: 10 — larger
    /// than any of the five traces exhibit).
    pub buffered_per_dtim: u32,
    /// Hash-table operation costs.
    pub costs: ArmCostModel,
}

impl Default for DelayConfig {
    /// The Section VI.B defaults: `D = 79.5 ms`, `p = 50%`,
    /// `n_o = 50`, `1/f = 10 s`, `n_f = 10`.
    fn default() -> Self {
        DelayConfig {
            rtt_secs: 0.0795,
            hide_fraction: 0.5,
            open_ports: 50,
            sync_interval_secs: 10.0,
            buffered_per_dtim: 10,
            costs: ArmCostModel::PAPER_ARM,
        }
    }
}

impl DelayConfig {
    /// Sets the UDP Port Message interval `1/f`, seconds.
    #[must_use]
    pub fn with_sync_interval_secs(mut self, secs: f64) -> Self {
        self.sync_interval_secs = secs;
        self
    }
}

/// One point of Figs. 11/12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPoint {
    /// Total stations `N`.
    pub nodes: u32,
    /// `t1` in seconds (Eq. 25).
    pub t1_secs: f64,
    /// `t2` in seconds (Eq. 26).
    pub t2_secs: f64,
    /// Relative RTT increase `d` (Eq. 27).
    pub overhead: f64,
}

/// The Section V.B delay analysis.
#[derive(Debug, Clone, Copy)]
pub struct DelayAnalysis {
    config: DelayConfig,
}

impl DelayAnalysis {
    /// Creates the analysis.
    pub fn new(config: DelayConfig) -> Self {
        DelayAnalysis { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DelayConfig {
        &self.config
    }

    /// Computes the overhead for `nodes` stations.
    pub fn point(&self, nodes: u32) -> DelayPoint {
        let c = &self.config;
        let f = 1.0 / c.sync_interval_secs;
        let t1 = f
            * c.rtt_secs
            * nodes as f64
            * c.hide_fraction
            * c.open_ports as f64
            * c.costs.refresh_pair_secs();
        let t2 = c.buffered_per_dtim as f64 * c.costs.lookup_secs;
        DelayPoint {
            nodes,
            t1_secs: t1,
            t2_secs: t2,
            overhead: (t1 + t2) / c.rtt_secs,
        }
    }

    /// The Fig. 11 sweep: node counts × sync intervals
    /// {10, 30, 60, 150, 300, 600} s (with `n_o = 50`).
    pub fn figure_11(&self) -> Vec<(f64, Vec<DelayPoint>)> {
        [10.0, 30.0, 60.0, 150.0, 300.0, 600.0]
            .into_iter()
            .map(|interval| {
                let mut cfg = self.config;
                cfg.sync_interval_secs = interval;
                cfg.open_ports = 50;
                let sweep = DelayAnalysis::new(cfg);
                (
                    interval,
                    [5u32, 10, 20, 30, 40, 50]
                        .into_iter()
                        .map(|n| sweep.point(n))
                        .collect(),
                )
            })
            .collect()
    }

    /// The Fig. 12 sweep: node counts × open-port counts
    /// {10, 20, 50, 100} (with `1/f = 30 s`).
    pub fn figure_12(&self) -> Vec<(u32, Vec<DelayPoint>)> {
        [10u32, 20, 50, 100]
            .into_iter()
            .map(|ports| {
                let mut cfg = self.config;
                cfg.open_ports = ports;
                cfg.sync_interval_secs = 30.0;
                let sweep = DelayAnalysis::new(cfg);
                (
                    ports,
                    [5u32, 10, 20, 30, 40, 50]
                        .into_iter()
                        .map(|n| sweep.point(n))
                        .collect(),
                )
            })
            .collect()
    }
}

/// Host-measured hash-table operation costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCosts {
    /// Mean insert duration, seconds.
    pub insert_secs: f64,
    /// Mean delete duration, seconds.
    pub delete_secs: f64,
    /// Mean lookup duration, seconds.
    pub lookup_secs: f64,
}

/// Runs the paper's measurement procedure against the real
/// [`ClientPortTable`] on this host: initialize the table with
/// `nodes · 50% · 50` random `(port, AID)` pairs, then time 10 repeated
/// runs of 100 delete, insert and lookup operations and take the mean.
///
/// Host numbers are far below the 1 GHz ARM calibration (modern
/// desktop CPU, native code); they demonstrate the procedure and give
/// a lower bound, while [`ArmCostModel::PAPER_ARM`] reproduces the
/// paper's absolute band.
pub fn measure_host_costs(nodes: u32, seed: u64) -> HostCosts {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = ClientPortTable::new();
    let pairs = (nodes as usize / 2) * 50;

    // Group random ports per client so update_client seeds the table.
    let clients = (nodes / 2).max(1);
    for c in 1..=clients {
        let aid = Aid::new(((c - 1) % MAX_AID as u32 + 1) as u16).expect("valid AID");
        let ports: Vec<u16> = (0..pairs / clients as usize)
            .map(|_| rng.gen_range(1024..u16::MAX))
            .collect();
        table.update_client(aid, &ports);
    }

    const REPEATS: usize = 10;
    const OPS: usize = 100;
    let mut insert_total = 0.0;
    let mut delete_total = 0.0;
    let mut lookup_total = 0.0;

    for _ in 0..REPEATS {
        let probe_aid = Aid::new(2000).expect("valid AID");
        let ports: Vec<u16> = (0..OPS).map(|_| rng.gen_range(1024..u16::MAX)).collect();

        let start = Instant::now();
        table.update_client(probe_aid, &ports);
        insert_total += start.elapsed().as_secs_f64();

        let start = Instant::now();
        table.remove_client(probe_aid);
        delete_total += start.elapsed().as_secs_f64();

        let start = Instant::now();
        for &p in &ports {
            std::hint::black_box(table.clients_for_port(p));
        }
        lookup_total += start.elapsed().as_secs_f64();
    }

    let n = (REPEATS * OPS) as f64;
    HostCosts {
        insert_secs: insert_total / n,
        delete_secs: delete_total / n,
        lookup_secs: lookup_total / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_match_field_assignment() {
        let built = DelayConfig::default().with_sync_interval_secs(30.0);
        let expected = DelayConfig {
            sync_interval_secs: 30.0,
            ..DelayConfig::default()
        };
        assert_eq!(built, expected);
    }

    #[test]
    fn paper_point_10s_50_nodes_near_2_3_percent() {
        let d = DelayAnalysis::new(DelayConfig::default()).point(50);
        assert!(
            (0.020..0.026).contains(&d.overhead),
            "overhead {} outside the paper's ≈2.3% band",
            d.overhead
        );
    }

    #[test]
    fn paper_point_600s_near_0_05_percent() {
        let cfg = DelayConfig {
            sync_interval_secs: 600.0,
            ..DelayConfig::default()
        };
        let d = DelayAnalysis::new(cfg).point(50);
        assert!(
            (0.0002..0.001).contains(&d.overhead),
            "overhead {} outside the paper's ≈0.05% band",
            d.overhead
        );
    }

    #[test]
    fn paper_point_100_ports_under_1_6_percent() {
        let cfg = DelayConfig {
            open_ports: 100,
            sync_interval_secs: 30.0,
            ..DelayConfig::default()
        };
        let d = DelayAnalysis::new(cfg).point(50);
        assert!(d.overhead < 0.016, "overhead {} ≥ 1.6%", d.overhead);
        assert!(
            d.overhead > 0.008,
            "overhead {} implausibly small",
            d.overhead
        );
    }

    #[test]
    fn t1_dominates_t2() {
        // The paper observes t1 >> t2 throughout the analysis.
        let d = DelayAnalysis::new(DelayConfig::default()).point(50);
        assert!(d.t1_secs > 10.0 * d.t2_secs);
    }

    #[test]
    fn overhead_monotone_in_nodes_and_frequency() {
        let a = DelayAnalysis::new(DelayConfig::default());
        assert!(a.point(50).overhead > a.point(5).overhead);

        let slow_cfg = DelayConfig {
            sync_interval_secs: 300.0,
            ..DelayConfig::default()
        };
        let slow = DelayAnalysis::new(slow_cfg);
        assert!(a.point(30).overhead > slow.point(30).overhead);
    }

    #[test]
    fn overhead_nearly_independent_of_rtt() {
        // Eq. 25's t1 is linear in D, so d = t1/D + t2/D barely moves
        // with D when t1 dominates.
        let mut cfg = DelayConfig::default();
        let base = DelayAnalysis::new(cfg).point(50).overhead;
        cfg.rtt_secs = 0.200;
        let slower = DelayAnalysis::new(cfg).point(50).overhead;
        assert!((base - slower).abs() / base < 0.05);
    }

    #[test]
    fn figure_sweeps_have_expected_shape() {
        let a = DelayAnalysis::new(DelayConfig::default());
        let fig11 = a.figure_11();
        assert_eq!(fig11.len(), 6);
        for (_, pts) in &fig11 {
            assert_eq!(pts.len(), 6);
            assert!(pts.windows(2).all(|w| w[1].overhead >= w[0].overhead));
        }
        // Faster sync (smaller interval) → larger overhead at fixed N.
        assert!(fig11[0].1[5].overhead > fig11[5].1[5].overhead);

        let fig12 = a.figure_12();
        assert_eq!(fig12.len(), 4);
        assert!(fig12[3].1[5].overhead > fig12[0].1[5].overhead);
        // Every point stays under the 4% y-axis ceiling of the figures.
        for pts in fig11
            .iter()
            .map(|(_, p)| p)
            .chain(fig12.iter().map(|(_, p)| p))
        {
            assert!(pts.iter().all(|p| p.overhead < 0.04));
        }
    }

    #[test]
    fn host_measurement_runs_and_is_positive() {
        let costs = measure_host_costs(50, 7);
        assert!(costs.insert_secs > 0.0);
        assert!(costs.delete_secs > 0.0);
        assert!(costs.lookup_secs > 0.0);
        // A modern host is far faster than the 1 GHz ARM calibration.
        assert!(costs.insert_secs < ArmCostModel::PAPER_ARM.insert_secs);
    }
}
