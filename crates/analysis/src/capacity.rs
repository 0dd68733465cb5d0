//! Network capacity overhead (Section V.A, Eqs. 20–24, Fig. 10).
//!
//! The original network's capacity is `S1 = Φ · r` (Eq. 20) with `Φ`
//! from the Bianchi model. With HIDE, `n_u = N · p · f` UDP Port
//! Messages per second (Eq. 21) each consume `⌈L_m / L⌉` data-frame
//! transmission opportunities, so the capacity becomes
//! `S2 = (n − n_u · ⌈L_m/L⌉) · L` (Eq. 23) and the relative decrease is
//! `c = 1 − S2/S1` (Eq. 24).

use hide_wifi::dcf::{self, DcfConfig};
use hide_wifi::WifiError;

/// Network configuration for the overhead analysis: the 802.11b MAC/PHY
/// parameters of Table II plus HIDE's port-message settings.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// DCF parameters (Table II).
    pub dcf: DcfConfig,
    /// UDP Port Message sending interval `1/f` in seconds
    /// (Section VI.B uses 10 s).
    pub sync_interval_secs: f64,
    /// Ports per UDP Port Message (Section VI.B uses 50).
    pub ports_per_message: usize,
}

impl NetworkConfig {
    /// The exact configuration of the paper's capacity analysis:
    /// Table II plus 10-second sync interval and 50 ports per message.
    pub fn table_ii() -> Self {
        NetworkConfig {
            dcf: DcfConfig::table_ii(),
            sync_interval_secs: 10.0,
            ports_per_message: 50,
        }
    }

    /// UDP Port Message length in bits (Eq. 19): PHY header + MAC
    /// header + 2 fixed bytes + 2 bytes per port.
    pub fn port_message_bits(&self) -> f64 {
        self.dcf.phy_header_bits
            + self.dcf.mac_header_bits
            + (2.0 + 2.0 * self.ports_per_message as f64) * 8.0
    }

    /// `f`: UDP Port Messages per second per HIDE client.
    pub fn message_rate(&self) -> f64 {
        1.0 / self.sync_interval_secs
    }

    /// Sets the UDP Port Message interval `1/f`, seconds.
    #[must_use]
    pub fn with_sync_interval_secs(mut self, secs: f64) -> Self {
        self.sync_interval_secs = secs;
        self
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::table_ii()
    }
}

/// One point of Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityPoint {
    /// Total stations in the network (`N`).
    pub nodes: u32,
    /// Fraction of stations with HIDE enabled (`p`).
    pub hide_fraction: f64,
    /// Original capacity `S1` in bit/s (Eq. 20).
    pub original_bps: f64,
    /// Capacity with HIDE `S2` in bit/s (Eq. 23).
    pub with_hide_bps: f64,
    /// Relative decrease `c = 1 − S2/S1` (Eq. 24).
    pub decrease: f64,
}

/// The Section V.A capacity analysis.
#[derive(Debug, Clone)]
pub struct CapacityAnalysis {
    config: NetworkConfig,
}

impl CapacityAnalysis {
    /// Creates the analysis for a network configuration.
    pub fn new(config: NetworkConfig) -> Self {
        CapacityAnalysis { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Computes one Fig. 10 point.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::DcfNoSolution`] for `nodes == 0` and
    /// [`WifiError::FieldOverflow`] when `hide_fraction` is outside
    /// `[0, 1]`.
    pub fn point(&self, nodes: u32, hide_fraction: f64) -> Result<CapacityPoint, WifiError> {
        if !(0.0..=1.0).contains(&hide_fraction) {
            return Err(WifiError::FieldOverflow {
                field: "hide fraction",
                value: (hide_fraction * 1000.0) as u64,
            });
        }
        let sol = dcf::solve(&self.config.dcf, nodes)?;
        let s1 = sol.capacity_bps(); // Eq. 20
        let l = self.config.dcf.payload_bits;
        let n_frames = s1 / l; // Eq. 22
        let nu = nodes as f64 * hide_fraction * self.config.message_rate(); // Eq. 21
        let slots_per_msg = (self.config.port_message_bits() / l).ceil();
        let s2 = ((n_frames - nu * slots_per_msg) * l).max(0.0); // Eq. 23
        Ok(CapacityPoint {
            nodes,
            hide_fraction,
            original_bps: s1,
            with_hide_bps: s2,
            decrease: 1.0 - s2 / s1, // Eq. 24
        })
    }

    /// Relative capacity decrease (Eq. 24).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CapacityAnalysis::point`].
    pub fn capacity_decrease(&self, nodes: u32, hide_fraction: f64) -> Result<f64, WifiError> {
        Ok(self.point(nodes, hide_fraction)?.decrease)
    }

    /// The full Fig. 10 sweep: node counts {5, 10, 20, 30, 40, 50} ×
    /// HIDE fractions {5, 25, 50, 75}%.
    ///
    /// # Errors
    ///
    /// Propagates any per-point error (none occur for the standard
    /// sweep).
    pub fn figure_10(&self) -> Result<Vec<CapacityPoint>, WifiError> {
        let mut points = Vec::new();
        for &p in &[0.05, 0.25, 0.50, 0.75] {
            for &n in &[5u32, 10, 20, 30, 40, 50] {
                points.push(self.point(n, p)?);
            }
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis() -> CapacityAnalysis {
        CapacityAnalysis::new(NetworkConfig::table_ii())
    }

    #[test]
    fn builders_match_field_assignment() {
        let built = NetworkConfig::default().with_sync_interval_secs(600.0);
        let expected = NetworkConfig {
            sync_interval_secs: 600.0,
            ..NetworkConfig::default()
        };
        assert_eq!(built, expected);
    }

    #[test]
    fn port_message_bits_match_eq19() {
        let cfg = NetworkConfig::table_ii();
        // 192 + 224 + (2 + 100) * 8 = 1232 bits with 50 ports.
        assert_eq!(cfg.port_message_bits(), 1232.0);
    }

    #[test]
    fn decrease_grows_with_nodes() {
        let a = analysis();
        let mut prev = 0.0;
        for n in [5u32, 10, 20, 30, 40, 50] {
            let c = a.capacity_decrease(n, 0.5).unwrap();
            assert!(c > prev, "n={n}: {c} <= {prev}");
            prev = c;
        }
    }

    #[test]
    fn decrease_grows_with_hide_fraction() {
        let a = analysis();
        let mut prev = -1.0;
        for p in [0.05, 0.25, 0.50, 0.75] {
            let c = a.capacity_decrease(50, p).unwrap();
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn paper_observation_negligible_decrease() {
        // "With 50 nodes and 75% HIDE-enabled, the decrease is only
        // 0.13%" — our Φ differs slightly from theirs, but the decrease
        // must stay in the same negligible band (< 0.5%, the figure's
        // y-axis ceiling).
        let c = analysis().capacity_decrease(50, 0.75).unwrap();
        assert!(c > 0.0005, "decrease implausibly small: {c}");
        assert!(c < 0.005, "decrease too large: {c}");
    }

    #[test]
    fn zero_hide_fraction_means_zero_decrease() {
        let c = analysis().capacity_decrease(50, 0.0).unwrap();
        assert_eq!(c, 0.0);
    }

    #[test]
    fn original_capacity_declines_gently() {
        // Paper: "the original network capacity drops only slightly
        // from 5 to 50 nodes".
        let a = analysis();
        let s5 = a.point(5, 0.5).unwrap().original_bps;
        let s50 = a.point(50, 0.5).unwrap().original_bps;
        assert!(s50 < s5);
        assert!(s50 > 0.6 * s5);
    }

    #[test]
    fn figure_10_sweep_shape() {
        let points = analysis().figure_10().unwrap();
        assert_eq!(points.len(), 24);
        assert!(points
            .iter()
            .all(|pt| pt.decrease >= 0.0 && pt.decrease < 0.005));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let a = analysis();
        assert!(a.point(0, 0.5).is_err());
        assert!(a.point(10, 1.5).is_err());
        assert!(a.point(10, -0.1).is_err());
    }

    #[test]
    fn longer_sync_interval_reduces_overhead() {
        let mut cfg = NetworkConfig::table_ii();
        cfg.sync_interval_secs = 600.0;
        let slow = CapacityAnalysis::new(cfg)
            .capacity_decrease(50, 0.75)
            .unwrap();
        let fast = analysis().capacity_decrease(50, 0.75).unwrap();
        assert!(slow < fast);
    }
}
