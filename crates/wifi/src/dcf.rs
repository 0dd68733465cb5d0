//! Bianchi's model of the 802.11 Distributed Coordination Function.
//!
//! The HIDE paper's network-capacity analysis (Section V.A) borrows the
//! saturation-throughput model of Bianchi (the paper's reference \[13\]) with the
//! 802.11b parameters of Wu et al. (Table II). This module implements the
//! full model: the fixed point between the per-station transmission
//! probability `τ` and the conditional collision probability `p`, and the
//! normalized saturation throughput `Φ` for the *basic access* mechanism.
//!
//! # Example
//!
//! ```
//! use hide_wifi::dcf::{DcfConfig, solve};
//!
//! let config = DcfConfig::table_ii();
//! let sol = solve(&config, 10)?;
//! assert!(sol.tau > 0.0 && sol.tau < 1.0);
//! assert!(sol.throughput > 0.0 && sol.throughput < 1.0);
//! // Capacity in bit/s is Φ · r (Eq. 20 of the HIDE paper).
//! assert!(sol.capacity_bps() > 1e6);
//! # Ok::<(), hide_wifi::WifiError>(())
//! ```

use crate::error::WifiError;

/// MAC/PHY parameters of the DCF model.
///
/// Defaults come from Table II of the HIDE paper (an 802.11b network as
/// configured in Wu et al., INFOCOM 2002).
#[derive(Debug, Clone, PartialEq)]
pub struct DcfConfig {
    /// Minimum contention window `W` (number of slots).
    pub cw_min: u32,
    /// Maximum contention window (defines the backoff stage count `m`).
    pub cw_max: u32,
    /// Slot time in microseconds.
    pub slot_time_us: f64,
    /// SIFS in microseconds.
    pub sifs_us: f64,
    /// DIFS in microseconds.
    pub difs_us: f64,
    /// One-way propagation delay in microseconds.
    pub propagation_us: f64,
    /// Channel data rate in bit/s.
    pub channel_rate_bps: f64,
    /// MAC header length in bits.
    pub mac_header_bits: f64,
    /// PHY preamble + header length in bits. Following Bianchi's model
    /// (and Table II, which lists it in bits alongside the MAC header),
    /// it is transmitted at the channel rate here; a real 802.11b long
    /// preamble goes out at 1 Mbit/s, which would roughly double `T_s`
    /// for short payloads without changing the overhead conclusions.
    pub phy_header_bits: f64,
    /// Average data payload size in bits (`E[P]`, and the `L` of Eq. 22).
    pub payload_bits: f64,
    /// ACK frame length in bits.
    pub ack_bits: f64,
}

impl DcfConfig {
    /// The exact configuration of Table II.
    pub fn table_ii() -> Self {
        DcfConfig {
            cw_min: 32,
            cw_max: 1024,
            slot_time_us: 20.0,
            sifs_us: 10.0,
            difs_us: 50.0,
            propagation_us: 1.0,
            channel_rate_bps: 11e6,
            mac_header_bits: 224.0,
            phy_header_bits: 192.0,
            payload_bits: 1000.0,
            ack_bits: 112.0,
        }
    }

    /// Number of backoff stages `m = log2(cw_max / cw_min)`.
    pub fn backoff_stages(&self) -> u32 {
        (self.cw_max / self.cw_min).ilog2()
    }

    fn phy_header_us(&self) -> f64 {
        self.phy_header_bits / self.channel_rate_bps * 1e6
    }

    /// Time to transmit the MAC header + payload at the channel rate, in
    /// microseconds.
    fn mpdu_us(&self) -> f64 {
        (self.mac_header_bits + self.payload_bits) / self.channel_rate_bps * 1e6
    }

    fn ack_us(&self) -> f64 {
        self.phy_header_us() + self.ack_bits / self.channel_rate_bps * 1e6
    }

    /// Duration of a successful basic-access transmission (Bianchi's
    /// `T_s`), in microseconds.
    pub fn success_slot_us(&self) -> f64 {
        self.phy_header_us()
            + self.mpdu_us()
            + self.sifs_us
            + self.propagation_us
            + self.ack_us()
            + self.difs_us
            + self.propagation_us
    }

    /// Duration of a collision (Bianchi's `T_c`), in microseconds.
    pub fn collision_slot_us(&self) -> f64 {
        self.phy_header_us() + self.mpdu_us() + self.difs_us + self.propagation_us
    }

    /// Airtime of the payload bits alone, in microseconds.
    pub fn payload_us(&self) -> f64 {
        self.payload_bits / self.channel_rate_bps * 1e6
    }
}

impl Default for DcfConfig {
    fn default() -> Self {
        DcfConfig::table_ii()
    }
}

/// Solution of the DCF fixed point for a given station count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcfSolution {
    /// Per-station per-slot transmission probability.
    pub tau: f64,
    /// Conditional collision probability.
    pub p_collision: f64,
    /// Normalized saturation throughput `Φ`: the fraction of channel
    /// time spent transmitting payload bits.
    pub throughput: f64,
    /// The channel rate the solution was computed for, in bit/s.
    pub channel_rate_bps: f64,
}

impl DcfSolution {
    /// Network capacity in bit/s: `S = Φ · r` (Eq. 20).
    pub fn capacity_bps(&self) -> f64 {
        self.throughput * self.channel_rate_bps
    }
}

/// Bianchi's `τ(p)`: transmission probability given the collision
/// probability, for minimum window `w` and `m` backoff stages.
fn tau_of_p(p: f64, w: f64, m: u32) -> f64 {
    if p >= 0.5 {
        // The closed form has a removable structure around p = 1/2;
        // evaluate the denominator directly, it stays positive.
        let denom = (1.0 - 2.0 * p) * (w + 1.0) + p * w * (1.0 - (2.0 * p).powi(m as i32));
        return 2.0 * (1.0 - 2.0 * p) / denom;
    }
    2.0 * (1.0 - 2.0 * p) / ((1.0 - 2.0 * p) * (w + 1.0) + p * w * (1.0 - (2.0 * p).powi(m as i32)))
}

/// Solves the DCF fixed point for `n` saturated stations.
///
/// # Errors
///
/// Returns [`WifiError::DcfNoSolution`] when `n == 0` or the
/// configuration is degenerate (non-positive rate or windows).
pub fn solve(config: &DcfConfig, n: u32) -> Result<DcfSolution, WifiError> {
    if n == 0 {
        return Err(WifiError::DcfNoSolution("station count is zero"));
    }
    if config.channel_rate_bps <= 0.0 {
        return Err(WifiError::DcfNoSolution("channel rate must be positive"));
    }
    if config.cw_min < 1 || config.cw_max < config.cw_min {
        return Err(WifiError::DcfNoSolution("invalid contention windows"));
    }
    let w = config.cw_min as f64;
    let m = config.backoff_stages();

    let (tau, p) = if n == 1 {
        (tau_of_p(0.0, w, m), 0.0)
    } else {
        // Bisection on p: h(p) = [1 - (1 - τ(p))^(n-1)] - p is positive at
        // p = 0 and negative as p → 1.
        let h = |p: f64| -> f64 {
            let tau = tau_of_p(p, w, m);
            1.0 - (1.0 - tau).powi(n as i32 - 1) - p
        };
        let mut lo = 0.0f64;
        let mut hi = 1.0 - 1e-12;
        if h(lo) < 0.0 || h(hi) > 0.0 {
            return Err(WifiError::DcfNoSolution("fixed point not bracketed"));
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if h(mid) >= 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let p = 0.5 * (lo + hi);
        (tau_of_p(p, w, m), p)
    };

    // Throughput (Bianchi Eq. 13): fraction of time carrying payload.
    let nf = n as f64;
    let p_tr = 1.0 - (1.0 - tau).powi(n as i32);
    let p_s = if p_tr > 0.0 {
        nf * tau * (1.0 - tau).powi(n as i32 - 1) / p_tr
    } else {
        0.0
    };
    let sigma = config.slot_time_us;
    let ts = config.success_slot_us();
    let tc = config.collision_slot_us();
    let denom = (1.0 - p_tr) * sigma + p_tr * p_s * ts + p_tr * (1.0 - p_s) * tc;
    let throughput = p_s * p_tr * config.payload_us() / denom;

    Ok(DcfSolution {
        tau,
        p_collision: p,
        throughput,
        channel_rate_bps: config.channel_rate_bps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_values() {
        let c = DcfConfig::table_ii();
        assert_eq!(c.cw_min, 32);
        assert_eq!(c.cw_max, 1024);
        assert_eq!(c.backoff_stages(), 5);
        assert_eq!(c.slot_time_us, 20.0);
        assert_eq!(c.payload_bits, 1000.0);
    }

    #[test]
    fn zero_stations_is_error() {
        assert!(solve(&DcfConfig::table_ii(), 0).is_err());
    }

    #[test]
    fn single_station_has_no_collisions() {
        let sol = solve(&DcfConfig::table_ii(), 1).unwrap();
        assert_eq!(sol.p_collision, 0.0);
        // τ = 2 / (W + 1) for a lone station.
        assert!((sol.tau - 2.0 / 33.0).abs() < 1e-12);
        assert!(sol.throughput > 0.0 && sol.throughput < 1.0);
    }

    #[test]
    fn fixed_point_is_consistent() {
        for n in [2u32, 5, 10, 20, 50] {
            let sol = solve(&DcfConfig::table_ii(), n).unwrap();
            let implied = 1.0 - (1.0 - sol.tau).powi(n as i32 - 1);
            assert!(
                (implied - sol.p_collision).abs() < 1e-9,
                "n={n}: p={} implied={implied}",
                sol.p_collision
            );
        }
    }

    #[test]
    fn collision_probability_increases_with_n() {
        let cfg = DcfConfig::table_ii();
        let mut prev = 0.0;
        for n in [2u32, 5, 10, 20, 50] {
            let sol = solve(&cfg, n).unwrap();
            assert!(sol.p_collision > prev);
            prev = sol.p_collision;
        }
    }

    #[test]
    fn throughput_declines_gently_from_5_to_50() {
        // The paper observes the original capacity "drops only slightly"
        // from 5 to 50 nodes.
        let cfg = DcfConfig::table_ii();
        let s5 = solve(&cfg, 5).unwrap().throughput;
        let s50 = solve(&cfg, 50).unwrap().throughput;
        assert!(s50 < s5);
        assert!(s50 > 0.5 * s5, "decline should be moderate: {s5} -> {s50}");
    }

    #[test]
    fn capacity_in_plausible_range() {
        // 1000-bit payloads at 11 Mbit/s with 802.11b overheads keep the
        // normalized throughput well below the channel rate.
        let sol = solve(&DcfConfig::table_ii(), 10).unwrap();
        let s = sol.capacity_bps();
        assert!(s > 1e6 && s < 6e6, "capacity {s} bit/s");
    }

    #[test]
    fn larger_payload_improves_efficiency() {
        let mut big = DcfConfig::table_ii();
        big.payload_bits = 8000.0;
        let s_small = solve(&DcfConfig::table_ii(), 10).unwrap().throughput;
        let s_big = solve(&big, 10).unwrap().throughput;
        assert!(s_big > s_small);
    }

    #[test]
    fn smaller_contention_window_collides_more() {
        // Halving W (same maximum, one more backoff stage) makes every
        // station transmit more eagerly, so more of them collide.
        let mut eager = DcfConfig::table_ii();
        eager.cw_min = 16;
        assert_eq!(eager.backoff_stages(), 6);
        let base = solve(&DcfConfig::table_ii(), 10).unwrap();
        let fast = solve(&eager, 10).unwrap();
        assert!(fast.tau > base.tau);
        assert!(fast.p_collision > base.p_collision);
    }

    #[test]
    fn faster_channel_raises_capacity_but_not_efficiency() {
        // Frames shrink with the rate; slot, SIFS and DIFS do not. So a
        // faster channel carries more bits per second while spending a
        // larger share of its time on fixed overheads.
        let mut fast = DcfConfig::table_ii();
        fast.channel_rate_bps *= 2.0;
        let base = solve(&DcfConfig::table_ii(), 10).unwrap();
        let doubled = solve(&fast, 10).unwrap();
        assert_eq!(doubled.tau, base.tau);
        assert!(doubled.capacity_bps() > base.capacity_bps());
        assert!(doubled.capacity_bps() < 2.0 * base.capacity_bps());
        assert!(doubled.throughput < base.throughput);
    }

    #[test]
    fn degenerate_config_rejected() {
        let mut cfg = DcfConfig::table_ii();
        cfg.channel_rate_bps = 0.0;
        assert!(solve(&cfg, 5).is_err());
        let mut cfg = DcfConfig::table_ii();
        cfg.cw_max = 16;
        assert!(solve(&cfg, 5).is_err());
    }

    #[test]
    fn slot_durations_ordered() {
        let cfg = DcfConfig::table_ii();
        assert!(cfg.success_slot_us() > cfg.collision_slot_us());
        assert!(cfg.collision_slot_us() > cfg.payload_us());
    }
}
