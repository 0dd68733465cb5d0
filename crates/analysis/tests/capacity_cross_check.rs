//! Cross-check of the capacity analysis against the DCF simulator: the
//! Fig. 10 overhead conclusion must not hinge on Bianchi's
//! approximations.

mod dcf_sim;

use dcf_sim::{simulate, DcfSimConfig};
use hide_analysis::capacity::{CapacityAnalysis, CapacityPoint, NetworkConfig};
use hide_wifi::WifiError;

/// Like [`CapacityAnalysis::point`], but with `Φ` measured by the
/// event-driven CSMA/CA simulator instead of the analytical fixed
/// point.
fn point_simulated(
    a: &CapacityAnalysis,
    nodes: u32,
    hide_fraction: f64,
    events: u64,
    seed: u64,
) -> Result<CapacityPoint, WifiError> {
    if !(0.0..=1.0).contains(&hide_fraction) {
        return Err(WifiError::FieldOverflow {
            field: "hide fraction",
            value: (hide_fraction * 1000.0) as u64,
        });
    }
    if nodes == 0 {
        return Err(WifiError::DcfNoSolution("station count is zero"));
    }
    let config = a.config();
    let sim = simulate(
        &DcfSimConfig::new(config.dcf.clone(), nodes)
            .with_events(events)
            .with_seed(seed),
    );
    let s1 = sim.throughput * config.dcf.channel_rate_bps;
    let l = config.dcf.payload_bits;
    let n_frames = s1 / l;
    let nu = nodes as f64 * hide_fraction * config.message_rate();
    let slots_per_msg = (config.port_message_bits() / l).ceil();
    let s2 = ((n_frames - nu * slots_per_msg) * l).max(0.0);
    Ok(CapacityPoint {
        nodes,
        hide_fraction,
        original_bps: s1,
        with_hide_bps: s2,
        decrease: 1.0 - s2 / s1,
    })
}

fn analysis() -> CapacityAnalysis {
    CapacityAnalysis::new(NetworkConfig::table_ii())
}

#[test]
fn simulated_capacity_agrees_with_analytic() {
    let a = analysis();
    let analytic = a.point(20, 0.75).unwrap();
    let simulated = point_simulated(&a, 20, 0.75, 40_000, 7).unwrap();
    let err = (simulated.original_bps - analytic.original_bps).abs() / analytic.original_bps;
    assert!(err < 0.07, "S1 off by {:.1}%", err * 100.0);
    // The headline conclusion survives the mechanism-level check.
    assert!(simulated.decrease < 0.005);
    assert!(simulated.decrease > 0.0);
}

#[test]
fn simulated_decrease_grows_with_hide_fraction() {
    // The same seeded run measures Φ for both points, so only the UDP
    // Port Message load differs: more HIDE clients, more overhead.
    let a = analysis();
    let few = point_simulated(&a, 20, 0.25, 20_000, 3).unwrap();
    let all = point_simulated(&a, 20, 1.0, 20_000, 3).unwrap();
    assert_eq!(few.original_bps, all.original_bps);
    assert!(all.with_hide_bps < few.with_hide_bps);
    assert!(all.decrease > few.decrease);
    // Eq. 22's overhead is linear in the HIDE client count.
    assert!((all.decrease / few.decrease - 4.0).abs() < 1e-9);
}

#[test]
fn simulated_point_validates_inputs() {
    let a = analysis();
    assert!(point_simulated(&a, 0, 0.5, 1000, 1).is_err());
    assert!(point_simulated(&a, 10, 1.5, 1000, 1).is_err());
}
