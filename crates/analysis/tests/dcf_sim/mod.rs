//! Discrete-event simulation of the 802.11 DCF: the oracle for the
//! capacity analysis.
//!
//! `hide_wifi::dcf` solves Bianchi's *analytical* model, which the HIDE
//! paper borrows for its capacity analysis. This module implements the
//! mechanism itself — saturated stations running slotted CSMA/CA with
//! binary exponential backoff — so the analytical solver can be
//! validated empirically: the simulated saturation throughput, per-slot
//! transmission probability `τ` and conditional collision probability
//! `p` must match the fixed point.

use hide_wifi::dcf::DcfConfig;

/// Configuration of a DCF simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DcfSimConfig {
    /// MAC/PHY parameters.
    pub dcf: DcfConfig,
    /// Number of saturated stations.
    pub stations: u32,
    /// Number of channel events (successes + collisions) to simulate.
    pub events: u64,
    /// RNG seed.
    pub seed: u64,
}

impl DcfSimConfig {
    /// Creates a configuration with 100 000 channel events.
    pub fn new(dcf: DcfConfig, stations: u32) -> Self {
        DcfSimConfig {
            dcf,
            stations,
            events: 100_000,
            seed: 1,
        }
    }

    /// Sets the number of channel events.
    #[must_use]
    pub fn with_events(mut self, events: u64) -> Self {
        self.events = events;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a DCF simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcfSimResult {
    /// Normalized saturation throughput: fraction of time carrying
    /// payload bits (comparable to `DcfSolution::throughput`).
    pub throughput: f64,
    /// Successful transmissions observed.
    pub successes: u64,
    /// Collision events observed.
    pub collisions: u64,
    /// Empirical per-station per-slot transmission probability.
    pub tau_empirical: f64,
    /// Empirical conditional collision probability (fraction of
    /// transmission attempts that collided).
    pub p_empirical: f64,
    /// Simulated channel time in microseconds.
    pub simulated_time_us: f64,
}

/// A small deterministic xorshift RNG — enough for backoff draws and
/// dependency-free.
#[derive(Debug, Clone)]
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform draw in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

struct Station {
    backoff: u64,
    stage: u32,
}

/// Runs the slotted CSMA/CA simulation.
///
/// Stations are saturated: a new frame is ready the instant the
/// previous attempt resolves. Slot semantics follow Bianchi's chain —
/// every station's backoff decrements once per *system slot*, where a
/// system slot is either an idle slot or one complete
/// transmission/collision period. (Real 802.11 freezes counters during
/// busy periods; Bianchi's model folds the busy period into a single
/// decrement, and matching the model is the point of this simulator.)
///
/// # Panics
///
/// Panics if `config.stations` is zero.
pub fn simulate(config: &DcfSimConfig) -> DcfSimResult {
    assert!(config.stations > 0, "need at least one station");
    let dcf = &config.dcf;
    let m = dcf.backoff_stages();
    let w = dcf.cw_min as u64;
    let mut rng = XorShift64::new(config.seed);

    let draw = |rng: &mut XorShift64, stage: u32| -> u64 {
        let window = w << stage.min(m);
        rng.below(window)
    };

    let mut stations: Vec<Station> = (0..config.stations)
        .map(|_| Station {
            backoff: 0,
            stage: 0,
        })
        .collect();
    for s in stations.iter_mut() {
        s.backoff = draw(&mut rng, 0);
    }

    let mut time_us = 0.0f64;
    let mut payload_time_us = 0.0f64;
    let mut successes = 0u64;
    let mut collisions = 0u64;
    let mut attempts = 0u64;
    let mut collided_attempts = 0u64;
    let mut station_slots = 0u64;

    let mut events = 0u64;
    while events < config.events {
        // Advance through the shortest remaining backoff.
        let min_backoff = stations.iter().map(|s| s.backoff).min().expect("nonempty");
        time_us += min_backoff as f64 * dcf.slot_time_us;
        station_slots += (min_backoff + 1) * stations.len() as u64;
        for s in stations.iter_mut() {
            s.backoff -= min_backoff;
        }

        // Everyone at zero transmits in this slot.
        let transmitters: Vec<usize> = stations
            .iter()
            .enumerate()
            .filter(|(_, s)| s.backoff == 0)
            .map(|(i, _)| i)
            .collect();
        attempts += transmitters.len() as u64;
        events += 1;

        if transmitters.len() == 1 {
            successes += 1;
            time_us += dcf.success_slot_us();
            payload_time_us += dcf.payload_us();
            let s = &mut stations[transmitters[0]];
            s.stage = 0;
            s.backoff = draw(&mut rng, 0) + 1;
        } else {
            collisions += 1;
            collided_attempts += transmitters.len() as u64;
            time_us += dcf.collision_slot_us();
            for &i in &transmitters {
                let s = &mut stations[i];
                s.stage = (s.stage + 1).min(m);
                s.backoff = draw(&mut rng, s.stage) + 1;
            }
        }
        // Bianchi slot semantics: the busy period itself counts as one
        // decrement slot for every station (transmitters already redrew
        // with a +1 compensating for this decrement).
        for s in stations.iter_mut() {
            s.backoff -= 1;
        }
    }

    DcfSimResult {
        throughput: payload_time_us / time_us,
        successes,
        collisions,
        tau_empirical: attempts as f64 / station_slots as f64,
        p_empirical: if attempts > 0 {
            collided_attempts as f64 / attempts as f64
        } else {
            0.0
        },
        simulated_time_us: time_us,
    }
}

mod tests {
    use super::*;
    use hide_wifi::dcf;

    fn run(n: u32, events: u64) -> (DcfSimResult, dcf::DcfSolution) {
        let cfg = DcfConfig::table_ii();
        let analytic = dcf::solve(&cfg, n).unwrap();
        let sim = simulate(&DcfSimConfig::new(cfg, n).with_events(events).with_seed(7));
        (sim, analytic)
    }

    #[test]
    fn simulation_within_5_percent_of_model_at_10_stations() {
        let dcf = DcfConfig::table_ii();
        let analytic = dcf::solve(&dcf, 10).unwrap();
        let sim = simulate(&DcfSimConfig::new(dcf, 10).with_events(50_000));
        let err = (sim.throughput - analytic.throughput).abs() / analytic.throughput;
        assert!(err < 0.05, "simulation within 5% of the model");
    }

    #[test]
    fn single_station_never_collides() {
        let (sim, _) = run(1, 20_000);
        assert_eq!(sim.collisions, 0);
        assert_eq!(sim.p_empirical, 0.0);
        assert!(sim.throughput > 0.0);
    }

    #[test]
    fn throughput_matches_bianchi_small_n() {
        for n in [2u32, 5] {
            let (sim, analytic) = run(n, 60_000);
            let err = (sim.throughput - analytic.throughput).abs() / analytic.throughput;
            assert!(
                err < 0.05,
                "n={n}: sim {} vs analytic {} ({:.1}% off)",
                sim.throughput,
                analytic.throughput,
                err * 100.0
            );
        }
    }

    #[test]
    fn throughput_matches_bianchi_larger_n() {
        for n in [10u32, 20] {
            let (sim, analytic) = run(n, 60_000);
            let err = (sim.throughput - analytic.throughput).abs() / analytic.throughput;
            assert!(
                err < 0.07,
                "n={n}: sim {} vs analytic {} ({:.1}% off)",
                sim.throughput,
                analytic.throughput,
                err * 100.0
            );
        }
    }

    #[test]
    fn collision_probability_matches_fixed_point() {
        let (sim, analytic) = run(10, 60_000);
        assert!(
            (sim.p_empirical - analytic.p_collision).abs() < 0.05,
            "sim p {} vs analytic {}",
            sim.p_empirical,
            analytic.p_collision
        );
    }

    #[test]
    fn tau_matches_fixed_point() {
        let (sim, analytic) = run(10, 60_000);
        let err = (sim.tau_empirical - analytic.tau).abs() / analytic.tau;
        assert!(
            err < 0.15,
            "sim tau {} vs analytic {}",
            sim.tau_empirical,
            analytic.tau
        );
    }

    #[test]
    fn more_stations_more_collisions() {
        let (s5, _) = run(5, 30_000);
        let (s30, _) = run(30, 30_000);
        assert!(s30.p_empirical > s5.p_empirical);
        assert!(s30.throughput < s5.throughput);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = DcfConfig::table_ii();
        let a = simulate(&DcfSimConfig::new(cfg.clone(), 5).with_events(5_000));
        let b = simulate(&DcfSimConfig::new(cfg, 5).with_events(5_000));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "station")]
    fn zero_stations_panics() {
        let cfg = DcfConfig::table_ii();
        let _ = simulate(&DcfSimConfig::new(cfg, 0));
    }
}
