//! Marking frames useful vs. useless.
//!
//! The evaluation parameterizes on "k% of the broadcast frames are
//! useful to the smartphone" (Figs. 7–9 use 10, 8, 6, 4 and 2%). Two
//! strategies realize a target fraction:
//!
//! * [`Usefulness::port_based`] — the faithful-to-the-mechanism one:
//!   choose a set of UDP ports whose traffic share approximates the
//!   target, mark every frame to those ports useful. This is exactly
//!   what happens in a real deployment where usefulness is a property
//!   of the port, and it is the default used by the experiments.
//! * [`Usefulness::bernoulli`] — i.i.d. per-frame marking, kept as an
//!   ablation to show the energy results do not hinge on the port
//!   structure.
//!
//! Port-based marking runs once per HIDE, hybrid, network-sim and
//! reliability run, so it is on the reproduction's hot path. Frames
//! are flagged through a 65 536-bit port set, one bit test per frame,
//! and the port histogram comes from a flat per-port table
//! ([`Trace::port_histogram`]), so a marking costs time linear in the
//! trace. `tests/proptest_useful.rs` checks both against a tree
//! histogram and a binary search per frame.

use crate::record::{port_histogram, Trace, TraceFrame, PORT_COUNT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A set of UDP ports as a 65 536-bit table (8 KiB).
struct PortSet(Vec<u64>);

impl PortSet {
    fn new() -> Self {
        PortSet(vec![0; PORT_COUNT / 64])
    }

    fn insert(&mut self, port: u16) {
        self.0[usize::from(port >> 6)] |= 1 << (port & 63);
    }

    fn contains(&self, port: u16) -> bool {
        self.0[usize::from(port >> 6)] >> (port & 63) & 1 == 1
    }
}

/// A per-frame usefulness marking (`u_i` of Eq. 1), aligned with a
/// trace's frame order.
#[derive(Debug, Clone, PartialEq)]
pub struct Usefulness {
    flags: Vec<bool>,
    useful_ports: Vec<u16>,
}

impl Usefulness {
    /// Marks useful the frames whose destination port belongs to a set
    /// chosen so the useful-traffic share best approximates
    /// `target_fraction`.
    ///
    /// Ports are considered in ascending order of traffic share and
    /// greedily added while staying at or below the target; then the
    /// single next port is added if doing so lands closer to the
    /// target. The achieved fraction is exact for the given trace.
    ///
    /// # Panics
    ///
    /// Panics if `target_fraction` is outside `[0, 1]`.
    pub fn port_based(trace: &Trace, target_fraction: f64) -> Self {
        Usefulness::port_based_over(trace.frames.iter(), target_fraction)
    }

    /// [`Usefulness::port_based`] on the sub-trace of the frames `among`
    /// marks useful, without copying it: the flags align with that
    /// sub-trace, so flag `j` belongs to the `j`-th frame `among` marks.
    /// This is how a client marks the share an AP delivers to it.
    ///
    /// # Panics
    ///
    /// Panics if `target_fraction` is outside `[0, 1]`.
    pub fn port_based_within(trace: &Trace, among: &Usefulness, target_fraction: f64) -> Self {
        let frames = trace
            .frames
            .iter()
            .zip(&among.flags)
            .filter(|&(_, &useful)| useful)
            .map(|(f, _)| f);
        Usefulness::port_based_over(frames, target_fraction)
    }

    fn port_based_over<'a, I>(frames: I, target_fraction: f64) -> Self
    where
        I: Iterator<Item = &'a TraceFrame> + Clone,
    {
        assert!(
            (0.0..=1.0).contains(&target_fraction),
            "target fraction must be in [0, 1]"
        );
        let total = frames.clone().count();
        if total == 0 || target_fraction == 0.0 {
            return Usefulness::from_ports_over(frames, &[]);
        }

        // Ascending by frequency, so small ports fill the budget finely.
        let mut hist = port_histogram(frames.clone());
        hist.reverse();

        let mut chosen: Vec<u16> = Vec::new();
        let mut covered = 0usize;
        let budget = target_fraction * total as f64;
        for &(port, count) in &hist {
            if (covered + count) as f64 <= budget {
                chosen.push(port);
                covered += count;
            }
        }
        // Consider one overshoot port if it gets us closer.
        if let Some(&(port, count)) = hist
            .iter()
            .find(|(p, c)| !chosen.contains(p) && (covered + c) as f64 > budget && *c > 0)
        {
            let under = budget - covered as f64;
            let over = (covered + count) as f64 - budget;
            if over < under {
                chosen.push(port);
            }
        }
        Usefulness::from_ports_over(frames, &chosen)
    }

    /// Like [`Usefulness::port_based`], but considers ports in a seeded
    /// random order instead of ascending frequency, so different seeds
    /// yield different (equally valid) useful port sets for the same
    /// target — how a network of distinct clients is modelled.
    ///
    /// # Panics
    ///
    /// Panics if `target_fraction` is outside `[0, 1]`.
    pub fn port_based_seeded(trace: &Trace, target_fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&target_fraction),
            "target fraction must be in [0, 1]"
        );
        let total = trace.len();
        if total == 0 || target_fraction == 0.0 {
            return Usefulness::from_ports(trace, &[]);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hist = trace.port_histogram();
        // Fisher-Yates shuffle for an unbiased port order.
        for i in (1..hist.len()).rev() {
            hist.swap(i, rng.gen_range(0..=i));
        }
        let mut chosen: Vec<u16> = Vec::new();
        let mut covered = 0usize;
        let budget = target_fraction * total as f64;
        for &(port, count) in &hist {
            if (covered + count) as f64 <= budget {
                chosen.push(port);
                covered += count;
            }
        }
        if chosen.is_empty() {
            // Ensure at least the smallest shuffled-in port qualifies
            // when the budget is tiny but nonzero.
            if let Some(&(port, count)) = hist.iter().min_by_key(|(_, c)| *c) {
                if count as f64 <= budget * 2.0 {
                    chosen.push(port);
                }
            }
        }
        Usefulness::from_ports(trace, &chosen)
    }

    /// Marks useful exactly the frames destined to `ports`.
    pub fn from_ports(trace: &Trace, ports: &[u16]) -> Self {
        Usefulness::from_ports_over(trace.frames.iter(), ports)
    }

    fn from_ports_over<'a>(frames: impl Iterator<Item = &'a TraceFrame>, ports: &[u16]) -> Self {
        let mut set = PortSet::new();
        for &port in ports {
            set.insert(port);
        }
        let flags = frames.map(|f| set.contains(f.dst_port)).collect();
        let mut sorted = ports.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Usefulness {
            flags,
            useful_ports: sorted,
        }
    }

    /// Marks each frame useful independently with probability
    /// `fraction` (seeded).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn bernoulli(trace: &Trace, fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let flags = trace
            .frames
            .iter()
            .map(|_| rng.gen_bool(fraction))
            .collect();
        Usefulness {
            flags,
            useful_ports: Vec::new(),
        }
    }

    /// Marks every frame useful — the receive-all viewpoint.
    pub fn all(trace: &Trace) -> Self {
        Usefulness {
            flags: vec![true; trace.len()],
            useful_ports: trace.port_histogram().iter().map(|&(p, _)| p).collect(),
        }
    }

    /// Per-frame flags (`u_i`), aligned with the trace's frames.
    pub fn flags(&self) -> &[bool] {
        &self.flags
    }

    /// Whether frame `i` is useful.
    pub fn is_useful(&self, i: usize) -> bool {
        self.flags.get(i).copied().unwrap_or(false)
    }

    /// The chosen useful port set (empty for Bernoulli marking).
    pub fn useful_ports(&self) -> &[u16] {
        &self.useful_ports
    }

    /// The achieved useful fraction (`n'/n` of Eq. 1).
    pub fn achieved_fraction(&self) -> f64 {
        if self.flags.is_empty() {
            return 0.0;
        }
        self.flags.iter().filter(|&&b| b).count() as f64 / self.flags.len() as f64
    }

    /// Number of useful frames.
    pub fn useful_count(&self) -> usize {
        self.flags.iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn port_based_hits_target_fraction_closely() {
        let trace = Scenario::Wml.generate(1800.0, 13);
        for target in [0.02, 0.04, 0.06, 0.08, 0.10] {
            let marking = Usefulness::port_based(&trace, target);
            let achieved = marking.achieved_fraction();
            assert!(
                (achieved - target).abs() < 0.05,
                "target {target}, achieved {achieved}"
            );
        }
    }

    #[test]
    fn port_based_is_port_consistent() {
        let trace = Scenario::CsDept.generate(600.0, 4);
        let marking = Usefulness::port_based(&trace, 0.10);
        for (i, f) in trace.frames.iter().enumerate() {
            let in_set = marking.useful_ports().contains(&f.dst_port);
            assert_eq!(marking.is_useful(i), in_set);
        }
    }

    #[test]
    fn zero_target_marks_nothing() {
        let trace = Scenario::Starbucks.generate(300.0, 5);
        let marking = Usefulness::port_based(&trace, 0.0);
        assert_eq!(marking.useful_count(), 0);
        assert!(marking.useful_ports().is_empty());
    }

    #[test]
    fn full_target_marks_everything_available() {
        let trace = Scenario::Starbucks.generate(300.0, 5);
        let marking = Usefulness::port_based(&trace, 1.0);
        assert_eq!(marking.useful_count(), trace.len());
    }

    #[test]
    fn all_marks_everything() {
        let trace = Scenario::Wrl.generate(300.0, 6);
        let marking = Usefulness::all(&trace);
        assert_eq!(marking.useful_count(), trace.len());
        assert_eq!(marking.achieved_fraction(), 1.0);
    }

    #[test]
    fn bernoulli_is_seeded_and_near_fraction() {
        let trace = Scenario::Classroom.generate(1800.0, 8);
        let a = Usefulness::bernoulli(&trace, 0.1, 99);
        let b = Usefulness::bernoulli(&trace, 0.1, 99);
        assert_eq!(a, b);
        let achieved = a.achieved_fraction();
        assert!((achieved - 0.1).abs() < 0.02, "achieved {achieved}");
    }

    #[test]
    fn empty_trace_handled() {
        let trace = Trace::new("empty", 10.0, vec![]);
        let marking = Usefulness::port_based(&trace, 0.5);
        assert_eq!(marking.achieved_fraction(), 0.0);
        assert!(!marking.is_useful(0));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn out_of_range_target_panics() {
        let trace = Trace::new("x", 1.0, vec![]);
        let _ = Usefulness::port_based(&trace, 1.5);
    }

    #[test]
    fn seeded_port_based_varies_with_seed() {
        let trace = Scenario::Wml.generate(1800.0, 51);
        let a = Usefulness::port_based_seeded(&trace, 0.10, 1);
        let b = Usefulness::port_based_seeded(&trace, 0.10, 2);
        let c = Usefulness::port_based_seeded(&trace, 0.10, 1);
        assert_eq!(a, c, "same seed must reproduce");
        assert_ne!(
            a.useful_ports(),
            b.useful_ports(),
            "different seeds should pick different sets"
        );
        for m in [&a, &b] {
            let achieved = m.achieved_fraction();
            assert!((achieved - 0.10).abs() < 0.06, "achieved {achieved}");
        }
    }

    #[test]
    fn from_ports_marks_exactly_those_ports() {
        let trace = Scenario::CsDept.generate(300.0, 9);
        let hist = trace.port_histogram();
        let ports = vec![hist[0].0, hist[2].0];
        let m = Usefulness::from_ports(&trace, &ports);
        for (i, f) in trace.frames.iter().enumerate() {
            assert_eq!(m.is_useful(i), ports.contains(&f.dst_port));
        }
        assert_eq!(m.useful_count(), hist[0].1 + hist[2].1);
    }
}
