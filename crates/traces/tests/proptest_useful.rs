//! Port-based marking against its reference implementation.
//!
//! The oracles below are the tree histogram and the sorted-set search
//! that `Trace::port_histogram` and the `Usefulness` port markings
//! used before they moved to a flat per-port table and a 65 536-bit
//! port set. Over traces whose ports span all of 0..=65535, with
//! repeated ports, empty and one-frame traces, and fractions from 0 to
//! 1 including budgets below one frame, the fast paths must return
//! exactly the oracle's histogram, flags and useful-port set.

use hide_traces::record::{Trace, TraceFrame};
use hide_traces::Usefulness;
use hide_wifi::phy::DataRate;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn oracle_histogram(trace: &Trace) -> Vec<(u16, usize)> {
    let mut map: BTreeMap<u16, usize> = BTreeMap::new();
    for f in &trace.frames {
        *map.entry(f.dst_port).or_insert(0) += 1;
    }
    let mut hist: Vec<(u16, usize)> = map.into_iter().collect();
    hist.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hist
}

/// Flags and sorted port set, by binary search per frame.
fn oracle_mark(trace: &Trace, mut ports: Vec<u16>) -> (Vec<bool>, Vec<u16>) {
    ports.sort_unstable();
    ports.dedup();
    let flags = trace
        .frames
        .iter()
        .map(|f| ports.binary_search(&f.dst_port).is_ok())
        .collect();
    (flags, ports)
}

fn oracle_port_based(trace: &Trace, target: f64) -> (Vec<bool>, Vec<u16>) {
    let total = trace.len();
    if total == 0 || target == 0.0 {
        return (vec![false; total], Vec::new());
    }
    let mut hist = oracle_histogram(trace);
    hist.reverse();
    let mut chosen: Vec<u16> = Vec::new();
    let mut covered = 0usize;
    let budget = target * total as f64;
    for &(port, count) in &hist {
        if (covered + count) as f64 <= budget {
            chosen.push(port);
            covered += count;
        }
    }
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
    oracle_mark(trace, chosen)
}

fn oracle_port_based_seeded(trace: &Trace, target: f64, seed: u64) -> (Vec<bool>, Vec<u16>) {
    let total = trace.len();
    if total == 0 || target == 0.0 {
        return (vec![false; total], Vec::new());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hist = oracle_histogram(trace);
    for i in (1..hist.len()).rev() {
        hist.swap(i, rng.gen_range(0..=i));
    }
    let mut chosen: Vec<u16> = Vec::new();
    let mut covered = 0usize;
    let budget = target * total as f64;
    for &(port, count) in &hist {
        if (covered + count) as f64 <= budget {
            chosen.push(port);
            covered += count;
        }
    }
    if chosen.is_empty() {
        if let Some(&(port, count)) = hist.iter().min_by_key(|(_, c)| *c) {
            if count as f64 <= budget * 2.0 {
                chosen.push(port);
            }
        }
    }
    oracle_mark(trace, chosen)
}

fn parts(m: &Usefulness) -> (Vec<bool>, Vec<u16>) {
    (m.flags().to_vec(), m.useful_ports().to_vec())
}

/// A trace of `shape`: empty (0), one frame (1) or up to 160 frames.
/// Each frame's port comes from a small pool that always holds 0 and
/// 65535, so ports repeat and both ends of the port space occur.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    (
        0u8..8,
        vec(any::<u16>(), 0..6),
        vec((0usize..64, 0.0f64..2.0), 0..160),
    )
        .prop_map(|(shape, extra, picks)| {
            let mut pool = vec![0u16, u16::MAX, 1, 137, 1900, 5353];
            pool.extend(extra);
            let take = match shape {
                0 => 0,
                1 => picks.len().min(1),
                _ => picks.len(),
            };
            let mut t = 0.0;
            let frames = picks[..take]
                .iter()
                .map(|&(pick, gap)| {
                    t += gap;
                    TraceFrame {
                        time: t,
                        len_bytes: 120,
                        rate: DataRate::R1M,
                        dst_port: pool[pick % pool.len()],
                        more_data: false,
                    }
                })
                .collect();
            Trace::new("prop", t + 1.0, frames)
        })
}

/// A target fraction: 0, 1, a budget under two frames, or uniform.
fn fraction(kind: u8, raw: f64, frames: usize) -> f64 {
    match kind {
        0 => 0.0,
        1 => 1.0,
        2 => (raw * 2.0 / frames.max(1) as f64).min(1.0),
        3 => f64::MIN_POSITIVE,
        _ => raw,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn port_histogram_matches_tree_oracle(trace in trace_strategy()) {
        prop_assert_eq!(trace.port_histogram(), oracle_histogram(&trace));
        let all = Usefulness::all(&trace);
        let ports: Vec<u16> = oracle_histogram(&trace).iter().map(|&(p, _)| p).collect();
        prop_assert_eq!(all.useful_ports(), &ports[..]);
    }

    fn port_markings_match_search_oracle(
        trace in trace_strategy(),
        kind in 0u8..6,
        raw in 0.0f64..1.0,
        seed in any::<u64>(),
        asked in vec(any::<u16>(), 0..12),
    ) {
        let target = fraction(kind, raw, trace.len());
        prop_assert_eq!(
            parts(&Usefulness::port_based(&trace, target)),
            oracle_port_based(&trace, target),
            "port_based at {}", target
        );
        for s in [seed, seed ^ 1, 7, 2016] {
            prop_assert_eq!(
                parts(&Usefulness::port_based_seeded(&trace, target, s)),
                oracle_port_based_seeded(&trace, target, s),
                "port_based_seeded at {} seed {}", target, s
            );
        }
        // Asked-for ports: some absent from the trace, some repeated,
        // plus the trace's own first port and both ends of the space.
        let mut ports = asked.clone();
        ports.extend(asked.first().copied());
        ports.extend(trace.frames.first().map(|f| f.dst_port));
        if kind % 2 == 0 {
            ports.extend([0, u16::MAX]);
        }
        prop_assert_eq!(
            parts(&Usefulness::from_ports(&trace, &ports)),
            oracle_mark(&trace, ports.clone()),
            "from_ports {:?}", ports
        );
    }

    /// Marking within the frames another marking keeps equals marking a
    /// copy of that sub-trace (how the hybrid solution marked it before
    /// it stopped copying).
    fn port_based_within_matches_the_copied_sub_trace(
        trace in trace_strategy(),
        kinds in (0u8..6, 0u8..6),
        raw in (0.0f64..1.0, 0.0f64..1.0),
        seed in any::<u64>(),
    ) {
        let delivered = if kinds.0 == 5 {
            Usefulness::bernoulli(&trace, raw.0, seed)
        } else {
            Usefulness::port_based(&trace, fraction(kinds.0, raw.0, trace.len()))
        };
        let kept = trace
            .frames
            .iter()
            .zip(delivered.flags())
            .filter(|&(_, &d)| d)
            .map(|(f, _)| *f)
            .collect();
        let sub = Trace::new("sub", trace.duration, kept);
        let within = fraction(kinds.1, raw.1, sub.len());
        prop_assert_eq!(
            parts(&Usefulness::port_based_within(&trace, &delivered, within)),
            parts(&Usefulness::port_based(&sub, within)),
            "within {} of {} delivered", within, sub.len()
        );
    }
}
