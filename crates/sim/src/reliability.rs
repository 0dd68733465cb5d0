//! Robustness of HIDE under port-set churn and UDP Port Message loss.
//!
//! The paper assumes the AP's Client UDP Port Table is always current:
//! the client re-syncs before every suspend and 802.11 retransmission
//! recovers lost messages. This module quantifies what happens when
//! that assumption frays — messages lost beyond the retry limit, apps
//! opening and closing ports between syncs — which is the practical
//! risk of moving filtering *away* from the client:
//!
//! * a frame to a **newly-opened** port is not flagged by the stale AP
//!   table → the suspended client misses useful data;
//! * a frame to a **recently-closed** port is still flagged → the
//!   client wakes spuriously, paying the full wake-cycle energy HIDE
//!   was supposed to avoid.

use hide_obs::provenance::CauseCounts;
use hide_obs::WakeCause;
use hide_traces::record::Trace;
use hide_traces::useful::Usefulness;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the reliability simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityConfig {
    /// Per-transmission loss probability of a UDP Port Message.
    pub loss_probability: f64,
    /// 802.11 retransmission attempts after the initial transmission
    /// (a sync fails only if all attempts are lost).
    pub retries: u32,
    /// Interval between the client's sync attempts, seconds.
    pub sync_interval_secs: f64,
    /// Mean time between port-set changes (one port swapped per
    /// change), seconds; exponential inter-change times.
    pub churn_interval_secs: f64,
    /// Target useful fraction of the client's port set.
    pub useful_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            loss_probability: 0.1,
            retries: 3,
            sync_interval_secs: 10.0,
            churn_interval_secs: 120.0,
            useful_fraction: 0.10,
            seed: 1,
        }
    }
}

impl ReliabilityConfig {
    /// Sets the client's sync interval, seconds.
    #[must_use]
    pub fn with_sync_interval_secs(mut self, secs: f64) -> Self {
        self.sync_interval_secs = secs;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Outcome of a reliability simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityResult {
    /// Sync attempts made.
    pub syncs_attempted: u64,
    /// Syncs lost even after all retries.
    pub syncs_failed: u64,
    /// Port-set changes that occurred.
    pub churn_events: u64,
    /// Fraction of frames that were useful but not flagged (missed
    /// while suspended).
    pub missed_useful_fraction: f64,
    /// Fraction of frames that were useless but still flagged
    /// (spurious wake-ups).
    pub spurious_wake_fraction: f64,
    /// Fraction of trace time the AP's table was out of date.
    pub stale_time_fraction: f64,
    /// Every missed frame attributed to its causal event — the nearest
    /// de-sync (failed sync → `refresh_lost`, port swap → `port_churn`)
    /// preceding the frame, exactly the fleet engine's online walk.
    /// This model has no AP-side staleness expiry, so `entry_expired`
    /// is always 0. `total()` equals the missed-frame count.
    pub missed_causes: CauseCounts,
    /// Every spurious wake attributed likewise. Spurious wakes need the
    /// AP to believe in ports the client left, so `port_churn` is the
    /// only attributable cause; `total()` equals the spurious count.
    pub spurious_causes: CauseCounts,
}

/// Runs the churn/loss simulation over a trace.
///
/// The client's true useful-port set starts as a seeded port-based
/// marking and swaps one port (closing a current one, opening a port
/// of similar traffic share) at each churn event. The AP's view updates
/// only at successful syncs.
pub fn run(trace: &Trace, config: &ReliabilityConfig) -> ReliabilityResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let hist = trace.port_histogram();
    let all_ports: Vec<u16> = hist.iter().map(|&(p, _)| p).collect();

    // True client port set over time, as a sequence of (time, set).
    let initial = Usefulness::port_based_seeded(trace, config.useful_fraction, config.seed)
        .useful_ports()
        .to_vec();
    let mut true_sets: Vec<(f64, Vec<u16>)> = vec![(0.0, initial)];
    let mut t = 0.0;
    let mut churn_events = 0u64;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -config.churn_interval_secs * u.ln();
        if t >= trace.duration {
            break;
        }
        let mut set = true_sets.last().expect("non-empty").1.clone();
        if !set.is_empty() {
            let drop_idx = rng.gen_range(0..set.len());
            set.remove(drop_idx);
        }
        // Open a different port not currently in the set.
        let candidates: Vec<u16> = all_ports
            .iter()
            .copied()
            .filter(|p| !set.contains(p))
            .collect();
        if !candidates.is_empty() {
            set.push(candidates[rng.gen_range(0..candidates.len())]);
            set.sort_unstable();
        }
        true_sets.push((t, set));
        churn_events += 1;
    }

    // Sync schedule: attempt every sync_interval; success unless every
    // transmission (1 + retries) is lost.
    let fail_prob = config
        .loss_probability
        .clamp(0.0, 1.0)
        .powi(config.retries as i32 + 1);
    let mut ap_views: Vec<(f64, Vec<u16>)> = vec![(0.0, true_sets[0].1.clone())];
    let mut syncs_attempted = 0u64;
    let mut syncs_failed = 0u64;
    let mut sync_outcomes: Vec<(f64, bool)> = Vec::new();
    let mut sync_t = config.sync_interval_secs;
    while sync_t < trace.duration {
        syncs_attempted += 1;
        let ok = rng.gen_range(0.0..1.0) >= fail_prob;
        if ok {
            let current = current_set(&true_sets, sync_t).to_vec();
            ap_views.push((sync_t, current));
        } else {
            syncs_failed += 1;
        }
        sync_outcomes.push((sync_t, ok));
        sync_t += config.sync_interval_secs;
    }

    // Per-event cause timeline — the fleet engine's `last_desync` /
    // `churned_since_sync` columns replayed over the merged event
    // stream: a port swap or failed sync records the de-sync, a
    // successful sync clears it. Each misclassified frame is then
    // attributed to the nearest preceding de-sync, not statistically.
    let mut causes: Vec<(f64, Option<WakeCause>, bool)> = vec![(0.0, None, false)];
    {
        let mut churn_iter = true_sets.iter().skip(1).map(|&(t, _)| t).peekable();
        let mut sync_iter = sync_outcomes.iter().copied().peekable();
        // Every arm assigns `desync` before the push reads it.
        let mut desync;
        let mut churned = false;
        loop {
            let next_churn = churn_iter.peek().copied();
            let next_sync = sync_iter.peek().copied();
            match (next_churn, next_sync) {
                (Some(ct), st) if st.is_none_or(|(t, _)| ct <= t) => {
                    churn_iter.next();
                    desync = Some(WakeCause::PortChurn);
                    churned = true;
                    causes.push((ct, desync, churned));
                }
                (_, Some((st, ok))) => {
                    sync_iter.next();
                    if ok {
                        desync = None;
                        churned = false;
                    } else {
                        desync = Some(WakeCause::RefreshLost);
                    }
                    causes.push((st, desync, churned));
                }
                // Only (None, None) reaches here: a Some churn with no
                // pending sync always satisfies the first arm's guard.
                _ => break,
            }
        }
    }
    let cause_at = |t: f64| -> (Option<WakeCause>, bool) {
        let idx = causes.partition_point(|&(start, _, _)| start <= t);
        let (_, desync, churned) = causes[idx.saturating_sub(1)];
        (desync, churned)
    };

    // Classify every frame, attributing each miss and spurious wake.
    let total = trace.len().max(1) as f64;
    let mut missed = 0u64;
    let mut spurious = 0u64;
    let mut missed_causes = CauseCounts::default();
    let mut spurious_causes = CauseCounts::default();
    for f in &trace.frames {
        let truth = current_set(&true_sets, f.time).contains(&f.dst_port);
        let flagged = current_set(&ap_views, f.time).contains(&f.dst_port);
        match (truth, flagged) {
            (true, false) => {
                missed += 1;
                match cause_at(f.time).0 {
                    Some(WakeCause::RefreshLost) => missed_causes.refresh_lost += 1,
                    Some(WakeCause::EntryExpired) => missed_causes.entry_expired += 1,
                    Some(WakeCause::PortChurn) => missed_causes.port_churn += 1,
                    _ => missed_causes.unknown += 1,
                }
            }
            (false, true) => {
                spurious += 1;
                if cause_at(f.time).1 {
                    spurious_causes.port_churn += 1;
                } else {
                    spurious_causes.unknown += 1;
                }
            }
            _ => {}
        }
    }

    // Stale time: intervals where the AP view lags the true set.
    let mut stale = 0.0f64;
    let step = 1.0f64;
    let mut probe = 0.0;
    while probe < trace.duration {
        if current_set(&true_sets, probe) != current_set(&ap_views, probe) {
            stale += step.min(trace.duration - probe);
        }
        probe += step;
    }

    ReliabilityResult {
        syncs_attempted,
        syncs_failed,
        churn_events,
        missed_useful_fraction: missed as f64 / total,
        spurious_wake_fraction: spurious as f64 / total,
        stale_time_fraction: stale / trace.duration,
        missed_causes,
        spurious_causes,
    }
}

/// Runs one reliability simulation per config in parallel, returning
/// results in config order. Each run draws from its own seeded RNG, so
/// the output matches running [`run`] sequentially over the slice.
pub fn run_sweep(trace: &Trace, configs: &[ReliabilityConfig]) -> Vec<ReliabilityResult> {
    hide_par::par_map(configs, |cfg| run(trace, cfg))
}

/// The set in force at time `t` (sets are time-sorted).
fn current_set(sets: &[(f64, Vec<u16>)], t: f64) -> &[u16] {
    let idx = sets.partition_point(|(start, _)| *start <= t);
    &sets[idx.saturating_sub(1)].1
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_traces::scenario::Scenario;

    fn trace() -> Trace {
        Scenario::CsDept.generate(1200.0, 71)
    }

    #[test]
    fn builders_match_field_assignment() {
        let built = ReliabilityConfig::default()
            .with_sync_interval_secs(30.0)
            .with_seed(7);
        let expected = ReliabilityConfig {
            sync_interval_secs: 30.0,
            seed: 7,
            ..ReliabilityConfig::default()
        };
        assert_eq!(built, expected);
    }

    #[test]
    fn no_loss_no_churn_is_perfect() {
        let t = trace();
        let cfg = ReliabilityConfig {
            loss_probability: 0.0,
            churn_interval_secs: 1e12, // effectively never
            ..ReliabilityConfig::default()
        };
        let r = run(&t, &cfg);
        assert_eq!(r.syncs_failed, 0);
        assert_eq!(r.churn_events, 0);
        assert_eq!(r.missed_useful_fraction, 0.0);
        assert_eq!(r.spurious_wake_fraction, 0.0);
        assert_eq!(r.stale_time_fraction, 0.0);
    }

    #[test]
    fn churn_without_loss_recovers_within_a_sync_interval() {
        let t = trace();
        let cfg = ReliabilityConfig {
            loss_probability: 0.0,
            churn_interval_secs: 60.0,
            ..ReliabilityConfig::default()
        };
        let r = run(&t, &cfg);
        assert!(r.churn_events > 0);
        // Staleness bounded by churn_rate * sync_interval.
        let expected_bound = cfg.sync_interval_secs / cfg.churn_interval_secs * 2.0;
        assert!(
            r.stale_time_fraction < expected_bound,
            "stale {} vs bound {expected_bound}",
            r.stale_time_fraction
        );
        assert!(r.missed_useful_fraction < 0.05);
    }

    #[test]
    fn retries_mask_moderate_loss() {
        let t = trace();
        let lossy_no_retry = run(
            &t,
            &ReliabilityConfig {
                loss_probability: 0.5,
                retries: 0,
                churn_interval_secs: 60.0,
                ..ReliabilityConfig::default()
            },
        );
        let lossy_retries = run(
            &t,
            &ReliabilityConfig {
                loss_probability: 0.5,
                retries: 4,
                churn_interval_secs: 60.0,
                ..ReliabilityConfig::default()
            },
        );
        assert!(lossy_no_retry.syncs_failed > lossy_retries.syncs_failed);
        assert!(lossy_no_retry.stale_time_fraction >= lossy_retries.stale_time_fraction);
    }

    #[test]
    fn extreme_loss_degrades_delivery() {
        let t = trace();
        let r = run(
            &t,
            &ReliabilityConfig {
                loss_probability: 1.0,
                retries: 3,
                churn_interval_secs: 60.0,
                ..ReliabilityConfig::default()
            },
        );
        assert_eq!(r.syncs_failed, r.syncs_attempted);
        assert!(r.churn_events > 0);
        // With the AP frozen at the initial view and the port set
        // churning, misses or spurious wakes must appear.
        assert!(r.missed_useful_fraction + r.spurious_wake_fraction > 0.0);
        assert!(r.stale_time_fraction > 0.3);
    }

    #[test]
    fn every_miss_and_spurious_wake_is_attributed_per_event() {
        let t = trace();
        let total = t.len() as f64;
        let r = run(
            &t,
            &ReliabilityConfig {
                loss_probability: 0.6,
                retries: 0,
                churn_interval_secs: 45.0,
                ..ReliabilityConfig::default()
            },
        );
        // The per-event cause walk covers exactly the statistically
        // counted misclassifications — no frame double-counted or lost.
        assert_eq!(
            r.missed_causes.total() as f64 / total,
            r.missed_useful_fraction
        );
        assert_eq!(
            r.spurious_causes.total() as f64 / total,
            r.spurious_wake_fraction
        );
        // This model has no AP-side expiry, and both failure modes
        // found real causal events.
        assert_eq!(r.missed_causes.entry_expired, 0);
        assert_eq!(r.missed_causes.unknown, 0);
        assert_eq!(r.spurious_causes.unknown, 0);
        assert!(r.missed_causes.total() + r.spurious_causes.total() > 0);
    }

    #[test]
    fn loss_free_churn_attributes_everything_to_port_churn() {
        // With refreshes never lost, the only de-sync events are port
        // swaps, so every miss and spurious wake is a churn race.
        let t = trace();
        let r = run(
            &t,
            &ReliabilityConfig {
                loss_probability: 0.0,
                churn_interval_secs: 30.0,
                ..ReliabilityConfig::default()
            },
        );
        assert_eq!(r.missed_causes.refresh_lost, 0);
        assert_eq!(r.missed_causes.total(), r.missed_causes.port_churn);
        assert_eq!(r.spurious_causes.total(), r.spurious_causes.port_churn);
    }

    #[test]
    fn lossy_no_churn_attributes_misses_to_lost_refreshes() {
        // Without churn the true set never moves, so the AP can only go
        // stale... it never does (view == truth forever): nothing to
        // attribute. Add churn-free loss as the control.
        let t = trace();
        let r = run(
            &t,
            &ReliabilityConfig {
                loss_probability: 0.9,
                retries: 0,
                churn_interval_secs: 1e12,
                ..ReliabilityConfig::default()
            },
        );
        assert!(r.syncs_failed > 0);
        assert_eq!(r.missed_causes.total(), 0);
        assert_eq!(r.spurious_causes.total(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = trace();
        let cfg = ReliabilityConfig::default();
        assert_eq!(run(&t, &cfg), run(&t, &cfg));
        let other = ReliabilityConfig {
            seed: 9,
            ..ReliabilityConfig::default()
        };
        // Different seed, very likely different churn timing.
        assert_ne!(run(&t, &cfg).churn_events, 0);
        let _ = run(&t, &other);
    }
}
