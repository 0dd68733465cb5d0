//! Unicast traffic overlay.
//!
//! HIDE only manages broadcast frames; buffered *unicast* frames are
//! announced through the standard TIM bitmap and wake the client no
//! matter which solution is in use ("the client stays in suspend mode
//! as long as there are no unicast frames buffered", Section III.A).
//! This module generates a Poisson unicast arrival process so the
//! simulator can measure how background unicast traffic dilutes HIDE's
//! savings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A unicast arrival schedule for one client.
///
/// # Example
///
/// ```
/// use hide_traces::unicast::UnicastTrace;
///
/// let u = UnicastTrace::poisson(600.0, 0.05, 7); // one frame every ~20 s
/// assert!(u.arrivals().windows(2).all(|w| w[0] <= w[1]));
/// assert!(u.mean_rate() < 0.2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UnicastTrace {
    duration: f64,
    arrivals: Vec<f64>,
    frame_bytes: u16,
}

impl UnicastTrace {
    /// Generates Poisson arrivals at `rate` frames/second over
    /// `duration` seconds, with 500-byte frames.
    ///
    /// # Panics
    ///
    /// Panics if `duration` or `rate` is negative.
    pub fn poisson(duration: f64, rate: f64, seed: u64) -> Self {
        assert!(duration >= 0.0, "duration must be non-negative");
        assert!(rate >= 0.0, "rate must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals = Vec::new();
        if rate > 0.0 {
            let mut t = 0.0;
            loop {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                t += -u.ln() / rate;
                if t >= duration {
                    break;
                }
                arrivals.push(t);
            }
        }
        UnicastTrace {
            duration,
            arrivals,
            frame_bytes: 500,
        }
    }

    /// An empty overlay (no unicast traffic).
    pub fn none(duration: f64) -> Self {
        UnicastTrace {
            duration,
            arrivals: Vec::new(),
            frame_bytes: 500,
        }
    }

    /// Arrival times, sorted ascending.
    pub fn arrivals(&self) -> &[f64] {
        &self.arrivals
    }

    /// Unicast frame size in bytes.
    pub fn frame_bytes(&self) -> u16 {
        self.frame_bytes
    }

    /// Schedule duration in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Number of unicast frames.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` when there is no unicast traffic.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Empirical arrival rate in frames/second.
    pub fn mean_rate(&self) -> f64 {
        if self.duration > 0.0 {
            self.arrivals.len() as f64 / self.duration
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_converges() {
        let u = UnicastTrace::poisson(36_000.0, 0.1, 3);
        assert!((u.mean_rate() - 0.1).abs() < 0.02, "rate {}", u.mean_rate());
    }

    #[test]
    fn zero_rate_is_empty() {
        let u = UnicastTrace::poisson(100.0, 0.0, 3);
        assert!(u.is_empty());
        assert_eq!(u.mean_rate(), 0.0);
    }

    #[test]
    fn none_constructor() {
        let u = UnicastTrace::none(50.0);
        assert!(u.is_empty());
        assert_eq!(u.duration(), 50.0);
    }

    #[test]
    fn arrivals_sorted_and_bounded() {
        let u = UnicastTrace::poisson(300.0, 1.0, 9);
        assert!(!u.is_empty());
        assert!(u.arrivals().windows(2).all(|w| w[0] <= w[1]));
        assert!(u.arrivals().iter().all(|t| (0.0..300.0).contains(t)));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            UnicastTrace::poisson(100.0, 0.5, 4),
            UnicastTrace::poisson(100.0, 0.5, 4)
        );
        assert_ne!(
            UnicastTrace::poisson(100.0, 0.5, 4),
            UnicastTrace::poisson(100.0, 0.5, 5)
        );
    }

    #[test]
    fn frames_are_500_bytes_from_either_constructor() {
        assert_eq!(UnicastTrace::poisson(100.0, 0.5, 4).frame_bytes(), 500);
        assert_eq!(UnicastTrace::none(100.0).frame_bytes(), 500);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn negative_rate_panics() {
        let _ = UnicastTrace::poisson(10.0, -1.0, 0);
    }
}
