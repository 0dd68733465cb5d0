//! Order statistics over repeated samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed by any script that post-processes the results.

/// Sorted copy of `samples` (NaN-free input assumed; NaNs sort last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, exactly as Python's
/// `statistics.quantiles(samples, n=4)` computes them. A single sample
/// is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let v = sorted(samples);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range: `q3 - q1`.
#[must_use]
pub fn iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    q3 - q1
}

/// Median absolute deviation from the median.
#[must_use]
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let dev: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The `q` tail percentile (nearest rank) of `samples`, or `None` when
/// fewer than ten samples lie beyond it — a p90 needs at least 100
/// samples, a p99 at least 1000.
#[must_use]
pub fn tail_percentile(samples: &[u64], q: f64) -> Option<u64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    Some(v[rank - 1])
}

/// Summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// Inter-quartile range.
    pub iqr: f64,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            n: samples.len(),
            median: median(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mad: mad(samples),
            iqr: iqr(samples),
        }
    }
}
