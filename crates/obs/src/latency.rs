//! Fixed-bucket log-linear histograms with deterministic, mergeable
//! state: one implementation, two layouts.
//!
//! [`LogHistogram`] is written once, generic over its bucket count and
//! its sub-bucket bits. The layout is fixed at compile time, so two
//! histograms of one layout merge by elementwise addition — the
//! property the per-worker fan-in in `hide-par` and the daemon's
//! per-shard fold rely on.
//!
//! # Bucket layout
//!
//! An HdrHistogram-style linear-log grid with `2^SUB_BITS` sub-buckets
//! per power of two:
//!
//! * values `0..2^SUB_BITS` get one exact bucket each;
//! * a value with floor-log2 `e >= SUB_BITS` lands in index
//!   `(e - SUB_BITS) * 2^SUB_BITS + 2^SUB_BITS + sub`, where `sub` is
//!   the `SUB_BITS` bits after the leading one;
//! * the last bucket saturates.
//!
//! The layout is pure integer arithmetic on `u64`, so bucket
//! boundaries are identical on every platform — a property the
//! cross-platform proptests pin.
//!
//! # The two instantiations
//!
//! * [`Histogram`] — 32 buckets, 0 sub-bucket bits: bucket 0 holds
//!   `0`, bucket `i` holds `[2^(i-1), 2^i)`, and bucket 31 absorbs
//!   everything from `2^30` up. The deterministic plane keeps it
//!   ([`crate::Recorder`], the `hide-metrics/1` `distributions`).
//! * [`LatencyHistogram`] — 256 buckets, 3 sub-bucket bits (≤ 12.5 %
//!   relative bucket width), sized for nanosecond latencies from
//!   ~100 ns to ~10 s; 2^34 ns (~17.2 s) and beyond saturates. The
//!   wall-clock plane keeps it (`hide-apd-health/1`, the
//!   Prometheus-style exposition); it must never feed `hide-metrics/1`.
//!
//! Each layout serves a caller the other cannot. A recorder holds nine
//! distributions, and an in-memory fleet run holds every shard's
//! recorder until its window folds, so 256 buckets there would grow
//! each recorder from 3192 B to 19 320 B. Power-of-two buckets are
//! ±50 % wide, too coarse for the daemon's p50/p99.

/// Number of buckets in every [`LatencyHistogram`]: 8 exact unit
/// buckets plus 31 octaves (exponents 3..=33) of 8 sub-buckets.
pub const LATENCY_BUCKETS: usize = 256;

/// The deterministic plane's histogram: 32 power-of-two buckets.
pub type Histogram = LogHistogram<32, 0>;

/// The wall-clock plane's histogram of nanosecond latencies: 8
/// sub-buckets per power of two.
pub type LatencyHistogram = LogHistogram<LATENCY_BUCKETS, 3>;

/// A fixed-bucket log-linear histogram: `BUCKETS` buckets with
/// `2^SUB_BITS` sub-buckets per power of two (see the module docs).
///
/// Recording is an index computation plus an array increment; merging
/// is elementwise addition (associative and commutative), so partial
/// histograms fold into one in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram<const BUCKETS: usize, const SUB_BITS: u32> {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    /// `u64::MAX` while empty so the first `record` always wins.
    min: u64,
    max: u64,
}

/// `Copy` on purpose: a [`Histogram`] is a few hundred bytes of plain
/// integers, which lets a recorder hold `[Histogram; N]` without
/// allocation and lets callers snapshot one with `=`.
impl Copy for Histogram {}

impl<const BUCKETS: usize, const SUB_BITS: u32> LogHistogram<BUCKETS, SUB_BITS> {
    /// Sub-buckets per power of two.
    const SUBS: u64 = 1 << SUB_BITS;

    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value lands in.
    #[inline]
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value < Self::SUBS {
            value as usize
        } else {
            let exp = 63 - u64::from(value.leading_zeros());
            let sub = (value >> (exp - u64::from(SUB_BITS))) & (Self::SUBS - 1);
            let index = (exp - u64::from(SUB_BITS)) * Self::SUBS + Self::SUBS + sub;
            (index as usize).min(BUCKETS - 1)
        }
    }

    /// Inclusive lower bound of a bucket.
    #[must_use]
    pub fn bucket_lower_bound(index: usize) -> u64 {
        let index = index as u64;
        if index < Self::SUBS {
            index
        } else {
            let octave = (index - Self::SUBS) / Self::SUBS;
            let sub = (index - Self::SUBS) % Self::SUBS;
            (Self::SUBS + sub) << octave
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Fold another histogram into this one (elementwise addition —
    /// associative and commutative, so fan-in order cannot change the
    /// result).
    pub fn merge_from(&mut self, other: &Self) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded observation, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded observation (exact, not bucketed), or 0 when
    /// empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded observations, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Rebuild a histogram from raw parts — the snapshot path of the
    /// atomic runtime plane, where buckets and extremes are read from
    /// separate atomics. `count` is derived from the buckets so
    /// quantile walks always terminate consistently.
    #[must_use]
    pub(crate) fn from_raw(buckets: [u64; BUCKETS], sum: u64, min: u64, max: u64) -> Self {
        let count = buckets.iter().sum();
        LogHistogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// The value at quantile `q` in `[0, 1]`.
    ///
    /// Walks the bucket counts to the observation of rank
    /// `ceil(q * count)` and returns that bucket's lower bound clamped
    /// into `[min, max]` — deterministic, monotone in `q`, within one
    /// bucket width of the true order statistic, and exact at the
    /// extremes. Returns 0 when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // Extremes read from racy atomics in the live plane can be
        // transiently inconsistent; order the clamp bounds defensively.
        let hi = self.max;
        let lo = self.min().min(hi);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_lower_bound(i).clamp(lo, hi);
            }
        }
        hi
    }

    /// The non-empty buckets as `(bucket index, observation count)`
    /// pairs, in bucket order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }
}

impl<const BUCKETS: usize, const SUB_BITS: u32> Default for LogHistogram<BUCKETS, SUB_BITS> {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LatencyHistogram {
    /// Shorthand: the p50/p90/p99/max readout the health artifact
    /// reports.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_ns: self.mean(),
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            max_ns: self.max(),
        }
    }
}

/// The fixed readout of one [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Observations recorded.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// Median (bucket-resolution) in nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile (bucket-resolution) in nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile (bucket-resolution) in nanoseconds.
    pub p99_ns: u64,
    /// Exact maximum in nanoseconds.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The power-of-two layout, bit for bit: bucket 0 holds 0, bucket
    /// `i` holds `[2^(i-1), 2^i)`, bucket 31 everything from 2^30 up.
    #[test]
    fn power_of_two_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index((1 << 30) - 1), 30);
        assert_eq!(Histogram::bucket_index(1 << 30), 31);
        assert_eq!(Histogram::bucket_index(u64::MAX), 31);
        assert_eq!(Histogram::bucket_lower_bound(0), 0);
        for i in 1..31 {
            let lo = Histogram::bucket_lower_bound(i);
            assert_eq!(lo, 1 << (i - 1));
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(2 * lo - 1), i);
        }
    }

    /// Both layouts keep the memory shape the recorder and the daemon
    /// size themselves by: the buckets plus four words.
    #[test]
    fn layouts_keep_their_size() {
        assert_eq!(std::mem::size_of::<Histogram>(), (32 + 4) * 8);
        assert_eq!(
            std::mem::size_of::<LatencyHistogram>(),
            (LATENCY_BUCKETS + 4) * 8
        );
    }

    #[test]
    fn records_summary_stats() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        for v in [5, 0, 12, 12] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 29);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 12);
        assert_eq!(
            h.nonzero_buckets().collect::<Vec<_>>(),
            vec![
                (0, 1), // the 0
                (3, 1), // 5 in [4, 8)
                (4, 2), // 12 twice in [8, 16)
            ]
        );
    }

    /// Merge must be associative and commutative with the sequential
    /// recording as identity — the determinism property hide-par needs.
    #[test]
    fn merge_is_associative_and_commutative() {
        let parts: [&[u64]; 3] = [&[1, 7, 7, 900], &[], &[0, 0, 3]];
        let mut seq = Histogram::new();
        let mut hs: Vec<Histogram> = Vec::new();
        for part in parts {
            let mut h = Histogram::new();
            for &v in part {
                h.record(v);
                seq.record(v);
            }
            hs.push(h);
        }

        // (a + b) + c
        let mut left = hs[0];
        left.merge_from(&hs[1]);
        left.merge_from(&hs[2]);
        // a + (b + c)
        let mut bc = hs[1];
        bc.merge_from(&hs[2]);
        let mut right = hs[0];
        right.merge_from(&bc);
        // c + b + a
        let mut rev = hs[2];
        rev.merge_from(&hs[1]);
        rev.merge_from(&hs[0]);

        assert_eq!(left, seq);
        assert_eq!(right, seq);
        assert_eq!(rev, seq);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(42);
        let snapshot = h;
        h.merge_from(&Histogram::new());
        assert_eq!(h, snapshot);

        let mut e = Histogram::new();
        e.merge_from(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn bucket_boundaries_are_deterministic() {
        // Unit buckets.
        for v in 0..8u64 {
            assert_eq!(LatencyHistogram::bucket_index(v), v as usize);
            assert_eq!(LatencyHistogram::bucket_lower_bound(v as usize), v);
        }
        // First octave bucket: 8 lands at index 8.
        assert_eq!(LatencyHistogram::bucket_index(8), 8);
        // Every bucket's lower bound maps back to its own index, and
        // the value just below the next bound stays put.
        for i in 0..LATENCY_BUCKETS - 1 {
            let lo = LatencyHistogram::bucket_lower_bound(i);
            let next = LatencyHistogram::bucket_lower_bound(i + 1);
            assert!(next > lo, "bounds must be strictly increasing at {i}");
            assert_eq!(LatencyHistogram::bucket_index(lo), i, "lower bound of {i}");
            assert_eq!(LatencyHistogram::bucket_index(next - 1), i, "top of {i}");
        }
        // ~100 ns and ~10 s both resolve inside the grid; 2^34 ns and
        // beyond saturate into the last bucket.
        assert!(LatencyHistogram::bucket_index(100) > 8);
        assert!(LatencyHistogram::bucket_index(10_000_000_000) < LATENCY_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_index(1 << 34), LATENCY_BUCKETS - 1);
        assert_eq!(
            LatencyHistogram::bucket_index(u64::MAX),
            LATENCY_BUCKETS - 1
        );
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for i in 9..LATENCY_BUCKETS - 1 {
            let lo = LatencyHistogram::bucket_lower_bound(i);
            let hi = LatencyHistogram::bucket_lower_bound(i + 1);
            assert!(
                (hi - lo) as f64 / lo as f64 <= 0.125 + 1e-9,
                "bucket {i} is wider than 12.5%: [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn quantiles_read_out_in_order() {
        let mut h = LatencyHistogram::new();
        for v in [150u64, 150, 150, 900, 900, 5_000, 80_000, 2_000_000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 8);
        assert!(s.p50_ns <= s.p90_ns);
        assert!(s.p90_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.max_ns);
        assert_eq!(s.max_ns, 2_000_000);
        assert_eq!(h.min(), 150);
        // p50 of 8 values is rank 4: the 900 bucket.
        assert_eq!(
            h.quantile(0.5),
            LatencyHistogram::bucket_lower_bound(LatencyHistogram::bucket_index(900))
        );
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(12_345);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 12_345, "q={q}");
        }
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let parts: [&[u64]; 3] = [&[1, 100, 100, 1_000_000], &[], &[0, 0, 77_777]];
        let mut seq = LatencyHistogram::new();
        let mut merged = LatencyHistogram::new();
        for part in parts {
            let mut h = LatencyHistogram::new();
            for &v in part {
                h.record(v);
                seq.record(v);
            }
            merged.merge_from(&h);
        }
        assert_eq!(merged, seq);
        assert_eq!(merged.count(), 7);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
