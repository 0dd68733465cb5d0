//! Property tests for the log-linear histogram, run over both of its
//! instantiations — the wall-clock [`LatencyHistogram`] and the
//! deterministic power-of-two [`Histogram`]: the merge algebra the
//! per-shard and per-worker fan-ins rely on, the quantile readout's
//! ordering guarantees, and the cross-platform determinism of the
//! bucket layout (pure integer arithmetic, so the boundaries must be
//! reproducible from first principles).

use hide_obs::latency::{Histogram, LatencyHistogram, LogHistogram, LATENCY_BUCKETS};
use proptest::collection::vec;
use proptest::prelude::*;

/// Latency-shaped values: everything from sub-bucket integers to
/// saturating outliers (the vendored proptest has no `prop_oneof`, so
/// the class is picked by a mapped discriminant).
fn nanos_strategy() -> impl Strategy<Value = u64> {
    (0usize..5, any::<u64>()).prop_map(|(class, raw)| match class {
        0 => raw % 16,                         // exact unit buckets
        1 => 100 + raw % 1_000_000,            // the µs range
        2 => 1_000_000 + raw % 10_000_000_000, // ms to the 10 s ceiling
        3 => u64::MAX,                         // saturation
        _ => raw,                              // anything
    })
}

fn record_all<const B: usize, const S: u32>(values: &[u64]) -> LogHistogram<B, S> {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Merge is associative and commutative with sequential recording as
/// the identity, and preserves exact counts and extremes.
fn check_merge<const B: usize, const S: u32>(
    a: &[u64],
    b: &[u64],
    c: &[u64],
) -> Result<(), TestCaseError> {
    let (ha, hb, hc) = (
        record_all::<B, S>(a),
        record_all::<B, S>(b),
        record_all::<B, S>(c),
    );
    let mut seq = LogHistogram::<B, S>::new();
    for &v in a.iter().chain(b).chain(c) {
        seq.record(v);
    }

    // (a + b) + c
    let mut left = ha.clone();
    left.merge_from(&hb);
    left.merge_from(&hc);
    // a + (b + c)
    let mut bc = hb.clone();
    bc.merge_from(&hc);
    let mut right = ha.clone();
    right.merge_from(&bc);
    // c + b + a
    let mut rev = hc.clone();
    rev.merge_from(&hb);
    rev.merge_from(&ha);

    prop_assert_eq!(&left, &seq);
    prop_assert_eq!(&right, &seq);
    prop_assert_eq!(&rev, &seq);
    prop_assert_eq!(seq.count(), (a.len() + b.len() + c.len()) as u64);
    Ok(())
}

/// Quantiles are monotone in q and bracketed by min/max.
fn check_monotone<const B: usize, const S: u32>(
    h: &LogHistogram<B, S>,
) -> Result<(), TestCaseError> {
    let mut prev = 0u64;
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
        let at = h.quantile(q);
        prop_assert!(at >= prev, "quantile({q}) = {at} < {prev}");
        prop_assert!(at >= h.min());
        prop_assert!(at <= h.max());
        prev = at;
    }
    Ok(())
}

/// A quantile readout is within one bucket of the true order
/// statistic.
fn check_quantile_error<const B: usize, const S: u32>(values: &[u64]) -> Result<(), TestCaseError> {
    let h = record_all::<B, S>(values);
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    for q in [0.5, 0.9, 0.99] {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let read = h.quantile(q);
        // The readout is the truth's bucket lower bound (clamped into
        // the observed range), so it never overshoots and undershoots
        // by at most the bucket width.
        prop_assert!(read <= truth);
        let bucket_lo =
            LogHistogram::<B, S>::bucket_lower_bound(LogHistogram::<B, S>::bucket_index(truth));
        prop_assert!(
            read >= bucket_lo.min(h.min()).min(truth),
            "q={q}: read {read}, truth {truth}, bucket_lo {bucket_lo}"
        );
    }
    Ok(())
}

/// The bucket function is deterministic from first principles on
/// every platform: index and boundary round-trip, and the mapping is
/// monotone non-decreasing in the value.
fn check_layout<const B: usize, const S: u32>(v: u64) -> Result<(), TestCaseError> {
    let i = LogHistogram::<B, S>::bucket_index(v);
    prop_assert!(i < B);
    let lo = LogHistogram::<B, S>::bucket_lower_bound(i);
    prop_assert!(lo <= v);
    prop_assert_eq!(LogHistogram::<B, S>::bucket_index(lo), i);
    if i + 1 < B {
        let hi = LogHistogram::<B, S>::bucket_lower_bound(i + 1);
        prop_assert!(v < hi);
    }
    if v > 0 {
        prop_assert!(LogHistogram::<B, S>::bucket_index(v - 1) <= i);
    }
    Ok(())
}

proptest! {
    #[test]
    fn merge_associative_commutative_exact(
        a in vec(nanos_strategy(), 0..64),
        b in vec(nanos_strategy(), 0..64),
        c in vec(nanos_strategy(), 0..64),
    ) {
        check_merge::<LATENCY_BUCKETS, 3>(&a, &b, &c)?;
        check_merge::<32, 0>(&a, &b, &c)?;
    }

    /// The summary readout of the latency layout is also internally
    /// ordered.
    #[test]
    fn quantiles_are_monotone(values in vec(nanos_strategy(), 1..256)) {
        let h: LatencyHistogram = record_all(&values);
        check_monotone(&h)?;
        let p: Histogram = record_all(&values);
        check_monotone(&p)?;
        let s = h.summary();
        prop_assert!(s.p50_ns <= s.p90_ns);
        prop_assert!(s.p90_ns <= s.p99_ns);
        prop_assert!(s.p99_ns <= s.max_ns);
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.max_ns, *values.iter().max().unwrap());
    }

    /// Within one bucket: ≤ 12.5 % relative (exact below 8 ns) for the
    /// latency layout, within a power of two for [`Histogram`].
    #[test]
    fn quantile_error_is_bounded(values in vec(0u64..20_000_000_000, 1..128)) {
        check_quantile_error::<LATENCY_BUCKETS, 3>(&values)?;
        check_quantile_error::<32, 0>(&values)?;
    }

    #[test]
    fn bucket_layout_is_deterministic(v in any::<u64>()) {
        check_layout::<LATENCY_BUCKETS, 3>(v)?;
        check_layout::<32, 0>(v)?;
    }
}
