//! Order statistics and the compare rule on fixed vectors.

use hide_benchmark::compare::{verdict, Verdict};
use hide_benchmark::metrics::Better;
use hide_benchmark::stats::{iqr, mad, median, quartiles, tail_percentile, Summary};

fn floats(v: &[i32]) -> Vec<f64> {
    v.iter().map(|&x| f64::from(x)).collect()
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&floats(&[3, 1, 2])), 2.0);
    assert_eq!(median(&floats(&[4, 1, 3, 2])), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(
        quartiles(&floats(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])),
        (2.75, 8.25)
    );
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&floats(&[5, 3, 1, 4, 2])), (1.5, 4.5));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&floats(&[2, 1])), (0.75, 2.25));
}

#[test]
fn spread_statistics() {
    assert_eq!(iqr(&floats(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])), 5.5);
    // Deviations from the median 2 are [1, 1, 0, 0, 2, 4, 7].
    assert_eq!(mad(&floats(&[1, 1, 2, 2, 4, 6, 9])), 1.0);
    let s = Summary::of(&floats(&[4, 8, 6]));
    assert_eq!((s.n, s.median, s.min, s.max), (3, 6.0, 4.0, 8.0));
}

#[test]
fn tail_percentiles_need_ten_samples_beyond_them() {
    let upto = |n: u64| (1..=n).collect::<Vec<u64>>();
    assert_eq!(tail_percentile(&upto(99), 0.9), None);
    assert_eq!(tail_percentile(&upto(100), 0.9), Some(90));
    assert_eq!(tail_percentile(&upto(999), 0.99), None);
    assert_eq!(tail_percentile(&upto(1000), 0.99), Some(990));
    assert_eq!(tail_percentile(&upto(10_000), 0.999), Some(9990));
    assert_eq!(tail_percentile(&[], 0.5), None);
}

#[test]
fn compare_rule_verdicts() {
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
    // Lower is better: 10 % faster on every pair, far beyond the spread.
    let faster: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
    assert_eq!(
        verdict(&parent, &faster, Better::Lower, 0.1),
        Verdict::Improved
    );
    // Read as a rate that must rise, the same numbers are a 10 % loss,
    // which an 11 % bound allows.
    assert_eq!(
        verdict(&parent, &faster, Better::Higher, 0.11),
        Verdict::Unchanged
    );
    // 30 % slower: beyond the bound.
    let slower: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
    assert_eq!(
        verdict(&parent, &slower, Better::Lower, 0.1),
        Verdict::Worse
    );
    // A gain needs ten pairs.
    assert_eq!(
        verdict(&parent[..9], &faster[..9], Better::Lower, 0.1),
        Verdict::Unchanged
    );
    // Spread wider than the bound: unresolved, not unchanged.
    let noisy = floats(&[60, 140, 70, 130, 80, 120, 90, 110, 100, 150]);
    assert_eq!(
        verdict(&parent, &noisy, Better::Lower, 0.1),
        Verdict::Unresolved
    );
    // ...unless every change run beats every parent run: then it is no
    // regression, and with ten winning pairs a gain.
    let clearly: Vec<f64> = noisy.iter().map(|x| x / 3.0).collect();
    assert_eq!(
        verdict(&parent[..5], &clearly[..5], Better::Lower, 0.1),
        Verdict::Unchanged
    );
    assert_eq!(
        verdict(&parent, &clearly, Better::Lower, 0.1),
        Verdict::Improved
    );
}
