//! Exact-sample order statistics. Nothing here buckets or rounds: a
//! percentile is always one of the recorded samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples a tail percentile needs strictly beyond it before
/// it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// The highest of p99, p95, p90, p75 that has at least
/// [`TAIL_SUPPORT`] of `n` samples beyond it. A full-size run always
/// has the support for p99; a smoke run falls back and says so.
pub fn tail_level(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75].into_iter().find(|pct| {
        let rank = (f64::from(*pct) / 100.0 * n as f64).ceil() as usize;
        rank >= 1 && n - rank >= TAIL_SUPPORT
    })
}

/// Nearest-rank quantile of unordered values.
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the spread printed by
/// `--sets` is the number the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median_f64(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_exact() {
        let s: Vec<u64> = (1..=100).map(|i| i * 7).collect();
        assert_eq!(percentile(&s, 0.5), 50 * 7);
        assert_eq!(percentile(&s, 0.99), 99 * 7);
        assert_eq!(percentile(&s, 1.0), 100 * 7);
        assert_eq!(percentile(&s, 0.0), 7);
        assert_eq!(percentile(&[42], 0.99), 42);
        // No interpolation, no bucketing: 1/16-quantised histograms
        // would report 3 or 4 here.
        assert_eq!(percentile(&[1, 2, 3, 1000], 0.75), 3);
    }

    #[test]
    fn quantile_of_values_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0];
        assert_eq!(quantile_f64(&v, 0.25), 2.0);
        assert_eq!(quantile_f64(&v, 0.75), 6.0);
        assert_eq!(quantile_f64(&[9.0], 0.75), 9.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, ten beyond.
        assert_eq!(tail_level(1000), Some(99));
        // 999 samples: rank 990, nine beyond -> p95 (rank 950).
        assert_eq!(tail_level(999), Some(95));
        assert_eq!(tail_level(200), Some(95));
        assert_eq!(tail_level(199), Some(90));
        assert_eq!(tail_level(40), Some(75));
        assert_eq!(tail_level(39), None);
        assert_eq!(tail_level(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
