//! Summary statistics for benchmark samples.

/// The median of `values` (the mean of the middle two for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail a timing is reported with: the highest percentile that
/// still has at least ten samples beyond it, taken on the side where
/// the metric is worse. `None` with fewer than eleven samples.
pub struct Tail {
    /// Percentile level (e.g. 75 for p75); for a higher-is-better
    /// metric the worse side is the low end, reported as its
    /// complement (p25 of a throughput is "75% of passes were at least
    /// this fast").
    pub percentile: usize,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
}

/// See [`Tail`].
pub fn tail(values: &[f64], higher_is_better: bool) -> Option<Tail> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Highest p with n * (1 - p/100) >= 10, in whole percent.
    let percentile = (100 * (n - 10)) / n;
    // Nearest rank: the smallest sample with at least p% at or below it.
    let rank = (percentile * n).div_ceil(100).max(1);
    if higher_is_better {
        Some(Tail {
            percentile: 100 - percentile,
            value: sorted[n - rank],
        })
    } else {
        Some(Tail {
            percentile,
            value: sorted[rank - 1],
        })
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert!(tail(&[1.0; 10], false).is_none());
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&values, false).unwrap();
        assert_eq!(t.percentile, 75);
        assert_eq!(t.value, 30.0);
        assert_eq!(values.iter().filter(|v| **v > t.value).count(), 10);
        let t = tail(&values, true).unwrap();
        assert_eq!(t.percentile, 25);
        assert_eq!(values.iter().filter(|v| **v < t.value).count(), 10);
    }
}
