//! Order statistics for the benchmark's own numbers.
//!
//! Kept here rather than borrowed from the program under test: a change
//! to the server's percentile helper must not change what the
//! benchmark's metric names mean.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of all samples at or below it. `NaN` for an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile — printed
/// beside every percentile so a reader can tell a tail from an outlier.
pub fn samples_beyond(len: usize, p: f64) -> usize {
    len - ((p / 100.0 * len as f64).ceil() as usize).clamp(usize::from(len > 0), len)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance rule
/// for run-to-run spread is stated in. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// bound is compared against. `None` below two samples, and for a median
/// of 0, which has no shares.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let median = median(values).abs();
    (median > 0.0).then(|| (q3 - q1) / median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        // An odd count puts the median on a sample, not between two.
        assert_eq!(percentile(&[1.0, 2.0, 9.0], 50.0), 2.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(75, 90.0), 7);
        assert_eq!(samples_beyond(10, 50.0), 5);
        assert_eq!(samples_beyond(1, 99.0), 0);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
