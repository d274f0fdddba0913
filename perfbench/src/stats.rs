//! Medians and the tail-percentile rule.

/// Median of `values` (mean of the middle pair for an even count); `NaN`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A reported latency percentile and the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `[0.5, target]`.
    pub quantile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Samples a percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile up to `target` that leaves at least
/// [`MIN_BEYOND`] samples beyond it, by nearest rank.  With too few
/// samples for any percentile above the median, the median (as
/// [`median`] computes it) is reported and `beyond` says how thin it is.
pub fn tail(values: &[f64], target: f64) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            quantile: target,
            value: f64::NAN,
            samples: 0,
            beyond: 0,
        };
    }
    let median_rank = n.div_ceil(2);
    // Nearest rank of `target`; the epsilon keeps 0.99 × 10 000 at 9 900.
    let rank = (((target * n as f64) - 1e-9).ceil() as usize).min(n.saturating_sub(MIN_BEYOND));
    if rank <= median_rank {
        return Tail {
            quantile: 0.5,
            value: median(&v),
            samples: n,
            beyond: n - median_rank,
        };
    }
    Tail {
        quantile: rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn p99_is_kept_with_enough_samples() {
        let t = tail(&ramp(10_000), 0.99);
        assert_eq!(t.quantile, 0.99);
        assert_eq!(t.value, 9_900.0);
        assert_eq!(t.beyond, 100);
        assert_eq!(t.samples, 10_000);
    }

    #[test]
    fn falls_back_to_the_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(500), 0.99);
        assert!((t.quantile - 0.98).abs() < 1e-12);
        assert_eq!(t.value, 490.0);
        assert_eq!(t.beyond, MIN_BEYOND);
        let t = tail(&ramp(1_000), 0.99);
        assert_eq!((t.value, t.beyond), (990.0, 10));
    }

    #[test]
    fn never_goes_below_the_median() {
        let t = tail(&ramp(12), 0.99);
        assert_eq!(t.quantile, 0.5);
        assert_eq!(t.value, median(&ramp(12)));
        assert_eq!(t.beyond, 6);
        let t = tail(&ramp(1), 0.99);
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 0, 1));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
