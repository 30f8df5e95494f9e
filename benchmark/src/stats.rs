//! Order statistics of a sample of timings.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Order statistics of one sample. Quantiles interpolate linearly
/// between order statistics (the "inclusive" method).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub p75: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
    /// The highest percentile, capped at the 99th, that has at least
    /// [`TAIL_SUPPORT`] samples beyond it, as (quantile, value); `None`
    /// when no percentile above the median has.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none. NaNs are a bug
    /// in the caller and panic.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        let n = s.len();
        // The order statistic at index n-1-TAIL_SUPPORT has exactly
        // TAIL_SUPPORT samples after it.
        let tail = (n > 2 * TAIL_SUPPORT).then(|| {
            let q = ((n - 1 - TAIL_SUPPORT) as f64 / (n - 1) as f64).min(0.99);
            (q, quantile(&s, q))
        });
        Some(Summary {
            n,
            min: s[0],
            p25: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            p75: quantile(&s, 0.75),
            p99: quantile(&s, 0.99),
            max: s[n - 1],
            tail,
        })
    }

    /// The tail percentile's value, or the median when the sample is
    /// too small to support any percentile above it.
    pub fn tail_or_median(&self) -> f64 {
        self.tail.map_or(self.median, |(_, v)| v)
    }
}

/// The `q`-quantile of an ascending, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples)
        .expect("median of an empty sample")
        .median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn single_sample_is_every_statistic() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(
            (s.n, s.min, s.median, s.p99, s.max),
            (1, 3.5, 3.5, 3.5, 3.5)
        );
        assert_eq!(s.tail, None);
        assert_eq!(s.tail_or_median(), 3.5);
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        // Unsorted input; inclusive quantiles of 1..=5.
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!(
            (s.min, s.p25, s.median, s.p75, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!((even.p25, even.p75), (1.75, 3.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // With 20 samples the only order statistic with ten after it
        // lies below the median: no tail.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let small = Summary::of(&twenty).unwrap();
        assert_eq!(small.tail, None);
        assert_eq!(small.tail_or_median(), 10.5);
        // With 21 the order statistic at index 10 has 10 after it: the
        // 50th percentile.
        let s = Summary::of(&(0..21).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.tail, Some((0.5, 10.0)));
        // Large samples cap at the 99th percentile, which then has more
        // than ten samples beyond it.
        let big: Vec<f64> = (0..10_001).map(f64::from).collect();
        let b = Summary::of(&big).unwrap();
        assert_eq!(b.tail, Some((0.99, 9900.0)));
        assert_eq!(b.p99, 9900.0);
        assert_eq!(b.tail_or_median(), 9900.0);
    }

    #[test]
    fn tail_between_median_and_p99() {
        let s = Summary::of(&(0..511).map(f64::from).collect::<Vec<_>>()).unwrap();
        let (q, v) = s.tail.unwrap();
        assert!((q - 500.0 / 510.0).abs() < 1e-12);
        assert_eq!(v, 500.0);
        assert!(s.median < v && v < s.max);
    }
}
