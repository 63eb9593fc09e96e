//! Order statistics the benchmark reports: medians, quartiles and window
//! percentiles.

/// Sorted copy of `values` (NaNs are a bug in the caller and panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so the spread printed
/// here is the spread the acceptance procedure computes. Fewer than two
/// samples have no spread: both quartiles equal the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One reported number with the noise it was measured with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Samples behind `value` (1 for a count or a single reading).
    pub n: usize,
}

impl Measured {
    /// A single reading (a count, a ratio of counts, a one-shot time).
    pub fn single(value: f64) -> Self {
        Measured {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Median and quartiles of repeated readings.
    pub fn of(samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Measured {
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// `value` overridden (a derived figure such as a sum of medians) with
    /// the quartiles of `samples` kept as its noise.
    pub fn with_spread_of(value: f64, samples: &[f64]) -> Self {
        Measured {
            value,
            ..Measured::of(samples)
        }
    }

    /// The same reading in another unit (`by` units per old unit).
    pub fn scaled(self, by: f64) -> Self {
        Measured {
            value: self.value * by,
            q1: self.q1 * by,
            q3: self.q3 * by,
            n: self.n,
        }
    }

    /// Interquartile range as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 6.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn window_percentiles_use_the_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 99.0), 0.0);
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_value() {
        let m = Measured::of(&[9.0, 10.0, 11.0, 10.0, 10.0]);
        assert_eq!(m.value, 10.0);
        assert_eq!(m.n, 5);
        assert!((m.spread() - 0.1).abs() < 1e-12);
        assert_eq!(Measured::single(0.0).spread(), 0.0);
    }
}
