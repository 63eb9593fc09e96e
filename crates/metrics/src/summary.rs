//! Performance summary metrics: speedup, reuse, geometric mean.

/// A speedup value with its constituent execution times, as defined by
/// Eq. 2 of the paper: `speedup = T_no_ATM / T_ATM`, both measured with the
/// same number of cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    /// Execution time of the baseline (without ATM), in seconds.
    pub baseline_seconds: f64,
    /// Execution time with ATM enabled, in seconds.
    pub atm_seconds: f64,
}

impl Speedup {
    /// The speedup factor `baseline / atm`.
    pub fn factor(&self) -> f64 {
        if self.atm_seconds <= 0.0 {
            return f64::INFINITY;
        }
        self.baseline_seconds / self.atm_seconds
    }
}

/// Builds a [`Speedup`] from a baseline time and an ATM time (seconds).
pub fn speedup(baseline_seconds: f64, atm_seconds: f64) -> Speedup {
    Speedup {
        baseline_seconds,
        atm_seconds,
    }
}

/// Percentage of tasks that were memoized (bypassed) by ATM out of all the
/// tasks of the memoized task type: the paper's "reuse" metric (§IV-C).
pub fn reuse_percent(memoized_tasks: u64, total_tasks: u64) -> f64 {
    if total_tasks == 0 {
        return 0.0;
    }
    100.0 * memoized_tasks as f64 / total_tasks as f64
}

/// Geometric mean of a set of positive values (used for the "geomean" bars
/// of Figures 3, 4 and 6).
///
/// Returns `NaN` for an empty slice and panics on non-positive values,
/// which would indicate a measurement bug.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut log_sum = 0.0f64;
    for &v in values {
        assert!(v > 0.0, "geometric mean requires positive values, got {v}");
        log_sum += v.ln();
    }
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_factor_and_slowdown_detection() {
        assert!((speedup(10.0, 5.0).factor() - 2.0).abs() < 1e-12);
        assert!(
            speedup(5.0, 10.0).factor() < 1.0,
            "a slowdown reads below 1"
        );
        assert!(speedup(1.0, 0.0).factor().is_infinite());
    }

    #[test]
    fn reuse_percent_basics() {
        assert_eq!(reuse_percent(0, 0), 0.0);
        assert_eq!(reuse_percent(0, 10), 0.0);
        assert_eq!(reuse_percent(5, 10), 50.0);
        assert_eq!(reuse_percent(10, 10), 100.0);
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn geometric_mean_is_between_min_and_max() {
        let vals = [0.5, 1.4, 2.5, 8.8, 1.07];
        let g = geometric_mean(&vals);
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(g >= min && g <= max);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geometric_mean_rejects_non_positive() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }
}
