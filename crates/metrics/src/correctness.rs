//! Error metrics: Chebyshev (per-task), Euclidean (whole program), LU residual.

/// Chebyshev relative error τ between a correct output vector and the
/// ATM-approximated output vector (Eq. 1 of the paper):
///
/// ```text
/// τ = max_i |correct_i − atm_i| / max_i |correct_i|
/// ```
///
/// The reduction is a maximum rather than a sum, so it does not suffer the
/// floating-point accumulation issues of the Euclidean metric; the paper
/// found it to correlate much better with overall program correctness and
/// uses it as the per-task acceptance test during the Dynamic ATM training
/// phase (`τ < τ_max`).
///
/// Edge cases: if both vectors are all zero the error is 0; if the correct
/// vector is all zero but the approximation is not, the error is infinite.
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn chebyshev_relative_error(correct: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(
        correct.len(),
        approx.len(),
        "Chebyshev error requires vectors of equal length ({} vs {})",
        correct.len(),
        approx.len()
    );
    let mut max_abs_diff = 0.0f64;
    let mut max_abs_correct = 0.0f64;
    for (&c, &a) in correct.iter().zip(approx) {
        max_abs_diff = max_abs_diff.max((c - a).abs());
        max_abs_correct = max_abs_correct.max(c.abs());
    }
    if max_abs_diff == 0.0 {
        0.0
    } else if max_abs_correct == 0.0 {
        f64::INFINITY
    } else {
        max_abs_diff / max_abs_correct
    }
}

/// Euclidean relative error Er between the correct program output and the
/// ATM output (Eq. 3 of the paper):
///
/// ```text
/// Er = Σ_i (correct_i − atm_i)² / Σ_i correct_i²
/// ```
///
/// Used for the whole-program correctness reported in Figures 4 and 5.
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn euclidean_relative_error(correct: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(
        correct.len(),
        approx.len(),
        "Euclidean error requires vectors of equal length ({} vs {})",
        correct.len(),
        approx.len()
    );
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&c, &a) in correct.iter().zip(approx) {
        let d = c - a;
        num += d * d;
        den += c * c;
    }
    if num == 0.0 {
        0.0
    } else if den == 0.0 {
        f64::INFINITY
    } else {
        num / den
    }
}

/// LU-specific relative residual (Eq. 4 of the paper):
///
/// ```text
/// Er = |A − L·U|² / |A|²
/// ```
///
/// `a` is the original matrix and `lu_product` is the reconstructed `L·U`,
/// both flattened row-major. This is simply the Euclidean relative error of
/// the reconstruction, provided for clarity at call sites.
pub fn lu_residual_error(a: &[f64], lu_product: &[f64]) -> f64 {
    euclidean_relative_error(a, lu_product)
}

/// Converts a relative error into the "Correctness (%)" scale of Figures 4
/// and 5: `100 · (1 − Er)`, clamped to `[0, 100]`.
pub fn correctness_percent(relative_error: f64) -> f64 {
    if !relative_error.is_finite() {
        return 0.0;
    }
    (100.0 * (1.0 - relative_error)).clamp(0.0, 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chebyshev_zero_for_identical_vectors() {
        let v = vec![1.0, -2.0, 3.5];
        assert_eq!(chebyshev_relative_error(&v, &v), 0.0);
    }

    #[test]
    fn chebyshev_matches_hand_computation() {
        let correct = [2.0, -4.0, 8.0];
        let approx = [2.0, -4.4, 8.2];
        // max diff = 0.4, max |correct| = 8 -> 0.05
        assert!((chebyshev_relative_error(&correct, &approx) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn chebyshev_infinite_when_correct_is_zero_but_approx_not() {
        assert!(chebyshev_relative_error(&[0.0, 0.0], &[0.0, 1.0]).is_infinite());
        assert_eq!(chebyshev_relative_error(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn chebyshev_is_scale_invariant() {
        let correct = [1.0, 2.0, 3.0];
        let approx = [1.1, 2.0, 3.0];
        let scaled_c: Vec<f64> = correct.iter().map(|x| x * 1000.0).collect();
        let scaled_a: Vec<f64> = approx.iter().map(|x| x * 1000.0).collect();
        let e1 = chebyshev_relative_error(&correct, &approx);
        let e2 = chebyshev_relative_error(&scaled_c, &scaled_a);
        assert!((e1 - e2).abs() < 1e-12);
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        let correct = [3.0, 4.0];
        let approx = [3.0, 5.0];
        // num = 1, den = 25 -> 0.04
        assert!((euclidean_relative_error(&correct, &approx) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn euclidean_zero_and_infinite_edge_cases() {
        assert_eq!(euclidean_relative_error(&[], &[]), 0.0);
        assert_eq!(euclidean_relative_error(&[1.0], &[1.0]), 0.0);
        assert!(euclidean_relative_error(&[0.0], &[2.0]).is_infinite());
    }

    #[test]
    fn lu_residual_is_euclidean_of_reconstruction() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let lu = [1.0, 2.0, 3.0, 4.5];
        assert_eq!(
            lu_residual_error(&a, &lu),
            euclidean_relative_error(&a, &lu)
        );
    }

    #[test]
    fn correctness_percent_clamps() {
        assert_eq!(correctness_percent(0.0), 100.0);
        assert!((correctness_percent(0.05) - 95.0).abs() < 1e-9);
        assert_eq!(correctness_percent(2.0), 0.0);
        assert_eq!(correctness_percent(f64::INFINITY), 0.0);
        assert_eq!(correctness_percent(f64::NAN), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn chebyshev_length_mismatch_panics() {
        let _ = chebyshev_relative_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn euclidean_length_mismatch_panics() {
        let _ = euclidean_relative_error(&[1.0, 2.0], &[1.0]);
    }
}
