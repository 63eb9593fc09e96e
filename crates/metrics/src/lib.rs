//! Correctness and performance metrics for the ATM evaluation.
//!
//! The paper defines (§III-D and §IV-C):
//!
//! * the **Chebyshev relative error** τ (Eq. 1), used *per task* by the
//!   Dynamic ATM training phase because it does not accumulate floating
//!   point values and correlates well with overall program accuracy;
//! * the **speedup** (Eq. 2), always measured against a no-ATM run with the
//!   same number of cores;
//! * the **Euclidean relative error** Er (Eq. 3), used for the overall
//!   program correctness of vector/matrix outputs;
//! * the **LU residual** `|A − L·U|² / |A|²` (Eq. 4), the application
//!   specific correctness of the Sparse LU benchmark;
//! * **reuse**, the percentage of tasks memoized by ATM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correctness;
pub mod summary;

pub use correctness::{
    chebyshev_relative_error, correctness_percent, euclidean_relative_error, lu_residual_error,
    max_ulp_error, max_ulp_error_f32, rel_l2_error,
};
pub use summary::{geometric_mean, reuse_percent, speedup, Speedup};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_reexports_are_usable() {
        assert!((speedup(2.0, 1.0).factor() - 2.0).abs() < 1e-12);
        assert_eq!(correctness_percent(0.0), 100.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
