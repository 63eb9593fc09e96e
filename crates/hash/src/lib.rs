//! Hashing and input-sampling substrate for Approximate Task Memoization (ATM).
//!
//! The ATM paper (Brumar et al., IPDPS 2017, §III-B/§III-C) builds its hash
//! keys from the concatenated bytes of a task's data inputs:
//!
//! 1. the input bytes are viewed as one long vector of `N` bytes,
//! 2. a vector of `N` indexes into that vector is shuffled once per task
//!    type (optionally in *type-aware* order, most-significant bytes first),
//! 3. the first `N·p` shuffled indexes (for a percentage `0 < p ≤ 1`) select
//!    the bytes that are fed to a Bob Jenkins hash function, producing an
//!    8-byte hash key stored in the Task History Table.
//!
//! This crate provides those pieces as reusable, dependency-free components:
//!
//! * [`jenkins`] — Bob Jenkins' `lookup3` hash (`hashlittle2`, combined into
//!   a 64-bit key), one-shot and streaming: the paper's key function, used
//!   for every key and for sampled bytes.
//! * [`digest`] — the four-lane multiply–rotate digest an exact argument
//!   contributes to its key: every byte of the argument, a 64-bit word at a
//!   time, four lanes in parallel.
//! * [`prng`] — a deterministic SplitMix64 / Xoshiro256** pseudo-random
//!   number generator used for the index shuffles and by the workload
//!   generators of the application suite (task kernels must be deterministic
//!   for memoization to be sound, so all randomness is explicitly seeded).
//! * [`shuffle`] — Fisher–Yates shuffling plus the significance-ordered
//!   (MSB-first) shuffle used by type-aware input selection.
//! * [`sampler`] — [`InputSampler`], the per-task-type object that owns the
//!   cached shuffled index vector and turns `(input bytes, p)` into a key.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod jenkins;
pub mod prng;
pub mod sampler;
pub mod shuffle;

pub use digest::{digest64, DigestStream};
pub use jenkins::{hashlittle2, jenkins_hash64, JenkinsStream};
pub use prng::{SplitMix64, Xoshiro256StarStar};
pub use sampler::{ByteLayout, InputSampler, PlannedByte, SampledKey};
pub use shuffle::{fisher_yates, significance_ordered_indices};

/// Fraction of selected input bytes, `0 < p ≤ 1`.
///
/// The paper expresses this as a percentage; internally we keep it as a
/// fraction. `Percentage::FULL` corresponds to Static ATM (p = 100 %), the
/// training phase of Dynamic ATM starts at `Percentage::MIN` (p = 2⁻¹⁵).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Percentage(f64);

impl Percentage {
    /// The smallest percentage explored by Dynamic ATM: 2⁻¹⁵ (≈ 0.003 %).
    pub const MIN: Percentage = Percentage(1.0 / 32768.0);
    /// Full input selection (Static ATM).
    pub const FULL: Percentage = Percentage(1.0);
    /// Number of doubling steps from [`Percentage::MIN`] to [`Percentage::FULL`].
    pub const STEPS: usize = 15;

    /// Creates a percentage from a fraction in `(0, 1]`.
    ///
    /// Values are clamped into `(MIN/2, 1]` so that arithmetic on the
    /// training ladder stays well defined.
    pub fn from_fraction(f: f64) -> Self {
        assert!(
            f.is_finite() && f > 0.0,
            "percentage must be positive, got {f}"
        );
        Percentage(f.min(1.0))
    }

    /// The percentage reached after `step` doublings starting from 2⁻¹⁵.
    ///
    /// `step = 0` gives 2⁻¹⁵ and `step >= 15` gives 100 %.
    pub fn from_training_step(step: usize) -> Self {
        let exp = 15usize.saturating_sub(step);
        Percentage((1.0f64 / f64::from(1u32 << exp.min(15))).min(1.0))
    }

    /// Returns the fraction in `(0, 1]`.
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// Doubles the percentage, saturating at 100 %.
    #[must_use]
    pub fn doubled(self) -> Self {
        Percentage((self.0 * 2.0).min(1.0))
    }

    /// True when the full input is selected (Static ATM).
    pub fn is_full(self) -> bool {
        self.0 >= 1.0
    }

    /// Number of bytes selected out of `total` input bytes.
    ///
    /// At least one byte is always selected so that even tiny inputs produce
    /// a meaningful key.
    pub fn bytes_of(self, total: usize) -> usize {
        if total == 0 {
            return 0;
        }
        (((total as f64) * self.0).ceil() as usize).clamp(1, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentage_training_ladder_spans_min_to_full() {
        assert!(
            (Percentage::from_training_step(0).fraction() - Percentage::MIN.fraction()).abs()
                < 1e-12
        );
        assert!(Percentage::from_training_step(15).is_full());
        assert!(Percentage::from_training_step(40).is_full());
        let mut p = Percentage::MIN;
        for step in 1..=15 {
            p = p.doubled();
            assert!(
                (p.fraction() - Percentage::from_training_step(step).fraction()).abs() < 1e-12,
                "doubling chain must match the training ladder at step {step}"
            );
        }
    }

    #[test]
    fn percentage_bytes_of_selects_at_least_one_byte() {
        assert_eq!(Percentage::MIN.bytes_of(10), 1);
        assert_eq!(Percentage::FULL.bytes_of(10), 10);
        assert_eq!(Percentage::from_fraction(0.5).bytes_of(10), 5);
        assert_eq!(Percentage::FULL.bytes_of(0), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn percentage_rejects_zero() {
        let _ = Percentage::from_fraction(0.0);
    }

    #[test]
    fn percentage_clamps_above_one() {
        assert!(Percentage::from_fraction(3.0).is_full());
    }
}
