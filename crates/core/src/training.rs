//! The Dynamic ATM training controller (§III-D of the paper).
//!
//! Dynamic ATM splits the execution into a **training phase** and a
//! **steady-state phase**. During training, every THT hit still executes the
//! task and compares the stored (approximate) outputs against the freshly
//! computed ones with the Chebyshev relative error τ (Eq. 1). The rule is the
//! paper's, with its two knobs `τ_max` and `L_training`:
//!
//! * if τ ≥ τ_max the approximation was too aggressive: the selection
//!   percentage `p` is doubled (starting from 2⁻¹⁵, so at most 15 steps
//!   until p = 100 %) and the run of correct approximations restarts;
//! * if τ < τ_max the approximation is counted; after `L_training`
//!   correctly-approximated tasks at the current `p`, the controller
//!   freezes `p` and enters the steady state, where hits are bypassed for
//!   real.
//!
//! `p` therefore only ever climbs the ladder: it is always
//! `Percentage::from_training_step(doublings())`.
//!
//! The controller also records which output regions exceeded τ_max during
//! training (outputs with chaotic behaviour); the engine refuses to memoize
//! tasks writing those regions in the steady state.

use atm_hash::Percentage;
use atm_metrics::chebyshev_relative_error;
use atm_runtime::{ErrorMetric, RegionData, RegionId};
use std::collections::HashSet;

/// Evaluates an [`ErrorMetric`] between the correct and the approximated
/// output of one region, viewed as `f64` values (exact for every element
/// type).
///
/// Shape or element-type mismatches yield infinity (a stored entry that no
/// longer matches the task's outputs can never be an acceptable
/// approximation).
pub fn evaluate_metric_data(metric: ErrorMetric, correct: &RegionData, approx: &RegionData) -> f64 {
    if correct.len() != approx.len() || correct.elem_type() != approx.elem_type() {
        return f64::INFINITY;
    }
    match metric {
        ErrorMetric::Chebyshev => {
            chebyshev_relative_error(&correct.to_f64_vec(), &approx.to_f64_vec())
        }
    }
}

/// Phase of the Dynamic ATM controller for one task type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Exploring `p`; hits are verified by executing the task anyway.
    Training,
    /// `p` is frozen; hits bypass execution.
    Steady,
}

/// Outcome of a training-phase comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingOutcome {
    /// The approximation was within τ_max and counted towards `L_training`.
    Accepted,
    /// The approximation exceeded τ_max; `p` was doubled.
    Rejected,
    /// The approximation exceeded τ_max and `p` was already 100 %: the
    /// outputs are chaotic (only possible through output regions that do
    /// not respond to approximation at all).
    RejectedAtFullP,
}

/// Per-task-type adaptive state.
#[derive(Debug, Clone)]
pub struct TrainingController {
    phase: Phase,
    p: Percentage,
    correct_in_a_row: usize,
    l_training: usize,
    tau_max: f64,
    doublings: usize,
    comparisons: u64,
    rejections: u64,
    unstable_outputs: HashSet<RegionId>,
}

impl TrainingController {
    /// Creates a controller in the training phase with `p = 2⁻¹⁵`.
    pub fn new(l_training: usize, tau_max: f64) -> Self {
        assert!(l_training >= 1, "L_training must be at least 1");
        assert!(tau_max > 0.0, "τ_max must be positive");
        TrainingController {
            phase: Phase::Training,
            p: Percentage::MIN,
            correct_in_a_row: 0,
            l_training,
            tau_max,
            doublings: 0,
            comparisons: 0,
            rejections: 0,
            unstable_outputs: HashSet::new(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// True while the controller is still training.
    pub fn is_training(&self) -> bool {
        self.phase == Phase::Training
    }

    /// The selection percentage to use for the next task of this type.
    pub fn current_p(&self) -> Percentage {
        self.p
    }

    /// The τ_max threshold.
    pub fn tau_max(&self) -> f64 {
        self.tau_max
    }

    /// Number of training comparisons performed so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of rejected approximations (each one doubled `p`).
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Output regions that exceeded τ_max during training.
    pub fn unstable_outputs(&self) -> &HashSet<RegionId> {
        &self.unstable_outputs
    }

    /// True when `region` was found to respond badly to approximation.
    pub fn is_unstable(&self, region: RegionId) -> bool {
        self.unstable_outputs.contains(&region)
    }

    /// Records the result of a training-phase comparison.
    ///
    /// `tau` is the Chebyshev relative error between the THT-stored outputs
    /// and the freshly computed outputs; `failing_regions` are the output
    /// regions whose individual error exceeded τ_max (recorded as unstable).
    ///
    /// # Panics
    /// Panics if called in the steady state.
    pub fn record_comparison(&mut self, tau: f64, failing_regions: &[RegionId]) -> TrainingOutcome {
        assert!(
            self.is_training(),
            "training comparisons only happen in the training phase"
        );
        self.comparisons += 1;
        if tau < self.tau_max {
            self.correct_in_a_row += 1;
            if self.correct_in_a_row >= self.l_training {
                self.phase = Phase::Steady;
            }
            return TrainingOutcome::Accepted;
        }

        self.rejections += 1;
        self.correct_in_a_row = 0;
        for &region in failing_regions {
            self.unstable_outputs.insert(region);
        }
        if self.p.is_full() {
            // Cannot become more conservative: the offending outputs are
            // simply excluded from memoization (the Jacobi case in §IV-A).
            TrainingOutcome::RejectedAtFullP
        } else {
            self.p = self.p.doubled();
            self.doublings += 1;
            TrainingOutcome::Rejected
        }
    }

    /// Number of times `p` was doubled during training: the controller's
    /// step on the training ladder.
    pub fn doublings(&self) -> usize {
        self.doublings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_hash::Xoshiro256StarStar;

    #[test]
    fn starts_at_minimum_p_in_training() {
        let c = TrainingController::new(15, 0.01);
        assert!(c.is_training());
        assert_eq!(c.current_p(), Percentage::MIN);
        assert_eq!(c.doublings(), 0);
    }

    #[test]
    fn accepts_until_l_training_then_freezes() {
        let mut c = TrainingController::new(3, 0.01);
        assert_eq!(c.record_comparison(0.0, &[]), TrainingOutcome::Accepted);
        assert_eq!(c.record_comparison(0.001, &[]), TrainingOutcome::Accepted);
        assert!(c.is_training());
        assert_eq!(c.record_comparison(0.0, &[]), TrainingOutcome::Accepted);
        assert_eq!(c.phase(), Phase::Steady);
        assert_eq!(
            c.current_p(),
            Percentage::MIN,
            "p must not change when approximations are correct"
        );
        assert_eq!(c.comparisons(), 3);
    }

    #[test]
    fn rejection_doubles_p_and_resets_the_streak() {
        let mut c = TrainingController::new(2, 0.01);
        assert_eq!(c.record_comparison(0.0, &[]), TrainingOutcome::Accepted);
        assert_eq!(c.record_comparison(0.5, &[]), TrainingOutcome::Rejected);
        assert!((c.current_p().fraction() - Percentage::MIN.fraction() * 2.0).abs() < 1e-12);
        assert_eq!(c.rejections(), 1);
        // The streak restarted: two more acceptances are needed.
        assert_eq!(c.record_comparison(0.0, &[]), TrainingOutcome::Accepted);
        assert!(c.is_training());
        assert_eq!(c.record_comparison(0.0, &[]), TrainingOutcome::Accepted);
        assert_eq!(c.phase(), Phase::Steady);
    }

    #[test]
    fn fifteen_rejections_reach_full_p() {
        let mut c = TrainingController::new(1, 0.01);
        for _ in 0..Percentage::STEPS {
            assert_eq!(c.record_comparison(1.0, &[]), TrainingOutcome::Rejected);
        }
        assert!(c.current_p().is_full());
        assert_eq!(
            c.record_comparison(1.0, &[]),
            TrainingOutcome::RejectedAtFullP
        );
        assert!(c.current_p().is_full());
        assert_eq!(c.doublings(), Percentage::STEPS);
    }

    #[test]
    fn failing_regions_are_recorded_as_unstable() {
        let mut c = TrainingController::new(1, 0.01);
        let chaotic = RegionId::from_raw(7);
        c.record_comparison(0.9, &[chaotic]);
        assert!(c.is_unstable(chaotic));
        assert!(!c.is_unstable(RegionId::from_raw(8)));
        assert_eq!(c.unstable_outputs().len(), 1);
    }

    /// The ladder only climbs: over random comparison streams (`L` in
    /// 1..=20, τ on both sides of τ_max) every step keeps the controller's
    /// invariants.
    #[test]
    fn random_streams_only_climb_the_ladder() {
        let mut rng = Xoshiro256StarStar::new(0x1ADDE2);
        for _ in 0..1_000 {
            let l = 1 + rng.below(20);
            let tau_max = rng.range_f64(1e-4, 1.0);
            let reject_odds = rng.next_f64();
            let mut c = TrainingController::new(l, tau_max);
            let mut accepted: Vec<bool> = Vec::new();
            let mut named = HashSet::new();
            while c.is_training() && accepted.len() < 200 {
                let before = c.current_p();
                let reject = rng.next_f64() < reject_odds;
                let tau = if reject {
                    tau_max * rng.range_f64(1.0, 10.0)
                } else {
                    tau_max * rng.range_f64(0.0, 0.999)
                };
                let failing: Vec<RegionId> = (0..rng.below(3))
                    .map(|_| RegionId::from_raw(rng.below(8) as u32))
                    .collect();
                let outcome = c.record_comparison(tau, &failing);
                accepted.push(outcome == TrainingOutcome::Accepted);
                if outcome != TrainingOutcome::Accepted {
                    named.extend(failing);
                }

                assert!(c.current_p() >= before, "p never decreases");
                assert_eq!(c.current_p(), Percentage::from_training_step(c.doublings()));
                let last_l_accepted =
                    accepted.len() >= l && accepted[accepted.len() - l..].iter().all(|&a| a);
                assert_eq!(c.phase() == Phase::Steady, last_l_accepted);
                if outcome == TrainingOutcome::RejectedAtFullP {
                    assert!(before.is_full());
                }
                assert_eq!(c.unstable_outputs(), &named);
            }
        }
    }

    #[test]
    #[should_panic(expected = "training phase")]
    fn comparisons_in_steady_state_panic() {
        let mut c = TrainingController::new(1, 0.01);
        c.record_comparison(0.0, &[]);
        assert!(!c.is_training());
        c.record_comparison(0.0, &[]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_l_training_is_rejected() {
        let _ = TrainingController::new(0, 0.01);
    }

    #[test]
    fn metric_data_handles_f64_integers_and_mismatches() {
        assert_eq!(
            evaluate_metric_data(
                ErrorMetric::Chebyshev,
                &RegionData::I32(vec![5, -10]),
                &RegionData::I32(vec![7, -10])
            ),
            0.2
        );
        // Element-type and shape mismatches can never be acceptable.
        assert!(evaluate_metric_data(
            ErrorMetric::Chebyshev,
            &RegionData::F32(vec![1.0]),
            &RegionData::F64(vec![1.0])
        )
        .is_infinite());
        assert!(evaluate_metric_data(
            ErrorMetric::Chebyshev,
            &RegionData::F64(vec![1.0]),
            &RegionData::F64(vec![1.0, 2.0])
        )
        .is_infinite());
        // Chebyshev on f32 agrees with the f64 view.
        assert!(
            (evaluate_metric_data(
                ErrorMetric::Chebyshev,
                &RegionData::F32(vec![2.0, -4.0, 8.0]),
                &RegionData::F32(vec![2.0, -4.4, 8.2])
            ) - 0.05)
                .abs()
                < 1e-6
        );
    }
}
