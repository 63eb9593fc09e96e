//! The Dynamic ATM training controller (§III-D of the paper).
//!
//! Dynamic ATM splits the execution into a **training phase** and a
//! **steady-state phase**. During training, every THT hit still executes the
//! task and compares the stored (approximate) outputs against the freshly
//! computed ones with the task type's error metric — the Chebyshev relative
//! error τ (Eq. 1) by default, or whatever the type's
//! [`MemoSpec`](atm_runtime::MemoSpec) selected:
//!
//! * if τ ≥ τ_max the approximation was too aggressive: the selection
//!   percentage `p` is doubled (starting from 2⁻¹⁵, so at most 15 steps
//!   until p = 100 %) and the run of correct approximations restarts;
//! * if τ < τ_max the approximation is counted; after `L_training`
//!   correctly-approximated tasks at the current `p`, the controller
//!   freezes `p` and enters the steady state, where hits are bypassed for
//!   real.
//!
//! The controller also records which output regions exceeded τ_max during
//! training (outputs with chaotic behaviour); the engine refuses to memoize
//! tasks writing those regions in the steady state.

use atm_hash::Percentage;
use atm_metrics::{chebyshev_relative_error, max_ulp_error, max_ulp_error_f32, rel_l2_error};
use atm_runtime::{ErrorMetric, RegionData, RegionId};
use std::collections::HashSet;

/// Evaluates an [`ErrorMetric`] between the correct and the approximated
/// output of one region (both viewed as `f64` vectors).
///
/// For [`ErrorMetric::MaxUlp`] this judges on the `f64` grid; prefer
/// [`evaluate_metric_data`] when the typed region data is at hand, so f32
/// outputs are judged on the f32 grid.
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn evaluate_metric(metric: ErrorMetric, correct: &[f64], approx: &[f64]) -> f64 {
    match metric {
        ErrorMetric::Chebyshev => chebyshev_relative_error(correct, approx),
        ErrorMetric::RelL2 => rel_l2_error(correct, approx),
        ErrorMetric::MaxUlp => max_ulp_error(correct, approx),
    }
}

/// Evaluates an [`ErrorMetric`] between the correct and the approximated
/// output of one region, **natively per element type**.
///
/// The relative-error metrics (Chebyshev, relative L2) are computed on the
/// values, so the `f64` view is exact for every element type. The ULP
/// metric is computed on each type's own grid: `f32` outputs count steps
/// between adjacent `f32` values (converting them to `f64` first would turn
/// one f32 step into 2²⁹ f64 steps), integer outputs count the absolute
/// integer distance.
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
        ErrorMetric::RelL2 => rel_l2_error(&correct.to_f64_vec(), &approx.to_f64_vec()),
        ErrorMetric::MaxUlp => match (correct, approx) {
            (RegionData::F32(c), RegionData::F32(a)) => max_ulp_error_f32(c, a),
            (RegionData::F64(c), RegionData::F64(a)) => max_ulp_error(c, a),
            (RegionData::I32(c), RegionData::I32(a)) => c
                .iter()
                .zip(a)
                .map(|(&x, &y)| x.abs_diff(y))
                .max()
                .unwrap_or(0) as f64,
            (RegionData::I64(c), RegionData::I64(a)) => c
                .iter()
                .zip(a)
                .map(|(&x, &y)| x.abs_diff(y))
                .max()
                .unwrap_or(0) as f64,
            (RegionData::U8(c), RegionData::U8(a)) => c
                .iter()
                .zip(a)
                .map(|(&x, &y)| x.abs_diff(y))
                .max()
                .unwrap_or(0)
                .into(),
            _ => f64::INFINITY,
        },
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
    /// The approximation was accepted, and a long streak of acceptances far
    /// under τ_max let the controller *halve* `p` again (the opt-in
    /// down-shift of [`MemoSpec::down_shift`]); the training window
    /// restarted at the sharper precision.
    ///
    /// [`MemoSpec::down_shift`]: atm_runtime::MemoSpec::down_shift
    AcceptedDownShift,
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
    metric: ErrorMetric,
    doublings: usize,
    comparisons: u64,
    rejections: u64,
    /// Opt-in down-shift: when `Some(margin)`, a streak of `l_training`
    /// consecutive acceptances with `τ < margin · τ_max` halves `p` again
    /// instead of freezing (the controller only ever doubled before).
    down_margin: Option<f64>,
    over_precise_streak: usize,
    down_shifts: u64,
    unstable_outputs: HashSet<RegionId>,
}

impl TrainingController {
    /// Creates a controller in the training phase with `p = 2⁻¹⁵` and the
    /// paper-default Chebyshev metric.
    pub fn new(l_training: usize, tau_max: f64) -> Self {
        assert!(l_training >= 1, "L_training must be at least 1");
        assert!(tau_max > 0.0, "τ_max must be positive");
        TrainingController {
            phase: Phase::Training,
            p: Percentage::MIN,
            correct_in_a_row: 0,
            l_training,
            tau_max,
            metric: ErrorMetric::Chebyshev,
            doublings: 0,
            comparisons: 0,
            rejections: 0,
            down_margin: None,
            over_precise_streak: 0,
            down_shifts: 0,
            unstable_outputs: HashSet::new(),
        }
    }

    /// Selects the error metric the training comparisons are judged with.
    #[must_use]
    pub fn with_metric(mut self, metric: ErrorMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Enables the adaptive down-shift: after `l_training` consecutive
    /// acceptances whose observed error stays below `margin · τ_max`, the
    /// controller halves `p` (down to [`Percentage::MIN`]) and restarts the
    /// training window, instead of freezing an over-precise `p`.
    #[must_use]
    pub fn with_down_shift(mut self, margin: f64) -> Self {
        assert!(
            margin.is_finite() && margin > 0.0 && margin < 1.0,
            "the down-shift margin must be in (0, 1), got {margin}"
        );
        self.down_margin = Some(margin);
        self
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

    /// The error metric training comparisons are judged with.
    pub fn metric(&self) -> ErrorMetric {
        self.metric
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
            let over_precise = self.down_margin.is_some_and(|m| tau < m * self.tau_max);
            if over_precise {
                self.over_precise_streak += 1;
            } else {
                self.over_precise_streak = 0;
            }
            // Down-shift check comes before the freeze: a whole window of
            // far-too-precise acceptances means a cheaper p is worth
            // exploring, so the window restarts at p/2 instead of freezing.
            if over_precise && self.over_precise_streak >= self.l_training && !self.p.is_min() {
                self.p = self.p.halved();
                self.down_shifts += 1;
                self.over_precise_streak = 0;
                self.correct_in_a_row = 0;
                return TrainingOutcome::AcceptedDownShift;
            }
            if self.correct_in_a_row >= self.l_training {
                self.phase = Phase::Steady;
            }
            return TrainingOutcome::Accepted;
        }

        self.rejections += 1;
        self.correct_in_a_row = 0;
        self.over_precise_streak = 0;
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

    /// Number of times `p` was doubled during training.
    pub fn doublings(&self) -> usize {
        self.doublings
    }

    /// Number of times the adaptive down-shift halved `p` again.
    pub fn down_shifts(&self) -> u64 {
        self.down_shifts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn metric_defaults_to_chebyshev_and_is_selectable() {
        let c = TrainingController::new(1, 0.01);
        assert_eq!(c.metric(), ErrorMetric::Chebyshev);
        let c = TrainingController::new(1, 0.01).with_metric(ErrorMetric::MaxUlp);
        assert_eq!(c.metric(), ErrorMetric::MaxUlp);
    }

    #[test]
    fn down_shift_lowers_p_after_an_over_precise_window() {
        let mut c = TrainingController::new(2, 0.01).with_down_shift(0.1);
        // Two rejections push p up two rungs.
        assert_eq!(c.record_comparison(1.0, &[]), TrainingOutcome::Rejected);
        assert_eq!(c.record_comparison(1.0, &[]), TrainingOutcome::Rejected);
        let high = c.current_p();
        assert!((high.fraction() - Percentage::MIN.fraction() * 4.0).abs() < 1e-15);
        // A full window of acceptances far under τ_max halves p instead of
        // freezing it.
        assert_eq!(c.record_comparison(0.0, &[]), TrainingOutcome::Accepted);
        assert_eq!(
            c.record_comparison(0.0, &[]),
            TrainingOutcome::AcceptedDownShift
        );
        assert!(c.is_training(), "a down-shift restarts the window");
        assert_eq!(c.down_shifts(), 1);
        assert!((c.current_p().fraction() - high.halved().fraction()).abs() < 1e-15);
        // Another over-precise window at p = 2·MIN shifts down to MIN …
        c.record_comparison(0.0, &[]);
        assert_eq!(
            c.record_comparison(0.0, &[]),
            TrainingOutcome::AcceptedDownShift
        );
        assert!(c.current_p().is_min());
        // … where the next window freezes (no shift below MIN).
        c.record_comparison(0.0, &[]);
        assert_eq!(c.record_comparison(0.0, &[]), TrainingOutcome::Accepted);
        assert_eq!(c.phase(), Phase::Steady);
        assert_eq!(c.down_shifts(), 2);
    }

    #[test]
    fn down_shift_needs_the_full_streak_of_over_precise_acceptances() {
        let mut c = TrainingController::new(3, 0.01).with_down_shift(0.1);
        c.record_comparison(1.0, &[]); // p -> 2·MIN
        assert_eq!(c.record_comparison(0.0, &[]), TrainingOutcome::Accepted);
        // An acceptance inside (margin·τ_max, τ_max) breaks the streak.
        assert_eq!(c.record_comparison(0.005, &[]), TrainingOutcome::Accepted);
        assert_eq!(
            c.record_comparison(0.0, &[]),
            TrainingOutcome::Accepted,
            "the window freezes: only 1 of the last 3 was over-precise"
        );
        assert_eq!(c.phase(), Phase::Steady);
        assert_eq!(c.down_shifts(), 0);
    }

    #[test]
    fn without_the_opt_in_the_controller_never_down_shifts() {
        let mut c = TrainingController::new(2, 0.01);
        c.record_comparison(1.0, &[]);
        assert_eq!(c.record_comparison(0.0, &[]), TrainingOutcome::Accepted);
        assert_eq!(c.record_comparison(0.0, &[]), TrainingOutcome::Accepted);
        assert_eq!(c.phase(), Phase::Steady);
        assert_eq!(c.down_shifts(), 0);
        assert!(
            (c.current_p().fraction() - Percentage::MIN.fraction() * 2.0).abs() < 1e-15,
            "the pre-down-shift trajectory is unchanged"
        );
    }

    #[test]
    #[should_panic(expected = "down-shift margin")]
    fn down_shift_rejects_an_out_of_range_margin() {
        let _ = TrainingController::new(1, 0.01).with_down_shift(1.5);
    }

    #[test]
    fn metric_data_judges_f32_on_the_f32_grid() {
        let x = 1.0f32;
        let next = f32::from_bits(x.to_bits() + 1);
        let correct = RegionData::F32(vec![x; 3]);
        let approx = RegionData::F32(vec![x, next, x]);
        assert_eq!(
            evaluate_metric_data(ErrorMetric::MaxUlp, &correct, &approx),
            1.0,
            "adjacent f32 values are 1 ULP apart on the f32 grid"
        );
        // The old f64-grid path saw the same pair as 2²⁹ ULPs apart.
        let widened_c: Vec<f64> = vec![f64::from(x); 3];
        let widened_a = vec![f64::from(x), f64::from(next), f64::from(x)];
        assert_eq!(
            evaluate_metric(ErrorMetric::MaxUlp, &widened_c, &widened_a),
            (1u64 << 29) as f64
        );
    }

    #[test]
    fn metric_data_handles_f64_integers_and_mismatches() {
        let next = f64::from_bits(2.0f64.to_bits() + 2);
        assert_eq!(
            evaluate_metric_data(
                ErrorMetric::MaxUlp,
                &RegionData::F64(vec![2.0]),
                &RegionData::F64(vec![next])
            ),
            2.0
        );
        assert_eq!(
            evaluate_metric_data(
                ErrorMetric::MaxUlp,
                &RegionData::I32(vec![5, -3]),
                &RegionData::I32(vec![7, -3])
            ),
            2.0
        );
        assert_eq!(
            evaluate_metric_data(
                ErrorMetric::MaxUlp,
                &RegionData::U8(vec![10]),
                &RegionData::U8(vec![250])
            ),
            240.0
        );
        // Element-type and shape mismatches can never be acceptable.
        assert!(evaluate_metric_data(
            ErrorMetric::MaxUlp,
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
        // Value metrics agree with the f64 view.
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

    #[test]
    fn evaluate_metric_dispatches_to_the_right_error() {
        let correct = [2.0, -4.0, 8.0];
        let approx = [2.0, -4.4, 8.2];
        assert!((evaluate_metric(ErrorMetric::Chebyshev, &correct, &approx) - 0.05).abs() < 1e-12);
        // RelL2 = sqrt(Σd²/Σc²) = sqrt((0.16+0.04)/84)
        let expected = (0.2f64 / 84.0).sqrt();
        assert!((evaluate_metric(ErrorMetric::RelL2, &correct, &approx) - expected).abs() < 1e-12);
        let next = f64::from_bits(2.0f64.to_bits() + 2);
        assert_eq!(evaluate_metric(ErrorMetric::MaxUlp, &[2.0], &[next]), 2.0);
    }
}
