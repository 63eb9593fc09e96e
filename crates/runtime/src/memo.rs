//! Per-task-type approximation policy: the [`MemoSpec`].
//!
//! The paper applies ATM *per task type*: each type independently trains its
//! own selection percentage `p` against its own `τ_max` (§III-D, Table II).
//! The `MemoSpec` makes that a first-class, declarative API — the
//! approximation policy is stated where the kernel is registered
//! ([`crate::TaskTypeBuilder::memo`]) and travels with the task type through
//! keying, training and statistics, instead of hanging off one engine-global
//! mode:
//!
//! ```
//! use atm_runtime::prelude::*;
//!
//! let info = TaskTypeBuilder::new("field_update", |_ctx| { /* … */ })
//!     .arg::<i32>()   // small control argument
//!     .arg::<f64>()   // large field argument
//!     .out::<f64>()
//!     .memo(
//!         MemoSpec::approximate()
//!             .tau(1e-3)
//!             .metric(ErrorMetric::RelL2)
//!             .training_window(32)
//!             .arg_exact(0) // hash the control argument exactly, always
//!     )
//!     .build();
//! assert!(info.memoizable());
//! ```
//!
//! Three policies are available:
//!
//! * [`MemoSpec::exact`] — exact memoization (`p = 100 %`), bit-identical
//!   results (the paper's Static ATM, now selectable per type);
//! * [`MemoSpec::approximate`] — the runtime trains `p` against the spec's
//!   [`tau`](MemoSpec::tau), [`training_window`](MemoSpec::training_window)
//!   and [`metric`](MemoSpec::metric) (the paper's Dynamic ATM);
//! * [`MemoSpec::fixed_precision`] — a constant `p` chosen offline (the
//!   paper's Oracle configurations, now declarable per type).
//!
//! On top of the type-wide precision, [`MemoSpec::arg_precision`] /
//! [`MemoSpec::arg_exact`] override the precision of individual arguments,
//! so a small control argument can be hashed exactly while a large field
//! argument is hashed approximately. Overrides are validated against the
//! task type's declared access signature at registration.

use crate::task::TaskSignature;

/// How a task type's inputs are selected for hashing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoPolicy {
    /// Exact memoization: every input byte is hashed (`p = 100 %`), a hit is
    /// only possible on bit-identical inputs.
    Exact,
    /// Adaptive approximation: the runtime trains the smallest selection
    /// percentage `p` that keeps the per-task error below the spec's `τ_max`
    /// (§III-D).
    Approximate,
    /// A constant selection fraction chosen offline (the evaluation's Oracle
    /// configurations).
    FixedPrecision(f64),
}

/// The error metric the training phase evaluates per output region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorMetric {
    /// Chebyshev relative error (Eq. 1 of the paper, the default): max
    /// absolute difference over max absolute correct value. Does not
    /// accumulate floating-point error and correlates well with program
    /// correctness.
    #[default]
    Chebyshev,
    /// Relative L2-norm error: `‖correct − approx‖₂ / ‖correct‖₂`. A
    /// norm-scale threshold for vector outputs.
    RelL2,
    /// Maximum units-in-last-place distance. `τ_max` is interpreted as a ULP
    /// *count*; meaningful near zero and across magnitudes.
    MaxUlp,
}

impl std::fmt::Display for ErrorMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorMetric::Chebyshev => "chebyshev",
            ErrorMetric::RelL2 => "rel-l2",
            ErrorMetric::MaxUlp => "max-ulp",
        })
    }
}

/// A per-argument precision override.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgPrecision {
    /// Hash every byte of this argument, regardless of the type's `p`.
    Exact,
    /// Hash this fraction of the argument's bytes, regardless of the type's
    /// `p`.
    Fraction(f64),
}

/// Why a [`MemoSpec`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoSpecError {
    /// The error threshold is not a positive finite number.
    InvalidTau {
        /// The offending threshold.
        tau: f64,
    },
    /// A precision fraction (type-wide or per-argument) is outside `(0, 1]`.
    InvalidPrecision {
        /// The offending fraction.
        precision: f64,
    },
    /// The training window must admit at least one comparison.
    ZeroTrainingWindow,
    /// A per-argument override names a parameter position the task does not
    /// have.
    ArgIndexOutOfRange {
        /// The overridden position.
        index: usize,
        /// Number of positional parameters the task declares.
        arity: usize,
    },
    /// A per-argument override names a write-only parameter; precision only
    /// applies to hashed (read) bytes.
    ArgNotRead {
        /// The overridden position.
        index: usize,
    },
    /// Two overrides name the same parameter position.
    DuplicateArgOverride {
        /// The position overridden twice.
        index: usize,
    },
    /// A type-level spec declares per-argument overrides but the task type
    /// declared no access signature to validate them against.
    OverridesRequireSignature,
    /// The down-shift margin must be a fraction strictly between 0 and 1
    /// (an acceptance counts as over-precise when its error is below
    /// `margin · τ_max`).
    InvalidDownShiftMargin {
        /// The offending margin.
        margin: f64,
    },
}

impl std::fmt::Display for MemoSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoSpecError::InvalidTau { tau } => {
                write!(f, "the error threshold must be a positive finite number, got {tau}")
            }
            MemoSpecError::InvalidPrecision { precision } => {
                write!(f, "a precision fraction must be in (0, 1], got {precision}")
            }
            MemoSpecError::ZeroTrainingWindow => {
                write!(f, "the training window must be at least 1")
            }
            MemoSpecError::ArgIndexOutOfRange { index, arity } => write!(
                f,
                "argument override #{index} is out of range: the task declares {arity} positional parameters"
            ),
            MemoSpecError::ArgNotRead { index } => write!(
                f,
                "argument override #{index} names a write-only parameter; precision applies to hashed (read) bytes"
            ),
            MemoSpecError::DuplicateArgOverride { index } => {
                write!(f, "argument #{index} has more than one precision override")
            }
            MemoSpecError::OverridesRequireSignature => write!(
                f,
                "per-argument overrides require the task type to declare an access signature"
            ),
            MemoSpecError::InvalidDownShiftMargin { margin } => write!(
                f,
                "the down-shift margin must be strictly between 0 and 1, got {margin}"
            ),
        }
    }
}

impl std::error::Error for MemoSpecError {}

/// The approximation policy of one memoizable task type.
///
/// Built fluently from one of the three policy constructors; see the
/// [module docs](self) for the full picture.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoSpec {
    policy: MemoPolicy,
    tau: f64,
    training_window: usize,
    metric: ErrorMetric,
    down_shift: Option<f64>,
    arg_overrides: Vec<(usize, ArgPrecision)>,
}

impl Default for MemoSpec {
    /// The paper's Dynamic ATM defaults: approximate, `τ_max = 1 %`,
    /// `L_training = 15`, Chebyshev metric, type-aware byte selection.
    fn default() -> Self {
        MemoSpec::approximate()
    }
}

impl MemoSpec {
    fn new(policy: MemoPolicy) -> Self {
        MemoSpec {
            policy,
            // τ_max = 1 % "provides good results" for most benchmarks
            // (§IV-A); at least 15 training tasks are needed to let the
            // trained p reach 100 %.
            tau: 0.01,
            training_window: 15,
            metric: ErrorMetric::Chebyshev,
            down_shift: None,
            arg_overrides: Vec::new(),
        }
    }

    /// Exact memoization: hash everything, hit only on identical inputs.
    pub fn exact() -> Self {
        MemoSpec::new(MemoPolicy::Exact)
    }

    /// Adaptive approximation with the paper's default training parameters
    /// (`τ_max = 1 %`, `L_training = 15`, Chebyshev).
    pub fn approximate() -> Self {
        MemoSpec::new(MemoPolicy::Approximate)
    }

    /// A constant selection fraction in `(0, 1]`, chosen offline.
    pub fn fixed_precision(p: f64) -> Self {
        MemoSpec::new(MemoPolicy::FixedPrecision(p))
    }

    /// Sets the maximum tolerated per-task error `τ_max` (a relative error
    /// for [`ErrorMetric::Chebyshev`]/[`ErrorMetric::RelL2`], a ULP count
    /// for [`ErrorMetric::MaxUlp`]).
    #[must_use]
    pub fn tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Sets the number of correctly-approximated training tasks required
    /// before `p` is frozen (the paper's `L_training`).
    #[must_use]
    pub fn training_window(mut self, window: usize) -> Self {
        self.training_window = window;
        self
    }

    /// Selects the error metric evaluated per output region during training.
    #[must_use]
    pub fn metric(mut self, metric: ErrorMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Opts an [`MemoSpec::approximate`] type into the adaptive
    /// **down-shift**: when a full training window of acceptances stays
    /// below `margin · τ_max` (far more precise than required), the trained
    /// `p` is *halved* again and the window restarts, instead of freezing
    /// an over-precise selection percentage. Off by default — the default
    /// controller only ever doubles `p`, exactly as in the paper.
    ///
    /// `margin` must be strictly between 0 and 1.
    #[must_use]
    pub fn down_shift(mut self, margin: f64) -> Self {
        self.down_shift = Some(margin);
        self
    }

    /// Overrides the precision of the positional parameter `index` to a
    /// constant fraction of its bytes, independent of the type-wide `p`.
    #[must_use]
    pub fn arg_precision(mut self, index: usize, fraction: f64) -> Self {
        self.arg_overrides
            .push((index, ArgPrecision::Fraction(fraction)));
        self
    }

    /// Hashes the positional parameter `index` exactly (every byte), so a
    /// small control argument never aliases under approximation while the
    /// large data arguments are still hashed at the type's `p`.
    #[must_use]
    pub fn arg_exact(mut self, index: usize) -> Self {
        self.arg_overrides.push((index, ArgPrecision::Exact));
        self
    }

    /// The selection policy.
    pub fn policy(&self) -> MemoPolicy {
        self.policy
    }

    /// The error threshold `τ_max`.
    pub fn tau_max(&self) -> f64 {
        self.tau
    }

    /// The training window `L_training`.
    pub fn training_window_len(&self) -> usize {
        self.training_window
    }

    /// The training error metric.
    pub fn error_metric(&self) -> ErrorMetric {
        self.metric
    }

    /// The adaptive down-shift margin, when the spec opted in.
    pub fn down_shift_margin(&self) -> Option<f64> {
        self.down_shift
    }

    /// The declared per-argument overrides, in declaration order.
    pub fn arg_overrides(&self) -> &[(usize, ArgPrecision)] {
        &self.arg_overrides
    }

    /// The precision override of positional parameter `index`, if any.
    pub fn precision_override(&self, index: usize) -> Option<ArgPrecision> {
        self.arg_overrides
            .iter()
            .find(|(i, _)| *i == index)
            .map(|&(_, p)| p)
    }

    /// Validates the spec against the task type's declared access
    /// signature (called by [`crate::TaskTypeBuilder::build`]): the numeric
    /// fields, the override list itself (duplicates, fraction ranges), and
    /// that every override names a readable positional parameter.
    pub fn validate(&self, signature: Option<&TaskSignature>) -> Result<(), MemoSpecError> {
        if !(self.tau.is_finite() && self.tau > 0.0) {
            return Err(MemoSpecError::InvalidTau { tau: self.tau });
        }
        if self.training_window == 0 {
            return Err(MemoSpecError::ZeroTrainingWindow);
        }
        if let Some(margin) = self.down_shift {
            if !(margin.is_finite() && margin > 0.0 && margin < 1.0) {
                return Err(MemoSpecError::InvalidDownShiftMargin { margin });
            }
        }
        if let MemoPolicy::FixedPrecision(p) = self.policy {
            if !(p.is_finite() && p > 0.0 && p <= 1.0) {
                return Err(MemoSpecError::InvalidPrecision { precision: p });
            }
        }
        for (index, (arg, precision)) in self.arg_overrides.iter().enumerate() {
            if let ArgPrecision::Fraction(f) = precision {
                if !(f.is_finite() && *f > 0.0 && *f <= 1.0) {
                    return Err(MemoSpecError::InvalidPrecision { precision: *f });
                }
            }
            if self.arg_overrides[..index].iter().any(|(i, _)| i == arg) {
                return Err(MemoSpecError::DuplicateArgOverride { index: *arg });
            }
        }
        if self.arg_overrides.is_empty() {
            return Ok(());
        }
        let Some(signature) = signature else {
            return Err(MemoSpecError::OverridesRequireSignature);
        };
        for &(index, _) in &self.arg_overrides {
            // Overrides address the fixed positional parameters; a variadic
            // tail has no stable positions to override.
            let param = signature.fixed.get(index).ok_or({
                MemoSpecError::ArgIndexOutOfRange {
                    index,
                    arity: signature.fixed.len(),
                }
            })?;
            if !param.mode.is_read() {
                return Err(MemoSpecError::ArgNotRead { index });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMode;
    use crate::task::SigParam;
    use crate::{ElemType, TaskSignature, VariadicSig};

    fn sig(params: &[(AccessMode, ElemType)]) -> TaskSignature {
        TaskSignature {
            fixed: params
                .iter()
                .map(|&(mode, elem)| SigParam { mode, elem })
                .collect(),
            variadic: None,
        }
    }

    #[test]
    fn defaults_match_the_paper() {
        let spec = MemoSpec::default();
        assert_eq!(spec.policy(), MemoPolicy::Approximate);
        assert!((spec.tau_max() - 0.01).abs() < 1e-12);
        assert_eq!(spec.training_window_len(), 15);
        assert_eq!(spec.error_metric(), ErrorMetric::Chebyshev);
        assert!(spec.arg_overrides().is_empty());
        assert_eq!(spec.down_shift_margin(), None, "down-shift is opt-in");
        assert_eq!(spec.validate(None), Ok(()));
    }

    #[test]
    fn down_shift_margin_is_validated() {
        let spec = MemoSpec::approximate().down_shift(0.1);
        assert_eq!(spec.down_shift_margin(), Some(0.1));
        assert_eq!(spec.validate(None), Ok(()));
        for margin in [0.0, 1.0, -0.5, f64::NAN] {
            assert!(
                matches!(
                    MemoSpec::approximate().down_shift(margin).validate(None),
                    Err(MemoSpecError::InvalidDownShiftMargin { .. })
                ),
                "margin = {margin} must be rejected"
            );
        }
    }

    #[test]
    fn fluent_setters_compose() {
        let spec = MemoSpec::approximate()
            .tau(1e-3)
            .metric(ErrorMetric::RelL2)
            .training_window(32)
            .arg_exact(0)
            .arg_precision(2, 0.25);
        assert!((spec.tau_max() - 1e-3).abs() < 1e-15);
        assert_eq!(spec.training_window_len(), 32);
        assert_eq!(spec.error_metric(), ErrorMetric::RelL2);
        assert_eq!(spec.precision_override(0), Some(ArgPrecision::Exact));
        assert_eq!(
            spec.precision_override(2),
            Some(ArgPrecision::Fraction(0.25))
        );
        assert_eq!(spec.precision_override(1), None);
    }

    #[test]
    fn invalid_tau_is_rejected() {
        for tau in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            // NaN != NaN under PartialEq, so match on the variant.
            assert!(
                matches!(
                    MemoSpec::approximate().tau(tau).validate(None),
                    Err(MemoSpecError::InvalidTau { .. })
                ),
                "tau = {tau} must be rejected"
            );
        }
        assert_eq!(MemoSpec::approximate().tau(0.5).validate(None), Ok(()));
    }

    #[test]
    fn invalid_fixed_precision_is_rejected() {
        for p in [0.0, -0.5, 1.5, f64::INFINITY] {
            assert_eq!(
                MemoSpec::fixed_precision(p).validate(None),
                Err(MemoSpecError::InvalidPrecision { precision: p })
            );
        }
        assert_eq!(MemoSpec::fixed_precision(1.0).validate(None), Ok(()));
    }

    #[test]
    fn invalid_arg_fraction_is_rejected() {
        let signature = sig(&[(AccessMode::In, ElemType::F32)]);
        assert_eq!(
            MemoSpec::approximate()
                .arg_precision(0, 0.0)
                .validate(Some(&signature)),
            Err(MemoSpecError::InvalidPrecision { precision: 0.0 })
        );
    }

    #[test]
    fn zero_training_window_is_rejected() {
        assert_eq!(
            MemoSpec::approximate().training_window(0).validate(None),
            Err(MemoSpecError::ZeroTrainingWindow)
        );
    }

    #[test]
    fn out_of_range_override_is_rejected() {
        let signature = sig(&[
            (AccessMode::In, ElemType::F32),
            (AccessMode::Out, ElemType::F32),
        ]);
        assert_eq!(
            MemoSpec::approximate()
                .arg_exact(2)
                .validate(Some(&signature)),
            Err(MemoSpecError::ArgIndexOutOfRange { index: 2, arity: 2 })
        );
        // A variadic tail has no stable positions: overrides only address
        // the fixed parameters.
        let variadic = TaskSignature {
            fixed: vec![SigParam {
                mode: AccessMode::In,
                elem: ElemType::F32,
            }],
            variadic: Some(VariadicSig {
                mode: Some(AccessMode::In),
                elem: ElemType::F32,
                min: 4,
            }),
        };
        assert_eq!(
            MemoSpec::approximate()
                .arg_exact(3)
                .validate(Some(&variadic)),
            Err(MemoSpecError::ArgIndexOutOfRange { index: 3, arity: 1 })
        );
    }

    #[test]
    fn override_on_write_only_parameter_is_rejected() {
        let signature = sig(&[
            (AccessMode::In, ElemType::F32),
            (AccessMode::Out, ElemType::F32),
        ]);
        assert_eq!(
            MemoSpec::approximate()
                .arg_exact(1)
                .validate(Some(&signature)),
            Err(MemoSpecError::ArgNotRead { index: 1 })
        );
        // InOut parameters are read, so they can be overridden.
        let inout = sig(&[(AccessMode::InOut, ElemType::F32)]);
        assert_eq!(
            MemoSpec::approximate().arg_exact(0).validate(Some(&inout)),
            Ok(())
        );
    }

    #[test]
    fn duplicate_override_is_rejected() {
        let signature = sig(&[(AccessMode::In, ElemType::F32)]);
        assert_eq!(
            MemoSpec::approximate()
                .arg_exact(0)
                .arg_precision(0, 0.5)
                .validate(Some(&signature)),
            Err(MemoSpecError::DuplicateArgOverride { index: 0 })
        );
    }

    #[test]
    fn overrides_without_a_signature_are_rejected() {
        assert_eq!(
            MemoSpec::approximate().arg_exact(0).validate(None),
            Err(MemoSpecError::OverridesRequireSignature)
        );
    }

    #[test]
    fn errors_render_readable_messages() {
        let errors: [MemoSpecError; 7] = [
            MemoSpecError::InvalidTau { tau: -1.0 },
            MemoSpecError::InvalidPrecision { precision: 2.0 },
            MemoSpecError::ZeroTrainingWindow,
            MemoSpecError::ArgIndexOutOfRange { index: 3, arity: 2 },
            MemoSpecError::ArgNotRead { index: 1 },
            MemoSpecError::DuplicateArgOverride { index: 0 },
            MemoSpecError::OverridesRequireSignature,
        ];
        for error in errors {
            assert!(!error.to_string().is_empty());
        }
        assert_eq!(format!("{}", ErrorMetric::RelL2), "rel-l2");
        assert_eq!(format!("{}", ErrorMetric::MaxUlp), "max-ulp");
        assert_eq!(format!("{}", ErrorMetric::Chebyshev), "chebyshev");
    }
}
