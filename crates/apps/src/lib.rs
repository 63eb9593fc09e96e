//! The six applications evaluated in the ATM paper, taskified on the
//! `atm-runtime` dataflow runtime with the paper's memoized task types.
//!
//! | Benchmark | Domain | Memoized task type | Redundancy source |
//! |-----------|--------|--------------------|-------------------|
//! | [`blackscholes`] | financial analysis | `bs_thread` | repetitive program input + repeated outer iterations |
//! | [`stencil`] (Gauss-Seidel) | stencil computation | `stencilComputation` | slow heat front + saturated initialisation |
//! | [`stencil`] (Jacobi) | stencil computation | `stencilComputation` | same, with per-iteration barriers |
//! | [`kmeans`] | machine learning | `kmeans_calculate` | per-cluster convergence (approximate-only) |
//! | [`sparselu`] | linear algebra | `bmod` | repeated sparse block patterns |
//! | [`swaptions`] | financial analysis | `HJM_Swaption_Blocking` | replicated + perturbed swaption records |
//!
//! Every application offers a sequential reference, a taskified version and
//! the correctness metric of Table I, behind the common [`BenchmarkApp`]
//! trait. Use [`build_app`] to instantiate a benchmark by name at a given
//! [`Scale`].

#![warn(missing_docs)]

pub mod blackscholes;
pub mod common;
pub mod kmeans;
pub mod sparselu;
pub mod stencil;
pub mod swaptions;

pub use common::{AppRun, BenchmarkApp, RunOptions, Scale, TableInfo, TaskedRun};

use blackscholes::Blackscholes;
use kmeans::Kmeans;
use sparselu::SparseLu;
use stencil::{Stencil, StencilVariant};
use swaptions::Swaptions;

/// Identifier of one of the six evaluated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// Black–Scholes option pricing.
    Blackscholes,
    /// Gauss-Seidel heat diffusion.
    GaussSeidel,
    /// Jacobi heat diffusion.
    Jacobi,
    /// Kmeans clustering.
    Kmeans,
    /// Sparse blocked LU decomposition.
    SparseLu,
    /// HJM Monte-Carlo swaption pricing.
    Swaptions,
}

impl AppId {
    /// All applications, in the order the paper's figures list them.
    pub const ALL: [AppId; 6] = [
        AppId::Blackscholes,
        AppId::GaussSeidel,
        AppId::Jacobi,
        AppId::Kmeans,
        AppId::SparseLu,
        AppId::Swaptions,
    ];

    /// The display name used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Blackscholes => "Blackscholes",
            AppId::GaussSeidel => "Gauss-Seidel",
            AppId::Jacobi => "Jacobi",
            AppId::Kmeans => "Kmeans",
            AppId::SparseLu => "LU",
            AppId::Swaptions => "Swaptions",
        }
    }

    /// Short name (used for CSV files and CLI arguments).
    pub fn short_name(self) -> &'static str {
        match self {
            AppId::Blackscholes => "blackscholes",
            AppId::GaussSeidel => "gs",
            AppId::Jacobi => "jacobi",
            AppId::Kmeans => "kmeans",
            AppId::SparseLu => "lu",
            AppId::Swaptions => "swaptions",
        }
    }

    /// Parses a short or display name (case-insensitive).
    pub fn parse(name: &str) -> Option<AppId> {
        let lower = name.to_ascii_lowercase();
        AppId::ALL
            .into_iter()
            .find(|app| app.short_name() == lower || app.name().to_ascii_lowercase() == lower)
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Instantiates (generates the workload of) one application at a scale.
pub fn build_app(app: AppId, scale: Scale) -> Box<dyn BenchmarkApp> {
    match app {
        AppId::Blackscholes => Box::new(Blackscholes::at_scale(scale)),
        AppId::GaussSeidel => Box::new(Stencil::at_scale(StencilVariant::GaussSeidel, scale)),
        AppId::Jacobi => Box::new(Stencil::at_scale(StencilVariant::Jacobi, scale)),
        AppId::Kmeans => Box::new(Kmeans::at_scale(scale)),
        AppId::SparseLu => Box::new(SparseLu::at_scale(scale)),
        AppId::Swaptions => Box::new(Swaptions::at_scale(scale)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_names_round_trip_through_parse() {
        for app in AppId::ALL {
            assert_eq!(AppId::parse(app.short_name()), Some(app));
            assert_eq!(AppId::parse(app.name()), Some(app));
            assert_eq!(AppId::parse(&app.name().to_uppercase()), Some(app));
        }
        assert_eq!(AppId::parse("not-a-benchmark"), None);
    }

    #[test]
    fn every_app_builds_at_tiny_scale_and_reports_table_info() {
        for app_id in AppId::ALL {
            let app = build_app(app_id, Scale::Tiny);
            assert_eq!(app.name(), app_id.name());
            let info = app.table_info();
            assert!(
                info.task_input_bytes > 0,
                "{app_id}: task inputs must be non-empty"
            );
            assert!(
                info.num_tasks > 0,
                "{app_id}: there must be memoizable tasks"
            );
            assert!(!info.memoized_task_type.is_empty());
            assert!(app.memo_spec().training_window_len() >= 1);
            assert!(app.memo_spec().tau_max() > 0.0);
        }
    }
}
