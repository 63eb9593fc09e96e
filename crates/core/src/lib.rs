//! # ATM — Approximate Task Memoization
//!
//! This crate implements the runtime-system technique of *"ATM: Approximate
//! Task Memoization in the Runtime System"* (Brumar, Casas, Moretó, Valero,
//! Sohi — IPDPS 2017) on top of the [`atm_runtime`] task-dataflow runtime.
//!
//! ATM transparently eliminates redundant task executions. Approximation
//! policy is declared **per task type** through a
//! [`MemoSpec`], stated where the kernel is
//! registered:
//!
//! * `MemoSpec::exact()` hashes the complete data inputs and stores the
//!   task outputs in the Task History Table (a [`MemoStore`] sized by
//!   [`ThtConfig`]). A later task with the same input hash gets its outputs
//!   copied instead of executing, with zero accuracy loss (the paper's
//!   Static ATM).
//! * `MemoSpec::approximate()` additionally *approximates*: it hashes only
//!   a percentage `p` of the input bytes (most-significant bytes first), so
//!   similar-but-not-identical tasks can also be memoized. An adaptive
//!   [`training::TrainingController`] picks the smallest `p` that keeps the
//!   per-task Chebyshev error below the spec's `τ_max`: `p` starts at 2⁻¹⁵,
//!   doubles on every comparison that reaches `τ_max` and freezes after the
//!   spec's `L_training` acceptances (the paper's Dynamic ATM, with per-type
//!   thresholds and windows). `arg_exact(i)` hashes a control argument in
//!   full while the rest is sampled.
//! * `MemoSpec::fixed_precision(p)` pins `p` offline (the evaluation's
//!   Oracle configurations).
//! * The [`ikt::InFlightKeyTable`] catches redundancy between concurrently
//!   running tasks: a ready task whose twin is still executing defers to it
//!   instead of recomputing.
//!
//! * Each type's decisions — which `p`, train or trust, key or not — are its
//!   [`policy::TypePolicy`]. An adaptive type also keeps a profitability
//!   ledger there: when keying the type costs more than its hits earn back
//!   (plus a bounded allowance), the type *closes* for a back-off number of
//!   tasks, which simply execute. Exact and fixed-precision types are
//!   pinned open.
//!
//! Different types run different policies concurrently in one runtime; the
//! engine-wide [`AtmMode`] holds the paper's three evaluation modes —
//! respect each type's spec (Dynamic), force everything exact (Static), or
//! force one `p` (the Oracle's FixedP). The no-ATM baseline installs no
//! engine at all.
//!
//! The engine plugs into the runtime as a
//! [`TaskInterceptor`](atm_runtime::TaskInterceptor):
//!
//! ```
//! use atm_core::{AtmConfig, AtmEngine};
//! use atm_runtime::prelude::*;
//!
//! // `dynamic_atm()` = respect each task type's declared MemoSpec.
//! let engine = AtmEngine::shared(AtmConfig::dynamic_atm());
//! let rt = RuntimeBuilder::new().workers(2).interceptor(engine.clone()).build();
//!
//! let input = rt.store().register_typed("in", vec![1.0f64, 2.0, 3.0, 4.0]).unwrap();
//! let out_a = rt.store().register_zeros::<f64>("a", 1).unwrap();
//! let out_b = rt.store().register_zeros::<f64>("b", 1).unwrap();
//!
//! // The programmer declares the type's approximation policy next to its
//! // kernel and access signature: exact hashing for this type.
//! let sum = rt.register_task_type(
//!     TaskTypeBuilder::new("sum", |ctx| {
//!         let total: f64 = ctx.arg::<f64>(0).iter().sum();
//!         ctx.out(1, &[total]);
//!     })
//!     .arg::<f64>()
//!     .out::<f64>()
//!     .memo(MemoSpec::exact())
//!     .build(),
//! );
//! // Another type in the same runtime trains its own approximation, with
//! // its small control argument hashed exactly:
//! let scale = rt.register_task_type(
//!     TaskTypeBuilder::new("scale", |ctx| {
//!         let k = f64::from(ctx.arg::<i32>(0)[0]);
//!         let out: Vec<f64> = ctx.arg::<f64>(1).iter().map(|v| k * v).collect();
//!         ctx.out(2, &out);
//!     })
//!     .arg::<i32>()
//!     .arg::<f64>()
//!     .out::<f64>()
//!     .memo(MemoSpec::approximate().tau(1e-3).training_window(32).arg_exact(0))
//!     .build(),
//! );
//!
//! // Two tasks with identical inputs: the second one is memoized.
//! rt.task(sum).reads(&input).writes(&out_a).submit().unwrap();
//! rt.taskwait();
//! rt.task(sum).reads(&input).writes(&out_b).submit().unwrap();
//! rt.taskwait();
//!
//! assert_eq!(rt.store().read(out_b).lock().as_f64(), &[10.0]);
//! assert_eq!(engine.stats().tht_bypassed, 1);
//!
//! let k = rt.store().register_typed("k", vec![2i32]).unwrap();
//! let scaled = rt.store().register_zeros::<f64>("scaled", 4).unwrap();
//! rt.task(scale).reads(&k).reads(&input).writes(&scaled).submit().unwrap();
//! rt.taskwait();
//! assert_eq!(rt.store().read(scaled).lock().as_f64(), &[2.0, 4.0, 6.0, 8.0]);
//!
//! // Wave submission goes through the batched builder: one validation and
//! // one dependence pass for the whole wave. Finished graph nodes retire
//! // (their slots are recycled), so a long-running service's graph memory
//! // follows the live window — both visible in the runtime stats.
//! let mut wave = rt.tasks(sum);
//! for i in 0..8 {
//!     let out = rt.store().register_zeros::<f64>(format!("w{i}"), 1).unwrap();
//!     wave = wave.next().reads(&input).writes(&out);
//! }
//! assert_eq!(wave.submit_all().unwrap().len(), 8);
//! rt.taskwait();
//! let stats = rt.stats();
//! assert_eq!(stats.live_nodes, 0, "every finished wave retires");
//! assert_eq!(stats.retired_nodes, 11);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod ikt;
pub mod key;
pub mod policy;
pub mod stats;
pub mod tht;
pub mod training;
mod types;

pub use atm_store::OutputSnapshot;
pub use config::{AtmConfig, AtmMode};
pub use engine::AtmEngine;
pub use ikt::{InFlightKeyTable, Waiter};
pub use key::{KeyGenerator, KeyResult};
pub use stats::{AtmStatsSnapshot, ReuseEvent, TypeSummary};
pub use tht::{EntryKey, ThtConfig};
pub use training::{evaluate_metric_data, Phase, TrainingController, TrainingOutcome};

/// Re-exports of the per-task-type approximation-policy API (declared on
/// `TaskTypeBuilder::memo` in `atm-runtime`, consumed by the engine here).
pub use atm_runtime::{ErrorMetric, MemoPolicy, MemoSpec, MemoSpecError};

/// Re-export of the selection-percentage type used throughout the API.
pub use atm_hash::Percentage;

/// Re-exports of the memo-store subsystem the THT is built on: budgets,
/// admission control and persistence.
pub use atm_store::{InsertOutcome, MemoStore, PersistError, StoreConfig, StoreCountersSnapshot};
