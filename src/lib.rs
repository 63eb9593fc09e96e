//! # atm-suite — Approximate Task Memoization in Rust
//!
//! Umbrella crate of the reproduction of *"ATM: Approximate Task Memoization
//! in the Runtime System"* (Brumar, Casas, Moretó, Valero, Sohi — IPDPS
//! 2017). It re-exports the component crates so applications can depend on a
//! single package:
//!
//! * [`runtime`] — the task-based dataflow runtime (typed regions, validated
//!   submission, dependences, ready queue, worker pool, tracing);
//! * [`store`] — the budgeted, policy-driven, persistent memo store behind
//!   the Task History Table (byte budgets, FIFO/cost-aware eviction,
//!   admission control, warm-start snapshots);
//! * [`atm`] — the ATM engine (Task History Table, In-flight Key Table,
//!   hash-key pipeline, static/dynamic/oracle modes);
//! * [`hash`] — the hashing and input-sampling substrate (Jenkins lookup3,
//!   the exact-argument digest, deterministic PRNG, type-aware byte
//!   selection);
//! * [`metrics`] — correctness and performance metrics (Chebyshev and
//!   Euclidean relative errors, speedup, reuse);
//! * [`apps`] — the six evaluated applications (Blackscholes, Gauss-Seidel,
//!   Jacobi, Kmeans, Sparse LU, Swaptions).
//!
//! ## Quick start
//!
//! ```
//! use atm_suite::prelude::*;
//!
//! // 1. Create the ATM engine (respecting per-type MemoSpecs) and a
//! //    runtime with 2 workers.
//! let engine = AtmEngine::shared(AtmConfig::dynamic_atm());
//! let rt = RuntimeBuilder::new().workers(2).interceptor(engine.clone()).build();
//!
//! // 2. Register typed data regions and a memoizable task type. The typed
//! //    `Region<f64>` handles carry the element type; the task type
//! //    declares its access signature and its approximation policy (a
//! //    per-type `MemoSpec`) — submissions are validated against both.
//! let input = rt.store().register_typed("in", vec![2.0f64; 1024]).unwrap();
//! let out_a = rt.store().register_zeros::<f64>("a", 1024).unwrap();
//! let out_b = rt.store().register_zeros::<f64>("b", 1024).unwrap();
//! let square = rt.register_task_type(
//!     TaskTypeBuilder::new("square", |ctx| {
//!         let x = ctx.arg::<f64>(0);
//!         let y: Vec<f64> = x.iter().map(|v| v * v).collect();
//!         ctx.out(1, &y);
//!     })
//!     .arg::<f64>()
//!     .out::<f64>()
//!     .memo(MemoSpec::exact())
//!     .build(),
//! );
//!
//! // 3. Submit two tasks with identical inputs: the second is memoized.
//! rt.task(square).reads(&input).writes(&out_a).submit().unwrap();
//! rt.taskwait();
//! rt.task(square).reads(&input).writes(&out_b).submit().unwrap();
//! rt.taskwait();
//!
//! assert_eq!(rt.store().read(out_b).lock().as_f64()[0], 4.0);
//! assert_eq!(engine.stats().tht_bypassed, 1);
//! ```

#![warn(missing_docs)]

/// The six evaluated applications (re-export of [`atm_apps`]).
pub use atm_apps as apps;
/// The ATM engine (re-export of [`atm_core`]).
pub use atm_core as atm;
/// Hashing and input sampling (re-export of [`atm_hash`]).
pub use atm_hash as hash;
/// Correctness and performance metrics (re-export of [`atm_metrics`]).
pub use atm_metrics as metrics;
/// The task-dataflow runtime (re-export of [`atm_runtime`]).
pub use atm_runtime as runtime;
/// The memo store behind the THT (re-export of [`atm_store`]).
pub use atm_store as store;

/// Everything needed to write an ATM-accelerated task application.
pub mod prelude {
    pub use atm_core::{AtmConfig, AtmEngine, AtmMode, Percentage, StoreConfig, ThtConfig};
    pub use atm_runtime::prelude::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn re_exports_are_wired() {
        let _ = crate::atm::AtmConfig::static_atm();
        let _ = crate::hash::Percentage::FULL;
        assert_eq!(crate::apps::AppId::ALL.len(), 6);
    }
}
