//! A task-based dataflow runtime system, the substrate on which Approximate
//! Task Memoization (ATM) is built.
//!
//! The ATM paper (Brumar et al., IPDPS 2017) implements its technique inside
//! the Nanos++ runtime of the OmpSs programming model. This crate is a
//! from-scratch Rust reproduction of the runtime abstractions ATM needs:
//!
//! * **data regions** with typed contents ([`region`]), registered with the
//!   runtime and handed back as phantom-typed [`Region<T>`] handles so the
//!   element type never has to be restated — and resolved, once per task at
//!   submission, into [`RegionRef`]s the task carries to its worker;
//! * **task types and task instances** ([`task`]) — one task type per
//!   annotated function (with a declared access signature), one instance per
//!   dynamic submission;
//! * **per-type approximation policy** ([`memo`]) — the [`MemoSpec`]
//!   declared on [`TaskTypeBuilder::memo`]: exact / adaptive / fixed
//!   precision, error metric, training window and per-argument precision
//!   overrides, validated against the access signature;
//! * **validated submission** ([`submit`]) — the fluent
//!   [`Runtime::task`] builder checks arity, access modes and element types
//!   against the task type's signature and the store, returning a
//!   [`SubmitError`] instead of panicking in a worker; the batched
//!   [`Runtime::batch`] / [`Runtime::tasks`] builder stages many tasks and
//!   submits them with [`BatchBuilder::submit_all`] — one validation pass
//!   and one dependence pass, each internal lock taken once per batch;
//! * **dependence tracking and the Task Dependence Graph** ([`dependence`]):
//!   read-after-write, write-after-read and write-after-write orderings
//!   derived from the whole regions the declared accesses name, against a
//!   per-region **dependence frontier** (the last writer and the readers
//!   since: one edge per dependence), with a completion that touches only
//!   the finishing node and its successors, and **graph-node retirement**
//!   — a node is freed and its slab slot recycled by its own finish, so a
//!   long-running service's graph memory follows the live task window, not
//!   the total task count (observable through the
//!   [`RuntimeStatsSnapshot::live_nodes`] /
//!   [`RuntimeStatsSnapshot::retired_nodes`] gauges);
//! * a **Ready Queue** ([`ready_queue`]) of per-worker work-stealing deques
//!   and a **worker pool** ([`scheduler`]) that pulls ready tasks and
//!   executes them without touching a global lock in steady state;
//! * the **interceptor hook** ([`interceptor`]) where the ATM engine plugs
//!   in: it is consulted right after a task is pulled from the Ready Queue
//!   (memoize / defer / execute) and right after a task completes (update
//!   the history tables, perform postponed copy-outs);
//! * the **thread-state vocabulary and the run's clock** ([`trace`]): the
//!   states of the paper's execution-trace figures, recorded — with
//!   everything else timestamped — into one `atm_obs::Observability` handle;
//! * **statistics** ([`stats`]) of what the runtime did.
//!
//! # Example
//!
//! ```
//! use atm_runtime::prelude::*;
//!
//! let rt = RuntimeBuilder::new().workers(2).build();
//! let data = rt.store().register_typed("v", vec![1.0f64, 2.0, 3.0, 4.0]).unwrap();
//! let sums = rt.store().register_zeros::<f64>("sum", 1).unwrap();
//!
//! let sum_type = rt.register_task_type(
//!     TaskTypeBuilder::new("sum", |ctx| {
//!         let total: f64 = ctx.arg::<f64>(0).iter().sum();
//!         ctx.out(1, &[total]);
//!     })
//!     .arg::<f64>()
//!     .out::<f64>()
//!     .build(),
//! );
//!
//! rt.task(sum_type).reads(&data).writes(&sums).submit().unwrap();
//! rt.taskwait();
//! assert_eq!(rt.store().read(sums).lock().as_f64(), &[10.0]);
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod dependence;
pub mod interceptor;
pub mod memo;
pub mod ready_queue;
pub mod region;
pub mod scheduler;
pub mod stats;
pub mod submit;
pub mod task;
pub mod trace;

pub use access::{Access, AccessMode};
pub use interceptor::{Decision, NoopInterceptor, TaskInterceptor};
pub use memo::{ErrorMetric, MemoPolicy, MemoSpec, MemoSpecError};
pub use region::{
    DataStore, DeregisterError, Elem, ElemType, ElemWindow, Region, RegionData, RegionId,
    RegionRead, RegionReadGuard, RegionRef, RegionStatus, RegisterError, WordSink,
};
pub use scheduler::{Observation, Runtime, RuntimeBuilder};
pub use stats::{RuntimeStats, RuntimeStatsSnapshot};
pub use submit::{BatchBuilder, SubmitError, TaskBuilder};
pub use task::{
    SigParam, TaskContext, TaskDesc, TaskId, TaskNotify, TaskSignature, TaskTypeBuilder,
    TaskTypeId, TaskTypeInfo, TaskView, VariadicSig,
};
pub use trace::{ThreadState, TraceSummary, Tracer};

/// Convenient glob import for applications built on the runtime.
pub mod prelude {
    pub use crate::access::{Access, AccessMode};
    pub use crate::interceptor::{Decision, NoopInterceptor, TaskInterceptor};
    pub use crate::memo::{ErrorMetric, MemoPolicy, MemoSpec, MemoSpecError};
    pub use crate::region::{
        DataStore, DeregisterError, Elem, ElemType, Region, RegionData, RegionId, RegionStatus,
        RegisterError,
    };
    pub use crate::scheduler::{Runtime, RuntimeBuilder};
    pub use crate::submit::{BatchBuilder, SubmitError, TaskBuilder};
    pub use crate::task::{
        TaskContext, TaskDesc, TaskId, TaskNotify, TaskSignature, TaskTypeBuilder, TaskTypeId,
        TaskTypeInfo, TaskView,
    };
    pub use crate::trace::{ThreadState, Tracer};
}
