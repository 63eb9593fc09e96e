//! The interceptor hook that plugs ATM (or any other task-bypassing
//! mechanism) into the scheduler.
//!
//! The scheduler calls [`TaskInterceptor::before_execute`] right after
//! pulling a task from the Ready Queue — this is where ATM computes the hash
//! key, probes the Task History Table and the In-flight Key Table and either
//! provides the outputs (memoization), defers the task to an in-flight
//! producer, or lets it run. [`TaskInterceptor::after_execute`] is called
//! when a task completes; ATM uses it to update the THT/IKT, run the Dynamic
//! ATM training comparison, and perform the postponed copy-outs for tasks
//! that were deferred onto this one.

use crate::region::DataStore;
use crate::task::{TaskId, TaskView};
use crate::trace::Tracer;
use atm_obs::{EngineObservation, StoreObservation};

/// What the scheduler should do with a task that is about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Run the task kernel normally.
    Execute,
    /// The interceptor already produced the task's outputs (THT hit): skip
    /// the kernel and complete the task immediately.
    Memoized,
    /// An in-flight task with the same key will produce the outputs (IKT
    /// hit): skip the kernel and do **not** complete the task yet — the
    /// producer's `after_execute` will return this task's id once the
    /// outputs have been copied.
    Deferred,
}

/// Hook invoked by the scheduler around task execution.
pub trait TaskInterceptor: Send + Sync {
    /// Called after a task is pulled from the Ready Queue, before its kernel
    /// runs. `worker` is the index of the calling worker thread and `tracer`
    /// can be used to attribute time to ATM-specific states.
    fn before_execute(
        &self,
        task: TaskView<'_>,
        store: &DataStore,
        tracer: &Tracer,
        worker: usize,
    ) -> Decision {
        let _ = (task, store, tracer, worker);
        Decision::Execute
    }

    /// Called after a task completes. `executed` is true when the kernel
    /// actually ran (false when the task was memoized in `before_execute`).
    /// Returns the ids of previously-deferred tasks that this completion has
    /// satisfied; the scheduler will mark them finished.
    fn after_execute(
        &self,
        task: TaskView<'_>,
        store: &DataStore,
        tracer: &Tracer,
        worker: usize,
        executed: bool,
    ) -> Vec<TaskId> {
        let _ = (task, store, tracer, worker, executed);
        Vec::new()
    }

    /// Cross-layer counter snapshots for [`crate::Runtime::observe`]: the
    /// memoization engine's aggregate counters and its backing store's.
    /// Interceptors that do not memoize (the default) report `None`.
    fn observe(&self) -> Option<(EngineObservation, StoreObservation)> {
        None
    }
}

/// The default interceptor: never memoizes anything (the "no ATM" baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopInterceptor;

impl TaskInterceptor for NoopInterceptor {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskTypeBuilder, TaskTypeId};

    #[test]
    fn noop_interceptor_always_executes() {
        let store = DataStore::new();
        let tracer = Tracer::new(None);
        let info = TaskTypeBuilder::new("t", |_| {}).build();
        let view = TaskView {
            id: TaskId(0),
            type_id: TaskTypeId(0),
            info: &info,
            accesses: &[],
            regions: &[],
        };
        let noop = NoopInterceptor;
        assert_eq!(
            noop.before_execute(view, &store, &tracer, 0),
            Decision::Execute
        );
        assert!(noop
            .after_execute(view, &store, &tracer, 0, true)
            .is_empty());
    }
}
