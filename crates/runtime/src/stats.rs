//! Runtime-level execution statistics.
//!
//! The runtime's one always-on counter block: what the *runtime* did (tasks
//! created, executed, bypassed, deferred). What the memoizer decided is
//! counted once per task type by the engine in `atm-core`; both reach a
//! caller together through [`crate::Runtime::observe`].
//!
//! The counters are **sharded per worker**: each worker writes only its own
//! cache-padded shard (submitting threads share the last shard) with
//! relaxed atomic adds, so steady-state task completion never contends on a
//! shared atomic. [`RuntimeStats::snapshot`] sums the shards; the
//! scheduler's `outstanding` release/acquire pair makes every count of a
//! finished task visible to a thread that returned from `taskwait`.

use atm_sync::atomic::{AtomicU64, Ordering};

/// One worker's private counter shard, padded to its own cache line so
/// neighbouring shards never false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct WorkerStats {
    /// Tasks submitted to the runtime.
    pub submitted: AtomicU64,
    /// Tasks whose kernel was actually executed.
    pub executed: AtomicU64,
    /// Tasks bypassed because the interceptor memoized them (THT hit).
    pub bypassed: AtomicU64,
    /// Tasks deferred to an in-flight producer (IKT hit).
    pub deferred: AtomicU64,
    /// Nanoseconds spent executing task kernels on this worker.
    pub kernel_ns: AtomicU64,
    /// Nanoseconds spent in task creation (dependence analysis + TDG insertion).
    pub creation_ns: AtomicU64,
}

impl WorkerStats {
    /// Adds `value` to a counter with a relaxed atomic RMW. Worker shards
    /// have a single writer, but the master shard may be written by
    /// concurrent submitters (`Runtime` is `Sync`), so the update must be
    /// an atomic add — on a cache line owned by one core it costs the same
    /// as a plain store, and the sharding already removed the cross-worker
    /// contention.
    pub fn add(&self, counter: &AtomicU64, value: u64) {
        counter.fetch_add(value, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn incr(&self, counter: &AtomicU64) {
        self.add(counter, 1);
    }
}

/// Sharded runtime counters: one [`WorkerStats`] per worker plus one for the
/// master (submitting) thread.
#[derive(Debug)]
pub struct RuntimeStats {
    shards: Vec<WorkerStats>,
}

impl Default for RuntimeStats {
    fn default() -> Self {
        RuntimeStats::with_workers(1)
    }
}

impl RuntimeStats {
    /// Creates zeroed statistics for `workers` worker threads (shard index
    /// `workers` belongs to the master thread).
    pub fn with_workers(workers: usize) -> Self {
        RuntimeStats {
            shards: (0..workers + 1).map(|_| WorkerStats::default()).collect(),
        }
    }

    /// Creates zeroed statistics with a single worker shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard owned by `worker` (the master thread uses index `workers`).
    pub fn shard(&self, worker: usize) -> &WorkerStats {
        &self.shards[worker.min(self.shards.len() - 1)]
    }

    /// Immutable snapshot of all counters (sums the per-worker shards).
    /// The graph's own counts (`live_nodes`/`retired_nodes`/`edges`/
    /// `live_index_regions`) are owned by the dependence graph, not the
    /// shards; [`crate::Runtime::stats`] fills them in.
    pub fn snapshot(&self) -> RuntimeStatsSnapshot {
        let mut snap = RuntimeStatsSnapshot::default();
        for shard in &self.shards {
            snap.submitted += shard.submitted.load(Ordering::Relaxed);
            snap.executed += shard.executed.load(Ordering::Relaxed);
            snap.bypassed += shard.bypassed.load(Ordering::Relaxed);
            snap.deferred += shard.deferred.load(Ordering::Relaxed);
            snap.kernel_ns += shard.kernel_ns.load(Ordering::Relaxed);
            snap.creation_ns += shard.creation_ns.load(Ordering::Relaxed);
        }
        snap
    }
}

/// A point-in-time copy of the runtime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStatsSnapshot {
    /// Tasks submitted to the runtime.
    pub submitted: u64,
    /// Tasks whose kernel was actually executed.
    pub executed: u64,
    /// Tasks bypassed because the interceptor memoized them (THT hit).
    pub bypassed: u64,
    /// Tasks deferred to an in-flight producer (IKT hit).
    pub deferred: u64,
    /// Total nanoseconds spent executing task kernels.
    pub kernel_ns: u64,
    /// Total nanoseconds spent creating tasks.
    pub creation_ns: u64,
    /// Graph nodes currently resident in the dependence graph (submitted
    /// minus retired). Bounded by the live task window, not the run length
    /// — the observable half of the node-retirement scheme.
    pub live_nodes: u64,
    /// Graph nodes retired so far (finished, slab slot recycled): a node
    /// retires at its own finish, so this is also the number of tasks
    /// completed.
    pub retired_nodes: u64,
    /// Dependence edges wired so far. Over `submitted` it is the program's
    /// edges per task — one on an inout chain, however long its live part.
    pub edges: u64,
    /// Regions that currently have a dependence frontier: touched by a
    /// task and not deregistered since. Bounded by the registered working
    /// set — the observable half of region retirement under session churn.
    pub live_index_regions: u64,
}

impl RuntimeStatsSnapshot {
    /// Tasks that did not run their kernel (memoized + deferred).
    pub fn reused(&self) -> u64 {
        self.bypassed + self.deferred
    }

    /// The paper's reuse metric: percentage of submitted tasks whose
    /// execution was avoided.
    pub fn reuse_percent(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        100.0 * self.reused() as f64 / self.submitted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sums_across_worker_shards() {
        let stats = RuntimeStats::with_workers(2);
        let master = stats.shard(2);
        master.incr(&master.submitted);
        master.incr(&master.submitted);
        let w0 = stats.shard(0);
        w0.incr(&w0.executed);
        w0.add(&w0.kernel_ns, 300);
        let w1 = stats.shard(1);
        w1.incr(&w1.bypassed);
        w1.add(&w1.kernel_ns, 200);
        let snap = stats.snapshot();
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.executed, 1);
        assert_eq!(snap.bypassed, 1);
        assert_eq!(snap.deferred, 0);
        assert_eq!(snap.kernel_ns, 500);
        assert_eq!(snap.reused(), 1);
        assert!((snap.reuse_percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_worker_indices_fall_back_to_the_master_shard() {
        let stats = RuntimeStats::with_workers(1);
        let shard = stats.shard(99);
        shard.incr(&shard.deferred);
        assert_eq!(stats.snapshot().deferred, 1);
    }

    #[test]
    fn empty_stats_reuse_is_zero() {
        assert_eq!(RuntimeStatsSnapshot::default().reuse_percent(), 0.0);
    }
}
