//! The unbounded capture material — thread-state intervals, per-task spans
//! and counter samples — and the one sharded log that stores all of it.

use atm_sync::Mutex;

/// One interval a worker spent in one thread state (the per-core time lines
/// of the paper's Figures 7/8). `state` is the state's display label, so the
/// trace export needs no knowledge of the runtime's state vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateSpan {
    /// Worker index (the submitting thread is traced as index `workers`).
    pub worker: usize,
    /// Display label of the state.
    pub state: &'static str,
    /// Start on the trace clock.
    pub start_ns: u64,
    /// End on the trace clock.
    pub end_ns: u64,
}

/// One task's lifetime on a worker, as exported into the trace: the
/// interval from the worker picking the task up to finishing it (memoized
/// bypasses included — their spans are the visibly-short ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// Worker that processed the task.
    pub worker: usize,
    /// Raw task id.
    pub task_id: u64,
    /// Raw task type id.
    pub task_type: u32,
    /// Start on the trace clock.
    pub start_ns: u64,
    /// End on the trace clock.
    pub end_ns: u64,
}

/// One `(t_ns, value)` sample of a counter track (ready-queue depth, store
/// byte occupancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSample {
    /// Timestamp on the trace clock.
    pub t_ns: u64,
    /// Sampled value.
    pub value: u64,
}

/// Sharded append-only log: one `Mutex<Vec>` lane per worker shard, so
/// concurrent workers record without contending on one lock; merged and
/// sorted on read.
pub(crate) struct ShardedLog<T> {
    shards: Vec<Mutex<Vec<T>>>,
}

impl<T: Clone> ShardedLog<T> {
    pub(crate) fn new() -> Self {
        Self {
            shards: (0..crate::hist::SHARDS)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// Appends `item` on `worker`'s shard.
    pub(crate) fn push(&self, worker: usize, item: T) {
        self.shards[worker % self.shards.len()].lock().push(item);
    }

    /// Every item, merged across the shards into one timeline ordered by
    /// `key` (stable, so one shard's equal-key items keep their order).
    pub(crate) fn sorted_by_key<K: Ord>(&self, key: impl FnMut(&T) -> K) -> Vec<T> {
        let mut all: Vec<T> = self.shards.iter().flat_map(|s| s.lock().clone()).collect();
        all.sort_by_key(key);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_merge_sorted() {
        let log = ShardedLog::new();
        for (worker, task_id, start_ns) in [(1, 2, 50), (0, 1, 10), (17, 3, 10)] {
            log.push(
                worker,
                TaskSpan {
                    worker,
                    task_id,
                    task_type: 0,
                    start_ns,
                    end_ns: start_ns + 10,
                },
            );
        }
        let spans = log.sorted_by_key(|s| (s.start_ns, s.task_id));
        let ids: Vec<u64> = spans.iter().map(|s| s.task_id).collect();
        assert_eq!(ids, vec![1, 3, 2]);
        assert_eq!(spans[2].worker, 1);
    }

    #[test]
    fn counter_samples_sorted_by_time() {
        let log = ShardedLog::new();
        for (worker, t_ns, value) in [(2, 30, 100), (0, 10, 50), (1, 20, 75), (0, 20, 80)] {
            log.push(worker, CounterSample { t_ns, value });
        }
        let values: Vec<u64> = log
            .sorted_by_key(|s| s.t_ns)
            .iter()
            .map(|s| s.value)
            .collect();
        // Stable: among the two t = 20 samples, shard 0's comes first.
        assert_eq!(values, vec![50, 80, 75, 100]);
    }
}
