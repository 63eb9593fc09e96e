//! The paper's thread-state vocabulary, and the clock.
//!
//! Figures 7 and 8 of the paper are Paraver execution traces: per-core time
//! lines coloured by thread state (task execution, ATM hash-key computation,
//! ATM memoization copies, task creation & scheduling, idle) and, for
//! Figure 8, the number of ready tasks in the runtime over time.
//! [`ThreadState`] names those states and [`TraceSummary`] aggregates them;
//! the intervals themselves live in the run's [`Observability`] handle. The
//! [`Tracer`] is what the scheduler hands every [`crate::TaskInterceptor`]
//! call: the run's clock, plus a forwarder of state intervals and
//! ready-depth samples to that handle.

use atm_obs::{Observability, StateSpan};
use std::sync::Arc;
use std::time::Instant;

/// Thread states distinguished by the tracer (the legend of Figures 7/8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ThreadState {
    /// Executing a task kernel.
    TaskExecution,
    /// Creating and scheduling tasks (dependence analysis, TDG insertion).
    TaskCreation,
    /// ATM: computing the hash key of a task's inputs.
    HashKeyComputation,
    /// ATM: copying outputs from/to the Task History Table (memoization).
    Memoization,
    /// Waiting for work (empty ready queue) or in the taskwait barrier.
    Idle,
    /// Everything else (scheduler bookkeeping, task finish processing).
    Other,
}

impl ThreadState {
    /// All states, in display order.
    pub const ALL: [ThreadState; 6] = [
        ThreadState::TaskExecution,
        ThreadState::TaskCreation,
        ThreadState::HashKeyComputation,
        ThreadState::Memoization,
        ThreadState::Idle,
        ThreadState::Other,
    ];

    /// Display name matching the paper's trace legend.
    pub fn label(self) -> &'static str {
        match self {
            ThreadState::TaskExecution => "Task Execution",
            ThreadState::TaskCreation => "Task Creation & Scheduling",
            ThreadState::HashKeyComputation => "ATM:Hash-key computation",
            ThreadState::Memoization => "ATM:Task Memoization",
            ThreadState::Idle => "Thread Idle",
            ThreadState::Other => "Other states",
        }
    }
}

/// The run's clock and the forwarder of thread-state intervals and
/// ready-queue depth samples to the attached [`Observability`] handle.
///
/// The clock always runs (the layers' always-on counters time kernels,
/// hashing and copies with it). With a handle attached it *is* the handle's
/// clock, so everything the runtime, the engine and the store stamp lands
/// on one timeline; without one, recording is a no-op.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    obs: Option<Arc<Observability>>,
}

impl Tracer {
    /// Creates a tracer forwarding to `obs` (and sharing its clock), or a
    /// bare clock when `None`.
    pub fn new(obs: Option<Arc<Observability>>) -> Self {
        Tracer {
            origin: obs.as_ref().map_or_else(Instant::now, |o| o.origin()),
            obs,
        }
    }

    /// The attached observability handle, if any.
    pub fn observability(&self) -> Option<&Arc<Observability>> {
        self.obs.as_ref()
    }

    /// Nanoseconds elapsed on the run's clock.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records an interval in `state` on `worker`'s time line. Empty and
    /// backwards intervals are dropped.
    pub fn record(&self, worker: usize, state: ThreadState, start_ns: u64, end_ns: u64) {
        if end_ns <= start_ns {
            return;
        }
        if let Some(obs) = &self.obs {
            obs.record_state(StateSpan {
                worker,
                state: state.label(),
                start_ns,
                end_ns,
            });
        }
    }

    /// Records the current ready-queue depth, seen from `worker`.
    pub fn sample_ready_depth(&self, worker: usize, depth: usize) {
        if let Some(obs) = &self.obs {
            obs.sample_ready_depth(worker, depth as u64);
        }
    }
}

/// Aggregated per-state times, the textual equivalent of Figures 7 and 8.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total time per state across all workers, in nanoseconds.
    pub per_state_ns: Vec<(ThreadState, u64)>,
    /// Number of workers that recorded at least one event.
    pub workers: usize,
    /// Wall-clock span covered by the events (max end − min start), ns.
    pub span_ns: u64,
}

impl TraceSummary {
    /// Aggregates recorded state intervals ([`Observability::states`]).
    /// Intervals whose label is not a [`ThreadState`] are ignored.
    pub fn from_states(events: &[StateSpan]) -> Self {
        let mut per_state: Vec<(ThreadState, u64)> =
            ThreadState::ALL.iter().map(|&s| (s, 0u64)).collect();
        let mut min_start = u64::MAX;
        let mut max_end = 0u64;
        let mut workers = std::collections::BTreeSet::new();
        for ev in events {
            let Some(slot) = per_state.iter_mut().find(|(s, _)| s.label() == ev.state) else {
                continue;
            };
            slot.1 += ev.end_ns - ev.start_ns;
            min_start = min_start.min(ev.start_ns);
            max_end = max_end.max(ev.end_ns);
            workers.insert(ev.worker);
        }
        TraceSummary {
            per_state_ns: per_state,
            workers: workers.len(),
            span_ns: max_end.saturating_sub(min_start),
        }
    }

    /// Total recorded time in a given state, nanoseconds.
    pub fn state_ns(&self, state: ThreadState) -> u64 {
        self.per_state_ns
            .iter()
            .find(|(s, _)| *s == state)
            .map_or(0, |(_, ns)| *ns)
    }

    /// Fraction of all recorded busy time spent in `state`.
    pub fn state_fraction(&self, state: ThreadState) -> f64 {
        let total: u64 = self.per_state_ns.iter().map(|(_, ns)| ns).sum();
        if total == 0 {
            return 0.0;
        }
        self.state_ns(state) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capturing() -> (Arc<Observability>, Tracer) {
        let obs = Arc::new(Observability::capture());
        let tracer = Tracer::new(Some(Arc::clone(&obs)));
        (obs, tracer)
    }

    fn summary(obs: &Observability) -> TraceSummary {
        TraceSummary::from_states(&obs.states())
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        // No handle: a bare clock.
        let tracer = Tracer::new(None);
        tracer.record(0, ThreadState::TaskExecution, 0, 100);
        tracer.sample_ready_depth(0, 5);
        assert!(tracer.observability().is_none());
        // A bounded handle keeps histograms and decisions, not intervals.
        let obs = Arc::new(Observability::enabled());
        let tracer = Tracer::new(Some(Arc::clone(&obs)));
        tracer.record(0, ThreadState::TaskExecution, 0, 100);
        tracer.sample_ready_depth(0, 5);
        assert!(obs.states().is_empty());
        assert!(obs.ready_depth_samples().is_empty());
    }

    #[test]
    fn tracer_reads_the_handles_clock() {
        let obs = Arc::new(Observability::capture());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let tracer = Tracer::new(Some(Arc::clone(&obs)));
        let (before, now, after) = (obs.now_ns(), tracer.now_ns(), obs.now_ns());
        assert!(
            before <= now && now <= after,
            "{before} <= {now} <= {after}"
        );
    }

    #[test]
    fn record_and_summarise() {
        let (obs, tracer) = capturing();
        tracer.record(0, ThreadState::TaskExecution, 0, 100);
        tracer.record(1, ThreadState::TaskExecution, 50, 150);
        tracer.record(1, ThreadState::HashKeyComputation, 150, 170);
        tracer.record(0, ThreadState::Idle, 100, 130);
        let summary = summary(&obs);
        assert_eq!(summary.state_ns(ThreadState::TaskExecution), 200);
        assert_eq!(summary.state_ns(ThreadState::HashKeyComputation), 20);
        assert_eq!(summary.state_ns(ThreadState::Idle), 30);
        assert_eq!(summary.workers, 2);
        assert_eq!(summary.span_ns, 170);
        assert!((summary.state_fraction(ThreadState::TaskExecution) - 200.0 / 250.0).abs() < 1e-12);
    }

    #[test]
    fn zero_length_intervals_are_dropped() {
        let (obs, tracer) = capturing();
        tracer.record(0, ThreadState::Other, 10, 10);
        tracer.record(0, ThreadState::Other, 10, 5);
        assert!(obs.states().is_empty());
    }

    #[test]
    fn ready_samples_are_ordered_by_time() {
        let (obs, tracer) = capturing();
        for (i, depth) in [1usize, 2, 3, 2, 1, 0].into_iter().enumerate() {
            // Rotate across workers so samples land on different shards,
            // proving the merge re-establishes one timeline.
            tracer.sample_ready_depth(i % 4, depth);
        }
        let samples = obs.ready_depth_samples();
        assert_eq!(samples.len(), 6);
        assert!(samples.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(samples.last().unwrap().value, 0);
    }

    #[test]
    fn workers_counts_distinct_recorders_not_max_index() {
        // Regression: only worker 3 records — `workers` used to report 4
        // (`max_worker + 1`), counting three workers that never recorded.
        let (obs, tracer) = capturing();
        tracer.record(3, ThreadState::TaskExecution, 0, 100);
        assert_eq!(summary(&obs).workers, 1);
        // Sparse sets count their actual size, not their span.
        tracer.record(7, ThreadState::Idle, 100, 120);
        assert_eq!(summary(&obs).workers, 2);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let summary = TraceSummary::from_states(&[]);
        assert_eq!(summary.workers, 0);
        assert_eq!(summary.span_ns, 0);
        assert_eq!(summary.state_fraction(ThreadState::TaskExecution), 0.0);
    }

    #[test]
    fn state_labels_match_paper_legend() {
        assert_eq!(
            ThreadState::HashKeyComputation.label(),
            "ATM:Hash-key computation"
        );
        assert_eq!(ThreadState::Memoization.label(), "ATM:Task Memoization");
        assert_eq!(ThreadState::ALL.len(), 6);
    }
}
