//! `atm-obs` — the one telemetry spine of the ATM stack.
//!
//! Every layer keeps its own always-on counter block (runtime, engine,
//! store); every *timestamped* event goes to one [`Observability`] handle,
//! shared by the runtime, the ATM engine and the memo store and stamped by
//! the handle's clock ([`Observability::now_ns`]). There is no disabled
//! handle: a layer either has one attached or records nothing. A handle
//! comes in two levels:
//!
//! * [`Observability::enabled`] records the **bounded** material, cheap
//!   enough for a long-running service:
//!   latency histograms ([`MetricsSnapshot`]: per-worker cache-padded shards
//!   of dependency-free HdrHistogram-style log-linear buckets, one per
//!   [`LatencyMetric`], with `p50/p90/p99/p999` extraction) and the
//!   memo-decision audit trail ([`DecisionSnapshot`]: every interceptor and
//!   store decision as a structured record in bounded per-worker rings with
//!   exact per-type counts and a drop counter).
//! * [`Observability::capture`] additionally keeps the **unbounded** logs a
//!   trace or a figure is drawn from: thread-state intervals
//!   ([`StateSpan`]), per-task spans ([`TaskSpan`]), ready-queue depth and
//!   store byte-occupancy samples ([`CounterSample`]), and a decision stream
//!   that never drops — the run's full reuse provenance.
//!
//! [`ChromeTraceBuilder`] turns the capture material into Chrome Trace
//! Event Format JSON that <https://ui.perfetto.dev> opens directly.
//!
//! # Quick start
//!
//! ```
//! use atm_obs::{
//!     ChromeTraceBuilder, DecisionRecord, LatencyMetric, MemoDecision, Observability,
//! };
//!
//! let obs = Observability::enabled();
//!
//! // Hot paths record durations and decisions on their own worker's shard.
//! obs.record_latency(LatencyMetric::TaskLatency, /* worker */ 0, 12_500);
//! obs.record_latency(LatencyMetric::TaskLatency, 1, 48_000);
//! obs.record_decision(
//!     0,
//!     DecisionRecord {
//!         task_type: 0,
//!         task_id: 7,
//!         decision: MemoDecision::ThtHit,
//!         metric_value: 0.0,
//!         tau: 0.2,
//!         p: 0.5,
//!         producer: Some(3),
//!         t_ns: obs.now_ns(),
//!     },
//! );
//!
//! // Readers take owned snapshots.
//! let latency = obs.metrics().get(LatencyMetric::TaskLatency).clone();
//! assert_eq!(latency.count, 2);
//! assert!(latency.p50() <= latency.p99());
//! let decisions = obs.decisions();
//! assert_eq!(decisions.count(0, MemoDecision::ThtHit), 1);
//!
//! // And export a Perfetto-loadable trace.
//! let mut trace = ChromeTraceBuilder::new();
//! trace.process_name(1, "atm-runtime");
//! trace.thread_name(1, 1, "worker 0");
//! trace.complete(1, 1, "my_task", 0, 12_500, &[("decision", "\"tht_hit\"".into())]);
//! let json = trace.finish();
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod decision;
pub mod hist;
pub mod metrics;
pub mod span;

pub use chrome::{json_escape, json_f64, ChromeTraceBuilder};
pub use decision::{DecisionLog, DecisionRecord, DecisionSnapshot, MemoDecision};
pub use hist::{Histogram, HistogramSnapshot, RELATIVE_ERROR_BOUND};
pub use metrics::{LatencyMetric, MetricsRegistry, MetricsSnapshot};
pub use span::{CounterSample, StateSpan, TaskSpan};

use atm_sync::Mutex;
use span::ShardedLog;
use std::collections::HashMap;
use std::time::Instant;

/// The logs only a capture handle keeps: they grow with the run.
struct CaptureLogs {
    states: ShardedLog<StateSpan>,
    spans: ShardedLog<TaskSpan>,
    ready_depth: ShardedLog<CounterSample>,
    store_bytes: ShardedLog<CounterSample>,
}

/// The shared observability handle: one per run, threaded through runtime,
/// engine and store, and the owner of the run's clock.
pub struct Observability {
    origin: Instant,
    metrics: MetricsRegistry,
    decisions: DecisionLog,
    capture: Option<CaptureLogs>,
    type_names: Mutex<HashMap<u32, String>>,
}

impl Observability {
    fn new(decisions: DecisionLog, capture: Option<CaptureLogs>) -> Self {
        Self {
            origin: Instant::now(),
            metrics: MetricsRegistry::new(),
            decisions,
            capture,
            type_names: Mutex::new(HashMap::new()),
        }
    }

    /// A handle recording the bounded material: latency histograms and the
    /// decision rings. Memory stays constant however long the process runs.
    pub fn enabled() -> Self {
        Self::new(DecisionLog::new(), None)
    }

    /// A handle that also keeps the unbounded logs (state intervals, task
    /// spans, ready-depth and store-bytes samples) and never drops a
    /// decision record. For a trace or a figure, not for a service.
    pub fn capture() -> Self {
        Self::new(
            DecisionLog::with_capacity(usize::MAX),
            Some(CaptureLogs {
                states: ShardedLog::new(),
                spans: ShardedLog::new(),
                ready_depth: ShardedLog::new(),
                store_bytes: ShardedLog::new(),
            }),
        )
    }

    /// The instant the handle's clock counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the handle was created: the one clock every
    /// recorded timestamp is on.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a nanosecond duration into `metric` on `worker`'s shard.
    #[inline]
    pub fn record_latency(&self, metric: LatencyMetric, worker: usize, ns: u64) {
        self.metrics.record(metric, worker, ns);
    }

    /// Records a memo decision on `worker`'s shard.
    #[inline]
    pub fn record_decision(&self, worker: usize, record: DecisionRecord) {
        self.decisions.record(worker, record);
    }

    /// Records a thread-state interval (capture only).
    #[inline]
    pub fn record_state(&self, span: StateSpan) {
        if let Some(logs) = &self.capture {
            logs.states.push(span.worker, span);
        }
    }

    /// Records a task span (capture only).
    #[inline]
    pub fn record_span(&self, span: TaskSpan) {
        if let Some(logs) = &self.capture {
            logs.spans.push(span.worker, span);
        }
    }

    /// Samples the ready-queue depth, stamped now (capture only).
    #[inline]
    pub fn sample_ready_depth(&self, worker: usize, depth: u64) {
        if let Some(logs) = &self.capture {
            logs.ready_depth.push(worker, self.sample(depth));
        }
    }

    /// Samples the store's byte occupancy, stamped now (capture only).
    #[inline]
    pub fn sample_store_bytes(&self, worker: usize, bytes: u64) {
        if let Some(logs) = &self.capture {
            logs.store_bytes.push(worker, self.sample(bytes));
        }
    }

    fn sample(&self, value: u64) -> CounterSample {
        CounterSample {
            t_ns: self.now_ns(),
            value,
        }
    }

    /// Registers the display name of a task type id (used by trace export).
    pub fn note_type_name(&self, task_type: u32, name: &str) {
        self.type_names
            .lock()
            .entry(task_type)
            .or_insert_with(|| name.to_string());
    }

    /// The registered name of a task type, if any.
    pub fn type_name(&self, task_type: u32) -> Option<String> {
        self.type_names.lock().get(&task_type).cloned()
    }

    /// Snapshot of every latency histogram.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Snapshot of the decision log.
    pub fn decisions(&self) -> DecisionSnapshot {
        self.decisions.snapshot()
    }

    /// One capture log merged into a timeline; empty below capture level.
    fn timeline<T: Clone, K: Ord>(
        &self,
        log: impl FnOnce(&CaptureLogs) -> &ShardedLog<T>,
        key: impl FnMut(&T) -> K,
    ) -> Vec<T> {
        self.capture
            .as_ref()
            .map_or_else(Vec::new, |logs| log(logs).sorted_by_key(key))
    }

    /// All recorded thread-state intervals, sorted by `(start_ns, worker)`.
    pub fn states(&self) -> Vec<StateSpan> {
        self.timeline(|l| &l.states, |s| (s.start_ns, s.worker))
    }

    /// All recorded task spans, sorted by `(start_ns, task_id)`.
    pub fn spans(&self) -> Vec<TaskSpan> {
        self.timeline(|l| &l.spans, |s| (s.start_ns, s.task_id))
    }

    /// All ready-queue depth samples, sorted by time.
    pub fn ready_depth_samples(&self) -> Vec<CounterSample> {
        self.timeline(|l| &l.ready_depth, |s| s.t_ns)
    }

    /// All store byte-occupancy samples, sorted by time.
    pub fn store_bytes_samples(&self) -> Vec<CounterSample> {
        self.timeline(|l| &l.store_bytes, |s| s.t_ns)
    }
}

impl std::fmt::Debug for Observability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observability")
            .field("capture", &self.capture.is_some())
            .finish_non_exhaustive()
    }
}

/// Cross-layer view of the ATM engine's aggregate counters, as reported
/// through the runtime's `Observation`-style unified snapshots. A plain
/// data carrier so
/// lower layers need not depend on the engine crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineObservation {
    /// Tasks of memoizable types handled by the engine.
    pub seen: u64,
    /// Tasks bypassed with outputs copied from the THT.
    pub tht_bypassed: u64,
    /// Tasks deferred to an in-flight producer.
    pub ikt_deferred: u64,
    /// THT hits verified by execution during training.
    pub training_hits: u64,
    /// Tasks executed (memoizable types only), gated ones included.
    pub executed: u64,
    /// Tasks executed unkeyed — no hash, probe, IKT, snapshot or insert —
    /// because the profitability ledger had closed their type.
    pub gated: u64,
    /// Nanoseconds spent computing hash keys.
    pub hash_ns: u64,
    /// Nanoseconds spent probing the THT and the IKT.
    pub probe_ns: u64,
    /// Nanoseconds spent copying outputs.
    pub copy_ns: u64,
    /// Nanoseconds spent comparing training hits with the executed outputs.
    pub compare_ns: u64,
    /// Kernel nanoseconds of the executions the engine keyed (and timed).
    pub kernel_ns: u64,
    /// Kernel nanoseconds avoided by steady-state THT hits and served IKT
    /// deferrals.
    pub saved_ns: u64,
}

impl std::ops::AddAssign for EngineObservation {
    fn add_assign(&mut self, other: Self) {
        self.seen += other.seen;
        self.tht_bypassed += other.tht_bypassed;
        self.ikt_deferred += other.ikt_deferred;
        self.training_hits += other.training_hits;
        self.executed += other.executed;
        self.gated += other.gated;
        self.hash_ns += other.hash_ns;
        self.probe_ns += other.probe_ns;
        self.copy_ns += other.copy_ns;
        self.compare_ns += other.compare_ns;
        self.kernel_ns += other.kernel_ns;
        self.saved_ns += other.saved_ns;
    }
}

impl EngineObservation {
    /// Tasks whose execution was avoided.
    pub fn reused(&self) -> u64 {
        self.tht_bypassed + self.ikt_deferred
    }

    /// The paper's reuse metric over the tasks the engine saw.
    pub fn reuse_percent(&self) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        100.0 * self.reused() as f64 / self.seen as f64
    }
}

/// Cross-layer view of the memo store's counters (see `EngineObservation`
/// for why this is a plain data carrier).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreObservation {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Entries stored (including replacements).
    pub insertions: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// Entries refused by admission control.
    pub rejected_admissions: u64,
    /// Estimated kernel nanoseconds saved by replayed hits.
    pub saved_ns: u64,
    /// Bytes currently charged against the budget.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_one_of_everything(obs: &Observability) {
        obs.record_latency(LatencyMetric::MemoLookup, 2, 400);
        obs.record_decision(
            0,
            DecisionRecord {
                task_type: 0,
                task_id: 0,
                decision: MemoDecision::MissExecute,
                metric_value: 0.0,
                tau: 0.0,
                p: 1.0,
                producer: None,
                t_ns: obs.now_ns(),
            },
        );
        obs.record_state(StateSpan {
            worker: 0,
            state: "Task Execution",
            start_ns: 0,
            end_ns: 1,
        });
        obs.record_span(TaskSpan {
            worker: 0,
            task_id: 0,
            task_type: 0,
            start_ns: 0,
            end_ns: 1,
        });
        obs.sample_ready_depth(0, 3);
        obs.sample_store_bytes(0, 1024);
    }

    #[test]
    fn bounded_handle_keeps_no_unbounded_log() {
        let obs = Observability::enabled();
        record_one_of_everything(&obs);
        assert_eq!(obs.metrics().get(LatencyMetric::MemoLookup).count, 1);
        assert_eq!(obs.decisions().total(), 1);
        assert!(obs.states().is_empty());
        assert!(obs.spans().is_empty());
        assert!(obs.ready_depth_samples().is_empty());
        assert!(obs.store_bytes_samples().is_empty());
    }

    #[test]
    fn enabled_handle_round_trips() {
        let obs = Observability::capture();
        let before = obs.now_ns();
        record_one_of_everything(&obs);
        let after = obs.now_ns();
        obs.note_type_name(3, "cholesky_potrf");
        obs.note_type_name(3, "other"); // first registration wins
        assert_eq!(obs.metrics().get(LatencyMetric::MemoLookup).count, 1);
        assert_eq!(obs.decisions().total(), 1);
        assert_eq!(obs.states().len(), 1);
        assert_eq!(obs.spans().len(), 1);
        // Samples are stamped on the handle's own clock.
        let depth = obs.ready_depth_samples();
        assert_eq!(depth.len(), 1);
        assert_eq!(depth[0].value, 3);
        assert!((before..=after).contains(&depth[0].t_ns));
        let bytes = obs.store_bytes_samples();
        assert_eq!(bytes[0].value, 1024);
        assert!((before..=after).contains(&bytes[0].t_ns));
        assert_eq!(obs.type_name(3).as_deref(), Some("cholesky_potrf"));
    }

    #[test]
    fn capture_handle_never_drops_a_decision() {
        let obs = Observability::capture();
        let offered = 2 * decision::DEFAULT_RING_CAPACITY + 1;
        for _ in 0..offered {
            record_one_of_everything(&obs); // all decisions on one shard
        }
        let snap = obs.decisions();
        assert_eq!(snap.records.len(), offered);
        assert_eq!(snap.dropped, 0);
    }
}
