//! The memo-decision audit trail.
//!
//! Every decision the memoization stack takes — THT hit, IKT deferral,
//! miss→execute, training accept/reject, a type closed or re-opened by its
//! profitability ledger, store admission denial, eviction — is emitted as a structured
//! [`DecisionRecord`] into per-worker ring buffers. Memory is bounded: when
//! a ring is full the oldest record is overwritten and a drop counter
//! ticks, while the per-`(type, decision)` *counts* stay exact regardless
//! of drops, so aggregate reconciliation against the engine's own counters
//! holds even on runs long enough to wrap the rings. A capture handle sizes
//! the rings without bound, which makes the stream the run's full reuse
//! provenance (Figure 9).

use atm_sync::atomic::{AtomicU64, Ordering};
use atm_sync::Mutex;
use std::collections::HashMap;

/// Default per-shard ring capacity (records kept per worker shard).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// What the memoization stack decided about one task (or store entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoDecision {
    /// Steady-state THT hit: outputs copied, execution bypassed.
    ThtHit,
    /// Same key already in flight: deferred behind the producer.
    IktDefer,
    /// No usable entry: the task executes.
    MissExecute,
    /// Training-phase comparison accepted (output within τ).
    TrainingAccept,
    /// Training-phase comparison rejected (some output beyond τ).
    TrainingReject,
    /// The type's profitability ledger found memoization spending more than
    /// it earns plus its allowance and closed the type: its next tasks
    /// execute unkeyed. The record's scalars carry the ledger reading (see
    /// [`DecisionRecord::gate_ledger`]).
    GateClose,
    /// The closure's back-off ran out and the type is keyed again, on a
    /// fresh (smaller) grant.
    GateReopen,
    /// The store's admission control refused the entry.
    AdmissionDenied,
    /// The store evicted a resident entry.
    Eviction,
}

impl MemoDecision {
    /// Every decision kind, in display order.
    pub const ALL: [MemoDecision; 9] = [
        MemoDecision::ThtHit,
        MemoDecision::IktDefer,
        MemoDecision::MissExecute,
        MemoDecision::TrainingAccept,
        MemoDecision::TrainingReject,
        MemoDecision::GateClose,
        MemoDecision::GateReopen,
        MemoDecision::AdmissionDenied,
        MemoDecision::Eviction,
    ];

    /// Stable snake_case name used in JSONL dumps and trace args.
    pub fn name(self) -> &'static str {
        match self {
            MemoDecision::ThtHit => "tht_hit",
            MemoDecision::IktDefer => "ikt_defer",
            MemoDecision::MissExecute => "miss_execute",
            MemoDecision::TrainingAccept => "training_accept",
            MemoDecision::TrainingReject => "training_reject",
            MemoDecision::GateClose => "gate_close",
            MemoDecision::GateReopen => "gate_reopen",
            MemoDecision::AdmissionDenied => "admission_denied",
            MemoDecision::Eviction => "eviction",
        }
    }
}

/// One structured decision event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// Raw task type id (`TaskTypeId::index()`).
    pub task_type: u32,
    /// Raw task id (`TaskId::index()`). For store events this is the
    /// producer task of the entry concerned.
    pub task_id: u64,
    /// The decision taken.
    pub decision: MemoDecision,
    /// The decision's driving quantity: observed relative error for
    /// training comparisons, benefit/charge for store decisions, the
    /// nanoseconds spent for gate decisions, 0 where nothing applies.
    pub metric_value: f64,
    /// The error tolerance τ in effect (0 for exact specs). On gate
    /// decisions: the kernel nanoseconds earned.
    pub tau: f64,
    /// The selection percentage `p` the task was keyed at, as a fraction.
    /// On gate decisions: the allowance in nanoseconds.
    pub p: f64,
    /// Reuse provenance: the raw id of the task whose outputs served this
    /// one. `Some` on every [`MemoDecision::ThtHit`] and
    /// [`MemoDecision::IktDefer`] record, `None` elsewhere.
    pub producer: Option<u64>,
    /// Timestamp on the handle's clock ([`crate::Observability::now_ns`]).
    pub t_ns: u64,
}

impl DecisionRecord {
    /// The ledger reading behind a [`MemoDecision::GateClose`] /
    /// [`MemoDecision::GateReopen`] record as `(spent_ns, earned_ns,
    /// allowance_ns)` — a closure means `spent > earned + allowance` over
    /// the opening it ends; a re-opening reports the type's lifetime totals
    /// and the grant it starts with. `None` for every other decision.
    pub fn gate_ledger(&self) -> Option<(f64, f64, f64)> {
        matches!(
            self.decision,
            MemoDecision::GateClose | MemoDecision::GateReopen
        )
        .then_some((self.metric_value, self.tau, self.p))
    }
}

/// One worker shard: a bounded overwrite-oldest ring plus the exact
/// per-`(type, decision)` counts.
struct DecisionShard {
    ring: Vec<DecisionRecord>,
    /// Overwrite cursor once the ring reached capacity.
    next: usize,
    counts: HashMap<(u32, MemoDecision), u64>,
}

/// A cache-padded shard wrapper so neighbouring shards' lock words do not
/// share a line.
#[repr(align(128))]
struct PaddedShard {
    inner: Mutex<DecisionShard>,
    dropped: AtomicU64,
}

/// The sharded decision log.
pub struct DecisionLog {
    shards: Vec<PaddedShard>,
    capacity: usize,
}

impl DecisionLog {
    /// Creates a log with `capacity` records per worker shard.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            shards: (0..crate::hist::SHARDS)
                .map(|_| PaddedShard {
                    inner: Mutex::new(DecisionShard {
                        ring: Vec::new(),
                        next: 0,
                        counts: HashMap::new(),
                    }),
                    dropped: AtomicU64::new(0),
                })
                .collect(),
            capacity,
        }
    }

    /// Creates a log with the default per-shard capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Records one decision on `worker`'s shard.
    pub fn record(&self, worker: usize, record: DecisionRecord) {
        let shard = &self.shards[worker % self.shards.len()];
        let mut inner = shard.inner.lock();
        *inner
            .counts
            .entry((record.task_type, record.decision))
            .or_insert(0) += 1;
        if inner.ring.len() < self.capacity {
            inner.ring.push(record);
        } else {
            let next = inner.next;
            inner.ring[next] = record;
            inner.next = (next + 1) % self.capacity;
            shard.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy: retained records (oldest first, merged across
    /// shards by `t_ns`), exact counts, and the drop total.
    pub fn snapshot(&self) -> DecisionSnapshot {
        let mut records = Vec::new();
        let mut counts: HashMap<(u32, MemoDecision), u64> = HashMap::new();
        let mut dropped = 0u64;
        for shard in &self.shards {
            dropped += shard.dropped.load(Ordering::Relaxed);
            let inner = shard.inner.lock();
            // Oldest-first order within a wrapped ring: cursor..end, then
            // start..cursor.
            records.extend_from_slice(&inner.ring[inner.next..]);
            records.extend_from_slice(&inner.ring[..inner.next]);
            for (k, v) in &inner.counts {
                *counts.entry(*k).or_insert(0) += v;
            }
        }
        records.sort_by_key(|r| r.t_ns);
        DecisionSnapshot {
            records,
            counts,
            dropped,
        }
    }
}

impl Default for DecisionLog {
    fn default() -> Self {
        Self::new()
    }
}

/// Owned snapshot of the decision log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionSnapshot {
    /// Retained records, oldest first across all shards.
    pub records: Vec<DecisionRecord>,
    /// Exact per-`(task_type, decision)` counts — unaffected by ring drops.
    pub counts: HashMap<(u32, MemoDecision), u64>,
    /// Records overwritten because their ring was full.
    pub dropped: u64,
}

impl DecisionSnapshot {
    /// Total decisions ever recorded (retained + dropped).
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The exact count of one `(type, decision)` pair.
    pub fn count(&self, task_type: u32, decision: MemoDecision) -> u64 {
        self.counts
            .get(&(task_type, decision))
            .copied()
            .unwrap_or(0)
    }

    /// The retained records of one task type, oldest first.
    pub fn records_for(&self, task_type: u32) -> Vec<DecisionRecord> {
        self.records
            .iter()
            .filter(|r| r.task_type == task_type)
            .copied()
            .collect()
    }

    /// Dumps the retained records as JSON Lines, one object per record.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            // Gate records name their scalars for what they are.
            let scalars = match r.gate_ledger() {
                Some(_) => ["spent_ns", "earned_ns", "allowance_ns"],
                None => ["metric_value", "tau", "p"],
            };
            out.push_str(&format!(
                "{{\"task_type\":{},\"task_id\":{},\"decision\":\"{}\",\
                 \"{}\":{},\"{}\":{},\"{}\":{},\"producer\":{},\"t_ns\":{}}}\n",
                r.task_type,
                r.task_id,
                r.decision.name(),
                scalars[0],
                crate::chrome::json_f64(r.metric_value),
                scalars[1],
                crate::chrome::json_f64(r.tau),
                scalars[2],
                crate::chrome::json_f64(r.p),
                r.producer.map_or("null".to_string(), |id| id.to_string()),
                r.t_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(task_type: u32, task_id: u64, decision: MemoDecision, t_ns: u64) -> DecisionRecord {
        DecisionRecord {
            task_type,
            task_id,
            decision,
            metric_value: 0.5,
            tau: 0.2,
            p: 1.0,
            producer: None,
            t_ns,
        }
    }

    #[test]
    fn records_merge_sorted_by_time() {
        let log = DecisionLog::new();
        log.record(1, rec(0, 1, MemoDecision::MissExecute, 30));
        log.record(0, rec(0, 2, MemoDecision::ThtHit, 10));
        log.record(2, rec(1, 3, MemoDecision::IktDefer, 20));
        let snap = log.snapshot();
        let times: Vec<u64> = snap.records.iter().map(|r| r.t_ns).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(snap.count(0, MemoDecision::ThtHit), 1);
        assert_eq!(snap.count(0, MemoDecision::MissExecute), 1);
        assert_eq!(snap.records_for(1).len(), 1);
        assert_eq!(snap.dropped, 0);
    }

    /// Property: the ring never holds more than its capacity, and every
    /// overflow is accounted for in the drop counter — retained + dropped
    /// equals the number of records offered, exactly.
    #[test]
    fn ring_is_bounded_with_exact_drop_accounting() {
        let cap = 16;
        let log = DecisionLog::with_capacity(cap);
        let offered = 100u64;
        for i in 0..offered {
            // All onto one shard to force wrapping.
            log.record(3, rec(7, i, MemoDecision::MissExecute, i));
        }
        let snap = log.snapshot();
        assert_eq!(snap.records.len(), cap);
        assert_eq!(snap.dropped, offered - cap as u64);
        assert_eq!(snap.total(), offered);
        assert_eq!(snap.count(7, MemoDecision::MissExecute), offered);
        // Overwrite-oldest: the survivors are the newest `cap` records, in
        // order.
        let ids: Vec<u64> = snap.records.iter().map(|r| r.task_id).collect();
        let expected: Vec<u64> = (offered - cap as u64..offered).collect();
        assert_eq!(ids, expected);
    }

    /// Property: bounded memory and exact counts hold under concurrent
    /// recording from many threads.
    #[test]
    fn concurrent_recording_bounds_memory_and_counts() {
        use std::sync::Arc;
        let cap = 8;
        let log = Arc::new(DecisionLog::with_capacity(cap));
        let threads = 8u64;
        let per_thread = 1000u64;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        log.record(
                            w as usize,
                            rec(9, i, MemoDecision::Eviction, w * per_thread + i),
                        );
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let snap = log.snapshot();
        assert!(snap.records.len() <= cap * crate::hist::SHARDS);
        assert_eq!(snap.total(), threads * per_thread);
        assert_eq!(
            snap.records.len() as u64 + snap.dropped,
            threads * per_thread
        );
    }

    #[test]
    fn jsonl_emits_one_line_per_record() {
        let log = DecisionLog::new();
        log.record(0, rec(2, 11, MemoDecision::TrainingAccept, 5));
        log.record(0, rec(2, 12, MemoDecision::TrainingReject, 6));
        let dump = log.snapshot().to_jsonl();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("\"decision\":\"training_accept\""));
        assert!(dump.contains("\"decision\":\"training_reject\""));
        assert!(dump.contains("\"task_id\":12"));
        assert!(dump.contains("\"tau\":0.2"));
    }

    #[test]
    fn gate_records_dump_their_ledger_reading_by_name() {
        let log = DecisionLog::new();
        let mut close = rec(4, 7, MemoDecision::GateClose, 9);
        (close.metric_value, close.tau, close.p) = (9_000.0, 1_000.0, 4_000.0);
        log.record(0, close);
        assert_eq!(close.gate_ledger(), Some((9_000.0, 1_000.0, 4_000.0)));
        assert_eq!(rec(4, 8, MemoDecision::ThtHit, 10).gate_ledger(), None);
        let dump = log.snapshot().to_jsonl();
        assert!(dump.contains("\"decision\":\"gate_close\""));
        assert!(dump.contains("\"spent_ns\":9000"), "{dump}");
        assert!(dump.contains("\"earned_ns\":1000"));
        assert!(dump.contains("\"allowance_ns\":4000"));
        assert!(!dump.contains("\"tau\""));
        let names: std::collections::HashSet<_> =
            MemoDecision::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names.len(), MemoDecision::ALL.len());
    }
}
