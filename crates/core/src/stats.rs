//! Read-side views of the ATM engine's accounting.
//!
//! The engine counts once, per task type, on the type's own state; nothing
//! here is written on the task path. [`AtmStatsSnapshot`] is the sum over
//! the types, [`TypeSummary`] one type's counts joined with its training
//! controller, and [`ReuseEvent`] the reuse provenance read back from the
//! decision stream of the run's observability handle. They feed most of the
//! evaluation: reuse percentages, the chosen `p` per task type, the
//! hash/copy time split of Figure 7 and the provenance behind Figure 9.

use atm_obs::{DecisionSnapshot, MemoDecision};
use atm_runtime::TaskId;

/// Point-in-time copy of the engine's aggregate counters: the cross-layer
/// [`atm_obs::EngineObservation`] under the name this crate has always used.
pub use atm_obs::EngineObservation as AtmStatsSnapshot;

/// One reuse event: `consumer` had its outputs provided by `producer`
/// (either through the THT or through an IKT postponed copy-out).
///
/// Figure 9 plots, per producer task id (normalised by the total task
/// count), the cumulative number of reuses it generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseEvent {
    /// The task whose stored outputs were reused.
    pub producer: TaskId,
    /// The task that skipped execution thanks to the reuse.
    pub consumer: TaskId,
    /// Whether the reuse came from the THT (`false` means IKT).
    pub from_tht: bool,
}

impl ReuseEvent {
    /// The reuse events among the retained records of a decision stream:
    /// one per [`MemoDecision::ThtHit`] / [`MemoDecision::IktDefer`] record,
    /// oldest first. Complete when the stream dropped nothing (a capture
    /// handle never does).
    pub fn from_decisions(decisions: &DecisionSnapshot) -> Vec<ReuseEvent> {
        decisions
            .records
            .iter()
            .filter_map(|r| {
                let from_tht = match r.decision {
                    MemoDecision::ThtHit => true,
                    MemoDecision::IktDefer => false,
                    _ => return None,
                };
                Some(ReuseEvent {
                    producer: TaskId::from_raw(r.producer?),
                    consumer: TaskId::from_raw(r.task_id),
                    from_tht,
                })
            })
            .collect()
    }
}

/// Per-task-type summary exposed after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeSummary {
    /// Task type name.
    pub name: String,
    /// Tasks of this type seen by the engine.
    pub seen: u64,
    /// Tasks bypassed via the THT.
    pub tht_bypassed: u64,
    /// Tasks deferred via the IKT.
    pub ikt_deferred: u64,
    /// Tasks executed during the training phase despite a THT hit.
    pub training_hits: u64,
    /// The selection percentage in effect at the end of the run.
    pub final_p: f64,
    /// Whether the controller finished training (steady state).
    pub steady: bool,
    /// Number of output regions black-listed as unstable.
    pub unstable_outputs: usize,
    /// Tasks executed unkeyed while the type's profitability ledger had it
    /// closed (always 0 for pinned types: exact, fixed-precision, and every
    /// type under `static_atm()` / `fixed_p()`).
    pub gated: u64,
    /// Misses executed without capture or insert while a pinned type's
    /// retention ledger had it closed (always 0 for adaptive types).
    pub unretained: u64,
    /// Nanoseconds spent probing the THT and the IKT.
    pub probe_ns: u64,
    /// Kernel nanoseconds of the executions the engine keyed.
    pub kernel_ns: u64,
    /// Kernel nanoseconds avoided by steady-state hits and IKT deferrals.
    pub saved_ns: u64,
    /// Times the ledger closed the type: an adaptive type's keying, a
    /// pinned type's retention.
    pub gate_closures: u64,
    /// Whether the type is open right now: an adaptive type is being keyed,
    /// a pinned type retains its misses.
    pub open: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_obs::DecisionRecord;

    #[test]
    fn snapshot_and_reuse_percent() {
        let snap = AtmStatsSnapshot {
            seen: 10,
            tht_bypassed: 2,
            ikt_deferred: 1,
            hash_ns: 1000,
            ..Default::default()
        };
        assert_eq!(snap.reused(), 3);
        assert!((snap.reuse_percent() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn reuse_provenance_reads_back_from_decisions() {
        let record = |task_id, decision, producer| DecisionRecord {
            task_type: 0,
            task_id,
            decision,
            metric_value: 0.0,
            tau: 0.0,
            p: 1.0,
            producer,
            t_ns: task_id,
        };
        let mut decisions = DecisionSnapshot::default();
        decisions.records.extend([
            record(4, MemoDecision::MissExecute, None),
            record(5, MemoDecision::ThtHit, Some(1)),
            record(6, MemoDecision::IktDefer, Some(2)),
        ]);
        let events = ReuseEvent::from_decisions(&decisions);
        assert_eq!(events.len(), 2);
        assert!(events[0].from_tht);
        assert_eq!(events[0].consumer, TaskId::from_raw(5));
        assert!(!events[1].from_tht);
        assert_eq!(events[1].producer, TaskId::from_raw(2));
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let snap = AtmStatsSnapshot::default();
        assert_eq!(snap.reuse_percent(), 0.0);
        assert_eq!(snap.reused(), 0);
    }
}
