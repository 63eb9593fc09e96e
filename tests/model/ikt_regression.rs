//! Regression — the PR-4 IKT deferred hand-off race, rediscovered.
//!
//! The deferred copy-out path (§III-A of the paper) races a worker that is
//! deferring a task against the in-flight producer that completes it. The
//! version shipped in PR 4 asserted the task was still `Running` when the
//! worker got around to marking it `Deferred`; the producer can legally
//! finish the waiter first, and the worker died on the assert. The shipped
//! fix is a tolerant compare-exchange ([`TaskGraph::mark_deferred`]); the
//! buggy original is preserved here, as [`mark_deferred_legacy`], exactly
//! so this suite can prove the checker would have caught it.
//!
//! These models drive the *real* `TaskGraph` — not a hand-written replica.
//! In the ordinary build the graph's internals are uninstrumented, so each
//! model thread runs its whole call as one atomic slice and two schedules
//! cover both orders: the bug is found deterministically on the first
//! budgeted run. Under `RUSTFLAGS='--cfg atm_check'` the graph's own
//! atomics and locks become instrumented and the checker interleaves the
//! actual CAS against the actual finish protocol, op by op.

use atm_runtime::dependence::{NodeState, TaskGraph};
use atm_runtime::{Access, DataStore, TaskDesc, TaskId, TaskTypeId};
use atm_sync::check::{thread, Checker, FailureKind};
use std::sync::Arc;

/// The PR-4 deferred hand-off bug: it *asserts* the task is still `Running`
/// before marking it deferred, instead of tolerating a producer that
/// already finished the waiter. The checker must rediscover the resulting
/// panic deterministically within a bounded schedule budget;
/// [`TaskGraph::mark_deferred`] (the shipped CAS fix) must pass the same
/// budget clean.
fn mark_deferred_legacy(graph: &TaskGraph, task: TaskId) {
    // BUG (shipped in PR 4): between the deferral registration and this
    // call, the in-flight producer can finish the waiter; the state is
    // then `Finished`, not `Running`, and the worker dies here.
    assert_eq!(
        graph.state(task),
        NodeState::Running,
        "only running tasks can be deferred"
    );
    graph.mark_deferred(task);
}

/// One running task; the producer finishes it while the worker defers it.
/// Returns the graph so callers can assert quiescence.
fn deferral_handoff(legacy: bool) {
    let store = DataStore::new();
    let region = store.register_zeros::<f32>("r", 16).unwrap();
    let graph = Arc::new(TaskGraph::new());
    let (task, ready) = graph.submit(TaskDesc::new(
        TaskTypeId::from_raw(0),
        vec![Access::write(&region)],
    ));
    assert!(ready);
    graph.mark_running(task);

    // The in-flight producer completes the waiter it is providing for.
    let g2 = Arc::clone(&graph);
    let producer = thread::spawn(move || {
        g2.finish(task);
    });
    // The deferring worker marks the same task deferred.
    let g3 = Arc::clone(&graph);
    let worker = thread::spawn(move || {
        if legacy {
            mark_deferred_legacy(&g3, task);
        } else {
            g3.mark_deferred(task);
        }
    });
    producer.join();
    worker.join();
}

#[test]
fn the_checker_rediscovers_the_pr4_deferral_race() {
    let report = Checker::exhaustive()
        .max_schedules(1_000)
        .check(|| deferral_handoff(true));
    let failure = report.failure.as_ref().unwrap_or_else(|| {
        panic!(
            "the seeded PR-4 race was not found in {} schedules",
            report.schedules
        )
    });
    assert_eq!(failure.kind, FailureKind::Panic, "found {failure}");
    assert!(
        !failure.schedule.is_empty(),
        "a found failure carries its reproducing schedule"
    );
    // The recorded schedule replays to the same panic, deterministically.
    let replayed = Checker::exhaustive().replay(|| deferral_handoff(true), &failure.schedule);
    assert_eq!(replayed.failure_kind(), Some(FailureKind::Panic));
}

#[test]
fn the_shipped_cas_fix_passes_the_same_budget_clean() {
    let report = Checker::exhaustive()
        .max_schedules(1_000)
        .check(|| deferral_handoff(false));
    report.assert_passed();
}

#[test]
fn the_shipped_cas_fix_survives_randomized_exploration() {
    let report = Checker::random(0xA7_1CC0DE, 200).check(|| deferral_handoff(false));
    report.assert_passed();
}
