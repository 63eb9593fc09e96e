//! Protocol 3 — closed-successor-list release with the submission guard.
//!
//! `TaskGraph::submit` protects a task being wired with a *submission
//! guard*: `unresolved` starts at 1, each raw-dependence edge adds 1, and
//! the guard is released (fetch_sub) once wiring completes. A finishing
//! predecessor closes its successor list under the successor lock and
//! decrements `unresolved` of every registered successor. Whoever performs
//! the decrement that reaches zero owns the (exactly-one) ready push.
//!
//! The positive model asserts exactly-once readiness in every explored
//! schedule, with the producer's payload visible to the ready path (the
//! happens-before teeth). The negative model weakens the final decrement
//! to `Relaxed`, severing the publication — the checker must flag the
//! data race.
//!
//! The second pair models where the submitter's predecessor comes from: a
//! **frontier entry**, which only names a task. Completions never visit
//! the frontiers, so an entry can name a task that finishes between the
//! moment the submitter reads it as unfinished and the moment it takes the
//! successor lock. The closed check under that lock is what makes the
//! stale read harmless (no edge, no lost release); the negative model
//! skips it and the checker must find the schedule in which the edge lands
//! in a list nobody will ever drain.

use atm_sync::atomic::Ordering;
use atm_sync::check::sync::{AtomicUsize, Data, Mutex};
use atm_sync::check::{thread, Checker, FailureKind};
use std::sync::Arc;

/// One predecessor (`pred`) finishing concurrently with the submission of
/// one successor that depends on it.
struct ReleaseModel {
    /// Predecessor's successor slot: `(closed, registered successors)`.
    pred_successors: Mutex<(bool, Vec<u32>)>,
    /// The successor's dependence count, submission guard included.
    unresolved: AtomicUsize,
    /// Payload written by the predecessor before it finishes; the ready
    /// path must observe it (happens-before via the `unresolved` RMWs).
    payload: Data<u64>,
    /// How many times the successor was pushed ready (must end at 1).
    ready_pushes: Data<u32>,
}

fn release_model(decrement_order: Ordering) {
    let m = Arc::new(ReleaseModel {
        pred_successors: Mutex::new((false, Vec::new())),
        // Submission guard: held by the submitting thread from the start.
        unresolved: AtomicUsize::new(1),
        payload: Data::new(0),
        ready_pushes: Data::new(0),
    });

    // The finishing predecessor.
    let m2 = Arc::clone(&m);
    let finisher = thread::spawn(move || {
        // The kernel's output, produced before the finish protocol runs.
        m2.payload.set(42);
        // Close the successor list; late submissions must not register.
        let successors = {
            let mut slot = m2.pred_successors.lock();
            slot.0 = true;
            std::mem::take(&mut slot.1)
        };
        for _succ in successors {
            let prev = m2.unresolved.fetch_sub(1, decrement_order);
            assert!(prev > 0, "successor with no unresolved dependences");
            if prev == 1 {
                // Final decrement: this thread owns the ready push.
                assert_eq!(m2.payload.get(), 42, "ready task sees its input");
                m2.ready_pushes.with_mut(|r| *r += 1);
            }
        }
    });

    // The submitting thread, wiring the successor onto the predecessor.
    let registered = {
        let mut slot = m.pred_successors.lock();
        if slot.0 {
            // Closed: the predecessor already finished; the dependence is
            // satisfied without an edge.
            false
        } else {
            slot.1.push(7);
            m.unresolved.fetch_add(1, Ordering::SeqCst);
            true
        }
    };
    // Release the submission guard; if everything else already resolved,
    // the submitter owns the ready push.
    let prev = m.unresolved.fetch_sub(1, decrement_order);
    assert!(prev > 0);
    if prev == 1 {
        assert_eq!(m.payload.get(), 42, "ready task sees its input");
        m.ready_pushes.with_mut(|r| *r += 1);
    }
    finisher.join();

    // Quiescence: all edges released, exactly one ready push.
    assert_eq!(m.unresolved.load(Ordering::SeqCst), 0);
    assert_eq!(m.ready_pushes.get(), 1, "exactly-once readiness");
    let _ = registered;
}

#[test]
fn closed_list_release_is_exactly_once_and_race_free() {
    let report = Checker::exhaustive()
        .max_schedules(100_000)
        .check(|| release_model(Ordering::SeqCst));
    report.assert_passed();
    assert!(
        report.complete,
        "the release model should be exhaustively explorable, ran {}",
        report.schedules
    );
}

#[test]
fn relaxed_final_decrement_is_flagged_as_a_race() {
    // With a Relaxed fetch_sub the producer's payload write is no longer
    // published to whoever takes the final decrement: the checker must
    // find a schedule where the ready path's read races with the write.
    let report = Checker::exhaustive()
        .max_schedules(100_000)
        .check(|| release_model(Ordering::Relaxed));
    assert_eq!(
        report.failure_kind(),
        Some(FailureKind::DataRace),
        "expected a data race from the relaxed decrement, got {:?}",
        report.failure
    );
}

/// A submitter that found its predecessor in a region's frontier, racing
/// that predecessor's finish. `check_closed` is the shipped discipline.
fn stale_frontier_entry_model(check_closed: bool) {
    struct Model {
        /// The predecessor's lifecycle state: 0 running, 1 finished. What a
        /// frontier scan can learn about the task an entry names.
        pred_finished: AtomicUsize,
        pred_successors: Mutex<(bool, Vec<u32>)>,
        unresolved: AtomicUsize,
        ready_pushes: Data<u32>,
    }
    let m = Arc::new(Model {
        pred_finished: AtomicUsize::new(0),
        pred_successors: Mutex::new((false, Vec::new())),
        unresolved: AtomicUsize::new(1),
        ready_pushes: Data::new(0),
    });

    // The finishing predecessor: state first, then close and drain — it
    // never touches the frontier entry that names it.
    let m2 = Arc::clone(&m);
    let finisher = thread::spawn(move || {
        m2.pred_finished.store(1, Ordering::SeqCst);
        let successors = {
            let mut slot = m2.pred_successors.lock();
            slot.0 = true;
            std::mem::take(&mut slot.1)
        };
        for _succ in successors {
            if m2.unresolved.fetch_sub(1, Ordering::SeqCst) == 1 {
                m2.ready_pushes.with_mut(|r| *r += 1);
            }
        }
    });

    // The submitter: the frontier entry reads unfinished (or not) …
    if m.pred_finished.load(Ordering::SeqCst) == 0 {
        // … and by the time the successor lock is held, it may be stale.
        let mut slot = m.pred_successors.lock();
        if !(check_closed && slot.0) {
            slot.1.push(7);
            m.unresolved.fetch_add(1, Ordering::SeqCst);
        }
    }
    if m.unresolved.fetch_sub(1, Ordering::SeqCst) == 1 {
        m.ready_pushes.with_mut(|r| *r += 1);
    }
    finisher.join();

    assert_eq!(
        m.unresolved.load(Ordering::SeqCst),
        0,
        "an edge was pushed onto a list nobody drains: the release is lost"
    );
    assert_eq!(m.ready_pushes.get(), 1, "exactly-once readiness");
}

#[test]
fn a_stale_frontier_entry_wires_no_edge_and_loses_no_release() {
    let report = Checker::exhaustive()
        .max_schedules(100_000)
        .check(|| stale_frontier_entry_model(true));
    report.assert_passed();
    assert!(
        report.complete,
        "the stale-entry model should be exhaustively explorable, ran {}",
        report.schedules
    );
}

#[test]
fn skipping_the_closed_check_loses_the_release() {
    let report = Checker::exhaustive()
        .max_schedules(100_000)
        .check(|| stale_frontier_entry_model(false));
    assert_eq!(
        report.failure_kind(),
        Some(FailureKind::Panic),
        "expected the lost release to trip the quiescence assert, got {:?}",
        report.failure
    );
}
