//! Protocol 4 — one lock per region shard: the submission permit is the
//! frontier guard.
//!
//! A submitter locks the shard of every region it names, ascending, and
//! admits through the held guards (the `SubmissionPermit`); the gauges lock
//! one shard at a time. Positive: two submitters whose shard sets overlap
//! in two shards plus a gauge reader — no deadlock, no lock-order cycle,
//! exact frontier entries, and the shared regions list the submitters in
//! one order (a permit serialises conflicting submitters whole). Negative:
//! one submitter locks descending; the checker must find the lock-order
//! cycle (or its deadlock) and the schedule must replay to it. A last test
//! drives the real `TaskGraph` the same way, op by op under `--cfg
//! atm_check`.

use atm_runtime::dependence::TaskGraph;
use atm_runtime::{Access, DataStore, Region, TaskDesc, TaskTypeId};
use atm_sync::check::sync::Mutex;
use atm_sync::check::{thread, Checker, FailureKind};
use std::sync::Arc;

/// Region `r` lives in shard `r`; a shard holds its region's frontier.
type Shards = [Mutex<Vec<u32>>; 3];

/// Locks the shards of `regions` (descending: the seeded bug), then admits
/// one entry per region through the held guards.
fn submit(shards: &Shards, id: u32, regions: &[usize], descending: bool) {
    let mut order = regions.to_vec();
    if descending {
        order.reverse();
    }
    let mut permit: Vec<_> = order.iter().map(|&r| shards[r].lock()).collect();
    for frontier in &mut permit {
        frontier.push(id);
    }
}

fn frontier_model(descending: bool) {
    let shards: Arc<Shards> = Arc::new(std::array::from_fn(|_| Mutex::new(Vec::new())));
    let s = Arc::clone(&shards);
    let a = thread::spawn(move || submit(&s, 1, &[0, 1, 2], false));
    let s = Arc::clone(&shards);
    let b = thread::spawn(move || submit(&s, 2, &[1, 2], descending));
    // The gauge (`TaskGraph::frontier_len`) on the shard both contend for.
    assert!(shards[1].lock().len() <= 2);
    a.join();
    b.join();
    let frontier = |r: usize| shards[r].lock().clone();
    assert_eq!(frontier(0), vec![1]);
    assert_eq!(frontier(1).len(), 2);
    assert_eq!(
        frontier(2),
        frontier(1),
        "conflicting permits serialise whole"
    );
}

#[test]
fn ascending_shard_permits_never_deadlock_and_admit_exactly() {
    let report = Checker::exhaustive()
        .max_schedules(100_000)
        .check(|| frontier_model(false));
    report.assert_passed();
    assert!(report.complete, "ran {} schedules", report.schedules);
}

#[test]
fn a_descending_submitter_is_found_as_a_lock_order_cycle() {
    let report = Checker::exhaustive()
        .max_schedules(100_000)
        .check(|| frontier_model(true));
    let failure = report.failure.expect("the descending submitter is found");
    assert!(
        matches!(
            failure.kind,
            FailureKind::LockOrderCycle | FailureKind::Deadlock
        ),
        "found {failure}"
    );
    let replayed = Checker::exhaustive().replay(|| frontier_model(true), &failure.schedule);
    assert_eq!(replayed.failure_kind(), Some(failure.kind));
}

/// The real graph: inout submitters on regions {0, 1} and {1, 2}, and a
/// thread reading the gauges.
fn real_graph_model() {
    let store = DataStore::new();
    let regions: Vec<Region<f32>> = (0..3)
        .map(|i| store.register_zeros::<f32>(format!("r{i}"), 4).unwrap())
        .collect();
    let graph = Arc::new(TaskGraph::new());
    let submitters = [0, 1].map(|lo| {
        let graph = Arc::clone(&graph);
        let accesses = vec![
            Access::read_write(&regions[lo]),
            Access::read_write(&regions[lo + 1]),
        ];
        thread::spawn(move || {
            graph.submit(TaskDesc::new(TaskTypeId::from_raw(0), accesses));
        })
    });
    assert!(graph.live_index_regions() <= 3);
    assert!(graph.frontier_len(regions[1].id()) <= 1, "last writer only");
    for submitter in submitters {
        submitter.join();
    }
    assert_eq!(graph.live_index_regions(), 3);
    assert_eq!(
        graph.edges_wired(),
        1,
        "the later submitter waits on the earlier"
    );
    assert!(regions.iter().all(|r| graph.frontier_len(r.id()) == 1));
    assert!(graph.edges_respect_submission_order());
}

#[test]
fn the_real_graph_admits_exactly_under_two_submitters_and_a_gauge() {
    Checker::exhaustive()
        .max_schedules(2_000)
        .check(real_graph_model)
        .assert_passed();
}
