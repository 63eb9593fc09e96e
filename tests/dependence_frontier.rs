//! Differential property test of the per-region dependence frontier.
//!
//! The graph wires one edge per dependence: a new access waits on the
//! frontier of its region (the last writer and the readers since), not on
//! every live conflicting accessor. The rule it replaced — *a task depends
//! on every unfinished earlier task with a conflicting access* — is kept
//! here as the oracle. On randomized programs of `In`/`Out`/`InOut`
//! accesses over a few regions, with finishes interleaved between
//! submissions, the frontier must
//!
//! * wire no edge the oracle would not (and none twice),
//! * order — through the transitive closure of its edges — every pair the
//!   oracle orders, and
//! * never let a task become ready while an oracle predecessor is
//!   unfinished.
//!
//! Cases come from the suite's deterministic PRNG, so a failure is
//! reproducible from its case index.

use atm_hash::Xoshiro256StarStar;
use atm_runtime::dependence::{NodeState, TaskGraph};
use atm_runtime::{Access, DataStore, Region, TaskDesc, TaskId, TaskTypeId};

const CASES: u64 = 200;
const REGIONS: usize = 3;
const MAX_TASKS: usize = 64;

fn gen_access(rng: &mut Xoshiro256StarStar, regions: &[Region<f32>]) -> Access {
    let region = &regions[rng.below(regions.len())];
    match rng.below(3) {
        0 => Access::read(region),
        1 => Access::write(region),
        _ => Access::read_write(region),
    }
}

/// Two accesses conflict when they name the same region and at least one
/// of them writes (an access always covers its whole region).
fn conflicts(a: &Access, b: &Access) -> bool {
    a.region == b.region && (a.mode.is_write() || b.mode.is_write())
}

/// What the test knows about one submitted task.
struct Submitted {
    id: TaskId,
    accesses: Vec<Access>,
    finished: bool,
    /// Indices of the tasks the oracle makes this one wait for.
    oracle_preds: Vec<usize>,
    /// Indices of the tasks the graph wired an edge to from this one.
    successors: Vec<usize>,
}

/// The old dependence rule: every unfinished earlier task with a
/// conflicting access.
fn oracle_preds(tasks: &[Submitted], accesses: &[Access]) -> Vec<usize> {
    tasks
        .iter()
        .enumerate()
        .filter(|(_, earlier)| {
            !earlier.finished
                && accesses
                    .iter()
                    .any(|a| earlier.accesses.iter().any(|b| conflicts(a, b)))
        })
        .map(|(index, _)| index)
        .collect()
}

/// True when `to` is reachable from `from` along the wired edges.
fn reaches(tasks: &[Submitted], from: usize, to: usize) -> bool {
    let mut stack = vec![from];
    let mut visited = vec![false; tasks.len()];
    while let Some(at) = stack.pop() {
        if at == to {
            return true;
        }
        if !std::mem::replace(&mut visited[at], true) {
            stack.extend(&tasks[at].successors);
        }
    }
    false
}

/// Runs one ready task, chosen at random; false when none is ready.
fn finish_one(graph: &TaskGraph, tasks: &mut [Submitted], rng: &mut Xoshiro256StarStar) -> bool {
    let ready: Vec<usize> = (0..tasks.len())
        .filter(|&i| !tasks[i].finished && graph.state(tasks[i].id) == NodeState::Ready)
        .collect();
    if ready.is_empty() {
        return false;
    }
    let pick = ready[rng.below(ready.len())];
    for &pred in &tasks[pick].oracle_preds {
        assert!(
            tasks[pred].finished,
            "task {pick} became ready before its oracle predecessor {pred} finished"
        );
    }
    graph.mark_running(tasks[pick].id);
    graph.finish(tasks[pick].id);
    tasks[pick].finished = true;
    true
}

fn run_case(case: u64) {
    let mut rng = Xoshiro256StarStar::new(0xF20_0071E ^ case);
    let store = DataStore::new();
    let regions: Vec<Region<f32>> = (0..REGIONS)
        .map(|i| store.register_zeros::<f32>(format!("r{i}"), 16).unwrap())
        .collect();
    let graph = TaskGraph::new();
    let mut tasks: Vec<Submitted> = Vec::new();
    let task_count = 8 + rng.below(MAX_TASKS - 8);
    // A case leans towards submitting (deep live windows) or towards
    // finishing (frontier entries that are already finished when met).
    let finish_bias = 1 + rng.below(3);

    while tasks.len() < task_count {
        if rng.below(4) < finish_bias && finish_one(&graph, &mut tasks, &mut rng) {
            continue;
        }
        let accesses: Vec<Access> = (0..1 + rng.below(3))
            .map(|_| gen_access(&mut rng, &regions))
            .collect();
        let expected = oracle_preds(&tasks, &accesses);
        let (id, ready) = graph.submit(TaskDesc::new(TaskTypeId::from_raw(0), accesses.clone()));
        let me = tasks.len();

        let wired: Vec<usize> = (0..me)
            .filter(|&p| !tasks[p].finished && graph.successors(tasks[p].id).contains(&id))
            .collect();
        for &pred in &wired {
            assert!(
                expected.contains(&pred),
                "case {case}: task {me} got an edge from {pred} the all-live-accessors rule would not wire"
            );
            tasks[pred].successors.push(me);
        }
        assert_eq!(
            graph.unresolved(id),
            wired.len(),
            "case {case}: task {me} holds a duplicate or untraceable edge"
        );
        assert_eq!(ready, wired.is_empty());
        tasks.push(Submitted {
            id,
            accesses,
            finished: false,
            oracle_preds: expected,
            successors: Vec::new(),
        });
        for &pred in &tasks[me].oracle_preds {
            assert!(
                reaches(&tasks, pred, me),
                "case {case}: the frontier's edges do not order {pred} before {me}"
            );
        }
    }

    while finish_one(&graph, &mut tasks, &mut rng) {}
    assert!(
        tasks.iter().all(|t| t.finished),
        "case {case}: the program did not drain"
    );
    assert_eq!(graph.finished_count(), task_count as u64);
    assert_eq!(graph.live_nodes(), 0);
    assert!(graph.edges_wired() <= tasks.iter().map(|t| t.oracle_preds.len() as u64).sum());
}

#[test]
fn frontier_edges_order_what_the_all_live_accessors_rule_orders_and_nothing_more() {
    for case in 0..CASES {
        run_case(case);
    }
}
