//! What one task costs the dependence graph from submission to retirement,
//! with no kernel, no interceptor and no worker hand-off in the way: the
//! submitter wires a whole window, then one thread drains it (pick up →
//! finish → release successors → retire), the two phases timed apart.
//!
//! Two shapes, the two ends of the frontier rule:
//!
//! * `chains` — 256 inout chains × 16 live waves (the `flood` benchmark's
//!   window): every task has one live predecessor, and must get **one**
//!   edge however many earlier members of its chain are live. The bench
//!   panics if edges per task exceed 1.0 — the regression it exists to
//!   catch is a dependence rule that wires a task to all its live
//!   conflicting accessors again.
//! * `fanout` — one writer, then 4 096 readers of its region: a reader
//!   meets the writer alone, never the readers before it.
//!
//! Run with: `cargo bench --bench task_lifecycle`

use atm_runtime::dependence::TaskGraph;
use atm_runtime::{Access, DataStore, Region, TaskDesc, TaskId, TaskTypeId};
use std::time::Instant;

const CHAINS: usize = 256;
const WAVES: usize = 16;
const READERS: usize = 4096;
const ROUNDS: usize = 40;

/// One round's cost, per task.
struct Round {
    submit_ns: f64,
    drain_ns: f64,
}

fn desc(access: Access) -> TaskDesc {
    TaskDesc::new(TaskTypeId::from_raw(0), vec![access])
}

/// Runs everything reachable from `ready` to completion on this thread, the
/// way a worker does: node from the id, finish into a reused packet.
fn drain(graph: &TaskGraph, mut ready: Vec<TaskId>) -> usize {
    let mut packet = Vec::new();
    let mut drained = 0;
    while let Some(id) = ready.pop() {
        let node = graph.start_running(id);
        packet.clear();
        graph.finish_node_into(&node, &mut packet);
        ready.extend_from_slice(&packet);
        drained += 1;
    }
    drained
}

/// Times one round: `submit` wires `tasks` tasks and returns the ready
/// ones, then everything is drained.
fn timed_round(
    graph: &TaskGraph,
    tasks: usize,
    submit: impl FnOnce(&TaskGraph) -> Vec<TaskId>,
) -> Round {
    let start = Instant::now();
    let ready = submit(graph);
    let submitted = Instant::now();
    assert_eq!(drain(graph, ready), tasks);
    let drained = Instant::now();
    Round {
        submit_ns: (submitted - start).as_nanos() as f64 / tasks as f64,
        drain_ns: (drained - submitted).as_nanos() as f64 / tasks as f64,
    }
}

/// `WAVES` waves of one task per chain, each wave a batch.
fn chains_round(graph: &TaskGraph, cells: &[Region<f32>]) -> Round {
    timed_round(graph, CHAINS * WAVES, |graph| {
        let mut ready = Vec::new();
        for _ in 0..WAVES {
            let wave = cells.iter().map(|c| desc(Access::read_write(c))).collect();
            let submitted = graph.submit_batch(wave);
            ready.extend(submitted.iter().filter(|(_, r)| *r).map(|(id, _)| *id));
        }
        ready
    })
}

/// One writer, then `READERS` readers of its region.
fn fanout_round(graph: &TaskGraph, table: &Region<f32>) -> Round {
    timed_round(graph, READERS + 1, |graph| {
        let (writer, writer_ready) = graph.submit(desc(Access::write(table)));
        assert!(writer_ready, "the previous round was drained");
        for _ in 0..READERS {
            let (_, reader_ready) = graph.submit(desc(Access::read(table)));
            assert!(!reader_ready, "every reader waits on the live writer");
        }
        vec![writer]
    })
}

/// Runs `round` `ROUNDS` times on one graph and prints the median per-task
/// costs and the edges wired per task; returns the latter.
fn report(shape: &str, graph: &TaskGraph, mut round: impl FnMut(&TaskGraph) -> Round) -> f64 {
    round(graph); // warm-up: slab slots, frontier maps, allocator
    let (tasks_before, edges_before) = (graph.len(), graph.edges_wired());
    let rounds: Vec<Round> = (0..ROUNDS).map(|_| round(graph)).collect();
    let median = |pick: fn(&Round) -> f64| {
        let mut values: Vec<f64> = rounds.iter().map(pick).collect();
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    let tasks = graph.len() - tasks_before;
    let edges_per_task = (graph.edges_wired() - edges_before) as f64 / tasks as f64;
    println!(
        "task_lifecycle/{shape:<8} submit {:>7.1} ns/task  drain {:>7.1} ns/task  edges/task {edges_per_task:.4}  ({tasks} tasks)",
        median(|r| r.submit_ns),
        median(|r| r.drain_ns),
    );
    assert_eq!(graph.live_nodes(), 0, "every drained task retired");
    edges_per_task
}

fn main() {
    let store = DataStore::new();
    let cells: Vec<Region<f32>> = (0..CHAINS)
        .map(|i| store.register_zeros(format!("cell{i}"), 64).unwrap())
        .collect();
    let table = store.register_zeros::<f32>("table", 64).unwrap();

    let chain_edges = report("chains", &TaskGraph::new(), |g| chains_round(g, &cells));
    assert!(
        chain_edges <= 1.0,
        "an inout chain wired {chain_edges:.2} edges per task: one edge per dependence is the rule"
    );
    let fanout_edges = report("fanout", &TaskGraph::new(), |g| fanout_round(g, &table));
    assert!(fanout_edges <= 1.0, "a reader waits on the writer alone");
}
