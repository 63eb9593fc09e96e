//! The worker path never reads the region registry.
//!
//! The runtime resolves every region a task names once, when it validates
//! the submission — one registry read lock per submitted batch — and the
//! task carries the handles to its worker: the kernel's `ctx.arg` /
//! `ctx.out`, the engine's key, hit shape check, copy-out and output capture
//! all lock regions through them. `DataStore::registry_reads` (debug builds)
//! counts every registry read lock, so the guard is a count: exactly one per
//! batch while submitting, none while draining.

#![cfg(debug_assertions)]

use atm_suite::prelude::*;

const CHAINS: usize = 16;
const WAVES: usize = 16;
const CELL: usize = 8;
/// Tasks per submitted batch: two waves of one task per chain, memoized and
/// plain alike.
const BATCH: usize = 64;

#[test]
fn the_worker_path_never_reads_the_region_registry() {
    let engine = AtmEngine::shared(AtmConfig::static_atm());
    let rt = RuntimeBuilder::new()
        .workers(2)
        .interceptor(engine.clone())
        .build();
    // A memoized chain settles its cell onto whole numbers: the first task
    // misses, the second misses on the settled value, every later one hits.
    // Each chain's values are its own, so no two in-flight tasks share a key
    // (no deferral, whose rare copy-out resolves through the store).
    let settle = rt.register_task_type(
        TaskTypeBuilder::new("settle", |ctx| {
            let settled: Vec<f64> = ctx.arg::<f64>(0).iter().map(|v| v.floor()).collect();
            ctx.out(0, &settled);
        })
        .inout::<f64>()
        .memo(MemoSpec::exact())
        .build(),
    );
    let bump = rt.register_task_type(
        TaskTypeBuilder::new("bump", |ctx| {
            let bumped: Vec<f64> = ctx.arg::<f64>(0).iter().map(|v| v + 1.0).collect();
            ctx.out(0, &bumped);
        })
        .inout::<f64>()
        .build(),
    );
    let store = rt.store();
    let memo_cells: Vec<Region<f64>> = (0..CHAINS)
        .map(|c| {
            store
                .register_typed(format!("memo{c}"), vec![c as f64 + 0.5; CELL])
                .unwrap()
        })
        .collect();
    let plain_cells: Vec<Region<f64>> = (0..CHAINS)
        .map(|c| {
            store
                .register_typed(format!("plain{c}"), vec![c as f64; CELL])
                .unwrap()
        })
        .collect();

    let tasks = 2 * CHAINS * WAVES;
    assert_eq!(tasks % BATCH, 0);
    let batches = (tasks / BATCH) as u64;
    let start = store.registry_reads();
    let waves_per_batch = BATCH / (2 * CHAINS);
    for batch_index in 0..batches {
        let mut batch = rt.batch();
        for _ in 0..waves_per_batch {
            for (memo, plain) in memo_cells.iter().zip(&plain_cells) {
                batch = batch
                    .task(settle)
                    .reads_writes(memo)
                    .task(bump)
                    .reads_writes(plain);
            }
        }
        let before = store.registry_reads();
        batch.submit_all().unwrap();
        // Earlier batches drain meanwhile: a single read from a worker
        // would show up here as a second one.
        assert_eq!(
            store.registry_reads() - before,
            1,
            "batch {batch_index}: one registry read resolves a whole batch"
        );
    }
    rt.taskwait();
    assert_eq!(
        store.registry_reads() - start,
        batches,
        "the drain read the region registry"
    );

    // The drain did run the paths the count covers: hits, misses, kernels.
    let stats = engine.stats();
    assert_eq!(stats.seen, (CHAINS * WAVES) as u64);
    assert_eq!(stats.executed, 2 * CHAINS as u64);
    assert_eq!(stats.tht_bypassed, ((WAVES - 2) * CHAINS) as u64);
    assert_eq!(stats.ikt_deferred, 0);
    for (c, (memo, plain)) in memo_cells.iter().zip(&plain_cells).enumerate() {
        assert_eq!(store.contents(memo), vec![c as f64; CELL]);
        assert_eq!(store.contents(plain), vec![(c + WAVES) as f64; CELL]);
    }
    rt.shutdown();
}
