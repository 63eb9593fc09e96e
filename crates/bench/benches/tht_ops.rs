//! Task History Table and In-flight Key Table operation costs: lookup hits
//! (which bump the entry's hit count), lookup misses, inserts with FIFO
//! eviction (a full bucket) and with budget eviction (a sample of buckets
//! ordered by benefit density), IKT producer/waiter traffic —
//! and what one `AtmEngine::before_execute` costs on top of them when the
//! task hits, misses, or belongs to a type its profitability ledger closed
//! (`engine_before`: the gated row is the whole point of the gate, and a
//! gate that stops closing shows here as a missing row's worth of time).
//! Each task reaches the engine as a worker hands it over: its view carries
//! the region handles resolved once, as at submission, so the rows time the
//! path workers run — no registry lookup inside it.
//!
//! Run with: `cargo bench --bench tht_ops`

use atm_core::{
    AtmConfig, AtmEngine, EntryKey, InFlightKeyTable, MemoSpec, MemoStore, OutputSnapshot,
    ThtConfig, Waiter,
};
use atm_eval::bench;
use atm_runtime::{
    Access, DataStore, Decision, Region, RegionRef, TaskContext, TaskId, TaskInterceptor,
    TaskTypeBuilder, TaskTypeId, TaskTypeInfo, TaskView, Tracer,
};
use std::sync::Arc;
use std::time::Instant;

fn snapshot(store: &DataStore, len: usize, tag: &str) -> Arc<Vec<OutputSnapshot>> {
    let region = store.register_typed(tag, vec![1.0f32; len]).unwrap();
    Arc::new(vec![OutputSnapshot::capture(
        store,
        &Access::write(&region),
    )])
}

fn key(hash: u64) -> EntryKey {
    EntryKey::new(TaskTypeId::from_raw(0), hash, 1.0)
}

fn tht_operations() {
    let store = DataStore::new();
    let outputs = snapshot(&store, 1024, "out");

    // Pre-populated table for hit/miss lookups.
    let tht = MemoStore::new(ThtConfig::default().store_config());
    for i in 0..4096u64 {
        tht.insert(
            key(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            TaskId::from_raw(i),
            Arc::clone(&outputs),
            0,
        );
    }
    let hit_key = key(5u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    bench("tht", "lookup_hit", || {
        let _ = tht.lookup(&hit_key);
    });
    let miss_key = key(0xDEAD_BEEF_0000_0001);
    bench("tht", "lookup_miss", || {
        let _ = tht.lookup(&miss_key);
    });

    let evicting = MemoStore::new(
        ThtConfig {
            bucket_bits: 4,
            ways: 16,
        }
        .store_config(),
    );
    let mut i = 0u64;
    bench("tht", "insert_with_fifo_eviction", || {
        evicting.insert(key(i), TaskId::from_raw(i), Arc::clone(&outputs), 0);
        i = i.wrapping_add(1);
    });

    // Ways to spare and a byte budget of ~120 entries: once it is full,
    // every insert samples 8 buckets and evicts the least valuable entry.
    let budgeted = MemoStore::new(
        ThtConfig {
            bucket_bits: 4,
            ways: 1024,
        }
        .store_config()
        .with_byte_budget(512 * 1024),
    );
    let mut i = 0u64;
    bench("tht", "insert_with_budget_eviction", || {
        budgeted.insert(
            key(i),
            TaskId::from_raw(i),
            Arc::clone(&outputs),
            (i % 8) * 10_000,
        );
        i = i.wrapping_add(1);
    });
    assert!(
        budgeted.counters().evictions > 0,
        "the budget row must evict"
    );

    let ikt = InFlightKeyTable::new();
    let mut j = 0u64;
    bench("ikt", "register_then_retire", || {
        let k = key(j);
        ikt.register_producer(k, TaskId::from_raw(j));
        ikt.register_waiter(
            &k,
            Waiter {
                task: TaskId::from_raw(j + 1),
                accesses: vec![],
            },
        );
        let _ = ikt.retire(&k, TaskId::from_raw(j));
        j = j.wrapping_add(2);
    });
}

/// One memoizable type over 256 B inputs: a kernel that does next to nothing,
/// so the rows below are the engine's own time.
fn first_plus_one(spec: MemoSpec) -> TaskTypeInfo {
    TaskTypeBuilder::new("first_plus_one", |ctx| {
        let x = ctx.arg::<f64>(0);
        ctx.out(1, &[x[0] + 1.0]);
    })
    .arg::<f64>()
    .out::<f64>()
    .memo(spec)
    .build()
}

/// One task's accesses and the region handles the runtime resolves for it
/// at submission.
struct Resolved {
    accesses: Vec<Access>,
    regions: Vec<RegionRef>,
}

/// Median nanoseconds per `before_execute` (each sample the mean over one
/// pass of `tasks`, clock reads included). Every task then runs its kernel
/// if told to and goes through `after_execute`, as on a worker; `prepare`
/// runs before each pass. None of that is timed.
fn before_execute_row(
    label: &str,
    engine: &AtmEngine,
    store: &DataStore,
    info: &TaskTypeInfo,
    tasks: &[Resolved],
    expect: Option<Decision>,
    mut prepare: impl FnMut(),
) {
    let tracer = Tracer::new(None);
    let mut next_id = 0u64;
    let mut samples = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_millis() < 400 {
        prepare();
        let mut pass_ns = 0u128;
        for task in tasks {
            next_id += 1;
            let view = TaskView {
                id: TaskId::from_raw(next_id),
                type_id: TaskTypeId::from_raw(0),
                info,
                accesses: &task.accesses,
                regions: &task.regions,
            };
            let before = Instant::now();
            let decision = engine.before_execute(view, store, &tracer, 0);
            pass_ns += before.elapsed().as_nanos();
            if let Some(expected) = expect {
                assert_eq!(decision, expected, "{label}");
            }
            let executed = decision == Decision::Execute;
            if executed {
                (info.kernel)(&TaskContext::resolved(store, view.accesses, view.regions));
            }
            engine.after_execute(view, store, &tracer, 0, executed);
        }
        samples.push(pass_ns as f64 / tasks.len() as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    println!(
        "engine_before/{label:<21} median {:>12.1} ns/iter  ({} iters)",
        samples[samples.len() / 2],
        samples.len() * tasks.len()
    );
}

fn engine_before() {
    const BATCH: usize = 64;
    let store = DataStore::new();
    let out = store.register_zeros::<f64>("out", 1).unwrap();
    let inputs: Vec<Region<f64>> = (0..BATCH)
        .map(|i| {
            store
                .register_typed(format!("in{i}"), vec![i as f64; 32])
                .unwrap()
        })
        .collect();
    let tasks: Vec<Resolved> = inputs
        .iter()
        .map(|input| {
            let accesses = vec![Access::read(input), Access::write(&out)];
            let regions = store.resolve(&accesses);
            Resolved { accesses, regions }
        })
        .collect();

    // Open, hit: every input is in the THT after the first batch.
    let exact = first_plus_one(MemoSpec::exact());
    let engine = AtmEngine::new(AtmConfig::static_atm());
    before_execute_row("warm-up", &engine, &store, &exact, &tasks, None, || {});
    before_execute_row(
        "open_hit",
        &engine,
        &store,
        &exact,
        &tasks,
        Some(Decision::Memoized),
        || {},
    );

    // Open, miss: one way per bucket and 64 inputs that share few buckets
    // would still hit; a store that admits nothing never does.
    let engine = AtmEngine::new(AtmConfig::static_atm().with_byte_budget(1));
    before_execute_row(
        "open_miss",
        &engine,
        &store,
        &exact,
        &tasks,
        Some(Decision::Execute),
        || {},
    );

    // Gated: an adaptive type whose exact-pinned argument is rewritten before
    // every task — all cost, no reuse — until its ledger closes it.
    let adaptive = first_plus_one(MemoSpec::approximate().arg_exact(0));
    let engine = AtmEngine::new(AtmConfig::dynamic_atm());
    let mut fresh = 0.5f64;
    let mut rewrite_inputs = || {
        for input in &inputs {
            fresh += 1.0;
            store.write(*input).lock().as_f64_mut()[0] = fresh;
        }
    };
    for label in ["closing", "gated"] {
        let expect = (label == "gated").then_some(Decision::Execute);
        before_execute_row(
            label,
            &engine,
            &store,
            &adaptive,
            &tasks,
            expect,
            &mut rewrite_inputs,
        );
    }
    let summary = engine.type_summaries().into_values().next().unwrap();
    println!(
        "engine_before: gated {} of {} tasks, {} closures",
        summary.gated, summary.seen, summary.gate_closures
    );
    assert!(
        summary.gated * 10 > summary.seen * 9,
        "a type that only costs must be gated"
    );
}

fn main() {
    tht_operations();
    engine_before();
}
