//! Warm start: persist the memo store and reuse it in a later run.
//!
//! The paper's THT is rebuilt from scratch on every run, so every distinct
//! input pays the full kernel cost at least once per process. This example
//! runs the same workload twice in two *separate* runtimes:
//!
//! 1. the **cold run** executes every distinct task once and persists the
//!    memo store with [`AtmEngine::save_store`];
//! 2. the **warm run** reloads the snapshot with
//!    [`AtmEngine::warm_start_from`] before any task is submitted — its very
//!    first taskwait already has a 100 % hit rate and zero kernel runs.
//!
//! The warm engine also runs under a byte budget: the budget evicts the
//! entries that save the least kernel time per byte, so reloading a snapshot
//! larger than the budget keeps the most valuable entries instead of
//! overflowing.
//!
//! Warm-start contract: hash keys embed the task-type id, so the second run
//! must register its task types in the same order.
//!
//! Run with: `cargo run --release --example warm_start`

use atm_suite::prelude::*;
use std::sync::Arc;

const DISTINCT: usize = 6;
const ELEMS: usize = 2048;

/// Builds a runtime around `engine`, registers the (deterministic) payloads
/// and the memoizable task type, submits one task per payload and waits.
fn run_workload(engine: Arc<AtmEngine>) {
    let rt = RuntimeBuilder::new().workers(2).interceptor(engine).build();

    // Task-type registration order must match across runs (see module docs).
    let simulate = rt.register_task_type(
        TaskTypeBuilder::new("simulate", |ctx| {
            let input = ctx.arg::<f64>(0);
            let out: Vec<f64> = input
                .iter()
                .map(|x| {
                    let mut v = *x;
                    for _ in 0..64 {
                        v = (v.sin() + 1.5).sqrt();
                    }
                    v
                })
                .collect();
            ctx.out(1, &out);
        })
        .arg::<f64>()
        .out::<f64>()
        .memoizable()
        .build(),
    );

    for i in 0..DISTINCT {
        let payload = rt
            .store()
            .register_typed(
                format!("payload[{i}]"),
                (0..ELEMS)
                    .map(|j| i as f64 + (j as f64).cos())
                    .collect::<Vec<f64>>(),
            )
            .expect("unique name");
        let result = rt
            .store()
            .register_zeros::<f64>(format!("result[{i}]"), ELEMS)
            .expect("unique name");
        rt.task(simulate)
            .reads(&payload)
            .writes(&result)
            .submit()
            .expect("valid submission");
    }
    rt.taskwait();
    rt.shutdown();
}

fn report(label: &str, engine: &AtmEngine) {
    let stats = engine.stats();
    let store = engine.store_counters();
    println!("{label}:");
    println!("  kernel executions   : {}", stats.executed);
    println!("  THT hits            : {}", stats.tht_bypassed);
    println!("  store resident bytes: {}", store.resident_bytes);
    println!(
        "  saved kernel time   : {:.3} ms",
        store.saved_ns as f64 / 1e6
    );
}

fn main() {
    let path = std::env::temp_dir().join(format!("atm-warm-start-{}.bin", std::process::id()));

    // --- Run 1: cold. Every distinct input executes; persist the table. ---
    let cold = AtmEngine::shared(AtmConfig::static_atm());
    run_workload(cold.clone());
    cold.save_store(&path).expect("persisting the memo store");
    report("cold run", &cold);
    println!(
        "  snapshot            : {} entries -> {}\n",
        cold.store().len(),
        path.display()
    );

    // --- Run 2: warm. A brand-new, budgeted engine reloads the snapshot
    // before its first task; nothing executes. ---
    let warm = AtmEngine::shared(AtmConfig::static_atm().with_byte_budget(4 * 1024 * 1024));
    let reloaded = warm
        .warm_start_from(&path)
        .expect("reloading the memo store");
    run_workload(warm.clone());
    report("warm run", &warm);
    println!("  entries reloaded    : {reloaded}");

    assert_eq!(
        warm.stats().executed,
        0,
        "a warm-started run must not execute any distinct input again"
    );
    assert_eq!(warm.stats().tht_bypassed, DISTINCT as u64);
    println!("\nwarm start verified: 100% hit rate at the first taskwait, 0 executions");

    let _ = std::fs::remove_file(&path);
}
