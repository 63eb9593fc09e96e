//! The IKT deferred-copy-out path under real concurrency.
//!
//! §III-A of the paper: when a task becomes ready while another task with
//! the same hash key is *currently executing*, it must not re-execute — it
//! registers a postponed copy-out in the In-flight Key Table and the
//! producer's completion provides its outputs. The unit tests drive this by
//! hand; here real worker threads race through the scheduler and the
//! invariant is asserted end to end: exactly one kernel execution plus N
//! postponed copy-outs.

use atm_suite::prelude::*;
use atm_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Polls `condition` until it holds or the timeout expires.
fn wait_for(what: &str, timeout: Duration, condition: impl Fn() -> bool) {
    let start = Instant::now();
    while !condition() {
        assert!(
            start.elapsed() < timeout,
            "timed out after {timeout:?} waiting for {what}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn one_execution_plus_n_postponed_copy_outs() {
    const WAITERS: usize = 3;

    // The engine's handle carries the reuse provenance checked below.
    let obs = Arc::new(atm_obs::Observability::enabled());
    let engine =
        Arc::new(AtmEngine::new(AtmConfig::static_atm()).with_observability(Arc::clone(&obs)));
    let rt = RuntimeBuilder::new()
        .workers(1 + WAITERS)
        .interceptor(engine.clone())
        .build();

    // The kernel announces that it is running and then blocks on a gate, so
    // the same-key tasks submitted afterwards are *guaranteed* to find the
    // producer in flight. It counts its executions to prove there was
    // exactly one.
    let executions = Arc::new(AtomicUsize::new(0));
    let in_kernel = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (executions_k, in_kernel_k, release_k) = (
        Arc::clone(&executions),
        Arc::clone(&in_kernel),
        Arc::clone(&release),
    );
    let tt = rt.register_task_type(
        TaskTypeBuilder::new("gated_double", move |ctx| {
            executions_k.fetch_add(1, Ordering::SeqCst);
            in_kernel_k.store(true, Ordering::SeqCst);
            while !release_k.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let x = ctx.arg::<f64>(0);
            let y: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
            ctx.out(1, &y);
        })
        .arg::<f64>()
        .out::<f64>()
        .memoizable()
        .build(),
    );

    let input = rt
        .store()
        .register_typed("in", vec![1.5f64, 2.5, 3.5, 4.5])
        .unwrap();
    let outs: Vec<Region<f64>> = (0..=WAITERS)
        .map(|i| rt.store().register_zeros(format!("out{i}"), 4).unwrap())
        .collect();

    // Producer first; wait until its kernel is actually running (its key is
    // registered in the IKT before the kernel starts).
    let producer = rt.task(tt).reads(&input).writes(&outs[0]).submit().unwrap();
    wait_for(
        "the producer to enter its kernel",
        Duration::from_secs(10),
        || in_kernel.load(Ordering::SeqCst),
    );

    // Same-key tasks while the producer is in flight: each must defer.
    for out in &outs[1..] {
        rt.task(tt).reads(&input).writes(out).submit().unwrap();
    }
    wait_for(
        "all same-key tasks to defer onto the in-flight producer",
        Duration::from_secs(10),
        || engine.stats().ikt_deferred == WAITERS as u64,
    );

    // Open the gate; the producer finishes and performs the postponed
    // copy-outs; the deferred tasks complete without executing.
    release.store(true, Ordering::SeqCst);
    rt.taskwait();

    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "the kernel must run exactly once"
    );
    let stats = engine.stats();
    assert_eq!(stats.seen, 1 + WAITERS as u64);
    assert_eq!(stats.executed, 1);
    assert_eq!(stats.ikt_deferred, WAITERS as u64);
    assert_eq!(stats.tht_bypassed, 0, "nothing was in the THT yet");

    // Every task — producer and waiters — got the correct outputs.
    for out in &outs {
        assert_eq!(rt.store().read(*out).lock().as_f64(), &[3.0, 5.0, 7.0, 9.0]);
    }

    // The decision stream carries one provenance record per postponed
    // copy-out, all attributed to the producer task, none from the THT.
    let events = atm_suite::atm::ReuseEvent::from_decisions(&obs.decisions());
    assert_eq!(events.len(), WAITERS);
    assert!(events.iter().all(|e| !e.from_tht && e.producer == producer));

    // A latecomer with the same key now hits the THT instead of the IKT.
    let late = rt.store().register_zeros::<f64>("late", 4).unwrap();
    rt.task(tt).reads(&input).writes(&late).submit().unwrap();
    rt.taskwait();
    assert_eq!(engine.stats().tht_bypassed, 1);
    assert_eq!(executions.load(Ordering::SeqCst), 1);
    assert_eq!(rt.store().read(late).lock().as_f64(), &[3.0, 5.0, 7.0, 9.0]);

    rt.shutdown();
}

#[test]
fn concurrent_same_key_waves_reuse_almost_everything() {
    // A coarser stress shape: several distinct inputs, each submitted many
    // times concurrently. Every completion path (THT hit, IKT deferral,
    // execution) may be taken. Two same-key tasks can in principle both
    // miss the THT before either claims the in-flight key (the loser then
    // executes — a deliberate, safe race in the engine), so the exact-once
    // guarantee of the gated test above relaxes here to "at least once per
    // distinct input, with consistent accounting and correct outputs".
    const DISTINCT: usize = 4;
    const REPEATS: usize = 8;

    let engine = AtmEngine::shared(AtmConfig::static_atm());
    let rt = RuntimeBuilder::new()
        .workers(4)
        .interceptor(engine.clone())
        .build();
    let executions = Arc::new(AtomicUsize::new(0));
    let executions_k = Arc::clone(&executions);
    let tt = rt.register_task_type(
        TaskTypeBuilder::new("sum_sq", move |ctx| {
            executions_k.fetch_add(1, Ordering::SeqCst);
            let x = ctx.arg::<f64>(0);
            let total: f64 = x.iter().map(|v| v * v).sum();
            ctx.out(1, &[total]);
        })
        .arg::<f64>()
        .out::<f64>()
        .memoizable()
        .build(),
    );

    let inputs: Vec<Region<f64>> = (0..DISTINCT)
        .map(|i| {
            rt.store()
                .register_typed(format!("in{i}"), vec![i as f64 + 1.0; 64])
                .unwrap()
        })
        .collect();
    let mut outs = Vec::new();
    for r in 0..REPEATS {
        for (i, input) in inputs.iter().enumerate() {
            let out = rt
                .store()
                .register_zeros::<f64>(format!("out{r}_{i}"), 1)
                .unwrap();
            rt.task(tt).reads(input).writes(&out).submit().unwrap();
            outs.push((i, out));
        }
    }
    rt.taskwait();

    let executed = executions.load(Ordering::SeqCst);
    assert!(
        executed >= DISTINCT,
        "each distinct input must execute at least once"
    );
    let stats = engine.stats();
    assert_eq!(stats.seen, (DISTINCT * REPEATS) as u64);
    assert_eq!(stats.executed, executed as u64);
    assert_eq!(
        stats.reused() + stats.executed,
        stats.seen,
        "every task either executed or was reused"
    );
    assert!(
        stats.reused() > 0,
        "most of the stream must be served by the THT/IKT"
    );
    for (i, out) in outs {
        let expected = 64.0 * ((i as f64 + 1.0) * (i as f64 + 1.0));
        assert_eq!(rt.store().read(out).lock().as_f64(), &[expected]);
    }
    rt.shutdown();
}
