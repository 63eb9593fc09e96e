//! Serving-tier behaviour: admission, backpressure, drain, multi-tenant
//! region lifecycle, and the bounded-memory guarantees under session churn.

use super::*;
use atm_runtime::{RegionStatus, TaskTypeBuilder};
use atm_sync::{Condvar, Mutex};

/// A one-shot gate for kernels that must stay blocked until the test has
/// made its assertions. Opening it releases every current and future
/// waiter, so — unlike the binary, auto-resetting `atm_sync::Event` — no
/// test depends on one signal reaching one particular blocked kernel.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock();
        while !*open {
            self.opened.wait(&mut open);
        }
    }

    fn open(&self) {
        *self.open.lock() = true;
        self.opened.notify_all();
    }
}

fn scale_info() -> TaskTypeBuilder {
    TaskTypeBuilder::new("scale", |ctx| {
        let v: Vec<f64> = ctx.arg::<f64>(0).iter().map(|x| x * 2.0).collect();
        ctx.out(1, &v);
    })
    .arg::<f64>()
    .out::<f64>()
}

fn scale_type(serve: &ServeEngine) -> TaskTypeId {
    serve.register_task_type(scale_info().build())
}

#[test]
fn request_round_trip_records_latency() {
    let serve = ServeEngine::new(ServeConfig::default().workers(2));
    let scale = scale_type(&serve);
    let mut session = serve.session().unwrap();
    let input = session
        .register_region("in", vec![1.0f64, 2.0, 3.0])
        .unwrap();
    let output = session.register_zeros::<f64>("out", 3).unwrap();
    let request = session
        .request()
        .task(scale)
        .reads(&input)
        .writes(&output)
        .submit()
        .unwrap();
    request.wait();
    assert!(request.is_complete());
    assert!(request.latency_ns().unwrap() > 0);
    assert_eq!(
        serve.runtime().store().read(output).lock().as_f64(),
        &[2.0, 4.0, 6.0]
    );
    assert_eq!(session.open_requests(), 0);
    let freed = session.close().unwrap();
    assert_eq!(freed, 6 * std::mem::size_of::<f64>());
    let report = serve.drain();
    assert_eq!(report.latency.get(LatencyMetric::Request).count, 1);
    assert!(report.latency.get(LatencyMetric::Request).p50() > 0);
}

#[test]
fn full_request_window_is_rejected_with_a_retry_hint() {
    let gate = Arc::new(Gate::default());
    let gate_in_kernel = Arc::clone(&gate);
    let serve = ServeEngine::new(ServeConfig::default().workers(1).max_inflight_requests(2));
    let blocker = serve.register_task_type(
        TaskTypeBuilder::new("blocker", move |ctx| {
            gate_in_kernel.wait();
            ctx.out(0, &[1.0f64]);
        })
        .out::<f64>()
        .build(),
    );
    let mut session = serve.session().unwrap();
    let regions: Vec<Region<f64>> = (0..3)
        .map(|i| session.register_zeros(format!("r{i}"), 1).unwrap())
        .collect();
    let first = session
        .request()
        .task(blocker)
        .writes(&regions[0])
        .submit()
        .unwrap();
    let second = session
        .request()
        .task(blocker)
        .writes(&regions[1])
        .submit()
        .unwrap();
    assert_eq!(serve.shared.inflight.load(Ordering::SeqCst), 2);
    // The window is full: the third request is rejected, not queued.
    match session.request().task(blocker).writes(&regions[2]).submit() {
        Err(ServeError::Overloaded {
            inflight,
            capacity,
            retry_after_ns,
        }) => {
            assert_eq!((inflight, capacity), (2, 2));
            assert_eq!(retry_after_ns, RETRY_AFTER_NS);
        }
        other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
    }
    // Draining the window restores admission.
    gate.open();
    first.wait();
    let third = session
        .request()
        .task(blocker)
        .writes(&regions[2])
        .submit()
        .unwrap();
    second.wait();
    third.wait();
    session.close().unwrap();
    serve.drain();
}

#[test]
fn runtime_live_task_window_backpressures_large_requests() {
    let gate = Arc::new(Gate::default());
    let gate_in_kernel = Arc::clone(&gate);
    let serve = ServeEngine::new(
        ServeConfig::default()
            .workers(1)
            .max_inflight_requests(64)
            .max_live_tasks(2),
    );
    let blocker = serve.register_task_type(
        TaskTypeBuilder::new("blocker", move |ctx| {
            gate_in_kernel.wait();
            ctx.out(0, &[1.0f64]);
        })
        .out::<f64>()
        .build(),
    );
    let mut session = serve.session().unwrap();
    let regions: Vec<Region<f64>> = (0..4)
        .map(|i| session.register_zeros(format!("r{i}"), 1).unwrap())
        .collect();
    let first = session
        .request()
        .task(blocker)
        .writes(&regions[0])
        .submit()
        .unwrap();
    // A two-task request cannot fit the one remaining live-task slot: the
    // runtime's window rejects it, and the serve layer surfaces Overloaded
    // after rolling its own admission slot back.
    let err = session
        .request()
        .task(blocker)
        .writes(&regions[1])
        .task(blocker)
        .writes(&regions[2])
        .submit();
    assert!(matches!(
        err,
        Err(ServeError::Overloaded { capacity: 2, .. })
    ));
    assert_eq!(
        serve.shared.inflight.load(Ordering::SeqCst),
        1,
        "rolled back the request slot"
    );
    gate.open();
    first.wait();
    session.close().unwrap();
    serve.drain();
}

#[test]
fn draining_rejects_new_work_but_finishes_in_flight_requests() {
    let gate = Arc::new(Gate::default());
    let gate_in_kernel = Arc::clone(&gate);
    let serve = ServeEngine::new(ServeConfig::default().workers(1));
    let blocker = serve.register_task_type(
        TaskTypeBuilder::new("blocker", move |ctx| {
            gate_in_kernel.wait();
            ctx.out(0, &[7.0f64]);
        })
        .out::<f64>()
        .build(),
    );
    let mut session = serve.session().unwrap();
    let r = session.register_zeros::<f64>("r", 1).unwrap();
    let request = session.request().task(blocker).writes(&r).submit().unwrap();
    // Drain from another thread while a request is still in flight.
    let report = std::thread::scope(|scope| {
        let handle = scope.spawn(|| serve.drain());
        // The drain cannot finish while the kernel is gated.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished(), "drain must wait for in-flight work");
        gate.open();
        handle.join().unwrap()
    });
    request.wait();
    assert_eq!(report.runtime.submitted, 1);
    assert_eq!(report.latency.get(LatencyMetric::Request).count, 1);
}

#[test]
fn drained_engine_rejects_sessions() {
    let serve = ServeEngine::new(ServeConfig::default().workers(1));
    // Flip admission off the way drain does, without consuming the engine.
    serve.shared.accepting.store(false, Ordering::SeqCst);
    assert!(matches!(serve.session(), Err(ServeError::Draining)));
    serve.shared.accepting.store(true, Ordering::SeqCst);
    let session = serve.session().unwrap();
    serve.shared.accepting.store(false, Ordering::SeqCst);
    let scale = scale_type(&serve);
    let err = session.request().task(scale).submit();
    assert!(matches!(err, Err(ServeError::Draining)));
    session.close().unwrap();
}

#[test]
fn closed_sessions_leave_regions_retired_and_rejected_at_submission() {
    let serve = ServeEngine::new(ServeConfig::default().workers(1));
    let scale = scale_type(&serve);
    let mut session = serve.session().unwrap();
    let input = session.register_region("in", vec![1.0f64]).unwrap();
    let output = session.register_zeros::<f64>("out", 1).unwrap();
    session
        .request()
        .task(scale)
        .reads(&input)
        .writes(&output)
        .submit()
        .unwrap()
        .wait();
    session.close().unwrap();
    assert_eq!(
        serve.runtime().store().region_status(input),
        RegionStatus::Retired
    );
    // A stale handle in a new session is rejected with the dedicated error.
    let stale = serve.session().unwrap();
    let err = stale
        .request()
        .task(scale)
        .reads(&input)
        .writes(&output)
        .submit();
    match err {
        Err(ServeError::Rejected(SubmitError::RegionRetired { region, .. })) => {
            assert_eq!(region, input.id());
        }
        other => panic!("expected RegionRetired, got {:?}", other.map(|_| ())),
    }
    stale.close().unwrap();
    serve.drain();
}

/// The bounded-multi-tenant-data acceptance: region bytes, the store's
/// by-name map and the dependence index all track the *live* session set
/// across heavy session churn.
#[test]
fn hundred_session_churn_keeps_region_bytes_and_index_bounded() {
    let serve = ServeEngine::new(ServeConfig::default().workers(2));
    let scale = scale_type(&serve);
    let elems = 256usize;
    let payload = elems * std::mem::size_of::<f64>();
    let mut peak_bytes = 0usize;
    let mut peak_index = 0u64;
    for round in 0..120 {
        let mut session = serve.session().unwrap();
        let input = session.register_region("in", vec![1.0f64; elems]).unwrap();
        let output = session.register_zeros::<f64>("out", elems).unwrap();
        let request = session
            .request()
            .task(scale)
            .reads(&input)
            .writes(&output)
            .submit()
            .unwrap();
        request.wait();
        let freed = session.close().unwrap();
        assert_eq!(freed, 2 * payload, "round {round} freed the wrong bytes");
        peak_bytes = peak_bytes.max(serve.runtime().store().total_bytes());
        peak_index = peak_index.max(serve.observe().runtime.live_index_regions);
    }
    // One live session holds 2 regions; the gauges must be bounded by a
    // small constant, not grow with the 120 sessions that ever existed.
    assert!(
        peak_bytes <= 2 * 2 * payload,
        "store bytes grew with session count: peak {peak_bytes}"
    );
    assert!(
        peak_index <= 4,
        "dependence index grew with session count: peak {peak_index}"
    );
    assert_eq!(serve.runtime().store().total_bytes(), 0);
    let report = serve.drain();
    assert_eq!(report.latency.get(LatencyMetric::Request).count, 120);
}

/// Concurrent tenants on disjoint regions submit in parallel; the sharded
/// submission locks let all of them make progress and every request
/// completes with the right data.
#[test]
fn concurrent_sessions_submit_and_complete_in_parallel() {
    let serve = ServeEngine::new(
        ServeConfig::default()
            .workers(4)
            .max_inflight_requests(256)
            .max_live_tasks(100_000),
    );
    let scale = scale_type(&serve);
    let tenants = 4;
    let requests_per_tenant = 50;
    std::thread::scope(|scope| {
        for tenant in 0..tenants {
            let serve = &serve;
            scope.spawn(move || {
                let mut session = serve.session().unwrap();
                let input = session
                    .register_region("in", vec![tenant as f64; 8])
                    .unwrap();
                let output = session.register_zeros::<f64>("out", 8).unwrap();
                for _ in 0..requests_per_tenant {
                    let request = loop {
                        match session
                            .request()
                            .task(scale)
                            .reads(&input)
                            .writes(&output)
                            .submit()
                        {
                            Ok(request) => break request,
                            Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                            Err(other) => panic!("unexpected rejection: {other}"),
                        }
                    };
                    request.wait();
                }
                assert_eq!(
                    serve.runtime().store().read(output).lock().as_f64(),
                    &[tenant as f64 * 2.0; 8]
                );
                session.close().unwrap();
            });
        }
    });
    let report = serve.drain();
    assert_eq!(
        report.latency.get(LatencyMetric::Request).count,
        (tenants * requests_per_tenant) as u64
    );
    assert_eq!(
        report.runtime.submitted,
        (tenants * requests_per_tenant) as u64
    );
}

/// Memoization composes with serving: identical requests from one tenant
/// hit the THT and skip their kernels.
#[test]
fn repeated_requests_are_served_from_the_memo_store() {
    use atm_core::AtmConfig;
    use atm_runtime::MemoSpec;
    let serve = ServeEngine::new(
        ServeConfig::default()
            .workers(1)
            .atm(AtmConfig::static_atm()),
    );
    let scale = serve.register_task_type(scale_info().memo(MemoSpec::exact()).build());
    let mut session = serve.session().unwrap();
    let input = session.register_region("in", vec![3.0f64; 4]).unwrap();
    let output = session.register_zeros::<f64>("out", 4).unwrap();
    for _ in 0..10 {
        session
            .request()
            .task(scale)
            .reads(&input)
            .writes(&output)
            .submit()
            .unwrap()
            .wait();
    }
    let report = serve.observe();
    assert_eq!(report.runtime.submitted, 10);
    assert!(
        report.runtime.bypassed >= 8,
        "identical requests must be memoized (bypassed {})",
        report.runtime.bypassed
    );
    assert_eq!(
        serve.runtime().store().read(output).lock().as_f64(),
        &[6.0; 4]
    );
    session.close().unwrap();
    serve.drain();
}

#[test]
fn empty_requests_are_rejected_without_consuming_a_slot() {
    let serve = ServeEngine::new(ServeConfig::default().workers(1));
    let session = serve.session().unwrap();
    assert!(matches!(
        session.request().submit(),
        Err(ServeError::EmptyRequest)
    ));
    assert_eq!(serve.shared.inflight.load(Ordering::SeqCst), 0);
    session.close().unwrap();
    serve.drain();
}
