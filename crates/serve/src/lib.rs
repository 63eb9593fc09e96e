//! `atm-serve`: the memoization runtime as a **long-running service**.
//!
//! The batch experiments of the paper submit one application's task graph,
//! taskwait, and exit. A serving deployment is a different regime: the
//! process stays up indefinitely, *sessions* come and go — each registering
//! its own data regions and submitting small task DAGs as *requests* — and
//! the operator cares about request latency percentiles and sustainable
//! throughput, not end-to-end makespan. This crate builds that tier on the
//! existing [`atm_runtime::Runtime`] without forking it:
//!
//! * **Sessions** ([`ServeEngine::session`]) own namespaced regions
//!   (registered as `s<id>/<name>`, so tenants cannot collide) and release
//!   them on [`Session::close`] through the runtime's region retirement —
//!   region bytes and dependence-index entries are bounded by the *live*
//!   sessions, not by how many ever existed.
//! * **Requests** ([`Session::request`]) stage a small task DAG and submit
//!   it as one batch. Completion is detected by a per-request
//!   [`atm_runtime::TaskNotify`] hook — no polling — and the end-to-end
//!   latency (admission to last task completion) lands in the shared
//!   [`Observability`] histogram under [`LatencyMetric::Request`].
//! * **Admission control**: a bounded in-flight-request window plus the
//!   runtime's own live-task window ([`RuntimeBuilder::max_live_tasks`]).
//!   When either is full, submission fails fast with
//!   [`ServeError::Overloaded`] carrying a retry-after hint — the service
//!   never queues unboundedly, which is what keeps tail latency bounded in
//!   an open-loop world (clients keep arriving whether or not the server
//!   keeps up).
//! * **Graceful drain** ([`ServeEngine::drain`]): stop admitting, let
//!   in-flight requests finish, and hand back one final unified
//!   [`Observation`] before stopping the workers.
//!
//! Memoization composes transparently: configure an [`AtmConfig`] and every
//! request task of a memoizable type (declared on the type, as in batch
//! mode: [`atm_runtime::TaskTypeBuilder::memo`]) goes through the THT/IKT —
//! a service whose tenants resubmit similar work sheds kernel executions
//! and serves them from the memo store. Without one, no engine is
//! installed.
//!
//! # Example
//!
//! ```
//! use atm_serve::{ServeConfig, ServeEngine};
//! use atm_runtime::TaskTypeBuilder;
//!
//! let serve = ServeEngine::new(ServeConfig::default().workers(2));
//! let scale = serve.register_task_type(
//!     TaskTypeBuilder::new("scale", |ctx| {
//!         let v: Vec<f64> = ctx.arg::<f64>(0).iter().map(|x| x * 2.0).collect();
//!         ctx.out(1, &v);
//!     })
//!     .arg::<f64>()
//!     .out::<f64>()
//!     .build(),
//! );
//!
//! let mut session = serve.session().unwrap();
//! let input = session.register_region("in", vec![1.0f64, 2.0]).unwrap();
//! let output = session.register_zeros::<f64>("out", 2).unwrap();
//! let request = session
//!     .request()
//!     .task(scale)
//!     .reads(&input)
//!     .writes(&output)
//!     .submit()
//!     .unwrap();
//! request.wait();
//! assert_eq!(serve.runtime().store().read(output).lock().as_f64(), &[2.0, 4.0]);
//! session.close().unwrap();
//! let report = serve.drain();
//! assert_eq!(report.latency.get(atm_obs::LatencyMetric::Request).count, 1);
//! ```

#![warn(missing_docs)]

use atm_core::{AtmConfig, AtmEngine};
use atm_obs::{LatencyMetric, Observability};
use atm_runtime::{
    DeregisterError, Elem, Observation, Region, RegionId, Runtime, RuntimeBuilder, SubmitError,
    TaskDesc, TaskId, TaskNotify, TaskTypeId, TaskTypeInfo,
};
use atm_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use atm_sync::{Condvar, Event, Mutex};
use std::sync::Arc;
use std::time::Instant;

/// The client backoff [`ServeError::Overloaded`] suggests: 1 ms.
const RETRY_AFTER_NS: u64 = 1_000_000;

/// Configuration of a [`ServeEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    workers: usize,
    max_inflight_requests: usize,
    max_live_tasks: u64,
    atm: Option<AtmConfig>,
    record_metrics: bool,
}

impl Default for ServeConfig {
    /// Two workers, a 64-request window, a 4096-task live window, no
    /// memoization, metrics on.
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_inflight_requests: 64,
            max_live_tasks: 4096,
            atm: None,
            record_metrics: true,
        }
    }
}

impl ServeConfig {
    /// Number of worker threads executing request tasks.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Bounds the number of requests admitted but not yet completed. The
    /// window is the service's primary backpressure: a submission beyond it
    /// fails fast with [`ServeError::Overloaded`] instead of queueing.
    #[must_use]
    pub fn max_inflight_requests(mut self, limit: usize) -> Self {
        assert!(limit >= 1, "a zero-request window would reject everything");
        self.max_inflight_requests = limit;
        self
    }

    /// Bounds the number of live tasks inside the runtime (see
    /// [`RuntimeBuilder::max_live_tasks`]); the second, finer-grained
    /// admission layer for requests of uneven size.
    #[must_use]
    pub fn max_live_tasks(mut self, limit: u64) -> Self {
        self.max_live_tasks = limit;
        self
    }

    /// Installs the ATM memoization engine with this configuration; every
    /// request's tasks then go through the THT/IKT.
    #[must_use]
    pub fn atm(mut self, config: AtmConfig) -> Self {
        self.atm = Some(config);
        self
    }

    /// Whether the service records latency histograms and memo decisions
    /// (on by default — they are the serving tier's product; turn off only
    /// for overhead experiments).
    #[must_use]
    pub fn record_metrics(mut self, enabled: bool) -> Self {
        self.record_metrics = enabled;
        self
    }
}

/// Why the service refused or failed a request.
#[derive(Debug)]
pub enum ServeError {
    /// The admission window (in-flight requests or live tasks) is full.
    /// Back off for roughly `retry_after_ns` (1 ms) and resubmit.
    Overloaded {
        /// Occupancy of the window that rejected the request.
        inflight: u64,
        /// Capacity of that window.
        capacity: u64,
        /// Suggested client backoff before retrying.
        retry_after_ns: u64,
    },
    /// The service is draining (or already stopped): no new sessions or
    /// requests are admitted.
    Draining,
    /// The request staged no tasks.
    EmptyRequest,
    /// The runtime rejected the submission for a non-capacity reason
    /// (unknown task type, signature mismatch, retired region, …).
    Rejected(SubmitError),
    /// A region could not be registered (duplicate name, zero length, …).
    Register(atm_runtime::RegisterError),
    /// A session region could not be deregistered at close.
    Deregister(DeregisterError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                inflight,
                capacity,
                retry_after_ns,
            } => write!(
                f,
                "service overloaded ({inflight} of {capacity} window slots in use); \
                 retry after ~{retry_after_ns} ns"
            ),
            ServeError::Draining => write!(f, "service is draining; no new work admitted"),
            ServeError::EmptyRequest => write!(f, "request stages no tasks"),
            ServeError::Rejected(err) => write!(f, "request rejected: {err}"),
            ServeError::Register(err) => write!(f, "session region registration failed: {err}"),
            ServeError::Deregister(err) => write!(f, "session region release failed: {err}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Rejected(err) => Some(err),
            ServeError::Register(err) => Some(err),
            ServeError::Deregister(err) => Some(err),
            _ => None,
        }
    }
}

/// State shared between the engine, its sessions and the per-request
/// completion hooks.
struct Shared {
    /// False once [`ServeEngine::drain`] starts: admission closed.
    accepting: AtomicBool,
    /// Requests admitted and not yet completed.
    inflight: AtomicUsize,
    max_inflight: usize,
    /// Completion wakeups: [`Session::close`] waits for its own requests,
    /// [`ServeEngine::drain`] for all of them. Waiters re-check their
    /// predicate under the lock; notifiers take the lock before notifying,
    /// so a wakeup between the predicate check and the wait cannot be lost.
    wake_lock: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    /// Blocks until `done()` holds. `done` must eventually be made true by
    /// a completion hook (which notifies `wake`).
    fn wait_until(&self, done: impl Fn() -> bool) {
        let mut guard = self.wake_lock.lock();
        while !done() {
            self.wake.wait(&mut guard);
        }
    }

    fn notify_waiters(&self) {
        let _guard = self.wake_lock.lock();
        self.wake.notify_all();
    }
}

/// Per-session bookkeeping shared with the session's request hooks.
struct SessionState {
    /// Requests this session admitted and not yet completed.
    open_requests: AtomicUsize,
}

/// Completion hook attached to every task of a request: the last task to
/// finish stamps the request latency, frees the admission slot and wakes
/// blocked waiters. Implements [`TaskNotify`], so it runs on the completing
/// worker right after the task left the runtime's outstanding count.
struct RequestTracker {
    remaining: AtomicUsize,
    started: Instant,
    latency_ns: AtomicU64,
    completed: AtomicBool,
    done: Event,
    shared: Arc<Shared>,
    session: Arc<SessionState>,
    obs: Option<Arc<Observability>>,
}

impl TaskNotify for RequestTracker {
    fn task_finished(&self, worker: usize, _task: TaskId) {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) != 1 {
            return;
        }
        let elapsed = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.latency_ns.store(elapsed, Ordering::SeqCst);
        if let Some(obs) = &self.obs {
            obs.record_latency(LatencyMetric::Request, worker, elapsed);
        }
        self.session.open_requests.fetch_sub(1, Ordering::SeqCst);
        self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
        // Publish completion before signalling so a waiter that wakes (or
        // never slept) observes it.
        self.completed.store(true, Ordering::SeqCst);
        self.done.signal();
        self.shared.notify_waiters();
    }
}

/// Handle to one admitted request.
#[must_use = "an unawaited request still runs, but its latency is lost to the caller"]
pub struct Request {
    tracker: Arc<RequestTracker>,
}

impl Request {
    /// True once every task of the request has finished.
    pub fn is_complete(&self) -> bool {
        self.tracker.completed.load(Ordering::SeqCst)
    }

    /// Blocks until the request completes. Idempotent.
    pub fn wait(&self) {
        while !self.is_complete() {
            self.tracker.done.wait();
        }
    }

    /// End-to-end latency (admission to last task completion), available
    /// once the request completed; `None` while still in flight.
    pub fn latency_ns(&self) -> Option<u64> {
        if self.is_complete() {
            Some(self.tracker.latency_ns.load(Ordering::SeqCst))
        } else {
            None
        }
    }
}

/// The serving tier: a long-running [`Runtime`] (optionally with the ATM
/// engine installed) fronted by sessions, admission control and drain.
///
/// The engine is `Sync`: sessions can be opened and driven from many client
/// threads concurrently — the runtime's sharded submission locks keep
/// disjoint sessions from contending.
pub struct ServeEngine {
    runtime: Runtime,
    engine: Option<Arc<AtmEngine>>,
    shared: Arc<Shared>,
    next_session: AtomicU64,
}

impl ServeEngine {
    /// Builds the service: runtime, optional memoization engine and — when
    /// metrics are recorded — the observability handle they share. The
    /// handle is the bounded kind ([`Observability::enabled`]): histograms
    /// and decision rings, nothing that grows with uptime.
    pub fn new(config: ServeConfig) -> Self {
        let obs = config
            .record_metrics
            .then(|| Arc::new(Observability::enabled()));
        let mut builder = RuntimeBuilder::new()
            .workers(config.workers)
            .max_live_tasks(config.max_live_tasks);
        let mut engine = config.atm.map(AtmEngine::new);
        if let Some(obs) = &obs {
            builder = builder.observability(Arc::clone(obs));
            engine = engine.map(|engine| engine.with_observability(Arc::clone(obs)));
        }
        let engine = engine.map(Arc::new);
        if let Some(engine) = &engine {
            builder = builder.interceptor(Arc::clone(engine) as Arc<_>);
        }
        ServeEngine {
            runtime: builder.build(),
            engine,
            shared: Arc::new(Shared {
                accepting: AtomicBool::new(true),
                inflight: AtomicUsize::new(0),
                max_inflight: config.max_inflight_requests,
                wake_lock: Mutex::new(()),
                wake: Condvar::new(),
            }),
            next_session: AtomicU64::new(0),
        }
    }

    /// The underlying runtime (regions, stats, the observability handle).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The installed memoization engine, when one was configured.
    pub fn engine(&self) -> Option<&Arc<AtmEngine>> {
        self.engine.as_ref()
    }

    /// Registers a task type shared by all sessions — the service's fixed
    /// "endpoint" set. The runtime's type registry is append-only, so types
    /// belong to the service, not to (churning) sessions.
    pub fn register_task_type(&self, info: TaskTypeInfo) -> TaskTypeId {
        self.runtime.register_task_type(info)
    }

    /// Opens a session. Fails with [`ServeError::Draining`] once
    /// [`ServeEngine::drain`] has started.
    pub fn session(&self) -> Result<Session<'_>, ServeError> {
        if !self.shared.accepting.load(Ordering::SeqCst) {
            return Err(ServeError::Draining);
        }
        let id = self.next_session.fetch_add(1, Ordering::SeqCst);
        Ok(Session {
            serve: self,
            id,
            regions: Vec::new(),
            state: Arc::new(SessionState {
                open_requests: AtomicUsize::new(0),
            }),
        })
    }

    /// One unified snapshot of every layer's counters and histograms (see
    /// [`Runtime::observe`]).
    pub fn observe(&self) -> Observation {
        self.runtime.observe()
    }

    /// Gracefully drains the service: stops admitting sessions and
    /// requests, waits for every in-flight request to complete, and returns
    /// the final [`Observation`] after stopping the workers. Already-open
    /// sessions can no longer submit ([`ServeError::Draining`]) but their
    /// in-flight work finishes normally.
    pub fn drain(self) -> Observation {
        self.shared.accepting.store(false, Ordering::SeqCst);
        let shared = Arc::clone(&self.shared);
        shared.wait_until(|| shared.inflight.load(Ordering::SeqCst) == 0);
        // Notify hooks fire after the runtime's outstanding count drops, so
        // inflight == 0 implies the graph may still be retiring the very
        // last nodes; taskwait settles it.
        self.runtime.taskwait();
        let report = self.runtime.observe();
        self.runtime.shutdown();
        report
    }
}

/// One tenant of the service: owns namespaced regions and submits requests.
/// Close it with [`Session::close`] to release its regions; dropping a
/// session without closing leaks its regions until the process exits (the
/// service cannot tell an abandoned session from a slow one).
pub struct Session<'serve> {
    serve: &'serve ServeEngine,
    id: u64,
    regions: Vec<RegionId>,
    state: Arc<SessionState>,
}

impl Session<'_> {
    /// The session id (also the region-name namespace `s<id>/…`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Registers a typed region owned by this session. The name is
    /// namespaced per session, so concurrent tenants cannot collide.
    pub fn register_region<T: Elem>(
        &mut self,
        name: impl AsRef<str>,
        data: Vec<T>,
    ) -> Result<Region<T>, ServeError> {
        let region = self
            .serve
            .runtime
            .store()
            .register_typed(format!("s{}/{}", self.id, name.as_ref()), data)
            .map_err(ServeError::Register)?;
        self.regions.push(region.id());
        Ok(region)
    }

    /// Registers a zero-initialised region owned by this session.
    pub fn register_zeros<T: Elem>(
        &mut self,
        name: impl AsRef<str>,
        len: usize,
    ) -> Result<Region<T>, ServeError> {
        self.register_region(name, vec![T::ZERO; len])
    }

    /// Stages a new request (a small task DAG submitted as one batch).
    pub fn request(&self) -> RequestBuilder<'_, '_> {
        RequestBuilder {
            session: self,
            staged: Vec::new(),
            current: None,
        }
    }

    /// Requests this session admitted that have not yet completed.
    pub fn open_requests(&self) -> usize {
        self.state.open_requests.load(Ordering::SeqCst)
    }

    /// Closes the session: waits for its in-flight requests, then
    /// deregisters every region it owns. Returns the data bytes freed.
    pub fn close(self) -> Result<usize, ServeError> {
        let shared = &self.serve.shared;
        let state = &self.state;
        shared.wait_until(|| state.open_requests.load(Ordering::SeqCst) == 0);
        let mut freed = 0usize;
        for region in &self.regions {
            // The completion hook fires after the graph pruned the request's
            // live accesses, so by the time `open_requests` hit zero no task
            // of this session holds an accessor entry — deregistration
            // cannot see `LiveAccessors` unless a foreign task touched a
            // session region, which *is* an error worth surfacing.
            freed += self
                .serve
                .runtime
                .deregister_region(*region)
                .map_err(ServeError::Deregister)?;
        }
        Ok(freed)
    }
}

/// Fluent staging of one request's task DAG; mirrors the vocabulary of
/// [`atm_runtime::BatchBuilder`].
#[must_use = "a request builder does nothing until `submit()` is called"]
pub struct RequestBuilder<'s, 'serve> {
    session: &'s Session<'serve>,
    staged: Vec<TaskDesc>,
    current: Option<TaskDesc>,
}

impl RequestBuilder<'_, '_> {
    fn seal_current(&mut self) {
        if let Some(desc) = self.current.take() {
            self.staged.push(desc);
        }
    }

    fn current_mut(&mut self) -> &mut TaskDesc {
        self.current
            .as_mut()
            .expect("open a task with `task(tt)` before declaring accesses")
    }

    /// Opens the next task of the request as an instance of `task_type`.
    pub fn task(mut self, task_type: TaskTypeId) -> Self {
        self.seal_current();
        self.current = Some(TaskDesc::new(task_type, Vec::new()));
        self
    }

    /// Declares a whole-region read of the open task.
    pub fn reads<T: Elem>(mut self, region: &Region<T>) -> Self {
        self.current_mut()
            .accesses
            .push(atm_runtime::Access::read(region));
        self
    }

    /// Declares a whole-region write of the open task.
    pub fn writes<T: Elem>(mut self, region: &Region<T>) -> Self {
        self.current_mut()
            .accesses
            .push(atm_runtime::Access::write(region));
        self
    }

    /// Declares a whole-region read-write of the open task.
    pub fn reads_writes<T: Elem>(mut self, region: &Region<T>) -> Self {
        self.current_mut()
            .accesses
            .push(atm_runtime::Access::read_write(region));
        self
    }

    /// Admits and submits the request. Fails fast with
    /// [`ServeError::Overloaded`] when either admission window is full and
    /// with [`ServeError::Draining`] once the service stopped admitting.
    pub fn submit(mut self) -> Result<Request, ServeError> {
        self.seal_current();
        if self.staged.is_empty() {
            return Err(ServeError::EmptyRequest);
        }
        let serve = self.session.serve;
        let shared = &serve.shared;
        if !shared.accepting.load(Ordering::SeqCst) {
            return Err(ServeError::Draining);
        }
        // Claim an in-flight slot (CAS loop: the window is contended by
        // concurrent client threads).
        let mut inflight = shared.inflight.load(Ordering::SeqCst);
        loop {
            if inflight >= shared.max_inflight {
                return Err(ServeError::Overloaded {
                    inflight: inflight as u64,
                    capacity: shared.max_inflight as u64,
                    retry_after_ns: RETRY_AFTER_NS,
                });
            }
            match shared.inflight.compare_exchange(
                inflight,
                inflight + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(current) => inflight = current,
            }
        }
        self.session
            .state
            .open_requests
            .fetch_add(1, Ordering::SeqCst);

        let tracker = Arc::new(RequestTracker {
            remaining: AtomicUsize::new(self.staged.len()),
            started: Instant::now(),
            latency_ns: AtomicU64::new(0),
            completed: AtomicBool::new(false),
            done: Event::new(),
            shared: Arc::clone(shared),
            session: Arc::clone(&self.session.state),
            obs: serve.runtime.observability().cloned(),
        });
        let descs: Vec<TaskDesc> = self
            .staged
            .drain(..)
            .map(|desc| desc.with_notify(Arc::clone(&tracker) as Arc<dyn TaskNotify>))
            .collect();
        if let Err(err) = serve.runtime.try_submit_all(descs) {
            // Give back the admission slot: nothing was submitted.
            self.session
                .state
                .open_requests
                .fetch_sub(1, Ordering::SeqCst);
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            shared.notify_waiters();
            return Err(match err {
                SubmitError::Overloaded { live, capacity } => ServeError::Overloaded {
                    inflight: live,
                    capacity,
                    retry_after_ns: RETRY_AFTER_NS,
                },
                other => ServeError::Rejected(other),
            });
        }
        Ok(Request { tracker })
    }
}

#[cfg(test)]
mod tests;
