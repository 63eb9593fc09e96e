//! The scheduler: worker pool, task submission, dependence release and the
//! taskwait barrier.
//!
//! The execution model follows §II-C of the paper: the master thread submits
//! tasks (annotated with their data accesses); the runtime builds the task
//! dependence graph; tasks whose dependences are satisfied move to the Ready
//! Queue; idle worker threads pull tasks from the queue and, *before
//! executing them*, give the configured [`TaskInterceptor`] (the ATM engine)
//! the chance to memoize or defer them.
//!
//! Submissions go through one path, [`Runtime::try_submit_all`] — the
//! fluent [`Runtime::task`] builder and [`Runtime::try_submit`] hand it a
//! batch of one: every descriptor is validated against the task type's
//! declared signature and against the store before it enters the dependence
//! graph, so malformed tasks are rejected with a [`SubmitError`] on the
//! submitting thread instead of panicking inside a worker.
//!
//! # Steady-state hot path
//!
//! Completing a task touches **no global lock**: the dependence graph
//! releases successors through per-node atomic counters
//! ([`crate::dependence`]), the released tasks go into the finishing
//! worker's own deque ([`crate::ready_queue`]), the `outstanding` taskwait
//! counter is a single atomic decrement, statistics land in per-worker
//! shards ([`crate::stats`]), and the worker reads the task descriptor, its
//! `Arc`-shared task type and its region handles (all resolved at
//! submission) straight out of the graph node — no per-execution clones and
//! no registry lookups, in the kernel or in the interceptor.

use crate::dependence::{TaskGraph, TaskNode};
use crate::interceptor::{Decision, NoopInterceptor, TaskInterceptor};
use crate::ready_queue::{Popped, ReadyQueue};
use crate::region::{DataStore, DeregisterError, RegionId};
use crate::stats::{RuntimeStats, RuntimeStatsSnapshot};
use crate::submit::{check_signature, resolve_regions, BatchBuilder, SubmitError, TaskBuilder};
use crate::task::{TaskContext, TaskDesc, TaskId, TaskTypeId, TaskTypeInfo, TaskView};
use crate::trace::{ThreadState, Tracer};
use atm_obs::{
    DecisionSnapshot, EngineObservation, LatencyMetric, MetricsSnapshot, Observability,
    StoreObservation, TaskSpan,
};
use atm_sync::atomic::{AtomicU64, Ordering};
use atm_sync::{Condvar, Mutex, RwLock};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration and construction of a [`Runtime`].
pub struct RuntimeBuilder {
    workers: usize,
    interceptor: Arc<dyn TaskInterceptor>,
    observability: Option<Arc<Observability>>,
    max_live_tasks: Option<u64>,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeBuilder {
    /// Starts a builder with 1 worker, no observability handle and no
    /// interceptor (the "no ATM" baseline).
    pub fn new() -> Self {
        RuntimeBuilder {
            workers: 1,
            interceptor: Arc::new(NoopInterceptor),
            observability: None,
            max_live_tasks: None,
        }
    }

    /// Bounds the number of live (submitted but unfinished) tasks. A
    /// submission that would exceed the window is rejected with
    /// [`SubmitError::Overloaded`] — the runtime never queues beyond it —
    /// which is the admission-control primitive a serving tier builds
    /// backpressure on. `None` (the default) keeps the batch-workload
    /// behaviour: submit without bound.
    #[must_use]
    pub fn max_live_tasks(mut self, limit: u64) -> Self {
        assert!(limit >= 1, "a zero-task window would reject everything");
        self.max_live_tasks = Some(limit);
        self
    }

    /// Sets the number of worker threads (the paper's "number of cores").
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "the runtime needs at least one worker thread");
        self.workers = workers;
        self
    }

    /// Installs a task interceptor (the ATM engine).
    #[must_use]
    pub fn interceptor(mut self, interceptor: Arc<dyn TaskInterceptor>) -> Self {
        self.interceptor = interceptor;
        self
    }

    /// Attaches an observability handle (see [`atm_obs::Observability`]).
    /// The runtime records per-task latency histograms into it and runs on
    /// its clock; a capture handle ([`Observability::capture`]) also gets
    /// thread-state intervals, task spans and ready-queue depth samples
    /// (Figures 7/8). Share the same handle with the ATM engine to get one
    /// unified [`Observation`]. Without one (the default) the hot paths do
    /// no recording work.
    #[must_use]
    pub fn observability(mut self, obs: Arc<Observability>) -> Self {
        self.observability = Some(obs);
        self
    }

    /// Builds the runtime and spawns its worker threads.
    pub fn build(self) -> Runtime {
        let tracer = Arc::new(Tracer::new(self.observability));
        let inner = Arc::new(Inner {
            store: DataStore::new(),
            registry: RwLock::new(Vec::new()),
            graph: TaskGraph::new(),
            queue: ReadyQueue::new(self.workers, Arc::clone(&tracer)),
            interceptor: self.interceptor,
            tracer,
            stats: RuntimeStats::with_workers(self.workers),
            outstanding: AtomicU64::new(0),
            done_lock: Mutex::new(()),
            all_done: Condvar::new(),
            workers: self.workers,
            max_live_tasks: self.max_live_tasks,
        });
        let handles = (0..self.workers)
            .map(|worker| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("atm-worker-{worker}"))
                    .spawn(move || worker_loop(&inner, worker))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Runtime { inner, handles }
    }
}

struct Inner {
    store: DataStore,
    registry: RwLock<Vec<Arc<TaskTypeInfo>>>,
    graph: TaskGraph,
    queue: ReadyQueue,
    interceptor: Arc<dyn TaskInterceptor>,
    tracer: Arc<Tracer>,
    stats: RuntimeStats,
    /// Submitted-but-unfinished task count. Incremented by the master before
    /// a task enters the graph, decremented once per completion; the
    /// `done_lock`/`all_done` pair only comes into play when a taskwait is
    /// actually blocked.
    outstanding: AtomicU64,
    done_lock: Mutex<()>,
    all_done: Condvar,
    workers: usize,
    /// Admission window: cap on `outstanding` enforced at submission (see
    /// [`RuntimeBuilder::max_live_tasks`]). `None` admits unconditionally.
    max_live_tasks: Option<u64>,
}

impl Inner {
    /// The attached observability handle, if any (it rides on the tracer,
    /// whose clock it owns).
    #[inline]
    fn obs(&self) -> Option<&Observability> {
        self.tracer.observability().map(Arc::as_ref)
    }

    /// Completes one finish cycle: the task the worker just executed plus
    /// every deferred task whose completion that execution produced.
    ///
    /// All successors released by the whole cycle accumulate in `packet`
    /// (the worker's reusable scratch) and flush as **one** ready-queue push
    /// with one batched sleeper wakeup, followed by **one** `outstanding`
    /// decrement covering every completed task.
    ///
    /// Completion hooks run last, after the publish and the decrement, so a
    /// notify that signals "request done" observes a settled runtime. The
    /// deferred tasks' nodes leave `deferred_nodes` with their hooks: a
    /// retired task — and the region handles it carries — does not outlive
    /// the cycle that finished it, however long the worker then idles.
    fn finish_cycle(
        &self,
        worker: usize,
        executed: &Arc<TaskNode>,
        completed_deferred: &[TaskId],
        packet: &mut Vec<TaskId>,
        deferred_nodes: &mut Vec<Arc<TaskNode>>,
    ) {
        packet.clear();
        let cycle_start = self.obs().map(|_| self.tracer.now_ns());

        self.graph.finish_node_into(executed, packet);
        for &id in completed_deferred {
            // Deferred tasks finish on their producer's worker; the worker
            // does not hold their node, so look it up (and read the
            // submission stamp) before retiring it.
            let node = self.graph.node(id);
            if let Some(obs) = self.obs() {
                let finished = self.tracer.now_ns();
                obs.record_latency(
                    LatencyMetric::TaskLatency,
                    worker,
                    finished.saturating_sub(node.desc().submitted_at_ns),
                );
            }
            self.graph.finish_node_into(&node, packet);
            deferred_nodes.push(node);
        }
        self.queue.push_from(worker, packet);
        self.decrement_outstanding(1 + completed_deferred.len() as u64);

        if let Some(notify) = &executed.desc().notify {
            notify.task_finished(worker, executed.id());
        }
        for node in deferred_nodes.drain(..) {
            if let Some(notify) = &node.desc().notify {
                notify.task_finished(worker, node.id());
            }
        }
        if let (Some(obs), Some(start)) = (self.obs(), cycle_start) {
            obs.record_latency(
                LatencyMetric::Release,
                worker,
                self.tracer.now_ns().saturating_sub(start),
            );
        }
    }

    /// Accounts for one submit call that began at `start` and put `count`
    /// tasks into the graph. The master (submitting) thread owns the last
    /// stats shard and is traced as worker index `workers`.
    fn note_submitted(&self, count: u64, start: u64) {
        let end = self.tracer.now_ns();
        let stats = self.stats.shard(self.workers);
        stats.add(&stats.submitted, count);
        stats.add(&stats.creation_ns, end - start);
        self.tracer
            .record(self.workers, ThreadState::TaskCreation, start, end);
        if let Some(obs) = self.obs() {
            obs.record_latency(LatencyMetric::Submit, self.workers, end - start);
        }
    }

    fn decrement_outstanding(&self, finished: u64) {
        let prev = self.outstanding.fetch_sub(finished, Ordering::SeqCst);
        debug_assert!(
            prev >= finished,
            "finishing {finished} tasks with only {prev} outstanding"
        );
        if prev == finished {
            // Serialise with a blocked taskwait: the waiter re-checks the
            // counter under `done_lock` before sleeping, so taking the lock
            // here guarantees the notify cannot be lost.
            let _guard = self.done_lock.lock();
            self.all_done.notify_all();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, worker: usize) {
    let stats = inner.stats.shard(worker);
    // Reusable release scratch: successors released by a finish cycle and
    // the nodes of producer-completed deferred tasks accumulate here, so
    // the steady-state finish path allocates nothing.
    let mut packet: Vec<TaskId> = Vec::new();
    let mut deferred_nodes: Vec<Arc<TaskNode>> = Vec::new();
    loop {
        // The idle interval and the pick-up stamp only feed the
        // observability handle: without one, the pop is not timed.
        let idle_start = inner.obs().map(|_| inner.tracer.now_ns());
        let popped = inner.queue.pop(worker);
        let picked_up = idle_start.map(|idle_start| {
            let picked_up = inner.tracer.now_ns();
            inner
                .tracer
                .record(worker, ThreadState::Idle, idle_start, picked_up);
            picked_up
        });
        let id = match popped {
            Popped::Task(id) => id,
            Popped::Closed => break,
        };

        // One graph access marks the task running and hands back its node;
        // the descriptor, the task type and the region handles resolved at
        // submission are borrowed from it — nothing on this path clones or
        // looks anything up per execution.
        let node = inner.graph.start_running(id);
        let desc = node.desc();
        let info = desc
            .info
            .as_deref()
            .expect("a task the runtime submitted carries its resolved type");
        let view = TaskView {
            id,
            type_id: desc.task_type,
            info,
            accesses: &desc.accesses,
            regions: &desc.regions,
        };

        let decision = inner
            .interceptor
            .before_execute(view, &inner.store, &inner.tracer, worker);
        let executed = match decision {
            Decision::Execute => {
                let start = inner.tracer.now_ns();
                let ctx = TaskContext::resolved(&inner.store, &desc.accesses, &desc.regions);
                (info.kernel)(&ctx);
                let end = inner.tracer.now_ns();
                inner
                    .tracer
                    .record(worker, ThreadState::TaskExecution, start, end);
                stats.add(&stats.kernel_ns, end - start);
                stats.incr(&stats.executed);
                if let Some(obs) = inner.obs() {
                    obs.record_latency(LatencyMetric::Kernel, worker, end - start);
                }
                true
            }
            Decision::Memoized => {
                stats.incr(&stats.bypassed);
                false
            }
            Decision::Deferred => {
                // The interceptor registered this task with an in-flight
                // producer; its completion will arrive through that
                // producer's `after_execute`. Do not finish it here.
                stats.incr(&stats.deferred);
                inner.graph.mark_deferred(id);
                continue;
            }
        };

        let completed_deferred =
            inner
                .interceptor
                .after_execute(view, &inner.store, &inner.tracer, worker, executed);
        if let (Some(obs), Some(picked_up)) = (inner.obs(), picked_up) {
            let finished = inner.tracer.now_ns();
            obs.record_latency(
                LatencyMetric::TaskLatency,
                worker,
                finished.saturating_sub(desc.submitted_at_ns),
            );
            obs.record_span(TaskSpan {
                worker,
                task_id: id.raw(),
                task_type: desc.task_type.index() as u32,
                start_ns: picked_up,
                end_ns: finished,
            });
        }
        inner.finish_cycle(
            worker,
            &node,
            &completed_deferred,
            &mut packet,
            &mut deferred_nodes,
        );
    }
}

/// The task-based dataflow runtime.
///
/// Create one with [`RuntimeBuilder`], register regions through
/// [`Runtime::store`], register task types with
/// [`Runtime::register_task_type`], submit work with the fluent
/// [`Runtime::task`] builder and synchronise with [`Runtime::taskwait`].
/// Dropping the runtime (or calling [`Runtime::shutdown`]) stops the
/// workers.
pub struct Runtime {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// The data store holding all registered regions.
    pub fn store(&self) -> &DataStore {
        &self.inner.store
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Registers a task type and returns its id. The type info is stored
    /// once behind an [`Arc`]; workers share it instead of cloning it per
    /// execution.
    pub fn register_task_type(&self, info: TaskTypeInfo) -> TaskTypeId {
        let mut registry = self.inner.registry.write();
        let id = TaskTypeId(u32::try_from(registry.len()).expect("too many task types"));
        if let Some(obs) = self.inner.obs() {
            obs.note_type_name(id.index() as u32, &info.name);
        }
        registry.push(Arc::new(info));
        id
    }

    /// Starts a fluent, validating submission of one instance of
    /// `task_type`. Chain [`TaskBuilder::reads`], [`TaskBuilder::writes`]
    /// and [`TaskBuilder::reads_writes`], then call [`TaskBuilder::submit`].
    pub fn task(&self, task_type: TaskTypeId) -> TaskBuilder<'_> {
        TaskBuilder::new(self, task_type)
    }

    /// Starts a fluent, validating **batch** submission. Stage tasks with
    /// [`BatchBuilder::task`] (each followed by its access declarations),
    /// then submit them all with [`BatchBuilder::submit_all`] — one
    /// validation pass, one dependence pass, and each internal lock taken
    /// once per batch instead of once per task. See [`Runtime::tasks`] for
    /// the single-task-type shorthand.
    pub fn batch(&self) -> BatchBuilder<'_> {
        BatchBuilder::new(self, None)
    }

    /// Starts a fluent batch submission of instances of one `task_type`:
    /// [`BatchBuilder::next`] opens each staged task without restating the
    /// type. Equivalent to [`Runtime::batch`] plus an explicit
    /// [`BatchBuilder::task`] per staged task.
    pub fn tasks(&self, task_type: TaskTypeId) -> BatchBuilder<'_> {
        BatchBuilder::new(self, Some(task_type))
    }

    /// Admits `count` tasks into the live window, or rejects with
    /// [`SubmitError::Overloaded`] when the window is full. On success the
    /// outstanding count has been raised by `count`; the caller must then
    /// actually submit (a failed submission after admission would leak
    /// window slots).
    fn admit(&self, count: u64) -> Result<(), SubmitError> {
        let Some(capacity) = self.inner.max_live_tasks else {
            self.inner.outstanding.fetch_add(count, Ordering::SeqCst);
            return Ok(());
        };
        let mut live = self.inner.outstanding.load(Ordering::SeqCst);
        loop {
            if live.saturating_add(count) > capacity {
                return Err(SubmitError::Overloaded { live, capacity });
            }
            match self.inner.outstanding.compare_exchange(
                live,
                live + count,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Ok(()),
                Err(current) => live = current,
            }
        }
    }

    /// Validates and submits one task instance: a batch of one
    /// ([`Runtime::try_submit_all`]).
    pub fn try_submit(&self, desc: TaskDesc) -> Result<TaskId, SubmitError> {
        self.try_submit_all(vec![desc]).map(|ids| ids[0])
    }

    /// Validates and submits a batch of task instances, in order. Each
    /// task's dependences on previously submitted, unfinished tasks — and
    /// on earlier members of the batch — are derived from its declared
    /// accesses; it starts executing as soon as they are satisfied.
    ///
    /// All descriptors are validated **before** anything is submitted (the
    /// task-type registry lock is taken once for the whole batch, each
    /// descriptor checked fully in staging order): on error, nothing was
    /// submitted and the first offending descriptor's [`SubmitError`] is
    /// returned. On success the batch enters the dependence graph in a
    /// single pass — ids are assigned in staging order, dependences between
    /// batch members included, exactly the graph the equivalent one-by-one
    /// submissions build — and every immediately-ready task is pushed to
    /// the Ready Queue in id order.
    pub fn try_submit_all(&self, mut descs: Vec<TaskDesc>) -> Result<Vec<TaskId>, SubmitError> {
        if descs.is_empty() {
            return Ok(Vec::new());
        }
        let start = self.inner.tracer.now_ns();
        {
            // One task-type registry lock for the whole batch; each
            // descriptor is checked in staging order, so the first offending
            // descriptor's error is returned. The resolved type stays in the
            // descriptor for the worker that will run it.
            let registry = self.inner.registry.read();
            for desc in &mut descs {
                let Some(info) = registry.get(desc.task_type.index()) else {
                    let task_type = desc.task_type;
                    return Err(SubmitError::UnknownTaskType { task_type });
                };
                if let Some(signature) = &info.signature {
                    check_signature(signature, &desc.accesses)?;
                }
                desc.info = Some(Arc::clone(info));
                desc.submitted_at_ns = start;
            }
        }
        // Take the permit over the union of the batch's regions before the
        // store check: a region that validates here cannot be deregistered
        // until the permit drops, so the graph never records a task naming
        // a retired region. The check resolves every region once, for the
        // whole batch, into the handles the tasks carry to their workers.
        let mut permit = self.inner.graph.lock_submission(
            descs
                .iter()
                .flat_map(|desc| desc.accesses.iter().map(|a| a.region)),
        );
        resolve_regions(&self.inner.store, &mut descs)?;

        let count = descs.len() as u64;
        self.admit(count)?;
        let submitted = self.inner.graph.submit_batch_with(&mut permit, descs);
        drop(permit);
        let ready: Vec<TaskId> = submitted
            .iter()
            .filter(|(_, ready)| *ready)
            .map(|(id, _)| *id)
            .collect();
        self.inner.queue.push_all(&ready);
        self.inner.note_submitted(count, start);
        Ok(submitted.into_iter().map(|(id, _)| id).collect())
    }

    /// Blocks until every submitted task has finished (the `#pragma omp taskwait`
    /// of the programming model). When everything already finished this is a
    /// single atomic load — no lock.
    pub fn taskwait(&self) {
        if self.inner.outstanding.load(Ordering::SeqCst) == 0 {
            return;
        }
        let start = self.inner.tracer.now_ns();
        let mut guard = self.inner.done_lock.lock();
        while self.inner.outstanding.load(Ordering::SeqCst) > 0 {
            self.inner.all_done.wait(&mut guard);
        }
        drop(guard);
        self.inner.tracer.record(
            self.inner.workers,
            ThreadState::Idle,
            start,
            self.inner.tracer.now_ns(),
        );
    }

    /// Snapshot of the runtime counters, including the graph-node gauges
    /// ([`RuntimeStatsSnapshot::live_nodes`] /
    /// [`RuntimeStatsSnapshot::retired_nodes`]) that make the retirement
    /// scheme's bounded memory observable.
    pub fn stats(&self) -> RuntimeStatsSnapshot {
        let mut snapshot = self.inner.stats.snapshot();
        snapshot.live_nodes = self.inner.graph.live_nodes();
        snapshot.retired_nodes = self.inner.graph.retired_count();
        snapshot.edges = self.inner.graph.edges_wired();
        snapshot.live_index_regions = self.inner.graph.live_index_regions() as u64;
        snapshot
    }

    /// Deregisters a region: frees its data and drops it from the
    /// dependence index. Returns the number of data bytes released.
    ///
    /// Rejected with [`DeregisterError::LiveAccessors`] while any submitted,
    /// unfinished task accesses the region — drain first (a serving tier
    /// calls this after the session's last request completes). The check and
    /// the removal run under the region's shard lock (a submission permit),
    /// so a concurrent submitter either lands before the check (and blocks
    /// the deregistration) or observes the region as retired
    /// ([`SubmitError::RegionRetired`]); there is no window where a task
    /// enters the graph naming a freed region. Deregistered ids are never
    /// reused.
    pub fn deregister_region(&self, id: impl Into<RegionId>) -> Result<usize, DeregisterError> {
        let id = id.into();
        let mut permit = self.inner.graph.lock_submission([id]);
        if self.inner.graph.region_has_live_accessors(&permit, id) {
            return Err(DeregisterError::LiveAccessors(id));
        }
        let freed = self.inner.store.deregister(id)?;
        self.inner.graph.forget_region(&mut permit, id);
        Ok(freed)
    }

    /// One unified observability snapshot: the runtime counters, the
    /// interceptor's engine/store counters (when it reports them), and the
    /// latency histograms and memo-decision stream of the attached
    /// [`Observability`] handle (empty when none is attached). This replaces
    /// querying runtime stats, engine stats and store counters separately.
    pub fn observe(&self) -> Observation {
        let (engine, store) = match self.inner.interceptor.observe() {
            Some((engine, store)) => (Some(engine), Some(store)),
            None => (None, None),
        };
        let (latency, decisions) = match self.inner.obs() {
            Some(obs) => (obs.metrics(), obs.decisions()),
            None => (MetricsSnapshot::empty(), DecisionSnapshot::default()),
        };
        Observation {
            runtime: self.stats(),
            engine,
            store,
            latency,
            decisions,
        }
    }

    /// The observability handle attached at build time, if any.
    pub fn observability(&self) -> Option<&Arc<Observability>> {
        self.inner.tracer.observability()
    }

    /// Current depth of the ready queue (diagnostic).
    pub fn ready_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// Waits for all outstanding tasks and stops the worker threads.
    pub fn shutdown(mut self) {
        self.taskwait();
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        self.inner.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The unified observability snapshot returned by [`Runtime::observe`]:
/// every layer's counters in one place, plus the latency histograms and the
/// memo-decision stream.
#[derive(Debug)]
pub struct Observation {
    /// Runtime counters (submission, execution, kernel time, graph gauges).
    pub runtime: RuntimeStatsSnapshot,
    /// Aggregate memoization-engine counters, when the installed
    /// interceptor reports them (see [`TaskInterceptor::observe`]).
    pub engine: Option<EngineObservation>,
    /// Memo-store counters, when the installed interceptor reports them.
    pub store: Option<StoreObservation>,
    /// Latency histograms (task end-to-end, kernel, submit path, memo
    /// lookup, store insert/evict). Empty without an attached handle.
    pub latency: MetricsSnapshot,
    /// The memo-decision audit stream. Empty without an attached handle.
    pub decisions: DecisionSnapshot,
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Do not taskwait here: if the user code panicked mid-submission we
        // only want to stop the workers, not hang.
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, AccessMode};
    use crate::region::{ElemType, Region, RegionRef};
    use crate::task::TaskTypeBuilder;
    use atm_sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_task_executes_and_writes_output() {
        let rt = RuntimeBuilder::new().workers(2).build();
        let out = rt.store().register_zeros::<f32>("out", 4).unwrap();
        let tt = rt.register_task_type(
            TaskTypeBuilder::new("fill", |ctx| {
                ctx.out(0, &[1.0f32, 2.0, 3.0, 4.0]);
            })
            .out::<f32>()
            .build(),
        );
        rt.task(tt).writes(&out).submit().unwrap();
        rt.taskwait();
        assert_eq!(rt.store().read(out).lock().as_f32(), &[1.0, 2.0, 3.0, 4.0]);
        let stats = rt.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.executed, 1);
        rt.shutdown();
    }

    #[test]
    fn dependent_tasks_run_in_dataflow_order() {
        let rt = RuntimeBuilder::new().workers(4).build();
        let a = rt.store().register_zeros::<f64>("a", 1).unwrap();
        let b = rt.store().register_zeros::<f64>("b", 1).unwrap();
        let produce = rt.register_task_type(
            TaskTypeBuilder::new("produce", |ctx| ctx.out(0, &[21.0f64]))
                .out::<f64>()
                .build(),
        );
        let double = rt.register_task_type(
            TaskTypeBuilder::new("double", |ctx| {
                let x = ctx.arg::<f64>(0)[0];
                ctx.out(1, &[x * 2.0]);
            })
            .arg::<f64>()
            .out::<f64>()
            .build(),
        );
        rt.task(produce).writes(&a).submit().unwrap();
        rt.task(double).reads(&a).writes(&b).submit().unwrap();
        rt.taskwait();
        assert_eq!(rt.store().read(b).lock().as_f64(), &[42.0]);
        rt.shutdown();
    }

    #[test]
    fn chain_of_inout_tasks_is_serialised() {
        let rt = RuntimeBuilder::new().workers(4).build();
        let counter = rt.store().register_zeros::<i32>("counter", 1).unwrap();
        let incr = rt.register_task_type(
            TaskTypeBuilder::new("incr", |ctx| {
                let v = ctx.arg::<i32>(0)[0];
                ctx.out(0, &[v + 1]);
            })
            .inout::<i32>()
            .build(),
        );
        for _ in 0..100 {
            rt.task(incr).reads_writes(&counter).submit().unwrap();
        }
        rt.taskwait();
        assert_eq!(rt.store().read(counter).lock().as_i32(), &[100]);
        rt.shutdown();
    }

    #[test]
    fn independent_tasks_can_run_on_many_workers() {
        let rt = RuntimeBuilder::new().workers(4).build();
        let regions: Vec<Region<f32>> = (0..64)
            .map(|i| rt.store().register_zeros(format!("r{i}"), 1).unwrap())
            .collect();
        let executions = Arc::new(AtomicUsize::new(0));
        let executions_in_kernel = Arc::clone(&executions);
        let tt = rt.register_task_type(
            TaskTypeBuilder::new("mark", move |ctx| {
                executions_in_kernel.fetch_add(1, Ordering::Relaxed);
                ctx.out(0, &[1.0f32]);
            })
            .out::<f32>()
            .build(),
        );
        for r in &regions {
            rt.task(tt).writes(r).submit().unwrap();
        }
        rt.taskwait();
        assert_eq!(executions.load(Ordering::Relaxed), 64);
        for r in &regions {
            assert_eq!(rt.store().read(*r).lock().as_f32(), &[1.0]);
        }
        rt.shutdown();
    }

    #[test]
    fn taskwait_can_be_called_repeatedly_between_submission_waves() {
        let rt = RuntimeBuilder::new().workers(2).build();
        let acc = rt.store().register_zeros::<f64>("acc", 1).unwrap();
        let add_one = rt.register_task_type(
            TaskTypeBuilder::new("add", |ctx| {
                let v = ctx.arg::<f64>(0)[0];
                ctx.out(0, &[v + 1.0]);
            })
            .inout::<f64>()
            .build(),
        );
        for _wave in 0..5 {
            for _ in 0..10 {
                rt.task(add_one).reads_writes(&acc).submit().unwrap();
            }
            rt.taskwait();
        }
        assert_eq!(rt.store().read(acc).lock().as_f64(), &[50.0]);
        rt.shutdown();
    }

    #[test]
    fn stats_and_tracer_capture_execution() {
        let obs = Arc::new(Observability::capture());
        let rt = RuntimeBuilder::new()
            .workers(1)
            .observability(Arc::clone(&obs))
            .build();
        let r = rt.store().register_zeros::<f32>("r", 128).unwrap();
        let tt = rt.register_task_type(
            TaskTypeBuilder::new("work", |ctx| {
                let v: Vec<f32> = (0..128).map(|i| (i as f32).sin()).collect();
                ctx.out(0, &v);
            })
            .inout::<f32>()
            .build(),
        );
        for _ in 0..10 {
            rt.task(tt).reads_writes(&r).submit().unwrap();
        }
        rt.taskwait();
        let stats = rt.stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.executed, 10);
        assert!(stats.kernel_ns > 0);
        let summary = crate::trace::TraceSummary::from_states(&obs.states());
        assert!(summary.state_ns(ThreadState::TaskExecution) > 0);
        assert!(summary.state_ns(ThreadState::TaskCreation) > 0);
        assert!(!obs.ready_depth_samples().is_empty());
        rt.shutdown();
    }

    #[test]
    fn submitting_unregistered_task_type_is_rejected() {
        let rt = RuntimeBuilder::new().workers(1).build();
        let r = rt.store().register_zeros::<f32>("r", 1).unwrap();
        let err = rt.task(TaskTypeId(5)).writes(&r).submit().unwrap_err();
        assert_eq!(
            err,
            SubmitError::UnknownTaskType {
                task_type: TaskTypeId(5)
            }
        );
    }

    #[test]
    fn submission_validates_against_the_signature() {
        let rt = RuntimeBuilder::new().workers(1).build();
        let input = rt.store().register_zeros::<f64>("in", 2).unwrap();
        let out = rt.store().register_zeros::<f64>("out", 2).unwrap();
        let floats = rt.store().register_zeros::<f32>("floats", 2).unwrap();
        let tt = rt.register_task_type(
            TaskTypeBuilder::new("copy", |ctx| {
                let v = ctx.arg::<f64>(0);
                ctx.out(1, &v);
            })
            .arg::<f64>()
            .out::<f64>()
            .build(),
        );

        // Wrong arity.
        assert_eq!(
            rt.task(tt).reads(&input).submit().unwrap_err(),
            SubmitError::ArityMismatch {
                min: 2,
                max: Some(2),
                got: 1
            }
        );
        // Wrong mode at position 1.
        assert_eq!(
            rt.task(tt).reads(&input).reads(&out).submit().unwrap_err(),
            SubmitError::ModeMismatch {
                index: 1,
                expected: AccessMode::Out,
                got: AccessMode::In
            }
        );
        // Wrong element type at position 1.
        assert_eq!(
            rt.task(tt)
                .reads(&input)
                .writes(&floats)
                .submit()
                .unwrap_err(),
            SubmitError::TypeMismatch {
                index: 1,
                expected: ElemType::F64,
                got: ElemType::F32
            }
        );
        // A correct submission still goes through.
        rt.task(tt).reads(&input).writes(&out).submit().unwrap();
        rt.taskwait();
        assert_eq!(
            rt.stats().submitted,
            1,
            "rejected submissions must not be counted"
        );
        rt.shutdown();
    }

    #[test]
    fn submission_rejects_regions_from_another_store() {
        let rt = RuntimeBuilder::new().workers(1).build();
        let other = RuntimeBuilder::new().workers(1).build();
        let foreign = other.store().register_zeros::<f32>("foreign", 1).unwrap();
        let tt = rt.register_task_type(TaskTypeBuilder::new("t", |_| {}).build());
        let err = rt.task(tt).writes(&foreign).submit().unwrap_err();
        assert_eq!(
            err,
            SubmitError::UnknownRegion {
                index: 0,
                region: foreign.id()
            }
        );
        rt.shutdown();
        other.shutdown();
    }

    #[test]
    fn drop_without_shutdown_does_not_hang() {
        let rt = RuntimeBuilder::new().workers(2).build();
        let r = rt.store().register_zeros::<f32>("r", 1).unwrap();
        let tt = rt.register_task_type(TaskTypeBuilder::new("t", |_| {}).build());
        rt.task(tt).writes(&r).submit().unwrap();
        rt.taskwait();
        drop(rt);
    }

    /// One worker and four run the same dataflow to the same result.
    #[test]
    fn both_queue_modes_run_the_same_dataflow_to_the_same_result() {
        for workers in [1usize, 4] {
            let rt = RuntimeBuilder::new().workers(workers).build();
            let acc = rt.store().register_zeros::<f64>("acc", 1).unwrap();
            let add_one = rt.register_task_type(
                TaskTypeBuilder::new("add", |ctx| {
                    let v = ctx.arg::<f64>(0)[0];
                    ctx.out(0, &[v + 1.0]);
                })
                .inout::<f64>()
                .build(),
            );
            for _ in 0..50 {
                rt.task(add_one).reads_writes(&acc).submit().unwrap();
            }
            rt.taskwait();
            assert_eq!(
                rt.store().read(acc).lock().as_f64(),
                &[50.0],
                "{workers} workers"
            );
            let stats = rt.stats();
            assert_eq!(stats.submitted, 50);
            assert_eq!(stats.executed, 50);
            assert_eq!(rt.ready_depth(), 0, "taskwait must leave the queue empty");
            rt.shutdown();
        }
    }

    /// `Runtime` is `Sync`: two threads submitting into one runtime must
    /// not corrupt the node slab (submissions are serialised internally).
    #[test]
    fn concurrent_submitters_do_not_corrupt_the_graph() {
        let rt = Arc::new(RuntimeBuilder::new().workers(2).build());
        let counters: Vec<_> = (0..2)
            .map(|i| {
                rt.store()
                    .register_zeros::<i32>(format!("c{i}"), 1)
                    .unwrap()
            })
            .collect();
        let incr = rt.register_task_type(
            TaskTypeBuilder::new("incr", |ctx| {
                let v = ctx.arg::<i32>(0)[0];
                ctx.out(0, &[v + 1]);
            })
            .inout::<i32>()
            .build(),
        );
        let submitters: Vec<_> = counters
            .iter()
            .map(|counter| {
                let rt = Arc::clone(&rt);
                let counter = *counter;
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        rt.task(incr).reads_writes(&counter).submit().unwrap();
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        rt.taskwait();
        for counter in &counters {
            assert_eq!(rt.store().read(*counter).lock().as_i32(), &[200]);
        }
        let stats = rt.stats();
        assert_eq!(stats.executed, 400);
        assert_eq!(
            stats.submitted, 400,
            "concurrent submitters share the master stats shard; no count may be lost"
        );
        Arc::try_unwrap(rt).ok().unwrap().shutdown();
    }

    /// One batch of 40 increments, then the same 40 as batches of one:
    /// the same dataflow and the same counts.
    #[test]
    fn batch_submission_runs_the_same_dataflow_as_singletons() {
        for batched in [true, false] {
            let rt = RuntimeBuilder::new().workers(2).build();
            let acc = rt.store().register_zeros::<f64>("acc", 1).unwrap();
            let add_one = rt.register_task_type(
                TaskTypeBuilder::new("add", |ctx| {
                    let v = ctx.arg::<f64>(0)[0];
                    ctx.out(0, &[v + 1.0]);
                })
                .inout::<f64>()
                .build(),
            );
            let ids = if batched {
                (0..40)
                    .fold(rt.tasks(add_one), |b, _| b.next().reads_writes(&acc))
                    .submit_all()
                    .unwrap()
            } else {
                (0..40)
                    .map(|_| rt.task(add_one).reads_writes(&acc).submit().unwrap())
                    .collect()
            };
            let distinct: std::collections::BTreeSet<_> = ids.iter().map(|id| id.raw()).collect();
            assert_eq!(distinct.len(), 40, "ids must be distinct");
            rt.taskwait();
            assert_eq!(rt.store().read(acc).lock().as_f64(), &[40.0]);
            let stats = rt.stats();
            assert_eq!(stats.submitted, 40);
            assert_eq!(stats.executed, 40);
            rt.shutdown();
        }
    }

    #[test]
    fn batch_mixes_task_types_and_preserves_staging_order() {
        let rt = RuntimeBuilder::new().workers(1).build();
        let a = rt.store().register_zeros::<f64>("a", 1).unwrap();
        let b = rt.store().register_zeros::<f64>("b", 1).unwrap();
        let produce = rt.register_task_type(
            TaskTypeBuilder::new("produce", |ctx| ctx.out(0, &[21.0f64]))
                .out::<f64>()
                .build(),
        );
        let double = rt.register_task_type(
            TaskTypeBuilder::new("double", |ctx| {
                let x = ctx.arg::<f64>(0)[0];
                ctx.out(1, &[x * 2.0]);
            })
            .arg::<f64>()
            .out::<f64>()
            .build(),
        );
        let ids = rt
            .batch()
            .task(produce)
            .writes(&a)
            .task(double)
            .reads(&a)
            .writes(&b)
            .submit_all()
            .unwrap();
        assert_eq!(ids.len(), 2);
        rt.taskwait();
        assert_eq!(rt.store().read(b).lock().as_f64(), &[42.0]);
        rt.shutdown();
    }

    #[test]
    fn batch_validation_rejects_everything_atomically() {
        let rt = RuntimeBuilder::new().workers(1).build();
        let r = rt.store().register_zeros::<f64>("r", 1).unwrap();
        let tt = rt.register_task_type(
            TaskTypeBuilder::new("copy", |ctx| {
                let v = ctx.arg::<f64>(0);
                ctx.out(1, &v);
            })
            .arg::<f64>()
            .out::<f64>()
            .build(),
        );
        // Second staged task has the wrong arity: the whole batch must be
        // rejected with nothing submitted.
        let err = rt
            .batch()
            .task(tt)
            .reads(&r)
            .writes(&r)
            .task(tt)
            .reads(&r)
            .submit_all()
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::ArityMismatch {
                min: 2,
                max: Some(2),
                got: 1
            }
        );
        rt.taskwait();
        assert_eq!(rt.stats().submitted, 0, "a rejected batch submits nothing");
        rt.shutdown();
    }

    #[test]
    fn empty_batch_submits_nothing() {
        let rt = RuntimeBuilder::new().workers(1).build();
        let batch = rt.batch();
        assert!(batch.is_empty());
        assert_eq!(batch.submit_all().unwrap(), Vec::new());
        assert_eq!(rt.stats().submitted, 0);
        rt.shutdown();
    }

    #[test]
    fn stats_expose_bounded_live_nodes_across_waves() {
        let rt = RuntimeBuilder::new().workers(2).build();
        let cell = rt.store().register_zeros::<f64>("cell", 1).unwrap();
        let incr = rt.register_task_type(
            TaskTypeBuilder::new("incr", |ctx| {
                let v = ctx.arg::<f64>(0)[0];
                ctx.out(0, &[v + 1.0]);
            })
            .inout::<f64>()
            .build(),
        );
        for wave in 1..=5u64 {
            let mut batch = rt.tasks(incr);
            for _ in 0..20 {
                batch = batch.next().reads_writes(&cell);
            }
            batch.submit_all().unwrap();
            rt.taskwait();
            let stats = rt.stats();
            assert_eq!(
                stats.live_nodes, 0,
                "after a taskwait every finished chain retires"
            );
            assert_eq!(stats.retired_nodes, wave * 20);
        }
        assert_eq!(rt.store().read(cell).lock().as_f64(), &[100.0]);
        rt.shutdown();
    }

    #[test]
    fn observe_unifies_stats_latency_spans_and_type_names() {
        let obs = Arc::new(Observability::capture());
        let rt = RuntimeBuilder::new()
            .workers(2)
            .observability(Arc::clone(&obs))
            .build();
        let cell = rt.store().register_zeros::<f64>("cell", 1).unwrap();
        let incr = rt.register_task_type(
            TaskTypeBuilder::new("incr", |ctx| {
                let v = ctx.arg::<f64>(0)[0];
                ctx.out(0, &[v + 1.0]);
            })
            .inout::<f64>()
            .build(),
        );
        for _ in 0..4 {
            rt.task(incr).reads_writes(&cell).submit().unwrap();
        }
        let mut batch = rt.tasks(incr);
        for _ in 0..6 {
            batch = batch.next().reads_writes(&cell);
        }
        batch.submit_all().unwrap();
        rt.taskwait();

        let o = rt.observe();
        assert_eq!(o.runtime.submitted, 10);
        assert_eq!(o.runtime.executed, 10);
        assert!(o.engine.is_none(), "no interceptor → no engine counters");
        assert!(o.store.is_none());
        let task_latency = o.latency.get(LatencyMetric::TaskLatency);
        assert_eq!(task_latency.count, 10);
        assert!(task_latency.p50() <= task_latency.p99());
        assert_eq!(o.latency.get(LatencyMetric::Kernel).count, 10);
        // 4 singleton submissions + 1 batch = 5 submit-path samples.
        assert_eq!(o.latency.get(LatencyMetric::Submit).count, 5);
        assert_eq!(o.decisions.total(), 0, "no memoization → no decisions");

        let spans = obs.spans();
        assert_eq!(spans.len(), 10);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(obs.type_name(0).as_deref(), Some("incr"));
        rt.shutdown();
    }

    #[test]
    fn observe_without_a_handle_reports_empty_histograms() {
        let rt = RuntimeBuilder::new().workers(1).build();
        let r = rt.store().register_zeros::<f32>("r", 1).unwrap();
        let tt = rt.register_task_type(
            TaskTypeBuilder::new("t", |ctx| ctx.out(0, &[1.0f32]))
                .out::<f32>()
                .build(),
        );
        rt.task(tt).writes(&r).submit().unwrap();
        rt.taskwait();
        let o = rt.observe();
        assert_eq!(o.runtime.submitted, 1);
        assert_eq!(o.latency.get(LatencyMetric::TaskLatency).count, 0);
        assert_eq!(o.decisions.total(), 0);
        assert!(rt.observability().is_none());
        rt.shutdown();
    }

    #[test]
    fn taskwait_with_no_outstanding_work_is_a_fast_path() {
        let rt = RuntimeBuilder::new().workers(2).build();
        // No submissions: taskwait returns immediately, repeatedly.
        rt.taskwait();
        rt.taskwait();
        rt.shutdown();
    }

    #[test]
    fn full_live_window_rejects_with_overloaded_instead_of_queueing() {
        use crate::submit::SubmitError;
        // One worker, and a first task that blocks until released, so the
        // window fills deterministically.
        let gate = Arc::new(atm_sync::Event::new());
        let gate_in_kernel = Arc::clone(&gate);
        let rt = RuntimeBuilder::new().workers(1).max_live_tasks(3).build();
        let regions: Vec<Region<f32>> = (0..8)
            .map(|i| rt.store().register_zeros(format!("r{i}"), 1).unwrap())
            .collect();
        let blocker = rt.register_task_type(
            TaskTypeBuilder::new("blocker", move |ctx| {
                gate_in_kernel.wait();
                ctx.out(0, &[1.0f32]);
            })
            .out::<f32>()
            .build(),
        );
        let quick = rt.register_task_type(
            TaskTypeBuilder::new("quick", |ctx| ctx.out(0, &[1.0f32]))
                .out::<f32>()
                .build(),
        );
        rt.task(blocker).writes(&regions[0]).submit().unwrap();
        rt.task(quick).writes(&regions[1]).submit().unwrap();
        rt.task(quick).writes(&regions[2]).submit().unwrap();
        // The window (3) is now full: the runtime refuses to queue further
        // work rather than buffering it unboundedly.
        let err = rt.task(quick).writes(&regions[3]).submit().unwrap_err();
        match err {
            SubmitError::Overloaded { live, capacity } => {
                assert_eq!(live, 3);
                assert_eq!(capacity, 3);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Batches are admitted all-or-nothing against the same window.
        let batch_err = rt
            .tasks(quick)
            .next()
            .writes(&regions[4])
            .next()
            .writes(&regions[5])
            .submit_all()
            .unwrap_err();
        assert!(matches!(batch_err, SubmitError::Overloaded { .. }));
        // Draining the window restores admission.
        gate.signal();
        rt.taskwait();
        rt.task(quick).writes(&regions[3]).submit().unwrap();
        rt.taskwait();
        assert_eq!(rt.stats().submitted, 4);
        rt.shutdown();
    }

    #[test]
    fn deregistration_is_rejected_while_accessors_are_live_then_frees_bytes() {
        use crate::region::{DeregisterError, RegionStatus};
        use crate::submit::SubmitError;
        let gate = Arc::new(atm_sync::Event::new());
        let gate_in_kernel = Arc::clone(&gate);
        let rt = RuntimeBuilder::new().workers(1).build();
        let r = rt.store().register_zeros::<f64>("victim", 128).unwrap();
        let hold = rt.register_task_type(
            TaskTypeBuilder::new("hold", move |ctx| {
                gate_in_kernel.wait();
                let v = ctx.arg::<f64>(0)[0];
                ctx.out(0, &vec![v + 1.0; 128]);
            })
            .inout::<f64>()
            .build(),
        );
        rt.task(hold).reads_writes(&r).submit().unwrap();
        assert_eq!(
            rt.deregister_region(r).unwrap_err(),
            DeregisterError::LiveAccessors(r.id())
        );
        gate.signal();
        rt.taskwait();
        let bytes_before = rt.store().total_bytes();
        let freed = rt.deregister_region(r).unwrap();
        assert_eq!(freed, 128 * std::mem::size_of::<f64>());
        assert_eq!(rt.store().total_bytes(), bytes_before - freed);
        assert_eq!(rt.store().region_status(r), RegionStatus::Retired);
        // Submission against the retired id reports the dedicated error,
        // not a generic unknown-region one.
        let err = rt.task(hold).reads_writes(&r).submit().unwrap_err();
        match err {
            SubmitError::RegionRetired { index, region } => {
                assert_eq!(index, 0);
                assert_eq!(region, r.id());
            }
            other => panic!("expected RegionRetired, got {other:?}"),
        }
        assert_eq!(
            rt.deregister_region(r),
            Err(DeregisterError::AlreadyRetired(r.id()))
        );
        rt.shutdown();
    }

    #[test]
    fn live_index_regions_gauge_shrinks_after_deregistration() {
        let rt = RuntimeBuilder::new().workers(2).build();
        let touch = rt.register_task_type(
            TaskTypeBuilder::new("touch", |ctx| ctx.out(0, &[1.0f32]))
                .out::<f32>()
                .build(),
        );
        for round in 0..4 {
            let r = rt
                .store()
                .register_zeros::<f32>(format!("round{round}"), 1)
                .unwrap();
            rt.task(touch).writes(&r).submit().unwrap();
            rt.taskwait();
            rt.deregister_region(r).unwrap();
            // The dependence index forgets the region along with the store:
            // churning sessions does not grow the index.
            assert!(
                rt.stats().live_index_regions <= 1,
                "index retained {} regions after churn round {round}",
                rt.stats().live_index_regions
            );
        }
        rt.shutdown();
    }

    /// Notify hook for the tests below: counts invocations per task.
    struct CountingNotify {
        fired: AtomicUsize,
    }

    impl CountingNotify {
        /// The hook fires *after* the completing task left the outstanding
        /// count, so `taskwait` returning does not yet order-before the last
        /// notify — wait for the count itself (bounded).
        fn wait_for(&self, expected: usize) -> usize {
            for _ in 0..10_000 {
                let fired = self.fired.load(Ordering::SeqCst);
                if fired >= expected {
                    return fired;
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            self.fired.load(Ordering::SeqCst)
        }
    }

    impl crate::task::TaskNotify for CountingNotify {
        fn task_finished(&self, _worker: usize, _task: TaskId) {
            self.fired.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn notify_fires_exactly_once_per_task_on_the_executed_path() {
        let rt = RuntimeBuilder::new().workers(2).build();
        let r = rt.store().register_zeros::<f64>("r", 1).unwrap();
        let incr = rt.register_task_type(
            TaskTypeBuilder::new("incr", |ctx| {
                let v = ctx.arg::<f64>(0)[0];
                ctx.out(0, &[v + 1.0]);
            })
            .inout::<f64>()
            .build(),
        );
        let notify = Arc::new(CountingNotify {
            fired: AtomicUsize::new(0),
        });
        for _ in 0..10 {
            let desc = TaskDesc::new(incr, vec![Access::read_write(&r)])
                .with_notify(Arc::clone(&notify) as Arc<dyn crate::task::TaskNotify>);
            rt.try_submit(desc).unwrap();
        }
        rt.taskwait();
        assert_eq!(notify.wait_for(10), 10);
        rt.shutdown();
    }

    /// Interceptor that defers the second task it sees onto the next
    /// executed task's completion — the smallest deterministic reproduction
    /// of the IKT deferred path.
    struct DeferSecond {
        seen: AtomicUsize,
        parked: Mutex<Vec<TaskId>>,
    }

    impl TaskInterceptor for DeferSecond {
        fn before_execute(
            &self,
            task: TaskView<'_>,
            _store: &DataStore,
            _tracer: &Tracer,
            _worker: usize,
        ) -> Decision {
            if self.seen.fetch_add(1, Ordering::SeqCst) == 1 {
                self.parked.lock().push(task.id);
                Decision::Deferred
            } else {
                Decision::Execute
            }
        }

        fn after_execute(
            &self,
            _task: TaskView<'_>,
            _store: &DataStore,
            _tracer: &Tracer,
            _worker: usize,
            executed: bool,
        ) -> Vec<TaskId> {
            if executed {
                std::mem::take(&mut *self.parked.lock())
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn notify_fires_on_the_deferred_completion_path_too() {
        // `DeferSecond` counts arrivals, not ids, so one worker is all the
        // determinism it needs: the first arrival executes (nothing parked
        // yet), the second defers, the third executes and its completion
        // finishes the deferred one through `finish_task`.
        let rt = RuntimeBuilder::new()
            .workers(1)
            .interceptor(Arc::new(DeferSecond {
                seen: AtomicUsize::new(0),
                parked: Mutex::new(Vec::new()),
            }))
            .build();
        let regions: Vec<Region<f32>> = (0..3)
            .map(|i| rt.store().register_zeros(format!("r{i}"), 1).unwrap())
            .collect();
        let tt = rt.register_task_type(
            TaskTypeBuilder::new("t", |ctx| ctx.out(0, &[1.0f32]))
                .out::<f32>()
                .build(),
        );
        let notify = Arc::new(CountingNotify {
            fired: AtomicUsize::new(0),
        });
        for r in &regions {
            let desc = TaskDesc::new(tt, vec![Access::write(r)])
                .with_notify(Arc::clone(&notify) as Arc<dyn crate::task::TaskNotify>);
            rt.try_submit(desc).unwrap();
        }
        rt.taskwait();
        let stats = rt.stats();
        assert_eq!(
            stats.deferred, 1,
            "the second task must take the deferred path"
        );
        assert_eq!(
            notify.wait_for(3),
            3,
            "every task notifies exactly once, deferred completions included"
        );
        rt.shutdown();
    }

    /// A deferred task finishes on its producer's worker, which then idles:
    /// the finish cycle must not keep the retired task — and with it the
    /// region handles it carries — alive until the worker's next cycle.
    #[test]
    fn a_deferred_task_does_not_outlive_its_finish_cycle() {
        let rt = RuntimeBuilder::new()
            .workers(1)
            .interceptor(Arc::new(DeferSecond {
                seen: AtomicUsize::new(0),
                parked: Mutex::new(Vec::new()),
            }))
            .build();
        let regions: Vec<Region<f32>> = (0..3)
            .map(|i| rt.store().register_zeros(format!("r{i}"), 1).unwrap())
            .collect();
        let tt = rt.register_task_type(
            TaskTypeBuilder::new("t", |ctx| ctx.out(0, &[1.0f32]))
                .out::<f32>()
                .build(),
        );
        for r in &regions {
            rt.task(tt).writes(r).submit().unwrap();
        }
        rt.taskwait();
        assert_eq!(rt.stats().deferred, 1);

        // Whichever task deferred, its region is one of these: retire all
        // three ids and keep a handle to each.
        let handles: Vec<_> = regions
            .iter()
            .map(|&r| {
                let handle = rt.store().region_ref(r);
                rt.deregister_region(r).unwrap();
                handle
            })
            .collect();
        // `taskwait` may return before the finishing worker has run its
        // completion hooks; give it a bounded moment to settle.
        let owners = || handles.iter().map(RegionRef::owners).collect::<Vec<_>>();
        for _ in 0..2_000 {
            if owners() == [1, 1, 1] {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        assert_eq!(
            owners(),
            [1, 1, 1],
            "a retired task still holds a deregistered region's buffer"
        );
        rt.shutdown();
    }

    #[test]
    fn concurrent_submitters_on_disjoint_regions_make_progress() {
        let rt = RuntimeBuilder::new().workers(2).build();
        let tt = rt.register_task_type(
            TaskTypeBuilder::new("bump", |ctx| {
                let v = ctx.arg::<f64>(0)[0];
                ctx.out(0, &[v + 1.0]);
            })
            .inout::<f64>()
            .build(),
        );
        let submitters = 4;
        let per_submitter = 64;
        let regions: Vec<Region<f64>> = (0..submitters)
            .map(|i| rt.store().register_zeros(format!("lane{i}"), 1).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for region in &regions {
                let rt = &rt;
                scope.spawn(move || {
                    for _ in 0..per_submitter {
                        rt.task(tt).reads_writes(region).submit().unwrap();
                    }
                });
            }
        });
        rt.taskwait();
        for region in &regions {
            assert_eq!(
                rt.store().read(*region).lock().as_f64(),
                &[per_submitter as f64]
            );
        }
        assert_eq!(rt.stats().submitted, (submitters * per_submitter) as u64);
        rt.shutdown();
    }
}
