//! The ATM engine: the [`TaskInterceptor`] that implements Approximate Task
//! Memoization on top of the runtime.
//!
//! Control flow (Figure 1 of the paper):
//!
//! 1. A worker pulls task A from the Ready Queue and calls
//!    [`AtmEngine::before_execute`]. If A's type is memoizable, the engine
//!    asks the type's [`TypePolicy`] how to handle it — a type its
//!    profitability ledger has closed just executes — and otherwise
//!    computes A's hash key over the percentage `p` of its input bytes the
//!    policy names.
//! 2. The Task History Table is probed. On a hit the stored outputs are
//!    copied into A's output regions (`copyOuts()`) and A never executes —
//!    unless the Dynamic ATM controller is still training, in which case A
//!    executes anyway so the approximation error can be measured.
//! 3. On a THT miss the In-flight Key Table is probed. If a task B with the
//!    same key is currently executing, A registers a postponed copy-out and
//!    is deferred (`postponeCopyOuts()`).
//! 4. Otherwise A executes; its key is put in the IKT while it runs. When it
//!    finishes, [`AtmEngine::after_execute`] retires the key, performs the
//!    postponed copy-outs for any tasks that deferred onto A, and stores A's
//!    outputs in the THT (`updateTHT&IKT()`).
//!
//! The engine is mechanism only: which `p`, whether a hit is trusted or
//! verified, whether the type is keyed at all and whether a miss's outputs
//! are retained are the policy's verdicts ([`crate::policy`]).
//!
//! Every region the mechanism touches — the key's inputs, the hit's shape
//! check and copy-out, the captured outputs, the training comparison — it
//! reaches through the handles the task carries from its submission
//! ([`TaskView::regions`]); the store's registry is consulted only for the
//! rare task that deferred onto an in-flight producer, at its copy-out.

use crate::config::AtmConfig;
use crate::ikt::{InFlightKeyTable, Waiter};
use crate::key::{KeyGenerator, KeyScratch};
use crate::policy::{Admission, GateEvent, TypeCounters, TypePolicy};
use crate::stats::{AtmStatsSnapshot, TypeSummary};
use crate::tht::EntryKey;
use crate::training::evaluate_metric_data;
use crate::types::{TypeEntry, TypeTable};
use atm_hash::Percentage;
use atm_obs::{
    DecisionRecord, EngineObservation, LatencyMetric, MemoDecision, Observability, StoreObservation,
};
use atm_runtime::{
    Access, DataStore, Decision, ErrorMetric, RegionId, RegionRef, TaskContext, TaskId,
    TaskInterceptor, TaskTypeId, TaskView, ThreadState, Tracer,
};
use atm_store::snapshot::{apply_snapshots_to_resolved, resolved_writes, OutputSnapshot};
use atm_store::{entry_charge_bytes, MemoStore, PersistError, StoreCountersSnapshot};
#[cfg(debug_assertions)]
use atm_sync::atomic::{AtomicU64, Ordering};
use atm_sync::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Number of per-worker scratch slots the engine keeps. Workers index by
/// `worker % KEY_SCRATCH_SLOTS`, so runtimes with more workers than slots
/// share (the slot lock is uncontended in the common ≤16-worker case).
const KEY_SCRATCH_SLOTS: usize = 16;

/// Seed of the hash and the per-type index shuffles. Part of the snapshot
/// key space: changing it orphans every persisted entry.
const KEY_SEED: u64 = 0x5EED;

/// One cache-line-isolated scratch slot: the reusable temporaries of the key
/// pipeline for one worker and the tickets of the tasks it is executing, so
/// the steady-state task path allocates nothing and workers never write a
/// shared line.
#[repr(align(128))]
#[derive(Default)]
struct ScratchSlot {
    scratch: Mutex<WorkerScratch>,
}

/// The per-worker state of the task path.
#[derive(Default)]
struct WorkerScratch {
    precisions: Vec<Percentage>,
    key: KeyScratch,
    /// Tickets parked between `before_execute` and `after_execute`. A worker
    /// runs the two back-to-back around the kernel, so this holds one ticket
    /// — or one per worker sharing the slot.
    tickets: Vec<(TaskId, Ticket)>,
}

/// Bookkeeping attached to a keyed task between `before_execute` and
/// `after_execute`. The key carries the `p` it was sampled at, which is what
/// the task's training record reports — not whatever the controller has
/// moved to since.
struct Ticket {
    key: EntryKey,
    registered_ikt: bool,
    /// A miss puts its outputs in the THT (the policy's `KeyPlan::retain`).
    retain: bool,
    /// THT outputs to compare against after execution (training phase).
    training_reference: Option<Arc<Vec<OutputSnapshot>>>,
    /// Timestamp at dispatch; `after_execute` turns it into the measured
    /// kernel time of this execution.
    dispatched_ns: u64,
}

/// The scalar context stamped onto one audit record: the decision's driving
/// metric (observed error for training comparisons, 0 where nothing
/// applies), the τ in effect, and the selection percentage.
#[derive(Clone, Copy)]
struct DecisionScalars {
    metric_value: f64,
    tau: f64,
    p: f64,
}

/// The ATM engine. Install it into the runtime with
/// [`atm_runtime::RuntimeBuilder::interceptor`].
///
/// The engine is the mechanism — key → probe → IKT → copy-out → snapshot →
/// insert; what to do with each task type is its [`TypePolicy`]'s call.
/// `before_execute` and `after_execute` of one task must be called with the
/// same `worker`, as the scheduler does: the task's ticket waits in that
/// worker's scratch slot.
pub struct AtmEngine {
    config: AtmConfig,
    memo_store: MemoStore,
    ikt: InFlightKeyTable,
    types: TypeTable,
    obs: Option<Arc<Observability>>,
    /// Per-worker scratch and parked tickets (see [`ScratchSlot`]).
    key_scratch: Box<[ScratchSlot]>,
    /// Debug-build odometer of allocation events on the engine's own part of
    /// `before_execute` (see [`AtmEngine::alloc_events`]).
    #[cfg(debug_assertions)]
    alloc_events: AtomicU64,
}

impl AtmEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: AtmConfig) -> Self {
        AtmEngine {
            memo_store: MemoStore::new(config.store_config()),
            ikt: InFlightKeyTable::new(),
            types: TypeTable::new(),
            config,
            obs: None,
            key_scratch: (0..KEY_SCRATCH_SLOTS)
                .map(|_| ScratchSlot::default())
                .collect(),
            #[cfg(debug_assertions)]
            alloc_events: AtomicU64::new(0),
        }
    }

    /// Allocation events recorded on `before_execute` (debug builds only):
    /// the key path's ([`KeyGenerator::alloc_events`], summed over the task
    /// types) plus the engine's own — resolving a task type, growth of the
    /// per-worker scratch or ticket list, and the waiter built when a task
    /// defers onto an in-flight producer. A warm engine keeps this flat
    /// across misses and hits alike; what a miss allocates (its output
    /// snapshot) it allocates in `after_execute`.
    #[cfg(debug_assertions)]
    pub fn alloc_events(&self) -> u64 {
        let keygens: u64 = self
            .types
            .iter()
            .map(|(_, t)| t.keygen.alloc_events())
            .sum();
        self.alloc_events.load(Ordering::Relaxed) + keygens
    }

    #[cfg(debug_assertions)]
    fn note_alloc(&self) {
        self.alloc_events.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn note_alloc(&self) {}

    /// Parks the ticket of a task that is about to execute on `worker`.
    fn park_ticket(&self, worker: usize, task: TaskId, ticket: Ticket) {
        let mut slot = self.key_scratch[worker % KEY_SCRATCH_SLOTS].scratch.lock();
        let capacity = slot.tickets.capacity();
        slot.tickets.push((task, ticket));
        if slot.tickets.capacity() != capacity {
            self.note_alloc();
        }
    }

    /// Takes back the ticket `before_execute` parked for `task`, if it
    /// parked one (a gated or black-listed task executes without).
    fn take_ticket(&self, worker: usize, task: TaskId) -> Option<Ticket> {
        let mut slot = self.key_scratch[worker % KEY_SCRATCH_SLOTS].scratch.lock();
        let at = slot.tickets.iter().position(|(id, _)| *id == task)?;
        Some(slot.tickets.swap_remove(at).1)
    }

    /// Attaches an observability handle: every memo decision (THT hit, IKT
    /// defer, miss, training accept/reject, down-shift, gate close/re-open)
    /// lands in its decision stream — reuse decisions naming their producer,
    /// which makes the stream the reuse provenance
    /// ([`crate::ReuseEvent::from_decisions`]) — the memo-lookup latency in
    /// its histograms, and the backing store reports its own insert/evict
    /// events, all on the handle's clock. Share the same handle with
    /// [`atm_runtime::RuntimeBuilder::observability`] to get a unified
    /// [`atm_runtime::Runtime::observe`] snapshot. Without a handle the
    /// engine only counts.
    #[must_use]
    pub fn with_observability(mut self, obs: Arc<Observability>) -> Self {
        self.memo_store.set_observability(Arc::clone(&obs));
        self.obs = Some(obs);
        self
    }

    /// Convenience: creates the engine already wrapped in an [`Arc`] so it
    /// can be both installed as the runtime interceptor and queried for
    /// statistics afterwards.
    pub fn shared(config: AtmConfig) -> Arc<Self> {
        Arc::new(Self::new(config))
    }

    /// The engine configuration.
    pub fn config(&self) -> AtmConfig {
        self.config
    }

    /// Aggregate statistics snapshot: the sum of the per-type counters.
    pub fn stats(&self) -> AtmStatsSnapshot {
        let mut total = AtmStatsSnapshot::default();
        for (_, entry) in self.types.iter() {
            total += entry.policy.counters.snapshot();
        }
        total
    }

    /// Per-task-type summaries (chosen `p`, phase, hit counts, gate state),
    /// built on read from each type's counters and policy.
    pub fn type_summaries(&self) -> HashMap<TaskTypeId, TypeSummary> {
        self.types
            .iter()
            .map(|(type_id, entry)| (type_id, entry.summary()))
            .collect()
    }

    /// The memo store holding the Task History Table (sizing experiments,
    /// diagnostics, persistence).
    pub fn store(&self) -> &MemoStore {
        &self.memo_store
    }

    /// The In-flight Key Table (diagnostics).
    pub fn ikt(&self) -> &InFlightKeyTable {
        &self.ikt
    }

    /// Counter snapshot of the memo store behind the THT (hits, misses,
    /// insertions, evictions, rejected admissions, resident bytes, saved
    /// kernel nanoseconds).
    pub fn store_counters(&self) -> StoreCountersSnapshot {
        self.memo_store.counters()
    }

    /// Persists the memo store to `path` (versioned, checksummed binary
    /// snapshot; see `atm_store::persist`).
    pub fn save_store(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        self.memo_store.save_to(path)
    }

    /// Warm-starts the memo store from a snapshot written by
    /// [`AtmEngine::save_store`] in a previous run. Entries go through the
    /// normal admission/eviction path; the number admitted is returned.
    ///
    /// A key is the composition of the task's input digests under the
    /// type's seed (the task-type id mixed into a fixed key seed), so
    /// the snapshot only produces hits when task types are registered in the
    /// same order — the natural situation for repeated runs of one
    /// application. A snapshot written in an older key space
    /// (format version 1 or 2) is refused with
    /// [`PersistError::UnsupportedVersion`].
    pub fn warm_start_from(&self, path: impl AsRef<Path>) -> Result<usize, PersistError> {
        self.memo_store.absorb_from(path)
    }

    /// ATM memory overhead in bytes: THT contents, IKT bookkeeping and the
    /// cached index-shuffle vectors (Table III numerator).
    pub fn memory_bytes(&self) -> usize {
        let keygens: usize = self
            .types
            .iter()
            .map(|(_, t)| t.keygen.memory_bytes())
            .sum();
        self.memo_store.memory_bytes() + self.ikt.memory_bytes() + keygens
    }

    /// The selection percentage currently in effect for a task type (the
    /// starred values of Figure 5 / the `p` columns of §V-C).
    pub fn current_p(&self, type_id: TaskTypeId) -> Option<f64> {
        self.types
            .get(type_id)
            .map(|t| t.policy.status().p.fraction())
    }

    /// Appends one record to the memo-decision audit stream (no-op without
    /// an observability handle). `producer` is the task whose outputs
    /// served this one, on reuse decisions.
    fn record_memo_decision(
        &self,
        worker: usize,
        task: &TaskView<'_>,
        decision: MemoDecision,
        producer: Option<TaskId>,
        scalars: DecisionScalars,
    ) {
        if let Some(obs) = &self.obs {
            obs.record_decision(
                worker,
                DecisionRecord {
                    task_type: task.type_id.index() as u32,
                    task_id: task.id.raw(),
                    decision,
                    metric_value: scalars.metric_value,
                    tau: scalars.tau,
                    p: scalars.p,
                    producer: producer.map(TaskId::raw),
                    t_ns: obs.now_ns(),
                },
            );
        }
    }

    /// Files a closure or re-opening of `task`'s type (of a pinned type's
    /// retention), attributed to the task whose settlement (or admission)
    /// caused it, with the ledger reading in the record's scalars.
    fn record_gate_event(&self, worker: usize, task: &TaskView<'_>, event: GateEvent) {
        let decision = if event.closed {
            MemoDecision::GateClose
        } else {
            MemoDecision::GateReopen
        };
        let scalars = DecisionScalars {
            metric_value: event.spent_ns as f64,
            tau: event.earned_ns as f64,
            p: event.allowance_ns as f64,
        };
        self.record_memo_decision(worker, task, decision, None, scalars);
    }

    /// The state of `view`'s task type, resolved the first time one of its
    /// instances reaches the engine: the type's
    /// [`MemoSpec`](atm_runtime::MemoSpec) decides the policy, unless the
    /// engine-wide mode overrides it ([`TypePolicy::resolve`]).
    fn type_entry(&self, view: &TaskView<'_>) -> &TypeEntry {
        self.types.get_or_resolve(view.type_id, || {
            self.note_alloc();
            let spec = view.info.memo.clone().unwrap_or_default();
            TypeEntry {
                name: view.info.name.to_owned(),
                keygen: KeyGenerator::new(
                    KEY_SEED ^ (view.type_id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    true,
                ),
                policy: TypePolicy::resolve(self.config.mode, spec),
            }
        })
    }

    /// True when a stored set of output snapshots can be copied into the
    /// write accesses of `accesses` (resolved to `regions`): the same number
    /// of outputs with the same region lengths, in declaration order — read
    /// off the handles' cached lengths, without a lock. Stored outputs (THT
    /// entries, in-flight producers) can only serve tasks of identical
    /// output shape; task types normally have a fixed one, but the engine
    /// must not trust that (§III-E: under-declared or irregular outputs are
    /// a user-side hazard the runtime has to survive).
    fn entry_matches_shape(
        outputs: &[OutputSnapshot],
        accesses: &[Access],
        regions: &[RegionRef],
    ) -> bool {
        let mut writes = resolved_writes(accesses, regions);
        outputs.iter().all(|snapshot| {
            writes
                .next()
                .is_some_and(|(_, region)| region.len() == snapshot.data.len())
        }) && writes.next().is_none()
    }

    fn failing_output_regions(
        &self,
        view: &TaskView<'_>,
        reference: &[OutputSnapshot],
        tau_max: f64,
    ) -> (f64, Vec<RegionId>) {
        // Overall τ across all outputs plus the per-output failures, each
        // output judged with the Chebyshev relative error (Eq. 1).
        let mut failing = Vec::new();
        let mut overall_tau = 0.0f64;
        for ((access, region), snapshot) in
            resolved_writes(view.accesses, view.regions).zip(reference)
        {
            // Shape or element-type mismatches come back as infinity: a
            // stored entry that no longer matches the task's outputs can
            // never be an acceptable approximation.
            let tau = evaluate_metric_data(ErrorMetric::Chebyshev, &region.read(), &snapshot.data);
            overall_tau = overall_tau.max(tau);
            if tau >= tau_max {
                failing.push(access.region);
            }
        }
        (overall_tau, failing)
    }

    /// Adaptive-spec training: compares the stored (approximate) outputs a
    /// training hit found against the freshly computed ones with the
    /// Chebyshev error, and hands the verdict to the policy. The record carries
    /// the p the task's key was sampled at.
    fn verify_training_hit(
        &self,
        policy: &TypePolicy,
        task: &TaskView<'_>,
        tracer: &Tracer,
        worker: usize,
        ticket: &Ticket,
    ) {
        let Some(reference) = &ticket.training_reference else {
            return;
        };
        let tau_max = policy.tau_max();
        let compare_start = tracer.now_ns();
        let (tau, failing) = self.failing_output_regions(task, reference, tau_max);
        TypeCounters::add(&policy.counters.compare_ns, tracer.now_ns() - compare_start);
        policy.record_comparison(tau, &failing);
        let verdict = if tau < tau_max {
            MemoDecision::TrainingAccept
        } else {
            MemoDecision::TrainingReject
        };
        let scalars = DecisionScalars {
            metric_value: tau,
            tau: tau_max,
            p: f64::from_bits(ticket.key.p_bits),
        };
        self.record_memo_decision(worker, task, verdict, None, scalars);
    }
}

impl TaskInterceptor for AtmEngine {
    fn before_execute(
        &self,
        task: TaskView<'_>,
        _store: &DataStore,
        tracer: &Tracer,
        worker: usize,
    ) -> Decision {
        if !task.memoizable() {
            return Decision::Execute;
        }

        let entry = self.type_entry(&task);
        let policy = &entry.policy;
        let counters = &policy.counters;
        TypeCounters::add(&counters.seen, 1);
        let (admission, reopened) = policy.admit();
        if let Some(event) = reopened {
            self.record_gate_event(worker, &task, event);
        }
        let plan = match admission {
            Admission::Keyed(plan) => plan,
            // The type is closed: the task executes, and that is all.
            Admission::Gated => {
                TypeCounters::add(&counters.gated, 1);
                TypeCounters::add(&counters.executed, 1);
                return Decision::Execute;
            }
        };
        let p = plan.p;
        // Every decision taken on this path carries the same scalars: no
        // observed error, the τ and the p in effect.
        let decide = |decision, producer| {
            let scalars = DecisionScalars {
                metric_value: 0.0,
                tau: policy.tau_max(),
                p: p.fraction(),
            };
            self.record_memo_decision(worker, &task, decision, producer, scalars);
        };

        // Outputs black-listed during training are never memoized in the
        // steady state (§III-D): execute unkeyed, store nothing.
        if !plan.training && policy.writes_unstable(task.accesses) {
            TypeCounters::add(&counters.executed, 1);
            decide(MemoDecision::MissExecute, None);
            return Decision::Execute;
        }

        // Hash-key computation (traced as its own state, Figure 7). Each
        // read argument is hashed at the type-wide `p` unless the type's
        // spec pinned it to an explicit precision. The temporaries live in
        // this worker's scratch slot: warm lookups allocate nothing.
        let mut slot = self.key_scratch[worker % KEY_SCRATCH_SLOTS].scratch.lock();
        let ws = &mut *slot;
        let precisions_capacity = ws.precisions.capacity();
        policy.precisions_into(task.accesses, p, &mut ws.precisions);
        if ws.precisions.capacity() != precisions_capacity {
            self.note_alloc();
        }
        let hash_start = tracer.now_ns();
        let key_result =
            entry
                .keygen
                .compute_resolved(task.accesses, task.regions, &ws.precisions, &mut ws.key);
        let hash_end = tracer.now_ns();
        drop(slot);
        tracer.record(
            worker,
            ThreadState::HashKeyComputation,
            hash_start,
            hash_end,
        );
        TypeCounters::add(&counters.hash_ns, hash_end - hash_start);
        let key = EntryKey::new(task.type_id, key_result.key, p.fraction());

        // Task History Table probe. An entry only counts as a hit when its
        // stored outputs have exactly the shape this task declares.
        let hit = self
            .memo_store
            .lookup(&key)
            .filter(|e| Self::entry_matches_shape(&e.outputs, task.accesses, task.regions));
        if let Some(obs) = &self.obs {
            obs.record_latency(
                LatencyMetric::MemoLookup,
                worker,
                tracer.now_ns() - hash_end,
            );
        }
        // Probe time runs from the end of the hash to the next stamp the
        // path takes anyway: the start of the copy-out, or dispatch.
        let mut training_reference = None;
        let mut registered_ikt = false;
        if let Some(hit) = hit {
            if !plan.training {
                // Steady state: provide the outputs without executing. Only
                // now is the entry's benefit genuinely saved kernel time.
                self.memo_store.note_saved(hit.benefit_ns);
                let copy_start = tracer.now_ns();
                apply_snapshots_to_resolved(&hit.outputs, task.accesses, task.regions);
                let copy_end = tracer.now_ns();
                tracer.record(worker, ThreadState::Memoization, copy_start, copy_end);
                TypeCounters::add(&counters.probe_ns, copy_start - hash_end);
                TypeCounters::add(&counters.copy_ns, copy_end - copy_start);
                TypeCounters::add(&counters.saved_ns, hit.benefit_ns);
                TypeCounters::add(&counters.tht_bypassed, 1);
                decide(MemoDecision::ThtHit, Some(hit.producer));
                if let Some(event) = policy.settle(false) {
                    self.record_gate_event(worker, &task, event);
                }
                return Decision::Memoized;
            }
            // Training phase: execute anyway and verify the approximation
            // in `after_execute`.
            TypeCounters::add(&counters.training_hits, 1);
            training_reference = Some(hit.outputs);
        } else if self.config.use_ikt {
            // In-flight Key Table: one access that either defers this task
            // onto the in-flight producer of its key or leaves the key in
            // the table while this task executes. During training the task
            // must execute, so it only ever registers as a producer.
            if plan.training {
                registered_ikt = self.ikt.register_producer(key, task.id);
            } else {
                let joined = self.ikt.join_or_produce(key, task.id, || {
                    self.note_alloc();
                    Waiter {
                        task: task.id,
                        accesses: task.accesses.to_vec(),
                    }
                });
                if let Some(producer) = joined {
                    TypeCounters::add(&counters.probe_ns, tracer.now_ns() - hash_end);
                    TypeCounters::add(&counters.ikt_deferred, 1);
                    decide(MemoDecision::IktDefer, Some(producer));
                    return Decision::Deferred;
                }
                registered_ikt = true;
            }
        }

        // Miss everywhere, or a training hit: execute. `after_execute` picks
        // the ticket up on this worker.
        let dispatched_ns = tracer.now_ns();
        TypeCounters::add(&counters.probe_ns, dispatched_ns - hash_end);
        TypeCounters::add(&counters.executed, 1);
        if training_reference.is_none() {
            decide(MemoDecision::MissExecute, None);
        }
        self.park_ticket(
            worker,
            task.id,
            Ticket {
                key,
                registered_ikt,
                retain: plan.retain,
                training_reference,
                dispatched_ns,
            },
        );
        Decision::Execute
    }

    fn after_execute(
        &self,
        task: TaskView<'_>,
        store: &DataStore,
        tracer: &Tracer,
        worker: usize,
        executed: bool,
    ) -> Vec<TaskId> {
        if !task.memoizable() || !executed {
            return Vec::new();
        }
        let Some(ticket) = self.take_ticket(worker, task.id) else {
            return Vec::new();
        };
        let entry = self
            .types
            .get(task.type_id)
            .expect("a ticket is only parked for a resolved type");
        let policy = &entry.policy;
        let counters = &policy.counters;

        // Per-task kernel timing: the interval between dispatch and
        // completion is (almost entirely) the kernel run. The measured
        // duration of *this* execution is the benefit estimate stored with
        // its THT entry — the kernel nanoseconds a future hit saves, which
        // it adds to `saved_ns` (the ledger's earned) and which sets the
        // entry's credit against the store's byte budget. Storing the
        // producing task's own duration (rather than a per-type average)
        // keeps both sharp when task durations vary within one type.
        let kernel_ns = tracer.now_ns().saturating_sub(ticket.dispatched_ns);
        TypeCounters::add(&counters.kernel_ns, kernel_ns);

        // A training hit is compared, not stored: the entry it verified is
        // already in the THT. A miss of a pinned type whose retention is
        // closed is not stored either.
        let training = ticket.training_reference.is_some();
        let retain = ticket.retain && !training;
        self.verify_training_hit(policy, &task, tracer, worker, &ticket);

        let capture = || {
            let copy_start = tracer.now_ns();
            let snaps = Arc::new(OutputSnapshot::capture_all_resolved(
                task.accesses,
                task.regions,
            ));
            let copy_end = tracer.now_ns();
            tracer.record(worker, ThreadState::Memoization, copy_start, copy_end);
            TypeCounters::add(&counters.copy_ns, copy_end - copy_start);
            snaps
        };
        // A retained miss snapshots its outputs once, before its key
        // retires; they serve both the postponed IKT copy-outs and the THT
        // update.
        let mut outputs: Option<Arc<Vec<OutputSnapshot>>> = retain.then(&capture);

        // Retire the in-flight key and satisfy the tasks deferred onto this
        // one; a miss that retains nothing snapshots only when one did.
        // Deferrals are rare, so a waiter keeps only its accesses and
        // resolves its regions here; being unfinished, it keeps them
        // registered.
        let mut completed = Vec::new();
        let waiters = if ticket.registered_ikt {
            self.ikt.retire(&ticket.key, task.id)
        } else {
            Vec::new()
        };
        if !waiters.is_empty() {
            let snaps = outputs.get_or_insert_with(&capture);
            for waiter in waiters {
                let regions = store.resolve(&waiter.accesses);
                if Self::entry_matches_shape(snaps, &waiter.accesses, &regions) {
                    let copy_start = tracer.now_ns();
                    apply_snapshots_to_resolved(snaps, &waiter.accesses, &regions);
                    let copy_end = tracer.now_ns();
                    tracer.record(worker, ThreadState::Memoization, copy_start, copy_end);
                    TypeCounters::add(&counters.copy_ns, copy_end - copy_start);
                    TypeCounters::add(&counters.saved_ns, kernel_ns);
                } else {
                    // Shape mismatch (same key, different output layout):
                    // the deferred task cannot be satisfied by a copy, so
                    // run its kernel here — its dependences were already
                    // satisfied when it was deferred — and complete it.
                    let ctx = TaskContext::resolved(store, &waiter.accesses, &regions);
                    (task.info.kernel)(&ctx);
                    TypeCounters::add(&counters.executed, 1);
                }
                completed.push(waiter.task);
            }
        }

        // Store the outputs in the THT for future reuse, unless training
        // black-listed one of them in the meantime.
        let mut retained = false;
        if retain {
            let snaps = outputs.expect("a retained miss is snapshotted");
            if !policy.writes_unstable(task.accesses) {
                let charge = entry_charge_bytes(&snaps) as u64;
                retained = self
                    .memo_store
                    .insert(ticket.key, task.id, snaps, kernel_ns)
                    .is_resident();
                if retained {
                    TypeCounters::add(&counters.retained_bytes, charge);
                }
            }
        } else if !training {
            TypeCounters::add(&counters.unretained, 1);
        }

        if let Some(event) = policy.settle(retained) {
            self.record_gate_event(worker, &task, event);
        }
        completed
    }

    fn observe(&self) -> Option<(EngineObservation, StoreObservation)> {
        Some((self.stats(), self.memo_store.counters()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_runtime::{MemoSpec, Region, TaskTypeBuilder};

    /// A task built by hand as the runtime submits it: its accesses plus
    /// their regions, resolved through the store.
    struct HandBuilt<'a> {
        id: u64,
        type_id: u32,
        info: &'a atm_runtime::TaskTypeInfo,
        accesses: &'a [Access],
        regions: Vec<RegionRef>,
    }

    impl HandBuilt<'_> {
        fn view(&self) -> TaskView<'_> {
            TaskView {
                id: TaskId::from_raw(self.id),
                type_id: TaskTypeId::from_raw(self.type_id),
                info: self.info,
                accesses: self.accesses,
                regions: &self.regions,
            }
        }
    }

    fn view_for<'a>(
        store: &DataStore,
        id: u64,
        type_id: u32,
        info: &'a atm_runtime::TaskTypeInfo,
        accesses: &'a [Access],
    ) -> HandBuilt<'a> {
        HandBuilt {
            id,
            type_id,
            info,
            accesses,
            regions: store.resolve(accesses),
        }
    }

    fn memoizable_info() -> atm_runtime::TaskTypeInfo {
        TaskTypeBuilder::new("square", |ctx| {
            let x = ctx.arg::<f64>(0);
            let out: Vec<f64> = x.iter().map(|v| v * v).collect();
            ctx.out(1, &out);
        })
        .arg::<f64>()
        .out::<f64>()
        .memoizable()
        .build()
    }

    /// Drives the engine by hand (without the scheduler) the way a worker
    /// would: before_execute, optionally run the kernel, after_execute.
    fn drive(
        engine: &AtmEngine,
        store: &DataStore,
        task: HandBuilt<'_>,
    ) -> (Decision, Vec<TaskId>) {
        let view = task.view();
        let tracer = Tracer::new(None);
        let decision = engine.before_execute(view, store, &tracer, 0);
        let executed = decision == Decision::Execute;
        if executed {
            let ctx = TaskContext::resolved(store, view.accesses, view.regions);
            (view.info.kernel)(&ctx);
        }
        let completed = engine.after_execute(view, store, &tracer, 0, executed);
        (decision, completed)
    }

    #[test]
    fn static_atm_memoizes_identical_inputs() {
        let obs = Arc::new(Observability::enabled());
        let engine = AtmEngine::new(AtmConfig::static_atm()).with_observability(Arc::clone(&obs));
        let store = DataStore::new();
        let info = memoizable_info();
        let input = store.register_typed("in", vec![1.0f64, 2.0, 3.0]).unwrap();
        let out_a = store.register_zeros::<f64>("a", 3).unwrap();
        let out_b = store.register_zeros::<f64>("b", 3).unwrap();

        let acc_a = vec![Access::read(&input), Access::write(&out_a)];
        let (d1, _) = drive(&engine, &store, view_for(&store, 0, 0, &info, &acc_a));
        assert_eq!(d1, Decision::Execute);
        assert_eq!(store.read(out_a).lock().as_f64(), &[1.0, 4.0, 9.0]);

        // Second task, same input, different output region: must be bypassed
        // and still produce the right output.
        let acc_b = vec![Access::read(&input), Access::write(&out_b)];
        let (d2, _) = drive(&engine, &store, view_for(&store, 1, 0, &info, &acc_b));
        assert_eq!(d2, Decision::Memoized);
        assert_eq!(store.read(out_b).lock().as_f64(), &[1.0, 4.0, 9.0]);

        let stats = engine.stats();
        assert_eq!(stats.seen, 2);
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.tht_bypassed, 1);
        // The one reuse is on the decision stream, naming its producer.
        assert_eq!(
            crate::ReuseEvent::from_decisions(&obs.decisions()),
            vec![crate::ReuseEvent {
                producer: TaskId::from_raw(0),
                consumer: TaskId::from_raw(1),
                from_tht: true,
            }]
        );
        assert!(engine.memory_bytes() > 0);
    }

    #[test]
    fn static_atm_does_not_memoize_different_inputs() {
        let engine = AtmEngine::new(AtmConfig::static_atm());
        let store = DataStore::new();
        let info = memoizable_info();
        let in_a = store.register_typed("ia", vec![1.0f64, 2.0]).unwrap();
        let in_b = store.register_typed("ib", vec![1.0f64, 2.5]).unwrap();
        let out_a = store.register_zeros::<f64>("oa", 2).unwrap();
        let out_b = store.register_zeros::<f64>("ob", 2).unwrap();

        let acc_a = vec![Access::read(&in_a), Access::write(&out_a)];
        let acc_b = vec![Access::read(&in_b), Access::write(&out_b)];
        assert_eq!(
            drive(&engine, &store, view_for(&store, 0, 0, &info, &acc_a)).0,
            Decision::Execute
        );
        assert_eq!(
            drive(&engine, &store, view_for(&store, 1, 0, &info, &acc_b)).0,
            Decision::Execute
        );
        assert_eq!(store.read(out_b).lock().as_f64(), &[1.0, 6.25]);
        assert_eq!(engine.stats().tht_bypassed, 0);
    }

    #[test]
    fn non_memoizable_types_are_ignored() {
        let engine = AtmEngine::new(AtmConfig::static_atm());
        let store = DataStore::new();
        let info = TaskTypeBuilder::new("plain", |_| {}).build();
        let r = store.register_typed("r", vec![1.0f64]).unwrap();
        let accesses = vec![Access::read_write(&r)];
        let (d, _) = drive(&engine, &store, view_for(&store, 0, 0, &info, &accesses));
        assert_eq!(d, Decision::Execute);
        assert_eq!(engine.stats().seen, 0);
    }

    #[test]
    fn dynamic_atm_trains_then_bypasses() {
        let engine = AtmEngine::new(AtmConfig::dynamic_atm());
        let store = DataStore::new();
        let info = TaskTypeBuilder::new("square", |ctx| {
            let x = ctx.arg::<f64>(0);
            let out: Vec<f64> = x.iter().map(|v| v * v).collect();
            ctx.out(1, &out);
        })
        .arg::<f64>()
        .out::<f64>()
        .memo(MemoSpec::approximate().tau(0.01).training_window(2))
        .build();

        let input = store.register_typed("in", vec![2.0f64; 16]).unwrap();
        let outs: Vec<Region<f64>> = (0..6)
            .map(|i| store.register_zeros::<f64>(format!("o{i}"), 16).unwrap())
            .collect();

        let mut decisions = Vec::new();
        for (i, out) in outs.iter().enumerate() {
            let accesses = vec![Access::read(&input), Access::write(out)];
            let (d, _) = drive(
                &engine,
                &store,
                view_for(&store, i as u64, 0, &info, &accesses),
            );
            decisions.push(d);
        }
        // Task 0 misses and executes; tasks 1 and 2 are training hits (still
        // executed); from task 3 on the controller is steady and hits bypass.
        assert_eq!(decisions[0], Decision::Execute);
        assert_eq!(decisions[1], Decision::Execute);
        assert_eq!(decisions[2], Decision::Execute);
        assert_eq!(decisions[3], Decision::Memoized);
        assert_eq!(decisions[4], Decision::Memoized);
        // All outputs are correct either way (identical inputs).
        for &out in &outs {
            assert_eq!(store.read(out).lock().as_f64(), &[4.0; 16]);
        }
        let summary = engine.type_summaries().into_values().next().unwrap();
        assert!(summary.steady);
        assert_eq!(summary.training_hits, 2);
        assert!(summary.final_p <= Percentage::MIN.fraction() * 2.0 + 1e-12);
    }

    /// The decision stream, the per-type summaries and the aggregate
    /// counters are three views of the same events (type 0 only).
    fn assert_stream_reconciles(engine: &AtmEngine, obs: &Observability) {
        let stats = engine.stats();
        // `stats()` is made by summing the per-type counters; pin the sum
        // against the per-type view.
        let summaries = engine.type_summaries();
        let sum = |f: fn(&TypeSummary) -> u64| summaries.values().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.seen), stats.seen);
        assert_eq!(sum(|s| s.tht_bypassed), stats.tht_bypassed);
        assert_eq!(sum(|s| s.ikt_deferred), stats.ikt_deferred);
        assert_eq!(sum(|s| s.training_hits), stats.training_hits);
        assert_eq!(sum(|s| s.gated), stats.gated);
        assert_eq!(sum(|s| s.saved_ns), stats.saved_ns);
        assert_eq!(stats.seen, stats.reused() + stats.executed);
        // Every keyed task probed the store once, and every keyed miss
        // became an entry or was kept out by its type's closed retention
        // (no store budget, no black-list).
        let store = engine.store_counters();
        assert_eq!(store.hits + store.misses, stats.seen - stats.gated);

        let decisions = obs.decisions();
        use atm_obs::MemoDecision as D;
        // Every reuse decision names its producer; nothing else does.
        for record in &decisions.records {
            let reuse = matches!(record.decision, D::ThtHit | D::IktDefer);
            assert_eq!(record.producer.is_some(), reuse, "{record:?}");
        }
        assert_eq!(
            crate::ReuseEvent::from_decisions(&decisions).len() as u64,
            stats.reused()
        );
        assert_eq!(decisions.count(0, D::ThtHit), stats.tht_bypassed);
        assert_eq!(decisions.count(0, D::IktDefer), stats.ikt_deferred);
        assert_eq!(
            decisions.count(0, D::TrainingAccept) + decisions.count(0, D::TrainingReject),
            stats.training_hits
        );
        // Every execution is a cold miss, a verified training hit, or the
        // unrecorded execution of a gated task.
        assert_eq!(
            decisions.count(0, D::MissExecute) + stats.training_hits + stats.gated,
            stats.executed
        );
        assert_eq!(
            decisions.count(0, D::MissExecute),
            store.insertions + sum(|s| s.unretained)
        );
        // A closure — of keying or of retention — is on the stream once, and
        // so is its re-opening.
        assert_eq!(decisions.count(0, D::GateClose), sum(|s| s.gate_closures));
        let still_closed = summaries.values().filter(|s| !s.open).count() as u64;
        assert_eq!(
            decisions.count(0, D::GateReopen) + still_closed,
            decisions.count(0, D::GateClose)
        );
        assert_eq!(decisions.dropped, 0);
    }

    #[test]
    fn decision_stream_reconciles_with_engine_stats() {
        let obs = Arc::new(Observability::capture());
        let engine = AtmEngine::new(AtmConfig::dynamic_atm()).with_observability(Arc::clone(&obs));
        let store = DataStore::new();
        let info = TaskTypeBuilder::new("square", |ctx| {
            let x = ctx.arg::<f64>(0);
            let out: Vec<f64> = x.iter().map(|v| v * v).collect();
            ctx.out(1, &out);
        })
        .arg::<f64>()
        .out::<f64>()
        .memo(MemoSpec::approximate().tau(0.01).training_window(2))
        .build();

        let input = store.register_typed("in", vec![2.0f64; 16]).unwrap();
        for i in 0..6u64 {
            let out = store.register_zeros::<f64>(format!("o{i}"), 16).unwrap();
            let accesses = vec![Access::read(&input), Access::write(&out)];
            drive(&engine, &store, view_for(&store, i, 0, &info, &accesses));
        }

        let stats = engine.stats();
        assert_eq!(stats.seen, 6);
        assert_eq!(stats.gated, 0);
        assert_stream_reconciles(&engine, &obs);
        let decisions = obs.decisions();
        use atm_obs::MemoDecision as D;
        // Identical inputs verify cleanly: the training hits all accept.
        assert_eq!(decisions.count(0, D::TrainingAccept), stats.training_hits);
        // The memo-lookup histogram saw one probe per steady-phase task.
        let metrics = obs.metrics();
        let lookups = metrics.get(atm_obs::LatencyMetric::MemoLookup);
        assert!(lookups.count > 0, "THT probes must be timed");
        // The store-occupancy track was sampled at each THT insert.
        assert_eq!(
            obs.store_bytes_samples().len() as u64,
            engine.store_counters().insertions
        );
    }

    #[test]
    fn rejecting_training_stream_records_every_verdict() {
        let obs = Arc::new(Observability::enabled());
        let engine = AtmEngine::new(AtmConfig::dynamic_atm()).with_observability(Arc::clone(&obs));
        let store = DataStore::new();
        // A kernel whose output depends on bits the sampled hash key misses:
        // training comparisons fail and p climbs.
        let info = TaskTypeBuilder::new("sum", |ctx| {
            let x = ctx.arg::<f64>(0);
            let total: f64 = x.iter().sum();
            ctx.out(1, &[total; 4]);
        })
        .arg::<f64>()
        .out::<f64>()
        .memo(MemoSpec::approximate().tau(1e-12).training_window(64))
        .build();

        // Inputs agree on the sampled prefix but differ in the tail, so the
        // approximate key collides while the true outputs diverge.
        let mut base = vec![1.0f64; 4096];
        let inputs: Vec<Region<f64>> = (0..8)
            .map(|i| {
                base[4095] = i as f64 * 1000.0;
                store.register_typed(format!("i{i}"), base.clone()).unwrap()
            })
            .collect();
        for (i, input) in inputs.iter().enumerate() {
            let out = store.register_zeros::<f64>(format!("o{i}"), 4).unwrap();
            let accesses = vec![Access::read(input), Access::write(&out)];
            drive(
                &engine,
                &store,
                view_for(&store, i as u64, 0, &info, &accesses),
            );
        }

        let decisions = obs.decisions();
        use atm_obs::MemoDecision as D;
        let summary = engine.type_summaries().into_values().next().unwrap();
        assert!(decisions.count(0, D::TrainingReject) > 0);
        assert_eq!(
            decisions.count(0, D::TrainingAccept) + decisions.count(0, D::TrainingReject),
            summary.training_hits
        );
    }

    #[test]
    fn ikt_defers_onto_in_flight_producer() {
        let engine = AtmEngine::new(AtmConfig::static_atm());
        let store = DataStore::new();
        let info = memoizable_info();
        let input = store.register_typed("in", vec![3.0f64, 4.0]).unwrap();
        let out_a = store.register_zeros::<f64>("a", 2).unwrap();
        let out_b = store.register_zeros::<f64>("b", 2).unwrap();
        let tracer = Tracer::new(None);

        let acc_a = vec![Access::read(&input), Access::write(&out_a)];
        let acc_b = vec![Access::read(&input), Access::write(&out_b)];
        let task_a = view_for(&store, 0, 0, &info, &acc_a);
        let task_b = view_for(&store, 1, 0, &info, &acc_b);
        let (view_a, view_b) = (task_a.view(), task_b.view());

        // A starts executing (registers its key in the IKT)…
        assert_eq!(
            engine.before_execute(view_a, &store, &tracer, 0),
            Decision::Execute
        );
        // …and B, with the same inputs, arrives while A is still in flight.
        assert_eq!(
            engine.before_execute(view_b, &store, &tracer, 1),
            Decision::Deferred
        );

        // A's kernel runs and finishes: B must be completed with A's outputs.
        let ctx = atm_runtime::TaskContext::new(&store, &acc_a);
        (info.kernel)(&ctx);
        let completed = engine.after_execute(view_a, &store, &tracer, 0, true);
        assert_eq!(completed, vec![TaskId::from_raw(1)]);
        assert_eq!(store.read(out_b).lock().as_f64(), &[9.0, 16.0]);
        assert_eq!(engine.stats().ikt_deferred, 1);
    }

    /// The allocation-free miss: once the type is resolved, the worker's
    /// scratch has its capacity and the pending map its buckets, a
    /// steady-state `before_execute` that misses everywhere (THT and IKT)
    /// records no allocation event — the waiter is built only by a task
    /// that actually defers, the output shape is compared in place — and
    /// neither does one that hits.
    #[cfg(debug_assertions)]
    #[test]
    fn miss_and_hit_paths_allocate_nothing_after_warmup() {
        let engine = AtmEngine::new(AtmConfig::static_atm());
        let store = DataStore::new();
        let info = memoizable_info();
        let tracer = Tracer::new(None);
        let out = store.register_zeros::<f64>("out", 4).unwrap();
        let inputs: Vec<Region<f64>> = (0..96)
            .map(|i| {
                store
                    .register_typed(format!("in{i}"), vec![i as f64; 4])
                    .unwrap()
            })
            .collect();
        let accesses_of = |input: &Region<f64>| vec![Access::read(input), Access::write(&out)];
        let (warm, steady) = inputs.split_at(32);
        for (id, input) in warm.iter().enumerate() {
            let accesses = accesses_of(input);
            let (d, _) = drive(
                &engine,
                &store,
                view_for(&store, id as u64, 0, &info, &accesses),
            );
            assert_eq!(d, Decision::Execute);
        }

        let warmed = engine.alloc_events();
        for (id, input) in steady.iter().enumerate() {
            let accesses = accesses_of(input);
            let task = view_for(&store, 100 + id as u64, 0, &info, &accesses);
            let view = task.view();
            assert_eq!(
                engine.before_execute(view, &store, &tracer, 0),
                Decision::Execute
            );
            assert_eq!(
                engine.alloc_events(),
                warmed,
                "a steady-state miss must not allocate in before_execute"
            );
            let ctx = atm_runtime::TaskContext::new(&store, &accesses);
            (info.kernel)(&ctx);
            engine.after_execute(view, &store, &tracer, 0, true);
        }
        for (id, input) in inputs.iter().enumerate() {
            let accesses = accesses_of(input);
            let task = view_for(&store, 1_000 + id as u64, 0, &info, &accesses);
            let view = task.view();
            assert_eq!(
                engine.before_execute(view, &store, &tracer, 0),
                Decision::Memoized
            );
        }
        assert_eq!(engine.alloc_events(), warmed, "hits must not allocate");

        // The one allocation left on the path: a task that defers onto an
        // in-flight producer owns a copy of its accesses until it is served.
        let twin_in = store.register_typed("twin", vec![-1.0f64; 4]).unwrap();
        let twin = accesses_of(&twin_in);
        let producer = view_for(&store, 5_000, 0, &info, &twin);
        let waiter = view_for(&store, 5_001, 0, &info, &twin);
        assert_eq!(
            engine.before_execute(producer.view(), &store, &tracer, 0),
            Decision::Execute
        );
        assert_eq!(engine.alloc_events(), warmed);
        assert_eq!(
            engine.before_execute(waiter.view(), &store, &tracer, 0),
            Decision::Deferred
        );
        assert_eq!(engine.alloc_events(), warmed + 1);
    }

    #[test]
    fn disabling_ikt_prevents_deferral() {
        let engine = AtmEngine::new(AtmConfig::static_atm().without_ikt());
        let store = DataStore::new();
        let info = memoizable_info();
        let input = store.register_typed("in", vec![1.0f64]).unwrap();
        let out_a = store.register_zeros::<f64>("a", 1).unwrap();
        let out_b = store.register_zeros::<f64>("b", 1).unwrap();
        let tracer = Tracer::new(None);

        let acc_a = vec![Access::read(&input), Access::write(&out_a)];
        let acc_b = vec![Access::read(&input), Access::write(&out_b)];
        assert_eq!(
            engine.before_execute(
                view_for(&store, 0, 0, &info, &acc_a).view(),
                &store,
                &tracer,
                0
            ),
            Decision::Execute
        );
        assert_eq!(
            engine.before_execute(
                view_for(&store, 1, 0, &info, &acc_b).view(),
                &store,
                &tracer,
                1
            ),
            Decision::Execute,
            "without the IKT a concurrent identical task cannot be deferred"
        );
    }

    #[test]
    fn warm_start_reproduces_hits_across_engines() {
        let path =
            std::env::temp_dir().join(format!("atm-engine-warmstart-{}.bin", std::process::id()));

        // Cold engine: one execution populates the store; persist it.
        let cold = AtmEngine::new(AtmConfig::static_atm());
        let store = DataStore::new();
        let info = memoizable_info();
        let input = store.register_typed("in", vec![1.0f64, 2.0, 3.0]).unwrap();
        let out = store.register_zeros::<f64>("cold_out", 3).unwrap();
        let accesses = vec![Access::read(&input), Access::write(&out)];
        let (d, _) = drive(&cold, &store, view_for(&store, 0, 0, &info, &accesses));
        assert_eq!(d, Decision::Execute);
        cold.save_store(&path).unwrap();

        // Warm engine over a *fresh* data store: same input bytes, same task
        // type index, same key seed — the first task of its life is a hit.
        let warm = AtmEngine::new(AtmConfig::static_atm());
        let loaded = warm.warm_start_from(&path).unwrap();
        assert_eq!(loaded, 1);
        let store2 = DataStore::new();
        let input2 = store2.register_typed("in", vec![1.0f64, 2.0, 3.0]).unwrap();
        let out2 = store2.register_zeros::<f64>("warm_out", 3).unwrap();
        let accesses2 = vec![Access::read(&input2), Access::write(&out2)];
        let (d2, _) = drive(&warm, &store2, view_for(&store2, 0, 0, &info, &accesses2));
        assert_eq!(d2, Decision::Memoized, "warm start must hit immediately");
        assert_eq!(store2.read(out2).lock().as_f64(), &[1.0, 4.0, 9.0]);
        assert_eq!(warm.stats().executed, 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Exact-shape keys moved to the digest composition (version 2) and
    /// then to the four-lane digest (version 3), so a snapshot in an old
    /// key space is refused, not loaded as entries that can never hit.
    #[test]
    fn warm_start_refuses_a_version_1_snapshot() {
        let cold = AtmEngine::new(AtmConfig::static_atm());
        let store = DataStore::new();
        let info = memoizable_info();
        let input = store.register_typed("in", vec![1.0f64, 2.0]).unwrap();
        let out = store.register_zeros::<f64>("out", 2).unwrap();
        let accesses = vec![Access::read(&input), Access::write(&out)];
        drive(&cold, &store, view_for(&store, 0, 0, &info, &accesses));

        for old in [1u32, 2] {
            // Rewrite the version field (bytes 8..12) and the FNV-1a trailer.
            let mut bytes = cold.store().to_snapshot_bytes();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let body = bytes.len() - 8;
            let checksum = bytes[..body]
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
                });
            bytes[body..].copy_from_slice(&checksum.to_le_bytes());
            let path = std::env::temp_dir().join(format!(
                "atm-engine-v{old}-snapshot-{}.bin",
                std::process::id()
            ));
            std::fs::write(&path, &bytes).unwrap();

            let warm = AtmEngine::new(AtmConfig::static_atm());
            assert!(matches!(
                warm.warm_start_from(&path),
                Err(PersistError::UnsupportedVersion(v)) if v == old
            ));
            assert!(warm.store().is_empty());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn store_budget_is_plumbed_through_the_config() {
        let outputs = Arc::new(vec![OutputSnapshot {
            region: atm_runtime::RegionId::from_raw(0),
            elem_range: 0..64,
            data: atm_runtime::RegionData::F64(vec![1.0; 64]),
        }]);
        let charge = atm_store::entry_charge_bytes(&outputs);
        let config = AtmConfig::static_atm();
        let key = EntryKey::new(TaskTypeId::from_raw(0), 1, 1.0);

        // An entry exactly as large as the budget is admitted…
        let engine = AtmEngine::new(config.with_byte_budget(charge));
        let store_config = engine.store().config();
        assert_eq!(store_config.byte_budget, Some(charge));
        assert_eq!(engine.store_counters(), Default::default());
        let outcome = engine
            .store()
            .insert(key, TaskId::from_raw(0), Arc::clone(&outputs), 0);
        assert_eq!(outcome, atm_store::InsertOutcome::Inserted);

        // …and one byte over it is refused.
        let engine = AtmEngine::new(config.with_byte_budget(charge - 1));
        let outcome = engine.store().insert(key, TaskId::from_raw(0), outputs, 0);
        assert_eq!(outcome, atm_store::InsertOutcome::Rejected);
        assert_eq!(engine.store_counters().rejected_admissions, 1);
    }

    #[test]
    fn inserted_entries_carry_the_measured_kernel_benefit() {
        let engine = AtmEngine::new(AtmConfig::static_atm());
        let store = DataStore::new();
        let info = memoizable_info();
        let input = store.register_typed("in", vec![1.0f64; 64]).unwrap();
        let out = store.register_zeros::<f64>("out", 64).unwrap();
        let accesses = vec![Access::read(&input), Access::write(&out)];
        let _ = drive(&engine, &store, view_for(&store, 0, 0, &info, &accesses));
        let exported = engine.store().export();
        assert_eq!(exported.len(), 1);
        // drive() measures real time around the kernel, so the benefit can
        // be small but is recorded from the per-type timing stats.
        let out_b = store.register_zeros::<f64>("b", 64).unwrap();
        let acc_b = vec![Access::read(&input), Access::write(&out_b)];
        let (d, _) = drive(&engine, &store, view_for(&store, 1, 0, &info, &acc_b));
        assert_eq!(d, Decision::Memoized);
        assert_eq!(
            engine.store_counters().saved_ns,
            exported[0].benefit_ns,
            "a hit accrues exactly the stored benefit estimate"
        );
    }

    /// Tentpole behaviour: under the spec-respecting mode, three task types
    /// with different `MemoSpec`s resolve to three independent policies in
    /// the same engine.
    #[test]
    fn per_type_specs_resolve_independently_under_one_engine() {
        let engine = AtmEngine::new(AtmConfig::dynamic_atm());
        let store = DataStore::new();
        let square = |ctx: &atm_runtime::TaskContext<'_>| {
            let x = ctx.arg::<f64>(0);
            let out: Vec<f64> = x.iter().map(|v| v * v).collect();
            ctx.out(1, &out);
        };
        let exact = TaskTypeBuilder::new("exact", square)
            .arg::<f64>()
            .out::<f64>()
            .memo(MemoSpec::exact())
            .build();
        let dynamic = TaskTypeBuilder::new("dynamic", square)
            .arg::<f64>()
            .out::<f64>()
            .memo(MemoSpec::approximate().tau(0.05).training_window(1))
            .build();
        let fixed = TaskTypeBuilder::new("fixed", square)
            .arg::<f64>()
            .out::<f64>()
            .memo(MemoSpec::fixed_precision(0.25))
            .build();

        let input = store.register_typed("in", vec![2.0f64; 64]).unwrap();
        let mut task_id = 0u64;
        let mut run = |type_id: u32, info: &atm_runtime::TaskTypeInfo| -> Decision {
            let out = store
                .register_zeros::<f64>(format!("out{task_id}"), 64)
                .unwrap();
            let accesses = vec![Access::read(&input), Access::write(&out)];
            let task = view_for(&store, task_id, type_id, info, &accesses);
            task_id += 1;
            drive(&engine, &store, task).0
        };

        // Interleave instances of the three types.
        for _ in 0..3 {
            run(0, &exact);
            run(1, &dynamic);
            run(2, &fixed);
        }

        // Exact: steady from the start at p = 100 %, no training ever.
        assert_eq!(engine.current_p(TaskTypeId::from_raw(0)), Some(1.0));
        // Dynamic: trained its own p down to the minimum (identical inputs
        // approximate perfectly), independent of the other types.
        let dynamic_p = engine.current_p(TaskTypeId::from_raw(1)).unwrap();
        assert!(
            dynamic_p < 0.01,
            "the adaptive type must have trained a small p, got {dynamic_p}"
        );
        // Fixed: pinned at its declared precision.
        let fixed_p = engine.current_p(TaskTypeId::from_raw(2)).unwrap();
        assert!((fixed_p - 0.25).abs() < 1e-12);

        let summaries = engine.type_summaries();
        let by_name = |name: &str| {
            summaries
                .values()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("no summary for {name}"))
                .clone()
        };
        let exact_summary = by_name("exact");
        assert!(exact_summary.steady);
        assert_eq!(exact_summary.training_hits, 0);
        assert!(exact_summary.tht_bypassed > 0, "exact type must hit");
        let dynamic_summary = by_name("dynamic");
        assert!(dynamic_summary.steady);
        assert!(dynamic_summary.training_hits > 0, "adaptive type trains");
        assert!(dynamic_summary.tht_bypassed > 0);
        let fixed_summary = by_name("fixed");
        assert!(fixed_summary.steady);
        assert_eq!(fixed_summary.training_hits, 0);
        assert!(fixed_summary.tht_bypassed > 0, "fixed type must hit");
    }

    /// The engine-wide Static override ignores per-type specs: everything
    /// becomes exact, as in the paper's Static ATM bars.
    #[test]
    fn static_mode_overrides_per_type_specs() {
        let engine = AtmEngine::new(AtmConfig::static_atm());
        let store = DataStore::new();
        let info = TaskTypeBuilder::new("would_be_fixed", |ctx| {
            let x = ctx.arg::<f64>(0);
            ctx.out(1, &x);
        })
        .arg::<f64>()
        .out::<f64>()
        .memo(MemoSpec::fixed_precision(0.25))
        .build();
        let input = store.register_typed("in", vec![1.0f64; 8]).unwrap();
        let out = store.register_zeros::<f64>("out", 8).unwrap();
        let accesses = vec![Access::read(&input), Access::write(&out)];
        let _ = drive(&engine, &store, view_for(&store, 0, 0, &info, &accesses));
        assert_eq!(
            engine.current_p(TaskTypeId::from_raw(0)),
            Some(1.0),
            "Static mode forces p = 100 % regardless of the spec"
        );
    }

    /// Per-argument overrides reach the key pipeline: an exact-pinned
    /// control argument distinguishes entries even when the type-wide p
    /// would never sample its differing byte.
    #[test]
    fn arg_exact_override_separates_control_arguments() {
        let engine = AtmEngine::new(AtmConfig::dynamic_atm());
        let store = DataStore::new();
        let info = TaskTypeBuilder::new("controlled", |ctx| {
            let mode = ctx.arg::<i32>(0)[0];
            let x = ctx.arg::<f64>(1);
            let out: Vec<f64> = x.iter().map(|v| v * f64::from(mode)).collect();
            ctx.out(2, &out);
        })
        .arg::<i32>()
        .arg::<f64>()
        .out::<f64>()
        .memo(MemoSpec::fixed_precision(0.25).arg_exact(0))
        .build();

        let field = store.register_typed("field", vec![3.0f64; 64]).unwrap();
        let mode_a = store.register_typed("mode_a", vec![2i32]).unwrap();
        // mode_b differs from mode_a only in the lowest byte — at p = 25 %
        // with MSB-first selection that byte is never sampled, so only the
        // arg_exact(0) override can keep the two modes apart.
        let mode_b = store.register_typed("mode_b", vec![3i32]).unwrap();
        let out_a = store.register_zeros::<f64>("oa", 64).unwrap();
        let out_b = store.register_zeros::<f64>("ob", 64).unwrap();

        let acc_a = vec![
            Access::read(&mode_a),
            Access::read(&field),
            Access::write(&out_a),
        ];
        let acc_b = vec![
            Access::read(&mode_b),
            Access::read(&field),
            Access::write(&out_b),
        ];
        assert_eq!(
            drive(&engine, &store, view_for(&store, 0, 0, &info, &acc_a)).0,
            Decision::Execute
        );
        assert_eq!(
            drive(&engine, &store, view_for(&store, 1, 0, &info, &acc_b)).0,
            Decision::Execute,
            "a different control value must miss, not alias the first entry"
        );
        assert_eq!(store.read(out_a).lock().as_f64(), &[6.0; 64]);
        assert_eq!(store.read(out_b).lock().as_f64(), &[9.0; 64]);
        assert_eq!(engine.stats().tht_bypassed, 0);

        // The same control value hits.
        let out_c = store.register_zeros::<f64>("oc", 64).unwrap();
        let acc_c = vec![
            Access::read(&mode_a),
            Access::read(&field),
            Access::write(&out_c),
        ];
        assert_eq!(
            drive(&engine, &store, view_for(&store, 2, 0, &info, &acc_c)).0,
            Decision::Memoized
        );
        assert_eq!(store.read(out_c).lock().as_f64(), &[6.0; 64]);
    }

    /// Training judges each output with the Chebyshev error against the
    /// spec's τ_max: only the output beyond it is flagged, and the returned
    /// τ is the maximum over the outputs.
    #[test]
    fn spec_metric_is_used_during_training() {
        let engine = AtmEngine::new(AtmConfig::dynamic_atm());
        let store = DataStore::new();
        let info = TaskTypeBuilder::new("two_outputs", |ctx| {
            let x = ctx.arg::<f64>(0);
            ctx.out(1, &x);
            ctx.out(2, &x);
        })
        .arg::<f64>()
        .out::<f64>()
        .out::<f64>()
        .memo(MemoSpec::approximate().tau(0.01).training_window(1))
        .build();
        let policy = &engine
            .type_entry(&view_for(&store, 0, 0, &info, &[]).view())
            .policy;
        assert!((policy.tau_max() - 0.01).abs() < 1e-12);

        let input = store.register_typed("in", vec![2.0f64; 4]).unwrap();
        let close = store.register_typed("close", vec![2.0f64; 4]).unwrap();
        let far = store.register_typed("far", vec![2.0f64; 4]).unwrap();
        let accesses = vec![
            Access::read(&input),
            Access::write(&close),
            Access::write(&far),
        ];
        let task = view_for(&store, 0, 0, &info, &accesses);
        let stored = |region: Region<f64>, value: f64| OutputSnapshot {
            region: region.id(),
            elem_range: 0..4,
            data: atm_runtime::RegionData::F64(vec![value; 4]),
        };
        // τ = 0.002 / 2 = 0.001 < τ_max, and τ = 0.5 / 2 = 0.25 ≥ τ_max.
        let reference = vec![stored(close, 2.002), stored(far, 2.5)];
        let (tau, failing) = engine.failing_output_regions(&task.view(), &reference, 0.01);
        assert!((tau - 0.25).abs() < 1e-12, "τ = {tau}");
        assert_eq!(failing, vec![far.id()]);
    }

    #[test]
    fn fixed_p_mode_uses_the_requested_percentage() {
        let engine = AtmEngine::new(AtmConfig::fixed_p(0.5));
        let store = DataStore::new();
        let info = memoizable_info();
        let input = store.register_typed("in", vec![1.0f64; 8]).unwrap();
        let out = store.register_zeros::<f64>("out", 8).unwrap();
        let accesses = vec![Access::read(&input), Access::write(&out)];
        let _ = drive(&engine, &store, view_for(&store, 0, 0, &info, &accesses));
        assert!((engine.current_p(TaskTypeId::from_raw(0)).unwrap() - 0.5).abs() < 1e-12);
    }

    /// A type whose key costs far more than its kernel and never repeats an
    /// input: 32 KiB hashed in full (the argument is pinned exact, and every
    /// task brings a fresh region) against a kernel that reads one element.
    fn costly_key_info(spec: MemoSpec) -> atm_runtime::TaskTypeInfo {
        TaskTypeBuilder::new("first", |ctx| {
            // One element, not a copy of the whole 32 KiB input: the key
            // must cost far more than the kernel even in a release build.
            let first = ctx.store().read(ctx.access(0).region).lock().as_f64()[0];
            ctx.out(1, &[first + 1.0]);
        })
        .arg::<f64>()
        .out::<f64>()
        .memo(spec)
        .build()
    }

    /// Drives `tasks` never-repeating instances of `info` and checks every
    /// output.
    fn drive_unique_inputs(engine: &AtmEngine, info: &atm_runtime::TaskTypeInfo, tasks: u64) {
        let store = DataStore::new();
        let out = store.register_zeros::<f64>("out", 1).unwrap();
        for i in 0..tasks {
            let mut values = vec![0.5f64; 4096];
            values[0] = i as f64;
            values[4095] = -(i as f64);
            let input = store.register_typed(format!("in{i}"), values).unwrap();
            let accesses = vec![Access::read(&input), Access::write(&out)];
            let (decision, _) = drive(engine, &store, view_for(&store, i, 0, info, &accesses));
            assert_eq!(decision, Decision::Execute, "task {i}");
            assert_eq!(store.read(out).lock().as_f64(), &[i as f64 + 1.0]);
        }
    }

    /// Fix by construction: the engine-wide overrides and the pinned specs
    /// are never gated, so however badly memoization pays every task is
    /// keyed and probes the store exactly once. (Their ledger prices only
    /// retention: every miss is either an entry or unretained.)
    #[test]
    fn static_and_pinned_types_never_gate() {
        let approximate = || MemoSpec::approximate().arg_exact(0);
        let cases = [
            (AtmConfig::static_atm(), approximate()),
            (AtmConfig::fixed_p(0.5), approximate()),
            (AtmConfig::dynamic_atm(), MemoSpec::exact()),
            (AtmConfig::dynamic_atm(), MemoSpec::fixed_precision(0.5)),
        ];
        for (config, spec) in cases {
            let engine = AtmEngine::new(config);
            drive_unique_inputs(&engine, &costly_key_info(spec.clone()), 600);
            let stats = engine.stats();
            let store = engine.store_counters();
            assert_eq!(stats.seen, 600);
            assert_eq!(stats.gated, 0, "{config:?} {spec:?}");
            assert_eq!(store.hits + store.misses, stats.seen);
            let summary = engine.type_summaries().into_values().next().unwrap();
            assert_eq!(store.insertions + summary.unretained, 600);
            assert!(summary.steady);
        }
    }

    /// A pinned type whose misses retain far more than they earn back —
    /// 1 MiB of output from a kernel that writes one element, never the same
    /// input twice — closes its retention. Closed, it is still keyed and
    /// probes the store once per task, an entry retained before the closure
    /// still hits, and nothing is inserted until the back-off runs out.
    #[test]
    fn a_pinned_type_that_closes_retention_keeps_keying_and_hitting() {
        const OUT: usize = 1 << 17;
        let obs = Arc::new(Observability::capture());
        let engine = AtmEngine::new(AtmConfig::static_atm()).with_observability(Arc::clone(&obs));
        let store = DataStore::new();
        let info = TaskTypeBuilder::new("mark", |ctx| {
            let x = ctx.store().read(ctx.access(0).region).lock().as_f64()[0];
            ctx.store().write(ctx.access(1).region).lock().as_f64_mut()[0] = x + 1.0;
        })
        .arg::<f64>()
        .out::<f64>()
        .memo(MemoSpec::exact())
        .build();
        let out = store.register_zeros::<f64>("out", OUT).unwrap();
        let mut id = 0u64;
        let mut run = |x: f64| {
            let input = store.register_typed(format!("in{id}"), vec![x]).unwrap();
            let accesses = vec![Access::read(&input), Access::write(&out)];
            let (decision, _) = drive(&engine, &store, view_for(&store, id, 0, &info, &accesses));
            id += 1;
            // What a from-scratch run leaves in the region.
            let written = store.read(out).lock().as_f64().to_vec();
            assert_eq!(written[0], x + 1.0);
            assert!(written[1..].iter().all(|&v| v == 0.0));
            decision
        };
        let summary = || engine.type_summaries().into_values().next().unwrap();

        let mut x = 0.0;
        loop {
            assert_eq!(run(x), Decision::Execute);
            x += 1.0;
            if !summary().open {
                break;
            }
            assert!(x < 1_000.0, "retention never closed");
        }
        let closed = summary();
        assert_eq!((closed.gate_closures, closed.gated), (1, 0));
        let inserted = engine.store_counters().insertions;
        assert_eq!(inserted, x as u64);

        // Closed: misses execute and insert nothing; an entry retained
        // before the closure still hits.
        for _ in 0..100 {
            assert_eq!(run(x), Decision::Execute);
            x += 1.0;
        }
        assert_eq!(run(0.0), Decision::Memoized);
        assert_eq!(engine.store_counters().insertions, inserted);
        assert_eq!(summary().unretained, 100);

        // The back-off runs out, the type re-opens and retains again.
        while !summary().open {
            run(x);
            x += 1.0;
        }
        assert_eq!(run(x), Decision::Execute);
        assert_eq!(engine.store_counters().insertions, inserted + 1);

        let stats = engine.stats();
        assert_eq!(stats.gated, 0);
        assert_eq!(stats.tht_bypassed, 1);
        assert_stream_reconciles(&engine, &obs);
        let decisions = obs.decisions();
        assert_eq!(decisions.count(0, MemoDecision::GateClose), 1);
        assert_eq!(decisions.count(0, MemoDecision::GateReopen), 1);
        let closure = decisions
            .records
            .iter()
            .find(|r| r.decision == MemoDecision::GateClose)
            .and_then(|r| r.gate_ledger());
        let (spent, earned, allowance) = closure.unwrap();
        assert!(spent > earned + allowance, "{closure:?}");
    }

    /// The same stream through an adaptive type: the ledger closes it, the
    /// gated tasks execute (correctly) and touch nothing, and every closure
    /// is on the decision stream once with its re-opening.
    #[test]
    fn a_losing_adaptive_type_is_gated_and_still_computes_correctly() {
        let obs = Arc::new(Observability::capture());
        let engine = AtmEngine::new(AtmConfig::dynamic_atm()).with_observability(Arc::clone(&obs));
        let info = costly_key_info(MemoSpec::approximate().arg_exact(0));
        drive_unique_inputs(&engine, &info, 1_000);

        let stats = engine.stats();
        let store = engine.store_counters();
        assert_eq!(stats.seen, 1_000);
        assert!(stats.gated >= 700, "gated {} of 1 000", stats.gated);
        assert_eq!(stats.reused(), 0);
        // A gated task neither probes nor inserts.
        assert_eq!(store.hits + store.misses, stats.seen - stats.gated);
        assert_eq!(store.insertions, stats.seen - stats.gated);
        assert_stream_reconciles(&engine, &obs);

        let summary = engine.type_summaries().into_values().next().unwrap();
        assert!(summary.gate_closures >= 2);
        assert_eq!(summary.gated, stats.gated);
        assert!(summary.kernel_ns > 0 && summary.probe_ns > 0);
        // Closures and re-openings alternate on the stream, each closure
        // reporting a ledger that overran its allowance.
        let gate_records: Vec<_> = obs
            .decisions()
            .records
            .into_iter()
            .filter(|r| r.gate_ledger().is_some())
            .collect();
        for (n, record) in gate_records.iter().enumerate() {
            let (spent, earned, allowance) = record.gate_ledger().unwrap();
            if n % 2 == 0 {
                assert_eq!(record.decision, MemoDecision::GateClose);
                assert!(spent > earned + allowance, "{record:?}");
            } else {
                assert_eq!(record.decision, MemoDecision::GateReopen);
            }
        }
    }

    /// A training record reports the p its task's key was sampled at, not
    /// the p the controller moved to while the task was running.
    #[test]
    fn training_records_carry_the_p_their_key_was_sampled_at() {
        let obs = Arc::new(Observability::capture());
        let engine = AtmEngine::new(AtmConfig::dynamic_atm()).with_observability(Arc::clone(&obs));
        let store = DataStore::new();
        let info = TaskTypeBuilder::new("sum", |ctx| {
            let total: f64 = ctx.arg::<f64>(0).iter().sum();
            ctx.out(1, &[total]);
        })
        .arg::<f64>()
        .out::<f64>()
        .memo(MemoSpec::approximate().tau(1e-12).training_window(64))
        .build();
        let tracer = Tracer::new(None);
        // Three inputs that agree wherever p = 2⁻¹⁵ samples and differ in
        // the tail: the second and third are training hits on the first.
        let inputs: Vec<Region<f64>> = (0..3)
            .map(|i| {
                let mut values = vec![1.0f64; 4096];
                values[4095] = i as f64 * 1000.0;
                store.register_typed(format!("i{i}"), values).unwrap()
            })
            .collect();
        let outs: Vec<Region<f64>> = (0..3)
            .map(|i| store.register_zeros::<f64>(format!("o{i}"), 1).unwrap())
            .collect();
        let accesses: Vec<_> = inputs
            .iter()
            .zip(&outs)
            .map(|(i, o)| vec![Access::read(i), Access::write(o)])
            .collect();
        drive(&engine, &store, view_for(&store, 0, 0, &info, &accesses[0]));

        // Both hits are keyed at the minimum p before either is verified.
        let run_kernel = |n: usize| {
            let ctx = atm_runtime::TaskContext::new(&store, &accesses[n]);
            (info.kernel)(&ctx);
        };
        for n in [1, 2] {
            let task = view_for(&store, n as u64, 0, &info, &accesses[n]);
            assert_eq!(
                engine.before_execute(task.view(), &store, &tracer, n),
                Decision::Execute
            );
        }
        for n in [1, 2] {
            run_kernel(n);
            let task = view_for(&store, n as u64, 0, &info, &accesses[n]);
            engine.after_execute(task.view(), &store, &tracer, n, true);
        }
        // The first rejection doubled p; the second task's record still
        // says what its key was sampled at.
        let p_min = Percentage::MIN.fraction();
        assert_eq!(engine.current_p(TaskTypeId::from_raw(0)), Some(4.0 * p_min));
        let rejects: Vec<_> = obs
            .decisions()
            .records
            .into_iter()
            .filter(|r| r.decision == MemoDecision::TrainingReject)
            .collect();
        assert_eq!(rejects.len(), 2);
        assert!(rejects.iter().all(|r| r.p == p_min), "{rejects:?}");
    }

    /// A steady-state task that writes a black-listed region executes
    /// without being keyed: no hash, no probe, no ticket.
    #[test]
    fn black_listed_outputs_are_not_keyed_in_the_steady_state() {
        let engine = AtmEngine::new(AtmConfig::dynamic_atm());
        let store = DataStore::new();
        let info = TaskTypeBuilder::new("sum", |ctx| {
            let total: f64 = ctx.arg::<f64>(0).iter().sum();
            ctx.out(1, &[total]);
        })
        .arg::<f64>()
        .out::<f64>()
        .memo(MemoSpec::approximate().tau(1e-12).training_window(1))
        .build();
        let mut values = vec![1.0f64; 4096];
        let a = store.register_typed("a", values.clone()).unwrap();
        values[4095] = 1000.0;
        let b = store.register_typed("b", values).unwrap();
        let outs: Vec<Region<f64>> = (0..5)
            .map(|i| store.register_zeros::<f64>(format!("o{i}"), 1).unwrap())
            .collect();
        let mut id = 0;
        let mut run = |input: &Region<f64>, out: &Region<f64>| {
            let accesses = vec![Access::read(input), Access::write(out)];
            id += 1;
            drive(&engine, &store, view_for(&store, id, 0, &info, &accesses)).0
        };
        // `b` collides with `a` at the minimum p and sums differently: its
        // output region is black-listed and p doubles. `a` twice more at the
        // new p is a miss, then an accepted hit that ends training.
        run(&a, &outs[0]);
        run(&b, &outs[1]);
        run(&a, &outs[2]);
        run(&a, &outs[3]);
        let summary = engine.type_summaries().into_values().next().unwrap();
        assert!(summary.steady);
        assert_eq!(summary.unstable_outputs, 1);
        assert_eq!(run(&a, &outs[4]), Decision::Memoized);

        let (stats, lookups) = (engine.stats(), engine.store_counters());
        assert_eq!(run(&a, &outs[1]), Decision::Execute);
        assert_eq!(store.read(outs[1]).lock().as_f64(), &[4096.0]);
        let after = engine.stats();
        assert_eq!(after.seen, stats.seen + 1);
        assert_eq!(after.executed, stats.executed + 1);
        assert_eq!(after.hash_ns, stats.hash_ns, "not hashed");
        assert_eq!(engine.store_counters(), lookups, "not probed, not stored");
        assert_eq!(after.gated, 0, "black-listed is not gated");
    }
}
