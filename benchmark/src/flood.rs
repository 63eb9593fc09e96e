//! `flood`: a benchmark-owned runtime drowned in tiny tasks. 256 inout
//! chains over 256-byte cells, waves of 256 tasks submitted in batches of
//! 64, kernels far below a microsecond. Even chains are memoizable with an
//! input-independent output (a hit from step 3 on), odd chains are a
//! non-memoizable increment. Submit, dependence wiring, the ready queue,
//! release and retirement do nearly all the work; bytes hashed and copied
//! vanish.
//!
//! A round alternates two timed phases per segment of 16 waves: the master
//! submits the segment while every worker is held inside a benchmark-owned
//! gate task, then the gate opens and the workers drain it. Submitting
//! *while* the workers drain was tried first and rejected: with a master
//! and `W` workers on `W` cores the run falls chaotically into one of two
//! regimes (workers parking after every batch, or never) whose round times
//! differ fourfold, so no bound below that could be held. The phases cost
//! the benchmark the submitter/worker lock contention and buy a number that
//! repeats; every task still has a live predecessor when it is wired.

use crate::env::peak_rss_mib;
use crate::gen::derive_seed;
use crate::json::Json;
use crate::outcome::{Budget, Metrics, Outcome, RunCtx};
use crate::probes::{self, ProbeShape};
use crate::stats::{median, percentile_sorted, sorted, Measured};
use crate::trace::{Span, TraceData, Tracer};
use atm_core::{AtmConfig, AtmEngine, MemoSpec};
use atm_hash::Xoshiro256StarStar;
use atm_obs::{EngineObservation, Observability, StoreObservation};
use atm_runtime::{
    DataStore, Decision, NoopInterceptor, Region, Runtime, RuntimeBuilder, RuntimeStatsSnapshot,
    TaskId, TaskInterceptor, TaskTypeBuilder, TaskTypeId, TaskView,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

const CHAINS: usize = 256;
const CELL_ELEMS: usize = 64;
const BATCH: usize = 64;
/// Waves per round: 256 × 512 = 131 072 tasks, about 0.6 s, so one pass
/// fits some sixteen ATM-on/off pairs.
const WAVES: usize = 512;
const SMOKE_WAVES: usize = 32;
/// Waves of the untimed warm-up round every set-up ends with.
const WARMUP_WAVES: usize = 64;
/// Waves submitted behind one closed gate: deep enough that the phase
/// hand-over (two futex wake-ups) is under 2 % of the segment, shallow
/// enough that a region's list of live accessors stays short.
const SEGMENT_WAVES: usize = 16;

/// The generated inputs of the workload.
struct Inputs {
    /// Initial contents of each chain's cell.
    initial: Vec<Vec<f32>>,
    /// The input-independent output of each even chain.
    constant: Vec<Vec<f32>>,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = Xoshiro256StarStar::new(derive_seed(seed, "flood/cells"));
    let mut cell = |scale: f32| -> Vec<f32> {
        (0..CELL_ELEMS)
            .map(|_| (rng.below(1 << 16) as f32) * scale)
            .collect()
    };
    Inputs {
        initial: (0..CHAINS).map(|_| cell(1.0)).collect(),
        constant: (0..CHAINS).map(|_| cell(0.5)).collect(),
    }
}

/// Expected contents of chain `c`'s cell after `waves` steps.
fn expected(inputs: &Inputs, chain: usize, waves: usize) -> Vec<f32> {
    if chain.is_multiple_of(2) {
        inputs.constant[chain].clone()
    } else {
        // Cell values are whole numbers below 2^16 and `waves` is far below
        // 2^24 - 2^16, so f32 addition is exact.
        inputs.initial[chain]
            .iter()
            .map(|v| v + waves as f32)
            .collect()
    }
}

/// Which interceptor a round runs under.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `AtmEngine` with `AtmConfig::static_atm()`.
    Atm,
    /// `NoopInterceptor`: the control no memo-path change may move.
    Noop,
    /// `SpanInterceptor` around the engine, timed kernels and submits.
    Traced,
}

thread_local! {
    /// `(task id, interceptor entry ns)` of the task this worker thread is
    /// running: lets the kernel span carry its task's id and the task span
    /// open where `before_execute` was entered.
    static CURRENT_TASK: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Benchmark-owned wrapper around the engine: one span per hook call, by
/// decision, plus the enclosing `runtime.task` span (interceptor entry →
/// `after_execute` exit; its self time is what the scheduler spends
/// between the hooks and the kernel).
struct SpanInterceptor {
    inner: Arc<AtmEngine>,
    tracer: Arc<Tracer>,
}

impl TaskInterceptor for SpanInterceptor {
    fn before_execute(
        &self,
        task: TaskView<'_>,
        store: &DataStore,
        tracer: &atm_runtime::Tracer,
        worker: usize,
    ) -> Decision {
        let start_ns = self.tracer.now_ns();
        CURRENT_TASK.set((task.id.raw(), start_ns));
        let decision = self.inner.before_execute(task, store, tracer, worker);
        let name = match (task.memoizable(), decision) {
            (false, _) => "engine.before.pass",
            (true, Decision::Memoized) => "engine.before.hit",
            (true, Decision::Execute) => "engine.before.miss",
            (true, Decision::Deferred) => "engine.before.defer",
        };
        self.tracer.record(Span {
            name,
            layer: "core.engine",
            start_ns,
            end_ns: self.tracer.now_ns(),
            parent: "runtime.task",
            id: task.id.raw(),
        });
        decision
    }

    fn after_execute(
        &self,
        task: TaskView<'_>,
        store: &DataStore,
        tracer: &atm_runtime::Tracer,
        worker: usize,
        executed: bool,
    ) -> Vec<TaskId> {
        let start_ns = self.tracer.now_ns();
        let completed = self
            .inner
            .after_execute(task, store, tracer, worker, executed);
        let end_ns = self.tracer.now_ns();
        self.tracer.record(Span {
            name: "engine.after",
            layer: "core.engine",
            start_ns,
            end_ns,
            parent: "runtime.task",
            id: task.id.raw(),
        });
        self.tracer.record(Span {
            name: "runtime.task",
            layer: "runtime",
            start_ns: CURRENT_TASK.get().1,
            end_ns,
            parent: "",
            id: task.id.raw(),
        });
        completed
    }

    fn observe(&self) -> Option<(EngineObservation, StoreObservation)> {
        self.inner.observe()
    }
}

/// Holds every worker inside a gate task while the master submits.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    changed: Condvar,
    /// Workers currently held (their gate kernel has started).
    held: AtomicUsize,
    /// Time spent inside gate kernels: the runtime counts it as kernel
    /// time, the round takes it back out.
    held_ns: AtomicU64,
}

impl Gate {
    /// The gate kernel: reports in, then sleeps until the gate opens.
    fn hold(&self) {
        let entered = Instant::now();
        self.held.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().expect("gate poisoned");
        while !*open {
            open = self.changed.wait(open).expect("gate poisoned");
        }
        drop(open);
        self.held_ns
            .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn close(&self) {
        *self.open.lock().expect("gate poisoned") = false;
        self.held.store(0, Ordering::SeqCst);
    }

    fn open(&self) {
        *self.open.lock().expect("gate poisoned") = true;
        self.changed.notify_all();
    }
}

/// One built runtime with its regions and task types, ready to flood.
struct Rig {
    runtime: Runtime,
    engine: Option<Arc<AtmEngine>>,
    cells: Vec<Region<f32>>,
    memo_type: TaskTypeId,
    incr_type: TaskTypeId,
    gate: Arc<Gate>,
    gate_type: TaskTypeId,
    gate_cells: Vec<Region<f32>>,
    tracer: Option<Arc<Tracer>>,
}

fn build(workers: usize, inputs: &Arc<Inputs>, mode: Mode, tracer: Option<&Arc<Tracer>>) -> Rig {
    let tracer =
        (mode == Mode::Traced).then(|| Arc::clone(tracer.expect("traced rounds carry a tracer")));
    let engine = (mode != Mode::Noop).then(|| {
        let engine = AtmEngine::new(AtmConfig::static_atm());
        Arc::new(match mode {
            Mode::Traced => engine.with_observability(Arc::new(Observability::enabled())),
            _ => engine,
        })
    });
    let interceptor: Arc<dyn TaskInterceptor> = match (&engine, &tracer) {
        (Some(engine), Some(tracer)) => Arc::new(SpanInterceptor {
            inner: Arc::clone(engine),
            tracer: Arc::clone(tracer),
        }),
        (Some(engine), None) => Arc::clone(engine) as Arc<dyn TaskInterceptor>,
        (None, _) => Arc::new(NoopInterceptor),
    };
    let runtime = RuntimeBuilder::new()
        .workers(workers)
        .interceptor(interceptor)
        .build();
    let cells: Vec<Region<f32>> = inputs
        .initial
        .iter()
        .enumerate()
        .map(|(c, init)| {
            runtime
                .store()
                .register_typed(format!("chain{c}"), init.clone())
                .expect("chain names are distinct")
        })
        .collect();
    // Kernels find their chain by the region they were handed.
    let first_region = cells[0].id().index();
    let constants = Arc::clone(inputs);
    let span_tracer = tracer.clone();
    let memo_type = runtime.register_task_type(
        TaskTypeBuilder::new("flood_const", move |ctx| {
            let start_ns = span_tracer.as_ref().map(|t| t.now_ns());
            let chain = ctx.access(0).region.index() - first_region;
            let seen = ctx.arg::<f32>(0);
            std::hint::black_box(&seen);
            ctx.out(0, &constants.constant[chain]);
            if let (Some(t), Some(start_ns)) = (&span_tracer, start_ns) {
                t.record(kernel_span(t, start_ns));
            }
        })
        .inout::<f32>()
        .memo(MemoSpec::exact())
        .build(),
    );
    let span_tracer = tracer.clone();
    let incr_type = runtime.register_task_type(
        TaskTypeBuilder::new("flood_incr", move |ctx| {
            let start_ns = span_tracer.as_ref().map(|t| t.now_ns());
            let mut cell = ctx.arg::<f32>(0);
            for v in &mut cell {
                *v += 1.0;
            }
            ctx.out(0, &cell);
            if let (Some(t), Some(start_ns)) = (&span_tracer, start_ns) {
                t.record(kernel_span(t, start_ns));
            }
        })
        .inout::<f32>()
        .build(),
    );
    let gate = Arc::new(Gate::default());
    let held = Arc::clone(&gate);
    let gate_type = runtime.register_task_type(
        TaskTypeBuilder::new("flood_gate", move |_| held.hold())
            .inout::<f32>()
            .build(),
    );
    let gate_cells = (0..workers)
        .map(|w| {
            runtime
                .store()
                .register_zeros(format!("gate{w}"), 1)
                .expect("gate names are distinct")
        })
        .collect();
    Rig {
        runtime,
        engine,
        cells,
        memo_type,
        incr_type,
        gate,
        gate_type,
        gate_cells,
        tracer,
    }
}

fn kernel_span(tracer: &Tracer, start_ns: u64) -> Span {
    Span {
        name: "kernel",
        layer: "runtime",
        start_ns,
        end_ns: tracer.now_ns(),
        parent: "runtime.task",
        id: CURRENT_TASK.get().0,
    }
}

/// What one flood round measured.
#[derive(Debug, Clone, Default)]
struct Round {
    /// Σ over segments of submit phase + drain phase.
    wall_s: f64,
    submit_s: f64,
    drain_s: f64,
    /// Tasks finished, gate tasks excluded.
    finished: f64,
    runtime: RuntimeStatsSnapshot,
    engine: EngineObservation,
    store: StoreObservation,
    chains_wrong: usize,
    /// Submit phase + drain phase of each segment, seconds.
    segment_s: Vec<f64>,
    /// Gate-open times (tracer clock), traced rounds only.
    gate_opened_ns: Vec<u64>,
}

/// Floods `rig` with `waves` waves and verifies the chain ends.
fn flood(rig: Rig, inputs: &Inputs, waves: usize) -> Round {
    let rt = &rig.runtime;
    let mut round = Round::default();
    let mut gates = 0u64;
    for segment in (0..waves).step_by(SEGMENT_WAVES) {
        // Untimed: park every worker inside a gate task.
        rig.gate.close();
        for cell in &rig.gate_cells {
            rt.task(rig.gate_type)
                .reads_writes(cell)
                .submit()
                .expect("gate tasks are valid");
        }
        gates += rig.gate_cells.len() as u64;
        while rig.gate.held.load(Ordering::SeqCst) < rig.gate_cells.len() {
            std::thread::yield_now();
        }
        // Phase 1: the master alone submits the segment.
        let submit_started = Instant::now();
        for _ in segment..(segment + SEGMENT_WAVES).min(waves) {
            for first in (0..CHAINS).step_by(BATCH) {
                let mut batch = rt.batch();
                for chain in first..first + BATCH {
                    let tt = if chain.is_multiple_of(2) {
                        rig.memo_type
                    } else {
                        rig.incr_type
                    };
                    batch = batch.task(tt).reads_writes(&rig.cells[chain]);
                }
                match &rig.tracer {
                    Some(tracer) => {
                        let start_ns = tracer.now_ns();
                        let ids = batch.submit_all().expect("flood batches are valid");
                        tracer.record(Span {
                            name: "runtime.submit_all",
                            layer: "runtime",
                            start_ns,
                            end_ns: tracer.now_ns(),
                            parent: "",
                            id: ids[0].raw(),
                        });
                    }
                    None => {
                        batch.submit_all().expect("flood batches are valid");
                    }
                }
            }
        }
        let submit_s = submit_started.elapsed().as_secs_f64();
        round.submit_s += submit_s;
        // Phase 2: the workers alone drain it.
        let drain_started = Instant::now();
        if let Some(tracer) = &rig.tracer {
            round.gate_opened_ns.push(tracer.now_ns());
        }
        rig.gate.open();
        rt.taskwait();
        let drain_s = drain_started.elapsed().as_secs_f64();
        round.drain_s += drain_s;
        round.segment_s.push(submit_s + drain_s);
    }
    round.wall_s = round.submit_s + round.drain_s;
    round.chains_wrong = (0..CHAINS)
        .filter(|&c| rt.store().contents(&rig.cells[c]) != expected(inputs, c, waves))
        .count();
    let observation = rt.observe();
    round.runtime = observation.runtime;
    round.runtime.submitted -= gates;
    round.runtime.executed -= gates;
    round.runtime.kernel_ns = round
        .runtime
        .kernel_ns
        .saturating_sub(rig.gate.held_ns.load(Ordering::Relaxed));
    round.finished =
        (round.runtime.executed + round.runtime.bypassed + round.runtime.deferred) as f64;
    round.engine = observation.engine.unwrap_or_default();
    round.store = observation.store.unwrap_or_default();
    drop(rig.engine);
    rig.runtime.shutdown();
    round
}

pub fn run(ctx: &RunCtx) -> Outcome {
    let workers = ctx.sizing.workers;
    let waves = if ctx.smoke { SMOKE_WAVES } else { WAVES };
    let mut setup = Vec::new();
    let mut inputs = None;
    // One set-up takes 0.07 s, so many are cheap: the median of three
    // drifted by 12 % between two sets of ten runs.
    for _ in 0..5 * ctx.setup_reps() {
        let started = Instant::now();
        let generated = Arc::new(generate(ctx.seed));
        // Warm-up: thread start-up, allocator growth and lazily built
        // per-type state happen here, not in the first timed round.
        let warm = flood(
            build(workers, &generated, Mode::Atm, None),
            &generated,
            WARMUP_WAVES.min(waves),
        );
        assert_eq!(
            warm.chains_wrong, 0,
            "warm-up round computed wrong chain ends"
        );
        setup.push(started.elapsed().as_secs_f64());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one set-up repetition");
    let mut outcome = Outcome::new(
        "flood",
        Json::obj([
            ("chains", Json::Num(CHAINS as f64)),
            ("cell_bytes", Json::Num((CELL_ELEMS * 4) as f64)),
            ("batch", Json::Num(BATCH as f64)),
            ("waves", Json::Num(waves as f64)),
        ]),
    );
    let play = |mode: Mode, tracer: Option<&Arc<Tracer>>| {
        flood(build(workers, &inputs, mode, tracer), &inputs, waves)
    };

    let mut gate_rounds: Vec<Round> = Vec::new();
    if ctx.trace.untraced() {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        let budget = Budget::new(ctx.seconds);
        loop {
            let pair_started = Instant::now();
            if on.len().is_multiple_of(2) {
                on.push(play(Mode::Atm, None));
                off.push(play(Mode::Noop, None));
            } else {
                off.push(play(Mode::Noop, None));
                on.push(play(Mode::Atm, None));
            }
            if ctx.smoke || !budget.has_room_for(pair_started.elapsed().as_secs_f64()) {
                break;
            }
        }
        end_to_end(&mut outcome.end_to_end, &setup, &on, &off);
        gate_rounds.extend(on.iter().chain(&off).cloned());
    }

    if ctx.trace.traced() {
        let tracer = Arc::new(Tracer::new());
        let (mut traced, mut on, mut off) = (Vec::new(), Vec::new(), Vec::new());
        let budget = Budget::new((ctx.seconds - 13.0 * ctx.probe_seconds()).max(1.0));
        loop {
            let triple_started = Instant::now();
            traced.push(play(Mode::Traced, Some(&tracer)));
            on.push(play(Mode::Atm, None));
            off.push(play(Mode::Noop, None));
            // Two traced rounds are enough for every per-call median and
            // keep the span log bounded.
            if ctx.smoke
                || traced.len() >= 2
                || !budget.has_room_for(triple_started.elapsed().as_secs_f64())
            {
                break;
            }
        }
        let mut data = tracer.drain();
        per_layer(&mut outcome.per_layer, workers, &traced, &on, &off, &data);
        let last = traced.last().expect("at least one traced round");
        let shape = ProbeShape {
            input_bytes: CELL_ELEMS * 4,
            output_bytes: CELL_ELEMS * 4,
            p: 1.0,
            entries: last.store.entries as usize,
        };
        probes::run(ctx, shape, &tracer, &mut outcome.per_layer);
        data.absorb(tracer.drain());
        data.conclude(&mut outcome, &ctx.out_dir);
        gate_rounds.extend(traced.iter().chain(&on).chain(&off).cloned());
    }

    let wrong: usize = gate_rounds.iter().map(|r| r.chains_wrong).sum();
    outcome.gate(
        "flood.chain_ends",
        wrong == 0,
        format!(
            "{wrong} chain-end cells differ from their expected value over {} rounds",
            gate_rounds.len()
        ),
    );
    let unreconciled = gate_rounds
        .iter()
        .filter(|r| r.store.hits + r.store.misses != r.engine.seen)
        .count();
    outcome.gate(
        "flood.store_reconciles",
        unreconciled == 0,
        format!("{unreconciled} rounds where store.hits + store.misses != core.engine.seen"),
    );
    outcome.attempted = gate_rounds.len() as u64;
    outcome.failed = gate_rounds.iter().filter(|r| r.chains_wrong > 0).count() as u64;
    outcome
}

fn end_to_end(out: &mut Metrics, setup: &[f64], on: &[Round], off: &[Round]) {
    let walls = |rounds: &[Round]| rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    let wall = Measured::of(&walls(on));
    let baseline = Measured::of(&walls(off));
    let rates: Vec<f64> = on.iter().map(|r| r.finished / r.wall_s).collect();
    let good_rates: Vec<f64> = on
        .iter()
        .map(|r| {
            if r.chains_wrong == 0 {
                r.finished / r.wall_s
            } else {
                0.0
            }
        })
        .collect();
    let correct_chains: usize = on.iter().map(|r| CHAINS - r.chains_wrong).sum();
    let wrong_rounds = on.iter().chain(off).filter(|r| r.chains_wrong > 0).count();
    let reuse: Vec<f64> = on
        .iter()
        .map(|r| 100.0 * r.engine.reused() as f64 / r.engine.seen.max(1) as f64)
        .collect();
    out.set("setup_s", Measured::of(setup));
    out.set("wall_s", wall);
    out.set("baseline_wall_s", baseline);
    out.single("speedup_geomean", baseline.value / wall.value);
    out.set("tasks_per_s", Measured::of(&rates));
    out.single(
        "correctness_pct",
        100.0 * correct_chains as f64 / (CHAINS * on.len()) as f64,
    );
    out.set("reuse_pct", Measured::of(&reuse));
    out.single(
        "ok_share",
        1.0 - wrong_rounds as f64 / (on.len() + off.len()) as f64,
    );
    out.single("peak_rss_mb", peak_rss_mib());
    // The unit of work `flood`'s caller waits for is one segment: 16 waves
    // (4 096 tasks) submitted, then drained. A round has 32 of them, so its
    // nearest-rank p99 is its slowest segment; the median over the ATM-on
    // rounds repeats between runs, the p99 of all segments pooled does not
    // (one stall of the box lands in it: 10 % against 7 % quartile spread,
    // 34 % against 14 % range over ten runs).
    let per_round = |p: f64| {
        let of_round = |r: &Round| 1e6 * percentile_sorted(&sorted(&r.segment_s), p);
        Measured::of(&on.iter().map(of_round).collect::<Vec<_>>())
    };
    out.set("req_p50_us", per_round(50.0));
    out.set("req_p99_us", per_round(99.0));
    out.set("sat_goodput_rps", Measured::of(&good_rates));
}

fn per_layer(
    out: &mut Metrics,
    workers: usize,
    traced: &[Round],
    on: &[Round],
    off: &[Round],
    data: &TraceData,
) {
    let w = workers as f64;
    let med = |f: &dyn Fn(&Round) -> f64| Measured::of(&traced.iter().map(f).collect::<Vec<_>>());
    let wall = med(&|r| r.wall_s);
    let finished = med(&|r| r.finished).value.max(1.0);
    let hash = med(&|r| r.engine.hash_ns as f64);
    let copy = med(&|r| r.engine.copy_ns as f64);
    let kernel = med(&|r| r.runtime.kernel_ns as f64);
    let seen = med(&|r| r.engine.seen as f64);
    let hits = med(&|r| r.engine.tht_bypassed as f64);
    out.set("core.key.hash_s_total", hash.scaled(1e-9));
    out.single("core.key.hash_share", hash.value / (w * wall.value * 1e9));
    out.single("core.engine.hit_ns_p50", data.p50_ns("engine.before.hit"));
    out.single("core.engine.miss_ns_p50", data.p50_ns("engine.before.miss"));
    out.single("core.engine.after_ns_p50", data.p50_ns("engine.after"));
    out.set("core.engine.copy_s_total", copy.scaled(1e-9));
    out.single(
        "core.engine.copy_ns_per_byte",
        copy.value / (hits.value * (CELL_ELEMS * 4) as f64).max(1.0),
    );
    out.set("core.engine.seen", seen);
    out.set("core.engine.tht_hits", hits);
    out.set("core.engine.executed", med(&|r| r.engine.executed as f64));
    out.single("core.engine.hit_ratio", hits.value / seen.value.max(1.0));
    out.set("core.ikt.deferred", med(&|r| r.engine.ikt_deferred as f64));
    // Static ATM never trains: p stays at 100 %.
    out.single("core.training.final_p_geomean", 1.0);
    let (store_hits, store_misses) = (
        med(&|r| r.store.hits as f64),
        med(&|r| r.store.misses as f64),
    );
    out.set("store.hits", store_hits);
    out.set("store.misses", store_misses);
    out.set("store.insertions", med(&|r| r.store.insertions as f64));
    out.set("store.evictions", med(&|r| r.store.evictions as f64));
    out.set(
        "store.rejected_admissions",
        med(&|r| r.store.rejected_admissions as f64),
    );
    out.single(
        "store.hit_ratio",
        store_hits.value / (store_hits.value + store_misses.value).max(1.0),
    );
    out.set(
        "store.resident_mb",
        med(&|r| r.store.resident_bytes as f64).scaled(1.0 / (1024.0 * 1024.0)),
    );
    out.set("store.entries", med(&|r| r.store.entries as f64));
    out.set(
        "store.saved_kernel_s",
        med(&|r| r.store.saved_ns as f64).scaled(1e-9),
    );
    let submitted = med(&|r| r.runtime.submitted as f64);
    out.single(
        "runtime.submit_ns_per_task",
        data.total_ns("runtime.submit_all") / (submitted.value * traced.len() as f64).max(1.0),
    );
    out.set("runtime.kernel_s_total", kernel.scaled(1e-9));
    out.single(
        "runtime.overhead_ns_per_task",
        (w * wall.value * 1e9 - kernel.value - hash.value - copy.value) / finished,
    );
    // Dispatch: the gate opens → the first task of the segment enters the
    // interceptor (a held worker wakes, pops, starts). One sample a segment.
    let mut entered: Vec<u64> = data
        .spans
        .iter()
        .filter(|(_, s)| s.name.starts_with("engine.before."))
        .map(|(_, s)| s.start_ns)
        .collect();
    entered.sort_unstable();
    let dispatch: Vec<f64> = traced
        .iter()
        .flat_map(|r| &r.gate_opened_ns)
        .filter_map(|&opened| {
            entered
                .get(entered.partition_point(|&e| e < opened))
                .map(|e| (e - opened) as f64)
        })
        .collect();
    out.single("runtime.dispatch_ns_p50", median(&dispatch));
    out.single(
        "runtime.dispatch_ns_p99",
        percentile_sorted(&sorted(&dispatch), 99.0),
    );
    // Last submit → `taskwait` return is the drain phase: per segment.
    out.set(
        "runtime.drain_tail_ms",
        med(&|r| 1e3 * r.drain_s / r.segment_s.len().max(1) as f64),
    );
    out.set("runtime.submitted", submitted);
    out.set("runtime.executed", med(&|r| r.runtime.executed as f64));
    out.set("runtime.bypassed", med(&|r| r.runtime.bypassed as f64));
    out.set("runtime.deferred", med(&|r| r.runtime.deferred as f64));
    let untraced = Measured::of(&on.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    out.single(
        "obs.traced_overhead_pct",
        100.0 * (wall.value / untraced.value - 1.0),
    );
    out.single("bench.round_spread_pct", 100.0 * untraced.spread());
    out.single("bench.rounds", (on.len() + off.len() + traced.len()) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_flood_ends_every_chain_on_its_expected_value() {
        let inputs = Arc::new(generate(5));
        for mode in [Mode::Atm, Mode::Noop] {
            let round = flood(build(2, &inputs, mode, None), &inputs, 8);
            assert_eq!(round.chains_wrong, 0);
            assert_eq!(round.finished as usize, 8 * CHAINS);
        }
    }

    #[test]
    fn even_chains_hit_from_the_third_step_and_nothing_is_evicted() {
        let inputs = Arc::new(generate(5));
        let round = flood(build(2, &inputs, Mode::Atm, None), &inputs, 8);
        // 128 memoizable chains: steps 1 and 2 miss, steps 3..8 hit.
        assert_eq!(round.engine.seen, 8 * 128);
        assert_eq!(round.engine.reused(), 6 * 128);
        assert_eq!(round.store.hits + round.store.misses, round.engine.seen);
        assert_eq!(round.store.evictions, 0);
    }

    #[test]
    fn a_corrupted_expected_value_is_counted_as_a_wrong_chain() {
        let mut inputs = generate(5);
        let honest = Arc::new(generate(5));
        inputs.constant[0][0] += 1.0; // the value the verifier expects, not the one computed
        let round = flood(build(1, &honest, Mode::Noop, None), &inputs, 4);
        assert_eq!(round.chains_wrong, 1);
    }

    #[test]
    fn traced_rounds_record_hook_kernel_and_submit_spans() {
        let inputs = Arc::new(generate(9));
        let tracer = Arc::new(Tracer::new());
        let round = flood(build(2, &inputs, Mode::Traced, Some(&tracer)), &inputs, 4);
        assert_eq!(round.chains_wrong, 0);
        let data = tracer.drain();
        assert_eq!(
            data.durations_ns("runtime.submit_all").len(),
            4 * CHAINS / BATCH
        );
        // The two gate tasks pass through the interceptor like any task.
        assert_eq!(data.durations_ns("engine.after").len(), 4 * CHAINS + 2);
        assert_eq!(data.durations_ns("runtime.task").len(), 4 * CHAINS + 2);
        assert_eq!(data.durations_ns("engine.before.hit").len(), 2 * 128);
        assert_eq!(data.durations_ns("engine.before.miss").len(), 2 * 128);
        assert_eq!(data.durations_ns("kernel").len(), 4 * 128 + 2 * 128);
        assert_eq!(round.gate_opened_ns.len(), 1);
    }

    #[test]
    fn inputs_depend_on_the_seed() {
        assert_eq!(generate(1).initial, generate(1).initial);
        assert_ne!(generate(1).initial, generate(2).initial);
        assert_ne!(generate(1).constant, generate(2).constant);
    }
}
