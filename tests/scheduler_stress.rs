//! Randomized-DAG stress tests of the scheduler core.
//!
//! The generator builds arbitrary dataflow programs exercising every edge
//! shape the dependence tracker knows: fan-out (many readers of one
//! region), fan-in (one task reading many regions), and serialising `inout`
//! chains. Each program runs under 1, 2 and 8 workers, split into several
//! taskwait waves, and must:
//!
//! * produce exactly the sequential dataflow result (dataflow order);
//! * leave the runtime quiescent at every taskwait (empty ready queue);
//! * account for every task exactly once (exact completion counts);
//! * retire every finished node (zero resident nodes at every taskwait).
//!
//! Programs run both as one batch per wave (`batch()…submit_all()`) and
//! with every task a batch of one (`task(..).submit()`), which must be
//! sequential-equivalent (and bit-identical to each other on a 1-worker
//! runtime). A dedicated long-running stress (≥ 50k tasks in waves) asserts
//! that graph-node retirement keeps the resident node count bounded by the
//! in-flight wave, independent of the total task count, and a concurrency
//! stress races two submitters against a thread reading the gauges and
//! deregistering drained regions — all of them contending for the same
//! region-shard locks.
//!
//! Cases come from the repo's own deterministic PRNG, so every failure is
//! reproducible from the case index.

use atm_hash::Xoshiro256StarStar;
use atm_runtime::{DeregisterError, Region, RuntimeBuilder, TaskContext, TaskTypeBuilder};
use std::sync::mpsc;

const CASES: usize = 5;
const WAVES: usize = 3;

/// One generated task: regions it reads, writes, and accesses as inout.
#[derive(Debug, Clone)]
struct GenTask {
    reads: Vec<usize>,
    writes: Vec<usize>,
    inouts: Vec<usize>,
}

/// A generated dataflow program, split into taskwait waves.
#[derive(Debug, Clone)]
struct GenProgram {
    regions: usize,
    region_len: usize,
    waves: Vec<Vec<GenTask>>,
}

fn gen_program(rng: &mut Xoshiro256StarStar) -> GenProgram {
    let regions = 3 + rng.below(5);
    let region_len = 2 + rng.below(6);
    let waves = (0..WAVES)
        .map(|_| {
            let task_count = 5 + rng.below(30);
            (0..task_count)
                .map(|_| {
                    // Shape mix: plain read/write tasks, wide fan-in
                    // readers, and inout chain links that serialise.
                    let style = rng.below(3);
                    match style {
                        0 => GenTask {
                            reads: (0..1 + rng.below(2)).map(|_| rng.below(regions)).collect(),
                            writes: vec![rng.below(regions)],
                            inouts: vec![],
                        },
                        1 => GenTask {
                            reads: (0..2 + rng.below(3)).map(|_| rng.below(regions)).collect(),
                            writes: (0..1 + rng.below(2)).map(|_| rng.below(regions)).collect(),
                            inouts: vec![],
                        },
                        _ => GenTask {
                            reads: (0..rng.below(2)).map(|_| rng.below(regions)).collect(),
                            writes: vec![],
                            inouts: vec![rng.below(regions)],
                        },
                    }
                })
                .collect()
        })
        .collect();
    GenProgram {
        regions,
        region_len,
        waves,
    }
}

/// The deterministic kernel: every output element is a fixed mix of the
/// inputs (reads first, then inout old values), order-sensitive.
fn kernel_combine(inputs: &[Vec<f64>], region_len: usize) -> Vec<f64> {
    let mut out = vec![1.0; region_len];
    for (which, input) in inputs.iter().enumerate() {
        for (o, &x) in out.iter_mut().zip(input) {
            *o = (*o * 0.5 + x * (which as f64 + 1.0) * 0.25).sin() + 1.0;
        }
    }
    out
}

/// Sequential semantics: apply the tasks in submission order.
fn run_sequential(program: &GenProgram) -> Vec<Vec<f64>> {
    let mut memory: Vec<Vec<f64>> = (0..program.regions)
        .map(|r| vec![r as f64 * 0.1; program.region_len])
        .collect();
    for wave in &program.waves {
        for task in wave {
            let inputs: Vec<Vec<f64>> = task
                .reads
                .iter()
                .chain(&task.inouts)
                .map(|&r| memory[r].clone())
                .collect();
            let output = kernel_combine(&inputs, program.region_len);
            for &w in task.writes.iter().chain(&task.inouts) {
                memory[w] = output.clone();
            }
        }
    }
    memory
}

/// How a run hands its tasks to the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Submission {
    /// `rt.task(..).submit()` per task: a batch of one.
    Singleton,
    /// `rt.batch()` staging one wave, `submit_all()` once per wave.
    Batched,
}

/// Runs the same program through the runtime under one configuration.
fn run_parallel_with(
    program: &GenProgram,
    workers: usize,
    submission: Submission,
) -> Vec<Vec<f64>> {
    let rt = RuntimeBuilder::new().workers(workers).build();
    let regions: Vec<Region<f64>> = (0..program.regions)
        .map(|r| {
            rt.store()
                .register_typed(format!("r{r}"), vec![r as f64 * 0.1; program.region_len])
                .expect("unique name")
        })
        .collect();

    let region_len = program.region_len;
    // The kernel reads every read-mode access (reads first, then inouts,
    // matching the submission order below) and writes every write-mode one.
    let task_type = rt.register_task_type(
        TaskTypeBuilder::new("combine", move |ctx: &TaskContext<'_>| {
            let inputs: Vec<Vec<f64>> = ctx
                .accesses()
                .iter()
                .enumerate()
                .filter(|(_, a)| a.mode.is_read())
                .map(|(i, _)| ctx.arg::<f64>(i))
                .collect();
            let output = kernel_combine(&inputs, region_len);
            for (i, access) in ctx.accesses().iter().enumerate() {
                if access.mode.is_write() {
                    ctx.out(i, &output);
                }
            }
        })
        .variadic::<f64>(1)
        .build(),
    );

    let mut submitted_total = 0u64;
    for wave in &program.waves {
        match submission {
            Submission::Singleton => {
                for task in wave {
                    // Reads first, then inouts (read+write), then plain
                    // writes — is_read order in the access list matches the
                    // kernel's input collection order and the sequential
                    // semantics.
                    let mut builder = rt.task(task_type);
                    for &r in &task.reads {
                        builder = builder.reads(&regions[r]);
                    }
                    for &io in &task.inouts {
                        builder = builder.reads_writes(&regions[io]);
                    }
                    for &w in &task.writes {
                        builder = builder.writes(&regions[w]);
                    }
                    builder.submit().expect("generated tasks fit the signature");
                    submitted_total += 1;
                }
            }
            Submission::Batched => {
                // The whole wave staged in submission order, one
                // validation + dependence pass.
                let mut batch = rt.batch();
                for task in wave {
                    batch = batch.task(task_type);
                    for &r in &task.reads {
                        batch = batch.reads(&regions[r]);
                    }
                    for &io in &task.inouts {
                        batch = batch.reads_writes(&regions[io]);
                    }
                    for &w in &task.writes {
                        batch = batch.writes(&regions[w]);
                    }
                    submitted_total += 1;
                }
                batch
                    .submit_all()
                    .expect("generated tasks fit the signature");
            }
        }
        rt.taskwait();
        // Taskwait quiescence: nothing ready, nothing running, and every
        // task submitted so far completed exactly once.
        assert_eq!(rt.ready_depth(), 0, "ready queue must drain at taskwait");
        let stats = rt.stats();
        assert_eq!(stats.submitted, submitted_total);
        assert_eq!(
            stats.executed, submitted_total,
            "without ATM every submitted task executes exactly once"
        );
        assert_eq!(stats.bypassed, 0);
        assert_eq!(stats.deferred, 0);
        // Node retirement: a drained wave leaves no resident graph nodes.
        assert_eq!(stats.live_nodes, 0, "all finished nodes must retire");
        assert_eq!(stats.retired_nodes, submitted_total);
    }

    let memory: Vec<Vec<f64>> = regions
        .iter()
        .map(|&r| rt.store().read(r).lock().as_f64().to_vec())
        .collect();
    rt.shutdown();
    memory
}

/// Every worker count computes exactly the sequential dataflow result on randomized graphs with fan-in, fan-out
/// and inout chains, with exact completion counts and quiescent taskwaits.
#[test]
fn randomized_dags_run_identically_under_all_scheduler_configurations() {
    let mut rng = Xoshiro256StarStar::new(0x5CED_DA65);
    for case in 0..CASES {
        let program = gen_program(&mut rng);
        let expected = run_sequential(&program);
        for workers in [1usize, 2, 8] {
            let actual = run_parallel_with(&program, workers, Submission::Singleton);
            assert_eq!(
                actual, expected,
                "case {case}: {workers} workers diverged from the sequential semantics"
            );
        }
    }
}

/// Batched submission is sequential-equivalent too: staging each wave
/// through `rt.batch()` computes exactly the same dataflow result as the
/// singleton submissions, on the same randomized programs, at every worker
/// count.
#[test]
fn randomized_dags_run_identically_when_submitted_in_batches() {
    let mut rng = Xoshiro256StarStar::new(0x0B47_C4ED);
    for case in 0..CASES {
        let program = gen_program(&mut rng);
        let expected = run_sequential(&program);
        for workers in [1usize, 2, 8] {
            let actual = run_parallel_with(&program, workers, Submission::Batched);
            assert_eq!(
                actual, expected,
                "case {case}: batched {workers} workers diverged from the sequential semantics"
            );
        }
    }
}

/// Single-worker agreement: a wave submitted as one batch and the same wave
/// submitted as batches of one build the same dependence graph and produce
/// bit-identical region contents on the same randomized programs. (The
/// instantaneous queue interleaving between master and worker is
/// timing-dependent under one-task batches, so the invariant asserted here
/// is graph + dataflow-result identity, which is what the THT results
/// depend on.)
#[test]
fn batched_and_singleton_submission_agree_bit_for_bit_on_fifo() {
    let mut rng = Xoshiro256StarStar::new(0xF1F0_0001);
    for case in 0..CASES {
        let program = gen_program(&mut rng);
        let singleton = run_parallel_with(&program, 1, Submission::Singleton);
        let batched = run_parallel_with(&program, 1, Submission::Batched);
        assert_eq!(singleton, batched, "case {case}");
    }
}

/// Long-running retirement stress: ≥ 50k tasks in waves across 1/2/8
/// workers. The peak resident node count must be
/// bounded by a constant (the in-flight wave), independent of the total
/// number of tasks submitted — the graph must not grow with the run.
#[test]
fn retirement_keeps_live_nodes_bounded_over_long_runs() {
    const WAVES: usize = 40;
    const WAVE_SIZE: usize = 500;
    const CHAINS: usize = 25;
    // 3 worker counts × 40 waves × 500 tasks = 60 000 tasks.
    for workers in [1usize, 2, 8] {
        let rt = RuntimeBuilder::new().workers(workers).build();
        let cells: Vec<Region<f64>> = (0..CHAINS)
            .map(|c| rt.store().register_zeros(format!("cell{c}"), 1).unwrap())
            .collect();
        let incr = rt.register_task_type(
            TaskTypeBuilder::new("incr", |ctx| {
                let v = ctx.arg::<f64>(0)[0];
                ctx.out(0, &[v + 1.0]);
            })
            .inout::<f64>()
            .build(),
        );
        let mut peak_live = 0u64;
        for wave in 1..=WAVES as u64 {
            let mut batch = rt.tasks(incr);
            for t in 0..WAVE_SIZE {
                batch = batch.next().reads_writes(&cells[t % CHAINS]);
            }
            batch.submit_all().expect("stress tasks fit the signature");
            // Mid-flight the resident count is bounded by the wave…
            peak_live = peak_live.max(rt.stats().live_nodes);
            rt.taskwait();
            // …and a drained wave retires completely: memory does not grow
            // with the number of waves already executed.
            let stats = rt.stats();
            assert_eq!(
                stats.live_nodes, 0,
                "{workers} workers: wave {wave} left resident nodes"
            );
            assert_eq!(stats.retired_nodes, wave * WAVE_SIZE as u64);
            assert!(
                peak_live <= WAVE_SIZE as u64,
                "{workers} workers: peak {peak_live} exceeded the wave bound"
            );
        }
        let total = (WAVES * WAVE_SIZE) as u64;
        let stats = rt.stats();
        assert_eq!(stats.executed, total);
        assert_eq!(stats.retired_nodes, total);
        // WAVE_SIZE is a multiple of CHAINS, so every chain grew equally.
        let expected = (WAVES * WAVE_SIZE / CHAINS) as f64;
        for (c, cell) in cells.iter().enumerate() {
            assert_eq!(
                rt.store().read(*cell).lock().as_f64(),
                &[expected],
                "{workers} workers: chain {c}"
            );
        }
        rt.shutdown();
    }
}

/// A pure inout chain is the worst case for dependence release (every task
/// serialises on the previous one): the chain must still run strictly in
/// order under maximal worker counts.
#[test]
fn long_inout_chains_serialise_under_contention() {
    let rt = RuntimeBuilder::new().workers(8).build();
    let cell = rt.store().register_zeros::<f64>("cell", 1).unwrap();
    let tt = rt.register_task_type(
        TaskTypeBuilder::new("incr", |ctx| {
            let v = ctx.arg::<f64>(0)[0];
            ctx.out(0, &[v + 1.0]);
        })
        .inout::<f64>()
        .build(),
    );
    for _ in 0..500 {
        rt.task(tt).reads_writes(&cell).submit().unwrap();
    }
    rt.taskwait();
    assert_eq!(rt.store().read(cell).lock().as_f64(), &[500.0]);
    assert_eq!(rt.stats().executed, 500);
    rt.shutdown();
}

/// Wide fan-out: one producer releases hundreds of consumers at once; all
/// of them (and nothing else) must run, at every width.
#[test]
fn wide_fanout_releases_every_consumer_exactly_once() {
    for workers in [2usize, 8] {
        let rt = RuntimeBuilder::new().workers(workers).build();
        let src = rt.store().register_zeros::<f64>("src", 1).unwrap();
        let outs: Vec<Region<f64>> = (0..300)
            .map(|i| rt.store().register_zeros(format!("o{i}"), 1).unwrap())
            .collect();
        let produce = rt.register_task_type(
            TaskTypeBuilder::new("produce", |ctx| ctx.out(0, &[7.0f64]))
                .out::<f64>()
                .build(),
        );
        let consume = rt.register_task_type(
            TaskTypeBuilder::new("consume", |ctx| {
                let v = ctx.arg::<f64>(0)[0];
                ctx.out(1, &[v * 2.0]);
            })
            .arg::<f64>()
            .out::<f64>()
            .build(),
        );
        rt.task(produce).writes(&src).submit().unwrap();
        for out in &outs {
            rt.task(consume).reads(&src).writes(out).submit().unwrap();
        }
        rt.taskwait();
        for out in &outs {
            assert_eq!(
                rt.store().read(*out).lock().as_f64(),
                &[14.0],
                "{workers} workers"
            );
        }
        assert_eq!(rt.stats().executed, 301);
        assert_eq!(rt.ready_depth(), 0);
        rt.shutdown();
    }
}

/// The region-shard locks under three-way contention: two submitters flood
/// their own chain, a shared chain and a fresh scratch region per round
/// (batches of one and of three), while a third thread loops on the gauges
/// (`rt.stats()` locks every shard in turn) and deregisters each scratch
/// region once drained. No hang, exact counts, and the index ends at the
/// three surviving regions.
#[test]
fn submitters_gauges_and_deregistration_share_the_shard_locks() {
    const ROUNDS: usize = 2_000;
    let rt = RuntimeBuilder::new().workers(2).build();
    let incr = rt.register_task_type(
        TaskTypeBuilder::new("incr", |ctx| ctx.out(0, &[ctx.arg::<f64>(0)[0] + 1.0]))
            .inout::<f64>()
            .build(),
    );
    let cell = |name: String| rt.store().register_zeros::<f64>(name, 1).unwrap();
    let shared = cell("shared".into());
    let own = [cell("own0".into()), cell("own1".into())];
    let (scratch_tx, scratch_rx) = mpsc::channel::<Region<f64>>();
    std::thread::scope(|scope| {
        for (submitter, own) in own.iter().enumerate() {
            let (scratch_tx, cell) = (scratch_tx.clone(), &cell);
            let rt = &rt;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let scratch = cell(format!("scratch{submitter}.{round}"));
                    let chain = [own, &shared, &scratch];
                    if round % 2 == 0 {
                        for region in chain {
                            rt.task(incr).reads_writes(region).submit().unwrap();
                        }
                    } else {
                        let batch = chain
                            .iter()
                            .fold(rt.tasks(incr), |b, region| b.next().reads_writes(*region));
                        batch.submit_all().unwrap();
                    }
                    scratch_tx.send(scratch).unwrap();
                }
            });
        }
        drop(scratch_tx);
        let (mut pending, mut open) = (Vec::new(), true);
        while open || !pending.is_empty() {
            match scratch_rx.try_recv() {
                Ok(region) => pending.push(region),
                Err(mpsc::TryRecvError::Disconnected) => open = false,
                Err(mpsc::TryRecvError::Empty) => {}
            }
            assert!(rt.stats().live_index_regions <= 3 + 2 * ROUNDS as u64);
            pending.retain(|region| match rt.deregister_region(*region) {
                Ok(bytes) => {
                    assert_eq!(bytes, std::mem::size_of::<f64>());
                    false
                }
                Err(DeregisterError::LiveAccessors(_)) => true,
                Err(other) => panic!("unexpected deregistration error: {other:?}"),
            });
        }
    });
    rt.taskwait();
    let stats = rt.stats();
    assert_eq!(stats.submitted, 6 * ROUNDS as u64);
    assert_eq!(stats.executed, 6 * ROUNDS as u64);
    assert_eq!(stats.live_nodes, 0);
    assert_eq!(stats.live_index_regions, 3, "shared + own chains only");
    assert_eq!(
        rt.store().read(shared).lock().as_f64(),
        &[2.0 * ROUNDS as f64]
    );
    for own in &own {
        assert_eq!(rt.store().read(*own).lock().as_f64(), &[ROUNDS as f64]);
    }
    rt.shutdown();
}
