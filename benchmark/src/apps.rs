//! `apps-exact` and `apps-approx`: the six paper applications at bench
//! sizes, ATM on (static or dynamic) interleaved with no-ATM baseline
//! rounds. Few fat tasks: whole-input hashing and copy-out do the memo
//! work, the runtime does almost none.

use crate::env::peak_rss_mib;
use crate::gen::derive_seed;
use crate::json::Json;
use crate::outcome::{Budget, Metrics, Outcome, RunCtx};
use crate::probes::{self, ProbeShape};
use crate::spec::APP_NAMES;
use crate::stats::{median, Measured};
use crate::trace::{Span, Tracer};
use atm_apps::blackscholes::{Blackscholes, BlackscholesConfig};
use atm_apps::kmeans::{Kmeans, KmeansConfig};
use atm_apps::sparselu::{SparseLu, SparseLuConfig};
use atm_apps::stencil::{Stencil, StencilConfig, StencilVariant};
use atm_apps::swaptions::{Swaptions, SwaptionsConfig};
use atm_apps::{AppRun, BenchmarkApp, RunOptions};
use atm_core::AtmConfig;
use atm_metrics::{correctness_percent, euclidean_relative_error, geometric_mean};
use std::time::Instant;

/// Which memoization regime the ATM-on rounds run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// `AtmConfig::static_atm()`: THT+IKT at p = 100 %, bit-exact.
    Exact,
    /// `AtmConfig::dynamic_atm()`: each app's own `memo_spec()`.
    Approx,
}

impl Regime {
    fn workload(self) -> &'static str {
        match self {
            Regime::Exact => "apps-exact",
            Regime::Approx => "apps-approx",
        }
    }

    fn atm(self) -> AtmConfig {
        match self {
            Regime::Exact => AtmConfig::static_atm(),
            Regime::Approx => AtmConfig::dynamic_atm(),
        }
    }
}

/// `apps-approx` must keep every program at least this correct (percent).
pub const APPROX_CORRECTNESS_FLOOR: f64 = 95.0;
/// A no-ATM round may differ from the sequential reference by at most this
/// relative error (the taskified apps reorder no floating-point reduction,
/// so today the difference is exactly 0).
const BASELINE_ERROR_LIMIT: f64 = 1e-9;

/// The six generated instances with their sequential references computed.
pub struct AppSet {
    apps: Vec<(&'static str, Box<dyn BenchmarkApp>)>,
    pub configs: Json,
}

/// Bench-sized configurations (README "App configurations"). Every
/// instance is generated from `--seed`. A no-ATM round lasts 0.2–0.3 s with
/// two workers (Sparse LU 0.04 s), so one pass fits six A/B pairs of all six
/// apps into its run time.
///
/// Blackscholes' pool is two blocks long, so the portfolio alternates two
/// distinct block types: under dynamic ATM a sampled key can match the
/// *other* type, and it is training's job to catch that (no wrong price in
/// 620 seeds x runs; with four distinct types 7 % of seeds, with eight most
/// seeds price a quarter of the portfolio wrong — README "Findings").
///
/// Sparse LU stays at ten blocks a side: its training then never completes
/// a window of 30 accepted comparisons in a row (at most 24 comparisons in
/// 400 seeds x runs), so dynamic ATM keeps executing every `bmod`. From 16
/// to 18 blocks a side training does end, at p around 0.0001, and about one
/// run in twelve then bypasses a `bmod` with the output of an unrelated
/// block and returns garbage (correctness 0 %). A workload on which one run
/// in twelve fails cannot carry a bound, so the benchmark records the
/// finding and stays below it.
fn build(seed: u64, smoke: bool) -> AppSet {
    let s = |stream: &str| derive_seed(seed, stream);
    let bs = if smoke {
        BlackscholesConfig {
            options: 1 << 13,
            block_size: 1024,
            distinct_options: 2 * 1024,
            iterations: 2,
            seed: s("apps/blackscholes"),
        }
    } else {
        BlackscholesConfig {
            options: 1 << 20,
            block_size: 4096,
            distinct_options: 2 * 4096,
            iterations: 8,
            seed: s("apps/blackscholes"),
        }
    };
    let stencil = |stream: &str, iterations: usize| {
        if smoke {
            StencilConfig {
                blocks: 4,
                block_size: 32,
                iterations: 3,
                wall_temperature: 1.0,
                init_levels: 2,
                seed: s(stream),
            }
        } else {
            StencilConfig {
                blocks: 12,
                block_size: 128,
                iterations,
                wall_temperature: 1.0,
                init_levels: 2,
                seed: s(stream),
            }
        }
    };
    let gs = stencil("apps/gs", 18);
    let jacobi = stencil("apps/jacobi", 28);
    let kmeans = if smoke {
        KmeansConfig {
            points: 8_192,
            dims: 16,
            clusters: 8,
            block_size: 1_024,
            iterations: 4,
            seed: s("apps/kmeans"),
        }
    } else {
        KmeansConfig {
            points: 262_144,
            dims: 32,
            clusters: 8,
            block_size: 2_048,
            iterations: 12,
            seed: s("apps/kmeans"),
        }
    };
    let lu = if smoke {
        SparseLuConfig {
            blocks: 6,
            block_size: 16,
            density: 0.5,
            distinct_blocks: 2,
            seed: s("apps/lu"),
        }
    } else {
        SparseLuConfig {
            blocks: 10,
            block_size: 128,
            density: 0.5,
            distinct_blocks: 4,
            seed: s("apps/lu"),
        }
    };
    let swaptions = if smoke {
        SwaptionsConfig {
            swaptions: 32,
            distinct: 8,
            trials: 200,
            steps: 16,
            seed: s("apps/swaptions"),
        }
    } else {
        SwaptionsConfig {
            swaptions: 256,
            distinct: 48,
            trials: 2_000,
            steps: 32,
            seed: s("apps/swaptions"),
        }
    };
    let configs = Json::obj([
        ("blackscholes", Json::str(format!("{bs:?}"))),
        ("gs", Json::str(format!("{gs:?}"))),
        ("jacobi", Json::str(format!("{jacobi:?}"))),
        ("kmeans", Json::str(format!("{kmeans:?}"))),
        ("lu", Json::str(format!("{lu:?}"))),
        ("swaptions", Json::str(format!("{swaptions:?}"))),
    ]);
    let apps: Vec<(&'static str, Box<dyn BenchmarkApp>)> = vec![
        (APP_NAMES[0], Box::new(Blackscholes::new(bs))),
        (
            APP_NAMES[1],
            Box::new(Stencil::new(StencilVariant::GaussSeidel, gs)),
        ),
        (
            APP_NAMES[2],
            Box::new(Stencil::new(StencilVariant::Jacobi, jacobi)),
        ),
        (APP_NAMES[3], Box::new(Kmeans::new(kmeans))),
        (APP_NAMES[4], Box::new(SparseLu::new(lu))),
        (APP_NAMES[5], Box::new(Swaptions::new(swaptions))),
    ];
    for (_, app) in &apps {
        // The sequential reference is part of set-up: every round verifies
        // against it.
        let _ = app.reference();
    }
    AppSet { apps, configs }
}

/// What one program round leaves behind once its output is verified.
#[derive(Debug, Clone, Default)]
struct Round {
    wall_s: f64,
    /// Tasks finished: executed + bypassed + deferred.
    finished: f64,
    submitted: f64,
    executed: f64,
    bypassed: f64,
    deferred: f64,
    kernel_ns: f64,
    creation_ns: f64,
    seen: f64,
    tht_hits: f64,
    ikt_deferred: f64,
    training_hits: f64,
    engine_executed: f64,
    hash_ns: f64,
    copy_ns: f64,
    store_hits: f64,
    store_misses: f64,
    insertions: f64,
    evictions: f64,
    rejected_admissions: f64,
    saved_ns: f64,
    resident_bytes: f64,
    entries: f64,
    /// Selection percentage of the memoized type when the round ended.
    final_p: f64,
    steady_types: f64,
    correctness_pct: f64,
    output_error: f64,
    /// Output equal to the sequential reference bit for bit.
    bit_identical: bool,
}

impl Round {
    fn reused(&self) -> f64 {
        self.tht_hits + self.ikt_deferred
    }

    fn reuse_pct(&self) -> f64 {
        if self.seen == 0.0 {
            0.0
        } else {
            100.0 * self.reused() / self.seen
        }
    }
}

/// Verifies a round's output and keeps its counters. Correctness is the
/// Euclidean relative error against the sequential reference (paper Eq. 3)
/// for every app. Sparse LU's own metric (Eq. 4, a dense O(n³) residual)
/// costs forty times the factorisation it checks, so the benchmark judges
/// LU against its reference factors like the other five.
fn digest(app: &dyn BenchmarkApp, run: &AppRun) -> Round {
    let reference = app.reference();
    let output_error = euclidean_relative_error(reference, &run.output);
    let memo_types: Vec<_> = run.type_summaries.values().filter(|t| t.seen > 0).collect();
    Round {
        wall_s: run.wall.as_secs_f64(),
        finished: (run.runtime_stats.executed
            + run.runtime_stats.bypassed
            + run.runtime_stats.deferred) as f64,
        submitted: run.runtime_stats.submitted as f64,
        executed: run.runtime_stats.executed as f64,
        bypassed: run.runtime_stats.bypassed as f64,
        deferred: run.runtime_stats.deferred as f64,
        kernel_ns: run.runtime_stats.kernel_ns as f64,
        creation_ns: run.runtime_stats.creation_ns as f64,
        seen: run.atm_stats.seen as f64,
        tht_hits: run.atm_stats.tht_bypassed as f64,
        ikt_deferred: run.atm_stats.ikt_deferred as f64,
        training_hits: run.atm_stats.training_hits as f64,
        engine_executed: run.atm_stats.executed as f64,
        hash_ns: run.atm_stats.hash_ns as f64,
        copy_ns: run.atm_stats.copy_ns as f64,
        store_hits: run.store_counters.hits as f64,
        store_misses: run.store_counters.misses as f64,
        insertions: run.store_counters.insertions as f64,
        evictions: run.store_counters.evictions as f64,
        rejected_admissions: run.store_counters.rejected_admissions as f64,
        saved_ns: run.store_counters.saved_ns as f64,
        resident_bytes: run.store_counters.resident_bytes as f64,
        entries: run.store_counters.entries as f64,
        final_p: if memo_types.is_empty() {
            1.0
        } else {
            geometric_mean(&memo_types.iter().map(|t| t.final_p).collect::<Vec<_>>())
        },
        steady_types: memo_types.iter().filter(|t| t.steady).count() as f64,
        correctness_pct: correctness_percent(output_error),
        output_error,
        bit_identical: run.output.len() == reference.len()
            && run
                .output
                .iter()
                .zip(reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
    }
}

/// The rounds of one side (ATM on, baseline, observed) per app.
#[derive(Default)]
struct Side {
    rounds: Vec<Vec<Round>>,
}

impl Side {
    fn new() -> Self {
        Side {
            rounds: (0..APP_NAMES.len()).map(|_| Vec::new()).collect(),
        }
    }

    fn walls(&self, app: usize) -> Vec<f64> {
        self.rounds[app].iter().map(|r| r.wall_s).collect()
    }

    fn median_wall(&self, app: usize) -> f64 {
        median(&self.walls(app))
    }

    /// Σ over apps of the per-app median of `f`: the workload-level figure
    /// of a per-round quantity. Its noise is the spread of the per-round
    /// sums.
    fn sum_of_medians(&self, f: impl Fn(&Round) -> f64) -> Measured {
        let value = self
            .rounds
            .iter()
            .map(|rounds| median(&rounds.iter().map(&f).collect::<Vec<_>>()))
            .sum();
        let complete = self.rounds.iter().map(Vec::len).min().unwrap_or(0);
        let per_round: Vec<f64> = (0..complete)
            .map(|r| self.rounds.iter().map(|rounds| f(&rounds[r])).sum())
            .collect();
        Measured::with_spread_of(value, &per_round)
    }

    fn all(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().flatten()
    }
}

/// Runs program rounds and keeps the operation tally.
struct Player<'a> {
    set: &'a AppSet,
    attempted: u64,
    failed: u64,
}

impl Player<'_> {
    fn play(&mut self, side: &mut Side, app: usize, options: &RunOptions, gate: Option<Regime>) {
        let (_, instance) = &self.set.apps[app];
        let round = digest(instance.as_ref(), &instance.run_tasked(options));
        self.attempted += 1;
        self.failed += u64::from(round_failed(gate, &round));
        side.rounds[app].push(round);
    }

    fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Verifies one round against the regime's gate; returns true when it
/// counts as failed.
fn round_failed(regime: Option<Regime>, round: &Round) -> bool {
    match regime {
        Some(Regime::Exact) => !round.bit_identical,
        Some(Regime::Approx) => round.correctness_pct < APPROX_CORRECTNESS_FLOOR,
        None => round.output_error > BASELINE_ERROR_LIMIT,
    }
}

pub fn run(ctx: &RunCtx, regime: Regime) -> Outcome {
    let workers = ctx.sizing.workers;
    let mut setup = Vec::new();
    let mut set = None;
    for _ in 0..ctx.setup_reps() {
        let started = Instant::now();
        set = Some(build(ctx.seed, ctx.smoke));
        setup.push(started.elapsed().as_secs_f64());
    }
    let set = set.expect("at least one set-up repetition");
    let mut outcome = Outcome::new(
        regime.workload(),
        Json::obj([("app_configs", set.configs.clone())]),
    );
    let on_options = RunOptions::with_atm(workers, regime.atm());
    let off_options = RunOptions::baseline(workers);

    let mut player = Player {
        set: &set,
        attempted: 0,
        failed: 0,
    };

    // Every round either pass plays is gated, not only the rounds a metric
    // is taken from: the sides with ATM on, and the no-ATM sides.
    let (mut atm_sides, mut baseline_sides) = (Vec::new(), Vec::new());

    if ctx.trace.untraced() {
        let (mut on, mut off) = (Side::new(), Side::new());
        let budget = Budget::new(ctx.seconds);
        let mut pairs = 0usize;
        loop {
            let pair_started = Instant::now();
            for app in 0..set.apps.len() {
                // ABAB…: the side that goes first flips every pair so slow
                // drift lands on both sides alike.
                if pairs.is_multiple_of(2) {
                    player.play(&mut on, app, &on_options, Some(regime));
                    player.play(&mut off, app, &off_options, None);
                } else {
                    player.play(&mut off, app, &off_options, None);
                    player.play(&mut on, app, &on_options, Some(regime));
                }
            }
            pairs += 1;
            if ctx.smoke || !budget.has_room_for(pair_started.elapsed().as_secs_f64()) {
                break;
            }
        }
        end_to_end(
            &mut outcome.end_to_end,
            &setup,
            &on,
            &off,
            player.ok_share(),
        );
        atm_sides.push(on);
        baseline_sides.push(off);
    }

    if ctx.trace.traced() {
        let tracer = Tracer::new();
        let observed_options = on_options.clone().observed();
        let (mut observed, mut on, mut off) = (Side::new(), Side::new(), Side::new());
        // Probes need about 2.5 s of their own; the rounds get the rest.
        let budget = Budget::new((ctx.seconds - 13.0 * ctx.probe_seconds()).max(1.0));
        loop {
            let triple_started = Instant::now();
            for app in 0..set.apps.len() {
                let start_ns = tracer.now_ns();
                player.play(&mut observed, app, &observed_options, Some(regime));
                tracer.record(Span {
                    name: set.apps[app].0,
                    layer: "apps",
                    start_ns,
                    end_ns: tracer.now_ns(),
                    parent: "",
                    id: observed.rounds[app].len() as u64,
                });
                player.play(&mut on, app, &on_options, Some(regime));
                player.play(&mut off, app, &off_options, None);
            }
            if ctx.smoke || !budget.has_room_for(triple_started.elapsed().as_secs_f64()) {
                break;
            }
        }
        per_layer(&mut outcome.per_layer, workers, &observed, &on, &off);
        let shape = probe_shape(&set, &observed);
        probes::run(ctx, shape, &tracer, &mut outcome.per_layer);
        tracer.drain().conclude(&mut outcome, &ctx.out_dir);
        atm_sides.extend([observed, on]);
        baseline_sides.push(off);
    }
    gates(&mut outcome, regime, &atm_sides, &baseline_sides);
    outcome.attempted = player.attempted;
    outcome.failed = player.failed;
    outcome
}

fn end_to_end(out: &mut Metrics, setup: &[f64], on: &Side, off: &Side, ok_share: f64) {
    let wall = on.sum_of_medians(|r| r.wall_s);
    let finished = on.sum_of_medians(|r| r.finished).value;
    let speedups: Vec<f64> = (0..APP_NAMES.len())
        .map(|app| off.median_wall(app) / on.median_wall(app))
        .collect();
    let program_walls: Vec<f64> = (0..APP_NAMES.len())
        .map(|app| on.median_wall(app))
        .collect();
    let seen = on.sum_of_medians(|r| r.seen).value;
    let reused = on.sum_of_medians(Round::reused).value;
    out.set("setup_s", Measured::of(setup));
    out.set("wall_s", wall);
    out.set("baseline_wall_s", off.sum_of_medians(|r| r.wall_s));
    out.single("speedup_geomean", geometric_mean(&speedups));
    out.single("tasks_per_s", finished / wall.value);
    out.single(
        "correctness_pct",
        on.all()
            .map(|r| r.correctness_pct)
            .fold(f64::INFINITY, f64::min),
    );
    out.single("reuse_pct", 100.0 * reused / seen.max(1.0));
    out.single("ok_share", ok_share);
    out.single("peak_rss_mb", peak_rss_mib());
    // The unit of work a batch user waits for is one program run: the
    // typical and the slowest of the six programs' median turnarounds.
    out.single("req_p50_us", median(&program_walls) * 1e6);
    out.single(
        "req_p99_us",
        program_walls.iter().copied().fold(0.0, f64::max) * 1e6,
    );
    // Goodput counts verified work only; a round that fails its gate fails
    // the run, so on a correct run this is every task finished.
    out.single("sat_goodput_rps", ok_share * finished / wall.value);
}

/// One set of gates per program over every round played: `atm` the sides
/// with ATM on (untraced, observed), `baseline` the no-ATM sides.
fn gates(outcome: &mut Outcome, regime: Regime, atm: &[Side], baseline: &[Side]) {
    for (app, name) in APP_NAMES.iter().enumerate() {
        let rounds: Vec<&Round> = atm.iter().flat_map(|side| &side.rounds[app]).collect();
        match regime {
            Regime::Exact => {
                let exact = rounds.iter().filter(|r| r.bit_identical).count();
                outcome.gate(
                    &format!("{name}.bit_identical"),
                    exact == rounds.len(),
                    format!(
                        "{exact}/{} ATM-on rounds equal the sequential reference bit for bit",
                        rounds.len()
                    ),
                );
            }
            Regime::Approx => {
                let worst = rounds
                    .iter()
                    .map(|r| r.correctness_pct)
                    .fold(f64::INFINITY, f64::min);
                outcome.gate(
                    &format!("{name}.correctness"),
                    worst >= APPROX_CORRECTNESS_FLOOR,
                    format!("min correctness {worst:.4} % (floor {APPROX_CORRECTNESS_FLOOR} %)"),
                );
            }
        }
        let worst = baseline
            .iter()
            .flat_map(|side| &side.rounds[app])
            .map(|r| r.output_error)
            .fold(0.0, f64::max);
        outcome.gate(
            &format!("{name}.baseline"),
            worst <= BASELINE_ERROR_LIMIT,
            format!("max no-ATM output error {worst:e}"),
        );
        let unreconciled = rounds
            .iter()
            .filter(|r| !store_reconciles(regime, r))
            .count();
        outcome.gate(
            &format!("{name}.store_reconciles"),
            unreconciled == 0,
            format!("{unreconciled} rounds where store lookups and engine counters disagree"),
        );
    }
}

/// Every memoizable task the engine sees probes the store exactly once
/// (before the IKT is consulted), so `hits + misses` must equal `seen`.
/// The one exception is dynamic ATM's steady state, where a task writing a
/// region black-listed during training executes without probing: there
/// lookups may fall short of `seen`, never exceed it. A bypass or a
/// training hit is always a store hit.
fn store_reconciles(regime: Regime, r: &Round) -> bool {
    let lookups = r.store_hits + r.store_misses;
    let probes_match = match regime {
        Regime::Exact => lookups == r.seen,
        Regime::Approx => lookups <= r.seen,
    };
    probes_match && r.store_hits >= r.tht_hits + r.training_hits
}

fn per_layer(out: &mut Metrics, workers: usize, observed: &Side, on: &Side, off: &Side) {
    let w = workers as f64;
    let sum = |f: fn(&Round) -> f64| observed.sum_of_medians(f);
    let wall = sum(|r| r.wall_s).value;
    let hash = sum(|r| r.hash_ns);
    let copy = sum(|r| r.copy_ns);
    let kernel = sum(|r| r.kernel_ns);
    let finished = sum(|r| r.finished).value.max(1.0);
    let seen = sum(|r| r.seen).value.max(1.0);
    out.set("core.key.hash_s_total", hash.scaled(1e-9));
    out.single("core.key.hash_share", hash.value / (w * wall * 1e9));
    out.set("core.engine.copy_s_total", copy.scaled(1e-9));
    // Bytes copied out: every reuse copies one stored entry of its app.
    let copied_bytes: f64 = observed
        .rounds
        .iter()
        .map(|rounds| {
            median(
                &rounds
                    .iter()
                    .map(|r| r.reused() * r.resident_bytes / r.entries.max(1.0))
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    out.single(
        "core.engine.copy_ns_per_byte",
        if copied_bytes > 0.0 {
            copy.value / copied_bytes
        } else {
            0.0
        },
    );
    out.set("core.engine.seen", sum(|r| r.seen));
    out.set("core.engine.tht_hits", sum(|r| r.tht_hits));
    out.set("core.engine.executed", sum(|r| r.engine_executed));
    out.single("core.engine.hit_ratio", sum(|r| r.tht_hits).value / seen);
    out.set("core.ikt.deferred", sum(|r| r.ikt_deferred));
    let final_ps: Vec<f64> = observed
        .rounds
        .iter()
        .map(|rounds| median(&rounds.iter().map(|r| r.final_p).collect::<Vec<_>>()))
        .collect();
    out.single("core.training.final_p_geomean", geometric_mean(&final_ps));
    out.set("core.training.steady_types", sum(|r| r.steady_types));
    out.set("core.training.training_hits", sum(|r| r.training_hits));
    let (hits, misses) = (sum(|r| r.store_hits), sum(|r| r.store_misses));
    out.set("store.hits", hits);
    out.set("store.misses", misses);
    out.set("store.insertions", sum(|r| r.insertions));
    out.set("store.evictions", sum(|r| r.evictions));
    out.set("store.rejected_admissions", sum(|r| r.rejected_admissions));
    out.single(
        "store.hit_ratio",
        hits.value / (hits.value + misses.value).max(1.0),
    );
    out.set(
        "store.resident_mb",
        sum(|r| r.resident_bytes).scaled(1.0 / (1024.0 * 1024.0)),
    );
    out.set("store.entries", sum(|r| r.entries));
    out.set("store.saved_kernel_s", sum(|r| r.saved_ns).scaled(1e-9));
    out.single(
        "runtime.submit_ns_per_task",
        sum(|r| r.creation_ns).value / sum(|r| r.submitted).value.max(1.0),
    );
    out.set("runtime.kernel_s_total", kernel.scaled(1e-9));
    out.single(
        "runtime.overhead_ns_per_task",
        (w * wall * 1e9 - kernel.value - hash.value - copy.value) / finished,
    );
    out.set("runtime.submitted", sum(|r| r.submitted));
    out.set("runtime.executed", sum(|r| r.executed));
    out.set("runtime.bypassed", sum(|r| r.bypassed));
    out.set("runtime.deferred", sum(|r| r.deferred));
    let untraced_wall = on.sum_of_medians(|r| r.wall_s);
    out.single(
        "obs.traced_overhead_pct",
        100.0 * (wall / untraced_wall.value - 1.0),
    );
    for (app, name) in APP_NAMES.iter().enumerate() {
        let seen_rounds = &observed.rounds[app];
        let med = |f: fn(&Round) -> f64| median(&seen_rounds.iter().map(f).collect::<Vec<_>>());
        out.set(&format!("apps.{name}.wall_s"), Measured::of(&on.walls(app)));
        out.set(
            &format!("apps.{name}.baseline_wall_s"),
            Measured::of(&off.walls(app)),
        );
        out.single(&format!("apps.{name}.reuse_pct"), med(Round::reuse_pct));
        out.single(
            &format!("apps.{name}.correctness_pct"),
            seen_rounds
                .iter()
                .chain(&on.rounds[app])
                .map(|r| r.correctness_pct)
                .fold(f64::INFINITY, f64::min),
        );
        out.single(&format!("apps.{name}.final_p"), med(|r| r.final_p));
        out.single(
            &format!("apps.{name}.hash_share"),
            med(|r| r.hash_ns) / (w * med(|r| r.wall_s) * 1e9),
        );
    }
    out.single("bench.round_spread_pct", 100.0 * untraced_wall.spread());
    out.single("bench.rounds", on.rounds[0].len() as f64);
}

/// The workload's own shape for the probes: task-weighted mean input
/// bytes from `table_info()`, mean stored-entry bytes as the output size,
/// the geomean of the final selection percentages, the largest app's
/// end-of-run store occupancy.
fn probe_shape(set: &AppSet, observed: &Side) -> ProbeShape {
    let (mut bytes, mut tasks) = (0.0, 0.0);
    for (_, app) in &set.apps {
        let info = app.table_info();
        bytes += info.task_input_bytes as f64 * info.num_tasks as f64;
        tasks += info.num_tasks as f64;
    }
    let last: Vec<&Round> = observed.rounds.iter().filter_map(|r| r.last()).collect();
    let entries: f64 = last.iter().map(|r| r.entries).sum();
    let resident: f64 = last.iter().map(|r| r.resident_bytes).sum();
    ProbeShape {
        input_bytes: (bytes / tasks.max(1.0)) as usize,
        output_bytes: if entries > 0.0 {
            (resident / entries) as usize
        } else {
            4096
        },
        p: geometric_mean(&last.iter().map(|r| r.final_p).collect::<Vec<_>>()),
        entries: last.iter().map(|r| r.entries as usize).max().unwrap_or(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_round() -> Round {
        Round {
            wall_s: 0.1,
            seen: 10.0,
            tht_hits: 6.0,
            store_hits: 6.0,
            store_misses: 4.0,
            correctness_pct: 100.0,
            bit_identical: true,
            ..Round::default()
        }
    }

    #[test]
    fn a_corrupted_expected_value_fails_the_exact_gate() {
        let set = build(1, true);
        let (_, app) = &set.apps[0];
        let options = RunOptions::with_atm(1, AtmConfig::static_atm());
        let mut run = app.run_tasked(&options);
        let good = digest(app.as_ref(), &run);
        assert!(good.bit_identical && !round_failed(Some(Regime::Exact), &good));
        // One flipped low mantissa bit: far inside any tolerance, still not
        // the reference.
        run.output[0] = f64::from_bits(run.output[0].to_bits() ^ 1);
        let bad = digest(app.as_ref(), &run);
        assert!(!bad.bit_identical);
        assert!(round_failed(Some(Regime::Exact), &bad));
        assert!(
            !round_failed(Some(Regime::Approx), &bad),
            "within the approximate floor"
        );

        let mut outcome = Outcome::new("apps-exact", Json::Null);
        let (mut on, mut off) = (Side::new(), Side::new());
        for app in 0..APP_NAMES.len() {
            on.rounds[app].push(if app == 0 { bad.clone() } else { exact_round() });
            off.rounds[app].push(exact_round());
        }
        gates(&mut outcome, Regime::Exact, &[on], &[off]);
        assert!(!outcome.correct());
        let failed: Vec<_> = outcome.gates.iter().filter(|g| !g.ok).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "blackscholes.bit_identical");
    }

    #[test]
    fn a_wrong_round_of_the_traced_pass_fails_the_gate_too() {
        let clean = || {
            let mut side = Side::new();
            for app in 0..APP_NAMES.len() {
                side.rounds[app].push(exact_round());
            }
            side
        };
        let mut observed = clean();
        observed.rounds[3][0].correctness_pct = 40.0;
        let mut outcome = Outcome::new("apps-approx", Json::Null);
        gates(
            &mut outcome,
            Regime::Approx,
            &[clean(), observed, clean()],
            &[clean(), clean()],
        );
        let failed: Vec<_> = outcome.gates.iter().filter(|g| !g.ok).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "kmeans.correctness");

        let mut drifted = clean();
        drifted.rounds[1][0].output_error = 1e-3;
        let mut outcome = Outcome::new("apps-approx", Json::Null);
        gates(
            &mut outcome,
            Regime::Approx,
            &[clean()],
            &[clean(), drifted],
        );
        let failed: Vec<_> = outcome.gates.iter().filter(|g| !g.ok).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "gs.baseline");
    }

    #[test]
    fn approx_gate_enforces_the_correctness_floor() {
        let mut low = exact_round();
        low.correctness_pct = 94.9;
        assert!(round_failed(Some(Regime::Approx), &low));
        assert!(!round_failed(Some(Regime::Approx), &exact_round()));
        let mut drifted = exact_round();
        drifted.output_error = 1e-6;
        assert!(round_failed(None, &drifted));
    }

    #[test]
    fn store_lookups_must_reconcile_with_engine_seen() {
        assert!(store_reconciles(Regime::Exact, &exact_round()));
        let mut lost = exact_round();
        lost.store_misses = 2.0; // 8 lookups for 10 seen
        assert!(!store_reconciles(Regime::Exact, &lost));
        assert!(
            store_reconciles(Regime::Approx, &lost),
            "black-listed outputs skip the probe"
        );
        let mut phantom = exact_round();
        phantom.store_hits = 5.0; // fewer store hits than bypasses
        phantom.store_misses = 5.0;
        assert!(!store_reconciles(Regime::Exact, &phantom));
        let mut extra = exact_round();
        extra.store_misses = 6.0; // more lookups than tasks seen
        assert!(!store_reconciles(Regime::Approx, &extra));
    }

    #[test]
    fn generated_inputs_depend_on_the_seed() {
        let a = build(1, true);
        let b = build(2, true);
        assert_eq!(a.configs, build(1, true).configs);
        assert_ne!(a.configs, b.configs);
        for (app, name) in APP_NAMES.iter().enumerate() {
            assert_ne!(
                a.apps[app].1.reference(),
                b.apps[app].1.reference(),
                "{name} ignores the seed"
            );
        }
    }

    #[test]
    fn sum_of_medians_adds_per_app_medians_and_keeps_round_spread() {
        let mut side = Side::new();
        for app in 0..APP_NAMES.len() {
            for wall in [1.0, 3.0, 2.0] {
                side.rounds[app].push(Round {
                    wall_s: wall,
                    ..Round::default()
                });
            }
        }
        let m = side.sum_of_medians(|r| r.wall_s);
        assert_eq!(m.value, 12.0);
        assert_eq!(m.n, 3);
        assert_eq!((m.q1, m.q3), (6.0, 18.0));
    }
}
