//! One function per table/figure of the paper's evaluation section
//! (`table1`–`table3`, `sizing`, `figure3`–`figure9`), plus the four
//! experiments that go beyond it: memo-store cache pressure (`pressure`),
//! warm start (`warmstart`), the mixed per-type-policy run (`mixed`) and the
//! scheduler sweep over its two supported mode axes (`scaling`) — 15 in all.
//! Cross-commit performance questions belong to `benchmark/run.sh compare`.

use crate::measure::{geomean, EvalContext};
use crate::report::Report;
use atm_apps::{AppId, RunOptions, Scale};
use atm_core::{AtmConfig, AtmEngine, MemoSpec, PolicyKind, StoreCountersSnapshot, ThtConfig};
use atm_obs::{LatencyMetric, MemoDecision, Observability};
use atm_runtime::{Region, RuntimeBuilder, TaskTypeBuilder, ThreadState};
use std::sync::Arc;

/// The experiments the harness can regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table I: benchmark description.
    Table1,
    /// Table II: dynamic ATM parameters.
    Table2,
    /// Table III: ATM memory overhead.
    Table3,
    /// §IV-B: THT sizing sensitivity (N buckets, M ways).
    Sizing,
    /// Figure 3: speedup of Static/Dynamic ATM (THT, THT+IKT) and the Oracles.
    Figure3,
    /// Figure 4: correctness of Static/Dynamic ATM and Oracle (95 %).
    Figure4,
    /// Figure 5: correctness vs constant selection percentage.
    Figure5,
    /// Figure 6: scalability from 1 to 8 cores.
    Figure6,
    /// Figure 7: Gauss-Seidel execution-trace state breakdown at 2 and 8 cores.
    Figure7,
    /// Figure 8: Blackscholes ready-task evolution with and without ATM.
    Figure8,
    /// Figure 9: cumulative reuse generation over the task stream.
    Figure9,
    /// Memo-store cache pressure: byte-budget sweep × eviction policy.
    Pressure,
    /// Cold-start vs warm-start from a persisted memo store.
    WarmStart,
    /// Per-type `MemoSpec` policies (exact, adaptive, fixed-p) running
    /// concurrently in one runtime, with independent per-type trajectories.
    Mixed,
    /// Scheduler throughput: a fine-grained task flood (memoized and not)
    /// swept over worker counts × ready-queue modes × dependence-chain
    /// shapes (count × length), in tasks/sec.
    Scaling,
}

impl Experiment {
    /// All experiments, in the order `atm-eval all` runs them.
    pub const ALL: [Experiment; 15] = [
        Experiment::Table1,
        Experiment::Table2,
        Experiment::Table3,
        Experiment::Sizing,
        Experiment::Figure3,
        Experiment::Figure4,
        Experiment::Figure5,
        Experiment::Figure6,
        Experiment::Figure7,
        Experiment::Figure8,
        Experiment::Figure9,
        Experiment::Pressure,
        Experiment::WarmStart,
        Experiment::Mixed,
        Experiment::Scaling,
    ];

    /// Command-line name.
    pub fn id(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Table3 => "table3",
            Experiment::Sizing => "sizing",
            Experiment::Figure3 => "figure3",
            Experiment::Figure4 => "figure4",
            Experiment::Figure5 => "figure5",
            Experiment::Figure6 => "figure6",
            Experiment::Figure7 => "figure7",
            Experiment::Figure8 => "figure8",
            Experiment::Figure9 => "figure9",
            Experiment::Pressure => "pressure",
            Experiment::WarmStart => "warmstart",
            Experiment::Mixed => "mixed",
            Experiment::Scaling => "scaling",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Experiment> {
        let lower = name.to_ascii_lowercase();
        Experiment::ALL.into_iter().find(|e| e.id() == lower)
    }
}

/// All experiment ids (for `atm-eval --list`).
pub fn all_experiments() -> Vec<&'static str> {
    Experiment::ALL.iter().map(|e| e.id()).collect()
}

/// Runs one experiment under the given context. Every report gains the
/// task-latency percentiles of the tasks the experiment ran (p50/p99 of the
/// submit→finish distribution, plus the kernel and submit-path medians).
pub fn run_experiment(experiment: Experiment, ctx: &EvalContext) -> Report {
    // Drain whatever a previous experiment left behind so the percentiles
    // below cover exactly this experiment's runs.
    let _ = ctx.take_latency();
    let mut report = dispatch_experiment(experiment, ctx);
    let latency = ctx.take_latency();
    let tasks = latency.get(LatencyMetric::TaskLatency);
    report.metric("task_latency_p50_ns", tasks.p50() as f64);
    report.metric("task_latency_p99_ns", tasks.p99() as f64);
    report.metric("task_latency_count", tasks.count as f64);
    report.metric(
        "kernel_p50_ns",
        latency.get(LatencyMetric::Kernel).p50() as f64,
    );
    report.metric(
        "submit_p50_ns",
        latency.get(LatencyMetric::Submit).p50() as f64,
    );
    let release = latency.get(LatencyMetric::Release);
    report.metric("release_p50_ns", release.p50() as f64);
    report.metric("release_p99_ns", release.p99() as f64);
    let memo_lookup = latency.get(LatencyMetric::MemoLookup);
    report.metric("memo_lookup_p50_ns", memo_lookup.p50() as f64);
    report.metric("memo_lookup_p99_ns", memo_lookup.p99() as f64);
    report
}

fn dispatch_experiment(experiment: Experiment, ctx: &EvalContext) -> Report {
    match experiment {
        Experiment::Table1 => table1(ctx),
        Experiment::Table2 => table2(ctx),
        Experiment::Table3 => table3(ctx),
        Experiment::Sizing => sizing(ctx),
        Experiment::Figure3 => figure3(ctx),
        Experiment::Figure4 => figure4(ctx),
        Experiment::Figure5 => figure5(ctx),
        Experiment::Figure6 => figure6(ctx),
        Experiment::Figure7 => figure7(ctx),
        Experiment::Figure8 => figure8(ctx),
        Experiment::Figure9 => figure9(ctx),
        Experiment::Pressure => pressure(ctx),
        Experiment::WarmStart => warmstart(ctx),
        Experiment::Mixed => mixed(ctx),
        Experiment::Scaling => scaling(ctx),
    }
}

/// Table I: benchmark description (program inputs, task input sizes and
/// types, memoized task type, task counts, correctness target).
pub fn table1(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "table1",
        "Table I — Benchmarks description",
        "benchmark,program_inputs,task_input_bytes,task_input_types,memoized_task_type,num_tasks,correctness_on",
    );
    report.linef(format_args!(
        "{:<13} {:>16} {:<12} {:<22} {:>9}  {}",
        "Benchmark", "TaskInput(B)", "Types", "Memoized task type", "#tasks", "Correctness on"
    ));
    for id in AppId::ALL {
        let app = ctx.app(id);
        let info = app.table_info();
        report.linef(format_args!(
            "{:<13} {:>16} {:<12} {:<22} {:>9}  {}",
            id.name(),
            info.task_input_bytes,
            info.task_input_types,
            info.memoized_task_type,
            info.num_tasks,
            info.correctness_on
        ));
        report.row(format!(
            "{},{:?},{},{},{},{},{}",
            id.short_name(),
            info.program_inputs,
            info.task_input_bytes,
            info.task_input_types,
            info.memoized_task_type,
            info.num_tasks,
            info.correctness_on
        ));
    }
    report
}

/// Table II: the dynamic ATM parameters (`L_training`, `τ_max`) per benchmark.
pub fn table2(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "table2",
        "Table II — Dynamic ATM parameters",
        "benchmark,l_training,tau_max_percent",
    );
    report.linef(format_args!(
        "{:<13} {:>10} {:>9}",
        "Benchmark", "Ltraining", "tau_max"
    ));
    for id in AppId::ALL {
        let spec = ctx.app(id).memo_spec();
        report.linef(format_args!(
            "{:<13} {:>10} {:>8.0}%",
            id.name(),
            spec.training_window_len(),
            spec.tau_max() * 100.0
        ));
        report.row(format!(
            "{},{},{}",
            id.short_name(),
            spec.training_window_len(),
            spec.tau_max() * 100.0
        ));
    }
    report
}

/// Table III: ATM memory overhead with respect to the application footprint.
pub fn table3(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "table3",
        "Table III — ATM memory overhead (% of application footprint)",
        "benchmark,atm_bytes,app_bytes,overhead_percent",
    );
    report.linef(format_args!(
        "{:<13} {:>12} {:>14} {:>10}",
        "Benchmark", "ATM (bytes)", "App (bytes)", "Overhead"
    ));
    let mut overheads = Vec::new();
    for id in AppId::ALL {
        let m = ctx.measure(
            id,
            &RunOptions::with_atm(ctx.workers, AtmConfig::dynamic_atm()),
        );
        let overhead = m.memory_overhead_percent;
        overheads.push(overhead);
        report.linef(format_args!(
            "{:<13} {:>12} {:>14} {:>9.2}%",
            id.name(),
            m.run.atm_memory_bytes,
            m.run.app_memory_bytes,
            overhead
        ));
        report.row(format!(
            "{},{},{},{:.3}",
            id.short_name(),
            m.run.atm_memory_bytes,
            m.run.app_memory_bytes,
            overhead
        ));
    }
    let avg = overheads.iter().sum::<f64>() / overheads.len().max(1) as f64;
    report.linef(format_args!("{:<13} {:>38} {:>9.2}%", "average", "", avg));
    report
}

/// §IV-B: sensitivity of the THT sizing — the number of index bits `N`
/// (lock/bucket contention) and the associativity `M` (capacity).
pub fn sizing(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "sizing",
        "Section IV-B — THT sizing (N index bits, M ways)",
        "benchmark,parameter,value,speedup,reuse_percent",
    );
    // N sweep on Blackscholes (the most memoization-intensive benchmark)
    // with M fixed at the paper's value, then an M sweep on Kmeans (the
    // benchmark the paper singles out as needing M = 128).
    let n_values = [0u32, 2, 4, 8];
    let m_values = [1usize, 16, 128];

    report.line("N sweep (Blackscholes, Dynamic ATM, M = 128):");
    for &n in &n_values {
        let config = AtmConfig::dynamic_atm().with_tht(ThtConfig {
            bucket_bits: n,
            ways: 128,
        });
        let m = ctx.measure(
            AppId::Blackscholes,
            &RunOptions::with_atm(ctx.workers, config),
        );
        let speedup = ctx.speedup(AppId::Blackscholes, ctx.workers, &m);
        report.linef(format_args!(
            "  N = {n:>2}  speedup {speedup:>6.2}x  reuse {:>5.1}%",
            m.reuse_percent
        ));
        report.row(format!(
            "blackscholes,N,{n},{speedup:.4},{:.2}",
            m.reuse_percent
        ));
    }
    report.line("M sweep (Kmeans, Dynamic ATM, N = 8):");
    for &ways in &m_values {
        let config = AtmConfig::dynamic_atm().with_tht(ThtConfig {
            bucket_bits: 8,
            ways,
        });
        let m = ctx.measure(AppId::Kmeans, &RunOptions::with_atm(ctx.workers, config));
        let speedup = ctx.speedup(AppId::Kmeans, ctx.workers, &m);
        report.linef(format_args!(
            "  M = {ways:>3}  speedup {speedup:>6.2}x  reuse {:>5.1}%",
            m.reuse_percent
        ));
        report.row(format!(
            "kmeans,M,{ways},{speedup:.4},{:.2}",
            m.reuse_percent
        ));
    }
    report
}

/// Figure 3: speedup of Static and Dynamic ATM, with THT only and THT+IKT,
/// plus the Oracle (100 %) and Oracle (95 %) configurations.
pub fn figure3(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "figure3",
        "Figure 3 — Speedup over the no-ATM baseline (same worker count)",
        "benchmark,configuration,speedup",
    );
    let configs: [(&str, AtmConfig); 4] = [
        ("Static ATM (THT)", AtmConfig::static_atm().without_ikt()),
        ("Dynamic ATM (THT)", AtmConfig::dynamic_atm().without_ikt()),
        ("Static ATM (THT+IKT)", AtmConfig::static_atm()),
        ("Dynamic ATM (THT+IKT)", AtmConfig::dynamic_atm()),
    ];
    report.linef(format_args!(
        "{:<13} {:>14} {:>15} {:>18} {:>19} {:>13} {:>12}",
        "Benchmark",
        "Static(THT)",
        "Dynamic(THT)",
        "Static(THT+IKT)",
        "Dynamic(THT+IKT)",
        "Oracle(100%)",
        "Oracle(95%)"
    ));

    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for id in AppId::ALL {
        let mut row = Vec::new();
        for (_, config) in &configs {
            let m = ctx.measure(id, &RunOptions::with_atm(ctx.workers, *config));
            row.push(ctx.speedup(id, ctx.workers, &m));
        }
        for min_correctness in [99.999_999, 95.0] {
            let speedup = match ctx.measure_oracle(id, ctx.workers, min_correctness) {
                Some(m) => ctx.speedup(id, ctx.workers, &m),
                None => f64::NAN,
            };
            row.push(speedup);
        }
        report.linef(format_args!(
            "{:<13} {:>13.2}x {:>14.2}x {:>17.2}x {:>18.2}x {:>12.2}x {:>11.2}x",
            id.name(),
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            row[5]
        ));
        let labels = [
            "static_tht",
            "dynamic_tht",
            "static_tht_ikt",
            "dynamic_tht_ikt",
            "oracle_100",
            "oracle_95",
        ];
        for (label, value) in labels.iter().zip(&row) {
            report.row(format!("{},{},{:.4}", id.short_name(), label, value));
        }
        for (slot, value) in per_config.iter_mut().zip(&row) {
            slot.push(*value);
        }
    }
    let geo: Vec<f64> = per_config.iter().map(|v| geomean(v)).collect();
    report.linef(format_args!(
        "{:<13} {:>13.2}x {:>14.2}x {:>17.2}x {:>18.2}x {:>12.2}x {:>11.2}x",
        "geomean", geo[0], geo[1], geo[2], geo[3], geo[4], geo[5]
    ));
    let labels = [
        "static_tht",
        "dynamic_tht",
        "static_tht_ikt",
        "dynamic_tht_ikt",
        "oracle_100",
        "oracle_95",
    ];
    for (label, value) in labels.iter().zip(&geo) {
        report.row(format!("geomean,{label},{value:.4}"));
    }
    report
}

/// Figure 4: correctness of Static ATM, Dynamic ATM and Oracle (95 %).
pub fn figure4(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "figure4",
        "Figure 4 — Correctness (%) of Static ATM, Dynamic ATM and Oracle (95%)",
        "benchmark,configuration,correctness_percent",
    );
    report.linef(format_args!(
        "{:<13} {:>12} {:>13} {:>13}",
        "Benchmark", "Static ATM", "Dynamic ATM", "Oracle(95%)"
    ));
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for id in AppId::ALL {
        let static_c = ctx
            .measure(
                id,
                &RunOptions::with_atm(ctx.workers, AtmConfig::static_atm()),
            )
            .correctness;
        let dynamic_c = ctx
            .measure(
                id,
                &RunOptions::with_atm(ctx.workers, AtmConfig::dynamic_atm()),
            )
            .correctness;
        let oracle_c = ctx
            .measure_oracle(id, ctx.workers, 95.0)
            .map(|m| m.correctness)
            .unwrap_or(f64::NAN);
        report.linef(format_args!(
            "{:<13} {:>11.2}% {:>12.2}% {:>12.2}%",
            id.name(),
            static_c,
            dynamic_c,
            oracle_c
        ));
        for (label, value) in [
            ("static", static_c),
            ("dynamic", dynamic_c),
            ("oracle_95", oracle_c),
        ] {
            report.row(format!("{},{},{:.4}", id.short_name(), label, value));
        }
        per_config[0].push(static_c);
        per_config[1].push(dynamic_c);
        per_config[2].push(oracle_c);
    }
    report.linef(format_args!(
        "{:<13} {:>11.2}% {:>12.2}% {:>12.2}%",
        "geomean",
        geomean(&per_config[0]),
        geomean(&per_config[1]),
        geomean(&per_config[2])
    ));
    report
}

/// Figure 5: program correctness as a function of a constant selection
/// percentage `p`, plus the `p` chosen by Dynamic ATM (the starred points).
pub fn figure5(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "figure5",
        "Figure 5 — Correctness vs constant selection percentage p",
        "benchmark,p,correctness_percent,reuse_percent,dynamic_choice",
    );
    for id in AppId::ALL {
        let sweep = ctx.p_sweep(id);
        let dynamic_run = ctx.measure(
            id,
            &RunOptions::with_atm(ctx.workers, AtmConfig::dynamic_atm()),
        );
        let chosen = dynamic_run.final_p.unwrap_or(1.0);
        report.linef(format_args!(
            "{} (dynamic ATM chose p = {:.5}%, correctness {:.2}%):",
            id.name(),
            chosen * 100.0,
            dynamic_run.correctness
        ));
        for entry in sweep.iter() {
            let star = if (entry.p - chosen).abs() / chosen.max(1e-12) < 0.5 {
                "  <-- dynamic"
            } else {
                ""
            };
            report.linef(format_args!(
                "  p = {:>9.5}%  correctness {:>7.2}%  reuse {:>5.1}%{}",
                entry.p * 100.0,
                entry.correctness,
                entry.reuse_percent,
                star
            ));
            report.row(format!(
                "{},{:.8},{:.4},{:.2},{}",
                id.short_name(),
                entry.p,
                entry.correctness,
                entry.reuse_percent,
                if star.is_empty() { 0 } else { 1 }
            ));
        }
    }
    report
}

/// Figure 6: speedup of Dynamic ATM and Oracle (95 %) as the number of
/// worker threads grows from 1 to 8.
pub fn figure6(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "figure6",
        "Figure 6 — Speedup vs number of cores (Dynamic ATM and Oracle 95%)",
        "benchmark,workers,configuration,speedup",
    );
    let worker_counts = [1usize, 2, 4, 8];
    for id in AppId::ALL {
        report.linef(format_args!("{}:", id.name()));
        for &workers in &worker_counts {
            let dynamic = ctx.measure(id, &RunOptions::with_atm(workers, AtmConfig::dynamic_atm()));
            let dynamic_speedup = ctx.speedup(id, workers, &dynamic);
            let oracle_speedup = ctx
                .measure_oracle(id, workers, 95.0)
                .map(|m| ctx.speedup(id, workers, &m))
                .unwrap_or(f64::NAN);
            report.linef(format_args!(
                "  {workers} cores: dynamic {dynamic_speedup:>6.2}x   oracle(95%) {oracle_speedup:>6.2}x"
            ));
            report.row(format!(
                "{},{},dynamic,{:.4}",
                id.short_name(),
                workers,
                dynamic_speedup
            ));
            report.row(format!(
                "{},{},oracle_95,{:.4}",
                id.short_name(),
                workers,
                oracle_speedup
            ));
        }
    }
    report
}

/// Figure 7: Gauss-Seidel execution-trace state breakdown with 2 and 8
/// workers under the Oracle (95 %) configuration.
pub fn figure7(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "figure7",
        "Figure 7 — Gauss-Seidel trace state breakdown (Oracle 95%, 2 vs 8 cores)",
        "workers,state,total_ms,fraction_of_busy_time",
    );
    let oracle_p = ctx
        .oracle(AppId::GaussSeidel)
        .oracle_95
        .map(|e| e.p)
        .unwrap_or(1.0);
    for workers in [2usize, 8] {
        let options = RunOptions::with_atm(workers, AtmConfig::fixed_p(oracle_p)).traced();
        let m = ctx.measure(AppId::GaussSeidel, &options);
        report.linef(format_args!(
            "{} cores (p = {:.4}%):",
            workers,
            oracle_p * 100.0
        ));
        if let Some(trace) = &m.run.trace {
            for state in ThreadState::ALL {
                let ms = trace.state_ns(state) as f64 / 1e6;
                let fraction = trace.state_fraction(state);
                report.linef(format_args!(
                    "  {:<28} {:>9.3} ms  ({:>5.1}%)",
                    state.label(),
                    ms,
                    fraction * 100.0
                ));
                report.row(format!(
                    "{},{},{:.4},{:.4}",
                    workers,
                    state.label(),
                    ms,
                    fraction
                ));
            }
        } else {
            report.line("  (tracing unavailable)");
        }
    }
    report.line("The ATM states (hash-key computation and memoization copies) grow in");
    report.line("relative cost as the worker count rises — the shared-memory contention");
    report.line("effect the paper describes for Gauss-Seidel.");
    report
}

/// Figure 8: Blackscholes ready-queue evolution with and without ATM,
/// showing the task-creation-throughput bottleneck once tasks become cheap.
pub fn figure8(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "figure8",
        "Figure 8 — Blackscholes ready tasks over time, with and without ATM",
        "configuration,sample_index,time_ms,ready_depth",
    );
    for (label, config) in [
        ("no ATM", None),
        ("dynamic ATM", Some(AtmConfig::dynamic_atm())),
    ] {
        let options = match config {
            Some(atm) => RunOptions::with_atm(ctx.workers, atm).traced(),
            None => RunOptions::baseline(ctx.workers).traced(),
        };
        let m = ctx.measure(AppId::Blackscholes, &options);
        let samples = &m.run.ready_samples;
        let max_depth = samples.iter().map(|s| s.value).max().unwrap_or(0);
        let empty_fraction =
            samples.iter().filter(|s| s.value == 0).count() as f64 / samples.len().max(1) as f64;
        report.linef(format_args!(
            "{label}: wall {:.2} ms, {} ready-queue samples, max depth {}, {:.1}% of samples empty",
            m.wall_seconds * 1000.0,
            samples.len(),
            max_depth,
            empty_fraction * 100.0
        ));
        // Down-sample the series to ~32 points for the textual output.
        let step = (samples.len() / 32).max(1);
        for (i, sample) in samples.iter().enumerate().step_by(step) {
            report.row(format!(
                "{},{},{:.4},{}",
                label.replace(' ', "_"),
                i,
                sample.t_ns as f64 / 1e6,
                sample.value
            ));
        }
        report.linef(format_args!(
            "  depth profile (each char = {} samples): {}",
            step,
            samples
                .iter()
                .step_by(step)
                .map(|s| depth_glyph(s.value, max_depth))
                .collect::<String>()
        ));
    }
    report.line("With ATM the workers drain memoized tasks faster than the master thread");
    report.line("can create them, so the ready queue stays near empty — the creation-");
    report.line("throughput bottleneck the paper identifies.");
    report
}

fn depth_glyph(depth: u64, max_depth: u64) -> char {
    if max_depth == 0 {
        return '_';
    }
    let levels = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let idx = (depth * (levels.len() as u64 - 1)).div_ceil(max_depth);
    levels[(idx as usize).min(levels.len() - 1)]
}

/// Figure 9: cumulative reuse generated over the (normalised) task stream,
/// per benchmark, including the single-iteration Blackscholes variant.
pub fn figure9(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "figure9",
        "Figure 9 — Cumulative reuse generation over the task stream (Dynamic ATM)",
        "benchmark,normalized_producer_rank,cumulative_reuse_fraction",
    );
    for id in AppId::ALL {
        // Traced: the capture handle's decision stream never drops, so the
        // provenance read back from it is the whole run's.
        let m = ctx.measure(
            id,
            &RunOptions::with_atm(ctx.workers, AtmConfig::dynamic_atm()).traced(),
        );
        assert_eq!(m.run.decisions.dropped, 0, "figure 9 needs full provenance");
        let total_tasks = m.run.runtime_stats.submitted.max(1);
        // Task ids pack shard/slot/generation rather than counting tasks
        // 0..N, so raw ids no longer measure position in the task stream.
        // Rank the distinct producers by id (generation sits in the high
        // bits, making the sort a coarse creation-order proxy) and plot
        // cumulative reuse over that normalised rank instead.
        let mut producer_ids: Vec<u64> = m
            .run
            .reuse_events
            .iter()
            .map(|e| e.producer.raw())
            .collect();
        producer_ids.sort_unstable();
        let total_reuse = producer_ids.len();
        let mut distinct = producer_ids.clone();
        distinct.dedup();
        report.linef(format_args!(
            "{:<13} {} reuse events over {} tasks (reuse {:.1}%)",
            id.name(),
            total_reuse,
            total_tasks,
            m.reuse_percent
        ));
        if total_reuse == 0 {
            report.row(format!("{},1.0,0.0", id.short_name()));
            continue;
        }
        // Cumulative reuse as a function of the normalised producer rank,
        // reported at deciles.
        let mut line = String::from("  cumulative reuse at producer-rank deciles: ");
        for decile in 1..=10 {
            let cutoff_rank = (distinct.len() * decile).div_ceil(10).min(distinct.len());
            let cutoff_id = distinct[cutoff_rank.max(1) - 1];
            let generated = producer_ids.partition_point(|&p| p <= cutoff_id);
            let fraction = generated as f64 / total_reuse as f64;
            line.push_str(&format!("{:.2} ", fraction));
            report.row(format!(
                "{},{:.1},{:.4}",
                id.short_name(),
                decile as f64 / 10.0,
                fraction
            ));
        }
        report.line(line);
    }
    report.line("Benchmarks whose redundancy lives in the program input (Blackscholes,");
    report.line("Kmeans) generate most of their reuse early in the task stream, while the");
    report.line("stencils and LU keep generating reuse across the whole execution.");
    report
}

/// Result of one cache-pressure round (one policy at one budget).
struct PressureRound {
    counters: StoreCountersSnapshot,
    /// Hits observed in the replay phase (phase 2).
    replay_hits: u64,
}

/// One cache-pressure round: a synthetic workload with three task types of
/// very different cost/size profiles, run twice (populate, then replay)
/// under one eviction policy and one byte budget.
///
/// * `heavy` — expensive kernel, tiny output: high benefit density;
/// * `light` — trivial kernel, 32 KiB output: low benefit density;
/// * `giant` — trivial kernel, 128 KiB output: admission-control bait at
///   tight budgets.
///
/// Under a budget that cannot hold the light entries, a cost-aware policy
/// keeps the heavy entries (saving kernel time on replay) while FIFO keeps
/// whatever arrived last.
fn pressure_round(policy: PolicyKind, budget: Option<usize>) -> PressureRound {
    const HEAVY: usize = 12;
    const LIGHT: usize = 12;
    const GIANT: usize = 2;

    let mut config = AtmConfig::static_atm()
        .with_policy(policy)
        .with_tht(ThtConfig {
            bucket_bits: 4,
            ways: 1024,
        });
    if let Some(bytes) = budget {
        config = config.with_byte_budget(bytes);
    }
    let engine = AtmEngine::shared(config);
    let rt = RuntimeBuilder::new()
        .workers(2)
        .interceptor(engine.clone())
        .build();

    let heavy_tt = rt.register_task_type(
        TaskTypeBuilder::new("pressure_heavy", |ctx| {
            let x = ctx.arg::<f64>(0);
            let mut out = [0.0f64; 16];
            for (i, slot) in out.iter_mut().enumerate() {
                let mut v = x[i % x.len()];
                for _ in 0..4000 {
                    v = (v.sin() + 1.25).sqrt();
                }
                *slot = v;
            }
            ctx.out(1, &out);
        })
        .arg::<f64>()
        .out::<f64>()
        .memoizable()
        .build(),
    );
    let light_tt = rt.register_task_type(
        TaskTypeBuilder::new("pressure_light", |ctx| {
            let x = ctx.arg::<f64>(0);
            let out: Vec<f64> = (0..4096).map(|i| x[i % x.len()] + i as f64).collect();
            ctx.out(1, &out);
        })
        .arg::<f64>()
        .out::<f64>()
        .memoizable()
        .build(),
    );
    let giant_tt = rt.register_task_type(
        TaskTypeBuilder::new("pressure_giant", |ctx| {
            let x = ctx.arg::<f64>(0);
            let out: Vec<f64> = (0..16384).map(|i| x[i % x.len()] * 0.5).collect();
            ctx.out(1, &out);
        })
        .arg::<f64>()
        .out::<f64>()
        .memoizable()
        .build(),
    );

    let inputs = |tag: &str, count: usize, len: usize| -> Vec<Region<f64>> {
        (0..count)
            .map(|i| {
                rt.store()
                    .register_typed(
                        format!("{tag}_in{i}"),
                        (0..len)
                            .map(|j| (i * len + j) as f64 * 0.125 + 0.5)
                            .collect::<Vec<f64>>(),
                    )
                    .unwrap()
            })
            .collect()
    };
    let heavy_in = inputs("heavy", HEAVY, 16);
    let light_in = inputs("light", LIGHT, 16);
    let giant_in = inputs("giant", GIANT, 16);

    let mut out_serial = 0usize;
    let mut submit_wave = |tts: &[(atm_runtime::TaskTypeId, &[Region<f64>], usize)]| {
        for &(tt, ins, out_len) in tts {
            for input in ins {
                let out = rt
                    .store()
                    .register_zeros::<f64>(format!("out{out_serial}"), out_len)
                    .unwrap();
                out_serial += 1;
                rt.task(tt).reads(input).writes(&out).submit().unwrap();
            }
            // A barrier per type keeps the populate order deterministic:
            // heavy entries are the oldest, giants the newest.
            rt.taskwait();
        }
    };

    // Phase 1: populate.
    submit_wave(&[
        (heavy_tt, &heavy_in, 16),
        (light_tt, &light_in, 4096),
        (giant_tt, &giant_in, 16384),
    ]);
    let after_populate = engine.store_counters();

    // Phase 2: replay the same inputs; hits accrue saved kernel time.
    submit_wave(&[
        (heavy_tt, &heavy_in, 16),
        (light_tt, &light_in, 4096),
        (giant_tt, &giant_in, 16384),
    ]);
    let counters = engine.store_counters();
    let replay_hits = counters.hits - after_populate.hits;
    rt.shutdown();
    PressureRound {
        counters,
        replay_hits,
    }
}

/// The cache-pressure budget sweep: for each eviction policy and each byte
/// budget, populate the store, replay the same task stream and report what
/// the store kept and how much kernel time the hits saved.
pub fn pressure(_ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "pressure",
        "Memo-store cache pressure — byte-budget sweep × eviction policy",
        "budget_bytes,policy,replay_hits,insertions,evictions,rejected_admissions,resident_bytes,entries,saved_kernel_ms",
    );
    // 48 KiB holds the heavy entries and barely one light entry; 192 KiB a
    // handful of light entries; `None` is the paper's unlimited table.
    let budgets: [Option<usize>; 3] = [None, Some(192 * 1024), Some(48 * 1024)];
    for budget in budgets {
        // One naming scheme per budget, used by both the human-readable
        // lines and the JSON metric prefixes so they can never drift apart.
        let (label, budget_tag) = match budget {
            None => ("unlimited".to_string(), "unlimited".to_string()),
            Some(bytes) => (
                format!("{} KiB", bytes / 1024),
                format!("{}k", bytes / 1024),
            ),
        };
        report.linef(format_args!("budget {label}:"));
        for policy in PolicyKind::ALL {
            let round = pressure_round(policy, budget);
            let c = round.counters;
            report.linef(format_args!(
                "  {:<10} replay hits {:>3}  evictions {:>3}  rejected {:>2}  resident {:>7} B  saved {:>9.3} ms",
                policy.name(),
                round.replay_hits,
                c.evictions,
                c.rejected_admissions,
                c.resident_bytes,
                c.saved_ns as f64 / 1e6,
            ));
            report.row(format!(
                "{},{},{},{},{},{},{},{},{:.4}",
                budget.unwrap_or(0),
                policy.name(),
                round.replay_hits,
                c.insertions,
                c.evictions,
                c.rejected_admissions,
                c.resident_bytes,
                c.entries,
                c.saved_ns as f64 / 1e6,
            ));
            let prefix = format!("{budget_tag}_{}", policy.name().replace('-', "_"));
            report.metric(format!("{prefix}_replay_hits"), round.replay_hits as f64);
            report.metric(format!("{prefix}_hits"), c.hits as f64);
            report.metric(format!("{prefix}_misses"), c.misses as f64);
            report.metric(format!("{prefix}_insertions"), c.insertions as f64);
            report.metric(format!("{prefix}_evictions"), c.evictions as f64);
            report.metric(
                format!("{prefix}_rejected_admissions"),
                c.rejected_admissions as f64,
            );
            report.metric(format!("{prefix}_resident_bytes"), c.resident_bytes as f64);
            report.metric(format!("{prefix}_saved_ns"), c.saved_ns as f64);
        }
    }
    report.line("Under pressure the cost-aware policy retains the expensive-to-recompute,");
    report.line("cheap-to-store entries, so replaying the stream saves the most kernel time;");
    report.line("FIFO retains whatever arrived last, and admission control keeps the giant");
    report.line("outputs from flushing the table at tight budgets.");
    report
}

/// The cold-vs-warm-start experiment: a synthetic stream whose memo store is
/// persisted and reloaded, plus an application-level warm start through the
/// apps' `RunOptions`.
pub fn warmstart(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "warmstart",
        "Cold start vs warm start from a persisted memo store",
        "section,run,executed,tht_hits,first_taskwait_hits,hit_rate_percent",
    );

    // --- Section A: synthetic stream, hit rate at the first taskwait. ---
    let path = std::env::temp_dir().join(format!("atm-eval-warmstart-{}.bin", std::process::id()));
    const TASKS: usize = 8;
    let run_stream = |engine: Arc<AtmEngine>| -> (u64, u64) {
        let rt = RuntimeBuilder::new()
            .workers(2)
            .interceptor(engine.clone())
            .build();
        let tt = rt.register_task_type(
            TaskTypeBuilder::new("warm_square", |ctx| {
                let x = ctx.arg::<f64>(0);
                let y: Vec<f64> = x.iter().map(|v| v * v + 1.0).collect();
                ctx.out(1, &y);
            })
            .arg::<f64>()
            .out::<f64>()
            .memoizable()
            .build(),
        );
        for i in 0..TASKS {
            let input = rt
                .store()
                .register_typed(format!("in{i}"), vec![i as f64 + 0.25; 256])
                .unwrap();
            let out = rt
                .store()
                .register_zeros::<f64>(format!("out{i}"), 256)
                .unwrap();
            rt.task(tt).reads(&input).writes(&out).submit().unwrap();
        }
        // The *first* taskwait of this run: everything before it either hit
        // the warm-started table or had to execute.
        rt.taskwait();
        let stats = engine.stats();
        rt.shutdown();
        (stats.executed, stats.tht_bypassed)
    };

    let cold_engine = AtmEngine::shared(AtmConfig::static_atm());
    let (cold_executed, cold_hits) = run_stream(cold_engine.clone());
    cold_engine
        .save_store(&path)
        .expect("persisting the memo store");

    let warm_engine = AtmEngine::shared(AtmConfig::static_atm());
    let reloaded = warm_engine
        .warm_start_from(&path)
        .expect("reloading the memo store");
    let (warm_executed, warm_hits) = run_stream(warm_engine.clone());
    let _ = std::fs::remove_file(&path);

    let rate = |hits: u64| 100.0 * hits as f64 / TASKS as f64;
    report.linef(format_args!(
        "synthetic stream ({TASKS} distinct tasks, {reloaded} entries reloaded):"
    ));
    report.linef(format_args!(
        "  cold start: {cold_executed} executed, {cold_hits} THT hits at the first taskwait ({:.0}%)",
        rate(cold_hits)
    ));
    report.linef(format_args!(
        "  warm start: {warm_executed} executed, {warm_hits} THT hits at the first taskwait ({:.0}%)",
        rate(warm_hits)
    ));
    report.row(format!(
        "synthetic,cold,{cold_executed},{cold_hits},{cold_hits},{:.2}",
        rate(cold_hits)
    ));
    report.row(format!(
        "synthetic,warm,{warm_executed},{warm_hits},{warm_hits},{:.2}",
        rate(warm_hits)
    ));
    report.metric("synthetic_entries_reloaded", reloaded as f64);
    report.metric("synthetic_cold_first_taskwait_hits", cold_hits as f64);
    report.metric("synthetic_warm_first_taskwait_hits", warm_hits as f64);
    report.metric("synthetic_warm_executed", warm_executed as f64);

    // --- Section B: application-level warm start through RunOptions. ---
    let app_path =
        std::env::temp_dir().join(format!("atm-eval-warmstart-app-{}.bin", std::process::id()));
    let cold = ctx.measure(
        AppId::Blackscholes,
        &RunOptions::with_atm(ctx.workers, AtmConfig::static_atm()).saving_store(&app_path),
    );
    let warm = ctx.measure(
        AppId::Blackscholes,
        &RunOptions::with_atm(ctx.workers, AtmConfig::static_atm()).warm_started(&app_path),
    );
    let _ = std::fs::remove_file(&app_path);
    report.line("blackscholes (app-level, via RunOptions::warm_started):");
    report.linef(format_args!(
        "  cold: executed {:>5}, store hits {:>5}, wall {:.2} ms",
        cold.run.atm_stats.executed,
        cold.run.store_counters.hits,
        cold.wall_seconds * 1000.0
    ));
    report.linef(format_args!(
        "  warm: executed {:>5}, store hits {:>5}, wall {:.2} ms",
        warm.run.atm_stats.executed,
        warm.run.store_counters.hits,
        warm.wall_seconds * 1000.0
    ));
    for (label, m) in [("cold", &cold), ("warm", &warm)] {
        let seen = m.run.atm_stats.seen.max(1);
        report.row(format!(
            "blackscholes,{label},{},{},{},{:.2}",
            m.run.atm_stats.executed,
            m.run.store_counters.hits,
            m.run.store_counters.hits,
            100.0 * m.run.store_counters.hits as f64 / seen as f64
        ));
        let c = m.run.store_counters;
        report.metric(
            format!("blackscholes_{label}_executed"),
            m.run.atm_stats.executed as f64,
        );
        report.metric(format!("blackscholes_{label}_hits"), c.hits as f64);
        report.metric(format!("blackscholes_{label}_misses"), c.misses as f64);
        report.metric(
            format!("blackscholes_{label}_insertions"),
            c.insertions as f64,
        );
        report.metric(
            format!("blackscholes_{label}_evictions"),
            c.evictions as f64,
        );
        report.metric(
            format!("blackscholes_{label}_resident_bytes"),
            c.resident_bytes as f64,
        );
        report.metric(format!("blackscholes_{label}_saved_ns"), c.saved_ns as f64);
    }
    report.line("A warm-started run hits the table from its very first task: the cold run's");
    report.line("executions are the price paid exactly once per distinct input.");
    report
}

/// Per-type outcome of the mixed-policy run, pairing the engine's
/// `TypeSummary` counters with the per-type counts of the memo-decision
/// audit stream. The two views come from independent code paths; the mixed
/// experiment asserts they reconcile exactly.
#[derive(Debug, Clone)]
struct MixedTypeOutcome {
    name: String,
    seen: u64,
    executed_estimate: u64,
    training_hits: u64,
    tht_bypassed: u64,
    ikt_deferred: u64,
    final_p: f64,
    steady: bool,
    /// `ThtHit` decision events of this type.
    decision_tht_hits: u64,
    /// `IktDefer` decision events of this type.
    decision_ikt_defers: u64,
    /// `TrainingAccept` decision events of this type.
    decision_accepts: u64,
    /// `TrainingReject` decision events of this type.
    decision_rejects: u64,
}

impl MixedTypeOutcome {
    /// True when the audit stream agrees with the engine counters.
    fn reconciles(&self) -> bool {
        self.decision_tht_hits == self.tht_bypassed
            && self.decision_ikt_defers == self.ikt_deferred
            && self.decision_accepts + self.decision_rejects == self.training_hits
    }
}

/// Runs three memoizable task types with different [`MemoSpec`]s — exact,
/// adaptive `τ_max`, and fixed `p` — concurrently in one runtime under the
/// spec-respecting engine mode, and returns each type's independent
/// hit/precision trajectory.
///
/// Every wave submits, per payload and per type, one *identical*
/// resubmission (the pristine input region) and one *perturbed* copy (the
/// same values with the lowest mantissa bit of some elements flipped). The
/// three policies then diverge on the same stream:
///
/// * the **exact** type hits only the identical resubmissions and executes
///   every perturbed copy;
/// * the **adaptive** type trains its own `p` down to the minimum and then
///   bypasses both kinds;
/// * the **fixed-p** type (25 %, MSB-first) never samples the perturbed
///   low-mantissa bytes, so it bypasses both kinds from its first wave —
///   without any training.
///
/// One worker keeps the task stream order (and therefore every counter)
/// deterministic; the policies, not the parallelism, are under test.
fn mixed_run(ctx: &EvalContext) -> Vec<MixedTypeOutcome> {
    const WAVES: usize = 4;
    // One payload per type: at the training ladder's smallest p only a
    // single MSB byte is sampled, so distinct payloads of one type can
    // alias during training and make the counters input-dependent — the
    // policies, not that aliasing, are what this experiment demonstrates.
    const PAYLOADS: usize = 1;
    const ELEMS: usize = 64;

    let obs = Arc::new(Observability::enabled());
    let engine =
        Arc::new(AtmEngine::new(AtmConfig::dynamic_atm()).with_observability(Arc::clone(&obs)));
    let rt = RuntimeBuilder::new()
        .workers(1)
        .observability(Arc::clone(&obs))
        .interceptor(engine.clone() as Arc<dyn atm_runtime::TaskInterceptor>)
        .build();

    let square = |ctx: &atm_runtime::TaskContext<'_>| {
        let x = ctx.arg::<f64>(0);
        let out: Vec<f64> = x.iter().map(|v| v * v).collect();
        ctx.out(1, &out);
    };
    let types = [
        rt.register_task_type(
            TaskTypeBuilder::new("mixed_exact", square)
                .arg::<f64>()
                .out::<f64>()
                .memo(MemoSpec::exact())
                .build(),
        ),
        rt.register_task_type(
            TaskTypeBuilder::new("mixed_adaptive", square)
                .arg::<f64>()
                .out::<f64>()
                .memo(MemoSpec::approximate().tau(0.2).training_window(2))
                .build(),
        ),
        rt.register_task_type(
            TaskTypeBuilder::new("mixed_fixed", square)
                .arg::<f64>()
                .out::<f64>()
                .memo(MemoSpec::fixed_precision(0.25))
                .build(),
        ),
    ];

    let payload =
        |j: usize| -> Vec<f64> { (0..ELEMS).map(|e| (j * ELEMS + e) as f64 + 1.5).collect() };
    // Low-mantissa noise, distinct per wave: flips the lowest mantissa bits
    // of every third element — invisible to MSB-first selection at small
    // p, caught by exact hashing.
    let perturbed = |j: usize, wave: usize| -> Vec<f64> {
        payload(j)
            .into_iter()
            .enumerate()
            .map(|(e, v)| {
                if e % 3 == 0 {
                    f64::from_bits(v.to_bits() ^ (wave as u64 + 1))
                } else {
                    v
                }
            })
            .collect()
    };

    let pristine: Vec<Vec<Region<f64>>> = (0..3)
        .map(|t| {
            (0..PAYLOADS)
                .map(|j| {
                    rt.store()
                        .register_typed(format!("mixed_in_{t}_{j}"), payload(j))
                        .unwrap()
                })
                .collect()
        })
        .collect();

    let mut serial = 0usize;
    for wave in 0..WAVES {
        #[allow(clippy::needless_range_loop)]
        for j in 0..PAYLOADS {
            for (t, tt) in types.iter().enumerate() {
                // Identical resubmission.
                let out = rt
                    .store()
                    .register_zeros::<f64>(format!("mixed_out{serial}"), ELEMS)
                    .unwrap();
                serial += 1;
                rt.task(*tt)
                    .reads(&pristine[t][j])
                    .writes(&out)
                    .submit()
                    .unwrap();
                // Perturbed copy.
                let noisy = rt
                    .store()
                    .register_typed(format!("mixed_noisy{serial}"), perturbed(j, wave))
                    .unwrap();
                let out = rt
                    .store()
                    .register_zeros::<f64>(format!("mixed_out{serial}"), ELEMS)
                    .unwrap();
                serial += 1;
                rt.task(*tt).reads(&noisy).writes(&out).submit().unwrap();
            }
        }
        rt.taskwait();
    }

    let summaries = engine.type_summaries();
    let decisions = obs.decisions();
    let mut outcomes: Vec<MixedTypeOutcome> = summaries
        .iter()
        .map(|(type_id, s)| {
            let t = type_id.index() as u32;
            MixedTypeOutcome {
                name: s.name.clone(),
                seen: s.seen,
                executed_estimate: s.seen - s.tht_bypassed - s.ikt_deferred,
                training_hits: s.training_hits,
                tht_bypassed: s.tht_bypassed,
                ikt_deferred: s.ikt_deferred,
                final_p: s.final_p,
                steady: s.steady,
                decision_tht_hits: decisions.count(t, MemoDecision::ThtHit),
                decision_ikt_defers: decisions.count(t, MemoDecision::IktDefer),
                decision_accepts: decisions.count(t, MemoDecision::TrainingAccept),
                decision_rejects: decisions.count(t, MemoDecision::TrainingReject),
            }
        })
        .collect();
    outcomes.sort_by(|a, b| a.name.cmp(&b.name));
    rt.shutdown();
    ctx.absorb_latency(&obs.metrics());
    outcomes
}

/// The mixed per-type-policy experiment: the acceptance demonstration of
/// the `MemoSpec` redesign (one runtime, three policies, independent
/// per-type trajectories).
pub fn mixed(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "mixed",
        "Mixed per-type MemoSpec policies in one runtime (exact / adaptive / fixed-p)",
        "task_type,policy,seen,executed,training_hits,tht_bypassed,final_p,steady",
    );
    let policies = [
        ("mixed_adaptive", "approximate(tau=0.2,window=2)"),
        ("mixed_exact", "exact"),
        ("mixed_fixed", "fixed_precision(0.25)"),
    ];
    report.linef(format_args!(
        "{:<15} {:<28} {:>5} {:>9} {:>9} {:>9} {:>10} {:>7}",
        "Task type", "Policy", "seen", "executed", "training", "bypassed", "final_p", "steady"
    ));
    let mut all_reconcile = true;
    for outcome in mixed_run(ctx) {
        all_reconcile &= outcome.reconciles();
        let policy = policies
            .iter()
            .find(|(n, _)| *n == outcome.name)
            .map(|(_, p)| *p)
            .unwrap_or("?");
        report.linef(format_args!(
            "{:<15} {:<28} {:>5} {:>9} {:>9} {:>9} {:>10.5} {:>7}",
            outcome.name,
            policy,
            outcome.seen,
            outcome.executed_estimate,
            outcome.training_hits,
            outcome.tht_bypassed,
            outcome.final_p,
            outcome.steady
        ));
        report.row(format!(
            "{},{},{},{},{},{},{:.8},{}",
            outcome.name,
            policy,
            outcome.seen,
            outcome.executed_estimate,
            outcome.training_hits,
            outcome.tht_bypassed,
            outcome.final_p,
            outcome.steady
        ));
        let prefix = outcome.name.trim_start_matches("mixed_").to_string();
        report.metric(format!("{prefix}_seen"), outcome.seen as f64);
        report.metric(
            format!("{prefix}_executed"),
            outcome.executed_estimate as f64,
        );
        report.metric(
            format!("{prefix}_training_hits"),
            outcome.training_hits as f64,
        );
        report.metric(
            format!("{prefix}_tht_bypassed"),
            outcome.tht_bypassed as f64,
        );
        report.metric(format!("{prefix}_final_p"), outcome.final_p);
        report.metric(
            format!("{prefix}_steady"),
            if outcome.steady { 1.0 } else { 0.0 },
        );
        report.metric(
            format!("{prefix}_decision_tht_hits"),
            outcome.decision_tht_hits as f64,
        );
        report.metric(
            format!("{prefix}_decision_training_accepts"),
            outcome.decision_accepts as f64,
        );
        report.metric(
            format!("{prefix}_decision_training_rejects"),
            outcome.decision_rejects as f64,
        );
    }
    report.metric("decisions_reconcile", if all_reconcile { 1.0 } else { 0.0 });
    report.linef(format_args!(
        "memo-decision audit stream reconciles with the engine counters: {}",
        if all_reconcile { "yes" } else { "NO" }
    ));
    report.line("Each type follows its own declared policy in the same runtime: the exact");
    report.line("type re-executes every perturbed input, the adaptive type trains its own p");
    report.line("and then tolerates the noise, and the fixed-p type tolerates it from the");
    report.line("start — the engine-global mode no longer decides.");
    report
}

/// One round of the fine-grained scheduler flood.
///
/// `chains` independent dependence chains of `chain_len` tasks each are
/// submitted behind a *gate* task that blocks until every submission is in
/// the graph, so the measured interval is pure scheduler work: dependence
/// release, queueing, dispatch and (for half the chains) THT hits. Odd
/// chains run a trivial increment kernel (always executed); even chains run
/// a memoizable constant kernel whose tasks become THT bypasses after the
/// chain's second step — the "ATM made tasks cheap" regime where the
/// runtime itself is the bottleneck.
///
/// Returns the drain throughput in tasks/sec.
fn flood_round(
    workers: usize,
    chains: usize,
    chain_len: usize,
    obs: Option<&Arc<Observability>>,
) -> f64 {
    use atm_sync::{Condvar, Mutex};

    let mut engine = AtmEngine::new(AtmConfig::static_atm());
    if let Some(obs) = obs {
        engine = engine.with_observability(Arc::clone(obs));
    }
    let mut builder = RuntimeBuilder::new()
        .workers(workers)
        .interceptor(Arc::new(engine) as Arc<dyn atm_runtime::TaskInterceptor>);
    if let Some(obs) = obs {
        builder = builder.observability(Arc::clone(obs));
    }
    let rt = builder.build();

    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let gate_in_kernel = Arc::clone(&gate);
    let gate_tt = rt.register_task_type(
        TaskTypeBuilder::new("flood_gate", move |ctx| {
            let (lock, cvar) = &*gate_in_kernel;
            let mut open = lock.lock();
            while !*open {
                cvar.wait(&mut open);
            }
            ctx.out(0, &[1.0f64]);
        })
        .out::<f64>()
        .build(),
    );
    // No declared signature: the first task of a chain carries an extra
    // read of the gate region, later tasks only their chain cell.
    let plain_tt = rt.register_task_type(
        TaskTypeBuilder::new("flood_incr", |ctx| {
            let idx = ctx.accesses().len() - 1;
            let v = ctx.arg::<f64>(idx)[0];
            ctx.out(idx, &[v + 1.0]);
        })
        .build(),
    );
    let memo_tt = rt.register_task_type(
        TaskTypeBuilder::new("flood_memo", |ctx| {
            let idx = ctx.accesses().len() - 1;
            ctx.out(idx, &[42.0f64]);
        })
        .memoizable()
        .build(),
    );

    let gate_region = rt.store().register_zeros::<f64>("gate", 1).unwrap();
    let cells: Vec<Region<f64>> = (0..chains)
        .map(|c| rt.store().register_zeros(format!("chain{c}"), 1).unwrap())
        .collect();

    rt.task(gate_tt).writes(&gate_region).submit().unwrap();
    for step in 0..chain_len {
        for (c, cell) in cells.iter().enumerate() {
            let tt = if c % 2 == 0 { memo_tt } else { plain_tt };
            let mut task = rt.task(tt);
            if step == 0 {
                task = task.reads(&gate_region);
            }
            task.reads_writes(cell).submit().unwrap();
        }
    }

    // Everything is in the graph, piled up behind the gate: open it and
    // time the drain.
    let started = std::time::Instant::now();
    {
        let (lock, cvar) = &*gate;
        *lock.lock() = true;
        cvar.notify_all();
    }
    rt.taskwait();
    let elapsed = started.elapsed().as_secs_f64();

    // Sanity: the dataflow ran to completion in order.
    for (c, cell) in cells.iter().enumerate() {
        let expected = if c % 2 == 0 { 42.0 } else { chain_len as f64 };
        assert_eq!(
            rt.store().read(*cell).lock().as_f64(),
            &[expected],
            "chain {c} must run its full {chain_len}-task chain in order"
        );
    }
    rt.shutdown();
    (chains * chain_len) as f64 / elapsed.max(1e-9)
}

/// The chain shapes of the scaling sweep for a given scale: (chains,
/// chain_len) pairs from release-burst-heavy (few long chains: large
/// simultaneous fan-out never happens, each finish releases one successor,
/// parallelism is capped by the chain count) to steady-drain-heavy (many
/// short chains: a huge burst of ready roots, then quick drain).
fn scaling_shapes(scale: Scale) -> [(usize, usize); 3] {
    match scale {
        Scale::Tiny => [(4, 256), (32, 32), (256, 4)],
        _ => [(4, 1024), (64, 64), (1024, 4)],
    }
}

/// The scheduler-scaling experiment: tasks/sec of the fine-grained flood per
/// (chain shape × worker count). The chain-shape sweep holds the total task
/// count constant while moving the work's structure from few long
/// dependence chains (release-bound: parallelism capped by the chain count,
/// every handoff a dependence release) to many short ones (drain-bound: one
/// huge ready burst, then queue-throughput limited).
pub fn scaling(ctx: &EvalContext) -> Report {
    let mut report = Report::new(
        "scaling",
        "Scheduler throughput — fine-grained task flood, chain shape × workers",
        "chains,chain_len,workers,tasks,rounds_best_tasks_per_sec",
    );
    let rounds = match ctx.scale {
        Scale::Tiny => 2usize,
        _ => 3,
    };
    // One shared handle across every round: the experiment-level latency
    // percentiles cover the whole sweep.
    let obs = Arc::new(Observability::enabled());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shapes = scaling_shapes(ctx.scale);
    // Best rate of each shape at 4 workers, for the burst-vs-release spread.
    let mut at_four = [0.0f64; 3];
    for (shape, &(chains, chain_len)) in shapes.iter().enumerate() {
        let tasks = chains * chain_len;
        report.linef(format_args!(
            "{chains} chains x {chain_len} tasks ({tasks} tasks/round, best of {rounds} rounds, {cores} cores):"
        ));
        for workers in [1usize, 2, 4] {
            let tps = (0..rounds)
                .map(|_| flood_round(workers, chains, chain_len, Some(&obs)))
                .fold(0.0f64, f64::max);
            report.linef(format_args!("  {workers} workers  {tps:>12.0} tasks/sec"));
            report.row(format!("{chains},{chain_len},{workers},{tasks},{tps:.1}"));
            report.metric(
                format!("c{chains}x{chain_len}_w{workers}_tasks_per_sec"),
                tps,
            );
            if workers == 4 {
                at_four[shape] = tps;
            }
        }
    }
    let (release, burst) = (at_four[0], at_four[2]);
    if release > 0.0 {
        report.metric("w4_burst_over_release", burst / release);
        report.linef(format_args!(
            "4 workers, burst shape ({}x{}) over release shape ({}x{}): {:.2}x",
            shapes[2].0,
            shapes[2].1,
            shapes[0].0,
            shapes[0].1,
            burst / release
        ));
    }
    report.line("Work stealing keeps a released successor on the releasing worker's own");
    report.line("deque (no shared lock in steady state). Few long chains bound parallelism");
    report.line("by the chain count (release-limited); many short chains flood the queue up");
    report.line("front and measure pure drain throughput.");
    ctx.absorb_latency(&obs.metrics());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_apps::Scale;

    #[test]
    fn experiment_ids_round_trip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::parse(e.id()), Some(e));
        }
        assert_eq!(Experiment::parse("figure42"), None);
        assert_eq!(all_experiments().len(), Experiment::ALL.len());
    }

    #[test]
    fn tables_render_all_six_benchmarks() {
        let ctx = EvalContext::new(Scale::Tiny, 1);
        let t1 = table1(&ctx);
        assert_eq!(t1.csv_rows.len(), 6);
        for id in AppId::ALL {
            assert!(t1.text.contains(id.name()), "Table I must mention {id}");
        }
        let t2 = table2(&ctx);
        assert_eq!(t2.csv_rows.len(), 6);
        assert!(t2.text.contains("Ltraining"));
    }

    #[test]
    fn pressure_cost_aware_beats_fifo_at_the_tightest_budget() {
        let tight = Some(48 * 1024);
        let fifo = pressure_round(PolicyKind::Fifo, tight);
        let cost = pressure_round(PolicyKind::CostAware, tight);
        assert!(
            cost.counters.saved_ns >= fifo.counters.saved_ns,
            "cost-aware must save at least as much kernel time as FIFO \
             at the tightest budget ({} vs {} ns)",
            cost.counters.saved_ns,
            fifo.counters.saved_ns
        );
        assert!(
            cost.replay_hits > 0,
            "cost-aware must retain something worth hitting"
        );
        // The giant outputs do not fit a 48 KiB budget at all.
        assert!(fifo.counters.rejected_admissions > 0);
        assert!(
            fifo.counters.resident_bytes <= 48 * 1024,
            "the budget must hold"
        );
    }

    #[test]
    fn pressure_unlimited_budget_never_evicts_by_budget() {
        let round = pressure_round(PolicyKind::Fifo, None);
        assert_eq!(round.counters.rejected_admissions, 0);
        assert_eq!(
            round.counters.evictions, 0,
            "ways=1024 and no budget must keep every entry"
        );
        // Replay hits everything that was stored.
        assert_eq!(round.replay_hits, round.counters.insertions);
    }

    /// Acceptance criterion of the MemoSpec redesign: one runtime runs an
    /// exact type, an adaptive type and a fixed-p type concurrently, and
    /// each type's hit/precision trajectory is independent.
    #[test]
    fn mixed_policies_have_independent_per_type_trajectories() {
        let ctx = EvalContext::new(Scale::Tiny, 1);
        let outcomes = mixed_run(&ctx);
        assert_eq!(outcomes.len(), 3);
        let by_name = |name: &str| {
            outcomes
                .iter()
                .find(|o| o.name == name)
                .unwrap_or_else(|| panic!("no outcome for {name}"))
        };
        // 4 waves × 2 submissions (identical + perturbed) per type.
        for outcome in &outcomes {
            assert_eq!(outcome.seen, 8, "{}: stream size", outcome.name);
        }

        // Exact: p pinned at 100 %, steady from the start, never trains.
        // Hits exactly the identical resubmissions (waves 2-4) and executes
        // every perturbed copy.
        let exact = by_name("mixed_exact");
        assert_eq!(exact.final_p, 1.0);
        assert!(exact.steady);
        assert_eq!(exact.training_hits, 0);
        assert_eq!(exact.tht_bypassed, 3, "exact hits only identical inputs");
        assert_eq!(exact.executed_estimate, 5);

        // Adaptive: trains its own p on its own stream (training hits
        // execute), freezes at the minimum and then bypasses both the
        // identical and the perturbed submissions.
        let adaptive = by_name("mixed_adaptive");
        assert!(adaptive.steady, "window of 2 must finish training");
        assert_eq!(adaptive.training_hits, 2);
        assert!(
            adaptive.final_p < 0.01,
            "identical-at-MSB inputs keep p minimal, got {}",
            adaptive.final_p
        );
        assert_eq!(
            adaptive.executed_estimate, 3,
            "1 cold miss + 2 training executions"
        );
        assert_eq!(adaptive.tht_bypassed, 5);

        // Fixed p: steady at its declared precision with no training, and
        // immune to the low-mantissa noise from the very first wave.
        let fixed = by_name("mixed_fixed");
        assert!((fixed.final_p - 0.25).abs() < 1e-12);
        assert!(fixed.steady);
        assert_eq!(fixed.training_hits, 0);
        assert_eq!(fixed.executed_estimate, 1, "only the cold miss runs");
        assert_eq!(fixed.tht_bypassed, 7);

        // Independence: three different final precisions in one engine.
        assert!(exact.final_p > fixed.final_p);
        assert!(fixed.final_p > adaptive.final_p);
    }

    #[test]
    fn mixed_report_carries_per_type_metrics() {
        let ctx = EvalContext::new(Scale::Tiny, 1);
        let report = mixed(&ctx);
        assert_eq!(report.csv_rows.len(), 3);
        for prefix in ["exact", "adaptive", "fixed"] {
            for metric in ["final_p", "training_hits", "tht_bypassed", "steady"] {
                let name = format!("{prefix}_{metric}");
                assert!(
                    report.metrics.iter().any(|(n, _)| *n == name),
                    "metric {name} missing from the mixed report"
                );
            }
        }
        let reconcile = report
            .metrics
            .iter()
            .find(|(n, _)| n == "decisions_reconcile")
            .expect("mixed must report the reconciliation flag")
            .1;
        assert_eq!(reconcile, 1.0, "audit stream must match engine counters");
    }

    /// Acceptance criterion: the memo-decision audit stream reconciles
    /// exactly with the engine's per-type counters — for every policy,
    /// `ThtHit` events equal `tht_bypassed`, `IktDefer` events equal
    /// `ikt_deferred`, and `TrainingAccept + TrainingReject` equal
    /// `training_hits`.
    #[test]
    fn mixed_decision_stream_reconciles_with_type_summaries() {
        let ctx = EvalContext::new(Scale::Tiny, 1);
        for outcome in mixed_run(&ctx) {
            assert_eq!(
                outcome.decision_tht_hits, outcome.tht_bypassed,
                "{}: ThtHit events vs tht_bypassed",
                outcome.name
            );
            assert_eq!(
                outcome.decision_ikt_defers, outcome.ikt_deferred,
                "{}: IktDefer events vs ikt_deferred",
                outcome.name
            );
            assert_eq!(
                outcome.decision_accepts + outcome.decision_rejects,
                outcome.training_hits,
                "{}: training events vs training_hits",
                outcome.name
            );
            assert!(outcome.reconciles());
        }
        // The run fed the context's latency accumulator.
        let latency = ctx.take_latency();
        assert!(latency.get(LatencyMetric::TaskLatency).count > 0);
    }

    /// The flood completes its dataflow correctly at every worker count
    /// (the assertions live inside `flood_round`) and reports a sane rate.
    #[test]
    fn scaling_flood_round_is_correct_in_every_configuration() {
        for workers in [1usize, 2, 4] {
            let tps = flood_round(workers, 8, 25, None);
            assert!(tps > 0.0, "{workers} workers: throughput must be positive");
        }
    }

    #[test]
    fn scaling_report_covers_the_full_sweep() {
        let ctx = EvalContext::new(Scale::Tiny, 2);
        let report = scaling(&ctx);
        assert_eq!(report.csv_rows.len(), 9, "3 chain shapes x 3 worker counts");
        for (chains, chain_len) in scaling_shapes(Scale::Tiny) {
            for workers in [1, 2, 4] {
                let name = format!("c{chains}x{chain_len}_w{workers}_tasks_per_sec");
                let value = report
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} missing"))
                    .1;
                assert!(value > 0.0, "{name} must be positive");
            }
        }
        assert!(report
            .metrics
            .iter()
            .any(|(n, _)| n == "w4_burst_over_release"));
    }

    #[test]
    fn warmstart_first_taskwait_has_nonzero_hit_rate() {
        let ctx = EvalContext::new(Scale::Tiny, 1);
        let report = warmstart(&ctx);
        let metric = |name: &str| -> f64 {
            report
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .1
        };
        assert_eq!(metric("synthetic_cold_first_taskwait_hits"), 0.0);
        assert!(
            metric("synthetic_warm_first_taskwait_hits") > 0.0,
            "a warm-started run must hit the table at its first taskwait"
        );
        assert_eq!(metric("synthetic_warm_executed"), 0.0);
        assert!(
            metric("blackscholes_warm_hits") >= metric("blackscholes_cold_hits"),
            "app-level warm start must not hit less than the cold run"
        );
        assert!(metric("blackscholes_warm_hits") > 0.0);
    }

    #[test]
    fn figure9_reports_rows_for_every_benchmark_with_monotone_curves() {
        let ctx = EvalContext::new(Scale::Tiny, 1);
        let report = figure9(&ctx);
        for id in AppId::ALL {
            let rows: Vec<&String> = report
                .csv_rows
                .iter()
                .filter(|r| r.starts_with(id.short_name()))
                .collect();
            assert!(!rows.is_empty(), "{id} must contribute rows to figure 9");
            // Cumulative fractions must be non-decreasing and end at 1.0
            // (or stay at 0.0 when no reuse was generated at all).
            let fractions: Vec<f64> = rows
                .iter()
                .map(|r| r.rsplit(',').next().unwrap().parse().unwrap())
                .collect();
            assert!(
                fractions.windows(2).all(|w| w[1] >= w[0] - 1e-9),
                "{id}: curve not monotone: {fractions:?}"
            );
            let last = *fractions.last().unwrap();
            assert!(
                last == 0.0 || (last - 1.0).abs() < 1e-9,
                "{id}: curve must end at 0 or 1, got {last}"
            );
        }
        // At least one benchmark must actually generate reuse at tiny scale.
        assert!(
            report.csv_rows.iter().any(|r| r.ends_with("1.0000")),
            "no benchmark generated any reuse"
        );
    }
}
