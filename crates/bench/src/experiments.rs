//! The paper's evaluation section, one function per table or figure: the
//! three tables (`table1`–`table3`), the §IV-B THT sizing study (`sizing`)
//! and Figures 3–9 (`figure3`–`figure9`) — 11 experiments, each over the six
//! benchmark applications. Nothing here goes beyond the paper: runtime
//! throughput, memo-store pressure and warm start are the benchmark's
//! workloads (`benchmark/`), and cross-commit performance questions belong
//! to `benchmark/run.sh compare`.

use crate::measure::{geomean, EvalContext};
use crate::report::Report;
use atm_apps::{AppId, RunOptions};
use atm_core::{AtmConfig, ThtConfig};
use atm_obs::LatencyMetric;
use atm_runtime::ThreadState;

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
}

impl Experiment {
    /// All experiments, in the order `atm-eval all` runs them.
    pub const ALL: [Experiment; 11] = [
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

#[cfg(test)]
mod tests {
    use super::*;
    use atm_apps::Scale;
    use atm_core::{AtmEngine, MemoSpec, TypeSummary};
    use atm_obs::{DecisionSnapshot, MemoDecision, Observability};
    use atm_runtime::{Region, RuntimeBuilder, TaskInterceptor, TaskTypeBuilder};
    use atm_sync::{Condvar, Mutex};
    use std::sync::Arc;

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

    /// One runtime, one engine, three memoizable types declaring an exact,
    /// an adaptive and a fixed-p `MemoSpec`. Every wave submits, per type,
    /// one identical resubmission of a pristine input and one copy with the
    /// lowest mantissa bits of every third element flipped (distinct per
    /// wave). One worker keeps the stream order, and so every counter,
    /// deterministic. Returns each type's index, summary and executed
    /// count, plus the memo-decision audit stream.
    fn mixed_program() -> (Vec<(u32, TypeSummary, u64)>, DecisionSnapshot) {
        const WAVES: usize = 4;
        const ELEMS: usize = 64;

        let obs = Arc::new(Observability::enabled());
        let engine =
            Arc::new(AtmEngine::new(AtmConfig::dynamic_atm()).with_observability(Arc::clone(&obs)));
        let rt = RuntimeBuilder::new()
            .workers(1)
            .observability(Arc::clone(&obs))
            .interceptor(engine.clone() as Arc<dyn TaskInterceptor>)
            .build();
        let square = |ctx: &atm_runtime::TaskContext<'_>| {
            let x = ctx.arg::<f64>(0);
            let out: Vec<f64> = x.iter().map(|v| v * v).collect();
            ctx.out(1, &out);
        };
        let specs = [
            ("mixed_exact", MemoSpec::exact()),
            (
                "mixed_adaptive",
                MemoSpec::approximate().tau(0.2).training_window(2),
            ),
            ("mixed_fixed", MemoSpec::fixed_precision(0.25)),
        ];
        let types: Vec<_> = specs
            .into_iter()
            .map(|(name, spec)| {
                rt.register_task_type(
                    TaskTypeBuilder::new(name, square)
                        .arg::<f64>()
                        .out::<f64>()
                        .memo(spec)
                        .build(),
                )
            })
            .collect();

        let payload = || -> Vec<f64> { (0..ELEMS).map(|e| e as f64 + 1.5).collect() };
        let perturbed = |wave: usize| -> Vec<f64> {
            payload()
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
        let pristine: Vec<Region<f64>> = (0..types.len())
            .map(|t| {
                rt.store()
                    .register_typed(format!("mixed_in_{t}"), payload())
                    .unwrap()
            })
            .collect();
        let mut serial = 0usize;
        let mut out_region = || {
            serial += 1;
            rt.store()
                .register_zeros::<f64>(format!("mixed_out{serial}"), ELEMS)
                .unwrap()
        };
        for wave in 0..WAVES {
            for (t, tt) in types.iter().enumerate() {
                let out = out_region();
                rt.task(*tt)
                    .reads(&pristine[t])
                    .writes(&out)
                    .submit()
                    .unwrap();
                let noisy = rt
                    .store()
                    .register_typed(format!("mixed_noisy_{t}_{wave}"), perturbed(wave))
                    .unwrap();
                let out = out_region();
                rt.task(*tt).reads(&noisy).writes(&out).submit().unwrap();
            }
            rt.taskwait();
        }
        rt.shutdown();

        let summaries = engine
            .type_summaries()
            .into_iter()
            .map(|(type_id, s)| {
                let executed = s.seen - s.tht_bypassed - s.ikt_deferred;
                (type_id.index() as u32, s, executed)
            })
            .collect();
        (summaries, obs.decisions())
    }

    #[test]
    fn mixed_policies_have_independent_per_type_trajectories() {
        let (outcomes, _) = mixed_program();
        assert_eq!(outcomes.len(), 3);
        let by_name = |name: &str| {
            outcomes
                .iter()
                .find(|(_, s, _)| s.name == name)
                .map(|(_, s, executed)| (s, *executed))
                .unwrap_or_else(|| panic!("no outcome for {name}"))
        };
        // 4 waves × 2 submissions (identical + perturbed) per type.
        for (_, s, _) in &outcomes {
            assert_eq!(s.seen, 8, "{}: stream size", s.name);
        }

        // Exact: p pinned at 100 %, steady from the start, never trains.
        // Hits exactly the identical resubmissions (waves 2-4) and executes
        // every perturbed copy.
        let (exact, executed) = by_name("mixed_exact");
        assert_eq!(exact.final_p, 1.0);
        assert!(exact.steady);
        assert_eq!(exact.training_hits, 0);
        assert_eq!(exact.tht_bypassed, 3, "exact hits only identical inputs");
        assert_eq!(executed, 5);

        // Adaptive: trains its own p on its own stream (training hits
        // execute), freezes at the minimum and then bypasses both the
        // identical and the perturbed submissions.
        let (adaptive, executed) = by_name("mixed_adaptive");
        assert!(adaptive.steady, "window of 2 must finish training");
        assert_eq!(adaptive.training_hits, 2);
        assert!(
            adaptive.final_p < 0.01,
            "identical-at-MSB inputs keep p minimal, got {}",
            adaptive.final_p
        );
        assert_eq!(executed, 3, "1 cold miss + 2 training executions");
        assert_eq!(adaptive.tht_bypassed, 5);

        // Fixed p: steady at its declared precision with no training, and
        // immune to the low-mantissa noise from the very first wave.
        let (fixed, executed) = by_name("mixed_fixed");
        assert!((fixed.final_p - 0.25).abs() < 1e-12);
        assert!(fixed.steady);
        assert_eq!(fixed.training_hits, 0);
        assert_eq!(executed, 1, "only the cold miss runs");
        assert_eq!(fixed.tht_bypassed, 7);

        // Independence: three different final precisions in one engine.
        assert!(exact.final_p > fixed.final_p);
        assert!(fixed.final_p > adaptive.final_p);
    }

    /// The memo-decision audit stream, an independent code path, reconciles
    /// exactly with every type's engine counters.
    #[test]
    fn mixed_decision_stream_reconciles_with_type_summaries() {
        let (outcomes, decisions) = mixed_program();
        for &(t, ref s, _) in &outcomes {
            assert_eq!(
                decisions.count(t, MemoDecision::ThtHit),
                s.tht_bypassed,
                "{}: ThtHit events vs tht_bypassed",
                s.name
            );
            assert_eq!(
                decisions.count(t, MemoDecision::IktDefer),
                s.ikt_deferred,
                "{}: IktDefer events vs ikt_deferred",
                s.name
            );
            assert_eq!(
                decisions.count(t, MemoDecision::TrainingAccept)
                    + decisions.count(t, MemoDecision::TrainingReject),
                s.training_hits,
                "{}: training events vs training_hits",
                s.name
            );
        }
    }

    /// Eight inout chains pile up behind a gate task that blocks until every
    /// submission is in the graph, so the whole graph drains at once; every
    /// chain must still complete in order at 1, 2 and 4 workers.
    #[test]
    fn scaling_flood_round_is_correct_in_every_configuration() {
        const CHAINS: usize = 8;
        const CHAIN_LEN: usize = 25;
        for workers in [1usize, 2, 4] {
            let rt = RuntimeBuilder::new().workers(workers).build();
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let gate_in_kernel = Arc::clone(&gate);
            let gate_tt = rt.register_task_type(
                TaskTypeBuilder::new("gate", move |ctx| {
                    let (open, cvar) = &*gate_in_kernel;
                    let mut open = open.lock();
                    while !*open {
                        cvar.wait(&mut open);
                    }
                    ctx.out(0, &[1.0f64]);
                })
                .out::<f64>()
                .build(),
            );
            // No declared signature: a chain's first task also reads the
            // gate region; the cell is always the last access.
            let tt = rt.register_task_type(
                TaskTypeBuilder::new("incr", |ctx| {
                    let cell = ctx.accesses().len() - 1;
                    let v = ctx.arg::<f64>(cell)[0];
                    ctx.out(cell, &[v + 1.0]);
                })
                .build(),
            );
            let gate_region = rt.store().register_zeros::<f64>("gate", 1).unwrap();
            let cells: Vec<Region<f64>> = (0..CHAINS)
                .map(|c| rt.store().register_zeros(format!("cell{c}"), 1).unwrap())
                .collect();
            rt.task(gate_tt).writes(&gate_region).submit().unwrap();
            for step in 0..CHAIN_LEN {
                for cell in &cells {
                    let mut task = rt.task(tt);
                    if step == 0 {
                        task = task.reads(&gate_region);
                    }
                    task.reads_writes(cell).submit().unwrap();
                }
            }
            let (open, cvar) = &*gate;
            *open.lock() = true;
            cvar.notify_all();
            rt.taskwait();
            for (c, cell) in cells.iter().enumerate() {
                assert_eq!(
                    rt.store().read(*cell).lock().as_f64(),
                    &[CHAIN_LEN as f64],
                    "{workers} workers: chain {c}"
                );
            }
            let tasks = (CHAINS * CHAIN_LEN + 1) as u64;
            assert_eq!(rt.stats().executed, tasks, "{workers} workers");
            rt.shutdown();
        }
    }
}
