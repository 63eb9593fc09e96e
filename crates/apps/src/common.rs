//! Common infrastructure shared by the six benchmark applications.
//!
//! Every application provides:
//!
//! * a deterministic **workload generator** reproducing the redundancy
//!   sources described in §V-D of the paper (repetitive program inputs,
//!   algorithmic convergence, saturated random initialisation);
//! * a **sequential reference** implementation used both as the correctness
//!   baseline and to validate the taskified version;
//! * a **taskified version** built on [`atm_runtime`], with the
//!   paper's memoized task type opted into ATM through the task-type
//!   annotations (Table I / Table II);
//! * a **correctness metric** on the program output (Table I, "Correctness
//!   measured on").

use atm_core::{
    AtmConfig, AtmEngine, AtmStatsSnapshot, MemoSpec, ReuseEvent, StoreCountersSnapshot,
    TypeSummary,
};
use atm_metrics::{correctness_percent, euclidean_relative_error};
use atm_obs::{CounterSample, DecisionSnapshot, MetricsSnapshot, Observability};
use atm_runtime::{Runtime, RuntimeBuilder, RuntimeStatsSnapshot, TaskTypeId, TraceSummary};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Problem-size scale of a benchmark instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Very small problems for unit/integration tests (tens of milliseconds).
    Tiny,
    /// The default evaluation scale: large enough to show the ATM behaviour,
    /// small enough that the full harness runs on a laptop.
    Small,
    /// The paper's original problem sizes (documented for reference; running
    /// them requires several GiB of memory and long runtimes).
    Paper,
}

/// How a benchmark run should be executed.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Number of worker threads (the paper's "number of cores").
    pub workers: usize,
    /// ATM configuration; `None` is the baseline, which installs no engine.
    pub atm: Option<AtmConfig>,
    /// What the run records, as the constructor of its [`atm_obs`] handle:
    /// `None` attaches nothing, [`Observability::enabled`] records latency
    /// histograms and the bounded memo-decision rings,
    /// [`Observability::capture`] also the unbounded trace material (thread
    /// states, ready-queue samples, full reuse provenance). Each run builds
    /// its own handle.
    pub observability: Option<fn() -> Observability>,
}

impl RunOptions {
    /// Baseline: no ATM, given number of workers.
    pub fn baseline(workers: usize) -> Self {
        RunOptions {
            workers,
            atm: None,
            observability: None,
        }
    }

    /// ATM-enabled run with the given configuration.
    pub fn with_atm(workers: usize, atm: AtmConfig) -> Self {
        RunOptions {
            workers,
            atm: Some(atm),
            observability: None,
        }
    }

    /// Records everything, unbounded logs included (a capture handle): the
    /// execution trace of Figures 7/8 and the full reuse provenance of
    /// Figure 9.
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.observability = Some(Observability::capture);
        self
    }

    /// Records at least the bounded material (latency histograms and the
    /// memo-decision rings); a run already [`RunOptions::traced`] stays so.
    #[must_use]
    pub fn observed(mut self) -> Self {
        self.observability.get_or_insert(Observability::enabled);
        self
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions::baseline(1)
    }
}

/// Result of one taskified benchmark run. A baseline run installs no
/// engine: its engine and store counters and its ATM memory read zero.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// The program output the correctness metric is measured on.
    pub output: Vec<f64>,
    /// Wall-clock time of the parallel section (excludes input generation).
    pub wall: Duration,
    /// Minor page faults the process took over the same section, every
    /// thread included; 0 where `/proc/self/stat` cannot be read. A
    /// retained output snapshot faults its pages in on first touch.
    pub minor_faults: u64,
    /// Runtime-level counters.
    pub runtime_stats: RuntimeStatsSnapshot,
    /// ATM engine counters.
    pub atm_stats: AtmStatsSnapshot,
    /// Memo-store counters (hits, misses, insertions, evictions, rejected
    /// admissions, resident bytes, saved kernel nanoseconds).
    pub store_counters: StoreCountersSnapshot,
    /// Per-task-type ATM summaries (chosen `p`, hits, phase).
    pub type_summaries: HashMap<TaskTypeId, TypeSummary>,
    /// Reuse provenance events (Figure 9), read from the retained records
    /// of `decisions`: complete on a traced run, ring-bounded on an observed
    /// one, empty otherwise.
    pub reuse_events: Vec<ReuseEvent>,
    /// ATM memory overhead in bytes (Table III numerator).
    pub atm_memory_bytes: usize,
    /// Application data footprint in bytes (Table III denominator).
    pub app_memory_bytes: usize,
    /// Thread-state summary of a traced run (Figure 7).
    pub trace: Option<TraceSummary>,
    /// Ready-queue depth samples of a traced run (Figure 8).
    pub ready_samples: Vec<CounterSample>,
    /// Latency histograms (empty unless the run was observed).
    pub latency: MetricsSnapshot,
    /// Memo-decision audit trail (empty unless the run was observed).
    pub decisions: DecisionSnapshot,
}

impl AppRun {
    /// The reuse metric of §IV-C over the memoizable tasks.
    pub fn reuse_percent(&self) -> f64 {
        self.atm_stats.reuse_percent()
    }

    /// ATM memory overhead relative to the application footprint (Table III).
    pub fn memory_overhead_percent(&self) -> f64 {
        if self.app_memory_bytes == 0 {
            return 0.0;
        }
        100.0 * self.atm_memory_bytes as f64 / self.app_memory_bytes as f64
    }
}

/// Table I row: static description of a benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct TableInfo {
    /// "Program Inputs" column.
    pub program_inputs: String,
    /// "Task Inputs Size (bytes)" column — input bytes of one memoized task.
    pub task_input_bytes: usize,
    /// "Task Inputs Types" column.
    pub task_input_types: String,
    /// "Memoized Task Type" column.
    pub memoized_task_type: String,
    /// "Number of tasks" column (tasks of the memoized type).
    pub num_tasks: u64,
    /// "Correctness Measured on" column.
    pub correctness_on: String,
}

/// The interface every benchmark application implements.
pub trait BenchmarkApp: Send + Sync {
    /// Benchmark name as used in the paper's tables and figures.
    fn name(&self) -> &'static str;

    /// Table I information for this instance.
    fn table_info(&self) -> TableInfo;

    /// The approximation policy of the benchmark's memoized task type: the
    /// paper's Table II parameters (`L_training`, `τ_max`) expressed as a
    /// per-type [`MemoSpec`], declared on the task type at registration.
    fn memo_spec(&self) -> MemoSpec;

    /// Runs the sequential reference and returns the correctness output.
    fn run_sequential(&self) -> Vec<f64>;

    /// Runs the taskified version under the given options.
    fn run_tasked(&self, options: &RunOptions) -> AppRun;

    /// Relative error of `output` against the exact result (Eq. 3, or Eq. 4
    /// for Sparse LU). The default compares against the cached sequential
    /// reference with the Euclidean relative error.
    fn output_error(&self, output: &[f64]) -> f64 {
        euclidean_relative_error(self.reference(), output)
    }

    /// The cached sequential reference output.
    fn reference(&self) -> &[f64];

    /// Correctness percentage of a run (Figures 4 and 5).
    fn correctness_percent(&self, output: &[f64]) -> f64 {
        correctness_percent(self.output_error(output))
    }
}

/// Helper holding everything a taskified run needs and producing an [`AppRun`].
///
/// Applications use it as:
/// ```ignore
/// let mut harness = TaskedRun::new(options);
/// // … register regions and task types through harness.runtime() …
/// let output = harness.finish(|store| collect_output(store));
/// ```
pub struct TaskedRun {
    runtime: Runtime,
    engine: Option<Arc<AtmEngine>>,
    started: Instant,
    faults_at_start: u64,
}

impl TaskedRun {
    /// Builds the runtime (plus the ATM engine, unless a baseline) described
    /// by `options`.
    pub fn new(options: &RunOptions) -> Self {
        let obs = options.observability.map(|make| Arc::new(make()));
        let mut builder = RuntimeBuilder::new().workers(options.workers);
        let mut engine = options.atm.map(AtmEngine::new);
        if let Some(obs) = obs {
            engine = engine.map(|engine| engine.with_observability(Arc::clone(&obs)));
            builder = builder.observability(obs);
        }
        let engine = engine.map(Arc::new);
        if let Some(engine) = &engine {
            builder = builder.interceptor(Arc::clone(engine) as Arc<_>);
        }
        let runtime = builder.build();
        TaskedRun {
            runtime,
            engine,
            started: Instant::now(),
            faults_at_start: minor_faults(),
        }
    }

    /// The underlying runtime (register regions / task types, submit tasks).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The ATM engine, `None` on a baseline run (rarely needed directly;
    /// statistics are collected by [`TaskedRun::finish`]).
    pub fn engine(&self) -> Option<&Arc<AtmEngine>> {
        self.engine.as_ref()
    }

    /// Marks the start of the timed parallel section (call after input
    /// regions are registered, before the first submit).
    pub fn start_timer(&mut self) {
        self.faults_at_start = minor_faults();
        self.started = Instant::now();
    }

    /// Waits for all tasks, collects statistics and produces the [`AppRun`].
    /// `collect_output` extracts the correctness output from the data store.
    pub fn finish(
        self,
        collect_output: impl FnOnce(&atm_runtime::DataStore) -> Vec<f64>,
    ) -> AppRun {
        self.runtime.taskwait();
        let wall = self.started.elapsed();
        let minor_faults = minor_faults().saturating_sub(self.faults_at_start);
        let output = collect_output(self.runtime.store());
        let app_memory_bytes = self.runtime.store().total_bytes();
        let (trace, ready_samples) = match self.runtime.observability() {
            Some(obs) => {
                let states = obs.states();
                let trace = (!states.is_empty()).then(|| TraceSummary::from_states(&states));
                (trace, obs.ready_depth_samples())
            }
            None => (None, Vec::new()),
        };
        // One unified observation replaces the disjoint runtime/engine/store
        // snapshot calls; the engine keeps providing the richer per-type
        // view the observation DTOs do not carry.
        let observation = self.runtime.observe();
        let engine = self.engine.as_deref();
        let run = AppRun {
            output,
            wall,
            minor_faults,
            runtime_stats: observation.runtime,
            atm_stats: engine.map(AtmEngine::stats).unwrap_or_default(),
            store_counters: engine.map(AtmEngine::store_counters).unwrap_or_default(),
            type_summaries: engine.map(AtmEngine::type_summaries).unwrap_or_default(),
            reuse_events: ReuseEvent::from_decisions(&observation.decisions),
            atm_memory_bytes: engine.map_or(0, AtmEngine::memory_bytes),
            app_memory_bytes,
            trace,
            ready_samples,
            latency: observation.latency,
            decisions: observation.decisions,
        };
        self.runtime.shutdown();
        run
    }
}

/// Minor page faults of this process so far (`minflt`, field 10 of
/// `/proc/self/stat`); 0 where the file cannot be read.
fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| parse_minflt(&stat))
        .unwrap_or(0)
}

/// `minflt` of a `/proc/<pid>/stat` line. The command name (field 2) is in
/// parentheses and may itself hold spaces and `)`, so the fields are counted
/// from the last `)`: field 3 is the first after it.
fn parse_minflt(stat: &str) -> Option<u64> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_whitespace().nth(10 - 3)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minflt_is_counted_from_the_last_parenthesis() {
        let stat = "4242 (a) b (c)) S 1 4242 4242 0 -1 4194560 1234 56 7 8 9 10";
        assert_eq!(parse_minflt(stat), Some(1234));
        assert_eq!(parse_minflt("4242 (truncated"), None);
        assert_eq!(parse_minflt("4242 (x) S 1"), None);
    }

    #[test]
    fn minor_faults_read_the_process_counter() {
        // Any process has faulted pages in by the time its tests run.
        let linux = std::path::Path::new("/proc/self/stat").exists();
        assert_eq!(minor_faults() > 0, linux);
    }

    #[test]
    fn run_options_constructors() {
        let base = RunOptions::baseline(4);
        assert_eq!(base.workers, 4);
        assert!(base.atm.is_none());
        let with = RunOptions::with_atm(2, AtmConfig::static_atm()).traced();
        assert!(base.observability.is_none());
        assert!(with.observability.is_some());
        assert_eq!(with.atm, Some(AtmConfig::static_atm()));
    }

    /// The baseline installs no engine: a memoizable task executes every
    /// time and the run's ATM counters read zero.
    #[test]
    fn baseline_run_installs_no_engine_and_reports_zeroed_counters() {
        let harness = TaskedRun::new(&RunOptions::baseline(1).observed());
        assert!(harness.engine().is_none());
        let rt = harness.runtime();
        let input = rt.store().register_typed("in", vec![1.0f64]).unwrap();
        let out = rt.store().register_zeros::<f64>("out", 1).unwrap();
        let tt = rt.register_task_type(
            atm_runtime::TaskTypeBuilder::new("copy", |ctx| ctx.out(1, &ctx.arg::<f64>(0)))
                .arg::<f64>()
                .out::<f64>()
                .memoizable()
                .build(),
        );
        for _ in 0..3 {
            rt.task(tt).reads(&input).writes(&out).submit().unwrap();
        }
        let run = harness.finish(|store| store.read(out).lock().as_f64().to_vec());
        assert_eq!(run.output, vec![1.0]);
        assert_eq!(run.runtime_stats.executed, 3);
        assert_eq!(run.runtime_stats.bypassed, 0);
        assert_eq!(run.atm_stats, AtmStatsSnapshot::default());
        assert_eq!(run.store_counters, StoreCountersSnapshot::default());
        assert!(run.type_summaries.is_empty());
        assert_eq!(run.atm_memory_bytes, 0);
        assert_eq!(run.decisions.total(), 0);
    }

    #[test]
    fn memory_overhead_percent_is_ratio_of_footprints() {
        let run = AppRun {
            output: vec![],
            wall: Duration::from_secs(1),
            minor_faults: 0,
            runtime_stats: Default::default(),
            atm_stats: Default::default(),
            store_counters: Default::default(),
            type_summaries: Default::default(),
            reuse_events: vec![],
            atm_memory_bytes: 50,
            app_memory_bytes: 1000,
            trace: None,
            ready_samples: vec![],
            latency: MetricsSnapshot::empty(),
            decisions: DecisionSnapshot::default(),
        };
        assert!((run.memory_overhead_percent() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn observed_run_carries_latency_and_decisions() {
        let options = RunOptions::with_atm(1, AtmConfig::static_atm()).observed();
        let harness = TaskedRun::new(&options);
        let rt = harness.runtime();
        let input = rt.store().register_typed("in", vec![3.0f64, 4.0]).unwrap();
        let out_a = rt.store().register_zeros::<f64>("a", 2).unwrap();
        let out_b = rt.store().register_zeros::<f64>("b", 2).unwrap();
        let tt = rt.register_task_type(
            atm_runtime::TaskTypeBuilder::new("square", |ctx| {
                let x = ctx.arg::<f64>(0);
                let y: Vec<f64> = x.iter().map(|v| v * v).collect();
                ctx.out(1, &y);
            })
            .arg::<f64>()
            .out::<f64>()
            .memoizable()
            .build(),
        );
        rt.task(tt).reads(&input).writes(&out_a).submit().unwrap();
        rt.taskwait();
        rt.task(tt).reads(&input).writes(&out_b).submit().unwrap();
        let run = harness.finish(|store| store.read(out_b).lock().as_f64().to_vec());
        assert_eq!(run.output, vec![9.0, 16.0]);
        let task_latency = run.latency.get(atm_obs::LatencyMetric::TaskLatency);
        assert_eq!(task_latency.count, 2, "both tasks must be timed end to end");
        assert_eq!(
            run.decisions
                .count(tt.index() as u32, atm_obs::MemoDecision::ThtHit),
            run.atm_stats.tht_bypassed
        );
        // The one reuse reads back from the decision stream; the unbounded
        // trace material is a traced run's.
        assert_eq!(run.reuse_events.len(), 1);
        assert!(run.reuse_events[0].from_tht);
        assert!(run.trace.is_none() && run.ready_samples.is_empty());

        // Without `.observed()` the same run reports empty instrumentation.
        let silent = TaskedRun::new(&RunOptions::baseline(1));
        let region = silent
            .runtime()
            .store()
            .register_zeros::<f64>("out", 1)
            .unwrap();
        let tt = silent.runtime().register_task_type(
            atm_runtime::TaskTypeBuilder::new("fill", |ctx| ctx.out(0, &[1.0f64]))
                .out::<f64>()
                .build(),
        );
        silent.runtime().task(tt).writes(&region).submit().unwrap();
        let silent_run = silent.finish(|store| store.read(region).lock().as_f64().to_vec());
        assert_eq!(
            silent_run
                .latency
                .get(atm_obs::LatencyMetric::TaskLatency)
                .count,
            0
        );
        assert_eq!(silent_run.decisions.total(), 0);
    }

    #[test]
    fn tasked_run_smoke_test() {
        // `.observed()` (forced on every measured run) keeps a traced run traced.
        let mut harness = TaskedRun::new(&RunOptions::baseline(1).traced().observed());
        let region = harness
            .runtime()
            .store()
            .register_zeros::<f64>("out", 2)
            .unwrap();
        let tt = harness.runtime().register_task_type(
            atm_runtime::TaskTypeBuilder::new("fill", |ctx| ctx.out(0, &[1.0f64, 2.0]))
                .out::<f64>()
                .build(),
        );
        harness.start_timer();
        harness.runtime().task(tt).writes(&region).submit().unwrap();
        let run = harness.finish(|store| store.read(region).lock().as_f64().to_vec());
        assert_eq!(run.output, vec![1.0, 2.0]);
        assert_eq!(run.runtime_stats.executed, 1);
        assert!(run.app_memory_bytes >= 16);
        let trace = run.trace.expect("a traced run carries its state summary");
        assert!(trace.state_ns(atm_runtime::ThreadState::TaskExecution) > 0);
        assert!(!run.ready_samples.is_empty());
    }
}
