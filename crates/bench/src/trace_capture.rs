//! Chrome-trace export: runs a small memoizable workload under a capture
//! handle and merges everything the stack recorded into it into one Chrome
//! Trace Event Format JSON file that <https://ui.perfetto.dev> opens
//! directly.
//!
//! The trace carries four kinds of tracks under one process, all on the
//! handle's clock:
//!
//! * **per-worker state tracks** (`tid = worker`): the
//!   [`ThreadState`](atm_runtime::ThreadState) intervals, the trace
//!   equivalent of the paper's Figure 7/8 state breakdown;
//! * **per-worker task tracks** (`tid = 1000 + worker`): one span per task
//!   (named after its task type) whose args carry the memo decision(s) the
//!   engine took for it, joined from the decision audit stream by task id;
//! * **ready-depth counter** (`tid = 9998`): the scheduler's ready-queue
//!   depth samples;
//! * **store-bytes counter** (`tid = 9999`): the memo store's byte
//!   occupancy after each insert.

use atm_core::{AtmConfig, AtmEngine, MemoSpec};
use atm_obs::{json_f64, ChromeTraceBuilder, DecisionRecord, Observability};
use atm_runtime::{RuntimeBuilder, TaskTypeBuilder};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// The single process id used by the exported trace.
const PID: u64 = 1;
/// Task-span tracks live at `SPAN_TID_BASE + worker`.
const SPAN_TID_BASE: u64 = 1000;
/// The ready-queue-depth counter track.
const READY_TID: u64 = 9998;
/// The store-byte-occupancy counter track.
const STORE_TID: u64 = 9999;

/// Assembles a Chrome-trace JSON array from everything a capture handle
/// recorded.
///
/// The handle returns each log merged and time-sorted; the assembly
/// preserves that order per `tid`, which is what [`ChromeTraceBuilder`]
/// requires.
pub fn assemble_chrome_trace(obs: &Observability) -> String {
    let (events, spans, decisions) = (obs.states(), obs.spans(), obs.decisions());
    let mut trace = ChromeTraceBuilder::new();
    trace.process_name(PID, "atm-eval");

    // Name every track up front (metadata events carry no timestamp).
    let mut workers: Vec<usize> = events
        .iter()
        .map(|e| e.worker)
        .chain(spans.iter().map(|s| s.worker))
        .collect();
    workers.sort_unstable();
    workers.dedup();
    for &w in &workers {
        trace.thread_name(PID, w as u64, &format!("worker {w} states"));
        trace.thread_name(PID, SPAN_TID_BASE + w as u64, &format!("worker {w} tasks"));
    }
    trace.thread_name(PID, READY_TID, "ready queue depth");
    trace.thread_name(PID, STORE_TID, "memo-store bytes");

    // Per-worker state intervals: the global sort by start time keeps each
    // worker's tid internally non-decreasing.
    for event in &events {
        trace.complete(
            PID,
            event.worker as u64,
            event.state,
            event.start_ns,
            event.end_ns,
            &[],
        );
    }

    // Task spans, with the memo decision(s) of each task joined in by id;
    // tasks the engine took no decision on carry no decision args.
    let mut by_task: HashMap<u64, Vec<&DecisionRecord>> = HashMap::new();
    for record in &decisions.records {
        by_task.entry(record.task_id).or_default().push(record);
    }
    for span in &spans {
        let name = obs
            .type_name(span.task_type)
            .unwrap_or_else(|| format!("type {}", span.task_type));
        let mut args: Vec<(&str, String)> = Vec::new();
        let joined;
        if let Some(records) = by_task.get(&span.task_id) {
            joined = records
                .iter()
                .map(|r| r.decision.name())
                .collect::<Vec<_>>()
                .join("+");
            args.push(("decision", format!("\"{joined}\"")));
            // τ and p of the task's own decision; a gate event the task
            // caused brings the ledger reading behind it.
            if let Some(own) = records.iter().find(|r| r.gate_ledger().is_none()) {
                args.push(("tau", json_f64(own.tau)));
                args.push(("p", json_f64(own.p)));
            }
            if let Some((spent, earned, allowance)) = records.iter().find_map(|r| r.gate_ledger()) {
                args.push(("spent_ns", json_f64(spent)));
                args.push(("earned_ns", json_f64(earned)));
                args.push(("allowance_ns", json_f64(allowance)));
            }
        }
        args.push((
            "latency_ns",
            format!("{}", span.end_ns.saturating_sub(span.start_ns)),
        ));
        trace.complete(
            PID,
            SPAN_TID_BASE + span.worker as u64,
            &name,
            span.start_ns,
            span.end_ns,
            &args,
        );
    }

    for sample in obs.ready_depth_samples() {
        trace.counter(
            PID,
            READY_TID,
            "ready_depth",
            sample.t_ns,
            sample.value as f64,
        );
    }
    for sample in obs.store_bytes_samples() {
        trace.counter(
            PID,
            STORE_TID,
            "store_bytes",
            sample.t_ns,
            sample.value as f64,
        );
    }

    trace.finish()
}

/// Runs the capture workload — a memoizable square kernel resubmitted over
/// a handful of inputs under Dynamic ATM, runtime and engine sharing one
/// capture handle — and returns the assembled Chrome-trace JSON.
pub fn capture_chrome_trace(workers: usize) -> String {
    const WAVES: usize = 3;
    const PAYLOADS: usize = 4;
    const ELEMS: usize = 256;

    let obs = Arc::new(Observability::capture());
    let engine =
        Arc::new(AtmEngine::new(AtmConfig::dynamic_atm()).with_observability(Arc::clone(&obs)));
    let rt = RuntimeBuilder::new()
        .workers(workers.max(1))
        .observability(Arc::clone(&obs))
        .interceptor(engine.clone() as Arc<dyn atm_runtime::TaskInterceptor>)
        .build();

    let square = |ctx: &atm_runtime::TaskContext<'_>| {
        let x = ctx.arg::<f64>(0);
        let out: Vec<f64> = x.iter().map(|v| v * v).collect();
        ctx.out(1, &out);
    };
    let exact = rt.register_task_type(
        TaskTypeBuilder::new("trace_square_exact", square)
            .arg::<f64>()
            .out::<f64>()
            .memo(MemoSpec::exact())
            .build(),
    );
    let adaptive = rt.register_task_type(
        TaskTypeBuilder::new("trace_square_adaptive", square)
            .arg::<f64>()
            .out::<f64>()
            .memo(MemoSpec::approximate().tau(0.2).training_window(2))
            .build(),
    );

    let inputs: Vec<_> = (0..PAYLOADS)
        .map(|j| {
            let payload: Vec<f64> = (0..ELEMS).map(|e| (j * ELEMS + e) as f64 + 0.5).collect();
            rt.store()
                .register_typed(format!("trace_in_{j}"), payload)
                .unwrap()
        })
        .collect();

    let mut serial = 0usize;
    for _ in 0..WAVES {
        for input in &inputs {
            for tt in [exact, adaptive] {
                let out = rt
                    .store()
                    .register_zeros::<f64>(format!("trace_out_{serial}"), ELEMS)
                    .unwrap();
                serial += 1;
                rt.task(tt).reads(input).writes(&out).submit().unwrap();
            }
        }
        rt.taskwait();
    }

    rt.shutdown();
    assemble_chrome_trace(&obs)
}

/// Captures a trace (see [`capture_chrome_trace`]) and writes it to `path`.
pub fn write_chrome_trace(path: &Path, workers: usize) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, capture_chrome_trace(workers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_obs::{MemoDecision, StateSpan, TaskSpan};
    use atm_runtime::ThreadState;

    #[test]
    fn assembly_merges_all_four_track_kinds() {
        let obs = Observability::capture();
        obs.record_state(StateSpan {
            worker: 0,
            state: ThreadState::TaskExecution.label(),
            start_ns: 1_000,
            end_ns: 5_000,
        });
        obs.sample_ready_depth(0, 3);
        obs.record_span(TaskSpan {
            worker: 0,
            task_id: 7,
            task_type: 2,
            start_ns: 1_200,
            end_ns: 4_800,
        });
        obs.record_decision(
            0,
            DecisionRecord {
                task_type: 2,
                task_id: 7,
                decision: MemoDecision::ThtHit,
                metric_value: 0.0,
                tau: 0.2,
                p: 0.5,
                producer: Some(3),
                t_ns: 1_300,
            },
        );
        // The same task's settlement closed its type: the span carries the
        // ledger reading next to the task's own τ and p.
        obs.record_decision(
            0,
            DecisionRecord {
                task_type: 2,
                task_id: 7,
                decision: MemoDecision::GateClose,
                metric_value: 9_000.0,
                tau: 1_000.0,
                p: 4_000.0,
                producer: None,
                t_ns: 1_400,
            },
        );
        obs.sample_store_bytes(0, 4_096);
        obs.note_type_name(2, "square");
        let json = assemble_chrome_trace(&obs);
        assert!(json.contains("\"decision\":\"tht_hit+gate_close\""));
        assert!(json.contains("\"spent_ns\":9000"));
        assert!(json.contains("\"earned_ns\":1000"));
        assert!(json.contains("\"allowance_ns\":4000"));
        assert!(json.contains("\"name\":\"Task Execution\""));
        assert!(json.contains("\"name\":\"square\""));
        assert!(json.contains("\"tau\":0.2"));
        assert!(json.contains("\"name\":\"ready_depth\""));
        assert!(json.contains("\"name\":\"store_bytes\""));
        assert!(json.contains("\"name\":\"worker 0 states\""));
        assert!(json.contains("\"name\":\"worker 0 tasks\""));
        // Span track lives away from the state track.
        assert!(json.contains(&format!("\"tid\":{}", SPAN_TID_BASE)));
    }

    #[test]
    fn unknown_types_and_missing_decisions_still_export() {
        let obs = Observability::capture();
        obs.record_span(TaskSpan {
            worker: 1,
            task_id: 42,
            task_type: 9,
            start_ns: 100,
            end_ns: 200,
        });
        let json = assemble_chrome_trace(&obs);
        assert!(json.contains("\"name\":\"type 9\""));
        assert!(json.contains("\"latency_ns\":100"));
        assert!(!json.contains("\"decision\""));
    }

    #[test]
    fn captured_workload_produces_a_rich_trace() {
        let json = capture_chrome_trace(2);
        // Real state intervals, named task spans with decisions, and both
        // counter tracks must all be present.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("trace_square_exact"));
        assert!(json.contains("trace_square_adaptive"));
        assert!(json.contains("\"decision\":\"tht_hit\""));
        assert!(json.contains("\"name\":\"ready_depth\""));
        assert!(json.contains("\"name\":\"store_bytes\""));
        assert!(json.lines().count() > 50, "the trace must not be trivial");
    }
}
