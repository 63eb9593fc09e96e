//! Benchmark-owned spans. The traced pass wraps the calls *into* each layer
//! (interceptor hooks, kernel closures, submit calls, host region writes)
//! and records one span per call; nothing inside the program is touched.
//! Spans stay in memory and are written as a Chrome trace when the pass
//! ends.

use crate::outcome::Outcome;
use crate::stats::{median, percentile_sorted, sorted};
use atm_obs::ChromeTraceBuilder;
use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Name of the enclosing span kind (`""` for a root). Together with
    /// `id` it identifies the parent: spans of one task or request share
    /// their `id`.
    pub parent: &'static str,
    /// Task id (`flood`) or request sequence number (`serve-zipf`).
    pub id: u64,
}

/// Spans one thread may keep; later ones are counted and dropped so a long
/// pass cannot exhaust memory.
const SPANS_PER_THREAD: usize = 1 << 20;
/// Events written to the Chrome trace file (the earliest by start time).
const TRACE_FILE_EVENTS: usize = 40_000;
const SHARDS: usize = 16;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_SLOT: Cell<usize> = Cell::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
}

#[derive(Default)]
struct Shard {
    spans: Vec<Span>,
    dropped: u64,
}

/// In-memory span log, sharded per recording thread (each thread locks only
/// its own shard, so recording never contends).
pub struct Tracer {
    epoch: Instant,
    shards: Vec<Mutex<Shard>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(&self, span: Span) {
        let slot = THREAD_SLOT.with(Cell::get) % SHARDS;
        let mut shard = self.shards[slot].lock().expect("span shard poisoned");
        if shard.spans.len() < SPANS_PER_THREAD {
            shard.spans.push(span);
        } else {
            shard.dropped += 1;
        }
    }

    /// Times `f` as a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let result = f();
        self.record(Span {
            name,
            layer,
            start_ns,
            end_ns: self.now_ns(),
            parent,
            id,
        });
        result
    }

    /// Takes every recorded span out of the log, `(thread, span)`.
    pub fn drain(&self) -> TraceData {
        let mut spans = Vec::new();
        let mut dropped = 0;
        for (thread, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.lock().expect("span shard poisoned");
            dropped += shard.dropped;
            shard.dropped = 0;
            spans.extend(shard.spans.drain(..).map(|s| (thread, s)));
        }
        TraceData { spans, dropped }
    }
}

/// The spans of one traced pass.
pub struct TraceData {
    pub spans: Vec<(usize, Span)>,
    pub dropped: u64,
}

impl TraceData {
    /// Appends the spans recorded after an earlier drain (the probes).
    pub fn absorb(&mut self, later: TraceData) {
        self.spans.extend(later.spans);
        self.dropped += later.dropped;
    }

    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|(_, s)| s.name == name)
            .map(|(_, s)| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn p50_ns(&self, name: &str) -> f64 {
        median(&self.durations_ns(name))
    }

    pub fn p99_ns(&self, name: &str) -> f64 {
        percentile_sorted(&sorted(&self.durations_ns(name)), 99.0)
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Start time of the earliest span called `name` per id.
    pub fn first_start_by_id(&self, names: &[&str]) -> HashMap<u64, u64> {
        let mut starts: HashMap<u64, u64> = HashMap::new();
        for (_, s) in self.spans.iter().filter(|(_, s)| names.contains(&s.name)) {
            starts
                .entry(s.id)
                .and_modify(|t| *t = (*t).min(s.start_ns))
                .or_insert(s.start_ns);
        }
        starts
    }

    /// Self time per span kind: its total duration minus the total of the
    /// span kinds that name it as parent. `(name, layer, calls, self_ns)`.
    pub fn self_times(&self) -> Vec<(&'static str, &'static str, u64, f64)> {
        let mut totals: Vec<(&'static str, &'static str, u64, f64)> = Vec::new();
        let mut children: HashMap<&'static str, f64> = HashMap::new();
        for (_, s) in &self.spans {
            let dur = (s.end_ns - s.start_ns) as f64;
            match totals.iter_mut().find(|t| t.0 == s.name) {
                Some(t) => {
                    t.2 += 1;
                    t.3 += dur;
                }
                None => totals.push((s.name, s.layer, 1, dur)),
            }
            if !s.parent.is_empty() {
                *children.entry(s.parent).or_default() += dur;
            }
        }
        for t in &mut totals {
            t.3 -= children.get(t.0).copied().unwrap_or(0.0);
        }
        totals
    }

    /// Ends a traced pass: self times into the outcome, the Chrome trace
    /// into the run's output directory, and a gate on both having worked —
    /// a pass that had to drop spans reports medians of a biased sample.
    pub fn conclude(&self, outcome: &mut Outcome, out_dir: &Path) {
        outcome.self_times = self.self_times();
        let path = out_dir.join(format!("trace-{}.json", outcome.workload));
        let written = self.write_chrome(&path, outcome.workload);
        outcome.gate(
            "trace.complete",
            self.dropped == 0 && written.is_ok(),
            match written {
                Ok(events) => format!(
                    "{} spans kept, {} dropped, {events} written to {}",
                    self.spans.len(),
                    self.dropped,
                    path.display()
                ),
                Err(err) => format!("{}: {err}", path.display()),
            },
        );
    }

    /// Writes the earliest spans as a Chrome trace (`chrome://tracing`,
    /// ui.perfetto.dev). Returns the number of events written.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<usize> {
        let mut order: Vec<&(usize, Span)> = self.spans.iter().collect();
        order.sort_by_key(|(thread, s)| (s.start_ns, *thread));
        order.truncate(TRACE_FILE_EVENTS);
        let mut trace = ChromeTraceBuilder::new();
        trace.process_name(1, &format!("atm-benchmark {workload}"));
        let mut threads: Vec<usize> = order.iter().map(|(t, _)| *t).collect();
        threads.sort_unstable();
        threads.dedup();
        for thread in threads {
            trace.thread_name(1, thread as u64, &format!("thread-{thread}"));
        }
        for (thread, s) in &order {
            trace.complete(
                1,
                *thread as u64,
                s.name,
                s.start_ns,
                s.end_ns,
                &[
                    ("layer", format!("\"{}\"", s.layer)),
                    ("parent", format!("\"{}\"", s.parent)),
                    ("id", s.id.to_string()),
                ],
            );
        }
        std::fs::write(path, trace.finish())?;
        Ok(order.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &'static str, parent: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            layer: "test",
            start_ns,
            end_ns,
            parent,
            id: 7,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let tracer = Tracer::new();
        tracer.record(span("task", "", 0, 100));
        tracer.record(span("before", "task", 0, 30));
        tracer.record(span("kernel", "task", 30, 80));
        let data = tracer.drain();
        let times = data.self_times();
        let of = |name| times.iter().find(|t| t.0 == name).unwrap().3;
        assert_eq!(of("task"), 20.0);
        assert_eq!(of("before"), 30.0);
        assert_eq!(of("kernel"), 50.0);
        assert_eq!(data.p50_ns("kernel"), 50.0);
        assert_eq!(data.first_start_by_id(&["before", "kernel"])[&7], 0);
        assert!(tracer.drain().spans.is_empty(), "drain empties the log");
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let tracer = Tracer::new();
        tracer.span("outer", "test", "", 1, || {
            tracer.span("inner", "test", "outer", 1, || std::hint::black_box(3))
        });
        // Inside the package's own (ignored) output directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("test-trace-{}.json", std::process::id()));
        let written = tracer.drain().write_chrome(&path, "unit").unwrap();
        assert_eq!(written, 2);
        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        // Process name + one thread name + two spans.
        assert_eq!(parsed.as_arr().unwrap().len(), 4);
        std::fs::remove_file(&path).unwrap();
    }
}
