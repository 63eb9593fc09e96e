//! What one workload run produces: named metrics with their noise,
//! correctness gates, and the JSON forms (the driver's result line and the
//! `result-<workload>.json` file).

use crate::env::{fingerprint, Sizing};
use crate::json::Json;
use crate::spec;
use crate::stats::Measured;
use std::path::PathBuf;
use std::time::Instant;

/// Which pass a run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Untraced rounds only: every end-to-end metric.
    Off,
    /// Traced pass and probes only: every per-layer metric.
    On,
    /// Both passes in one process (the default of `run.sh`).
    Both,
}

impl TraceMode {
    pub fn untraced(self) -> bool {
        self != TraceMode::On
    }

    pub fn traced(self) -> bool {
        self != TraceMode::Off
    }

    pub fn as_str(self) -> &'static str {
        match self {
            TraceMode::Off => "0",
            TraceMode::On => "1",
            TraceMode::Both => "both",
        }
    }
}

/// Everything a workload needs to know about the run it is part of.
#[derive(Debug, Clone)]
pub struct RunCtx {
    pub seed: u64,
    /// How long each pass measures.
    pub seconds: f64,
    pub trace: TraceMode,
    pub sizing: Sizing,
    /// Shape-only mode: tiny inputs, a single round per side.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl RunCtx {
    /// Setup repetitions whose median is `setup_s` (one-shot set-up time is
    /// the noisiest number a process can report).
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Minimum duration of one layer probe, seconds.
    pub fn probe_seconds(&self) -> f64 {
        if self.smoke {
            0.005
        } else {
            0.2
        }
    }
}

/// A wall-clock allowance for a measuring loop.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// True while another step of about `step_seconds` still fits.
    pub fn has_room_for(&self, step_seconds: f64) -> bool {
        self.elapsed() + step_seconds <= self.seconds
    }
}

/// One correctness condition of a workload.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// A named list of measured values that refuses duplicates.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, Measured)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: Measured) {
        assert!(
            self.get(name).is_none(),
            "metric {name} reported twice by one workload"
        );
        self.0.push((name.to_string(), value));
    }

    pub fn single(&mut self, name: &str, value: f64) {
        self.set(name, Measured::single(value));
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, m)| *m)
    }

    #[cfg(test)]
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.value)
    }
}

/// Unit of every catalogue metric, built once per rendering.
struct Units(Vec<(String, &'static str)>);

impl Units {
    fn new() -> Self {
        let end_to_end = spec::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit));
        let per_layer = spec::per_layer().into_iter().map(|m| (m.name, m.unit));
        Units(end_to_end.chain(per_layer).collect())
    }

    fn of(&self, name: &str) -> &'static str {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| u)
    }
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub gates: Vec<Gate>,
    /// Operations attempted (program rounds, or requests outside `sat`).
    pub attempted: u64,
    /// Operations that failed: a wrong output.
    pub failed: u64,
    /// False when the load generator itself ran late (numbers untrustworthy).
    pub valid: bool,
    /// The workload's frozen constants, for the fingerprint.
    pub frozen: Json,
    /// `(span, layer, calls, self_ns)` of the traced pass.
    pub self_times: Vec<(&'static str, &'static str, u64, f64)>,
}

impl Outcome {
    pub fn new(workload: &'static str, frozen: Json) -> Self {
        Outcome {
            workload,
            end_to_end: Metrics::default(),
            per_layer: Metrics::default(),
            gates: Vec::new(),
            attempted: 0,
            failed: 0,
            valid: true,
            frozen,
            self_times: Vec::new(),
        }
    }

    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Every gate passed. Each workload gates every output it verified, so
    /// a wrong output is always a failed gate.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }

    /// Puts the report in catalogue order, reports layers this workload
    /// does not exercise as 0, and gates on completeness: a pass that ran
    /// must have produced every metric of its kind, under catalogue names
    /// only.
    pub fn seal(&mut self, trace: TraceMode, smoke: bool) {
        let mut problems = Vec::new();
        if trace.untraced() {
            let mut ordered = Metrics::default();
            for m in &spec::END_TO_END {
                match self.end_to_end.get(m.name) {
                    // End-to-end metrics are chosen never to be 0 at bench
                    // sizes; smoke inputs are too small to promise that.
                    Some(v) if v.value.is_finite() && (v.value != 0.0 || smoke) => {
                        ordered.set(m.name, v)
                    }
                    Some(v) => problems.push(format!("{} = {}", m.name, v.value)),
                    None => problems.push(format!("{} missing", m.name)),
                }
            }
            for (name, _) in &self.end_to_end.0 {
                if spec::end_to_end(name).is_none() {
                    problems.push(format!("{name} not in the catalogue"));
                }
            }
            self.end_to_end = ordered;
        }
        if trace.traced() {
            let catalogue = spec::per_layer();
            let mut ordered = Metrics::default();
            for m in &catalogue {
                let v = self.per_layer.get(&m.name).unwrap_or(Measured::single(0.0));
                if !v.value.is_finite() {
                    problems.push(format!("{} is not finite", m.name));
                }
                ordered.set(&m.name, v);
            }
            for (name, _) in &self.per_layer.0 {
                if !catalogue.iter().any(|m| &m.name == name) {
                    problems.push(format!("{name} not in the catalogue"));
                }
            }
            self.per_layer = ordered;
        }
        self.gate("report.complete", problems.is_empty(), problems.join("; "));
    }

    fn metrics_json(metrics: &Metrics, units: &Units, full: bool) -> Json {
        Json::obj(metrics.0.iter().map(|(name, m)| {
            let mut fields = vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::str(units.of(name))),
            ];
            if full {
                fields.push(("q1", Json::Num(m.q1)));
                fields.push(("q3", Json::Num(m.q3)));
                fields.push(("n", Json::Num(m.n as f64)));
            }
            (name.clone(), Json::obj(fields))
        }))
    }

    /// The one-line result object the driver reads from the last line of
    /// standard output.
    pub fn driver_line(&self, trace: TraceMode) -> String {
        let units = Units::new();
        let mut metrics = Vec::new();
        if trace.untraced() {
            if let Json::Obj(fields) = Self::metrics_json(&self.end_to_end, &units, false) {
                metrics.extend(fields);
            }
        }
        if trace.traced() {
            if let Json::Obj(fields) = Self::metrics_json(&self.per_layer, &units, false) {
                metrics.extend(fields);
            }
        }
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// The `result-<workload>.json` document.
    pub fn result_json(&self, ctx: &RunCtx) -> Json {
        let units = Units::new();
        Json::obj([
            ("schema", Json::str("atm-benchmark/1")),
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(ctx.seed as f64)),
            ("seconds", Json::Num(ctx.seconds)),
            ("trace", Json::str(ctx.trace.as_str())),
            ("smoke", Json::Bool(ctx.smoke)),
            ("correct", Json::Bool(self.correct())),
            ("valid", Json::Bool(self.valid)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "gates",
                Json::Arr(
                    self.gates
                        .iter()
                        .map(|g| {
                            Json::obj([
                                ("name", Json::str(g.name.clone())),
                                ("ok", Json::Bool(g.ok)),
                                ("detail", Json::str(g.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "fingerprint",
                fingerprint(ctx.sizing, ctx.seed, self.frozen.clone()),
            ),
            (
                "end_to_end",
                Self::metrics_json(&self.end_to_end, &units, true),
            ),
            (
                "per_layer",
                Self::metrics_json(&self.per_layer, &units, true),
            ),
            (
                "self_time",
                Json::Arr(
                    self.self_times
                        .iter()
                        .map(|(name, layer, calls, self_ns)| {
                            Json::obj([
                                ("span", Json::str(*name)),
                                ("layer", Json::str(*layer)),
                                ("calls", Json::Num(*calls as f64)),
                                ("self_ms", Json::Num(self_ns / 1e6)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit, for a person.
    pub fn print_table(&self) {
        println!("== {} ==", self.workload);
        let units = Units::new();
        let row = |name: &str, unit: &str, m: &Measured| {
            if m.n > 1 {
                println!(
                    "{name:<36} {:>16.6} {unit:<6} q1 {:.6} q3 {:.6} n {}",
                    m.value, m.q1, m.q3, m.n
                );
            } else {
                println!("{name:<36} {:>16.6} {unit}", m.value);
            }
        };
        for (name, m) in self.end_to_end.0.iter().chain(&self.per_layer.0) {
            row(name, units.of(name), m);
        }
        for (name, layer, calls, self_ns) in &self.self_times {
            println!(
                "self-time {name:<26} {:>16.3} ms     layer {layer}, {calls} calls",
                self_ns / 1e6
            );
        }
        for gate in &self.gates {
            let verdict = if gate.ok { "ok" } else { "FAILED" };
            println!("gate {:<31} {verdict} {}", gate.name, gate.detail);
        }
        if !self.valid {
            println!("INVALID RUN: the load generator ran late (bench.gen_late_p99_us > 200)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace: TraceMode) -> RunCtx {
        RunCtx {
            seed: 1,
            seconds: 1.0,
            trace,
            sizing: Sizing::detect(),
            smoke: true,
            out_dir: PathBuf::from("unused"),
        }
    }

    fn complete(trace: TraceMode) -> Outcome {
        let mut outcome = Outcome::new("flood", Json::Null);
        outcome.attempted = 4;
        for m in &spec::END_TO_END {
            outcome.end_to_end.single(m.name, 1.5);
        }
        outcome.per_layer.single("store.hits", 3.0);
        outcome.seal(trace, false);
        outcome
    }

    #[test]
    fn sealed_outcome_reports_every_catalogue_metric_for_its_pass() {
        let outcome = complete(TraceMode::Both);
        assert!(outcome.correct(), "{:?}", outcome.gates);
        assert_eq!(outcome.end_to_end.0.len(), 12);
        assert_eq!(outcome.per_layer.0.len(), 105);
        assert_eq!(outcome.per_layer.value("store.hits"), 3.0);
        assert_eq!(outcome.per_layer.value("serve.drain_ms"), 0.0);
        let line = Json::parse(&outcome.driver_line(TraceMode::Off)).unwrap();
        assert_eq!(line.get("metrics").unwrap().as_obj().unwrap().len(), 12);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        let line = Json::parse(&outcome.driver_line(TraceMode::On)).unwrap();
        assert_eq!(line.get("metrics").unwrap().as_obj().unwrap().len(), 105);
    }

    #[test]
    fn a_missing_zero_or_unknown_metric_fails_the_completeness_gate() {
        let mut missing = Outcome::new("flood", Json::Null);
        missing.end_to_end.single("wall_s", 1.0);
        missing.seal(TraceMode::Off, false);
        assert!(!missing.correct());

        let mut zero = complete(TraceMode::Off);
        zero.gates.clear();
        zero.end_to_end.0[0].1 = Measured::single(0.0);
        zero.seal(TraceMode::Off, false);
        assert!(!zero.correct());

        let mut unknown = complete(TraceMode::Off);
        unknown.gates.clear();
        unknown.per_layer.single("store.made_up", 1.0);
        unknown.seal(TraceMode::On, false);
        assert!(!unknown.correct());
    }

    #[test]
    fn a_failed_gate_makes_the_run_incorrect_and_failures_are_reported() {
        let mut outcome = complete(TraceMode::Off);
        outcome.failed = 3;
        let line = Json::parse(&outcome.driver_line(TraceMode::Off)).unwrap();
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(3.0));
        let mut outcome = complete(TraceMode::Off);
        outcome.gate("flood.chain_ends", false, "chain 3: 7 != 8");
        assert!(!outcome.correct());
        let line = Json::parse(&outcome.driver_line(TraceMode::Off)).unwrap();
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn result_document_round_trips_and_carries_the_fingerprint() {
        let outcome = complete(TraceMode::Both);
        let doc = outcome.result_json(&ctx(TraceMode::Both));
        let parsed = Json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(parsed, doc);
        let fp = parsed.get("fingerprint").unwrap();
        for key in [
            "nproc",
            "workers",
            "serve_workers",
            "cpu_model",
            "build_profile",
            "git_head",
            "seed",
            "frozen",
        ] {
            assert!(fp.get(key).is_some(), "fingerprint lacks {key}");
        }
        let wall = parsed.get("end_to_end").unwrap().get("wall_s").unwrap();
        for key in ["value", "unit", "q1", "q3", "n"] {
            assert!(wall.get(key).is_some(), "metric lacks {key}");
        }
    }
}
