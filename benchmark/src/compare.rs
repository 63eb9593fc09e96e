//! `atm-benchmark compare <dirA> <dirB>`: one row per (end-to-end metric,
//! workload) with both medians, their quartiles, the ratio with its base
//! and a verdict; the per-layer numbers predicted to move a metric are
//! printed under its row when they changed. Two directories that were not
//! run alike, or that hold a failed or invalid run, are refused.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::Measured;
use std::path::Path;

/// A per-layer delta is listed when the number moved by more than this.
const LAYER_DELTA_SHOWN: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the metric's bound.
    Worse,
    /// Either side's own spread is wider than the bound: the runs cannot
    /// tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric of a result file; quartiles a file lacks default to the value.
fn reading(metric: &Json) -> Option<Measured> {
    let value = metric.get("value")?.as_f64()?;
    let field = |key| metric.get(key).and_then(Json::as_f64);
    Some(Measured {
        value,
        q1: field("q1").unwrap_or(value),
        q3: field("q3").unwrap_or(value),
        n: field("n").map_or(1, |n| n as usize),
    })
}

/// Share of A's median by which B is worse (negative when B is better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn verdict(a: Measured, b: Measured, better: Better, bound: f64) -> Verdict {
    if worsening(a.value, b.value, better) > bound {
        Verdict::Worse
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// A workload's result file in `dir`; `None` when the directory has none.
fn load(dir: &Path, workload: &str) -> Result<Option<Json>, String> {
    let path = dir.join(format!("result-{workload}.json"));
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Every reason the two results of one workload cannot be compared: they
/// were run with different settings or sizing, one of them failed a
/// correctness gate or had a late load generator, or they do not report
/// the same metrics. A verdict over such a pair would be about the
/// settings, not the program.
fn incomparable(workload: &str, a: &Json, b: &Json) -> Vec<String> {
    let mut found = Vec::new();
    for key in ["schema", "seed", "seconds", "smoke", "trace"] {
        if a.get(key) != b.get(key) {
            found.push(format!(
                "{workload}: `{key}` differs ({} vs {})",
                a.get(key).map_or("absent".to_string(), Json::render),
                b.get(key).map_or("absent".to_string(), Json::render),
            ));
        }
    }
    // The commit and the machine's name may differ; the sizing, the build
    // and the workload's frozen constants may not.
    for key in ["workers", "serve_workers", "build_profile", "frozen"] {
        let read = |doc: &Json| doc.get("fingerprint").and_then(|f| f.get(key)).cloned();
        if read(a) != read(b) {
            found.push(format!("{workload}: fingerprint `{key}` differs"));
        }
    }
    for (side, doc) in [("A", a), ("B", b)] {
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            found.push(format!("{workload}: {side} failed a correctness gate"));
        }
        if doc.get("valid").and_then(Json::as_bool) != Some(true) {
            found.push(format!(
                "{workload}: {side} is flagged invalid (its load generator ran late)"
            ));
        }
    }
    for section in ["end_to_end", "per_layer"] {
        let names = |doc: &Json| -> Vec<String> {
            doc.get(section)
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .filter(|(_, metric)| reading(metric).is_some())
                .map(|(name, _)| name.clone())
                .collect()
        };
        let (in_a, in_b) = (names(a), names(b));
        for name in in_a.iter().filter(|n| !in_b.contains(n)) {
            found.push(format!("{workload}: {section} `{name}` is missing in B"));
        }
        for name in in_b.iter().filter(|n| !in_a.contains(n)) {
            found.push(format!("{workload}: {section} `{name}` is missing in A"));
        }
    }
    found
}

/// Compares two result directories; returns the process exit code: 0 when
/// no metric got worse, 1 when one did, 2 when the directories cannot be
/// compared (nothing is judged then).
pub fn run(dir_a: &Path, dir_b: &Path) -> i32 {
    let mut pairs = Vec::new();
    let mut problems = Vec::new();
    for (workload, _) in spec::WORKLOADS {
        match (load(dir_a, workload), load(dir_b, workload)) {
            (Ok(None), Ok(None)) => {}
            (Ok(Some(a)), Ok(Some(b))) => {
                problems.extend(incomparable(workload, &a, &b));
                pairs.push((workload, a, b));
            }
            (Ok(Some(_)), Ok(None)) => {
                problems.push(format!("{workload}: {} has no result", dir_b.display()))
            }
            (Ok(None), Ok(Some(_))) => {
                problems.push(format!("{workload}: {} has no result", dir_a.display()))
            }
            (Err(e), _) | (_, Err(e)) => problems.push(e),
        }
    }
    if pairs.is_empty() && problems.is_empty() {
        problems.push(format!(
            "no results in {} and {}",
            dir_a.display(),
            dir_b.display()
        ));
    }
    if !problems.is_empty() {
        for problem in &problems {
            eprintln!("{problem}");
        }
        eprintln!(
            "not comparable: {} problems, nothing judged",
            problems.len()
        );
        return 2;
    }

    let layers = spec::per_layer();
    let (mut worse, mut unresolved, mut rows, mut second) = (0, 0, 0, 0);
    println!(
        "{:<12} {:<18} {:>14} {:>22} {:>14} {:>22} {:>9}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A"
    );
    for (workload, a, b) in &pairs {
        for m in &spec::END_TO_END {
            let read = |doc: &Json| {
                doc.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(reading)
            };
            // A result of a `--trace 1` run has no end-to-end section.
            let (Some(ra), Some(rb)) = (read(a), read(b)) else {
                continue;
            };
            let v = verdict(ra, rb, m.better, m.bound);
            let note = spec::second_reading(workload, m.name);
            rows += 1;
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            second += usize::from(v == Verdict::Worse && note.is_some());
            println!(
                "{workload:<12} {:<18} {:>14.6} {:>22} {:>14.6} {:>22} {:>9.4}  {} (base A = {:.6} {}, bound {:.1} %){}",
                m.name,
                ra.value,
                format!("{:.6}..{:.6}", ra.q1, ra.q3),
                rb.value,
                format!("{:.6}..{:.6}", rb.q1, rb.q3),
                if ra.value == 0.0 { 0.0 } else { rb.value / ra.value },
                v.as_str(),
                ra.value,
                m.unit,
                m.bound * 100.0,
                note.map_or(String::new(), |n| format!(" [second reading: {n}]")),
            );
            for layer in layers.iter().filter(|l| l.moves.contains(&m.name)) {
                let read = |doc: &Json| {
                    doc.get("per_layer")
                        .and_then(|e| e.get(&layer.name))
                        .and_then(reading)
                };
                let (Some(la), Some(lb)) = (read(a), read(b)) else {
                    continue;
                };
                if la.value == 0.0 && lb.value == 0.0 {
                    continue;
                }
                let delta = if la.value == 0.0 {
                    f64::INFINITY
                } else {
                    lb.value / la.value - 1.0
                };
                if delta.abs() > LAYER_DELTA_SHOWN {
                    println!(
                        "{:<12}   layer {:<34} {:>14.6} -> {:<14.6} {:+.1} % of A ({})",
                        "",
                        layer.name,
                        la.value,
                        lb.value,
                        delta * 100.0,
                        layer.unit
                    );
                }
            }
        }
    }
    if rows == 0 {
        eprintln!("not comparable: the results hold no end-to-end metrics (`--trace 1` runs)");
        return 2;
    }
    println!(
        "{rows} rows: {worse} worse ({second} of them second readings of a row above), {unresolved} unresolved"
    );
    i32::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(value: f64, q1: f64, q3: f64) -> Measured {
        Measured {
            value,
            q1,
            q3,
            n: 7,
        }
    }

    #[test]
    fn worsening_respects_the_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdicts() {
        let steady = measured(10.0, 9.9, 10.1);
        assert_eq!(
            verdict(steady, measured(10.5, 10.4, 10.6), Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(steady, measured(11.5, 11.4, 11.6), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(steady, measured(8.0, 7.9, 8.1), Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(steady, measured(8.0, 7.9, 8.1), Better::Higher, 0.1),
            Verdict::Worse
        );
        // A side noisier than the bound cannot resolve a change of that size.
        assert_eq!(
            verdict(measured(10.0, 9.0, 11.0), steady, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ... but a regression beyond the bound is still reported as one.
        assert_eq!(
            verdict(
                measured(10.0, 9.0, 11.0),
                measured(12.0, 11.9, 12.1),
                Better::Lower,
                0.1
            ),
            Verdict::Worse
        );
    }

    fn result(seed: u64, seconds: f64) -> Json {
        use crate::env::Sizing;
        use crate::outcome::{Outcome, RunCtx, TraceMode};
        let mut outcome = Outcome::new("flood", Json::obj([("waves", Json::Num(512.0))]));
        for m in &spec::END_TO_END {
            outcome.end_to_end.single(m.name, 2.0);
        }
        outcome.seal(TraceMode::Both, false);
        outcome.result_json(&RunCtx {
            seed,
            seconds,
            trace: TraceMode::Both,
            sizing: Sizing::detect(),
            smoke: false,
            out_dir: "unused".into(),
        })
    }

    fn set(doc: &mut Json, key: &str, value: Json) {
        let Json::Obj(fields) = doc else {
            unreachable!()
        };
        fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
    }

    #[test]
    fn only_like_runs_that_passed_their_gates_are_comparable() {
        let a = result(1, 20.0);
        assert_eq!(incomparable("flood", &a, &a), Vec::<String>::new());
        let has = |found: &[String], needle: &str| found.iter().any(|p| p.contains(needle));

        let found = incomparable("flood", &a, &result(2, 5.0));
        assert!(has(&found, "`seed` differs") && has(&found, "`seconds` differs"));

        let mut smoke = a.clone();
        set(&mut smoke, "smoke", Json::Bool(true));
        set(&mut smoke, "trace", Json::str("0"));
        let found = incomparable("flood", &a, &smoke);
        assert!(has(&found, "`smoke` differs") && has(&found, "`trace` differs"));

        let mut wrong = a.clone();
        set(&mut wrong, "correct", Json::Bool(false));
        assert!(has(
            &incomparable("flood", &a, &wrong),
            "B failed a correctness gate"
        ));
        let mut late = a.clone();
        set(&mut late, "valid", Json::Bool(false));
        assert!(has(
            &incomparable("flood", &late, &a),
            "A is flagged invalid"
        ));

        let mut short = a.clone();
        let Json::Obj(fields) = &mut short else {
            unreachable!()
        };
        let e2e = fields.iter_mut().find(|(k, _)| k == "end_to_end").unwrap();
        let Json::Obj(metrics) = &mut e2e.1 else {
            unreachable!()
        };
        metrics.retain(|(name, _)| name != "wall_s");
        assert!(has(
            &incomparable("flood", &a, &short),
            "end_to_end `wall_s` is missing in B"
        ));

        let mut resized = a.clone();
        let Json::Obj(fields) = &mut resized else {
            unreachable!()
        };
        let fp = fields.iter_mut().find(|(k, _)| k == "fingerprint").unwrap();
        set(&mut fp.1, "workers", Json::Num(64.0));
        assert!(has(
            &incomparable("flood", &a, &resized),
            "fingerprint `workers` differs"
        ));
    }

    #[test]
    fn a_missing_or_mismatched_directory_is_refused_not_skipped() {
        // Inside the package's own (ignored) output directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-compare-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        std::fs::create_dir_all(&a).unwrap();
        std::fs::create_dir_all(&b).unwrap();
        assert_eq!(run(&a, &b), 2, "two empty directories");
        std::fs::write(a.join("result-flood.json"), result(1, 20.0).render()).unwrap();
        assert_eq!(run(&a, &b), 2, "a workload present on one side only");
        std::fs::write(b.join("result-flood.json"), result(2, 20.0).render()).unwrap();
        assert_eq!(run(&a, &b), 2, "another seed");
        std::fs::write(b.join("result-flood.json"), result(1, 20.0).render()).unwrap();
        assert_eq!(run(&a, &b), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readings_default_their_quartiles_to_the_value() {
        let r = reading(&Json::obj([("value", Json::Num(3.0))])).unwrap();
        assert_eq!((r.q1, r.q3, r.n, r.spread()), (3.0, 3.0, 1, 0.0));
        assert!(reading(&Json::obj([("unit", Json::str("s"))])).is_none());
    }
}
