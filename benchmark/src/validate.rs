//! `atm-benchmark validate <result.json>`: names, units and completeness
//! of a result file against the catalogue (`spec.rs`, which a test keeps
//! equal to the committed `BENCHMARK.json`).

use crate::json::Json;
use crate::spec::{self, valid_name, valid_unit};
use std::path::Path;

/// Every problem found in `result` against the catalogue.
pub fn problems(result: &Json) -> Vec<String> {
    let mut found = Vec::new();
    let workload = result.get("workload").and_then(Json::as_str).unwrap_or("");
    if !spec::WORKLOADS.iter().any(|(name, _)| *name == workload) {
        found.push(format!("workload `{workload}` is not in the catalogue"));
    }
    for key in [
        "schema",
        "seed",
        "seconds",
        "trace",
        "correct",
        "attempted",
        "failed",
        "gates",
        "fingerprint",
    ] {
        if result.get(key).is_none() {
            found.push(format!("result lacks `{key}`"));
        }
    }
    let trace = result.get("trace").and_then(Json::as_str).unwrap_or("both");
    let end_to_end: Vec<(String, &str)> = spec::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .collect();
    let per_layer: Vec<(String, &str)> = spec::per_layer()
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect();
    for (section, declared, measured) in [
        ("end_to_end", end_to_end, trace != "1"),
        ("per_layer", per_layer, trace != "0"),
    ] {
        let reported = result.get(section).and_then(Json::as_obj).unwrap_or(&[]);
        for (name, metric) in reported {
            if !valid_name(name) {
                found.push(format!("{section}: `{name}` is not a valid metric name"));
            }
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            if !valid_unit(unit) {
                found.push(format!("{section}: `{name}` has an invalid unit `{unit}`"));
            }
            match declared.iter().find(|(n, _)| n == name) {
                None => found.push(format!("{section}: `{name}` is not in the catalogue")),
                Some((_, u)) if *u != unit => found.push(format!(
                    "{section}: `{name}` reports `{unit}`, the catalogue says `{u}`"
                )),
                Some(_) => {}
            }
            if !metric
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite)
            {
                found.push(format!("{section}: `{name}` has no finite value"));
            }
        }
        if measured {
            for (name, _) in &declared {
                if !reported.iter().any(|(n, _)| n == name) {
                    found.push(format!("{section}: `{name}` is missing"));
                }
            }
        }
    }
    found
}

/// Validates the file at `path`; returns the process exit code.
pub fn run(path: &Path) -> i32 {
    let result = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text));
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return 2;
        }
    };
    let found = problems(&result);
    for problem in &found {
        println!("{problem}");
    }
    println!("{}: {} problems", path.display(), found.len());
    i32::from(!found.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Sizing;
    use crate::outcome::{Outcome, RunCtx, TraceMode};

    fn result(trace: TraceMode) -> Json {
        let mut outcome = Outcome::new("flood", Json::Null);
        for m in &spec::END_TO_END {
            outcome.end_to_end.single(m.name, 2.0);
        }
        outcome.seal(trace, false);
        outcome.result_json(&RunCtx {
            seed: 1,
            seconds: 1.0,
            trace,
            sizing: Sizing::detect(),
            smoke: true,
            out_dir: "unused".into(),
        })
    }

    #[test]
    fn a_complete_result_validates_in_every_trace_mode() {
        for trace in [TraceMode::Off, TraceMode::On, TraceMode::Both] {
            assert_eq!(problems(&result(trace)), Vec::<String>::new());
        }
    }

    #[test]
    fn missing_renamed_and_mis_united_metrics_are_reported() {
        let mut doc = result(TraceMode::Both);
        let Json::Obj(fields) = &mut doc else {
            unreachable!()
        };
        let e2e = fields.iter_mut().find(|(k, _)| k == "end_to_end").unwrap();
        let Json::Obj(metrics) = &mut e2e.1 else {
            unreachable!()
        };
        metrics.remove(0); // setup_s missing
        metrics[0].0 = "wall time".to_string(); // renamed, invalid name
        let Json::Obj(wall) = &mut metrics[1].1 else {
            unreachable!()
        };
        wall[1].1 = Json::str("ms"); // baseline_wall_s with the wrong unit
        let found = problems(&doc);
        let has = |needle: &str| found.iter().any(|p| p.contains(needle));
        assert!(has("`setup_s` is missing"));
        assert!(has("`wall_s` is missing"));
        assert!(has("`wall time` is not a valid metric name"));
        assert!(has("`baseline_wall_s` reports `ms`"));
    }

    #[test]
    fn unknown_workloads_are_reported() {
        let mut doc = result(TraceMode::Off);
        let Json::Obj(fields) = &mut doc else {
            unreachable!()
        };
        fields.iter_mut().find(|(k, _)| k == "workload").unwrap().1 = Json::str("made-up");
        assert!(problems(&doc)[0].contains("made-up"));
    }
}
