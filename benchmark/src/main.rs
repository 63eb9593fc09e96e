//! `atm-benchmark`: the repository's long-run benchmark. Four workloads,
//! twelve end-to-end metrics and a per-layer ledger measured from outside
//! the program — by timing calls into each layer's public functions, by
//! benchmark-owned wrappers, and by reading the counters the program
//! already returns. See `README.md` beside this package.

mod apps;
mod compare;
mod env;
mod flood;
mod gen;
mod json;
mod outcome;
mod probes;
mod serve;
mod spec;
mod stats;
mod trace;
mod validate;

use outcome::{Outcome, RunCtx, TraceMode};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: atm-benchmark [run] [--workload NAME]... [--seed N] [--seconds S]
                     [--trace 0|1|both] [--out DIR] [--smoke]
       atm-benchmark compare <dirA> <dirB>
       atm-benchmark validate <result.json>
       atm-benchmark manifest

run       runs the named workloads (all four by default), verifies their
          outputs, prints every metric by name with its unit, writes
          result-<workload>.json (and trace-<workload>.json for a traced
          pass) into --out, and ends its output with one JSON result line
          per workload. --trace 0 measures the end-to-end metrics with
          tracing off, --trace 1 the per-layer metrics in a traced pass,
          both (the default) does one after the other. --smoke runs tiny
          inputs for shape only.
compare   one row per (metric, workload) of two result directories; exits 1
          when a metric got worse by more than its bound.
validate  checks a result file's names, units and completeness.
manifest  prints BENCHMARK.json as the metric catalogue defines it.";

struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: TraceMode,
    out: PathBuf,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: TraceMode::Both,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        smoke: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec::WORKLOADS.iter().any(|(w, _)| w == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                run.workloads.push(name.clone());
            }
            "--seed" => {
                run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                run.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
                seconds_given = true;
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => TraceMode::Off,
                    "1" => TraceMode::On,
                    "both" => TraceMode::Both,
                    other => return Err(format!("--trace takes 0, 1 or both, not `{other}`")),
                }
            }
            "--out" => run.out = PathBuf::from(value()?),
            "--smoke" => run.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if run.workloads.is_empty() {
        run.workloads = spec::WORKLOADS.iter().map(|(w, _)| w.to_string()).collect();
    }
    if run.smoke && !seconds_given {
        run.seconds = 1.0;
    }
    Ok(run)
}

fn run_workload(name: &str, ctx: &RunCtx) -> Outcome {
    env::reset_peak_rss();
    let mut outcome = match name {
        "apps-exact" => apps::run(ctx, apps::Regime::Exact),
        "apps-approx" => apps::run(ctx, apps::Regime::Approx),
        "flood" => flood::run(ctx),
        "serve-zipf" => serve::run(ctx),
        other => unreachable!("workload `{other}` passed argument checking"),
    };
    outcome.seal(ctx.trace, ctx.smoke);
    outcome
}

fn run(args: RunArgs) -> ExitCode {
    if let Err(err) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {err}", args.out.display());
        return ExitCode::from(2);
    }
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizing: env::Sizing::detect(),
        smoke: args.smoke,
        out_dir: args.out,
    };
    let mut lines = Vec::new();
    let mut all_correct = true;
    for name in &args.workloads {
        let outcome = run_workload(name, &ctx);
        outcome.print_table();
        let path = ctx.out_dir.join(format!("result-{name}.json"));
        if let Err(err) = std::fs::write(&path, outcome.result_json(&ctx).render_pretty()) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
        all_correct &= outcome.correct();
        lines.push(outcome.driver_line(ctx.trace));
    }
    // The result lines come last: a driver reads the final line.
    for line in lines {
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("a correctness gate failed (see the `gate` rows above)");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |err: &str| {
        eprintln!("{err}\n{USAGE}");
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => ExitCode::from(compare::run(a.as_ref(), b.as_ref()) as u8),
            _ => usage("compare takes two directories"),
        },
        Some("validate") => match &args[1..] {
            [result] => ExitCode::from(validate::run(result.as_ref()) as u8),
            _ => usage("validate takes one result file"),
        },
        Some("manifest") => {
            print!("{}", spec::manifest().render_pretty());
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        first => {
            let rest = if first == Some("run") {
                &args[1..]
            } else {
                &args[..]
            };
            match parse_run(rest) {
                Ok(run_args) => run(run_args),
                Err(err) => usage(&err),
            }
        }
    }
}
