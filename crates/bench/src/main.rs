//! `atm-eval` — regenerates the tables and figures of the ATM paper's
//! evaluation over its six benchmark applications. Performance across
//! commits is judged by `benchmark/run.sh compare`, not here.
//!
//! ```text
//! atm-eval <experiment>|all [--scale tiny|small|paper] [--workers N]
//!          [--csv DIR] [--json DIR] [--trace FILE] [--quick] [--list]
//! ```
//!
//! Experiments (11): table1 table2 table3 sizing figure3 figure4 figure5
//! figure6 figure7 figure8 figure9. `--scale paper` runs the paper's own
//! problem sizes (several GiB, long runtimes).
//!
//! `--quick` is the CI smoke mode: tiny scale, two workers. `--json DIR`
//! writes one `BENCH_<experiment>.json` per experiment with the machine-
//! readable metrics (memo-store hits, misses, insertions, evictions,
//! rejected admissions, resident bytes, saved kernel time, task-latency
//! percentiles). `--trace FILE` additionally runs a small workload under a
//! capture handle after the experiments and writes everything it recorded
//! as a Chrome Trace Event Format file that <https://ui.perfetto.dev>
//! loads directly.

use atm_apps::Scale;
use atm_eval::{all_experiments, run_experiment, EvalContext, Experiment};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    experiments: Vec<Experiment>,
    scale: Scale,
    workers: usize,
    csv_dir: Option<PathBuf>,
    json_dir: Option<PathBuf>,
    trace_path: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: atm-eval <experiment>|all [--scale tiny|small|paper] [--workers N] [--csv DIR] [--json DIR] [--trace FILE] [--quick]\n       atm-eval --list\n\nexperiments: {}",
        all_experiments().join(" ")
    )
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut experiments = Vec::new();
    let mut scale = Scale::Small;
    let mut workers = 8usize;
    let mut csv_dir = None;
    let mut json_dir = None;
    let mut trace_path = None;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                return Err(format!(
                    "available experiments: {}",
                    all_experiments().join(" ")
                ));
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    other => return Err(format!("unknown scale {other:?}\n{}", usage())),
                };
            }
            "--workers" => {
                i += 1;
                workers = args
                    .get(i)
                    .and_then(|w| w.parse().ok())
                    .filter(|&w| w >= 1)
                    .ok_or_else(|| format!("--workers needs a positive integer\n{}", usage()))?;
            }
            "--csv" => {
                i += 1;
                csv_dir =
                    Some(PathBuf::from(args.get(i).ok_or_else(|| {
                        format!("--csv needs a directory\n{}", usage())
                    })?));
            }
            "--json" => {
                i += 1;
                json_dir =
                    Some(PathBuf::from(args.get(i).ok_or_else(|| {
                        format!("--json needs a directory\n{}", usage())
                    })?));
            }
            "--trace" => {
                i += 1;
                trace_path =
                    Some(PathBuf::from(args.get(i).ok_or_else(|| {
                        format!("--trace needs a file path\n{}", usage())
                    })?));
            }
            "--quick" => quick = true,
            "all" => experiments.extend(Experiment::ALL),
            name => {
                let experiment = Experiment::parse(name)
                    .ok_or_else(|| format!("unknown experiment '{name}'\n{}", usage()))?;
                experiments.push(experiment);
            }
        }
        i += 1;
    }
    if experiments.is_empty() {
        return Err(usage());
    }
    if quick {
        // CI smoke mode: smallest problems, modest parallelism.
        scale = Scale::Tiny;
        workers = workers.min(2);
    }
    Ok(Cli {
        experiments,
        scale,
        workers,
        csv_dir,
        json_dir,
        trace_path,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "ATM evaluation harness — scale: {:?}, workers: {}\n",
        cli.scale, cli.workers
    );
    let ctx = EvalContext::new(cli.scale, cli.workers);
    for experiment in &cli.experiments {
        let started = std::time::Instant::now();
        let report = run_experiment(*experiment, &ctx);
        println!("{}", report.render());
        println!("[{} completed in {:.1?}]\n", report.id, started.elapsed());
        if let Some(dir) = &cli.csv_dir {
            match report.write_csv(dir) {
                Ok(path) => println!("  csv written to {}", path.display()),
                Err(err) => eprintln!("  failed to write csv: {err}"),
            }
        }
        if let Some(dir) = &cli.json_dir {
            match report.write_json(dir) {
                Ok(path) => println!("  json written to {}", path.display()),
                Err(err) => eprintln!("  failed to write json: {err}"),
            }
        }
    }
    if let Some(path) = &cli.trace_path {
        match atm_eval::trace_capture::write_chrome_trace(path, cli.workers) {
            Ok(()) => println!(
                "chrome trace written to {} (load it at ui.perfetto.dev)",
                path.display()
            ),
            Err(err) => {
                eprintln!("failed to write trace: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(values: &[&str]) -> Vec<String> {
        values.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_experiments_scale_and_workers() {
        let cli = parse_args(&strings(&[
            "figure3",
            "table1",
            "--scale",
            "tiny",
            "--workers",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            cli.experiments,
            vec![Experiment::Figure3, Experiment::Table1]
        );
        assert_eq!(cli.scale, Scale::Tiny);
        assert_eq!(cli.workers, 2);
        assert!(cli.csv_dir.is_none());
        assert!(cli.json_dir.is_none());
        let paper = parse_args(&strings(&["table1", "--scale", "paper"])).unwrap();
        assert_eq!(paper.scale, Scale::Paper);
        assert!(parse_args(&strings(&["table1", "--scale", "huge"])).is_err());
    }

    #[test]
    fn quick_mode_forces_tiny_scale_and_caps_workers() {
        let cli = parse_args(&strings(&["figure3", "figure6", "--quick"])).unwrap();
        assert_eq!(cli.scale, Scale::Tiny);
        assert_eq!(cli.workers, 2);
        assert_eq!(
            cli.experiments,
            vec![Experiment::Figure3, Experiment::Figure6]
        );
    }

    #[test]
    fn json_dir_is_parsed() {
        let cli = parse_args(&strings(&["table1", "--json", "out/bench"])).unwrap();
        assert_eq!(cli.json_dir, Some(PathBuf::from("out/bench")));
    }

    #[test]
    fn trace_path_is_parsed() {
        let cli = parse_args(&strings(&["all", "--quick", "--trace", "out/trace.json"])).unwrap();
        assert_eq!(cli.trace_path, Some(PathBuf::from("out/trace.json")));
        assert!(parse_args(&strings(&["figure6", "--trace"])).is_err());
    }

    #[test]
    fn all_expands_to_every_experiment() {
        let cli = parse_args(&strings(&["all"])).unwrap();
        assert_eq!(cli.experiments.len(), Experiment::ALL.len());
    }

    #[test]
    fn rejects_unknown_experiment_and_empty_invocation() {
        assert!(parse_args(&strings(&["figure42"])).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
