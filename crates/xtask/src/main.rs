//! Repo-local automation, `cargo xtask` style: `cargo run -p xtask -- <command>`.
//!
//! Commands:
//!
//! * `lint-sync` enforces the repo's synchronization discipline: every
//!   lock, condition variable and atomic in production code goes through
//!   `atm-sync`, so that `--cfg atm_check` builds can swap in the
//!   instrumented model types and the checker sees every operation. A raw
//!   `std::sync` primitive anywhere else is invisible to the checker — a
//!   hole in the model — so CI fails on it.
//! * `check-trace FILE` validates a Chrome-trace file produced by
//!   `atm-eval --trace` (see [`check_trace`]).
//!
//! The lint is a line-based substring scan, deliberately dependency-free
//! (no syn, no regex crate): false positives are possible in principle but
//! have not occurred, and the failure message names the exact file:line to
//! fix or exempt.

mod check_trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A flagged line: file, 1-based line number, the offending text.
#[derive(Debug)]
struct Violation {
    file: PathBuf,
    line: usize,
    text: String,
}

/// The forbidden patterns, assembled at runtime so this file does not flag
/// itself. Returns `(needle, extra)` pairs: a line is a violation if it
/// contains `needle` and (when `extra` is non-empty) also contains `extra`.
fn forbidden_patterns() -> Vec<(String, String)> {
    let std_sync = String::from("std::") + "sync::";
    let std_thread = String::from("std::") + "thread::";
    vec![
        (std_sync.clone() + "atomic", String::new()),
        (std_thread + "park", String::new()),
        (std_sync.clone(), String::from("Mutex")),
        (std_sync.clone(), String::from("RwLock")),
        (std_sync, String::from("Condvar")),
    ]
}

/// Directories under the repo root whose `.rs` files are scanned.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benches"];

/// Path prefixes (relative to the repo root) exempt from the lint:
/// `crates/sync` is where the primitives are allowed to live.
const EXEMPT: &[&str] = &["crates/sync"];

fn is_exempt(rel: &Path) -> bool {
    EXEMPT
        .iter()
        .any(|prefix| rel.starts_with(Path::new(prefix)))
}

fn scan_file(root: &Path, file: &Path, out: &mut Vec<Violation>) {
    let Ok(contents) = std::fs::read_to_string(file) else {
        return;
    };
    let patterns = forbidden_patterns();
    for (index, line) in contents.lines().enumerate() {
        let hit = patterns.iter().any(|(needle, extra)| {
            line.contains(needle) && (extra.is_empty() || line.contains(extra))
        });
        if hit {
            out.push(Violation {
                file: file.strip_prefix(root).unwrap_or(file).to_path_buf(),
                line: index + 1,
                text: line.trim().to_string(),
            });
        }
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<Violation>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        if is_exempt(rel) {
            continue;
        }
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            walk(root, &path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            scan_file(root, &path, out);
        }
    }
}

/// Runs the lint over the repo rooted at `root`; returns the violations.
fn lint_sync(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for scan_root in SCAN_ROOTS {
        walk(root, &root.join(scan_root), &mut violations);
    }
    violations
}

fn report(violations: &[Violation]) -> String {
    let mut message = String::new();
    for v in violations {
        let _ = writeln!(message, "{}:{}: {}", v.file.display(), v.line, v.text);
    }
    let _ = writeln!(
        message,
        "{} raw std synchronization primitive(s) outside crates/sync; \
         use atm_sync::{{Mutex, RwLock, Condvar, Event}} and atm_sync::atomic::* \
         so `--cfg atm_check` builds stay fully instrumented (see CONCURRENCY.md)",
        violations.len()
    );
    message
}

/// The repo root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the repo root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let command = std::env::args().nth(1).unwrap_or_default();
    match command.as_str() {
        "lint-sync" => {
            let violations = lint_sync(&repo_root());
            if violations.is_empty() {
                println!("lint-sync: clean");
                ExitCode::SUCCESS
            } else {
                eprint!("{}", report(&violations));
                ExitCode::FAILURE
            }
        }
        "check-trace" => {
            let Some(path) = std::env::args().nth(2) else {
                eprintln!("usage: cargo run -p xtask -- check-trace FILE");
                return ExitCode::FAILURE;
            };
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("check-trace: cannot read {path}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            match check_trace::check_trace(&text) {
                Ok(summary) => {
                    println!("check-trace: {path}: {summary}");
                    ExitCode::SUCCESS
                }
                Err(err) => {
                    eprintln!("check-trace: {path}: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("unknown xtask command {other:?}; available: lint-sync check-trace");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lint runs as part of the ordinary test suite too, so a raw
    /// `std::sync` primitive cannot land even without the CI step.
    #[test]
    fn no_raw_sync_primitives_outside_crates_sync() {
        let violations = lint_sync(&repo_root());
        assert!(violations.is_empty(), "\n{}", report(&violations));
    }

    #[test]
    fn the_patterns_catch_the_usual_spellings() {
        let dir = std::env::temp_dir().join("xtask-lint-self-test");
        let src = dir.join("src");
        std::fs::create_dir_all(&src).unwrap();
        let atomic = String::from("use std::") + "sync::atomic::AtomicUsize;";
        let mutex = String::from("use std::") + "sync::{Arc, Mutex};";
        let park = String::from("std::") + "thread::park();";
        let fine = String::from("use std::") + "sync::Arc;\nuse atm_sync::Mutex;";
        std::fs::write(src.join("bad.rs"), format!("{atomic}\n{mutex}\n{park}\n")).unwrap();
        std::fs::write(src.join("good.rs"), fine).unwrap();
        let violations = lint_sync(&dir);
        let lines: Vec<usize> = violations
            .iter()
            .filter(|v| v.file.ends_with("bad.rs"))
            .map(|v| v.line)
            .collect();
        assert_eq!(lines, vec![1, 2, 3], "{:?}", violations);
        assert!(violations.iter().all(|v| !v.file.ends_with("good.rs")));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
