//! What the numbers were measured on: the machine fingerprint every result
//! carries, the worker sizing derived from it, and the process's peak RSS.

use crate::json::Json;

/// Worker sizing of a run.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub nproc: usize,
    /// Batch workloads: a master thread plus `workers` workers.
    pub workers: usize,
    /// `serve-zipf`: one generator thread plus `serve_workers` workers.
    pub serve_workers: usize,
}

impl Sizing {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let workers = nproc.min(4);
        Sizing {
            nproc,
            workers,
            serve_workers: workers.saturating_sub(1).max(1),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD` of the tree the benchmark runs from; `unknown`
/// outside a git checkout (the driver's checkout is not one).
fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fingerprint object written into every result; `frozen` carries the
/// workload's own frozen constants (rates, app configs).
pub fn fingerprint(sizing: Sizing, seed: u64, frozen: Json) -> Json {
    Json::obj([
        ("nproc", Json::Num(sizing.nproc as f64)),
        ("workers", Json::Num(sizing.workers as f64)),
        ("serve_workers", Json::Num(sizing.serve_workers as f64)),
        ("cpu_model", Json::str(cpu_model())),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_head", Json::str(git_head())),
        ("seed", Json::Num(seed as f64)),
        ("frozen", frozen),
    ])
}

/// Restarts the kernel's peak-RSS watermark at the current RSS, so a
/// workload run after another in one process reports its own peak (Linux:
/// writing `5` to `clear_refs`). Where that is refused the peak stays the
/// process's, which is what a one-workload run reports anyway.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
