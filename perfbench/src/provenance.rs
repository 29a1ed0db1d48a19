//! Where a result came from: revision, host, toolchain, seed, build.

use std::fs;
use std::process::Command;

/// A seed never used while tuning the benchmark or a change; later claims
/// are re-checked on it.
pub(crate) const HELD_OUT_SEED: u64 = 20_211_018;

/// The git revision of the checkout, read from `.git` in the working
/// directory (a checkout without one reports `unknown`).
pub(crate) fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V`, or `unknown` when no compiler is on the path.
pub(crate) fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPU model from `/proc/cpuinfo`.
pub(crate) fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores available to this process.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The provenance line printed with every result.
pub fn line(workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "provenance: rev={} workload={workload} seed={seed} held_out_seed={HELD_OUT_SEED} \
         trace={} nproc={} rustc=\"{}\" cpu=\"{}\" build={}",
        git_rev(),
        u8::from(trace),
        nproc(),
        rustc_version(),
        cpu_model(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
}
