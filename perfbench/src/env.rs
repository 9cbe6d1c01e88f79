//! The context every result records: machine, build and source revision,
//! plus the process's peak resident memory.

use std::fs;
use std::path::Path;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The cargo profile the benchmark was built with.
pub fn profile() -> &'static str {
    env!("PERFBENCH_PROFILE")
}

/// `rustc --version` of the compiler that built the benchmark.
pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU time the hypervisor took from this machine, summed over its
/// CPUs, in seconds (the `steal` column of `/proc/stat`, in 1/100 s
/// ticks); `None` where unavailable. Recorded around a run because it
/// slows wall-clock results without any change to the program.
pub fn host_steal_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Errors
///
/// Returns a message where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
