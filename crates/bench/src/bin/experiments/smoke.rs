//! The CI smoke drills behind `experiments trace-smoke` and
//! `experiments chaos-smoke`. `trace-smoke` prints the same JSONL bytes
//! at any thread count — the executable half of the observability
//! determinism contract (`crates/runtime/tests/trace_determinism.rs` is
//! the property-test half). `chaos-smoke` proves the crash/resume
//! contract on the T10 grid and exits nonzero on the first divergence.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use oraclesize_bench::experiments::run_experiment;
use oraclesize_bench::grid::ExpOptions;
use oraclesize_bench::harness::MASTER_SEED;
use oraclesize_core::broadcast::{LightTreeOracle, SchemeB};
use oraclesize_graph::families;
use oraclesize_runtime::chaos::tear_tail;
use oraclesize_runtime::{ChaosPlan, ChunkPlan, JsonlSink, Pool};
use oraclesize_sim::{run_streamed, FaultPlan, Instance, SchedulerKind, SimConfig};

/// Renders the trace-smoke grid — a fixed T10-style scheduler × fault
/// matrix of broadcasts on one hypercube instance — as JSONL in cell
/// order. Each cell streams into its own [`JsonlSink`]; the cells run
/// under the pool's work-stealing scheduler at `threads` workers.
///
/// # Errors
///
/// Names the first cell that aborted.
pub fn trace(threads: usize) -> Result<String, String> {
    let g = Arc::new(families::hypercube(5));
    let instance = Instance::build(g, 0, &LightTreeOracle);
    let configs: Vec<SimConfig> = (0..12)
        .map(|cell| {
            let seed = MASTER_SEED.wrapping_add(cell as u64);
            SimConfig::broadcast()
                .with_scheduler(match cell % 3 {
                    0 => SchedulerKind::Fifo,
                    1 => SchedulerKind::Lifo,
                    _ => SchedulerKind::Random { seed },
                })
                .with_synchronous(cell % 2 == 0)
                .with_faults(if cell % 4 == 3 {
                    FaultPlan::message_faults(seed, 0.05, 0.0, 0.0)
                } else {
                    FaultPlan::default()
                })
                .with_quiescence_polls(16)
        })
        .collect();
    let pool = Pool::new(threads);
    let plan = ChunkPlan::balanced(configs.len(), pool.threads());
    let (cells, _) = pool.run_chunked(&plan, |cell| {
        let mut sink = JsonlSink::new(cell as u64);
        run_streamed(&instance, &SchemeB, &configs[cell], &mut sink)
            .map(|_| sink.into_string())
            .map_err(|e| format!("cell {cell} aborted: {e}"))
    });
    cells.into_iter().collect()
}

fn artifact(dir: &Path) -> Result<Vec<u8>, String> {
    let path = dir.join("BENCH_T10.json");
    std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))
}

fn opts(scratch: &Path, tag: &str) -> ExpOptions {
    ExpOptions {
        threads: 2,
        json_dir: Some(scratch.join(tag)),
        ..Default::default()
    }
}

/// Runs T10 under `opts` and insists the report mentions
/// `want_in_report` and the artifact matches the clean run's bytes.
fn check(tag: &str, opts: &ExpOptions, clean: &[u8], want_in_report: &str) -> Result<(), String> {
    let report =
        run_experiment("t10", opts).map_err(|e| format!("{tag}: t10 unexpectedly failed: {e}"))?;
    if !report.contains(want_in_report) {
        return Err(format!("{tag}: report lacks {want_in_report:?}:\n{report}"));
    }
    let dir = opts.json_dir.as_deref().ok_or("no json_dir")?;
    if artifact(dir)? != clean {
        return Err(format!(
            "{tag}: BENCH_T10.json diverged from the clean serial run"
        ));
    }
    println!("chaos-smoke: {tag}: artifact matches the clean run");
    Ok(())
}

/// The chaos drill: runs the T10 grid four ways and insists every path
/// produces the same `BENCH_T10.json` bytes as a clean serial run:
///
/// 1. **kill + torn write + resume** — chaos kills the sweep mid-flight,
///    the journal loses part of its final record (a torn write), and a
///    resumed run must still converge to the clean artifact,
/// 2. **injected panic** — a cell panics on its first attempt and must
///    recover as `Degraded` under a retry budget,
/// 3. **injected stall** — a cell stalls past the watchdog on its first
///    attempt and must recover the same way.
///
/// `scratch` defaults to a fresh temp directory and is removed on
/// success.
///
/// # Errors
///
/// Describes the first divergence.
pub fn chaos(scratch: Option<&str>) -> Result<(), String> {
    let scratch: PathBuf = scratch.map_or_else(
        || std::env::temp_dir().join(format!("oraclesize-chaos-smoke-{}", std::process::id())),
        PathBuf::from,
    );
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;

    // The injected panics are caught and classified by the supervisor;
    // keep their default-hook backtraces out of the CI log. Anything
    // else still reports normally.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("chaos: injected panic"));
        if !injected {
            default_hook(info);
        }
    }));

    // Baseline: clean serial run, no supervision extras.
    let clean_opts = ExpOptions {
        json_dir: Some(scratch.join("clean")),
        ..Default::default()
    };
    run_experiment("t10", &clean_opts).map_err(|e| format!("clean run failed: {e}"))?;
    let clean = artifact(&scratch.join("clean"))?;
    println!(
        "chaos-smoke: clean baseline captured ({} bytes)",
        clean.len()
    );

    // Drill 1: kill the sweep before cell 8, tear the journal tail, resume.
    let journal_dir = scratch.join("journal");
    let killed = ExpOptions {
        journal_dir: Some(journal_dir.clone()),
        chaos: ChaosPlan::new().die_before(8),
        ..opts(&scratch, "killed")
    };
    match run_experiment("t10", &killed) {
        Err(e) if e.contains("interrupted") => {
            println!("chaos-smoke: kill drill interrupted the sweep as expected")
        }
        Err(e) => return Err(format!("kill drill failed for the wrong reason: {e}")),
        Ok(_) => return Err("kill drill: sweep ignored the injected crash".to_string()),
    }
    let left =
        tear_tail(&journal_dir.join("t10.journal"), 7).map_err(|e| format!("tear journal: {e}"))?;
    println!("chaos-smoke: tore 7 bytes off the journal tail ({left} bytes remain)");
    let resumed = ExpOptions {
        journal_dir: Some(journal_dir),
        resume: true,
        ..opts(&scratch, "resumed")
    };
    check("kill/tear/resume", &resumed, &clean, "resumed")?;

    // Drill 2: a cell panics once; one retry must absorb it.
    let panicky = ExpOptions {
        max_retries: 1,
        chaos: ChaosPlan::new().panic_at(3, 1),
        ..opts(&scratch, "panic")
    };
    check("panic/retry", &panicky, &clean, "degraded (1 retries)")?;

    // Drill 3: a cell stalls past the watchdog once; a retry recovers it.
    let stalled = ExpOptions {
        max_retries: 1,
        cell_timeout: Some(1 << 20),
        chaos: ChaosPlan::new().stall_at(5, 1),
        ..opts(&scratch, "stall")
    };
    check(
        "stall/watchdog/retry",
        &stalled,
        &clean,
        "degraded (1 retries)",
    )?;

    std::fs::remove_dir_all(&scratch).ok();
    println!("chaos-smoke: PASS — every failure path converged to the clean artifact");
    Ok(())
}

#[cfg(test)]
mod tests {
    use oraclesize_runtime::journal::fnv1a64;

    /// The trace-smoke JSONL is pinned across commits, not just across
    /// thread counts: any change to the event taxonomy, the renderer or
    /// the grid shows up here as a digest change.
    #[test]
    fn trace_smoke_bytes_are_pinned() {
        for threads in [1, 2] {
            let jsonl = super::trace(threads).unwrap();
            assert_eq!(
                fnv1a64(jsonl.as_bytes()),
                0xb8fa_7bb4_6f66_5c87,
                "threads = {threads}"
            );
        }
    }
}
