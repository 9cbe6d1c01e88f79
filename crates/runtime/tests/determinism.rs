//! The determinism contract, pinned down: for a fixed request list, the
//! supervised sweep's report vector — and everything derived from it
//! (the rendered grid JSON with its aggregate) — equals the plain serial
//! loop over `run_cell_report` at `--threads 1`, `2`, `3`, `8`, and `16`
//! (the last oversubscribing any small machine, so workers genuinely
//! interleave and steal), under any chunk plan.

mod common;

use common::serial;
use oraclesize_graph::families::Family;
use oraclesize_runtime::spec::grid_json;
use oraclesize_runtime::{run_supervised_batch, Pool, RunReport, RunRequest, SweepOptions};
use oraclesize_sim::TraceSpec;
use proptest::prelude::*;

/// The shared grid with a mix of full, ring and no trace capture.
fn grid(fam: Family, n: usize, seed: u64, cells: usize) -> Vec<RunRequest> {
    common::grid(fam, n, seed, cells, |cell| match cell % 4 {
        0 => TraceSpec::Full,
        1 => TraceSpec::Ring { capacity: 16 },
        _ => TraceSpec::Off,
    })
}

/// The supervised sweep at `threads` workers, optionally with a fixed
/// chunk size.
fn pooled(requests: &[RunRequest], threads: usize, chunk: Option<usize>) -> Vec<RunReport> {
    let opts = SweepOptions {
        chunk,
        ..SweepOptions::default()
    };
    let sweep = run_supervised_batch(&Pool::new(threads), requests, &opts);
    assert_eq!(sweep.sched.tasks as usize, requests.len());
    sweep.reports()
}

/// The artifact bytes a report vector renders to.
fn rendered(reports: &[RunReport]) -> String {
    let labels: Vec<String> = (0..reports.len()).map(|i| format!("cell-{i}")).collect();
    grid_json(&labels, reports).render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For a fixed seed, `RunReport`s are identical for `--threads` 1, 2,
    /// 8, and 16 — and so are the rendered grid JSON bytes.
    #[test]
    fn reports_identical_across_thread_counts(
        fam in proptest::sample::select(Family::ALL.to_vec()),
        n in 4usize..24,
        seed in any::<u64>(),
    ) {
        let requests = grid(fam, n, seed, 12);
        let serial = serial(&requests);
        for threads in [1usize, 2, 8, 16] {
            let parallel = pooled(&requests, threads, None);
            prop_assert_eq!(&serial, &parallel, "threads = {}", threads);
            prop_assert_eq!(rendered(&serial), rendered(&parallel));
        }
    }

    /// Chunk plans set scheduling granularity, never results: any chunk
    /// size, at any thread count, merges to the serial report vector.
    #[test]
    fn reports_identical_across_chunk_plans(
        seed in any::<u64>(),
        chunk in 1usize..16,
        threads in proptest::sample::select(vec![2usize, 8, 16]),
    ) {
        let requests = grid(Family::Torus, 16, seed, 18);
        let chunked = pooled(&requests, threads, Some(chunk));
        prop_assert_eq!(&serial(&requests), &chunked, "threads = {}, chunk = {}", threads, chunk);
    }
}

/// A deterministic (non-property) pin of the same contract, so the
/// guarantee is exercised even when proptest shrinks its case budget.
#[test]
fn fixed_grid_is_thread_count_invariant() {
    let requests = grid(Family::Cycle, 16, 2006, 24);
    let serial = serial(&requests);
    assert_eq!(serial.len(), 24);
    assert!(serial.iter().any(|r| r.outcome().is_some()));
    for threads in [1, 2, 3, 8, 16] {
        assert_eq!(serial, pooled(&requests, threads, None));
    }
}
