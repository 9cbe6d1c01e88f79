//! The observability determinism contract: trace JSONL streamed from a
//! cell grid under the work-stealing pool at 1, 2, and 8 threads is
//! byte-identical to the plain serial loop over the same request list.
//!
//! Message ids are assigned in enqueue order by each cell's own engine
//! run, so a cell's trace never depends on which worker thread executed
//! it — concatenating per-cell renders in cell order therefore yields one
//! deterministic artifact.

// Each test binary uses a subset of the shared fixtures.
#[allow(dead_code)]
mod common;

use oraclesize_graph::families::Family;
use oraclesize_runtime::{ChunkPlan, JsonlSink, Pool, RunRequest};
use oraclesize_sim::run_streamed;
use proptest::prelude::*;

/// Streams one cell's run into its own JSONL sink. A run that aborts
/// keeps the events it emitted before the error.
fn render_cell(cell: usize, request: &RunRequest) -> String {
    let mut sink = JsonlSink::new(cell as u64);
    let _ = run_streamed(
        &request.instance,
        request.protocol.as_ref(),
        &request.config,
        &mut sink,
    );
    sink.into_string()
}

/// The reference: each cell run on this thread, rendered in cell order.
fn render_serial(requests: &[RunRequest]) -> String {
    requests
        .iter()
        .enumerate()
        .map(|(cell, request)| render_cell(cell, request))
        .collect()
}

/// Every cell streamed under the pool at `threads` workers, concatenated
/// in cell order.
fn render_pooled(threads: usize, requests: &[RunRequest]) -> String {
    let pool = Pool::new(threads);
    let plan = ChunkPlan::balanced(requests.len(), pool.threads());
    let (cells, _) = pool.run_chunked(&plan, |cell| render_cell(cell, &requests[cell]));
    cells.concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance bar: trace JSONL bytes are invariant under the
    /// worker thread count.
    #[test]
    fn trace_jsonl_identical_across_thread_counts(
        fam in proptest::sample::select(Family::ALL.to_vec()),
        n in 4usize..20,
        seed in any::<u64>(),
    ) {
        let requests = common::grid(fam, n, seed, 9);
        let serial = render_serial(&requests);
        prop_assert!(!serial.is_empty());
        for threads in [1usize, 2, 8] {
            let parallel = render_pooled(threads, &requests);
            prop_assert_eq!(&serial, &parallel, "threads = {}", threads);
        }
    }
}

/// A deterministic pin of the same contract on the T10-style cycle cell.
#[test]
fn fixed_traced_grid_is_thread_count_invariant() {
    let requests = common::grid(Family::Cycle, 12, 2006, 12);
    let serial = render_serial(&requests);
    assert!(serial.lines().count() > 12, "traces should be non-trivial");
    for line in serial.lines() {
        assert!(oraclesize_runtime::json::parse(line).is_some(), "{line}");
    }
    for threads in [1, 2, 8] {
        assert_eq!(serial, render_pooled(threads, &requests));
    }
}
