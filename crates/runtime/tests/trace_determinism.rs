//! The observability determinism contract: rendered trace JSONL from a
//! supervised sweep at `--threads` 1, 2, and 8 is byte-identical to the
//! plain serial loop over `run_cell_report` for the same request list.
//!
//! Message ids are assigned in enqueue order by each cell's own engine
//! run, so a cell's trace never depends on which worker thread executed
//! it — concatenating per-cell renders in cell order therefore yields one
//! deterministic artifact.

mod common;

use oraclesize_graph::families::Family;
use oraclesize_runtime::trace::render_jsonl;
use oraclesize_runtime::{run_supervised_batch, Pool, RunReport, RunRequest, SweepOptions};
use oraclesize_sim::TraceSpec;
use proptest::prelude::*;

/// The shared grid with every cell fully traced.
fn traced_grid(fam: Family, n: usize, seed: u64, cells: usize) -> Vec<RunRequest> {
    common::grid(fam, n, seed, cells, |_| TraceSpec::Full)
}

/// Renders every cell's trace as one JSONL artifact, in cell order.
fn render(reports: &[RunReport]) -> String {
    let mut out = String::new();
    for report in reports {
        if let Some(outcome) = report.outcome() {
            out.push_str(&render_jsonl(report.cell as u64, &outcome.trace));
        }
    }
    out
}

/// The reference: each cell run on this thread, rendered in cell order.
fn render_serial(requests: &[RunRequest]) -> String {
    render(&common::serial(requests))
}

/// The supervised sweep at `threads` workers, rendered.
fn render_pooled(threads: usize, requests: &[RunRequest]) -> String {
    let sweep = run_supervised_batch(&Pool::new(threads), requests, &SweepOptions::default());
    render(&sweep.reports())
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
        let requests = traced_grid(fam, n, seed, 9);
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
    let requests = traced_grid(Family::Cycle, 12, 2006, 12);
    let serial = render_serial(&requests);
    assert!(serial.lines().count() > 12, "traces should be non-trivial");
    for line in serial.lines() {
        assert!(oraclesize_runtime::json::parse(line).is_some(), "{line}");
    }
    for threads in [1, 2, 8] {
        assert_eq!(serial, render_pooled(threads, &requests));
    }
}
