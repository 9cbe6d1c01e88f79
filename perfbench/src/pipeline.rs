//! The spec → artifact pipeline, spelled out in the public calls
//! `oraclesize_service::run_local` makes, so a traced run can put a span
//! around each layer: `CellGrid::from_spec` (bench), then
//! `run_supervised_batch` (runtime), then `render_artifact`.

use std::path::Path;

use oraclesize_bench::grid::CellGrid;
use oraclesize_runtime::supervise::{CellStatus, SuperviseConfig};
use oraclesize_runtime::{run_supervised_batch, Pool, SweepOptions, SweepRun, SweepSpec};
use oraclesize_service::render_artifact;

use crate::spans::Tracer;

/// The options `run_local` uses, plus an optional journal.
pub fn options(
    spec: &SweepSpec,
    grid: &CellGrid,
    journal: Option<&Path>,
    resume: bool,
) -> SweepOptions {
    SweepOptions {
        supervise: SuperviseConfig {
            max_retries: spec.knobs.max_retries as u32,
            cell_timeout: spec.knobs.cell_timeout,
            ..Default::default()
        },
        journal: journal.map(Path::to_path_buf),
        resume,
        seeds: Some(spec.cells.iter().map(|c| c.seed).collect()),
        chaos: Default::default(),
        chunk: spec.knobs.chunk.map(|c| c as usize),
        costs: Some(grid.costs().to_vec()),
    }
}

/// `Err` when a supervised run was interrupted or its journal warned.
pub fn clean(run: &SweepRun) -> Result<(), String> {
    if run.interrupted {
        return Err(format!("sweep interrupted: {}", run.summary()));
    }
    match run.warnings.first() {
        Some(w) => Err(format!("journal warning: {w}")),
        None => Ok(()),
    }
}

/// Spec to artifact bytes, optionally journaled: the `run_local` path
/// with spans `client.artifact` → `bench.from_spec`, `runtime.batch`,
/// `runtime.render`.
///
/// # Errors
///
/// Returns the grid lowering error, or a message for an interrupted run
/// or a journal warning.
pub fn artifact(
    tr: &mut Tracer,
    op: u64,
    spec: &SweepSpec,
    pool: &Pool,
    journal: Option<&Path>,
) -> Result<(String, SweepRun), String> {
    tr.span("client.artifact", op, |tr| {
        let grid = tr.span("bench.from_spec", op, |_| CellGrid::from_spec(spec))?;
        let opts = options(spec, &grid, journal, false);
        let run = tr.span("runtime.batch", op, |_| {
            run_supervised_batch(pool, grid.requests(), &opts)
        });
        clean(&run)?;
        let text = tr.span("runtime.render", op, |_| {
            render_artifact(spec, &run.reports())
        });
        Ok((text, run))
    })
}

/// Spec plus a fully written journal to artifact bytes: spans
/// `client.resume` → `bench.from_spec`, `runtime.resume`, `runtime.render`.
///
/// # Errors
///
/// As [`artifact`], and when any cell ran instead of replaying from the
/// journal.
pub fn resume(
    tr: &mut Tracer,
    op: u64,
    spec: &SweepSpec,
    pool: &Pool,
    journal: &Path,
) -> Result<String, String> {
    tr.span("client.resume", op, |tr| {
        let grid = tr.span("bench.from_spec", op, |_| CellGrid::from_spec(spec))?;
        let opts = options(spec, &grid, Some(journal), true);
        let run = tr.span("runtime.resume", op, |_| {
            run_supervised_batch(pool, grid.requests(), &opts)
        });
        clean(&run)?;
        if let Some(c) = run
            .cells
            .iter()
            .position(|c| c.status != CellStatus::Resumed)
        {
            return Err(format!("resume re-ran cell {c} instead of replaying it"));
        }
        Ok(tr.span("runtime.render", op, |_| {
            render_artifact(spec, &run.reports())
        }))
    })
}
