//! Parallel experiment runtime: a dependency-free worker pool and one
//! deterministic, supervised sweep path for running many engine
//! executions at once.
//!
//! Every theorem-scale experiment in this workspace sweeps *cells* — one
//! `(instance, scheme, config, seed)` combination per cell — and each cell
//! is an independent, seeded, deterministic engine run. This crate turns
//! such sweeps into one supervised batch:
//!
//! * [`pool`] — a [`Pool`] of `std::thread` scoped workers: the executor
//!   half of a block-STM-style split, driving the [`sched`] scheduler and
//!   merging results into per-index slots (the workspace is offline, so no
//!   rayon; plain scoped threads are all that is needed),
//! * [`sched`] — the scheduler half: cells chunked into sub-tasks by cost
//!   hints ([`sched::ChunkPlan`]), a sharded-mutex task queue with
//!   per-worker deques and back-half stealing ([`sched::Scheduler`]), and
//!   out-of-band scheduling telemetry ([`sched::SchedStats`]) for report
//!   footers,
//! * [`batch`] — [`RunRequest`] → [`RunReport`]: the cell description and
//!   the comparable, fully deterministic result record
//!   ([`run_cell_report`] runs one cell on the calling thread). Cells are
//!   built over [`oraclesize_sim::Instance`], the `Arc`-shared immutable
//!   `(graph, advice)` pair,
//! * [`aggregate`] — [`Aggregate`]: totals folded over reports **in cell
//!   order**, never completion order, so any thread count produces
//!   byte-identical output,
//! * [`json`] — a minimal, deterministic JSON writer (insertion-ordered
//!   objects, integers only) used for the `BENCH_T*.json` artifacts,
//! * [`trace`] — deterministic JSONL rendering of engine traces: a
//!   [`trace::JsonlSink`] passed to [`oraclesize_sim::run_streamed`]
//!   renders each event as it is emitted (the `trace` subcommand and the
//!   CI trace-smoke job). Tracing is a sink you pass, never a report
//!   field: [`RunReport`]s, journal records and artifacts hold counts
//!   only,
//! * [`spec`] — the canonical serializable [`SweepSpec`] job description:
//!   every sweep (bench grid, CLI flags, service submission) lowers into
//!   one spec type, and the artifact renderer lives beside it,
//! * [`journal`] — the append-only checkpoint file that makes sweeps
//!   resumable: completed cells are recorded as they finish and skipped
//!   after a crash,
//! * [`supervise`] — panic isolation, bounded retries, a per-cell
//!   watchdog, and the journal-backed
//!   [`run_supervised_batch`] dispatch — the one way a sweep runs,
//! * [`chaos`] — deterministic failure injection (worker panics, stalls,
//!   torn journal writes) for tests and the CI chaos-smoke job only.
//!
//! # Determinism contract
//!
//! For a fixed request list, [`run_supervised_batch`] returns the same
//! reports — byte for byte — as the plain serial loop
//! `(0..n).map(|i| run_cell_report(i, &requests[i]))`, at any thread
//! count and under any chunk plan. This holds because (a) every engine
//! run is seeded and self-contained, (b) reports are written into
//! per-cell slots, not appended, and (c) aggregates and journals consume
//! reports in cell order. The property tests in `tests/determinism.rs`
//! pin this down.
//!
//! The contract extends across crash/resume boundaries: a supervised
//! sweep killed at any cell and resumed any number of times yields the
//! same reports — and therefore byte-identical merged artifacts — as an
//! uninterrupted run (`tests/resume.rs`, plus the bench crate's
//! artifact-level proptests).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use oraclesize_core::oracle::EmptyOracle;
//! use oraclesize_graph::families;
//! use oraclesize_runtime::{run_cell_report, run_supervised_batch, Pool, RunRequest, SweepOptions};
//! use oraclesize_sim::protocol::FloodOnce;
//! use oraclesize_sim::{Instance, SimConfig};
//!
//! let g = Arc::new(families::cycle(8));
//! let instance = Instance::build(g, 0, &EmptyOracle);
//! let protocol = Arc::new(FloodOnce);
//! let requests: Vec<RunRequest> = (0..4)
//!     .map(|_| RunRequest::new(Arc::clone(&instance), protocol.clone(), SimConfig::default()))
//!     .collect();
//! let sweep = run_supervised_batch(&Pool::new(2), &requests, &SweepOptions::default());
//! assert!(sweep.reports().iter().all(|r| r.outcome().unwrap().completed));
//! // The determinism contract: the pooled sweep equals the serial loop.
//! let serial: Vec<_> = (0..requests.len()).map(|i| run_cell_report(i, &requests[i])).collect();
//! assert_eq!(sweep.reports(), serial);
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod batch;
pub mod chaos;
pub mod journal;
pub mod json;
pub mod pool;
pub mod sched;
pub mod spec;
pub mod supervise;
pub mod trace;

pub use aggregate::Aggregate;
pub use batch::{run_cell_report, CellOutcome, RunReport, RunRequest};
pub use chaos::ChaosPlan;
pub use journal::Journal;
pub use json::Json;
pub use pool::Pool;
pub use sched::{Chunk, ChunkPlan, SchedStats};
pub use spec::{AdviceSpec, CellSpec, FaultSpec, InstanceSpec, KnobSpec, SchedulerSpec, SweepSpec};
pub use supervise::{
    run_cell_supervised, run_supervised_batch, run_supervised_shard, CellStatus, OrderedCommitter,
    SuperviseConfig, SupervisedReport, SweepOptions, SweepRun,
};
pub use trace::JsonlSink;
