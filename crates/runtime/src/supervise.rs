//! The supervision layer: panic isolation, bounded retries, a per-cell
//! watchdog, and journal-backed resume for batch sweeps.
//!
//! A bare pool dispatch assumes every cell runs to a report; a panicking
//! protocol or a runaway cell would take the whole sweep down with it.
//! [`run_supervised_batch`] — the one way a sweep runs — wraps the pool
//! dispatch in a failure model:
//!
//! * **panic isolation** — each attempt runs under `catch_unwind`; a
//!   panic becomes an `Err("panic: …")` report for that attempt instead
//!   of unwinding through the pool,
//! * **bounded retries** — a failed attempt (panic or engine abort) is
//!   re-run up to [`SuperviseConfig::max_retries`] times, immediately —
//!   no clock is read, so supervised runs stay replayable,
//! * **watchdog** — [`SuperviseConfig::cell_timeout`] caps each attempt's
//!   step budget; a cell that exceeds it aborts with the engine's
//!   `StepLimit` error instead of hanging the sweep,
//! * **resume** — with a [journal](crate::journal) configured, completed
//!   cells are checkpointed as they finish and skipped on the next run.
//!
//! Dispatch goes through the work-stealing scheduler
//! ([`crate::sched`]): cells are grouped into chunks (sized by the grid
//! layer's cost hints or a `--chunk` override), but supervision is
//! strictly **per sub-task** — isolation, retries, and the watchdog wrap
//! each cell inside a chunk individually, so one failing cell never
//! drags its chunk-mates into a retry. Journal records stay per-cell and
//! are committed **in cell order** through an in-order committer:
//! out-of-order completions buffer until every lower-indexed cell has
//! settled, so the journal's bytes are identical at any thread count and
//! under any steal schedule — a guarantee the CI smoke jobs diff, not a
//! timing accident.
//!
//! Every cell ends in a [`CellStatus`]: `Completed` (clean first
//! attempt), `Resumed` (replayed from the journal), `Degraded { retries }`
//! (recovered after failures), or `Aborted` (retry budget exhausted).
//! The *reports* a supervised sweep produces are bit-identical to the
//! serial loop over [`run_cell_report`] whenever the cells themselves are
//! deterministic — retries re-run the same pure function — so merged
//! artifacts stay byte-identical across crash/resume boundaries and
//! supervision levels alike.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use crate::batch::{run_cell_report, RunReport, RunRequest};
use crate::chaos::{ChaosPlan, Injection};
use crate::journal::Journal;
use crate::pool::Pool;
use crate::sched::{ChunkPlan, SchedStats};

/// How one cell of a supervised sweep concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Ran cleanly on the first attempt.
    Completed,
    /// Skipped: replayed from the checkpoint journal.
    Resumed,
    /// Recovered after one or more failed attempts.
    Degraded {
        /// Failed attempts before the one that succeeded.
        retries: u32,
    },
    /// Every attempt failed (or the sweep was interrupted before the
    /// cell ran); the report carries the last error.
    Aborted,
}

/// Retry and watchdog policy for supervised execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Failed attempts re-run at most this many times (0 = fail fast).
    pub max_retries: u32,
    /// Per-attempt step budget: each attempt's `max_steps` is clamped to
    /// this, so a runaway cell aborts with the engine's `StepLimit`
    /// instead of hanging the sweep. `None` leaves the request's own
    /// budget in force.
    pub cell_timeout: Option<u64>,
}

/// A cell report plus its supervision verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisedReport {
    /// The report the sweep's merge step consumes — identical to what a
    /// serial [`run_cell_report`] call returns for a deterministic cell.
    pub report: RunReport,
    /// How the cell concluded.
    pub status: CellStatus,
    /// Attempts actually executed (0 for `Resumed` cells).
    pub attempts: u32,
}

/// Everything a supervised sweep needs beyond the requests themselves.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Retry / watchdog policy.
    pub supervise: SuperviseConfig,
    /// Checkpoint journal path; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// `true`: load the journal at [`SweepOptions::journal`] and skip the
    /// cells it already holds. `false`: start fresh (truncating any
    /// existing file).
    pub resume: bool,
    /// Per-cell seeds recorded in (and checked against) journal records;
    /// defaults to the cell index when absent. A seed mismatch on resume
    /// re-runs the cell instead of replaying a stale record.
    pub seeds: Option<Vec<u64>>,
    /// Failure injection (inert by default; see [`crate::chaos`]).
    pub chaos: ChaosPlan,
    /// Fixed sub-task chunk size (the CLI `--chunk` override). `None`
    /// sizes chunks from [`SweepOptions::costs`] (or uniformly when no
    /// hints are set). Chunking never changes reports — only scheduling
    /// granularity.
    pub chunk: Option<usize>,
    /// Per-cell cost hints from the grid layer (e.g. node counts), used
    /// to size chunks so cheap cells amortize scheduling overhead while
    /// expensive cells get chunks of their own.
    pub costs: Option<Vec<u64>>,
}

impl SweepOptions {
    /// The seed recorded for the shard-local cell `local` (sweep-wide
    /// index `base + local`) in journal records. `seeds`, like `costs`,
    /// is indexed by shard-local position; the default seed is the
    /// sweep-wide cell index.
    fn shard_seed(&self, local: usize, base: usize) -> u64 {
        self.seeds
            .as_ref()
            .and_then(|s| s.get(local).copied())
            .unwrap_or((base + local) as u64)
    }

    /// The chunk plan these options describe for a `cells`-cell sweep
    /// dispatched on `pool`: the explicit `chunk` size when set, cost-hint
    /// sizing when hints are present, a balanced uniform cut otherwise.
    pub fn chunk_plan(&self, cells: usize, pool: &Pool) -> ChunkPlan {
        if let Some(size) = self.chunk {
            return ChunkPlan::uniform(cells, size);
        }
        match &self.costs {
            Some(costs) if costs.len() == cells => ChunkPlan::from_costs(costs, pool.threads()),
            _ => ChunkPlan::balanced(cells, pool.threads()),
        }
    }
}

/// The outcome of one supervised sweep.
#[derive(Debug)]
pub struct SweepRun {
    /// Per-cell verdicts, in cell order.
    pub cells: Vec<SupervisedReport>,
    /// Journal anomalies and checkpoint failures, for the report footer.
    pub warnings: Vec<String>,
    /// `true` when chaos killed the sweep mid-flight: some cells never
    /// ran and the merge step must not publish an artifact.
    pub interrupted: bool,
    /// Scheduling telemetry for the dispatch (steals, chunks, contention,
    /// per-worker busy shares). Nondeterministic by nature — rendered
    /// into human-readable footers only, never into artifacts or
    /// journals.
    pub sched: SchedStats,
}

impl SweepRun {
    /// The plain reports, in cell order — the input the merge step and
    /// [`Aggregate`](crate::Aggregate) already understand.
    pub fn reports(&self) -> Vec<RunReport> {
        self.cells.iter().map(|c| c.report.clone()).collect()
    }

    /// `true` when any cell ended [`CellStatus::Aborted`].
    pub fn any_aborted(&self) -> bool {
        self.cells
            .iter()
            .any(|c| matches!(c.status, CellStatus::Aborted))
    }

    /// `true` when any cell needed retries to complete.
    pub fn any_degraded(&self) -> bool {
        self.cells
            .iter()
            .any(|c| matches!(c.status, CellStatus::Degraded { .. }))
    }

    /// One deterministic footer line, e.g.
    /// `outcomes: 5 completed, 2 resumed, 1 degraded (3 retries), 0 aborted`.
    pub fn summary(&self) -> String {
        let mut completed = 0usize;
        let mut resumed = 0usize;
        let mut degraded = 0usize;
        let mut retries = 0u64;
        let mut aborted = 0usize;
        for c in &self.cells {
            match c.status {
                CellStatus::Completed => completed += 1,
                CellStatus::Resumed => resumed += 1,
                CellStatus::Degraded { retries: r } => {
                    degraded += 1;
                    retries += u64::from(r);
                }
                CellStatus::Aborted => aborted += 1,
            }
        }
        let degraded = if degraded > 0 {
            format!("{degraded} degraded ({retries} retries)")
        } else {
            "0 degraded".to_string()
        };
        format!("outcomes: {completed} completed, {resumed} resumed, {degraded}, {aborted} aborted")
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque payload".to_string()
    }
}

/// Runs one attempt of one cell with the watchdog applied and panics
/// contained.
fn attempt_cell(
    cell: usize,
    request: &RunRequest,
    sup: &SuperviseConfig,
    chaos: &ChaosPlan,
    attempt: u32,
) -> RunReport {
    match chaos.injection(cell, attempt) {
        Injection::Stall => {
            // A wedged worker never reports; the watchdog is what turns
            // it into an observable failure. Synthesize that observation
            // deterministically instead of actually wedging a thread.
            return RunReport {
                cell,
                result: Err(format!(
                    "watchdog: cell stalled past {} simulated steps",
                    sup.cell_timeout.unwrap_or(0)
                )),
            };
        }
        Injection::Panic | Injection::None => {}
    }
    let mut request = request.clone();
    if let Some(timeout) = sup.cell_timeout {
        request.config.max_steps = request.config.max_steps.min(timeout);
    }
    let inject_panic = matches!(chaos.injection(cell, attempt), Injection::Panic);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            crate::chaos::trigger_panic(cell, attempt);
        }
        run_cell_report(cell, &request)
    }));
    match caught {
        Ok(report) => report,
        Err(payload) => RunReport {
            cell,
            result: Err(format!("panic: {}", panic_text(payload.as_ref()))),
        },
    }
}

/// Executes one cell under the full supervision policy: watchdog-capped
/// attempts, panic isolation, bounded retries.
pub fn run_cell_supervised(
    cell: usize,
    request: &RunRequest,
    sup: &SuperviseConfig,
    chaos: &ChaosPlan,
) -> SupervisedReport {
    let mut attempt = 0u32;
    loop {
        let report = attempt_cell(cell, request, sup, chaos, attempt);
        attempt += 1;
        if report.result.is_ok() {
            let status = if attempt == 1 {
                CellStatus::Completed
            } else {
                CellStatus::Degraded {
                    retries: attempt - 1,
                }
            };
            return SupervisedReport {
                report,
                status,
                attempts: attempt,
            };
        }
        if attempt > sup.max_retries {
            return SupervisedReport {
                report,
                status: CellStatus::Aborted,
                attempts: attempt,
            };
        }
    }
}

/// Buffers checkpoint appends until every lower-indexed cell has
/// settled, so journal records hit the file in **cell order** no matter
/// which worker finished which cell first. Under work stealing,
/// completion order varies run to run; without this buffer the journal's
/// bytes would too, and the CI smoke jobs diff those bytes against a
/// serial run. The cost is a crash-safety trade: a straggler cell holds
/// back the checkpoints of later-finished cells until it settles, so a
/// hard kill may lose a few more checkpoints than completion-order
/// appends would — a resume just re-runs those cells.
pub struct OrderedCommitter {
    journal: Option<Journal>,
    /// Cells that settled ahead of the commit cursor; `Some` holds a
    /// record still owed to the journal, `None` means the cell produced
    /// no append (resumed or aborted).
    pending: BTreeMap<usize, Option<(u64, RunReport)>>,
    /// The next cell index the journal is waiting on.
    next: usize,
    warnings: Vec<String>,
}

impl OrderedCommitter {
    /// A committer whose cursor starts at cell 0.
    pub fn new(journal: Option<Journal>) -> Self {
        OrderedCommitter::with_base(journal, 0)
    }

    /// A committer whose cursor starts at `base` — the first cell of a
    /// shard, or 0 for a whole sweep. Every cell from `base` upward must
    /// eventually settle for the cursor to advance past it.
    pub fn with_base(journal: Option<Journal>, base: usize) -> Self {
        OrderedCommitter {
            journal,
            pending: BTreeMap::new(),
            next: base,
            warnings: Vec::new(),
        }
    }

    /// Marks `cell` settled (with its checkpoint record, if it earned
    /// one) and flushes every record the cursor can now reach.
    pub fn settle(&mut self, cell: usize, record: Option<(u64, RunReport)>) {
        self.pending.insert(cell, record);
        while let Some(entry) = self.pending.remove(&self.next) {
            if let Some((seed, report)) = entry {
                if let Some(j) = self.journal.as_mut() {
                    if let Err(e) = j.append(self.next, seed, &report) {
                        self.warnings.push(format!(
                            "journal {}: checkpoint for cell {} failed: {e}",
                            j.path().display(),
                            self.next
                        ));
                    }
                }
            }
            self.next += 1;
        }
    }
}

/// Runs every request across the pool under supervision, checkpointing
/// and resuming through the journal when one is configured.
///
/// Cells already present in the journal (matching seed, valid digest)
/// return [`CellStatus::Resumed`] without executing or building their
/// instance; everything else has its instance built up front (serially,
/// in cell order, on the calling thread) and then runs
/// through [`run_cell_supervised`] and — when it completes or degrades —
/// is appended to the journal. Aborted cells are *not* journaled: their
/// failure may be transient, so a resume re-runs them.
///
/// Journal problems never fail the sweep; they surface as warnings and
/// the sweep simply runs without checkpoints.
pub fn run_supervised_batch(pool: &Pool, requests: &[RunRequest], opts: &SweepOptions) -> SweepRun {
    run_supervised_shard(pool, requests, 0, requests.len(), opts)
}

/// [`run_supervised_batch`] for one shard of a larger sweep: `requests`
/// holds the `[base, base + requests.len())` cells of a `total_cells`-cell
/// grid, and every report, journal record, and chaos decision uses the
/// sweep-wide cell index. `opts.seeds` and `opts.costs` stay shard-local
/// (aligned with `requests`), matching how a worker slices a grid.
///
/// With a journal configured, a whole-sweep shard (`base == 0` and a
/// full-length slice) writes the classic journal format; a proper shard
/// writes a range-pinned segment (see
/// [`Journal::create_segment`](crate::journal::Journal::create_segment))
/// so segments from different shards can later be merged into exactly the
/// records a single-journal run would have produced.
pub fn run_supervised_shard(
    pool: &Pool,
    requests: &[RunRequest],
    base: usize,
    total_cells: usize,
    opts: &SweepOptions,
) -> SweepRun {
    let span = requests.len();
    let whole = base == 0 && span == total_cells;
    let mut warnings = Vec::new();
    let mut done: Vec<Option<RunReport>> = (0..span).map(|_| None).collect();
    let mut journal = None;
    if let Some(path) = &opts.journal {
        let opened = if opts.resume {
            let resumed = if whole {
                Journal::resume(path, total_cells)
            } else {
                Journal::resume_segment(path, total_cells, base, base + span)
            };
            resumed.map(|(j, loaded)| {
                warnings.extend(loaded.warnings);
                for rec in loaded.records {
                    // The loader already bounds rec.cell to the shard.
                    let Some(local) = rec.cell.checked_sub(base).filter(|l| *l < span) else {
                        continue;
                    };
                    if rec.seed == opts.shard_seed(local, base) {
                        done[local] = Some(rec.report);
                    } else {
                        warnings.push(format!(
                            "journal {}: cell {} was journaled under seed {}, expected {}; \
                             re-running it",
                            path.display(),
                            rec.cell,
                            rec.seed,
                            opts.shard_seed(local, base)
                        ));
                    }
                }
                j
            })
        } else if whole {
            Journal::create(path, total_cells)
        } else {
            Journal::create_segment(path, total_cells, base, base + span)
        };
        match opened {
            Ok(j) => journal = Some(j),
            Err(e) => warnings.push(format!(
                "journal {}: {e}; running without checkpoints",
                path.display()
            )),
        }
    }
    // Build the instances of exactly the cells that will execute — not
    // the journaled ones, not those past a chaos kill point — serially,
    // in cell order, on this thread, before any cell runs. Building
    // inside the pool instead would let one large instance's build
    // overlap another cell's run on a second thread and raise peak
    // memory. Cells sharing a slot build it once.
    for (local, request) in requests.iter().enumerate() {
        if done[local].is_none() && !opts.chaos.dies_before(base + local) {
            request.instance();
        }
    }
    let committer = Mutex::new(OrderedCommitter::with_base(journal, base));
    // Dispatch through the work-stealing scheduler. Supervision wraps
    // each *sub-task* (cell) individually — the `catch_unwind`, retry
    // loop, and watchdog clamp all live inside this closure — so a panic
    // or timeout in one sub-task never retries or aborts the rest of its
    // chunk. Every path settles the cell with the committer so the
    // commit cursor always reaches the end of the shard.
    let plan = opts.chunk_plan(span, pool);
    let (cells_out, sched): (Vec<SupervisedReport>, SchedStats) =
        pool.run_chunked(&plan, |local| {
            let cell = base + local;
            let settle = |record: Option<(u64, RunReport)>| {
                committer
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .settle(cell, record);
            };
            if let Some(report) = &done[local] {
                settle(None);
                return SupervisedReport {
                    report: report.clone(),
                    status: CellStatus::Resumed,
                    attempts: 0,
                };
            }
            if opts.chaos.dies_before(cell) {
                settle(None);
                return SupervisedReport {
                    report: RunReport {
                        cell,
                        result: Err("sweep interrupted before cell ran".to_string()),
                    },
                    status: CellStatus::Aborted,
                    attempts: 0,
                };
            }
            let sup = run_cell_supervised(cell, &requests[local], &opts.supervise, &opts.chaos);
            let record = matches!(
                sup.status,
                CellStatus::Completed | CellStatus::Degraded { .. }
            )
            .then(|| (opts.shard_seed(local, base), sup.report.clone()));
            settle(record);
            sup
        });
    warnings.extend(
        committer
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .warnings,
    );
    let interrupted = cells_out
        .iter()
        .any(|c| c.attempts == 0 && matches!(c.status, CellStatus::Aborted));
    SweepRun {
        cells: cells_out,
        warnings,
        interrupted,
        sched,
    }
}
