//! The sweep worker: pulls shards from a server, runs them through the
//! supervised runtime, and streams per-cell results back.
//!
//! A shard runs via [`run_supervised_shard`] with the sweep-wide cell
//! base, so reports, journal records, and seeds all use global cell
//! indices — the same execution path a local sweep takes, which is what
//! makes the server's merged artifact byte-identical to a local run.
//!
//! With a journal directory configured, each shard checkpoints to its
//! own segment file (`job-<digest>-shard-<lo>-<hi>.journal`), always
//! opened in resume mode: a fresh shard finds no file (an empty resume),
//! while a shard requeued after a worker death finds its predecessor's
//! partial segment and replays the completed cells instead of re-running
//! them. Workers that share a journal directory therefore hand work off
//! across deaths without coordination beyond the server's requeue.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use oraclesize_bench::grid::CellGrid;
use oraclesize_runtime::journal::report_json;
use oraclesize_runtime::{run_supervised_shard, ChaosPlan, Pool, SweepOptions, SweepSpec};

use crate::proto::{recv, send, CellRecord, Message};
use crate::{connect_with_retries, supervise_config};

/// How one worker connects and runs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Server address, e.g. `127.0.0.1:7401`.
    pub connect: String,
    /// Local pool threads for running shard cells.
    pub threads: usize,
    /// Directory for per-shard segment journals; share it between
    /// workers (and their replacements) to get crash handoff.
    pub journal_dir: Option<PathBuf>,
    /// Idle poll interval in milliseconds.
    pub poll_ms: u64,
    /// Fault drill: run the Nth claimed shard (1-based) only up to its
    /// midpoint, journal that progress, then stop without reporting —
    /// the in-process stand-in for `kill -9` that the CI smoke job and
    /// the resume tests drive.
    pub die_mid_shard: Option<u64>,
    /// Worker name, echoed in server logs.
    pub name: String,
}

/// How a worker's session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// The server reported all jobs done (or went away after serving
    /// them); normal shutdown.
    Finished {
        /// Shards completed and acknowledged.
        shards: u64,
        /// Cells across those shards.
        cells: u64,
    },
    /// The [`WorkerConfig::die_mid_shard`] drill fired: the shard was
    /// abandoned half-journaled and the connection dropped.
    Died {
        /// Shards completed before the drill.
        shards: u64,
    },
}

/// Runs the worker loop until the server signals shutdown.
///
/// # Errors
///
/// Returns a message when the server is unreachable before any work was
/// done, rejects a request, or sends a spec this build cannot lower.
pub fn run_worker(config: &WorkerConfig) -> Result<WorkerOutcome, String> {
    let pool = Pool::new(config.threads.max(1));
    let mut cache: BTreeMap<u64, (SweepSpec, CellGrid)> = BTreeMap::new();
    let mut shards_done = 0u64;
    let mut cells_done = 0u64;
    let mut claimed = 0u64;
    let mut sessions = 0u32;
    'session: loop {
        sessions += 1;
        // After the first session, a dead server most likely finished
        // its job budget and exited between two of our polls — shut
        // down quietly rather than erroring a completed sweep.
        if sessions > 5 {
            return Ok(WorkerOutcome::Finished {
                shards: shards_done,
                cells: cells_done,
            });
        }
        let mut stream = match connect_with_retries(&config.connect, 50, config.poll_ms) {
            Ok(s) => s,
            Err(e) if sessions == 1 => return Err(format!("connect {}: {e}", config.connect)),
            Err(_) => {
                return Ok(WorkerOutcome::Finished {
                    shards: shards_done,
                    cells: cells_done,
                })
            }
        };
        loop {
            let want = Message::Want {
                worker: config.name.clone(),
            };
            if send(&mut stream, &want).is_err() {
                continue 'session;
            }
            let msg = match recv(&mut stream) {
                Ok(m) => m,
                Err(_) => continue 'session,
            };
            match msg {
                Message::Shard {
                    job,
                    shard,
                    lo,
                    hi,
                    total,
                    spec,
                } => {
                    let (lo, hi, total) = (lo as usize, hi as usize, total as usize);
                    if let std::collections::btree_map::Entry::Vacant(slot) = cache.entry(job) {
                        let parsed = SweepSpec::from_json(&spec)
                            .map_err(|e| format!("server sent a bad spec: {e}"))?;
                        let grid = CellGrid::from_spec(&parsed)
                            .map_err(|e| format!("cannot lower job {job:016x}: {e}"))?;
                        slot.insert((parsed, grid));
                    }
                    let Some((parsed, grid)) = cache.get(&job) else {
                        continue;
                    };
                    if hi > grid.len() || lo > hi || total != grid.len() {
                        return Err(format!(
                            "shard {lo}..{hi} of {total} does not fit the {}-cell grid",
                            grid.len()
                        ));
                    }
                    claimed += 1;
                    let dying = config.die_mid_shard == Some(claimed);
                    let opts = SweepOptions {
                        supervise: supervise_config(&parsed.knobs)?,
                        journal: config
                            .journal_dir
                            .as_ref()
                            .map(|d| d.join(format!("job-{job:016x}-shard-{lo}-{hi}.journal"))),
                        // Resuming is always safe: a fresh shard loads an
                        // empty journal, a requeued one replays its
                        // predecessor's checkpoints.
                        resume: true,
                        seeds: Some(parsed.cells[lo..hi].iter().map(|c| c.seed).collect()),
                        chaos: if dying {
                            ChaosPlan::new().die_before(lo + (hi - lo) / 2)
                        } else {
                            ChaosPlan::new()
                        },
                        chunk: parsed.knobs.chunk.map(|c| c as usize),
                        costs: Some(grid.costs()[lo..hi].to_vec()),
                    };
                    let run =
                        run_supervised_shard(&pool, &grid.requests()[lo..hi], lo, total, &opts);
                    for w in &run.warnings {
                        eprintln!("work[{}]: {w}", config.name);
                    }
                    if dying {
                        eprintln!(
                            "work[{}]: die-mid-shard drill fired on shard {shard} \
                             (cells {lo}..{hi}); abandoning it",
                            config.name
                        );
                        return Ok(WorkerOutcome::Died {
                            shards: shards_done,
                        });
                    }
                    let records: Vec<CellRecord> = run
                        .cells
                        .iter()
                        .enumerate()
                        .map(|(local, cell)| CellRecord {
                            cell: (lo + local) as u64,
                            seed: parsed.cells[lo + local].seed,
                            report: report_json(&cell.report),
                        })
                        .collect();
                    let result = Message::Result {
                        job,
                        shard,
                        records,
                    };
                    if send(&mut stream, &result).is_err() {
                        continue 'session;
                    }
                    match recv(&mut stream) {
                        Ok(Message::Ack { .. }) => {}
                        Ok(Message::Error { text }) => return Err(text),
                        Ok(_) | Err(_) => continue 'session,
                    }
                    shards_done += 1;
                    cells_done += (hi - lo) as u64;
                }
                Message::NoWork { done: true } => {
                    return Ok(WorkerOutcome::Finished {
                        shards: shards_done,
                        cells: cells_done,
                    })
                }
                Message::NoWork { done: false } => {
                    std::thread::sleep(Duration::from_millis(config.poll_ms.max(1)));
                }
                Message::Error { text } => return Err(text),
                other => {
                    return Err(format!(
                        "unexpected message kind {} from server",
                        other.kind()
                    ))
                }
            }
        }
    }
}
