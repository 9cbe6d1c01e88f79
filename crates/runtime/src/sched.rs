//! The work-stealing scheduler behind the pool: chunked sub-tasks,
//! per-worker deques, and deterministic merge bookkeeping.
//!
//! This module is the *scheduler* half of a block-STM-style executor
//! split (the *executor* half — thread spawning and the slot merge —
//! lives in [`crate::pool`], the one module allowed to spawn threads):
//!
//! * a batch of `jobs` cells is first cut into **chunks** of contiguous
//!   cell indices by a [`ChunkPlan`] — either uniformly, or sized by
//!   per-cell **cost hints** from the grid layer so cheap cells amortize
//!   scheduling overhead while expensive cells get chunks of their own,
//! * the [`Scheduler`] is a sharded-mutex task queue: a global injector
//!   deque plus one deque per worker. A worker pops its own deque first,
//!   refills from the injector when dry, and finally **steals** the back
//!   half of a sibling's deque. Shard-lock contention is counted (every
//!   failed `try_lock`), so the sharding claim is measured, not assumed,
//! * every pop/steal moves whole chunks; the *sub-tasks* inside a chunk
//!   (individual cells) execute in index order on whichever worker holds
//!   the chunk, and each sub-task's result lands in its own per-index
//!   slot. The merge is by `(cell)` index — never completion order — so
//!   results are byte-identical at any thread count, with any chunk
//!   plan, under any steal schedule.
//!
//! Scheduling telemetry ([`SchedStats`]: steal count, chunk count,
//! contention, per-worker busy share) is inherently nondeterministic and
//! therefore **must never enter a byte-pinned artifact**: it is rendered
//! only into human-readable report footers, alongside the wall-clock
//! lines the CI smoke jobs already strip before diffing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// How many chunks each worker should see on average when a plan is cut
/// automatically: enough surplus that stealing can rebalance, few enough
/// that per-chunk queue traffic stays negligible.
const CHUNKS_PER_WORKER: usize = 8;

/// A contiguous block of cell indices `[start, end)` scheduled as one
/// task, carrying the summed cost hint it was sized by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First cell index in the chunk.
    pub start: usize,
    /// One past the last cell index.
    pub end: usize,
    /// Summed cost hint of the covered cells (scheduling only — never
    /// part of any result).
    pub cost: u64,
}

impl Chunk {
    /// Number of sub-tasks (cells) in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the chunk covers no cells.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// A partition of `0..jobs` into contiguous [`Chunk`]s.
///
/// The plan decides *granularity*, never *results*: any plan over the
/// same job count yields byte-identical merged output, because sub-task
/// results merge by cell index. Plans exist so the scheduler has more
/// tasks than workers (stealing needs surplus) without paying per-cell
/// queue traffic on 10⁵-cell sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    chunks: Vec<Chunk>,
    jobs: usize,
}

impl ChunkPlan {
    /// Cuts `jobs` cells into fixed-size chunks of `size` cells (the
    /// last chunk takes the remainder). `size` is clamped to at least 1.
    /// Every cell gets a unit cost hint.
    pub fn uniform(jobs: usize, size: usize) -> ChunkPlan {
        let size = size.max(1);
        let chunks = (0..jobs)
            .step_by(size)
            .map(|start| {
                let end = (start + size).min(jobs);
                Chunk {
                    start,
                    end,
                    cost: (end - start) as u64,
                }
            })
            .collect();
        ChunkPlan { chunks, jobs }
    }

    /// The automatic plan for a plain batch: uniform chunks sized so
    /// each of `workers` workers sees about `CHUNKS_PER_WORKER` (8) chunks.
    pub fn balanced(jobs: usize, workers: usize) -> ChunkPlan {
        let lanes = workers.max(1) * CHUNKS_PER_WORKER;
        ChunkPlan::uniform(jobs, jobs.div_ceil(lanes.max(1)).max(1))
    }

    /// Cuts cells into chunks sized by per-cell cost hints: contiguous
    /// cells accumulate until the chunk's summed cost reaches the target
    /// (total cost spread over `workers × CHUNKS_PER_WORKER` chunks), so
    /// a run of cheap cells shares one chunk while a cell whose own cost
    /// meets the target is scheduled alone. Zero hints count as cost 1.
    pub fn from_costs(costs: &[u64], workers: usize) -> ChunkPlan {
        let jobs = costs.len();
        let total: u64 = costs.iter().map(|&c| c.max(1)).sum();
        let lanes = (workers.max(1) * CHUNKS_PER_WORKER) as u64;
        let target = (total / lanes.max(1)).max(1);
        let mut chunks = Vec::new();
        let mut start = 0usize;
        let mut acc = 0u64;
        for (i, &c) in costs.iter().enumerate() {
            acc += c.max(1);
            if acc >= target {
                chunks.push(Chunk {
                    start,
                    end: i + 1,
                    cost: acc,
                });
                start = i + 1;
                acc = 0;
            }
        }
        if start < jobs {
            chunks.push(Chunk {
                start,
                end: jobs,
                cost: acc,
            });
        }
        ChunkPlan { chunks, jobs }
    }

    /// Total cells covered by the plan.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The chunks, in ascending cell order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// `true` when the plan covers no cells.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// Scheduling telemetry for one dispatch.
///
/// Everything here describes *how* the batch was executed, not *what* it
/// computed — steal schedules depend on OS timing, so none of these
/// numbers may be written into a byte-pinned artifact or journal. They
/// render into human-readable report footers only (see
/// [`SchedStats::footer`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Workers that participated in the dispatch.
    pub workers: usize,
    /// Chunks in the executed plan.
    pub chunks: u64,
    /// Sub-tasks (cells) executed.
    pub tasks: u64,
    /// Chunks taken from another worker's deque.
    pub steals: u64,
    /// Shard locks found busy on first try (injector or victim deque) —
    /// the contention measurement behind the sharded-mutex design.
    pub contended: u64,
    /// Sub-tasks executed per worker.
    pub worker_tasks: Vec<u64>,
    /// Summed cost hints executed per worker.
    pub worker_cost: Vec<u64>,
}

impl SchedStats {
    /// The stats of a serial (single-worker) dispatch over `plan`.
    pub fn serial(plan: &ChunkPlan) -> SchedStats {
        let cost: u64 = plan.chunks().iter().map(|c| c.cost).sum();
        SchedStats {
            workers: 1,
            chunks: plan.len() as u64,
            tasks: plan.jobs() as u64,
            steals: 0,
            contended: 0,
            worker_tasks: vec![plan.jobs() as u64],
            worker_cost: vec![cost],
        }
    }

    /// Per-worker busy share: each worker's executed cost (falling back
    /// to sub-task counts when no cost hints were set) over the total.
    /// A work-share proxy, deliberately wall-clock-free — the runtime
    /// never reads a clock (lint rule D002).
    pub fn busy_fractions(&self) -> Vec<f64> {
        let by_cost: u64 = self.worker_cost.iter().sum();
        let (shares, total) = if by_cost > 0 {
            (&self.worker_cost, by_cost)
        } else {
            (&self.worker_tasks, self.worker_tasks.iter().sum())
        };
        if total == 0 {
            return vec![0.0; self.workers];
        }
        shares.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// Folds another dispatch's stats into this one (summing counters,
    /// extending per-worker vectors element-wise).
    pub fn merge(&mut self, other: &SchedStats) {
        self.workers = self.workers.max(other.workers);
        self.chunks += other.chunks;
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.contended += other.contended;
        if self.worker_tasks.len() < other.worker_tasks.len() {
            self.worker_tasks.resize(other.worker_tasks.len(), 0);
            self.worker_cost.resize(other.worker_cost.len(), 0);
        }
        for (w, &t) in other.worker_tasks.iter().enumerate() {
            self.worker_tasks[w] += t;
        }
        for (w, &c) in other.worker_cost.iter().enumerate() {
            self.worker_cost[w] += c;
        }
    }

    /// The stats accumulated since `baseline` was snapshotted from the
    /// same tally: counters subtract, per-worker vectors subtract
    /// element-wise. Lets a driver that shares one tally across several
    /// dispatches render a footer for just the latest one.
    pub fn since(&self, baseline: &SchedStats) -> SchedStats {
        let sub = |now: &[u64], then: &[u64]| -> Vec<u64> {
            now.iter()
                .enumerate()
                .map(|(w, &n)| n.saturating_sub(then.get(w).copied().unwrap_or(0)))
                .collect()
        };
        SchedStats {
            workers: self.workers,
            chunks: self.chunks.saturating_sub(baseline.chunks),
            tasks: self.tasks.saturating_sub(baseline.tasks),
            steals: self.steals.saturating_sub(baseline.steals),
            contended: self.contended.saturating_sub(baseline.contended),
            worker_tasks: sub(&self.worker_tasks, &baseline.worker_tasks),
            worker_cost: sub(&self.worker_cost, &baseline.worker_cost),
        }
    }

    /// Renders the throughput footer line: runs/sec (when the caller
    /// measured one at its wall-clock edge), chunk count, steal count,
    /// contention, and per-worker busy fractions.
    ///
    /// The returned line is for human-readable reports only; CI smoke
    /// jobs strip it (like the wall-clock `completed in` lines) before
    /// diffing reports across thread counts.
    pub fn footer(&self, runs_per_sec: Option<f64>) -> String {
        let rate = match runs_per_sec {
            Some(r) => format!("{r:.1} runs/sec, "),
            None => String::new(),
        };
        let busy: Vec<String> = self
            .busy_fractions()
            .iter()
            .map(|f| format!("{f:.2}"))
            .collect();
        format!(
            "{rate}{} runs in {} chunks, {} steals, {} contended; {} worker(s) busy [{}]",
            self.tasks,
            self.chunks,
            self.steals,
            self.contended,
            self.workers,
            busy.join(", ")
        )
    }
}

/// What [`Scheduler::next_task`] hands a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedTask {
    /// Execute this chunk's sub-tasks (in index order), then call
    /// [`Scheduler::finish_chunk`].
    Run(Chunk),
    /// Nothing to claim right now, but chunks are still in flight on
    /// other workers — yield and ask again.
    Retry,
    /// Every chunk has finished; the worker may exit.
    Done,
}

/// The sharded-mutex task queue: a global injector plus one deque per
/// worker, with back-half stealing.
///
/// Shards are plain `Mutex<VecDeque<Chunk>>`s — the workspace is
/// dependency-free, so no lock-free deque crate — and the design is kept
/// honest by *measuring* contention: every `try_lock` that finds a shard
/// busy increments a counter surfaced in [`SchedStats::contended`].
/// Owners pop the **front** of their deque, thieves split off the
/// **back** half, so an owner and its thief touch opposite ends.
#[derive(Debug)]
pub struct Scheduler {
    /// Chunks not yet assigned to any worker's deque.
    injector: Mutex<VecDeque<Chunk>>,
    /// One shard per worker.
    deques: Vec<Mutex<VecDeque<Chunk>>>,
    /// Chunks claimed but not yet finished plus chunks not yet claimed.
    remaining: AtomicUsize,
    steals: AtomicU64,
    contended: AtomicU64,
}

impl Scheduler {
    /// Seeds a scheduler for `workers` workers: chunks deal round-robin
    /// onto the worker deques (worker `w` gets chunks `w`, `w + workers`,
    /// …), so each worker starts with a comparable share and load
    /// imbalance is corrected by *stealing*, not by a shared dispenser
    /// every refill contends on. The injector starts empty; it exists so
    /// work can be fed in from outside a deque owner (and is drained
    /// before any stealing attempt).
    pub fn new(plan: &ChunkPlan, workers: usize) -> Scheduler {
        let workers = workers.max(1);
        let chunks = plan.chunks();
        let mut deques: Vec<VecDeque<Chunk>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, &chunk) in chunks.iter().enumerate() {
            deques[i % workers].push_back(chunk);
        }
        Scheduler {
            injector: Mutex::new(VecDeque::new()),
            deques: deques.into_iter().map(Mutex::new).collect(),
            remaining: AtomicUsize::new(chunks.len()),
            steals: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Locks a shard, counting a contention event if the lock was busy
    /// on first try.
    fn shard<'a>(
        &self,
        shard: &'a Mutex<VecDeque<Chunk>>,
    ) -> std::sync::MutexGuard<'a, VecDeque<Chunk>> {
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                shard.lock().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// The next chunk for `worker`: local deque front, then the
    /// injector, then the back half of the first sibling deque with work
    /// (counted as steals). [`SchedTask::Retry`] when everything is
    /// empty but chunks are still executing elsewhere.
    pub fn next_task(&self, worker: usize) -> SchedTask {
        if self.remaining.load(Ordering::Acquire) == 0 {
            return SchedTask::Done;
        }
        if let Some(chunk) = self.shard(&self.deques[worker]).pop_front() {
            return SchedTask::Run(chunk);
        }
        if let Some(chunk) = self.shard(&self.injector).pop_front() {
            return SchedTask::Run(chunk);
        }
        let workers = self.deques.len();
        for offset in 1..workers {
            let victim = (worker + offset) % workers;
            let mut stolen = {
                let mut q = self.shard(&self.deques[victim]);
                let keep = q.len() / 2;
                q.split_off(keep)
            };
            if stolen.is_empty() {
                continue;
            }
            self.steals
                .fetch_add(stolen.len() as u64, Ordering::Relaxed);
            let first = stolen.pop_front();
            if !stolen.is_empty() {
                self.shard(&self.deques[worker]).append(&mut stolen);
            }
            if let Some(chunk) = first {
                return SchedTask::Run(chunk);
            }
        }
        if self.remaining.load(Ordering::Acquire) == 0 {
            SchedTask::Done
        } else {
            SchedTask::Retry
        }
    }

    /// Marks one claimed chunk as fully executed. Must be called exactly
    /// once per [`SchedTask::Run`] — including when a sub-task panics
    /// (the executor uses a drop guard), or sibling workers would retry
    /// forever waiting on a chunk that will never finish.
    pub fn finish_chunk(&self) {
        self.remaining.fetch_sub(1, Ordering::AcqRel);
    }

    /// Chunks stolen from sibling deques so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Shard locks found busy on first try so far.
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_plans_cover_every_cell_once() {
        for (jobs, size) in [(0usize, 3usize), (1, 1), (7, 3), (12, 4), (5, 100)] {
            let plan = ChunkPlan::uniform(jobs, size);
            assert_eq!(plan.jobs(), jobs);
            let mut covered = Vec::new();
            for c in plan.chunks() {
                assert!(!c.is_empty());
                assert_eq!(c.cost, c.len() as u64);
                covered.extend(c.start..c.end);
            }
            assert_eq!(covered, (0..jobs).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_size_clamps_to_one() {
        assert_eq!(ChunkPlan::uniform(4, 0).len(), 4);
    }

    #[test]
    fn cost_plans_isolate_expensive_cells() {
        // 16 cheap cells around one cell that dwarfs the target: the big
        // cell must not drag a long cheap tail into its chunk.
        let mut costs = vec![1u64; 17];
        costs[8] = 1_000;
        let plan = ChunkPlan::from_costs(&costs, 2);
        assert_eq!(plan.jobs(), 17);
        let covered: usize = plan.chunks().iter().map(Chunk::len).sum();
        assert_eq!(covered, 17);
        let big = plan
            .chunks()
            .iter()
            .find(|c| (c.start..c.end).contains(&8))
            .expect("cell 8 is covered");
        assert_eq!(big.end, 9, "the expensive cell closes its chunk");
    }

    #[test]
    fn cost_plans_batch_cheap_cells() {
        let costs = vec![1u64; 1_000];
        let plan = ChunkPlan::from_costs(&costs, 4);
        // ~ workers × CHUNKS_PER_WORKER chunks, not one per cell.
        assert!(plan.len() <= 4 * CHUNKS_PER_WORKER + 1, "{}", plan.len());
        assert!(plan.len() >= 4, "{}", plan.len());
        let covered: usize = plan.chunks().iter().map(Chunk::len).sum();
        assert_eq!(covered, 1_000);
    }

    #[test]
    fn balanced_plans_scale_with_workers() {
        let plan = ChunkPlan::balanced(1_000, 4);
        assert!(plan.len() >= 2 * 4);
        assert_eq!(plan.jobs(), 1_000);
        assert_eq!(ChunkPlan::balanced(0, 4).len(), 0);
    }

    #[test]
    fn scheduler_drains_every_chunk_exactly_once() {
        let plan = ChunkPlan::uniform(23, 2);
        let sched = Scheduler::new(&plan, 3);
        let mut seen = Vec::new();
        // A single "worker" draining all three deques exercises local
        // pop, injector refill, and stealing in one pass.
        loop {
            match sched.next_task(0) {
                SchedTask::Run(c) => {
                    seen.extend(c.start..c.end);
                    sched.finish_chunk();
                }
                SchedTask::Retry => unreachable!("single claimant never waits"),
                SchedTask::Done => break,
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
        assert!(sched.steals() > 0, "worker 0 must have robbed 1 and 2");
    }

    #[test]
    fn retry_is_reported_while_a_chunk_is_in_flight() {
        let plan = ChunkPlan::uniform(1, 1);
        let sched = Scheduler::new(&plan, 2);
        let SchedTask::Run(c) = sched.next_task(0) else {
            panic!("worker 0 gets the only chunk");
        };
        assert_eq!(sched.next_task(1), SchedTask::Retry);
        assert_eq!((c.start, c.end), (0, 1));
        sched.finish_chunk();
        assert_eq!(sched.next_task(1), SchedTask::Done);
    }

    #[test]
    fn stats_merge_and_render() {
        let mut a = SchedStats::serial(&ChunkPlan::uniform(10, 2));
        let b = SchedStats {
            workers: 2,
            chunks: 4,
            tasks: 8,
            steals: 3,
            contended: 1,
            worker_tasks: vec![5, 3],
            worker_cost: vec![5, 3],
        };
        a.merge(&b);
        assert_eq!(a.workers, 2);
        assert_eq!(a.chunks, 9);
        assert_eq!(a.tasks, 18);
        assert_eq!(a.steals, 3);
        assert_eq!(a.worker_tasks, vec![15, 3]);
        let footer = a.footer(Some(120.0));
        assert!(footer.contains("120.0 runs/sec"), "{footer}");
        assert!(footer.contains("3 steals"), "{footer}");
        assert!(footer.contains("9 chunks"), "{footer}");
        assert!(footer.contains("busy ["), "{footer}");
    }

    #[test]
    fn busy_fractions_sum_to_one() {
        let stats = SchedStats {
            workers: 2,
            worker_tasks: vec![1, 3],
            worker_cost: vec![0, 0],
            ..Default::default()
        };
        let busy = stats.busy_fractions();
        assert_eq!(busy, vec![0.25, 0.75]);
    }
}
