//! The `oraclesize` command-line tool: run any task on any family and
//! print the knowledge/communication costs.
//!
//! ```text
//! oraclesize run --family complete --n 64 --task broadcast
//! oraclesize run --family random-sparse --n 128 --task election --scheduler lifo
//! oraclesize run --family grid --n 100 --task spanner --stretch 3
//! oraclesize sweep --task broadcast --n 128 --runs 64 --threads 4 --drop 0.1
//! oraclesize trace --task broadcast --n 32 --out run.jsonl
//! oraclesize trace-diff left.jsonl right.jsonl
//! oraclesize spec t10 > t10.json
//! oraclesize serve --addr 127.0.0.1:7401 --journal-dir ckpt
//! oraclesize work --connect 127.0.0.1:7401 --threads 4 --journal-dir ckpt
//! oraclesize submit --connect 127.0.0.1:7401 --spec t10.json --out BENCH_T10.json
//! oraclesize list
//! ```
//!
//! `sweep` lowers its flags into the runtime's canonical [`SweepSpec`],
//! materializes the grid with [`CellGrid::from_spec`], and dispatches it
//! to the `oraclesize-runtime` pool — `--threads N` changes wall-clock
//! time only, never the report.
//!
//! `trace` lowers its flags the same way into a one-cell spec and streams
//! that run's event trace as deterministic JSONL (to `--out` or stdout);
//! `trace-diff` compares two such artifacts and reports the first
//! divergence with node/round context.
//!
//! `spec` prints a committed experiment's canonical spec JSON; `serve`,
//! `work`, and `submit` run the same spec distributed across the sweep
//! service — the merged artifact is byte-identical to a local run.

use std::fmt::Write as _;
use std::sync::Arc;

use oraclesize_bench::grid::CellGrid;
use oraclesize_bench::harness::Args;
use oraclesize_core::broadcast::{LightTreeOracle, SchemeB};
use oraclesize_core::construction::{
    collect_parent_ports, verify_bfs_tree, verify_mst, BfsTreeOracle, DistributedBfs, MstOracle,
    ZeroMessageTree,
};
use oraclesize_core::election::{
    verify_election, AnnouncedLeader, ElectionOracle, FloodMax, HirschbergSinclair,
};
use oraclesize_core::gossip::{decode_gossip_output, GossipOracle, TreeGossip};
use oraclesize_core::oracle::EmptyOracle;
use oraclesize_core::spanner::{collect_port_sets, verify_spanner, SpannerOracle};
use oraclesize_core::wakeup::{SpanningTreeOracle, TreeWakeup};
use oraclesize_core::{execute, OracleRun};
use oraclesize_graph::families::Family;
use oraclesize_graph::PortGraph;
use oraclesize_runtime::spec::to_ppm;
use oraclesize_runtime::{
    run_supervised_batch, Aggregate, CellSpec, FaultSpec, InstanceSpec, JsonlSink, KnobSpec, Pool,
    SchedulerSpec, SuperviseConfig, SweepOptions, SweepSpec,
};
use oraclesize_service::{Server, ServerConfig, WorkerConfig, WorkerOutcome};
use oraclesize_sim::protocol::FloodOnce;
use oraclesize_sim::trace::diff_lines;
use oraclesize_sim::{run_streamed, SchedulerKind, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The tasks the CLI can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Theorem 3.1: light-tree oracle + Scheme B.
    Broadcast,
    /// Theorem 2.1: spanning-tree oracle + tree wakeup.
    Wakeup,
    /// Oracle-free flooding baseline.
    Flood,
    /// Tree gossip.
    Gossip,
    /// Oracle-assisted leader election.
    Election,
    /// FloodMax election baseline.
    FloodMax,
    /// Hirschberg–Sinclair ring election (cycle family only).
    HsElection,
    /// Zero-message BFS-tree construction.
    Bfs,
    /// Zero-message MST construction.
    Mst,
    /// Flooding-based distributed BFS baseline.
    DistBfs,
    /// Zero-message t-spanner construction (`--stretch`).
    Spanner,
}

impl Task {
    /// Parses a task name.
    pub fn parse(s: &str) -> Option<Task> {
        Some(match s {
            "broadcast" => Task::Broadcast,
            "wakeup" => Task::Wakeup,
            "flood" => Task::Flood,
            "gossip" => Task::Gossip,
            "election" => Task::Election,
            "floodmax" => Task::FloodMax,
            "hs-election" => Task::HsElection,
            "bfs" => Task::Bfs,
            "mst" => Task::Mst,
            "dist-bfs" => Task::DistBfs,
            "spanner" => Task::Spanner,
            _ => return None,
        })
    }

    /// All task names, for `list` and error messages.
    pub const NAMES: [&'static str; 11] = [
        "broadcast",
        "wakeup",
        "flood",
        "gossip",
        "election",
        "floodmax",
        "hs-election",
        "bfs",
        "mst",
        "dist-bfs",
        "spanner",
    ];
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `run …`
    Run(RunArgs),
    /// `sweep …`
    Sweep(SweepArgs),
    /// `trace …`
    Trace(TraceArgs),
    /// `trace-diff <left> <right>`
    TraceDiff(TraceDiffArgs),
    /// `spec <name>`
    Spec(SpecArgs),
    /// `serve …`
    Serve(ServeArgs),
    /// `work …`
    Work(WorkArgs),
    /// `submit …`
    Submit(SubmitArgs),
    /// `list`
    List,
    /// `help` (also the zero-argument default)
    Help,
}

/// Arguments of the `spec` subcommand: print a committed experiment's
/// canonical [`SweepSpec`] JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecArgs {
    /// Experiment name (`t10`, `t20-corruption`, `t20-drops`,
    /// `t20-crashes`, `scale`).
    pub name: String,
    /// Use the bigger grid for the sweeps that have one (`scale`).
    pub large: bool,
}

/// Arguments of the `serve` subcommand: run the sweep service's job
/// server until every job has been delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Listen address.
    pub addr: String,
    /// Job journal directory; `None` disables server-side resume.
    pub journal_dir: Option<String>,
    /// Number of jobs to serve before exiting.
    pub jobs: usize,
    /// Expected worker count — a sharding hint, not a limit.
    pub workers: usize,
}

/// Arguments of the `work` subcommand: run one sweep worker against a
/// server.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkArgs {
    /// Server address to pull shards from.
    pub connect: String,
    /// Local pool threads.
    pub threads: usize,
    /// Segment journal directory; share it between workers for crash
    /// handoff.
    pub journal_dir: Option<String>,
    /// Fault drill: abandon the Nth claimed shard half-journaled.
    pub die_mid_shard: Option<u64>,
    /// Idle poll interval in milliseconds.
    pub poll_ms: u64,
    /// Worker name for server logs.
    pub name: String,
}

/// Arguments of the `submit` subcommand: send a spec to a server and
/// collect the merged artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Server address.
    pub connect: String,
    /// Path of the sweep spec JSON file.
    pub spec: String,
    /// Write the artifact here instead of returning it on stdout.
    pub out: Option<String>,
    /// Poll interval in milliseconds.
    pub poll_ms: u64,
    /// Skip server-side journal resume and recompute every cell.
    pub fresh: bool,
}

/// The instance and execution flags `run`, `sweep` and `trace` share,
/// parsed once by `CommonArgs::parse`.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Graph family.
    pub family: Family,
    /// Approximate size.
    pub n: usize,
    /// Task to execute.
    pub task: Task,
    /// Source / root node.
    pub source: usize,
    /// Asynchronous scheduler; `None` = synchronous. A `random`
    /// scheduler is seeded with `--seed`.
    pub scheduler: Option<SchedulerKind>,
    /// RNG seed (graph generation, scheduling, faults).
    pub seed: u64,
}

/// The valued flags [`CommonArgs::parse`] reads.
const COMMON_FLAGS: [&str; 6] = [
    "--family",
    "--n",
    "--task",
    "--source",
    "--scheduler",
    "--seed",
];

impl CommonArgs {
    /// Reads the shared flags of subcommand `sub`, whose default size is
    /// `n`. `--seed` is read first, so a `random` scheduler carries it
    /// wherever it sat on the command line.
    fn parse(a: &Args, sub: &str, n: usize) -> Result<CommonArgs, String> {
        let family = match a.value("--family") {
            Some(v) => Family::ALL
                .into_iter()
                .find(|f| f.name() == v)
                .ok_or_else(|| format!("unknown family {v:?}"))?,
            None => Family::RandomSparse,
        };
        let task = a
            .value("--task")
            .ok_or_else(|| format!("{sub} requires --task"))?;
        let task = Task::parse(task).ok_or_else(|| format!("unknown task {task:?}"))?;
        let n = a.number("--n")?.unwrap_or(n);
        if n < Family::MIN_NODES {
            return Err(format!("--n must be at least {}", Family::MIN_NODES));
        }
        let seed = a.number("--seed")?.unwrap_or(2006);
        let scheduler = a
            .value("--scheduler")
            .map(|kind| {
                SchedulerSpec {
                    kind: kind.to_string(),
                    seed,
                }
                .scheduler()
            })
            .transpose()?;
        Ok(CommonArgs {
            family,
            n,
            task,
            source: a.number("--source")?.unwrap_or(0),
            scheduler,
            seed,
        })
    }
}

/// Arguments of the `run` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Family, size, task, source, scheduler and seed.
    pub common: CommonArgs,
    /// Erase node identities.
    pub anonymous: bool,
    /// Spanner stretch (at least 1).
    pub stretch: usize,
}

/// Arguments of the `sweep` subcommand: a declarative grid of seeded
/// runs over one shared instance, dispatched to the runtime pool.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Family, size, task (`broadcast`, `wakeup`, or `flood`), source,
    /// scheduler and seed. A `random` scheduler is re-seeded per cell so
    /// the cells stay independent.
    pub common: CommonArgs,
    /// Cells in the grid (one seeded run each).
    pub runs: usize,
    /// Worker threads for dispatch.
    pub threads: usize,
    /// Fixed scheduler sub-task size in cells; `None` lets the runtime
    /// pick a balanced plan. Chunking changes scheduling granularity
    /// only — never the report.
    pub chunk: Option<usize>,
    /// Per-message drop probability (`0.0` = fault-free).
    pub drop: f64,
    /// Checkpoint journal path; `None` disables checkpointing.
    pub journal: Option<String>,
    /// Resume from the journal (skip checkpointed cells) instead of
    /// starting fresh.
    pub resume: bool,
    /// Failed cells are re-run up to this many times.
    pub max_retries: u32,
    /// Per-cell watchdog step budget; `None` leaves the engine default.
    pub cell_timeout: Option<u64>,
    /// Exit zero even when cells degraded (needed retries, or finished
    /// with uninformed nodes under faults).
    pub allow_degraded: bool,
}

/// Arguments of the `trace` subcommand: one fully-traced run, streamed to
/// JSONL through the engine's sink API.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Family, size, task (`broadcast`, `wakeup`, or `flood`), source,
    /// scheduler and seed.
    pub common: CommonArgs,
    /// Per-message drop probability (`0.0` = fault-free).
    pub drop: f64,
    /// Write the JSONL here instead of returning it on stdout.
    pub out: Option<String>,
}

/// Arguments of the `trace-diff` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiffArgs {
    /// Left JSONL artifact.
    pub left: String,
    /// Right JSONL artifact.
    pub right: String,
}

/// The default server address of `serve`, `work` and `submit`.
const DEFAULT_ADDR: &str = "127.0.0.1:7401";

/// Splits a subcommand's arguments with [`Args::parse`], refusing more
/// than `positional` positional arguments.
fn parse_flags(
    args: &[String],
    switches: &[&str],
    valued: &[&str],
    positional: usize,
) -> Result<Args, String> {
    let a = Args::parse(args.iter().cloned(), switches, valued)?;
    match a.positional.get(positional) {
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
        None => Ok(a),
    }
}

/// [`COMMON_FLAGS`] followed by a subcommand's own valued flags.
fn with_common<'a>(valued: &[&'a str]) -> Vec<&'a str> {
    [&COMMON_FLAGS[..], valued].concat()
}

/// Reads a count flag that must be at least 1 when given.
fn at_least_one(a: &Args, flag: &str) -> Result<Option<usize>, String> {
    match a.number(flag)? {
        Some(0) => Err(format!("{flag} must be at least 1")),
        v => Ok(v),
    }
}

/// Reads the flags `sweep` and `trace` share: the common flags, limited
/// to the tasks a [`SweepSpec`] names, and `--drop`.
fn spec_flags(a: &Args, sub: &str, n: usize) -> Result<(CommonArgs, f64), String> {
    let common = CommonArgs::parse(a, sub, n)?;
    if spec_task(common.task).is_none() {
        return Err(format!("{sub} supports --task broadcast, wakeup, or flood"));
    }
    let drop = a.number("--drop")?.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&drop) {
        return Err("--drop must be within [0, 1]".into());
    }
    Ok((common, drop))
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// A usage message describing the problem.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "run" => {
            let a = parse_flags(rest, &["--anonymous"], &with_common(&["--stretch"]), 0)?;
            Ok(Command::Run(RunArgs {
                common: CommonArgs::parse(&a, "run", 64)?,
                anonymous: a.has("--anonymous"),
                stretch: at_least_one(&a, "--stretch")?.unwrap_or(3),
            }))
        }
        "sweep" => {
            let valued = with_common(&[
                "--runs",
                "--threads",
                "--chunk",
                "--drop",
                "--journal",
                "--max-retries",
                "--cell-timeout",
            ]);
            let a = parse_flags(rest, &["--resume", "--allow-degraded"], &valued, 0)?;
            let (common, drop) = spec_flags(&a, "sweep", 64)?;
            let journal = a.value("--journal").map(String::from);
            let resume = a.has("--resume");
            if resume && journal.is_none() {
                return Err("--resume requires --journal".into());
            }
            Ok(Command::Sweep(SweepArgs {
                common,
                runs: at_least_one(&a, "--runs")?.unwrap_or(16),
                threads: a.number("--threads")?.unwrap_or(1),
                chunk: at_least_one(&a, "--chunk")?,
                drop,
                journal,
                resume,
                max_retries: a.number("--max-retries")?.unwrap_or(0),
                cell_timeout: a.number("--cell-timeout")?,
                allow_degraded: a.has("--allow-degraded"),
            }))
        }
        "trace" => {
            let a = parse_flags(rest, &[], &with_common(&["--drop", "--out"]), 0)?;
            let (common, drop) = spec_flags(&a, "trace", 32)?;
            Ok(Command::Trace(TraceArgs {
                common,
                drop,
                out: a.value("--out").map(String::from),
            }))
        }
        "trace-diff" => match &parse_flags(rest, &[], &[], 2)?.positional[..] {
            [left, right] => Ok(Command::TraceDiff(TraceDiffArgs {
                left: left.clone(),
                right: right.clone(),
            })),
            _ => Err("trace-diff needs two JSONL files".into()),
        },
        "spec" => {
            let a = parse_flags(rest, &["--large"], &[], 1)?;
            let name = a
                .positional
                .first()
                .ok_or_else(|| format!("spec needs an experiment name ({SPEC_NAMES})"))?;
            Ok(Command::Spec(SpecArgs {
                name: name.clone(),
                large: a.has("--large"),
            }))
        }
        "serve" => {
            let valued = ["--addr", "--journal-dir", "--jobs", "--workers"];
            let a = parse_flags(rest, &[], &valued, 0)?;
            Ok(Command::Serve(ServeArgs {
                addr: a.value("--addr").unwrap_or(DEFAULT_ADDR).to_string(),
                journal_dir: a.value("--journal-dir").map(String::from),
                jobs: at_least_one(&a, "--jobs")?.unwrap_or(1),
                workers: a.number("--workers")?.unwrap_or(2),
            }))
        }
        "work" => {
            let valued = [
                "--connect",
                "--threads",
                "--journal-dir",
                "--die-mid-shard",
                "--poll-ms",
                "--name",
            ];
            let a = parse_flags(rest, &[], &valued, 0)?;
            let die_mid_shard = match a.number("--die-mid-shard")? {
                Some(0) => return Err("--die-mid-shard counts claimed shards from 1".into()),
                v => v,
            };
            Ok(Command::Work(WorkArgs {
                connect: a.value("--connect").unwrap_or(DEFAULT_ADDR).to_string(),
                threads: a.number("--threads")?.unwrap_or(2),
                journal_dir: a.value("--journal-dir").map(String::from),
                die_mid_shard,
                poll_ms: a.number("--poll-ms")?.unwrap_or(50),
                name: a.value("--name").unwrap_or("worker").to_string(),
            }))
        }
        "submit" => {
            let valued = ["--connect", "--spec", "--out", "--poll-ms"];
            let a = parse_flags(rest, &["--fresh"], &valued, 0)?;
            Ok(Command::Submit(SubmitArgs {
                connect: a.value("--connect").unwrap_or(DEFAULT_ADDR).to_string(),
                spec: a
                    .value("--spec")
                    .ok_or("submit requires --spec")?
                    .to_string(),
                out: a.value("--out").map(String::from),
                poll_ms: a.number("--poll-ms")?.unwrap_or(100),
                fresh: a.has("--fresh"),
            }))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The experiment names `spec` can print.
const SPEC_NAMES: &str = "t10, t20-corruption, t20-drops, t20-crashes, scale";

/// The `help` text.
pub fn usage() -> String {
    format!(
        "oraclesize — run oracle-assisted communication tasks (PODC 2006)\n\n\
         USAGE:\n  oraclesize run --task <task> [--family <family>] [--n <size>]\n\
         \x20                [--source <node>] [--scheduler fifo|lifo|random|starve]\n\
         \x20                [--anonymous] [--seed <u64>] [--stretch <t>]\n\
         \x20 oraclesize sweep --task broadcast|wakeup|flood [--runs <k>]\n\
         \x20                [--threads <t>] [--chunk <cells>] [--drop <p>]\n\
         \x20                [--family <family>]\n\
         \x20                [--n <size>] [--scheduler <s>] [--seed <u64>]\n\
         \x20                [--journal <file>] [--resume] [--max-retries <k>]\n\
         \x20                [--cell-timeout <steps>] [--allow-degraded]\n\
         \x20 oraclesize trace --task broadcast|wakeup|flood [--family <family>]\n\
         \x20                [--n <size>] [--source <node>] [--scheduler <s>]\n\
         \x20                [--drop <p>] [--seed <u64>] [--out <file.jsonl>]\n\
         \x20 oraclesize trace-diff <left.jsonl> <right.jsonl>\n\
         \x20 oraclesize spec <{SPEC_NAMES_USAGE}> [--large]\n\
         \x20 oraclesize serve [--addr <host:port>] [--journal-dir <dir>]\n\
         \x20                [--jobs <k>] [--workers <k>]\n\
         \x20 oraclesize work [--connect <host:port>] [--threads <t>]\n\
         \x20                [--journal-dir <dir>] [--die-mid-shard <k>]\n\
         \x20                [--poll-ms <ms>] [--name <worker>]\n\
         \x20 oraclesize submit --spec <file.json> [--connect <host:port>]\n\
         \x20                [--out <file.json>] [--poll-ms <ms>] [--fresh]\n\
         \x20 oraclesize list\n\n\
         TASKS:    {}\nFAMILIES: {}\nSPECS:    {}\n",
        Task::NAMES.join(" "),
        Family::ALL.map(|f| f.name()).join(" "),
        SPEC_NAMES,
        SPEC_NAMES_USAGE = SPEC_NAMES.replace(", ", "|"),
    )
}

/// Executes a parsed command and renders its report.
///
/// # Errors
///
/// Engine errors, verification failures, or invalid combinations (e.g.
/// `hs-election` off a cycle).
pub fn run_command(cmd: &Command) -> Result<String, String> {
    run_command_status(cmd).map(|(report, _)| report)
}

/// Like [`run_command`], but also reports whether the run is *healthy*:
/// `false` means the report is valid yet the process should exit nonzero
/// — a sweep finished with degraded cells (retries were needed, or faults
/// left nodes uninformed) and `--allow-degraded` was not passed.
///
/// # Errors
///
/// Same as [`run_command`]; aborted sweep cells are errors, not
/// degradation.
pub fn run_command_status(cmd: &Command) -> Result<(String, bool), String> {
    match cmd {
        Command::Help => Ok((usage(), true)),
        Command::List => {
            let mut out = String::new();
            let _ = writeln!(out, "families: {}", Family::ALL.map(|f| f.name()).join(" "));
            let _ = writeln!(out, "tasks:    {}", Task::NAMES.join(" "));
            Ok((out, true))
        }
        Command::Run(args) => run_task(args).map(|r| (r, true)),
        Command::Sweep(args) => run_sweep(args),
        Command::Trace(args) => run_trace(args).map(|r| (r, true)),
        Command::TraceDiff(args) => run_trace_diff(args).map(|r| (r, true)),
        Command::Spec(args) => render_spec(args).map(|r| (r, true)),
        Command::Serve(args) => run_serve(args).map(|r| (r, true)),
        Command::Work(args) => run_work(args).map(|r| (r, true)),
        Command::Submit(args) => run_submit(args).map(|r| (r, true)),
    }
}

/// Looks up a committed experiment's canonical spec and renders it as
/// one JSON document (what `submit --spec` consumes).
fn render_spec(args: &SpecArgs) -> Result<String, String> {
    let spec = match args.name.as_str() {
        "t10" => oraclesize_bench::experiments::t10_spec(),
        "t20-corruption" => oraclesize_bench::experiments::t20_corruption_spec(),
        "t20-drops" => oraclesize_bench::experiments::t20_drops_spec(),
        "t20-crashes" => oraclesize_bench::experiments::t20_crashes_spec(),
        "scale" => oraclesize_bench::experiments::scale_spec(args.large),
        other => return Err(format!("unknown spec {other:?} (expected {SPEC_NAMES})")),
    };
    Ok(format!("{}\n", spec.render()))
}

/// Runs the sweep service's server until every job has been delivered.
fn run_serve(args: &ServeArgs) -> Result<String, String> {
    let server = Server::bind(ServerConfig {
        addr: args.addr.clone(),
        journal_dir: args.journal_dir.as_ref().map(std::path::PathBuf::from),
        jobs: args.jobs,
        workers_hint: args.workers,
    })
    .map_err(|e| format!("bind {}: {e}", args.addr))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    eprintln!("serve: listening on {addr} ({} job(s))", args.jobs);
    server.run().map_err(|e| format!("serve: {e}"))?;
    Ok(format!("served {} job(s) on {addr}\n", args.jobs))
}

/// Runs one sweep worker until the server signals shutdown.
fn run_work(args: &WorkArgs) -> Result<String, String> {
    let outcome = oraclesize_service::run_worker(&WorkerConfig {
        connect: args.connect.clone(),
        threads: args.threads,
        journal_dir: args.journal_dir.as_ref().map(std::path::PathBuf::from),
        poll_ms: args.poll_ms,
        die_mid_shard: args.die_mid_shard,
        name: args.name.clone(),
    })?;
    Ok(match outcome {
        WorkerOutcome::Finished { shards, cells } => format!(
            "worker {}: finished ({shards} shard(s), {cells} cell(s))\n",
            args.name
        ),
        WorkerOutcome::Died { shards } => format!(
            "worker {}: die-mid-shard drill fired after {shards} completed shard(s)\n",
            args.name
        ),
    })
}

/// Submits a spec file to a running server and returns (or writes) the
/// merged artifact.
fn run_submit(args: &SubmitArgs) -> Result<String, String> {
    let text = std::fs::read_to_string(&args.spec)
        .map_err(|e| format!("cannot read {:?}: {e}", args.spec))?;
    let artifact = oraclesize_service::submit(&args.connect, &text, !args.fresh, args.poll_ms)?;
    match &args.out {
        Some(path) => {
            write_output(path, artifact.as_bytes())?;
            Ok(format!("wrote:        {path} ({} bytes)\n", artifact.len()))
        }
        None => Ok(artifact),
    }
}

/// Writes an artifact to `path`, creating its parent directory first.
fn write_output(path: &str, bytes: &[u8]) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// The report line naming the graph a command ran on.
fn graph_line(out: &mut String, family: Family, g: &PortGraph) {
    let _ = writeln!(
        out,
        "graph:        {} (n = {}, m = {})",
        family.name(),
        g.num_nodes(),
        g.num_edges()
    );
}

/// The verdict of a dissemination run.
fn informed(all: bool) -> &'static str {
    if all {
        "all informed"
    } else {
        "INCOMPLETE"
    }
}

fn run_task(args: &RunArgs) -> Result<String, String> {
    let c = &args.common;
    if c.task == Task::HsElection && c.family != Family::Cycle {
        return Err("hs-election requires --family cycle".into());
    }
    let mut rng = StdRng::seed_from_u64(c.seed);
    let g = c.family.build(c.n, &mut rng);
    if c.source >= g.num_nodes() {
        return Err(format!(
            "--source {} out of range (graph has {} nodes)",
            c.source,
            g.num_nodes()
        ));
    }
    let base = if matches!(c.task, Task::Wakeup) {
        SimConfig::wakeup()
    } else {
        SimConfig::broadcast()
    };
    let config = match c.scheduler {
        Some(kind) => base.with_scheduler(kind),
        None => base,
    }
    .with_anonymous(args.anonymous);
    if args.anonymous
        && matches!(
            c.task,
            Task::Gossip | Task::Election | Task::FloodMax | Task::HsElection
        )
    {
        return Err("this task needs node identities; drop --anonymous".into());
    }

    let exec = |oracle: &dyn oraclesize_sim::Oracle,
                protocol: &dyn oraclesize_sim::Protocol|
     -> Result<OracleRun, String> {
        execute(&g, c.source, oracle, protocol, &config).map_err(|e| e.to_string())
    };

    let (run, verification) = match c.task {
        Task::Broadcast | Task::Wakeup | Task::Flood => {
            let r = match c.task {
                Task::Broadcast => exec(&LightTreeOracle, &SchemeB)?,
                Task::Wakeup => exec(&SpanningTreeOracle::default(), &TreeWakeup)?,
                _ => exec(&EmptyOracle, &FloodOnce)?,
            };
            let v = informed(r.outcome.all_informed()).to_string();
            (r, v)
        }
        Task::Gossip => {
            let r = exec(&GossipOracle::default(), &TreeGossip)?;
            let complete = r.outcome.outputs.iter().all(|o| {
                o.as_ref()
                    .and_then(decode_gossip_output)
                    .is_some_and(|s| s.len() == g.num_nodes())
            });
            let v = if complete {
                "all nodes know all values"
            } else {
                "INCOMPLETE"
            };
            (r, v.to_string())
        }
        Task::Election => {
            let r = exec(&ElectionOracle, &AnnouncedLeader)?;
            let leader = verify_election(&g, &r.outcome.outputs, false)?;
            (r, format!("leader {leader} agreed everywhere"))
        }
        Task::FloodMax => {
            let r = exec(&EmptyOracle, &FloodMax)?;
            let leader = verify_election(&g, &r.outcome.outputs, true)?;
            (r, format!("maximum {leader} elected everywhere"))
        }
        Task::HsElection => {
            let r = exec(&EmptyOracle, &HirschbergSinclair)?;
            let leader = verify_election(&g, &r.outcome.outputs, true)?;
            (r, format!("maximum {leader} elected everywhere"))
        }
        Task::Bfs => {
            let r = exec(&BfsTreeOracle, &ZeroMessageTree)?;
            let ports =
                collect_parent_ports(&r.outcome.outputs).ok_or("outputs failed to decode")?;
            verify_bfs_tree(&g, c.source, &ports)?;
            (r, "verified BFS tree".to_string())
        }
        Task::Mst => {
            let r = exec(&MstOracle, &ZeroMessageTree)?;
            let ports =
                collect_parent_ports(&r.outcome.outputs).ok_or("outputs failed to decode")?;
            verify_mst(&g, c.source, &ports)?;
            (r, "verified minimum spanning tree".to_string())
        }
        Task::DistBfs => {
            let r = exec(&EmptyOracle, &DistributedBfs)?;
            let ports =
                collect_parent_ports(&r.outcome.outputs).ok_or("outputs failed to decode")?;
            let v = if c.scheduler.is_none() {
                verify_bfs_tree(&g, c.source, &ports)?;
                "verified BFS tree".to_string()
            } else {
                "spanning tree (async: BFS property not guaranteed)".to_string()
            };
            (r, v)
        }
        Task::Spanner => {
            let r = exec(&SpannerOracle::new(args.stretch), &ZeroMessageTree)?;
            let sets = collect_port_sets(&r.outcome.outputs).ok_or("outputs failed to decode")?;
            let edges = verify_spanner(&g, &sets, args.stretch)?;
            (
                r,
                format!("verified {}-spanner with {edges} edges", args.stretch),
            )
        }
    };

    let mut out = String::new();
    graph_line(&mut out, c.family, &g);
    let _ = writeln!(
        out,
        "execution:    {}{}",
        c.scheduler.map_or("synchronous", |k| k.name()),
        if args.anonymous { ", anonymous" } else { "" }
    );
    let _ = writeln!(out, "oracle bits:  {}", run.oracle_bits);
    let _ = writeln!(out, "messages:     {}", run.outcome.metrics.messages);
    let _ = writeln!(out, "payload bits: {}", run.outcome.metrics.payload_bits);
    let _ = writeln!(out, "rounds:       {}", run.outcome.metrics.rounds);
    let _ = writeln!(out, "result:       {verification}");
    Ok(out)
}

/// The spec names `(task, oracle, scheme, mode)` of the tasks a
/// [`SweepSpec`] can express; `None` for the rest, which only `run`
/// executes.
fn spec_task(task: Task) -> Option<(&'static str, &'static str, &'static str, &'static str)> {
    match task {
        Task::Broadcast => Some(("broadcast", "light-tree", "scheme-b", "broadcast")),
        Task::Wakeup => Some(("wakeup", "spanning-tree", "tree-wakeup", "wakeup")),
        Task::Flood => Some(("flood", "empty", "flood", "broadcast")),
        _ => None,
    }
}

/// Lowers the shared flags into a [`SweepSpec`] with one instance and one
/// cell per `(label, seed)`. A `random` scheduler and any fault plan take
/// the cell's seed, so the cells stay independent yet reproducible.
fn lower(
    common: &CommonArgs,
    drop: f64,
    cells: impl IntoIterator<Item = (String, u64)>,
) -> Result<SweepSpec, String> {
    let (task, oracle, scheme, mode) =
        spec_task(common.task).ok_or("only broadcast, wakeup, and flood lower to a spec")?;
    let mut spec = SweepSpec::new(format!("sweep-{task}"), common.seed);
    spec.instances.push(InstanceSpec {
        family: common.family.name().to_string(),
        n: common.n as u64,
        seed: common.seed,
        p_ppm: None,
        source: common.source as u64,
        oracle: oracle.to_string(),
    });
    for (label, seed) in cells {
        let scheduler = common.scheduler.map(|kind| {
            SchedulerSpec::of(match kind {
                SchedulerKind::Random { .. } => SchedulerKind::Random { seed },
                kind => kind,
            })
        });
        let faults = if drop > 0.0 {
            FaultSpec {
                seed,
                drop_ppm: to_ppm(drop),
                ..FaultSpec::default()
            }
        } else {
            FaultSpec::default()
        };
        spec.cells.push(CellSpec {
            label,
            instance: 0,
            scheme: scheme.to_string(),
            retries: None,
            mode: mode.to_string(),
            scheduler,
            anonymous: false,
            max_message_bits: None,
            quiescence_polls: (drop > 0.0).then_some(16),
            seed,
            faults,
        });
    }
    Ok(spec)
}

/// Lowers the sweep flags into the runtime's canonical [`SweepSpec`] —
/// the same job description the bench grids and the sweep service
/// consume, so a CLI sweep can be replayed (or distributed) verbatim.
/// One instance, one cell per seeded run; cell `k` has seed
/// `--seed + k + 1`.
pub fn sweep_spec(args: &SweepArgs) -> Result<SweepSpec, String> {
    let seed = args.common.seed;
    let cells = (0..args.runs).map(|k| (format!("run-{k}"), seed.wrapping_add(k as u64 + 1)));
    let mut spec = lower(&args.common, args.drop, cells)?;
    spec.knobs = KnobSpec {
        max_retries: u64::from(args.max_retries),
        cell_timeout: args.cell_timeout,
        chunk: args.chunk.map(|c| c as u64),
    };
    Ok(spec)
}

/// Lowers the flags into a [`SweepSpec`], materializes the grid with
/// [`CellGrid::from_spec`], dispatches it across the pool under
/// supervision, and folds the reports in cell order — the output is
/// identical at any `--threads` value, and (with `--journal`) across
/// kill/resume boundaries.
fn run_sweep(args: &SweepArgs) -> Result<(String, bool), String> {
    let spec = sweep_spec(args)?;
    let grid = CellGrid::from_spec(&spec)?;
    let g = Arc::clone(&grid.requests()[0].instance.graph);

    let sweep_opts = SweepOptions {
        supervise: SuperviseConfig {
            max_retries: args.max_retries,
            cell_timeout: args.cell_timeout,
        },
        journal: args.journal.as_ref().map(std::path::PathBuf::from),
        resume: args.resume,
        // Journal records carry the per-cell seed, so a resume against a
        // different `--seed` re-runs cells instead of replaying them.
        seeds: Some(spec.cells.iter().map(|c| c.seed).collect()),
        chaos: Default::default(),
        chunk: args.chunk,
        // Every cell runs the same task on the same graph, so there is
        // no cost skew for hints to capture — the balanced plan is
        // already optimal.
        costs: None,
    };
    let sweep = run_supervised_batch(&Pool::new(args.threads), grid.requests(), &sweep_opts);
    let reports = sweep.reports();
    let agg = Aggregate::of(&reports);
    if agg.errors > 0 {
        let first = reports
            .iter()
            .find_map(|r| r.result.as_ref().err())
            .expect("errors counted");
        return Err(format!(
            "{} of {} cells aborted: {first}",
            agg.errors, agg.cells
        ));
    }

    let cells = agg.cells;
    let mut out = String::new();
    graph_line(&mut out, args.common.family, &g);
    let _ = writeln!(
        out,
        "sweep:        {} cells, {} thread(s), drop = {:.2}",
        cells,
        args.threads.max(1),
        args.drop
    );
    let _ = writeln!(
        out,
        "execution:    {}",
        args.common.scheduler.map_or("synchronous", |k| k.name())
    );
    let _ = writeln!(out, "oracle bits:  {}", agg.oracle_bits / cells);
    let _ = writeln!(out, "completed:    {}/{}", agg.completed, cells);
    let _ = writeln!(
        out,
        "outcomes:     {}",
        sweep.summary().trim_start_matches("outcomes: ")
    );
    let _ = writeln!(
        out,
        "messages:     total {}, mean {:.1}, max {}",
        agg.totals.messages,
        agg.totals.messages as f64 / cells as f64,
        agg.max_messages
    );
    let _ = writeln!(
        out,
        "rounds:       total {}, max {}",
        agg.totals.rounds, agg.max_rounds
    );
    if args.drop > 0.0 {
        let _ = writeln!(out, "dropped:      {}", agg.totals.faults.dropped);
    }
    for warning in &sweep.warnings {
        let _ = writeln!(out, "warning:      {warning}");
    }
    // Scheduling telemetry varies with thread count and steal timing, so
    // this footer is never part of any byte-pinned artifact — the CI
    // smoke jobs and the determinism tests below filter it out before
    // diffing. (Runs/sec is appended by the binary, which owns the wall
    // clock; the library never reads it.)
    let _ = writeln!(out, "throughput:   {}", sweep.sched.footer(None));
    let healthy = !sweep.any_degraded() && agg.completed == cells;
    Ok((out, healthy || args.allow_degraded))
}
/// Lowers the flags into a one-cell [`SweepSpec`] (cell seed `--seed`),
/// materializes it with [`CellGrid::from_spec`] like `sweep`, and streams
/// the cell's fully-traced run through a JSONL sink — events are rendered
/// as they are emitted, never accumulated, and the bytes are identical on
/// every machine for the same arguments.
fn run_trace(args: &TraceArgs) -> Result<String, String> {
    let cell = [("trace".to_string(), args.common.seed)];
    let grid = CellGrid::from_spec(&lower(&args.common, args.drop, cell)?)?;
    let request = &grid.requests()[0];
    let mut sink = JsonlSink::new(0);
    let outcome = run_streamed(
        &request.instance,
        request.protocol.as_ref(),
        &request.config,
        &mut sink,
    )
    .map_err(|e| e.to_string())?;
    let events = sink.len();
    let jsonl = sink.into_string();
    let Some(path) = &args.out else {
        return Ok(jsonl);
    };
    write_output(path, jsonl.as_bytes())?;
    let mut out = String::new();
    let _ = writeln!(out, "wrote:        {path} ({events} events)");
    graph_line(&mut out, args.common.family, &request.instance.graph);
    let _ = writeln!(out, "messages:     {}", outcome.metrics.messages);
    let _ = writeln!(out, "rounds:       {}", outcome.metrics.rounds);
    let _ = writeln!(out, "result:       {}", informed(outcome.all_informed()));
    Ok(out)
}

/// Compares two JSONL trace artifacts line by line and reports either
/// byte-identity or the first divergence with its node/round context.
/// Divergence is a *finding*, not a usage error, so it renders as normal
/// output.
fn run_trace_diff(args: &TraceDiffArgs) -> Result<String, String> {
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
    };
    let left = read(&args.left)?;
    let right = read(&args.right)?;
    let mut out = diff_lines(&left, &right).render();
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_help_and_list() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["list"])).unwrap(), Command::List);
        assert!(parse_args(&args(&["bogus"])).is_err());
    }

    #[test]
    fn parse_run_defaults_and_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "--task",
            "broadcast",
            "--family",
            "complete",
            "--n",
            "32",
            "--scheduler",
            "lifo",
            "--anonymous",
            "--seed",
            "7",
        ]))
        .unwrap();
        let Command::Run(a) = cmd else {
            panic!("not run")
        };
        assert_eq!(a.common.task, Task::Broadcast);
        assert_eq!(a.common.family, Family::Complete);
        assert_eq!(a.common.n, 32);
        assert_eq!(a.common.scheduler, Some(SchedulerKind::Lifo));
        assert!(a.anonymous);
        assert_eq!(a.common.seed, 7);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&args(&["run"])).is_err()); // no task
        assert!(parse_args(&args(&["run", "--task", "nope"])).is_err());
        assert!(parse_args(&args(&["run", "--task", "wakeup", "--family", "nope"])).is_err());
        assert!(parse_args(&args(&["run", "--task", "wakeup", "--n"])).is_err());
        assert!(parse_args(&args(&["run", "--task", "wakeup", "--wat"])).is_err());
        // A 0-spanner does not exist; `run` never verifies a different t.
        let err = parse_args(&args(&["run", "--task", "spanner", "--stretch", "0"])).unwrap_err();
        assert_eq!(err, "--stretch must be at least 1");
        // `run`, `sweep` and `trace` take no positional arguments, and no
        // family is defined below 4 nodes.
        for sub in ["run", "sweep", "trace"] {
            assert!(parse_args(&args(&[sub, "--task", "flood", "stray"])).is_err());
            let err = parse_args(&args(&[sub, "--task", "flood", "--n", "3"])).unwrap_err();
            assert_eq!(err, "--n must be at least 4");
        }
    }

    #[test]
    fn every_task_runs_and_verifies() {
        for task in Task::NAMES {
            let family = if task == "hs-election" {
                "cycle"
            } else {
                "random-sparse"
            };
            let cmd = parse_args(&args(&[
                "run", "--task", task, "--family", family, "--n", "24",
            ]))
            .unwrap();
            let report = run_command(&cmd).unwrap_or_else(|e| panic!("{task}: {e}"));
            assert!(report.contains("result:"), "{task}");
            assert!(!report.contains("INCOMPLETE"), "{task}");
        }
    }

    #[test]
    fn hs_election_requires_cycle() {
        let cmd = parse_args(&args(&["run", "--task", "hs-election", "--family", "grid"])).unwrap();
        assert!(run_command(&cmd).is_err());
    }

    #[test]
    fn anonymous_labeled_tasks_rejected() {
        let cmd = parse_args(&args(&[
            "run",
            "--task",
            "gossip",
            "--anonymous",
            "--family",
            "cycle",
        ]))
        .unwrap();
        assert!(run_command(&cmd).is_err());
    }

    #[test]
    fn async_runs_work() {
        let cmd = parse_args(&args(&[
            "run",
            "--task",
            "broadcast",
            "--family",
            "hypercube",
            "--n",
            "32",
            "--scheduler",
            "random",
        ]))
        .unwrap();
        let report = run_command(&cmd).unwrap();
        assert!(report.contains("all informed"));
    }

    #[test]
    fn starve_scheduler_is_exposed() {
        let cmd = parse_args(&args(&[
            "run",
            "--task",
            "broadcast",
            "--family",
            "cycle",
            "--n",
            "16",
            "--scheduler",
            "starve",
        ]))
        .unwrap();
        let Command::Run(ref a) = cmd else {
            panic!("not run")
        };
        assert_eq!(a.common.scheduler, Some(SchedulerKind::Starve));
        let report = run_command(&cmd).unwrap();
        assert!(report.contains("all informed"));
    }

    #[test]
    fn parse_sweep_flags() {
        let cmd = parse_args(&args(&[
            "sweep",
            "--task",
            "flood",
            "--family",
            "cycle",
            "--n",
            "20",
            "--runs",
            "8",
            "--threads",
            "3",
            "--drop",
            "0.25",
            "--seed",
            "11",
            "--journal",
            "ckpt.journal",
            "--resume",
            "--max-retries",
            "2",
            "--cell-timeout",
            "5000",
            "--chunk",
            "4",
            "--allow-degraded",
        ]))
        .unwrap();
        let Command::Sweep(a) = cmd else {
            panic!("not sweep")
        };
        assert_eq!(a.common.task, Task::Flood);
        assert_eq!(a.common.family, Family::Cycle);
        assert_eq!(a.runs, 8);
        assert_eq!(a.threads, 3);
        assert_eq!(a.chunk, Some(4));
        assert_eq!(a.drop, 0.25);
        assert_eq!(a.common.seed, 11);
        assert_eq!(a.journal.as_deref(), Some("ckpt.journal"));
        assert!(a.resume);
        assert_eq!(a.max_retries, 2);
        assert_eq!(a.cell_timeout, Some(5000));
        assert!(a.allow_degraded);
    }

    #[test]
    fn sweep_rejects_unsupported_input() {
        assert!(parse_args(&args(&["sweep"])).is_err()); // no task
        assert!(parse_args(&args(&["sweep", "--task", "gossip"])).is_err());
        assert!(parse_args(&args(&["sweep", "--task", "flood", "--drop", "1.5"])).is_err());
        assert!(parse_args(&args(&["sweep", "--task", "flood", "--runs", "0"])).is_err());
        assert!(parse_args(&args(&["sweep", "--task", "flood", "--max-retries", "x"])).is_err());
        // A zero-cell chunk cannot cover the grid.
        assert!(parse_args(&args(&["sweep", "--task", "flood", "--chunk", "0"])).is_err());
        // --resume without a journal has nothing to resume from.
        assert!(parse_args(&args(&["sweep", "--task", "flood", "--resume"])).is_err());
    }

    #[test]
    fn sweep_output_is_thread_count_invariant() {
        let base = ["sweep", "--task", "wakeup", "--n", "24", "--runs", "6"];
        let serial = {
            let cmd = parse_args(&args(&base)).unwrap();
            run_command(&cmd).unwrap()
        };
        assert!(serial.contains("completed:    6/6"), "{serial}");
        assert!(serial.contains("throughput:"), "{serial}");
        for threads in ["2", "8", "16"] {
            for chunk in [None, Some("1"), Some("4")] {
                let mut argv: Vec<&str> = base.to_vec();
                argv.extend(["--threads", threads]);
                if let Some(chunk) = chunk {
                    argv.extend(["--chunk", chunk]);
                }
                let cmd = parse_args(&args(&argv)).unwrap();
                let parallel = run_command(&cmd).unwrap();
                // The thread count is echoed in the header and the
                // throughput footer is scheduling telemetry; everything
                // else must match the serial run byte for byte.
                let tail = |s: &str| {
                    s.lines()
                        .filter(|l| !l.starts_with("sweep:") && !l.starts_with("throughput:"))
                        .collect::<Vec<_>>()
                        .join("\n")
                };
                assert_eq!(
                    tail(&serial),
                    tail(&parallel),
                    "threads = {threads}, chunk = {chunk:?}"
                );
            }
        }
    }

    #[test]
    fn sweep_with_drops_degrades_not_errors() {
        let cmd = parse_args(&args(&[
            "sweep",
            "--task",
            "broadcast",
            "--n",
            "24",
            "--runs",
            "4",
            "--drop",
            "0.3",
        ]))
        .unwrap();
        let (report, healthy) = run_command_status(&cmd).unwrap();
        assert!(report.contains("dropped:"), "{report}");
        // The health flag mirrors the completion count: exit zero iff
        // every cell finished its task despite the drops.
        assert_eq!(healthy, report.contains("completed:    4/4"), "{report}");
    }

    #[test]
    fn degraded_sweeps_fail_unless_allowed() {
        let base = [
            "sweep",
            "--task",
            "broadcast",
            "--n",
            "24",
            "--runs",
            "2",
            "--drop",
            "0.9",
        ];
        let cmd = parse_args(&args(&base)).unwrap();
        let (report, healthy) = run_command_status(&cmd).unwrap();
        assert!(
            !healthy,
            "90% drop should leave nodes uninformed:\n{report}"
        );
        assert!(!report.contains("completed:    2/2"), "{report}");

        let mut argv = base.to_vec();
        argv.push("--allow-degraded");
        let cmd = parse_args(&args(&argv)).unwrap();
        let (_, healthy) = run_command_status(&cmd).unwrap();
        assert!(healthy, "--allow-degraded must forgive degradation");
    }

    #[test]
    fn sweep_journal_resume_replays_cells() {
        let dir =
            std::env::temp_dir().join(format!("oraclesize-cli-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("wakeup.journal");
        let journal = journal.to_str().unwrap();
        let base = ["sweep", "--task", "wakeup", "--n", "24", "--runs", "6"];
        let run = |extra: &[&str]| {
            let mut argv = base.to_vec();
            argv.extend_from_slice(extra);
            let cmd = parse_args(&args(&argv)).unwrap();
            run_command_status(&cmd).unwrap()
        };
        let (fresh, healthy) = run(&["--journal", journal]);
        assert!(healthy);
        assert!(fresh.contains("6 completed, 0 resumed"), "{fresh}");
        let (resumed, healthy) = run(&["--journal", journal, "--resume"]);
        assert!(healthy);
        assert!(resumed.contains("0 completed, 6 resumed"), "{resumed}");
        // Only the outcome classification (and scheduling telemetry) may
        // differ; every measured number is replayed byte for byte from
        // the checkpoints.
        let tail = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("outcomes:") && !l.starts_with("throughput:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&fresh), tail(&resumed));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_service_subcommands() {
        let cmd = parse_args(&args(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--journal-dir",
            "ckpt",
            "--jobs",
            "3",
            "--workers",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                addr: "0.0.0.0:9000".to_string(),
                journal_dir: Some("ckpt".to_string()),
                jobs: 3,
                workers: 4,
            })
        );
        let cmd = parse_args(&args(&[
            "work",
            "--connect",
            "10.0.0.1:9000",
            "--threads",
            "8",
            "--die-mid-shard",
            "2",
            "--poll-ms",
            "25",
            "--name",
            "w-a",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Work(WorkArgs {
                connect: "10.0.0.1:9000".to_string(),
                threads: 8,
                journal_dir: None,
                die_mid_shard: Some(2),
                poll_ms: 25,
                name: "w-a".to_string(),
            })
        );
        let cmd = parse_args(&args(&[
            "submit",
            "--spec",
            "t10.json",
            "--out",
            "merged.json",
            "--fresh",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Submit(SubmitArgs {
                connect: "127.0.0.1:7401".to_string(),
                spec: "t10.json".to_string(),
                out: Some("merged.json".to_string()),
                poll_ms: 100,
                fresh: true,
            })
        );
        assert_eq!(
            parse_args(&args(&["spec", "scale", "--large"])).unwrap(),
            Command::Spec(SpecArgs {
                name: "scale".to_string(),
                large: true,
            })
        );
    }

    #[test]
    fn service_subcommands_reject_bad_input() {
        assert!(parse_args(&args(&["serve", "--jobs", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "--wat"])).is_err());
        assert!(parse_args(&args(&["work", "--die-mid-shard", "0"])).is_err());
        assert!(parse_args(&args(&["submit"])).is_err()); // no spec
        assert!(parse_args(&args(&["spec"])).is_err()); // no name
        assert!(parse_args(&args(&["spec", "t10", "scale"])).is_err());
        for argv in [
            &["serve", "stray"][..],
            &["work", "stray"],
            &["submit", "--spec", "t10.json", "stray"],
        ] {
            assert!(parse_args(&args(argv)).is_err(), "{argv:?}");
        }
        let err = run_command(&parse_args(&args(&["spec", "t99"])).unwrap()).unwrap_err();
        assert!(err.contains("unknown spec"), "{err}");
    }

    #[test]
    fn spec_subcommand_prints_canonical_parseable_specs() {
        for name in ["t10", "t20-corruption", "t20-drops", "t20-crashes", "scale"] {
            let cmd = parse_args(&args(&["spec", name])).unwrap();
            let text = run_command(&cmd).unwrap();
            let spec = SweepSpec::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name.to_lowercase(), spec.name, "{name}");
            assert!(!spec.cells.is_empty(), "{name}");
            // The printed form is canonical: it re-renders byte for byte.
            assert_eq!(format!("{}\n", spec.render()), text, "{name}");
        }
    }

    #[test]
    fn sweep_flags_lower_into_the_canonical_spec() {
        let cmd = parse_args(&args(&[
            "sweep",
            "--task",
            "broadcast",
            "--family",
            "hypercube",
            "--n",
            "32",
            "--runs",
            "3",
            "--scheduler",
            "random",
            "--drop",
            "0.25",
            "--seed",
            "100",
            "--max-retries",
            "2",
            "--chunk",
            "4",
        ]))
        .unwrap();
        let Command::Sweep(a) = cmd else {
            panic!("not sweep")
        };
        let spec = sweep_spec(&a).unwrap();
        assert_eq!(spec.name, "sweep-broadcast");
        assert_eq!(spec.master_seed, 100);
        assert_eq!(spec.instances.len(), 1);
        assert_eq!(spec.instances[0].family, "hypercube");
        assert_eq!(spec.instances[0].oracle, "light-tree");
        assert_eq!(spec.cells.len(), 3);
        for (k, cell) in spec.cells.iter().enumerate() {
            let cell_seed = 100 + k as u64 + 1;
            assert_eq!(cell.seed, cell_seed);
            assert_eq!(cell.scheme, "scheme-b");
            assert_eq!(cell.mode, "broadcast");
            // The random scheduler and the fault plan are re-seeded per
            // cell, exactly like the pre-spec construction path.
            assert_eq!(
                cell.scheduler,
                Some(SchedulerSpec {
                    kind: "random".to_string(),
                    seed: cell_seed,
                })
            );
            assert_eq!(cell.faults.seed, cell_seed);
            assert_eq!(cell.faults.drop_ppm, 250_000);
            assert_eq!(cell.quiescence_polls, Some(16));
        }
        assert_eq!(spec.knobs.max_retries, 2);
        assert_eq!(spec.knobs.chunk, Some(4));
        // The lowered spec survives the wire format losslessly.
        assert_eq!(SweepSpec::parse(&spec.render()).unwrap(), spec);

        // Fault-free sweeps keep the engine's quiescence default.
        let Command::Sweep(a) =
            parse_args(&args(&["sweep", "--task", "wakeup", "--runs", "2"])).unwrap()
        else {
            panic!("not sweep")
        };
        let spec = sweep_spec(&a).unwrap();
        assert_eq!(spec.instances[0].oracle, "spanning-tree");
        assert_eq!(spec.cells[0].mode, "wakeup");
        assert_eq!(spec.cells[0].quiescence_polls, None);
        assert_eq!(spec.cells[0].faults, FaultSpec::default());
        assert_eq!(spec.cells[0].scheduler, None);
    }

    #[test]
    fn usage_lists_everything() {
        let u = usage();
        for t in Task::NAMES {
            assert!(u.contains(t), "usage missing task {t}");
        }
        assert!(u.contains("sweep"), "usage missing sweep subcommand");
        assert!(u.contains("--threads"), "usage missing --threads");
        assert!(u.contains("--chunk"), "usage missing --chunk");
        assert!(u.contains("trace-diff"), "usage missing trace-diff");
        assert!(u.contains("--out"), "usage missing --out");
        assert!(u.contains("--journal"), "usage missing --journal");
        assert!(u.contains("--resume"), "usage missing --resume");
        assert!(u.contains("--max-retries"), "usage missing --max-retries");
        assert!(u.contains("--cell-timeout"), "usage missing --cell-timeout");
        assert!(
            u.contains("--allow-degraded"),
            "usage missing --allow-degraded"
        );
        for sub in ["spec", "serve", "work", "submit"] {
            assert!(u.contains(sub), "usage missing {sub} subcommand");
        }
        assert!(
            u.contains("--die-mid-shard"),
            "usage missing --die-mid-shard"
        );
        assert!(u.contains("--journal-dir"), "usage missing --journal-dir");
        assert!(u.contains("t20-crashes"), "usage missing spec names");
    }

    #[test]
    fn parse_trace_flags() {
        let cmd = parse_args(&args(&[
            "trace",
            "--task",
            "flood",
            "--family",
            "torus",
            "--n",
            "16",
            "--scheduler",
            "lifo",
            "--drop",
            "0.1",
            "--seed",
            "5",
            "--out",
            "t.jsonl",
        ]))
        .unwrap();
        let Command::Trace(a) = cmd else {
            panic!("not trace")
        };
        assert_eq!(a.common.task, Task::Flood);
        assert_eq!(a.common.family, Family::Torus);
        assert_eq!(a.common.n, 16);
        assert_eq!(a.common.scheduler, Some(SchedulerKind::Lifo));
        assert_eq!(a.drop, 0.1);
        assert_eq!(a.common.seed, 5);
        assert_eq!(a.out.as_deref(), Some("t.jsonl"));
    }

    #[test]
    fn trace_rejects_unsupported_input() {
        assert!(parse_args(&args(&["trace"])).is_err()); // no task
        assert!(parse_args(&args(&["trace", "--task", "gossip"])).is_err());
        assert!(parse_args(&args(&["trace", "--task", "flood", "--drop", "2.0"])).is_err());
        assert!(parse_args(&args(&["trace-diff", "only-one.jsonl"])).is_err());
        assert!(parse_args(&args(&["trace-diff", "a", "b", "c"])).is_err());
    }

    #[test]
    fn trace_streams_parseable_deterministic_jsonl() {
        let argv = [
            "trace",
            "--task",
            "broadcast",
            "--family",
            "hypercube",
            "--n",
            "16",
        ];
        let run = || {
            let cmd = parse_args(&args(&argv)).unwrap();
            run_command(&cmd).unwrap()
        };
        let jsonl = run();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(oraclesize_runtime::json::parse(line).is_some(), "{line}");
        }
        assert!(jsonl.contains("\"kind\": \"deliver\""), "{jsonl}");
        assert!(jsonl.contains("\"kind\": \"rollup\""), "{jsonl}");
        // Same arguments, same bytes: the artifact is reproducible.
        assert_eq!(jsonl, run());
    }

    /// The JSONL of CI's `trace --task broadcast --family hypercube --n 32`
    /// invocation is pinned across commits by its FNV-1a 64 digest.
    #[test]
    fn trace_jsonl_bytes_are_pinned() {
        let argv = [
            "trace",
            "--task",
            "broadcast",
            "--family",
            "hypercube",
            "--n",
            "32",
        ];
        let jsonl = run_command(&parse_args(&args(&argv)).unwrap()).unwrap();
        assert_eq!(
            oraclesize_runtime::journal::fnv1a64(jsonl.as_bytes()),
            0x76de_b4b7_a052_e591
        );
    }

    /// `trace` as it was before it lowered through a spec: the graph,
    /// instance and fault plan built by hand, kept as a reference.
    fn reference_trace(
        task: Task,
        scheduler: Option<SchedulerKind>,
        drop: f64,
        seed: u64,
    ) -> String {
        use oraclesize_sim::protocol::Protocol;
        use oraclesize_sim::{FaultPlan, Instance};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Family::Hypercube.build(16, &mut rng).into_shared();
        let (instance, protocol): (Arc<Instance>, Arc<dyn Protocol + Send + Sync>) = match task {
            Task::Broadcast => (Instance::build(g, 0, &LightTreeOracle), Arc::new(SchemeB)),
            Task::Wakeup => (
                Instance::build(g, 0, &SpanningTreeOracle::default()),
                Arc::new(TreeWakeup),
            ),
            _ => (Instance::build(g, 0, &EmptyOracle), Arc::new(FloodOnce)),
        };
        let mut config = if task == Task::Wakeup {
            SimConfig::wakeup()
        } else {
            SimConfig::broadcast()
        };
        if let Some(kind) = scheduler {
            config = config.with_scheduler(kind);
        }
        if drop > 0.0 {
            config = config
                .with_faults(FaultPlan::message_faults(seed, drop, 0.0, 0.0))
                .with_quiescence_polls(16);
        }
        let mut sink = JsonlSink::new(0);
        run_streamed(&instance, protocol.as_ref(), &config, &mut sink).unwrap();
        sink.into_string()
    }

    #[test]
    fn trace_lowering_matches_hand_built_reference() {
        let random = Some(SchedulerKind::Random { seed: 9 });
        let variants: [(&[&str], Option<SchedulerKind>, f64, u64); 4] = [
            (&[], None, 0.0, 2006),
            (&["--scheduler", "random", "--seed", "9"], random, 0.0, 9),
            (&["--seed", "9", "--scheduler", "random"], random, 0.0, 9),
            (
                &["--scheduler", "lifo", "--drop", "0.25"],
                Some(SchedulerKind::Lifo),
                0.25,
                2006,
            ),
        ];
        for task in ["broadcast", "wakeup", "flood"] {
            for (flags, scheduler, drop, seed) in variants {
                let mut argv = vec![
                    "trace",
                    "--task",
                    task,
                    "--family",
                    "hypercube",
                    "--n",
                    "16",
                ];
                argv.extend_from_slice(flags);
                let jsonl = run_command(&parse_args(&args(&argv)).unwrap()).unwrap();
                let task = Task::parse(task).unwrap();
                assert_eq!(
                    jsonl,
                    reference_trace(task, scheduler, drop, seed),
                    "{argv:?}"
                );
            }
        }
    }

    #[test]
    fn trace_out_writes_artifact_and_diff_reads_it() {
        let dir = std::env::temp_dir().join(format!("oraclesize-cli-trace-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // `--out` creates missing parent directories, like `submit --out`.
        let left = dir.join("nested/left.jsonl");
        let right = dir.join("right.jsonl");
        let write = |path: &std::path::Path, seed: &str| {
            let cmd = parse_args(&args(&[
                "trace",
                "--task",
                "wakeup",
                "--n",
                "12",
                "--seed",
                seed,
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            run_command(&cmd).unwrap()
        };
        let summary = write(&left, "3");
        assert!(summary.contains("wrote:"), "{summary}");
        assert!(summary.contains("all informed"), "{summary}");
        write(&right, "3");

        let diff = |l: &std::path::Path, r: &std::path::Path| {
            let cmd = parse_args(&args(&[
                "trace-diff",
                l.to_str().unwrap(),
                r.to_str().unwrap(),
            ]))
            .unwrap();
            run_command(&cmd).unwrap()
        };
        assert!(diff(&left, &right).contains("traces identical"));

        // A different seed gives a different schedule; the diff names the
        // first diverging line rather than erroring out.
        write(&right, "4");
        assert!(diff(&left, &right).contains("traces diverge at line"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
