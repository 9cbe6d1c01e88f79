//! Declarative experiment grids over the runtime pool.
//!
//! An experiment here is a *grid of cells*: each cell names one
//! `(instance, scheme, config)` combination, and the whole grid is handed
//! to [`oraclesize_runtime::run_supervised_batch`] in one call. The pool executes
//! cells on `--threads` workers while the grid keeps cell order — reports,
//! tables, and the emitted `BENCH_T*.json` artifacts are byte-identical at
//! any thread count (the runtime's determinism contract).

use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use oraclesize_core::broadcast::{LightTreeOracle, SchemeB};
use oraclesize_core::oracle::EmptyOracle;
use oraclesize_core::robust::{RetryBroadcast, RobustTreeWakeup, RobustWakeupOracle};
use oraclesize_core::wakeup::{SpanningTreeOracle, TreeWakeup};
use oraclesize_graph::families::{self, Family};
use oraclesize_graph::{gadgets, PortGraph};
use oraclesize_runtime::spec::{artifact_json, from_ppm, grid_json, to_u32};
use oraclesize_runtime::{
    run_supervised_batch, ChaosPlan, Json, Pool, RunReport, RunRequest, SchedStats,
    SuperviseConfig, SweepOptions, SweepRun, SweepSpec,
};
use oraclesize_sim::protocol::{FloodOnce, Protocol};
use oraclesize_sim::Instance;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Protocol instances built so far while lowering a spec, keyed by
/// `(scheme, retries)` so identical cells share one `Arc`.
type ProtocolCache = Vec<((String, Option<u64>), Arc<dyn Protocol + Send + Sync>)>;

/// Options shared by every experiment invocation.
#[derive(Debug, Clone, Default)]
pub struct ExpOptions {
    /// Run the bigger (slower) sweeps.
    pub large: bool,
    /// Worker threads for grid dispatch (`0`/`1` ⇒ serial).
    pub threads: usize,
    /// Where to write `BENCH_<ID>.json` artifacts; `None` disables them.
    pub json_dir: Option<PathBuf>,
    /// Where checkpoint journals live (`<dir>/<tag>.journal`, one per
    /// grid); `None` disables checkpointing.
    pub journal_dir: Option<PathBuf>,
    /// Resume from existing journals instead of starting fresh.
    pub resume: bool,
    /// Retry budget for failed cells (see
    /// [`SuperviseConfig::max_retries`]).
    pub max_retries: u32,
    /// Per-cell watchdog step budget (see
    /// [`SuperviseConfig::cell_timeout`]).
    pub cell_timeout: Option<u64>,
    /// Failure injection for chaos drills; inert outside tests and the
    /// chaos-smoke harness.
    pub chaos: ChaosPlan,
    /// Fixed scheduler sub-task size (the `--chunk` override); `None`
    /// sizes chunks from the grid's cost hints. Granularity only — never
    /// results.
    pub chunk: Option<usize>,
    /// Merged scheduling telemetry for every grid dispatched under these
    /// options. Shared behind an `Arc` so the experiment driver can read
    /// the tally after `run_experiment` returns — the report string
    /// itself must stay thread-count-invariant, so the stats travel out
    /// of band and only binaries render them (as footers).
    pub stats: Arc<Mutex<SchedStats>>,
}

impl ExpOptions {
    /// A snapshot of the scheduling telemetry accumulated so far.
    pub fn sched_stats(&self) -> SchedStats {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A labeled list of cells, built declaratively and dispatched in one
/// batch.
#[derive(Default)]
pub struct CellGrid {
    labels: Vec<String>,
    requests: Vec<RunRequest>,
    /// Per-cell scheduling cost hints, kept parallel to `requests` — the
    /// chunk planner batches cheap cells and isolates expensive ones.
    costs: Vec<u64>,
}

impl CellGrid {
    /// Appends one cell; its scheduling cost hint comes from the
    /// request's instance size ([`RunRequest::cost_hint`]).
    fn add_cell(&mut self, label: String, request: RunRequest) {
        self.labels.push(label);
        self.costs.push(request.cost_hint());
        self.requests.push(request);
    }

    /// Materializes the grid a [`SweepSpec`] describes: graphs are built
    /// (and `Arc`-shared between instances with identical construction
    /// parameters), oracles label them, and every cell becomes a
    /// [`RunRequest`] in spec order. This is the only construction path —
    /// the bench experiments, the `sweep` CLI, and the sweep service all
    /// funnel through it, which is what makes their artifacts comparable.
    ///
    /// # Errors
    ///
    /// Returns a first-error message naming the offending spec path for
    /// unknown family/oracle/scheme names, an out-of-range source node,
    /// or an invalid cell configuration.
    pub fn from_spec(spec: &SweepSpec) -> Result<CellGrid, String> {
        spec.validate()?;
        let mut graphs: Vec<(String, Arc<PortGraph>)> = Vec::new();
        let mut instances = Vec::with_capacity(spec.instances.len());
        for (i, inst) in spec.instances.iter().enumerate() {
            let key = format!("{}/{}/{}/{:?}", inst.family, inst.n, inst.seed, inst.p_ppm);
            let g = match graphs.iter().find(|(k, _)| *k == key) {
                Some((_, g)) => Arc::clone(g),
                None => {
                    let g = Arc::new(
                        build_family(&inst.family, inst.n as usize, inst.seed, inst.p_ppm)
                            .map_err(|e| format!("instances[{i}].{e}"))?,
                    );
                    graphs.push((key, Arc::clone(&g)));
                    g
                }
            };
            if inst.source >= g.num_nodes() as u64 {
                return Err(format!(
                    "instances[{i}].source: node {} out of range ({} nodes)",
                    inst.source,
                    g.num_nodes()
                ));
            }
            instances.push(
                build_instance(g, inst.source as usize, &inst.oracle)
                    .map_err(|e| format!("instances[{i}].{e}"))?,
            );
        }
        let mut protocols: ProtocolCache = Vec::new();
        let mut grid = CellGrid::default();
        for (i, cell) in spec.cells.iter().enumerate() {
            let pkey = (cell.scheme.clone(), cell.retries);
            let protocol = match protocols.iter().find(|(k, _)| *k == pkey) {
                Some((_, p)) => Arc::clone(p),
                None => {
                    let p = build_protocol(&cell.scheme, cell.retries)
                        .map_err(|e| format!("cells[{i}].{e}"))?;
                    protocols.push((pkey, Arc::clone(&p)));
                    p
                }
            };
            let config = cell.sim_config().map_err(|e| format!("cells[{i}]: {e}"))?;
            let instance = Arc::clone(&instances[cell.instance as usize]);
            grid.add_cell(
                cell.label.clone(),
                RunRequest::new(instance, protocol, config),
            );
        }
        Ok(grid)
    }

    /// The per-cell cost hints, in cell order.
    pub fn costs(&self) -> &[u64] {
        &self.costs
    }

    /// The cell requests, in cell order.
    pub fn requests(&self) -> &[RunRequest] {
        &self.requests
    }

    /// Number of cells added so far.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when no cells were added.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Dispatches every cell across the options' pool under the full
    /// failure model, reports in cell order: with a `journal_dir`, cells
    /// already checkpointed in `<journal_dir>/<tag>.journal` are skipped
    /// on resume, and every newly completed cell is checkpointed when the
    /// journal's in-order cursor reaches it.
    ///
    /// # Errors
    ///
    /// A sweep killed mid-flight (a chaos drill) is an error naming
    /// `tag`: some cells never ran, so no artifact may be published.
    pub fn dispatch(&self, opts: &ExpOptions, tag: &str) -> Result<SweepRun, String> {
        let sweep_opts = SweepOptions {
            supervise: SuperviseConfig {
                max_retries: opts.max_retries,
                cell_timeout: opts.cell_timeout,
            },
            journal: opts
                .journal_dir
                .as_ref()
                .map(|dir| dir.join(format!("{tag}.journal"))),
            resume: opts.resume,
            seeds: None,
            chaos: opts.chaos.clone(),
            chunk: opts.chunk,
            costs: Some(self.costs.clone()),
        };
        let run = run_supervised_batch(&Pool::new(opts.threads), &self.requests, &sweep_opts);
        opts.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(&run.sched);
        if run.interrupted {
            return Err(format!(
                "{tag} interrupted mid-sweep; resume from the journal to finish ({})",
                run.summary()
            ));
        }
        Ok(run)
    }

    /// Renders this grid's reports as a deterministic JSON fragment:
    /// one labeled record per cell plus an aggregate, all folded in cell
    /// order. Delegates to [`grid_json`], the single renderer shared with
    /// the sweep service's merged artifacts.
    pub fn to_json(&self, reports: &[RunReport]) -> Json {
        grid_json(&self.labels, reports)
    }
}

/// Builds a named graph family. Beyond [`Family::ALL`] two spec-only
/// names exist: `"random-connected"` (takes `p_ppm`) and
/// `"subdivided-clique"` (every edge of `K*_n` subdivided, no RNG) — the
/// constructions T10/T20 and the SCALE curve sweep. A size or edge
/// probability the family is not defined for is an error, not a panic.
fn build_family(
    family: &str,
    n: usize,
    seed: u64,
    p_ppm: Option<u64>,
) -> Result<PortGraph, String> {
    let min_n = |k: usize| {
        if n < k {
            Err(format!("n: family {family:?} needs n >= {k}, got {n}"))
        } else {
            Ok(())
        }
    };
    if let Some(fam) = Family::ALL.iter().find(|f| f.name() == family) {
        min_n(Family::MIN_NODES)?;
        return Ok(fam.build(n, &mut StdRng::seed_from_u64(seed)));
    }
    match family {
        "random-connected" => {
            let p = p_ppm
                .ok_or_else(|| "p_ppm: required by family \"random-connected\"".to_string())?;
            if p > 1_000_000 {
                return Err(format!(
                    "p_ppm: family {family:?} needs p_ppm <= 1000000, got {p}"
                ));
            }
            min_n(1)?;
            Ok(families::random_connected(
                n,
                from_ppm(p),
                &mut StdRng::seed_from_u64(seed),
            ))
        }
        "subdivided-clique" => {
            min_n(2)?;
            let base = families::complete_rotational(n);
            let edges: Vec<_> = base.edges().collect();
            Ok(gadgets::subdivide_edges(&base, &edges))
        }
        other => Err(format!("family: unknown family {other:?}")),
    }
}

/// Labels a graph with a named oracle and packages the shared instance.
fn build_instance(g: Arc<PortGraph>, source: usize, oracle: &str) -> Result<Arc<Instance>, String> {
    Ok(match oracle {
        "empty" => Instance::build(g, source, &EmptyOracle),
        "spanning-tree" => Instance::build(g, source, &SpanningTreeOracle::default()),
        "light-tree" => Instance::build(g, source, &LightTreeOracle),
        "robust-wakeup" => Instance::build(g, source, &RobustWakeupOracle::default()),
        other => return Err(format!("oracle: unknown oracle {other:?}")),
    })
}

/// Instantiates a named scheme.
fn build_protocol(
    scheme: &str,
    retries: Option<u64>,
) -> Result<Arc<dyn Protocol + Send + Sync>, String> {
    Ok(match scheme {
        "tree-wakeup" => Arc::new(TreeWakeup),
        "scheme-b" => Arc::new(SchemeB),
        "flood" => Arc::new(FloodOnce),
        "robust-tree-wakeup" => Arc::new(RobustTreeWakeup),
        "retry-broadcast" => {
            let retries = retries
                .ok_or_else(|| "retries: required by scheme \"retry-broadcast\"".to_string())?;
            Arc::new(RetryBroadcast {
                retries: to_u32(retries, "retries")?,
            })
        }
        other => return Err(format!("scheme: unknown scheme {other:?}")),
    })
}

/// Writes `BENCH_<ID>.json` into the options' `json_dir` (no-op when the
/// directory is unset). The payload deliberately excludes thread count,
/// timing, and anything else that could differ between identical runs.
///
/// Returns the path written, if any.
///
/// # Errors
///
/// Returns a rendered message when the directory or file cannot be
/// written — artifact emission must never panic a finished sweep away.
pub fn emit_json(opts: &ExpOptions, id: &str, body: Json) -> Result<Option<PathBuf>, String> {
    let Some(dir) = opts.json_dir.as_deref() else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let json = artifact_json(id, crate::harness::MASTER_SEED, body);
    let path = dir.join(format!("BENCH_{}.json", id.to_uppercase()));
    std::fs::write(&path, format!("{}\n", json.render()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraclesize_runtime::{CellSpec, FaultSpec, InstanceSpec};

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("t0", 2006);
        spec.instances.push(InstanceSpec {
            family: "cycle".to_string(),
            n: 6,
            seed: 0,
            p_ppm: None,
            source: 0,
            oracle: "empty".to_string(),
        });
        for i in 0..4u64 {
            spec.cells.push(CellSpec {
                label: format!("cell-{i}"),
                instance: 0,
                scheme: "flood".to_string(),
                retries: None,
                mode: "broadcast".to_string(),
                scheduler: None,
                anonymous: false,
                max_message_bits: None,
                quiescence_polls: None,
                seed: i,
                faults: FaultSpec::default(),
            });
        }
        spec
    }

    fn tiny_grid() -> CellGrid {
        CellGrid::from_spec(&tiny_spec()).expect("tiny spec materializes")
    }

    /// Dispatches `grid` under `opts` and returns its reports.
    fn run(grid: &CellGrid, opts: &ExpOptions) -> Vec<RunReport> {
        grid.dispatch(opts, "t0")
            .expect("not interrupted")
            .reports()
    }

    #[test]
    fn from_spec_names_bad_entries() {
        let mut spec = tiny_spec();
        spec.instances[0].family = "klein-bottle".to_string();
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(err, "instances[0].family: unknown family \"klein-bottle\"");

        let mut spec = tiny_spec();
        spec.instances[0].source = 6;
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(err, "instances[0].source: node 6 out of range (6 nodes)");

        let mut spec = tiny_spec();
        spec.cells[2].scheme = "telepathy".to_string();
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(err, "cells[2].scheme: unknown scheme \"telepathy\"");

        let mut spec = tiny_spec();
        spec.cells[0].scheme = "retry-broadcast".to_string();
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            "cells[0].retries: required by scheme \"retry-broadcast\""
        );
    }

    #[test]
    fn from_spec_rejects_sizes_and_probabilities_a_family_cannot_build() {
        fn instance(spec: &mut SweepSpec, family: &str, n: u64, p_ppm: Option<u64>) {
            spec.instances[0].family = family.to_string();
            spec.instances[0].n = n;
            spec.instances[0].p_ppm = p_ppm;
        }
        type Mutate = fn(&mut SweepSpec);
        let cases: [(Mutate, &str); 8] = [
            (
                |s| instance(s, "path", 3, None),
                "instances[0].n: family \"path\" needs n >= 4, got 3",
            ),
            (
                |s| instance(s, "subdivided-clique", 1, None),
                "instances[0].n: family \"subdivided-clique\" needs n >= 2, got 1",
            ),
            (
                |s| instance(s, "random-connected", 0, Some(500_000)),
                "instances[0].n: family \"random-connected\" needs n >= 1, got 0",
            ),
            (
                |s| instance(s, "random-connected", 8, Some(2_000_000)),
                "instances[0].p_ppm: family \"random-connected\" needs p_ppm <= 1000000, got 2000000",
            ),
            // Counts held as u32 are rejected, not truncated: 2^32 polls
            // would otherwise run as 0, and 2^32 + 1 as 1.
            (
                |s| s.cells[1].quiescence_polls = Some(1 << 32),
                "cells[1].quiescence_polls: 4294967296 exceeds 4294967295",
            ),
            (
                |s| s.cells[0].quiescence_polls = Some((1 << 32) + 1),
                "cells[0].quiescence_polls: 4294967297 exceeds 4294967295",
            ),
            (
                |s| {
                    s.cells[0].scheme = "retry-broadcast".to_string();
                    s.cells[0].retries = Some(1 << 32);
                },
                "cells[0].retries: 4294967296 exceeds 4294967295",
            ),
            (
                |s| s.knobs.max_retries = 1 << 32,
                "knobs.max_retries: 4294967296 exceeds 4294967295",
            ),
        ];
        for (mutate, want) in cases {
            let mut spec = tiny_spec();
            mutate(&mut spec);
            let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
            assert_eq!(err, want);
        }
    }

    #[test]
    fn from_spec_shares_graphs_between_instances() {
        let mut spec = tiny_spec();
        // Same construction parameters, different oracle: one graph build.
        spec.instances.push(InstanceSpec {
            oracle: "spanning-tree".to_string(),
            ..spec.instances[0].clone()
        });
        spec.cells[1].instance = 1;
        spec.cells[1].scheme = "tree-wakeup".to_string();
        spec.cells[1].mode = "wakeup".to_string();
        let grid = CellGrid::from_spec(&spec).expect("spec materializes");
        assert!(Arc::ptr_eq(
            &grid.requests()[0].instance.graph,
            &grid.requests()[1].instance.graph
        ));
    }

    #[test]
    fn grid_json_is_thread_count_invariant() {
        let grid = tiny_grid();
        let render = |threads| {
            let opts = ExpOptions {
                threads,
                ..Default::default()
            };
            grid.to_json(&run(&grid, &opts)).render()
        };
        let serial = render(1);
        assert_eq!(serial, render(4));
        assert!(oraclesize_runtime::json::parse(&serial).is_some());
    }

    #[test]
    fn emit_json_respects_unset_dir() {
        let grid = tiny_grid();
        let json = grid.to_json(&run(&grid, &ExpOptions::default()));
        assert_eq!(emit_json(&ExpOptions::default(), "t0", json), Ok(None));
    }

    #[test]
    fn emit_json_writes_parseable_file() {
        let dir = std::env::temp_dir().join("oraclesize-grid-test");
        let opts = ExpOptions {
            json_dir: Some(dir.clone()),
            ..Default::default()
        };
        let grid = tiny_grid();
        let json = grid.to_json(&run(&grid, &opts));
        let path = emit_json(&opts, "t0", json).expect("emit").expect("path");
        assert_eq!(path.file_name().unwrap(), "BENCH_T0.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(oraclesize_runtime::json::parse(&body).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn emit_json_reports_unwritable_dirs_as_errors() {
        let opts = ExpOptions {
            json_dir: Some(PathBuf::from("/proc/definitely/not/writable")),
            ..Default::default()
        };
        let err = emit_json(&opts, "t0", Json::obj()).unwrap_err();
        assert!(err.contains("/proc/definitely/not/writable"), "{err}");
    }

    #[test]
    fn supervised_dispatch_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join(format!("oraclesize-grid-sup-{}", std::process::id()));
        let grid = tiny_grid();
        let baseline = run(&grid, &ExpOptions::default());
        let killed = grid.dispatch(
            &ExpOptions {
                journal_dir: Some(dir.clone()),
                chaos: ChaosPlan::new().die_before(2),
                ..Default::default()
            },
            "t0",
        );
        let err = killed.map(|_| ()).unwrap_err();
        assert!(err.starts_with("t0 interrupted mid-sweep"), "{err}");
        let resumed = grid.dispatch(
            &ExpOptions {
                journal_dir: Some(dir.clone()),
                resume: true,
                ..Default::default()
            },
            "t0",
        );
        assert_eq!(resumed.unwrap().reports(), baseline);
        std::fs::remove_dir_all(&dir).ok();
    }
}
