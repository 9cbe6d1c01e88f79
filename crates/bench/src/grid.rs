//! Declarative experiment grids over the runtime pool.
//!
//! An experiment here is a *grid of cells*: each cell names one
//! `(instance, scheme, config)` combination, and the whole grid is handed
//! to [`oraclesize_runtime::run_supervised_batch`] in one call. The pool executes
//! cells on `--threads` workers while the grid keeps cell order — reports,
//! tables, and the emitted `BENCH_T*.json` artifacts are byte-identical at
//! any thread count (the runtime's determinism contract).

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use oraclesize_core::broadcast::{LightTreeOracle, SchemeB};
use oraclesize_core::oracle::EmptyOracle;
use oraclesize_core::robust::{RetryBroadcast, RobustTreeWakeup, RobustWakeupOracle};
use oraclesize_core::wakeup::{SpanningTreeOracle, TreeWakeup};
use oraclesize_graph::families::{self, Family};
use oraclesize_graph::gadgets::{self, subdivided_clique_size};
use oraclesize_graph::PortGraph;
use oraclesize_runtime::spec::{artifact_json, from_ppm, grid_json, to_u32};
use oraclesize_runtime::{
    run_supervised_batch, ChaosPlan, InstanceSlot, Json, Pool, RunReport, RunRequest, SchedStats,
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
    /// Lowers the grid a [`SweepSpec`] describes, building only what
    /// validation and costing need. Every check runs now, with the first
    /// error naming the offending spec path. Every cell becomes a
    /// [`RunRequest`] in spec order, whose cost hint is its graph's
    /// `nodes + edges`.
    ///
    /// What is built, and when:
    /// - **Now, in closed form:** the size of every family whose size
    ///   does not depend on its RNG ([`Family::size`], and
    ///   `subdivided-clique`). Nothing is built for these.
    /// - **Now, built:** the graphs of `random-connected`,
    ///   `random-sparse` and `random-dense`, whose exact edge count only
    ///   a build knows. Their advice is not built.
    /// - **Later, once:** each instance (graph plus oracle advice) is an
    ///   [`InstanceSlot`] shared by the cells that reference it, and
    ///   instances share graphs with identical construction parameters.
    ///   [`run_supervised_shard`](oraclesize_runtime::run_supervised_shard)
    ///   builds the slots of exactly the cells it is about to run, so a
    ///   resume from a complete journal builds nothing and a service
    ///   worker builds only its own shard's instances.
    ///
    /// This is the only construction path — the bench experiments, the
    /// `sweep` CLI, and the sweep service all funnel through it, which is
    /// what makes their artifacts comparable.
    ///
    /// # Errors
    ///
    /// Returns a first-error message naming the offending spec path for
    /// unknown family/oracle/scheme names, a size or edge probability a
    /// family cannot build, an out-of-range source node, or an invalid
    /// cell configuration.
    pub fn from_spec(spec: &SweepSpec) -> Result<CellGrid, String> {
        spec.validate()?;
        let mut graphs: Vec<(String, Arc<GraphSlot>)> = Vec::new();
        let mut instances = Vec::with_capacity(spec.instances.len());
        for (i, inst) in spec.instances.iter().enumerate() {
            let key = format!("{}/{}/{}/{:?}", inst.family, inst.n, inst.seed, inst.p_ppm);
            let graph = match graphs.iter().find(|(k, _)| *k == key) {
                Some((_, g)) => Arc::clone(g),
                None => {
                    let g = Arc::new(
                        GraphSlot::new(&inst.family, inst.n as usize, inst.seed, inst.p_ppm)
                            .map_err(|e| format!("instances[{i}].{e}"))?,
                    );
                    graphs.push((key, Arc::clone(&g)));
                    g
                }
            };
            if inst.source >= graph.nodes as u64 {
                return Err(format!(
                    "instances[{i}].source: node {} out of range ({} nodes)",
                    inst.source, graph.nodes
                ));
            }
            let advise =
                instance_builder(&inst.oracle).map_err(|e| format!("instances[{i}].{e}"))?;
            let cost = graph.nodes.saturating_add(graph.edges) as u64;
            let source = inst.source as usize;
            let slot = InstanceSlot::lazy(move || advise(graph.graph(), source));
            instances.push((slot, cost));
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
            let (slot, cost) = &instances[cell.instance as usize];
            grid.labels.push(cell.label.clone());
            grid.costs.push(*cost);
            grid.requests
                .push(RunRequest::in_slot(Arc::clone(slot), protocol, config));
        }
        Ok(grid)
    }

    /// The per-cell cost hints, in cell order.
    pub fn costs(&self) -> &[u64] {
        &self.costs
    }

    /// The cell requests, in cell order. An instance is built the first
    /// time one of its cells is run or asked for it
    /// ([`RunRequest::instance`]).
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

/// How a spec family name builds its graph, checked against the spec's
/// size and edge probability. Beyond [`Family::ALL`] two spec-only names
/// exist: `"random-connected"` (takes `p_ppm`) and `"subdivided-clique"`
/// (every edge of `K*_n` subdivided, no RNG) — the constructions T10/T20
/// and the SCALE curve sweep.
#[derive(Clone, Copy)]
enum Recipe {
    Family(Family),
    RandomConnected(f64),
    SubdividedClique,
}

impl Recipe {
    /// The recipe for `family` at size `n`. A size or edge probability
    /// the family is not defined for is an error, not a panic.
    fn parse(family: &str, n: usize, p_ppm: Option<u64>) -> Result<Recipe, String> {
        let min_n = |k: usize| {
            if n < k {
                Err(format!("n: family {family:?} needs n >= {k}, got {n}"))
            } else {
                Ok(())
            }
        };
        if let Some(&fam) = Family::ALL.iter().find(|f| f.name() == family) {
            min_n(Family::MIN_NODES)?;
            return Ok(Recipe::Family(fam));
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
                Ok(Recipe::RandomConnected(from_ppm(p)))
            }
            "subdivided-clique" => {
                min_n(2)?;
                Ok(Recipe::SubdividedClique)
            }
            other => Err(format!("family: unknown family {other:?}")),
        }
    }

    /// The built graph's `(nodes, edges)` in closed form, or `None` when
    /// the RNG decides the edge count.
    fn size(self, n: usize) -> Option<(usize, usize)> {
        match self {
            Recipe::Family(fam) => fam.size(n),
            Recipe::RandomConnected(_) => None,
            Recipe::SubdividedClique => Some(subdivided_clique_size(n)),
        }
    }

    fn build(self, n: usize, seed: u64) -> PortGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Recipe::Family(fam) => fam.build(n, &mut rng),
            Recipe::RandomConnected(p) => families::random_connected(n, p, &mut rng),
            Recipe::SubdividedClique => gadgets::subdivided_clique(n),
        }
    }
}

/// One spec graph, shared by every instance with its construction
/// parameters and built at most once. Its size is known up front: in
/// closed form, or by building the graph now when the RNG decides it.
struct GraphSlot {
    recipe: Recipe,
    n: usize,
    seed: u64,
    nodes: usize,
    edges: usize,
    graph: OnceLock<Arc<PortGraph>>,
}

impl GraphSlot {
    fn new(family: &str, n: usize, seed: u64, p_ppm: Option<u64>) -> Result<GraphSlot, String> {
        let recipe = Recipe::parse(family, n, p_ppm)?;
        let mut slot = GraphSlot {
            recipe,
            n,
            seed,
            nodes: 0,
            edges: 0,
            graph: OnceLock::new(),
        };
        let (nodes, edges) = recipe.size(n).unwrap_or_else(|| {
            let g = slot.graph();
            (g.num_nodes(), g.num_edges())
        });
        (slot.nodes, slot.edges) = (nodes, edges);
        Ok(slot)
    }

    fn graph(&self) -> Arc<PortGraph> {
        Arc::clone(
            self.graph
                .get_or_init(|| Arc::new(self.recipe.build(self.n, self.seed))),
        )
    }
}

/// How a named oracle labels a graph into a shared instance.
type Advise = fn(Arc<PortGraph>, usize) -> Arc<Instance>;

/// The named oracle's instance builder; nothing runs until it is called.
fn instance_builder(oracle: &str) -> Result<Advise, String> {
    let advise: Advise = match oracle {
        "empty" => |g, source| Instance::build(g, source, &EmptyOracle),
        "spanning-tree" => |g, source| Instance::build(g, source, &SpanningTreeOracle::default()),
        "light-tree" => |g, source| Instance::build(g, source, &LightTreeOracle),
        "robust-wakeup" => |g, source| Instance::build(g, source, &RobustWakeupOracle::default()),
        other => return Err(format!("oracle: unknown oracle {other:?}")),
    };
    Ok(advise)
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
    use oraclesize_runtime::{run_supervised_shard, CellSpec, CellStatus, FaultSpec, InstanceSpec};

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
        let cases: [(Mutate, &str); 11] = [
            (
                |s| instance(s, "path", 3, None),
                "instances[0].n: family \"path\" needs n >= 4, got 3",
            ),
            // Checked without building anything (see `huge_instance`).
            (
                |s| {
                    huge_instance(s);
                    s.instances[0].source = 500_000_500_000;
                },
                "instances[0].source: node 500000500000 out of range (500000500000 nodes)",
            ),
            (
                |s| {
                    huge_instance(s);
                    s.instances[0].oracle = "crystal-ball".to_string();
                },
                "instances[0].oracle: unknown oracle \"crystal-ball\"",
            ),
            (
                |s| {
                    huge_instance(s);
                    s.cells[3].scheme = "telepathy".to_string();
                },
                "cells[3].scheme: unknown scheme \"telepathy\"",
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

    /// A subdivided `K_1_000_000` has 500_000_500_000 nodes: only the
    /// closed form can size it, a build would never finish.
    fn huge_instance(spec: &mut SweepSpec) {
        spec.instances[0].family = "subdivided-clique".to_string();
        spec.instances[0].n = 1_000_000;
    }

    #[test]
    fn from_spec_lowers_and_costs_without_building() {
        let mut spec = tiny_spec();
        huge_instance(&mut spec);
        let grid = CellGrid::from_spec(&spec).expect("valid spec lowers");
        assert!(grid.requests().iter().all(|r| !r.is_built()));
        assert_eq!(grid.costs(), [500_000_500_000 + 999_999_000_000; 4]);
        // Past usize, the size saturates rather than wrapping.
        spec.instances[0].n = u64::MAX;
        let grid = CellGrid::from_spec(&spec).expect("valid spec lowers");
        assert_eq!(grid.costs(), [u64::MAX; 4]);
        assert_eq!(
            oraclesize_runtime::ChunkPlan::from_costs(grid.costs(), 2).jobs(),
            4
        );
    }

    #[test]
    fn subdivided_clique_closed_form_matches_the_built_graph() {
        for b in 2..40 {
            let g = Recipe::SubdividedClique.build(b, 0);
            let (nodes, edges) = subdivided_clique_size(b);
            assert_eq!((g.num_nodes(), g.num_edges()), (nodes, edges), "b={b}");
            assert_eq!(Recipe::SubdividedClique.size(b), Some((nodes, edges)));
        }
        let random = Recipe::parse("random-connected", 8, Some(500_000)).unwrap();
        assert_eq!(random.size(8), None);
    }

    /// Cost hints are `nodes + edges` of the fully built instances, so
    /// chunk and shard plans are those of an eager build.
    #[test]
    fn costs_equal_built_instance_sizes() {
        use crate::experiments::{
            scale_spec, t10_spec, t20_corruption_spec, t20_crashes_spec, t20_drops_spec,
        };
        for spec in [
            scale_spec(false),
            t10_spec(),
            t20_corruption_spec(),
            t20_drops_spec(),
            t20_crashes_spec(),
        ] {
            let grid = CellGrid::from_spec(&spec).expect("committed spec lowers");
            let built: Vec<u64> = grid
                .requests()
                .iter()
                .map(|r| (r.instance().graph.num_nodes() + r.instance().graph.num_edges()) as u64)
                .collect();
            assert_eq!(grid.costs(), built, "{}", spec.name);
        }
    }

    /// Three instances over distinct graphs; cell `i` runs instance
    /// `i / 2`, so every instance is referenced by two adjacent cells.
    fn three_instance_spec() -> SweepSpec {
        let mut spec = tiny_spec();
        spec.instances[0].n = 5;
        for n in [7, 9] {
            spec.instances.push(InstanceSpec {
                n,
                ..spec.instances[0].clone()
            });
        }
        let cell = spec.cells[0].clone();
        spec.cells = (0..6u64)
            .map(|i| CellSpec {
                label: format!("cell-{i}"),
                instance: i / 2,
                seed: i,
                ..cell.clone()
            })
            .collect();
        spec
    }

    fn built(grid: &CellGrid) -> Vec<bool> {
        grid.requests().iter().map(RunRequest::is_built).collect()
    }

    #[test]
    fn a_resume_from_a_complete_journal_builds_nothing() {
        let dir = std::env::temp_dir().join(format!("oraclesize-grid-lazy-{}", std::process::id()));
        let spec = three_instance_spec();
        let opts = ExpOptions {
            journal_dir: Some(dir.clone()),
            threads: 2,
            ..Default::default()
        };
        let first = CellGrid::from_spec(&spec).unwrap();
        let baseline = run(&first, &opts);
        assert_eq!(built(&first), [true; 6]);

        let fresh = CellGrid::from_spec(&spec).unwrap();
        let resumed = fresh
            .dispatch(
                &ExpOptions {
                    resume: true,
                    ..opts
                },
                "t0",
            )
            .expect("not interrupted");
        assert!(resumed
            .cells
            .iter()
            .all(|c| c.status == CellStatus::Resumed));
        assert_eq!(resumed.reports(), baseline);
        assert_eq!(built(&fresh), [false; 6]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_shard_builds_exactly_the_instances_its_cells_reference() {
        let spec = three_instance_spec();
        let pool = Pool::new(2);
        // Cells 1..3 reference instances 0 and 1; cells 0 and 3 share
        // those slots, cells 4 and 5 (instance 2) stay unbuilt.
        let grid = CellGrid::from_spec(&spec).unwrap();
        let opts = SweepOptions {
            costs: Some(grid.costs()[1..3].to_vec()),
            ..Default::default()
        };
        let run = run_supervised_shard(&pool, &grid.requests()[1..3], 1, 6, &opts);
        assert!(!run.interrupted);
        assert_eq!(built(&grid), [true, true, true, true, false, false]);
    }

    #[test]
    fn a_cell_past_the_chaos_kill_point_is_not_built() {
        let grid = CellGrid::from_spec(&three_instance_spec()).unwrap();
        let err = grid
            .dispatch(
                &ExpOptions {
                    chaos: ChaosPlan::new().die_before(4),
                    ..Default::default()
                },
                "t0",
            )
            .map(|_| ())
            .unwrap_err();
        assert!(err.starts_with("t0 interrupted mid-sweep"), "{err}");
        assert_eq!(built(&grid), [true, true, true, true, false, false]);
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
            &grid.requests()[0].instance().graph,
            &grid.requests()[1].instance().graph
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
