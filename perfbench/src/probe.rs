//! Per-layer probes of a traced run: each times one public call into one
//! layer, outside any artifact operation, on the workload's own inputs.

use std::path::Path;
use std::sync::Arc;

use oraclesize_bench::grid::CellGrid;
use oraclesize_core::construction::{BfsTreeOracle, ZeroMessageTree};
use oraclesize_core::oracle::EmptyOracle;
use oraclesize_core::wakeup::{SpanningTreeOracle, TreeWakeup};
use oraclesize_graph::{families, gadgets, PortGraph};
use oraclesize_runtime::spec::from_ppm;
use oraclesize_runtime::{
    journal, run_cell_report, run_supervised_batch, InstanceSpec, Pool, SweepSpec,
};
use oraclesize_service::render_artifact;
use oraclesize_sim::protocol::FloodOnce;
use oraclesize_sim::{Instance, Oracle, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::Tally;
use crate::pipeline::{clean, options};
use crate::spans::{timed, Tracer};
use crate::stats::Series;

/// Builds an instance's graph the way `CellGrid::from_spec` does for the
/// two families the benchmark uses.
fn build_graph(inst: &InstanceSpec) -> Result<PortGraph, String> {
    match inst.family.as_str() {
        "random-connected" => {
            let p = inst.p_ppm.ok_or("random-connected needs p_ppm")?;
            Ok(families::random_connected(
                inst.n as usize,
                from_ppm(p),
                &mut StdRng::seed_from_u64(inst.seed),
            ))
        }
        "subdivided-clique" => {
            let base = families::complete_rotational(inst.n as usize);
            let edges: Vec<_> = base.edges().collect();
            Ok(gadgets::subdivide_edges(&base, &edges))
        }
        other => Err(format!("no probe for family {other:?}")),
    }
}

/// Graph build, oracle advice and engine probes on one instance, `reps`
/// times: `graph.build_s`, `core.advise_s`, `sim.setup_s` (a zero-message
/// run, so setup only), `sim.run_s.tree_wakeup`, `sim.run_s.flood` and
/// `sim.ns_per_message` (flood minus setup, per message). The
/// tree-wakeup run is checked against Theorem 2.1.
///
/// # Errors
///
/// Returns a message for a family the probe cannot build or an engine
/// error.
pub fn instance_layers(
    tr: &mut Tracer,
    op: u64,
    inst: &InstanceSpec,
    reps: usize,
    tally: &mut Tally,
) -> Result<Vec<Series>, String> {
    let mut build = Series::new("graph.build_s", "s");
    let mut advise = Series::new("core.advise_s", "s");
    let mut setup = Series::new("sim.setup_s", "s");
    let mut tree = Series::new("sim.run_s.tree_wakeup", "s");
    let mut flood = Series::new("sim.run_s.flood", "s");
    let mut per_msg = Series::new("sim.ns_per_message", "ns");
    let src = inst.source as usize;
    for _ in 0..reps {
        let (g, t) = timed(|| tr.span("graph.build", op, |_| build_graph(inst)));
        build.push(t);
        let g = Arc::new(g?);
        let n = g.num_nodes() as u64;
        let (advice, t) = timed(|| {
            tr.span("core.advise", op, |_| {
                SpanningTreeOracle::default().advise(&g, src)
            })
        });
        advise.push(t);
        let spanning = Instance::with_advice(Arc::clone(&g), src, advice);
        let bfs = tr.span("core.advise_bfs", op, |_| {
            Instance::build(Arc::clone(&g), src, &BfsTreeOracle)
        });
        let empty = Instance::build(Arc::clone(&g), src, &EmptyOracle);

        let (out, t_setup) = timed(|| {
            tr.span("sim.setup", op, |_| {
                oraclesize_sim::run(&bfs, &ZeroMessageTree, &SimConfig::default())
            })
        });
        out.map_err(|e| format!("zero-message run: {e}"))?;
        setup.push(t_setup);
        drop(bfs);

        let (out, t) = timed(|| {
            tr.span("sim.run.tree_wakeup", op, |_| {
                oraclesize_sim::run(&spanning, &TreeWakeup, &SimConfig::wakeup())
            })
        });
        let messages = out
            .map_err(|e| format!("tree-wakeup run: {e}"))?
            .metrics
            .messages;
        tree.push(t);
        tally.record(if messages == n - 1 {
            Ok(())
        } else {
            Err(format!(
                "probe tree-wakeup sent {messages} messages on n = {n}"
            ))
        });
        drop(spanning);

        let (out, t) = timed(|| {
            tr.span("sim.run.flood", op, |_| {
                oraclesize_sim::run(&empty, &FloodOnce, &SimConfig::wakeup())
            })
        });
        let messages = out.map_err(|e| format!("flood run: {e}"))?.metrics.messages;
        flood.push(t);
        per_msg.push((t - t_setup) * 1e9 / messages.max(1) as f64);
    }
    Ok(vec![build, advise, setup, tree, flood, per_msg])
}

/// Runtime-layer probes on a spec's grid, `reps` times:
/// `bench.from_spec_s`, `runtime.cell_sum_s` (serial `run_cell_report`
/// over every cell), `runtime.dispatch_overhead_s` (a 1-thread batch
/// minus that sum), `runtime.journal_s` (journaled minus unjournaled
/// batch at `pool`'s threads), `runtime.journal_load_s`,
/// `runtime.render_s` and the scheduler's
/// `runtime.chunks`/`steals`/`contended`. Every batch's reports are
/// checked against the serial ones.
///
/// # Errors
///
/// Returns the grid lowering error or a journal failure.
pub fn runtime_layers(
    tr: &mut Tracer,
    op: u64,
    spec: &SweepSpec,
    pool: &Pool,
    journal_path: &Path,
    reps: usize,
    tally: &mut Tally,
) -> Result<Vec<Series>, String> {
    let mut from_spec = Series::new("bench.from_spec_s", "s");
    let mut cell_sum = Series::new("runtime.cell_sum_s", "s");
    let mut dispatch = Series::new("runtime.dispatch_overhead_s", "s");
    let mut journal_s = Series::new("runtime.journal_s", "s");
    let mut load = Series::new("runtime.journal_load_s", "s");
    let mut render = Series::new("runtime.render_s", "s");
    let mut chunks = Series::new("runtime.chunks", "count");
    let mut steals = Series::new("runtime.steals", "count");
    let mut contended = Series::new("runtime.contended", "count");
    let serial_pool = Pool::new(1);
    for _ in 0..reps {
        let (grid, t) = timed(|| tr.span("bench.from_spec", op, |_| CellGrid::from_spec(spec)));
        from_spec.push(t);
        let grid = grid?;
        let requests = grid.requests();

        let mut sum = 0.0;
        let serial = tr.span("runtime.cell_sum", op, |_| {
            let mut reports = Vec::with_capacity(requests.len());
            for (i, r) in requests.iter().enumerate() {
                let (report, t) = timed(|| run_cell_report(i, r));
                sum += t;
                reports.push(report);
            }
            reports
        });
        cell_sum.push(sum);

        let plain = options(spec, &grid, None, false);
        let (one, t1) = timed(|| {
            tr.span("runtime.batch_1t", op, |_| {
                run_supervised_batch(&serial_pool, requests, &plain)
            })
        });
        dispatch.push(t1 - sum);
        let (many, t_plain) = timed(|| {
            tr.span("runtime.batch", op, |_| {
                run_supervised_batch(pool, requests, &plain)
            })
        });
        chunks.push(many.sched.chunks as f64);
        steals.push(many.sched.steals as f64);
        contended.push(many.sched.contended as f64);
        let journaled = options(spec, &grid, Some(journal_path), false);
        let (logged, t_journal) = timed(|| {
            tr.span("runtime.batch_journaled", op, |_| {
                run_supervised_batch(pool, requests, &journaled)
            })
        });
        journal_s.push(t_journal - t_plain);
        for run in [&one, &many, &logged] {
            tally.record(clean(run).and_then(|()| {
                (run.reports() == serial)
                    .then_some(())
                    .ok_or_else(|| "probe batch reports differ from serial ones".to_string())
            }));
        }

        let (loaded, t) = timed(|| {
            tr.span("runtime.journal_load", op, |_| {
                journal::load(journal_path, requests.len())
            })
        });
        load.push(t);
        let loaded = loaded.map_err(|e| format!("load {}: {e}", journal_path.display()))?;
        tally.record(
            if loaded.records.len() == requests.len() && loaded.warnings.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "journal held {} of {} records ({} warnings)",
                    loaded.records.len(),
                    requests.len(),
                    loaded.warnings.len()
                ))
            },
        );

        let (_, t) = timed(|| tr.span("runtime.render", op, |_| render_artifact(spec, &serial)));
        render.push(t);
    }
    Ok(vec![
        from_spec, cell_sum, dispatch, journal_s, load, render, chunks, steals, contended,
    ])
}

/// `runtime.spec_roundtrip_s`: `SweepSpec::render` + `parse` + `digest`,
/// `reps` times, checked to give the spec's own digest.
pub fn spec_roundtrip(
    tr: &mut Tracer,
    op: u64,
    spec: &SweepSpec,
    reps: usize,
    tally: &mut Tally,
) -> Series {
    let mut roundtrip = Series::new("runtime.spec_roundtrip_s", "s");
    for _ in 0..reps {
        let (parsed, t) = timed(|| {
            tr.span("runtime.spec_roundtrip", op, |_| {
                SweepSpec::parse(&spec.render()).map(|s| s.digest())
            })
        });
        roundtrip.push(t);
        tally.record(match parsed {
            Ok(d) if d == spec.digest() => Ok(()),
            Ok(_) => Err("spec digest changed over render + parse".to_string()),
            Err(e) => Err(format!("spec does not parse back: {e}")),
        });
    }
    roundtrip
}
