//! Fixtures shared by the runtime's integration tests: one seeded cell
//! grid, and the serial reference every sweep must equal.

use std::sync::Arc;

use oraclesize_core::oracle::EmptyOracle;
use oraclesize_graph::families::Family;
use oraclesize_runtime::{run_cell_report, RunReport, RunRequest};
use oraclesize_sim::protocol::FloodOnce;
use oraclesize_sim::{FaultPlan, Instance, SchedulerKind, SimConfig, TraceSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seed sweep of `cells` broadcasts over one shared instance of `fam`,
/// with per-cell schedulers, synchrony and fault plans — every code path
/// that could conceivably differ across workers. `trace(cell)` picks
/// each cell's trace capture.
pub fn grid(
    fam: Family,
    n: usize,
    seed: u64,
    cells: usize,
    trace: impl Fn(usize) -> TraceSpec,
) -> Vec<RunRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = Arc::new(fam.build(n, &mut rng));
    let source = seed as usize % g.num_nodes();
    let instance = Instance::build(g, source, &EmptyOracle);
    let protocol: Arc<dyn oraclesize_sim::protocol::Protocol + Send + Sync> = Arc::new(FloodOnce);
    (0..cells)
        .map(|cell| {
            let cell_seed = seed.wrapping_add(cell as u64);
            let config = SimConfig::broadcast()
                .with_scheduler(match cell % 3 {
                    0 => SchedulerKind::Fifo,
                    1 => SchedulerKind::Lifo,
                    _ => SchedulerKind::Random { seed: cell_seed },
                })
                .with_synchronous(cell % 2 == 0)
                .with_faults(if cell % 2 == 0 {
                    FaultPlan::message_faults(cell_seed, 0.1, 0.1, 0.2)
                } else {
                    FaultPlan::default()
                })
                .capture_trace(trace(cell));
            RunRequest::new(Arc::clone(&instance), Arc::clone(&protocol), config)
        })
        .collect()
}

/// The reference every sweep must equal: each cell run on this thread,
/// in cell order, with no pool, supervision or journal.
pub fn serial(requests: &[RunRequest]) -> Vec<RunReport> {
    (0..requests.len())
        .map(|i| run_cell_report(i, &requests[i]))
        .collect()
}
