//! The cell API: `RunRequest` in, `RunReport` out. Sweeps run cells
//! through [`crate::supervise::run_supervised_batch`].

use std::sync::Arc;

use oraclesize_sim::engine::{Completion, RunOutcome, SimConfig};
use oraclesize_sim::protocol::Protocol;
use oraclesize_sim::{run, Instance, RunMetrics};

/// One cell of an experiment grid: which instance to run, with which
/// scheme, under which configuration.
///
/// Requests are cheap to build — the instance is `Arc`-shared and the
/// protocol is a (usually zero-sized) `Arc`ed factory — so grids with
/// thousands of cells cost nothing beyond their `SimConfig`s.
#[derive(Clone)]
pub struct RunRequest {
    /// The shared `(graph, advice)` instance.
    pub instance: Arc<Instance>,
    /// The scheme to execute. `Send + Sync` because one factory serves
    /// every worker thread.
    pub protocol: Arc<dyn Protocol + Send + Sync>,
    /// Engine configuration (task mode, scheduler, faults, limits).
    pub config: SimConfig,
}

impl RunRequest {
    /// Convenience constructor.
    pub fn new(
        instance: Arc<Instance>,
        protocol: Arc<dyn Protocol + Send + Sync>,
        config: SimConfig,
    ) -> Self {
        RunRequest {
            instance,
            protocol,
            config,
        }
    }

    /// A relative cost hint for scheduling: proportional to the
    /// instance's size (nodes + edges), which dominates both state setup
    /// and message traffic. Only the *ratio* between cells matters — the
    /// chunk planner ([`crate::sched::ChunkPlan::from_costs`]) uses hints
    /// to batch cheap cells together and isolate expensive ones, and a
    /// wrong hint can only cost throughput, never correctness.
    pub fn cost_hint(&self) -> u64 {
        (self.instance.graph.num_nodes() + self.instance.graph.num_edges()) as u64
    }
}

/// The comparable summary of one successful cell execution.
///
/// Everything here is plain old data with `Eq`, so whole report vectors
/// can be compared across thread counts — the determinism property the
/// runtime guarantees and the tests enforce. It holds counts only: there
/// is no field a trace could ride in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// Oracle size of the instance, in bits.
    pub oracle_bits: u64,
    /// Engine accounting (messages, bits, rounds, steps, fault counts).
    pub metrics: RunMetrics,
    /// `true` iff every *surviving* node ended informed
    /// ([`Completion::Completed`]).
    pub completed: bool,
    /// Surviving nodes left uninformed (0 when `completed`).
    pub uninformed: usize,
    /// Nodes that crash-stopped during the run.
    pub crashed_nodes: usize,
}

/// The result of one cell: its index plus either an outcome or the
/// engine's abort error (stringified, keeping the report `Eq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The cell index this report answers (same as its position in a
    /// sweep's report vector).
    pub cell: usize,
    /// Outcome, or the rendered [`SimError`](oraclesize_sim::SimError) if
    /// the run aborted.
    pub result: Result<CellOutcome, String>,
}

impl RunReport {
    /// The outcome, if the run did not abort.
    pub fn outcome(&self) -> Option<&CellOutcome> {
        self.result.as_ref().ok()
    }
}

fn cell_outcome(inst: &Instance, outcome: RunOutcome) -> CellOutcome {
    let (completed, uninformed) = match outcome.classify() {
        Completion::Completed => (true, 0),
        Completion::Degraded { uninformed } => (false, uninformed),
    };
    CellOutcome {
        oracle_bits: inst.oracle_bits,
        crashed_nodes: outcome.crashed.iter().filter(|&&c| c).count(),
        completed,
        uninformed,
        metrics: outcome.metrics,
    }
}

/// Executes a single request, untraced. To trace a cell, stream its
/// request through [`oraclesize_sim::run_streamed`] with a sink of your
/// own.
pub fn run_cell_report(cell: usize, request: &RunRequest) -> RunReport {
    let inst = &request.instance;
    RunReport {
        cell,
        result: run(inst, request.protocol.as_ref(), &request.config)
            .map(|outcome| cell_outcome(inst, outcome))
            .map_err(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraclesize_core::oracle::EmptyOracle;
    use oraclesize_graph::families;
    use oraclesize_sim::SimConfig;

    #[test]
    fn engine_errors_become_report_errors() {
        // Flooding in wakeup mode is legal, but a Silent source run in
        // wakeup mode quiesces — use an advice-count mismatch instead:
        // impossible through Instance. Use a wakeup violation: every node
        // floods spontaneously.
        struct AllStart;
        impl Protocol for AllStart {
            fn create(
                &self,
                view: oraclesize_sim::protocol::NodeView,
            ) -> Box<dyn oraclesize_sim::protocol::NodeBehavior> {
                struct S {
                    degree: usize,
                }
                impl oraclesize_sim::protocol::NodeBehavior for S {
                    fn on_start(&mut self) -> Vec<oraclesize_sim::protocol::Outgoing> {
                        (0..self.degree.min(1))
                            .map(|p| {
                                oraclesize_sim::protocol::Outgoing::new(
                                    p,
                                    oraclesize_sim::protocol::Message::empty(),
                                )
                            })
                            .collect()
                    }
                    fn on_receive(
                        &mut self,
                        _p: oraclesize_graph::Port,
                        _m: oraclesize_sim::protocol::Message,
                    ) -> Vec<oraclesize_sim::protocol::Outgoing> {
                        Vec::new()
                    }
                }
                Box::new(S {
                    degree: view.degree,
                })
            }
        }
        let inst = Instance::build(Arc::new(families::path(3)), 0, &EmptyOracle);
        let cfg = SimConfig::wakeup();
        let report = run_cell_report(0, &RunRequest::new(inst, Arc::new(AllStart), cfg));
        let err = report.result.as_ref().unwrap_err();
        assert!(err.contains("before being woken up"), "{err}");
    }
}
