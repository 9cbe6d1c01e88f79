//! Deterministic aggregation of per-cell reports.
//!
//! [`Aggregate::of`] folds a report vector **in cell order** — never in
//! completion order — which is the second half of the runtime's
//! determinism contract (the first half being the in-order slots of
//! [`crate::pool::Pool`]), so an aggregate computed at `--threads 8` is
//! bit-identical to the serial one.

use crate::batch::RunReport;
use crate::json::Json;
use oraclesize_sim::RunMetrics;

/// Sums every [`RunMetrics`] counter across cells, tracking completions
/// and errors — the aggregate behind the `BENCH_T*.json` totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Cells folded.
    pub cells: u64,
    /// Cells whose run completed (all surviving nodes informed).
    pub completed: u64,
    /// Cells whose run aborted with an engine error.
    pub errors: u64,
    /// Surviving-but-uninformed nodes, summed across degraded cells.
    pub uninformed: u64,
    /// Crash-stopped nodes, summed across cells.
    pub crashed_nodes: u64,
    /// Element-wise sum of successful cells' metrics.
    pub totals: RunMetrics,
    /// Maximum `messages` over successful cells.
    pub max_messages: u64,
    /// Maximum `rounds` over successful cells.
    pub max_rounds: u64,
    /// Sum of `oracle_bits` over successful cells.
    pub oracle_bits: u64,
}

impl Aggregate {
    /// Folds `reports` front to back. A pure function of the reports: no
    /// clocks, no randomness, no dependence on how they were produced.
    pub fn of(reports: &[RunReport]) -> Aggregate {
        let mut agg = Aggregate::default();
        for report in reports {
            agg.record(report);
        }
        agg
    }

    fn record(&mut self, report: &RunReport) {
        self.cells += 1;
        let out = match &report.result {
            Ok(out) => out,
            Err(_) => {
                self.errors += 1;
                return;
            }
        };
        if out.completed {
            self.completed += 1;
        }
        self.uninformed += out.uninformed as u64;
        self.crashed_nodes += out.crashed_nodes as u64;
        self.oracle_bits += out.oracle_bits;
        let m = &out.metrics;
        let t = &mut self.totals;
        t.messages += m.messages;
        t.informed_messages += m.informed_messages;
        t.payload_bits += m.payload_bits;
        t.max_message_bits = t.max_message_bits.max(m.max_message_bits);
        t.rounds += m.rounds;
        t.steps += m.steps;
        t.informed_nodes += m.informed_nodes;
        t.faults.dropped += m.faults.dropped;
        t.faults.duplicated += m.faults.duplicated;
        t.faults.payload_flips += m.faults.payload_flips;
        t.faults.suppressed_sends += m.faults.suppressed_sends;
        t.faults.to_crashed += m.faults.to_crashed;
        t.faults.advice_mutations += m.faults.advice_mutations;
        t.faults.payload_copies += m.faults.payload_copies;
        self.max_messages = self.max_messages.max(m.messages);
        self.max_rounds = self.max_rounds.max(m.rounds);
    }

    /// Renders the totals as the artifacts' `aggregate` object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("cells", self.cells)
            .field("completed", self.completed)
            .field("errors", self.errors)
            .field("uninformed", self.uninformed)
            .field("crashed_nodes", self.crashed_nodes)
            .field("oracle_bits", self.oracle_bits)
            .field("messages", self.totals.messages)
            .field("informed_messages", self.totals.informed_messages)
            .field("payload_bits", self.totals.payload_bits)
            .field("max_message_bits", self.totals.max_message_bits)
            .field("rounds", self.totals.rounds)
            .field("steps", self.totals.steps)
            .field("informed_nodes", self.totals.informed_nodes)
            .field("max_messages", self.max_messages)
            .field("max_rounds", self.max_rounds)
            .field(
                "faults",
                Json::obj()
                    .field("dropped", self.totals.faults.dropped)
                    .field("duplicated", self.totals.faults.duplicated)
                    .field("payload_flips", self.totals.faults.payload_flips)
                    .field("suppressed_sends", self.totals.faults.suppressed_sends)
                    .field("to_crashed", self.totals.faults.to_crashed)
                    .field("advice_mutations", self.totals.faults.advice_mutations)
                    .field("payload_copies", self.totals.faults.payload_copies),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{CellOutcome, RunReport};

    fn report(cell: usize, messages: u64, completed: bool) -> RunReport {
        RunReport {
            cell,
            result: Ok(CellOutcome {
                oracle_bits: 3,
                metrics: RunMetrics {
                    messages,
                    rounds: messages / 2,
                    ..Default::default()
                },
                completed,
                uninformed: usize::from(!completed),
                crashed_nodes: 0,
            }),
        }
    }

    #[test]
    fn aggregate_sums_in_cell_order() {
        let reports = vec![report(0, 4, true), report(1, 10, false), report(2, 6, true)];
        let agg = Aggregate::of(&reports);
        assert_eq!(agg.cells, 3);
        assert_eq!(agg.completed, 2);
        assert_eq!(agg.uninformed, 1);
        assert_eq!(agg.totals.messages, 20);
        assert_eq!(agg.max_messages, 10);
        assert_eq!(agg.oracle_bits, 9);
        assert!(crate::json::parse(&agg.to_json().render()).is_some());
    }

    #[test]
    fn aggregate_counts_errors_without_metrics() {
        let agg = Aggregate::of(&[
            report(0, 2, true),
            RunReport {
                cell: 1,
                result: Err("boom".into()),
            },
        ]);
        assert_eq!(agg.cells, 2);
        assert_eq!(agg.errors, 1);
        assert_eq!(agg.totals.messages, 2);
    }
}
