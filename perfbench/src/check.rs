//! Output checks: artifact bytes against a reference, and the paper's
//! bounds on every fault-free cell. Every failed check is a failed
//! operation in the run's tally; none is skipped.

use oraclesize_runtime::{FaultSpec, InstanceSpec, RunReport, SweepSpec};

/// Attempted and failed operations, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check or that returned an error.
    pub failed: u64,
    /// Up to [`Tally::KEEP`] failure reasons, for stderr.
    pub reasons: Vec<String>,
}

impl Tally {
    const KEEP: usize = 8;

    /// Counts one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < Self::KEEP {
                self.reasons.push(why);
            }
        }
    }

    /// Failed operations per attempted one.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `Ok` iff `artifact` equals `reference` byte for byte.
pub fn same_bytes(what: &str, artifact: &str, reference: &str) -> Result<(), String> {
    if artifact == reference {
        return Ok(());
    }
    let at = artifact
        .bytes()
        .zip(reference.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(artifact.len().min(reference.len()));
    Err(format!(
        "{what}: artifact differs from its reference at byte {at} \
         ({} vs {} bytes)",
        artifact.len(),
        reference.len()
    ))
}

/// Node count of an instance the benchmark's specs use.
fn nodes(inst: &InstanceSpec) -> Result<u64, String> {
    match inst.family.as_str() {
        "random-connected" => Ok(inst.n),
        // Every edge of K_b subdivided: b + b(b-1)/2 nodes.
        "subdivided-clique" => Ok(inst.n + inst.n * (inst.n - 1) / 2),
        other => Err(format!("no node count for family {other:?}")),
    }
}

/// Checks the paper's bounds on every fault-free cell of a run of
/// `spec`: tree-wakeup sends exactly `n - 1` messages and completes
/// (Theorem 2.1), and scheme-b's advice is at most `8n` bits (Theorem
/// 3.1).
pub fn paper_bounds(spec: &SweepSpec, reports: &[RunReport]) -> Result<(), String> {
    if reports.len() != spec.cells.len() {
        return Err(format!(
            "{} reports for {} cells",
            reports.len(),
            spec.cells.len()
        ));
    }
    for (i, (cell, report)) in spec.cells.iter().zip(reports).enumerate() {
        if cell.faults != FaultSpec::default() {
            continue;
        }
        let n = nodes(&spec.instances[cell.instance as usize])?;
        let out = report
            .outcome()
            .ok_or_else(|| format!("cell {i} ({}) aborted", cell.label))?;
        match cell.scheme.as_str() {
            "tree-wakeup" if out.metrics.messages != n - 1 || !out.completed => {
                return Err(format!(
                    "cell {i} ({}): tree-wakeup sent {} messages on n = {n} \
                     (completed: {}); Theorem 2.1 says exactly n - 1",
                    cell.label, out.metrics.messages, out.completed
                ));
            }
            "scheme-b" if out.oracle_bits > 8 * n => {
                return Err(format!(
                    "cell {i} ({}): scheme-b used {} advice bits on n = {n}; \
                     Theorem 3.1 allows at most 8n = {}",
                    cell.label,
                    out.oracle_bits,
                    8 * n
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(same_bytes("x", "abc", "abd"));
        t.record(Ok(()));
        t.record(Ok(()));
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.error_rate(), 0.25);
        assert!(t.reasons[0].contains("at byte 2"), "{:?}", t.reasons);
    }
}
