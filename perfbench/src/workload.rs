//! What every workload shares: its configuration, its result, and the
//! assembly of end-to-end and per-layer metrics.

use std::path::PathBuf;

use crate::check::Tally;
use crate::env;
use crate::spans::{now, secs_since, timed, Tracer};
use crate::stats::{median, Series};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Pool threads of the sweeps and of the scale run — the core count the
/// benchmark is sized for.
pub const THREADS: usize = 2;

/// Operation ids at or above this belong to per-layer probes, below it
/// to artifact operations.
pub const PROBE_OPS: u64 = 1 << 32;

/// One invocation's settings.
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed operations (split evenly between untraced and
    /// traced operations when tracing).
    pub seconds: f64,
    /// `true`: the traced run, reporting per-layer metrics.
    pub trace: bool,
    /// The checkout the benchmark runs in.
    pub root: PathBuf,
    /// Scratch directory for journals, removed when the run ends.
    pub tmp: PathBuf,
}

impl Config {
    /// Set-ups to time.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPS
        }
    }

    /// Seconds of untraced operations.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Runs set-up `f` `reps` times, timing each run into `setup`, and
/// returns the last run's result.
///
/// # Errors
///
/// Returns the first set-up error.
pub fn set_up<T>(
    reps: usize,
    setup: &mut Series,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut out = Err("no set-up ran".to_string());
    for _ in 0..reps {
        let (result, t) = timed(&mut f);
        setup.push(t);
        out = Ok(result?);
    }
    out
}

/// Calls `f` at least once, and again until `seconds` have passed.
pub fn repeat_for(seconds: f64, mut f: impl FnMut()) {
    let start = now();
    loop {
        f();
        if secs_since(start) >= seconds {
            return;
        }
    }
}

/// What one workload run produces.
pub struct Outcome {
    /// Checked operations.
    pub tally: Tally,
    /// The metrics to print: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Series>,
    /// Fixed settings worth recording beside the context.
    pub settings: Vec<(&'static str, String)>,
    /// Spans of the traced run (empty untraced).
    pub tracer: Tracer,
}

/// The untraced measurements of a workload.
pub struct Timings {
    /// Spec (or submission) to verified artifact bytes, per operation.
    pub artifact: Series,
    /// Fully journaled resume to artifact bytes, per operation.
    pub resume: Series,
    /// Set-up, per repetition.
    pub setup: Series,
    /// Cells completed by the timed artifact operations.
    pub cells: u64,
}

impl Timings {
    /// Empty series with the benchmark's metric names.
    pub fn new() -> Timings {
        Timings {
            artifact: Series::new("artifact_s", "s"),
            resume: Series::new("resume_s", "s"),
            setup: Series::new("setup_s", "s"),
            cells: 0,
        }
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    ///
    /// # Errors
    ///
    /// Returns a message when peak memory cannot be read.
    pub fn end_to_end(self) -> Result<Vec<Series>, String> {
        let busy: f64 = self.artifact.samples.iter().sum();
        let rate = if busy > 0.0 {
            self.cells as f64 / busy
        } else {
            0.0
        };
        let ops = self.artifact.basis;
        Ok(vec![
            self.artifact,
            Series::total("cells_per_s", "1/s", rate, ops),
            self.resume,
            self.setup,
            Series::total("peak_rss_mb", "MB", env::peak_rss_mb()?, 1),
        ])
    }
}

impl Default for Timings {
    fn default() -> Self {
        Timings::new()
    }
}

/// Layers whose self time the traced artifact operations report, with
/// the metric each goes to.
const SELF_LAYERS: [(&str, &str); 4] = [
    ("client", "self_s.client"),
    ("bench", "self_s.bench"),
    ("runtime", "self_s.runtime"),
    ("service", "self_s.service"),
];

/// Per-layer metrics drawn from the spans themselves: each layer's self
/// time per artifact operation (median over operations), the tracing
/// overhead (traced minus untraced `artifact_s`) and the span count.
pub fn span_metrics(tr: &Tracer, untraced_artifact: &Series) -> Vec<Series> {
    let by_op = tr.self_time_by_op();
    let mut out: Vec<Series> = SELF_LAYERS
        .iter()
        .map(|&(layer, name)| {
            let mut s = Series::new(name, "s");
            for (_, layers) in by_op.range(..PROBE_OPS) {
                s.push(layers.get(layer).copied().unwrap_or(0.0));
            }
            s
        })
        .collect();
    let traced = tr.durations("client.artifact");
    let overhead = match (median(&traced), median(&untraced_artifact.samples)) {
        (Some(t), Some(u)) => t - u,
        _ => 0.0,
    };
    out.push(Series::total(
        "trace.overhead_s",
        "s",
        overhead,
        traced.len() + untraced_artifact.samples.len(),
    ));
    out.push(Series::total(
        "trace.spans",
        "count",
        tr.spans().len() as f64,
        1,
    ));
    out
}

/// Every per-layer metric name, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("graph.build_s", "s"),
    ("core.advise_s", "s"),
    ("bench.from_spec_s", "s"),
    ("sim.setup_s", "s"),
    ("sim.run_s.tree_wakeup", "s"),
    ("sim.run_s.flood", "s"),
    ("sim.ns_per_message", "ns"),
    ("runtime.cell_sum_s", "s"),
    ("runtime.dispatch_overhead_s", "s"),
    ("runtime.journal_s", "s"),
    ("runtime.journal_load_s", "s"),
    ("runtime.render_s", "s"),
    ("runtime.spec_roundtrip_s", "s"),
    ("runtime.chunks", "count"),
    ("runtime.steals", "count"),
    ("runtime.contended", "count"),
    ("service.accept_s", "s"),
    ("service.poll_rtt_s", "s"),
    ("service.local_s", "s"),
    ("service.overhead_s", "s"),
    ("service.shards", "count"),
    ("service.cells_per_worker", "count"),
    ("self_s.client", "s"),
    ("self_s.bench", "s"),
    ("self_s.runtime", "s"),
    ("self_s.service", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Orders `measured` as [`PER_LAYER`], filling every metric the workload
/// does not measure (a layer it never crosses) with an empty series.
///
/// # Errors
///
/// Returns a message naming a measured metric missing from
/// [`PER_LAYER`] — a bug in this benchmark.
pub fn per_layer(mut measured: Vec<Series>) -> Result<Vec<Series>, String> {
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        match measured.iter().position(|s| s.name == name) {
            Some(i) => out.push(measured.swap_remove(i)),
            None => out.push(Series::new(name, unit)),
        }
    }
    match measured.first() {
        Some(extra) => Err(format!("metric {} is not a per-layer metric", extra.name)),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(name: &str, unit: &str) -> bool {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
    }

    #[test]
    fn every_reported_metric_is_declared_in_benchmark_json() {
        for (name, unit) in PER_LAYER {
            assert!(declared(name, unit), "{name} ({unit})");
        }
        let times = Timings::new();
        let e2e = [
            &times.artifact,
            &times.resume,
            &times.setup,
            &Series::new("cells_per_s", "1/s"),
            &Series::new("peak_rss_mb", "MB"),
        ];
        for s in e2e {
            assert!(declared(s.name, s.unit), "{} ({})", s.name, s.unit);
        }
        assert_eq!(Timings::new().end_to_end().expect("reads VmHWM").len(), 5);
    }

    #[test]
    fn per_layer_fills_gaps_and_rejects_strays() {
        let out = per_layer(vec![Series::total("runtime.steals", "count", 3.0, 1)]).unwrap();
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(out[14].name, "runtime.steals");
        assert_eq!(out[14].value(), 3.0);
        assert_eq!(out[0].basis, 0);
        assert!(per_layer(vec![Series::new("artifact_s", "s")]).is_err());
    }
}
