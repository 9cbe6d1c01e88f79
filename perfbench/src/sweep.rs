//! `sweep-20k`: a seeded 20k-cell sweep of T10 and T20-style cells over
//! four shared random graphs (n = 128..512), journaled at two threads,
//! then resumed from its full journal.
//!
//! Graphs and advice are built once per sweep and amortised over ~5,000
//! cells each, so the runtime does the work: scheduling, supervision,
//! ordered journal writes, rendering, and journal reads on resume.

use std::path::Path;

use oraclesize_runtime::{Pool, SweepSpec};

use crate::check::{paper_bounds, same_bytes, Tally};
use crate::pipeline;
use crate::probe;
use crate::spans::{timed, Tracer};
use crate::specs::sweep_spec;
use crate::workload::{
    per_layer, repeat_for, set_up, span_metrics, Config, Outcome, Timings, PROBE_OPS, THREADS,
};

/// Cells in the sweep (rounded up to whole blocks).
pub const CELLS: usize = 20_000;

/// One timed operation: a journaled artifact, then a resume from that
/// journal, each checked against `reference`. Returns both durations.
fn operation(
    tr: &mut Tracer,
    op: u64,
    spec: &SweepSpec,
    pool: &Pool,
    journal: &Path,
    reference: &str,
    tally: &mut Tally,
) -> (f64, f64) {
    let (text, t) = timed(|| pipeline::artifact(tr, op, spec, pool, Some(journal)));
    tally.record(text.and_then(|(text, _)| same_bytes("journaled", &text, reference)));
    let (text, t_resume) = timed(|| pipeline::resume(tr, op, spec, pool, journal));
    tally.record(text.and_then(|text| same_bytes("resumed", &text, reference)));
    (t, t_resume)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the spec cannot be lowered or a probe cannot
/// run; check failures go to the tally instead.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let pool = Pool::new(THREADS);
    let journal = cfg.tmp.join("sweep.journal");
    let mut tally = Tally::default();
    let mut times = Timings::new();

    // Set-up: the spec and a 1-thread unjournaled reference artifact,
    // bounds-checked.
    let (spec, reference) = set_up(cfg.setup_reps(), &mut times.setup, || {
        let spec = sweep_spec(cfg.seed, CELLS);
        let serial = Pool::new(1);
        let (text, run) = pipeline::artifact(&mut Tracer::new(false), 0, &spec, &serial, None)?;
        tally.record(paper_bounds(&spec, &run.reports()));
        Ok((spec, text))
    })?;

    let mut op = 0;
    let mut step = |tr: &mut Tracer, tally: &mut Tally| {
        op += 1;
        operation(tr, op, &spec, &pool, &journal, &reference, tally)
    };
    let mut off = Tracer::new(false);
    repeat_for(cfg.untraced_seconds(), || {
        let (t, t_resume) = step(&mut off, &mut tally);
        times.artifact.push(t);
        times.resume.push(t_resume);
        times.cells += spec.cells.len() as u64;
    });
    if !cfg.trace {
        return Ok(Outcome {
            tally,
            metrics: times.end_to_end()?,
            settings: vec![("cells", spec.cells.len().to_string())],
            tracer: off,
        });
    }

    let mut tr = Tracer::new(true);
    repeat_for(cfg.seconds / 2.0, || {
        step(&mut tr, &mut tally);
    });
    let mut measured = Vec::new();
    let big = spec
        .instances
        .iter()
        .max_by_key(|i| i.n)
        .ok_or("sweep spec has no instances")?
        .clone();
    measured.extend(probe::instance_layers(
        &mut tr, PROBE_OPS, &big, 25, &mut tally,
    )?);
    let probe_journal = cfg.tmp.join("probe.journal");
    measured.extend(probe::runtime_layers(
        &mut tr,
        PROBE_OPS + 1,
        &spec,
        &pool,
        &probe_journal,
        1,
        &mut tally,
    )?);
    // No `runtime.spec_roundtrip_s` here: `SweepSpec::parse` goes through
    // `json::parse`, whose string scanning re-validates the rest of the
    // input per character, and a 20k-cell spec is megabytes long.
    // `service-loopback` measures it on 128-cell specs.
    // Last, so the span count covers the probes too.
    measured.extend(span_metrics(&tr, &times.artifact));
    Ok(Outcome {
        tally,
        metrics: per_layer(measured)?,
        settings: vec![("cells", spec.cells.len().to_string())],
        tracer: tr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_forced_artifact_mismatch_raises_the_error_rate() {
        let dir = std::env::temp_dir().join(format!("perfbench-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let journal = dir.join("t.journal");
        let spec = sweep_spec(5, 44);
        let pool = Pool::new(2);
        let (good, run) =
            pipeline::artifact(&mut Tracer::new(false), 0, &spec, &Pool::new(1), None)
                .expect("reference");
        assert_eq!(paper_bounds(&spec, &run.reports()), Ok(()));

        let mut tally = Tally::default();
        operation(
            &mut Tracer::new(false),
            1,
            &spec,
            &pool,
            &journal,
            &good,
            &mut tally,
        );
        assert_eq!(
            (tally.attempted, tally.failed, tally.error_rate()),
            (2, 0, 0.0)
        );

        // One byte off: both the journaled and the resumed artifact fail.
        let mut bad = good.into_bytes();
        let last = bad.len() - 2;
        bad[last] ^= 1;
        let bad = String::from_utf8(bad).expect("still utf-8");
        operation(
            &mut Tracer::new(false),
            2,
            &spec,
            &pool,
            &journal,
            &bad,
            &mut tally,
        );
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.error_rate(), 0.5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
