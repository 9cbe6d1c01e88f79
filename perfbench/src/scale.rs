//! `scale-1e6`: the committed SCALE curve, n up to 1,000,405, through
//! `run_local` at two threads.
//!
//! Graph build, advice and the engine dominate here; the runtime and the
//! service handle just 8 cells. The construction is deterministic, so the
//! seed is recorded but changes nothing, and every artifact must equal
//! the committed `BENCH_SCALE.json` byte for byte.

use std::fs;

use oraclesize_bench::experiments::scale_spec;
use oraclesize_runtime::Pool;
use oraclesize_service::run_local;

use crate::check::{paper_bounds, same_bytes, Tally};
use crate::pipeline;
use crate::probe;
use crate::spans::{timed, Tracer};
use crate::workload::{
    per_layer, repeat_for, set_up, span_metrics, Config, Outcome, Timings, PROBE_OPS, THREADS,
};

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the committed artifact cannot be read or a
/// probe cannot run; check failures go to the tally instead.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let pool = Pool::new(THREADS);
    let journal = cfg.tmp.join("scale.journal");
    let committed = cfg.root.join("BENCH_SCALE.json");
    let mut tally = Tally::default();
    let mut times = Timings::new();
    let mut off = Tracer::new(false);

    // Set-up: spec and reference, then a journaled warm-up run, checked
    // against both, whose journal the resume passes read.
    let (spec, reference) = set_up(cfg.setup_reps(), &mut times.setup, || {
        let spec = scale_spec(true);
        let reference = fs::read_to_string(&committed)
            .map_err(|e| format!("read {}: {e}", committed.display()))?;
        let (text, run) = pipeline::artifact(&mut off, 0, &spec, &pool, Some(&journal))?;
        // The bytes match, so the bounds checked on this run's reports
        // hold for the committed artifact too.
        tally.record(same_bytes("warm-up", &text, &reference));
        tally.record(paper_bounds(&spec, &run.reports()));
        Ok((spec, reference))
    })?;

    let mut op = 0;
    repeat_for(cfg.untraced_seconds(), || {
        op += 1;
        let (text, t) = timed(|| run_local(&spec, THREADS));
        tally.record(text.and_then(|text| same_bytes("run_local", &text, &reference)));
        times.artifact.push(t);
        times.cells += spec.cells.len() as u64;
        let (text, t) = timed(|| pipeline::resume(&mut off, op, &spec, &pool, &journal));
        tally.record(text.and_then(|text| same_bytes("resume", &text, &reference)));
        times.resume.push(t);
    });
    if !cfg.trace {
        return Ok(Outcome {
            tally,
            metrics: times.end_to_end()?,
            settings: Vec::new(),
            tracer: off,
        });
    }

    // Traced: the same operation split into the layer calls `run_local`
    // makes.
    let mut tr = Tracer::new(true);
    repeat_for(cfg.seconds / 2.0, || {
        op += 1;
        let text = pipeline::artifact(&mut tr, op, &spec, &pool, None);
        tally.record(text.and_then(|(text, _)| same_bytes("traced", &text, &reference)));
    });
    let mut measured = Vec::new();
    // The million-node instance of the tree-wakeup cell.
    let big = spec
        .instances
        .iter()
        .max_by_key(|i| i.n)
        .ok_or("scale spec has no instances")?
        .clone();
    measured.extend(probe::instance_layers(
        &mut tr, PROBE_OPS, &big, 2, &mut tally,
    )?);
    measured.extend(probe::runtime_layers(
        &mut tr,
        PROBE_OPS + 1,
        &spec,
        &pool,
        &journal,
        1,
        &mut tally,
    )?);
    measured.push(probe::spec_roundtrip(
        &mut tr,
        PROBE_OPS + 1,
        &spec,
        5,
        &mut tally,
    ));
    // Last, so the span count covers the probes too.
    measured.extend(span_metrics(&tr, &times.artifact));
    Ok(Outcome {
        tally,
        metrics: per_layer(measured)?,
        settings: Vec::new(),
        tracer: tr,
    })
}
