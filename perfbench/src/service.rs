//! `service-loopback`: an in-process sweep server and two workers on
//! 127.0.0.1, fed by one closed-loop client that submits 128-cell
//! T10-shaped jobs, each after the previous artifact came back.
//!
//! A job computes in milliseconds, so frame I/O, leasing, polling and
//! merging dominate; graphs are n = 128 and nothing touches the
//! million-node engine paths. Every job has its own spec (the job id is
//! the spec digest, and a resubmitted spec would return the stored
//! artifact), so the load measures the service, not its cache.
//!
//! The server serves a job count fixed when it starts, so the run
//! submits a planned number of jobs — the timed seconds over the median
//! warm-up job time — rather than stopping on the clock. Two thirds of
//! the untraced seconds go to new jobs, one third to resuming some of
//! them: workers checkpoint every shard to a segment journal, and a
//! restarted server with fresh workers gets those jobs again, so its
//! workers replay the segments instead of computing.

use std::net::TcpStream;
use std::path::Path;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use oraclesize_runtime::{Pool, SweepSpec};
use oraclesize_service::proto::{recv, send, Message};
use oraclesize_service::{run_worker, submit, Server, ServerConfig, WorkerConfig, WorkerOutcome};

use crate::check::{paper_bounds, same_bytes, Tally};
use crate::pipeline;
use crate::probe;
use crate::spans::{now, secs_since, timed, Tracer};
use crate::specs::job_spec;
use crate::stats::{median, Series};
use crate::workload::{per_layer, span_metrics, Config, Outcome, Timings, PROBE_OPS, THREADS};

/// Poll interval of the workers and the client, in milliseconds.
pub const POLL_MS: u64 = 1;
/// Workers, and the server's `workers_hint`.
pub const WORKERS: usize = 2;
/// Pool threads per worker: two workers fill the two cores.
pub const WORKER_THREADS: usize = 1;
/// How long a finished fleet may take to shut down.
const SHUTDOWN: Duration = Duration::from_secs(30);
/// Bounds on the planned job count of the timed phase.
const MIN_JOBS: usize = 3;
const MAX_JOBS: usize = 1000;

/// A running server and its workers.
struct Fleet {
    addr: String,
    server: JoinHandle<std::io::Result<()>>,
    workers: Vec<JoinHandle<Result<WorkerOutcome, String>>>,
}

/// Binds a server for `jobs` jobs and starts the workers on it, which
/// journal shard segments in `journal_dir`.
fn start(jobs: usize, journal_dir: &Path) -> Result<Fleet, String> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: None,
        jobs,
        workers_hint: WORKERS,
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    // lint:allow(D003): the server and workers run in process so one
    // benchmark process owns every thread it starts and joins them all.
    let server = thread::spawn(move || server.run());
    let workers = (0..WORKERS)
        .map(|i| {
            let config = WorkerConfig {
                connect: addr.clone(),
                threads: WORKER_THREADS,
                journal_dir: Some(journal_dir.to_path_buf()),
                poll_ms: POLL_MS,
                die_mid_shard: None,
                name: format!("w{i}"),
            };
            // lint:allow(D003): as above.
            thread::spawn(move || run_worker(&config))
        })
        .collect();
    Ok(Fleet {
        addr,
        server,
        workers,
    })
}

/// Joins `handle`, giving up after [`SHUTDOWN`].
fn join<T>(what: &str, handle: JoinHandle<T>) -> Result<T, String> {
    let start = now();
    while !handle.is_finished() {
        if secs_since(start) > SHUTDOWN.as_secs_f64() {
            return Err(format!("{what} did not stop within {SHUTDOWN:?}"));
        }
        thread::sleep(Duration::from_millis(2));
    }
    handle.join().map_err(|_| format!("{what} panicked"))
}

/// Waits for a fleet whose jobs were all delivered to shut down.
fn stop(fleet: Fleet) -> Result<Vec<WorkerOutcome>, String> {
    join("server", fleet.server)?.map_err(|e| format!("server: {e}"))?;
    fleet
        .workers
        .into_iter()
        .map(|w| join("worker", w)?)
        .collect()
}

/// Submits `spec` with the library client and returns the merged
/// artifact.
fn submit_job(addr: &str, spec: &SweepSpec, resume: bool) -> Result<String, String> {
    submit(addr, &spec.render(), resume, POLL_MS)
}

/// The library client's exchange, one span per layer call:
/// `client.artifact` → `runtime.spec_roundtrip`, `service.connect`,
/// `service.accept` (Submit → Accepted) and one `service.poll` per
/// Poll → Status.
fn submit_traced(tr: &mut Tracer, op: u64, addr: &str, spec: &SweepSpec) -> Result<String, String> {
    tr.span("client.artifact", op, |tr| {
        let json = tr.span("runtime.spec_roundtrip", op, |_| {
            SweepSpec::parse(&spec.render()).map(|s| s.to_json())
        })?;
        let mut stream = tr
            .span("service.connect", op, |_| TcpStream::connect(addr))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let submitted = Message::Submit {
            spec: json,
            resume: false,
        };
        let job = match tr.span("service.accept", op, |_| {
            send(&mut stream, &submitted).and_then(|()| recv(&mut stream))
        }) {
            Ok(Message::Accepted { job, .. }) => job,
            Ok(other) => return Err(format!("submit answered with kind {}", other.kind())),
            Err(e) => return Err(format!("submit: {e}")),
        };
        loop {
            let status = tr.span("service.poll", op, |_| {
                send(&mut stream, &Message::Poll { job }).and_then(|()| recv(&mut stream))
            });
            match status {
                Ok(Message::Status {
                    artifact: Some(a), ..
                }) => return Ok(a),
                Ok(Message::Status { .. }) => thread::sleep(Duration::from_millis(POLL_MS)),
                Ok(other) => return Err(format!("poll answered with kind {}", other.kind())),
                Err(e) => return Err(format!("poll: {e}")),
            }
        }
    })
}

/// The reference artifact of a job: the calls `run_local(spec, 1)`
/// makes, so the paper's bounds are checked on its reports. Returns the
/// seconds the reference took too.
fn reference(spec: &SweepSpec, tally: &mut Tally) -> (String, f64) {
    let (local, t) =
        timed(|| pipeline::artifact(&mut Tracer::new(false), 0, spec, &Pool::new(1), None));
    let text = match local {
        Ok((text, run)) => {
            tally.record(paper_bounds(spec, &run.reports()));
            text
        }
        Err(e) => {
            tally.record(Err(format!("reference for {}: {e}", spec.name)));
            String::new()
        }
    };
    (text, t)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the fleet cannot start or stop; check
/// failures and job errors go to the tally instead.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let journal_dir = cfg.tmp.join("service");
    std::fs::create_dir_all(&journal_dir).map_err(|e| format!("create journal dir: {e}"))?;
    let mut tally = Tally::default();
    let mut times = Timings::new();
    // Warm-up jobs take the top indices, timed jobs count up from 0.
    let mut warm_index = u64::MAX;

    // Set-up: server and workers, then one verified warm-up job. Only
    // the last fleet stays up; earlier ones time the job the plan uses.
    let reps = cfg.setup_reps().max(2);
    // (untraced jobs, traced jobs, resumed jobs)
    let mut planned = (0, 0, 0);
    let mut fleet = None;
    for rep in 0..reps {
        let last = rep + 1 == reps;
        if last {
            let est = median(&times.setup.samples).unwrap_or(1.0).max(1e-3);
            let per = |secs: f64| ((secs / est).ceil() as usize).clamp(MIN_JOBS, MAX_JOBS);
            planned = if cfg.trace {
                (per(cfg.untraced_seconds()), per(cfg.seconds / 2.0), 0)
            } else {
                let new = per(cfg.untraced_seconds() * 2.0 / 3.0);
                (new, 0, per(cfg.untraced_seconds() / 3.0).min(new))
            };
        }
        let (started, t) = timed(|| -> Result<Fleet, String> {
            let f = start(1 + planned.0 + planned.1, &journal_dir)?;
            let spec = job_spec(cfg.seed, warm_index);
            let (reference, _) = reference(&spec, &mut tally);
            tally.record(
                submit_job(&f.addr, &spec, false)
                    .and_then(|a| same_bytes("warm-up", &a, &reference)),
            );
            Ok(f)
        });
        warm_index -= 1;
        times.setup.push(t);
        let started = started?;
        if last {
            fleet = Some(started);
        } else {
            stop(started)?;
        }
    }
    let fleet = fleet.ok_or("no fleet started")?;

    let mut specs = Vec::new();
    for index in 0..planned.0 as u64 {
        let spec = job_spec(cfg.seed, index);
        let (artifact, t) = timed(|| submit_job(&fleet.addr, &spec, false));
        times.artifact.push(t);
        times.cells += spec.cells.len() as u64;
        let (reference, _) = reference(&spec, &mut tally);
        tally.record(artifact.and_then(|a| same_bytes("job", &a, &reference)));
        specs.push((spec, reference));
    }

    let mut tr = Tracer::new(cfg.trace);
    let mut local = Series::new("service.local_s", "s");
    for index in planned.0 as u64..(planned.0 + planned.1) as u64 {
        let spec = job_spec(cfg.seed, index);
        let artifact = submit_traced(&mut tr, index, &fleet.addr, &spec);
        let (reference, t) = reference(&spec, &mut tally);
        local.push(t);
        tally.record(artifact.and_then(|a| same_bytes("traced job", &a, &reference)));
    }
    let outcomes = stop(fleet)?;
    let settings = vec![
        ("jobs", format!("{}", 1 + planned.0 + planned.1)),
        ("resumed_jobs", planned.2.to_string()),
        ("poll_ms", POLL_MS.to_string()),
        ("workers", WORKERS.to_string()),
        ("worker_threads", WORKER_THREADS.to_string()),
        ("workers_hint", WORKERS.to_string()),
    ];

    if !cfg.trace {
        // Resume: a restarted server and fresh workers, given the first
        // timed jobs again; every shard is in a segment journal.
        let restarted = start(planned.2, &journal_dir)?;
        for (spec, reference) in specs.iter().take(planned.2) {
            let (artifact, t) = timed(|| submit_job(&restarted.addr, spec, true));
            times.resume.push(t);
            tally.record(artifact.and_then(|a| same_bytes("resumed job", &a, reference)));
        }
        stop(restarted)?;
        return Ok(Outcome {
            tally,
            metrics: times.end_to_end()?,
            settings,
            tracer: tr,
        });
    }

    let mut measured = Vec::new();
    measured.push(Series::of(
        "service.accept_s",
        "s",
        tr.durations("service.accept"),
    ));
    measured.push(Series::of(
        "service.poll_rtt_s",
        "s",
        tr.durations("service.poll"),
    ));
    let overhead = times.artifact.value() - local.value();
    measured.push(Series::total(
        "service.overhead_s",
        "s",
        overhead,
        local.basis,
    ));
    measured.push(local);
    let (shards, busiest) = outcomes.iter().fold((0u64, 0u64), |(s, b), o| match *o {
        WorkerOutcome::Finished { shards, cells } => (s + shards, b.max(cells)),
        WorkerOutcome::Died { shards } => (s + shards, b),
    });
    // The last fleet served the warm-up job plus every planned one.
    let served = 1 + planned.0 + planned.1;
    measured.push(Series::total(
        "service.shards",
        "count",
        shards as f64 / served as f64,
        served,
    ));
    measured.push(Series::total(
        "service.cells_per_worker",
        "count",
        busiest as f64 / served as f64,
        served,
    ));
    let spec = job_spec(cfg.seed, 0);
    let big = spec.instances[0].clone();
    measured.extend(probe::instance_layers(
        &mut tr, PROBE_OPS, &big, 25, &mut tally,
    )?);
    measured.extend(probe::runtime_layers(
        &mut tr,
        PROBE_OPS + 1,
        &spec,
        &Pool::new(THREADS),
        &cfg.tmp.join("probe.journal"),
        20,
        &mut tally,
    )?);
    measured.push(probe::spec_roundtrip(
        &mut tr,
        PROBE_OPS + 1,
        &spec,
        20,
        &mut tally,
    ));
    // Last, so the span count covers the probes too.
    measured.extend(span_metrics(&tr, &times.artifact));
    Ok(Outcome {
        tally,
        metrics: per_layer(measured)?,
        settings,
        tracer: tr,
    })
}
