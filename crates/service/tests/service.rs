//! End-to-end service tests: a real server and real workers on loopback,
//! pinned against the local execution path byte for byte.

use std::path::PathBuf;
use std::thread;

use oraclesize_runtime::{CellSpec, FaultSpec, InstanceSpec, SweepSpec};
use oraclesize_service::{
    run_local, run_worker, submit, Server, ServerConfig, WorkerConfig, WorkerOutcome,
};
use proptest::prelude::*;

/// A small mixed sweep: two instances, two schemes, both task modes.
fn tiny_spec(name: &str, cells: usize) -> SweepSpec {
    let mut spec = SweepSpec::new(name, 2006);
    spec.instances.push(InstanceSpec {
        family: "cycle".to_string(),
        n: 8,
        seed: 0,
        p_ppm: None,
        source: 0,
        oracle: "empty".to_string(),
    });
    spec.instances.push(InstanceSpec {
        family: "path".to_string(),
        n: 9,
        seed: 0,
        p_ppm: None,
        source: 0,
        oracle: "spanning-tree".to_string(),
    });
    for i in 0..cells {
        let wakeup = i % 2 == 1;
        spec.cells.push(CellSpec {
            label: format!("cell-{i}"),
            instance: u64::from(wakeup),
            scheme: if wakeup { "tree-wakeup" } else { "flood" }.to_string(),
            retries: None,
            mode: if wakeup { "wakeup" } else { "broadcast" }.to_string(),
            scheduler: None,
            anonymous: false,
            max_message_bits: None,
            quiescence_polls: None,
            seed: i as u64,
            faults: FaultSpec::default(),
        });
    }
    spec
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("oraclesize-service-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn worker_config(addr: &str, name: &str, journal_dir: Option<PathBuf>) -> WorkerConfig {
    WorkerConfig {
        connect: addr.to_string(),
        threads: 2,
        journal_dir,
        poll_ms: 5,
        die_mid_shard: None,
        name: name.to_string(),
    }
}

/// Runs `spec` through a fresh server with `workers` concurrent workers
/// and returns the merged artifact.
fn run_distributed(spec: &SweepSpec, workers: usize, journal_dir: Option<PathBuf>) -> String {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: journal_dir.clone(),
        jobs: 1,
        workers_hint: workers,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    let spec_text = spec.render();
    let submit_addr = addr.clone();
    let client = thread::spawn(move || submit(&submit_addr, &spec_text, true, 5));
    let worker_threads: Vec<_> = (0..workers)
        .map(|i| {
            let cfg = worker_config(&addr, &format!("w-{i}"), journal_dir.clone());
            thread::spawn(move || run_worker(&cfg))
        })
        .collect();
    let artifact = client.join().unwrap().expect("submit");
    for t in worker_threads {
        let outcome = t.join().unwrap().expect("worker");
        assert!(
            matches!(outcome, WorkerOutcome::Finished { .. }),
            "{outcome:?}"
        );
    }
    server_thread.join().unwrap();
    artifact
}

#[test]
fn one_worker_matches_local_run() {
    let spec = tiny_spec("svc-one", 6);
    let local = run_local(&spec, 2).unwrap();
    let distributed = run_distributed(&spec, 1, None);
    assert_eq!(distributed, local);
    assert!(distributed.ends_with('\n'));
    assert!(distributed.contains("\"experiment\": \"svc-one\""));
}

#[test]
fn three_workers_match_local_run() {
    let spec = tiny_spec("svc-three", 11);
    let local = run_local(&spec, 2).unwrap();
    assert_eq!(run_distributed(&spec, 3, None), local);
}

#[test]
fn killed_worker_is_requeued_and_resumed_byte_identically() {
    let spec = tiny_spec("svc-kill", 10);
    let local = run_local(&spec, 2).unwrap();
    let dir = temp_dir("kill");

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: Some(dir.clone()),
        jobs: 1,
        workers_hint: 2,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    let spec_text = spec.render();
    let submit_addr = addr.clone();
    let client = thread::spawn(move || submit(&submit_addr, &spec_text, true, 5));

    // Worker A claims the first shard, journals its first half, and
    // "dies" (drops the connection without reporting).
    let mut doomed = worker_config(&addr, "w-doomed", Some(dir.clone()));
    doomed.die_mid_shard = Some(1);
    let outcome = run_worker(&doomed).expect("doomed worker");
    assert!(matches!(outcome, WorkerOutcome::Died { .. }), "{outcome:?}");
    // Its partial segment journal is on disk for the successor.
    let segments = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains("-shard-"))
        .count();
    assert!(segments > 0, "the dead worker left no segment journal");

    // Worker B picks up the requeued shard (resuming A's checkpoints)
    // plus everything else.
    let survivor = worker_config(&addr, "w-survivor", Some(dir.clone()));
    let outcome = run_worker(&survivor).expect("survivor worker");
    assert!(
        matches!(outcome, WorkerOutcome::Finished { .. }),
        "{outcome:?}"
    );

    let artifact = client.join().unwrap().expect("submit");
    server_thread.join().unwrap();
    assert_eq!(artifact, local);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resubmitting_to_a_journaled_server_resumes_server_side() {
    let spec = tiny_spec("svc-resub", 5);
    let local = run_local(&spec, 1).unwrap();
    let dir = temp_dir("resub");
    // First pass populates the server's job journal…
    assert_eq!(run_distributed(&spec, 1, Some(dir.clone())), local);
    // …which the second server resumes: the job completes with zero
    // pending shards, so the worker below only ever sees NoWork.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: Some(dir.clone()),
        jobs: 1,
        workers_hint: 1,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    let spec_text = spec.render();
    let submit_addr = addr.clone();
    let client = thread::spawn(move || submit(&submit_addr, &spec_text, true, 5));
    let worker = worker_config(&addr, "w-idle", None);
    let outcome = run_worker(&worker).expect("worker");
    assert_eq!(
        outcome,
        WorkerOutcome::Finished {
            shards: 0,
            cells: 0
        }
    );
    assert_eq!(client.join().unwrap().expect("submit"), local);
    server_thread.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_specs_are_rejected_with_the_first_error() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: None,
        jobs: 1,
        workers_hint: 1,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let _server_thread = thread::spawn(move || server.run());
    // Parse failure is caught locally, before anything is sent.
    let err = submit(&addr, "{\"version\": 2}", true, 5).unwrap_err();
    assert_eq!(
        err,
        "spec.version: unsupported version 2 (this build reads 1)"
    );
    // A structurally valid spec the grid cannot lower is rejected by the
    // server with the bench layer's first error.
    let mut spec = tiny_spec("svc-bad", 2);
    spec.cells[1].scheme = "psychic".to_string();
    let err = submit(&addr, &spec.render(), true, 5).unwrap_err();
    assert_eq!(err, "cells[1].scheme: unknown scheme \"psychic\"");
}

#[test]
fn unbuildable_specs_are_errors_and_the_server_keeps_serving() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: None,
        jobs: 1,
        workers_hint: 1,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    // Sizes no family is defined for, rejected by the server with an
    // `Error` reply rather than a panic on the connection thread.
    let mut spec = tiny_spec("svc-tiny", 2);
    spec.instances[1].n = 3;
    let err = submit(&addr, &spec.render(), true, 5).unwrap_err();
    assert_eq!(err, "instances[1].n: family \"path\" needs n >= 4, got 3");
    // A poll count above u32::MAX is rejected, not truncated to 0.
    let mut spec = tiny_spec("svc-polls", 2);
    spec.cells[0].quiescence_polls = Some(1 << 32);
    let err = submit(&addr, &spec.render(), true, 5).unwrap_err();
    assert_eq!(
        err,
        "cells[0].quiescence_polls: 4294967296 exceeds 4294967295"
    );
    // The same server still accepts, runs and merges a valid job.
    let spec = tiny_spec("svc-after-tiny", 4);
    let local = run_local(&spec, 2).unwrap();
    let spec_text = spec.render();
    let submit_addr = addr.clone();
    let client = thread::spawn(move || submit(&submit_addr, &spec_text, true, 5));
    let worker = run_worker(&worker_config(&addr, "w-0", None)).expect("worker");
    assert!(
        matches!(worker, WorkerOutcome::Finished { .. }),
        "{worker:?}"
    );
    assert_eq!(client.join().unwrap().expect("submit"), local);
    server_thread.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole invariant: local, 1-worker, and 3-worker runs of a
    /// random small sweep produce byte-identical merged artifacts.
    #[test]
    fn local_one_worker_and_three_workers_agree(cells in 1usize..9, threads in 1usize..4) {
        let spec = tiny_spec("svc-prop", cells);
        let local = run_local(&spec, threads).unwrap();
        prop_assert_eq!(&run_distributed(&spec, 1, None), &local);
        prop_assert_eq!(&run_distributed(&spec, 3, None), &local);
    }
}
