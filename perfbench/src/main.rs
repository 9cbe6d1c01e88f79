//! The repository benchmark: three workloads driven through the
//! workspace's public API, every output checked.
//!
//! ```text
//! perfbench --workload <scale-1e6|sweep-20k|service-loopback> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Untraced (`--trace 0`) runs report the
//! end-to-end metrics; traced runs report the per-layer metrics, write
//! their spans to `.perfbench_out/`, and report tracing overhead. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod env;
mod pipeline;
mod probe;
mod scale;
mod service;
mod spans;
mod specs;
mod stats;
mod sweep;
mod workload;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use oraclesize_runtime::Json;

use crate::stats::Series;
use crate::workload::{Config, Outcome};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["scale-1e6", "sweep-20k", "service-loopback"];

const USAGE: &str = "usage: perfbench --workload <scale-1e6|sweep-20k|service-loopback> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        "scale-1e6" => scale::run(cfg),
        "sweep-20k" => sweep::run(cfg),
        _ => service::run(cfg),
    }
}

/// The result line: the only thing the last line of stdout ever holds.
fn result_line(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &outcome.metrics {
        let v = m.value();
        if !v.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let t = &outcome.tally;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0 && t.attempted > 0,
        t.attempted,
        t.failed,
        metrics.join(", ")
    ))
}

/// The context line: machine, build, source, settings, sample counts,
/// and the CPU time the host took from the machine during the run.
fn context_line(args: &Args, root: &Path, outcome: &Outcome, steal: &str) -> String {
    let mut ctx = Json::obj()
        .field("workload", args.workload)
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("nproc", env::nproc())
        .field("profile", env::profile())
        .field("rustc", env::rustc())
        .field("commit", env::commit(root).as_str())
        .field("host_steal_s", steal);
    for (k, v) in &outcome.settings {
        ctx = ctx.field(k, v.as_str());
    }
    let samples = outcome
        .metrics
        .iter()
        .fold(Json::obj(), |j, m: &Series| j.field(m.name, m.basis));
    ctx.field("samples", samples).render()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let tmp = root
        .join(".perfbench_tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = fs::create_dir_all(&tmp) {
        eprintln!("perfbench: create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        root: root.clone(),
        tmp: tmp.clone(),
    };
    let steal_before = env::host_steal_s();
    let outcome = run_workload(args.workload, &cfg);
    let steal = env::host_steal_s()
        .zip(steal_before)
        .map_or("unknown".to_string(), |(a, b)| format!("{:.2}", a - b));
    // Journals are scratch; a failed removal only leaves files behind.
    let _ = fs::remove_dir_all(&tmp);
    let _ = fs::remove_dir(root.join(".perfbench_tmp"));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let dir = root.join(".perfbench_out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let written =
            fs::create_dir_all(&dir).and_then(|()| fs::write(&path, outcome.tracer.to_jsonl()));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    for reason in &outcome.tally.reasons {
        eprintln!("perfbench: check failed: {reason}");
    }
    for m in &outcome.metrics {
        println!("{}", m.describe());
        eprintln!("perfbench: {} samples {:?}", m.name, m.samples);
    }
    let t = &outcome.tally;
    println!(
        "{:<28} {:>14.6} {:<6} ({} failed of {} attempted)",
        "error_rate",
        t.error_rate(),
        "1",
        t.failed,
        t.attempted
    );
    println!("context: {}", context_line(&args, &root, &outcome, &steal));
    match result_line(&outcome) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Tally;
    use crate::spans::Tracer;

    #[test]
    fn args_parse_and_reject() {
        let ok: Vec<String> = "--workload sweep-20k --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&ok).expect("parses");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("sweep-20k", 3, 10, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 1",
            "--workload sweep-20k --seed x --seconds 10 --trace 1",
            "--workload sweep-20k --seed 3 --seconds 10 --trace 2",
            "--workload sweep-20k --seed 3 --seconds 10",
        ] {
            let argv: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&argv).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        let mut s = Series::new("artifact_s", "s");
        s.push(1.25);
        let outcome = Outcome {
            tally,
            metrics: vec![s],
            settings: Vec::new(),
            tracer: Tracer::new(false),
        };
        assert_eq!(
            result_line(&outcome).unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"artifact_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
