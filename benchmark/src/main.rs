//! The serving-stack benchmark. See `README.md` beside this package for
//! what is measured and why; `BENCHMARK.json` at the repository root
//! declares the workloads, the metrics and their bounds.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! benchmark ladder [--smoke]
//! benchmark compare <a.jsonl> <b.jsonl>
//! ```

mod compare;
mod host;
mod ladder;
mod run;
mod schedule;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use spec::{Contract, SPECS};

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  benchmark ladder [--smoke]
  benchmark compare <a.jsonl> <b.jsonl>";

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_run(args: &[String]) -> Result<run::Options, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out = out_dir().join("results.jsonl");
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not understood");
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = Some(value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names = || SPECS.iter().map(|s| s.name).collect::<Vec<_>>().join(", ");
    let workload = workload.ok_or_else(|| format!("--workload is required: one of {}", names()))?;
    let spec = spec::find(workload)
        .ok_or_else(|| format!("unknown workload {workload}: one of {}", names()))?;
    // `--smoke` shows that the benchmark runs; 2 s windows carry no claim.
    let seconds = match (smoke, seconds) {
        (true, _) => 2.0,
        (false, Some(seconds)) => seconds,
        (false, None) => Contract::load().run_seconds as f64,
    };
    Ok(run::Options { spec, seed, seconds, trace, smoke, out })
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [a, b] = &args[1..] else { return Err(USAGE.into()) };
            let a = compare::read_records(a.as_ref())?;
            let b = compare::read_records(b.as_ref())?;
            Ok(compare::print(&compare::compare(&Contract::load(), &a, &b)?))
        }
        Some("ladder") => {
            host::refuse_haac_env()?;
            let rung = match &args[1..] {
                [] => Duration::from_secs(1),
                [smoke] if smoke == "--smoke" => Duration::from_millis(20),
                _ => return Err(USAGE.into()),
            };
            println!(
                "ladder | nproc {} | aes {} | about {:?} per rung",
                host::nproc(),
                haac_gc::active_backend().name(),
                rung
            );
            ladder::print(&ladder::run(rung)?);
            Ok(true)
        }
        Some(_) => {
            host::refuse_haac_env()?;
            run::run(&parse_run(args)?)
        }
        None => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
