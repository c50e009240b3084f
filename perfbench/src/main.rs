//! End-to-end benchmark of the BYOM storage-placement workspace.
//!
//! ```text
//! perfbench --workload <retrain|online_placement|quota_sweep|faulted_placement>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every input is generated from `--seed` (default [`DEFAULT_SEED`]); the
//! library crates only see the generated traces. An untraced run prints the
//! end-to-end metrics; a traced run (`--trace 1`) makes the same calls one
//! layer at a time, each in a span, and prints the per-layer metrics, the
//! self time of each layer and the tracing overhead. Both runs check their
//! outputs; the last stdout line is one JSON object, and the exit code is
//! non-zero when any check failed. See `perfbench/README.md`.

mod common;
mod online;
mod placement;
mod procfs;
mod reference;
mod report;
mod retrain;
mod spans;
mod stats;
mod sweep;

use common::Run;
use report::{per_layer_catalog, END_TO_END};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

/// A workload's body.
type Workload = fn(&Run) -> report::Outcome;

/// The workloads, by name.
const WORKLOADS: [(&str, Workload); 4] = [
    ("retrain", retrain::retrain),
    ("online_placement", online::online),
    ("quota_sweep", sweep::quota_sweep),
    ("faulted_placement", online::faulted),
];

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let mut workload = None;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut run = Run {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        threads,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => run.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => run.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(run.seconds.is_finite() && run.seconds >= 0.0) {
        return Err(format!(
            "--seconds {} must be a non-negative number",
            run.seconds
        ));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, run))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    let (workload, run) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}; workloads: {}", names.join(", "));
            std::process::exit(2);
        }
    };
    let Some((_, body)) = WORKLOADS.iter().find(|(n, _)| *n == workload) else {
        eprintln!(
            "perfbench: unknown workload {workload}; workloads: {}",
            names.join(", ")
        );
        std::process::exit(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench {workload}: seed {} seconds {} trace {} threads {} nproc {nproc}",
        run.seed, run.seconds, run.trace as u8, run.threads
    );
    if !run.trace {
        reference::enable();
    }
    let outcome = body(&run);
    let ok = if run.trace {
        outcome.emit(&per_layer_catalog(), false)
    } else {
        let catalog: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        outcome.emit(&catalog, true)
    };
    std::process::exit(if ok { 0 } else { 1 });
}
