//! Host-time benchmark of the PRE simulator's three workflows.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <matrix-mixed|sweep-fork|sampled-long> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of standard
//! output is a JSON object holding every end-to-end metric; with
//! `--trace 1` it holds every per-layer metric instead. The lines before it
//! are the log: checks, deterministic counts and how each figure was
//! derived. `--seed` feeds `WorkloadParams::seed`, which changes only the
//! randomized layouts of mcf-like, omnetpp-like and gcc-like. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod check;
mod counts;
mod measure;
mod probe;
mod run;
mod workloads;

use measure::result_json;
use std::process::ExitCode;
use workloads::{Args, NAMES};

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut args = Args {
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(|v| args.seconds = v)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" => {
                    args.trace = false;
                    true
                }
                "1" => {
                    args.trace = true;
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !parsed {
            return usage(&format!("bad value `{value}` for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let workers = pre_par::num_threads(usize::MAX);
    println!(
        "perfbench {workload}: seed {} seconds {} trace {} workers {workers} (available parallelism {})",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let Some(report) = workloads::run(&workload, &args) else {
        return usage(&format!("unknown workload `{workload}`"));
    };
    for line in &report.lines {
        println!("{line}");
    }
    for problem in &report.problems {
        println!("FAILED: {problem}");
    }
    println!(
        "{}",
        result_json(
            report.problems.is_empty(),
            report.attempted,
            report.failed(),
            &report.metrics
        )
    );
    ExitCode::SUCCESS
}
