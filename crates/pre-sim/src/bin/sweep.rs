//! Declarative parameter sweeps over one (workload, technique) pair.
//!
//! Expands a grid (`--grid dim=v1,v2,... --grid dim=...`) into its Cartesian
//! product, runs every point over the worker pool, and prints a table plus
//! an optional JSON/CSV dump. Points share one warm-up snapshot per workload
//! (`--warmup`) and answer from the result cache when they have run before
//! (in-memory within one invocation; across invocations when `PRE_CACHE_DIR`
//! names a directory).
//!
//! Usage:
//!
//! ```text
//! sweep [--workload <name>] [--technique <name>] [--budget <uops>]
//!       [--warmup <uops>] [--grid dim=v1,v2,...]... [--json <path>]
//!       [--csv <path>] [--no-cache] [--expect-min-hit-rate <pct>]
//!       [--fail-fast] [--max-retries <n>] [--sample [n=K,interval=N]]
//! ```
//!
//! Dimensions: `emq`, `sst`, `rob`, `iq`, `prdq`, `min-free-int`,
//! `min-free-fp`, `l3-kb`, `min-ra-cycles`.
//!
//! `--sample` estimates every point by SimPoint-style interval sampling
//! instead of a full detailed run: point IPCs are printed with a `~` prefix,
//! and the JSON report records the sampling parameters and marks the points
//! `"sampled": true`. The profile and clustering are computed once per
//! (workload, budget) and shared by all points.
//!
//! Points that differ only in `sst` share one simulation when the largest
//! SST of the group never evicted (any table that holds every PC the run
//! inserted behaves the same); the summary line counts the points answered
//! that way as `N from SST siblings`. A dimension given twice, or a value
//! listed twice in one dimension, is a usage error.
//!
//! Failures are isolated: a point that errors or panics is reported (and
//! retried `--max-retries` times) while the rest of the grid completes; the
//! exit code is then 1 and the JSON report lists the failed points.
//! `--fail-fast` stops launching new points after the first failure.

use pre_runahead::Technique;
use pre_sim::experiments::{parse_sample, sample_value};
use pre_sim::sweep::{cache_hit_rate, sweep_csv, sweep_json, GridDim, Sweep, ALL_DIMS};
use pre_workloads::Workload;
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

struct Args {
    sweep: Sweep,
    json: Option<String>,
    csv: Option<String>,
    expect_min_hit_rate: Option<f64>,
}

/// Prints usage (to stdout for `--help`, else to stderr) and exits with
/// `code`.
fn usage(code: i32) -> ! {
    let dims: Vec<_> = ALL_DIMS.iter().map(|d| d.name()).collect();
    let text = format!(
        "usage: sweep [--workload <name>] [--technique <name>] [--budget <uops>] \
         [--warmup <uops>] [--grid dim=v1,v2,...]... [--json <path>] [--csv <path>] \
         [--no-cache] [--expect-min-hit-rate <pct>] [--fail-fast] [--max-retries <n>] \
         [--sample [n=K,interval=N]]\ndimensions: {}",
        dims.join(", ")
    );
    if code == 0 {
        println!("{text}");
    } else {
        eprintln!("{text}");
    }
    std::process::exit(code);
}

/// Prints `msg` and the usage to stderr and exits 2.
fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    usage(2);
}

/// Reads and parses the value of `flag`, or exits 2 with usage.
fn flag_value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T
where
    T::Err: fmt::Display,
{
    let Some(text) = args.next() else {
        fail(format!("{flag} requires a value"));
    };
    text.parse()
        .unwrap_or_else(|e| fail(format!("bad {flag} value `{text}`: {e}")))
}

fn parse_args() -> Args {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        usage(0);
    }
    // Defaults mirror the EMQ ablation: lbm-like under PRE+EMQ.
    let mut sweep = Sweep::new(Workload::LbmLike, Technique::PreEmq);
    sweep.budget = 150_000;
    sweep.use_result_cache = true;
    let mut json = None;
    let mut csv = None;
    let mut expect_min_hit_rate = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        if arg == "--sample" || arg.starts_with("--sample=") {
            // The value is optional, read by the rule every binary shares.
            let spec = match arg.strip_prefix("--sample=") {
                Some(value) => parse_sample(value),
                None => sample_value(&mut args),
            };
            sweep.sample = Some(spec.unwrap_or_else(|e| fail(e)));
            continue;
        }
        match arg.as_str() {
            "--workload" => sweep.workload = flag_value(&mut args, &arg),
            "--technique" => sweep.technique = flag_value(&mut args, &arg),
            "--budget" => sweep.budget = flag_value(&mut args, &arg),
            "--warmup" => sweep.warmup_uops = flag_value(&mut args, &arg),
            "--grid" => {
                let grid: GridDim = flag_value(&mut args, &arg);
                if sweep.dims.iter().any(|d| d.dim == grid.dim) {
                    fail(format!("{arg} gives dimension `{}` twice", grid.dim));
                }
                sweep.dims.push(grid);
            }
            "--json" => json = Some(flag_value(&mut args, &arg)),
            "--csv" => csv = Some(flag_value(&mut args, &arg)),
            "--no-cache" => sweep.use_result_cache = false,
            "--expect-min-hit-rate" => {
                // A range check, unlike a `<` comparison, also refuses `nan`.
                let pct: f64 = flag_value(&mut args, &arg);
                if !(0.0..=100.0).contains(&pct) {
                    fail(format!("{arg} takes a percentage in 0-100, not {pct}"));
                }
                expect_min_hit_rate = Some(pct / 100.0);
            }
            "--fail-fast" => sweep.fail_fast = true,
            "--max-retries" => sweep.max_retries = flag_value(&mut args, &arg),
            _ => fail(format!("unrecognized argument `{arg}`")),
        }
    }
    Args {
        sweep,
        json,
        csv,
        expect_min_hit_rate,
    }
}

fn main() {
    let args = parse_args();
    let sweep = &args.sweep;
    eprintln!(
        "sweep: {} / {} — {} points, budget {} uops, warmup {} uops, cache {}",
        sweep.workload.name(),
        sweep.technique.label(),
        sweep.num_points(),
        sweep.budget,
        sweep.warmup_uops,
        if sweep.use_result_cache { "on" } else { "off" },
    );
    let start = Instant::now();
    let run = sweep.run_isolated(|p| {
        eprintln!(
            "  [{:>7.2}s] {:<28} ipc {}{:.3}{}",
            start.elapsed().as_secs_f64(),
            p.label(),
            if p.result.sample.is_some() { "~" } else { "" },
            p.result.ipc(),
            if p.result.cache_hit { "  (cached)" } else { "" },
        );
    });
    let elapsed = start.elapsed().as_secs_f64();
    let points = &run.points;

    println!(
        "{:<28} {:>8} {:>12} {:>10} {:>7} {:>9}",
        "point", "ipc", "cycles", "energy-mJ", "cache", "deadlock"
    );
    for p in points {
        println!(
            "{:<28} {:>8} {:>12} {:>10.2} {:>7} {:>9}",
            p.label(),
            format!(
                "{}{:.3}",
                if p.result.sample.is_some() { "~" } else { "" },
                p.result.ipc()
            ),
            p.result.stats.cycles,
            p.result.energy_mj(),
            if p.result.cache_hit { "hit" } else { "sim" },
            if p.result.deadlocked { "YES" } else { "-" },
        );
    }
    for f in &run.failures {
        println!(
            "{:<28} FAILED ({} attempts): {}",
            f.label(),
            f.attempts,
            f.error
        );
    }
    let hit_rate = cache_hit_rate(points);
    println!(
        "{} of {} points in {:.2}s ({:.1} points/s), cache hit rate {:.1}%, {} from SST siblings{}",
        points.len(),
        run.total,
        elapsed,
        points.len() as f64 / elapsed.max(1e-9),
        hit_rate * 100.0,
        run.from_sst_siblings,
        if run.failures.is_empty() {
            String::new()
        } else {
            format!(", {} FAILED", run.failures.len())
        },
    );

    if let Some(path) = &args.json {
        let text = sweep_json(sweep, points, &run.failures, elapsed);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if let Some(path) = &args.csv {
        let text = sweep_csv(sweep, points);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }

    let mut failed = points.iter().any(|p| p.result.deadlocked) || !run.failures.is_empty();
    if let Some(min) = args.expect_min_hit_rate {
        if hit_rate < min {
            eprintln!(
                "cache hit rate {:.1}% below required {:.1}%",
                hit_rate * 100.0,
                min * 100.0
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
