//! Quick sanity check: run a few representative workloads under every
//! technique with a small budget and print IPC, runahead activity and
//! energy. Intended for development and for a fast "does the reproduction
//! behave sensibly" smoke test; the real figures come from `full_eval`.
//!
//! Usage: `quick_check [--suite synthetic|asm|mixed] [--warmup <uops>]
//! [--trace <spec>] [--sample [n=K,interval=N]] [max_uops]` (`--suite asm`
//! smoke-tests every assembled RISC-V kernel). Cells consult the result
//! cache (persisted when `PRE_CACHE_DIR` is set); the `cache` column shows
//! `hit` for cells answered from it and `sim` for cells actually simulated.
//! With `--sample`, cells are *estimated* by SimPoint-style interval
//! sampling: their IPC is printed with a `~` prefix and the sampling
//! metadata (clusters, coverage, weights) follows the table.
//!
//! Cells run in parallel and are failure-isolated: a cell that errors or
//! panics prints its failure in its row's place and the remaining cells
//! still run; the exit code is then 1. Speedups of a workload whose
//! out-of-order baseline failed print as `-`. A watchdog-terminated cell
//! additionally dumps its diagnostics (cycle, occupancies, last committed
//! PCs).

use pre_model::stats::TerminationKind;
use pre_sim::experiments::{cli_from_args, suite_matrix_specs, Flag};
use pre_sim::matrix::EvaluationMatrix;

const USAGE: &str = "usage: quick_check [--suite synthetic|asm|mixed] [--warmup <uops>] \
                     [--trace <spec>] [--sample [n=K,interval=N]] [max_uops]";

fn main() {
    let cli = cli_from_args(USAGE, 60_000, |cli| cli.only(&Flag::ALL, 0));
    // The synthetic suite is large, so the quick check runs the reduced
    // representative matrix; the cell order is the canonical
    // `Suite::quick_cells` order shared with the other binaries.
    let specs = suite_matrix_specs(&cli, cli.suite.quick_cells());
    let run = EvaluationMatrix::run_specs_isolated(&specs, |_| {});
    println!(
        "{:<18} {:<10} {:>7} {:>9} {:>8} {:>9} {:>10} {:>9} {:>8} {:>8} {:>8} {:>6} {:>8} {:>6}",
        "workload",
        "technique",
        "ipc",
        "speedup",
        "entries",
        "ra-cycles",
        "prefetches",
        "useful",
        "prdq",
        "fwd",
        "fwd-blk",
        "ff",
        "mJ",
        "cache"
    );
    let mut failed = !run.is_complete();
    let mut failures = run.failures.iter().peekable();
    let mut sample_lines: Vec<String> = Vec::new();
    for (index, spec) in specs.iter().enumerate() {
        let (workload, technique) = (spec.workload, spec.technique);
        if let Some(failure) = failures.next_if(|f| f.index == index) {
            println!("{workload} / {technique}: FAILED: {}", failure.error);
            continue;
        }
        let Some(result) = run.matrix.get(workload, technique) else {
            continue;
        };
        let marker = match result.terminated() {
            TerminationKind::Completed => "",
            TerminationKind::MaxCycles => "  ! MAX-CYCLES",
            TerminationKind::Watchdog => "  ! WATCHDOG",
        };
        failed |= result.terminated() == TerminationKind::Watchdog;
        // `~` marks extrapolated (sampled) numbers so they are never
        // mistaken for measured ones.
        let est = if result.sample.is_some() { "~" } else { "" };
        if let Some(meta) = &result.sample {
            sample_lines.push(format!(
                "  {} {}: {}",
                workload.name(),
                technique.label(),
                meta.summary()
            ));
        }
        // `-` when the workload's out-of-order baseline cell failed.
        let speedup = run
            .matrix
            .speedup(workload, technique)
            .map_or_else(|| "-".to_string(), |s| format!("{est}{s:.3}"));
        println!(
            "{:<18} {:<10} {:>7} {:>9} {:>8} {:>9} {:>10} {:>9} {:>8} {:>8} {:>8} {:>6.3} {:>8.2} {:>6}{}",
            workload.name(),
            technique.label(),
            format!("{est}{:.3}", result.ipc()),
            speedup,
            result.stats.runahead_entries,
            result.stats.runahead_cycles,
            result.stats.runahead_prefetches_issued,
            result.stats.runahead_prefetches_useful,
            result.stats.prdq_allocations,
            result.stats.lsq_forwards,
            result.stats.forward_blocked_partial,
            result.stats.ff_fraction(),
            result.energy_mj(),
            if result.cache_hit { "hit" } else { "sim" },
            marker,
        );
        if let Some(e) = result.watchdog_error() {
            eprintln!("  {e}");
        }
    }
    if !sample_lines.is_empty() {
        println!("sampling metadata (~ rows are extrapolated):");
        for line in sample_lines {
            println!("{line}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
