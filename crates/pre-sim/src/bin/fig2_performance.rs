//! Regenerates Figure 2: performance of RA, RA-buffer, PRE and PRE+EMQ
//! normalized to the out-of-order baseline, for every workload in the
//! selected suite plus the geometric mean.
//!
//! Usage: `fig2_performance [--suite synthetic|asm|mixed]
//! [--reference-scheduler] [--warmup <uops>] [--trace <spec>]
//! [--sample [n=K,interval=N]] [max_uops_per_run]` (defaults: the synthetic
//! memory-intensive suite, 300 000 uops, event-driven scheduler). The flags
//! mean what they mean for `full_eval`; sampled cells are marked `~`.

use pre_sim::experiments::{
    cli_from_args, fig2_summary, fig2_table, run_suite_matrix_cli_isolated, Suite,
    DEFAULT_EVAL_UOPS,
};

fn main() {
    let cli = cli_from_args(DEFAULT_EVAL_UOPS);
    eprintln!(
        "running the Figure 2 evaluation matrix over the {} suite ({} committed uops per run)...",
        cli.suite, cli.budget
    );
    let matrix = run_suite_matrix_cli_isolated(&cli, |r| {
        eprintln!(
            "  {:<18} {:<10} ipc {}{:.3}  runahead entries {}",
            r.workload.name(),
            r.technique.label(),
            if r.sample.is_some() { "~" } else { "" },
            r.ipc(),
            r.stats.runahead_entries
        );
    })
    .into_result()
    .expect("evaluation matrix");
    let table = fig2_table(&matrix);
    println!("{}", table.render());
    if cli.suite == Suite::Synthetic {
        println!("paper-vs-measured (average improvement over OoO):");
        println!("{}", fig2_summary(&matrix));
    }
    if let Err(e) = table.write_csv("fig2_performance.csv") {
        eprintln!("could not write fig2_performance.csv: {e}");
    } else {
        eprintln!("wrote fig2_performance.csv");
    }
    if matrix.any_deadlocked() {
        eprintln!("WARNING: at least one run hit the deadlock watchdog");
        std::process::exit(1);
    }
}
