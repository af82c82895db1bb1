//! Regenerates Figure 3: energy savings (core + DRAM) of RA, RA-buffer, PRE
//! and PRE+EMQ relative to the out-of-order baseline.
//!
//! Usage: `fig3_energy [--suite synthetic|asm|mixed] [--reference-scheduler]
//! [--warmup <uops>] [--trace <spec>] [--sample [n=K,interval=N]]
//! [max_uops_per_run]` (defaults: the synthetic memory-intensive suite,
//! 300 000 uops, event-driven scheduler). The flags mean what they mean for
//! `full_eval`; sampled cells are marked `~`.

use pre_sim::experiments::{
    cli_from_args, fig3_summary, fig3_table, run_suite_matrix_cli_isolated, Suite,
    DEFAULT_EVAL_UOPS,
};

fn main() {
    let cli = cli_from_args(DEFAULT_EVAL_UOPS);
    eprintln!(
        "running the Figure 3 evaluation matrix over the {} suite ({} committed uops per run)...",
        cli.suite, cli.budget
    );
    let matrix = run_suite_matrix_cli_isolated(&cli, |r| {
        eprintln!(
            "  {:<18} {:<10} energy {}{:.3} mJ",
            r.workload.name(),
            r.technique.label(),
            if r.sample.is_some() { "~" } else { "" },
            r.energy_mj()
        );
    })
    .into_result()
    .expect("evaluation matrix");
    let table = fig3_table(&matrix);
    println!("{}", table.render());
    if cli.suite == Suite::Synthetic {
        println!("paper-vs-measured (average energy savings over OoO):");
        println!("{}", fig3_summary(&matrix));
    }
    if let Err(e) = table.write_csv("fig3_energy.csv") {
        eprintln!("could not write fig3_energy.csv: {e}");
    } else {
        eprintln!("wrote fig3_energy.csv");
    }
}
