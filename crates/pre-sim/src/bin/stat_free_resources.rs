//! Stat C (Section 3.4): free back-end resources at runahead entry. The paper
//! reports ≈37 % of issue-queue entries, ≈51 % of integer and ≈59 % of
//! floating-point physical registers free on average — the headroom PRE uses
//! to execute stalling slices without discarding the window.
//!
//! Usage: `stat_free_resources [--suite synthetic|asm|mixed]
//! [--reference-scheduler] [max_uops_per_run]`.

use pre_sim::experiments::{cli_from_args, stat_free_resources_with, DEFAULT_EVAL_UOPS};

fn main() {
    let cli = cli_from_args(DEFAULT_EVAL_UOPS / 2);
    if cli.warmup != 0 || cli.trace.is_some() || cli.sample.is_some() {
        eprintln!("stat_free_resources takes no --warmup, --trace or --sample");
        eprintln!(
            "usage: stat_free_resources [--suite synthetic|asm|mixed] \
             [--reference-scheduler] [max_uops]"
        );
        std::process::exit(2);
    }
    let table =
        stat_free_resources_with(cli.suite, &cli.config(), cli.budget).expect("stat C runs");
    println!("{}", table.render());
    println!("paper: ~37 % IQ, ~51 % integer registers, ~59 % FP registers free at entry");
    println!("note: see the README, \"Register reclamation and the PRDQ\" — our");
    println!("synthetic integer kernels are denser in destination-writing micro-ops");
    println!("than SPEC x86 code, so the integer-register headroom is smaller for the");
    println!("integer workloads.");
}
