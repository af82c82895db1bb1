//! Stat D (Section 5.1): PRE and PRE+EMQ invoke runahead execution more often
//! than traditional runahead (1.62× and 1.95× in the paper) because entry and
//! exit are cheap enough to profit from short intervals.
//!
//! Usage: `stat_invocations [--suite synthetic|asm|mixed]
//! [--reference-scheduler] [--warmup <uops>] [--trace <spec>]
//! [--sample [n=K,interval=N]] [max_uops_per_run]` (the flags mean what they
//! mean for `full_eval`).

use pre_sim::experiments::{
    cli_from_args, run_suite_matrix_cli_isolated, stat_invocations, DEFAULT_EVAL_UOPS,
};

fn main() {
    let cli = cli_from_args(DEFAULT_EVAL_UOPS / 2);
    let matrix = run_suite_matrix_cli_isolated(&cli, |_| {})
        .into_result()
        .expect("evaluation matrix");
    println!("{}", stat_invocations(&matrix).render());
}
