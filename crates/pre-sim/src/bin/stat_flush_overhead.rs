//! Stat A (Section 2.4): the flush/refill penalty every traditional-runahead
//! invocation pays — analytically 8 (front-end refill) + 192/4 (window
//! re-dispatch) = 56 cycles, compared against the measured per-invocation
//! overhead of the RA configuration.
//!
//! Usage: `stat_flush_overhead [max_uops_per_run]`.

use pre_sim::experiments::{budget_from_args, stat_flush_overhead, DEFAULT_EVAL_UOPS};

fn main() {
    let budget = budget_from_args(DEFAULT_EVAL_UOPS / 2);
    let table = stat_flush_overhead(budget).expect("stat A runs");
    println!("{}", table.render());
    println!("paper: approximately 56 cycles per invocation for a 192-entry ROB");
}
