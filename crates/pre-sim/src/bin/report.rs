//! Prints one of the paper's tables or statistics that need no evaluation
//! matrix (Figures 2 and 3 and Stat D come from `full_eval`):
//!
//! | name | prints |
//! |---|---|
//! | `table1` | Table 1 (the baseline core) from the live simulator defaults, plus Stat E (§3.6): the storage overhead of the PRE structures |
//! | `flush-overhead` | Stat A (§2.4): the flush/refill penalty per traditional-runahead invocation, against the analytic 8 + 192/4 = 56 cycles |
//! | `intervals` | Stat B (§2.4): runahead-interval lengths; the paper finds 27 % shorter than 20 cycles |
//! | `free-resources` | Stat C (§3.4): free IQ entries and registers at runahead entry, the headroom PRE runs stalling slices in |
//! | `sst` | Stat F (§3.6): SST capacity sensitivity |
//! | `emq` | EMQ capacity sensitivity (§3.3; the paper evaluates 768 entries) |
//!
//! Usage: `report <name> [max_uops]` (default 150 000 committed uops per
//! run; `table1` simulates nothing). `free-resources` also takes `--suite
//! synthetic|asm|mixed`; any other flag is a usage error (exit 2).

use pre_energy::HardwareOverhead;
use pre_model::config::SimConfig;
use pre_model::error::SimError;
use pre_sim::experiments::{
    cli_from_args, emq_sensitivity, sst_sensitivity, stat_flush_overhead, stat_free_resources,
    stat_intervals, table1, CliArgs, Flag, DEFAULT_EVAL_UOPS,
};

const USAGE: &str = "\
usage: report <table1|flush-overhead|intervals|free-resources|sst|emq> [max_uops]
       report free-resources [--suite synthetic|asm|mixed] [max_uops]";

type Report = fn(&CliArgs) -> Result<(), SimError>;

const REPORTS: [(&str, Report); 6] = [
    ("table1", print_table1),
    ("flush-overhead", print_flush_overhead),
    ("intervals", print_intervals),
    ("free-resources", print_free_resources),
    ("sst", print_sst),
    ("emq", print_emq),
];

fn main() {
    let (report, cli) = cli_from_args(USAGE, DEFAULT_EVAL_UOPS / 2, |cli| {
        let name = cli.names.first().ok_or("report needs a name")?;
        let &(_, report) = REPORTS
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("unknown report `{name}`"))?;
        let flags: &[Flag] = if name == "free-resources" {
            &[Flag::Suite]
        } else {
            &[]
        };
        Ok((report, cli.only(flags, 1)?))
    });
    if let Err(e) = report(&cli) {
        eprintln!("report failed: {e}");
        std::process::exit(1);
    }
}

fn print_table1(_: &CliArgs) -> Result<(), SimError> {
    println!("{}", table1().render());
    let cfg = SimConfig::haswell_like();
    println!("== Section 3.6 — hardware overhead ==");
    println!("{}", HardwareOverhead::for_config(&cfg.runahead));
    println!();
    println!(
        "paper: SST 1 KB, PRDQ 768 B, RAT extension 256 B (2 KB total), EMQ +3 KB, runahead buffer ~1.7 KB"
    );
    println!(
        "isolated LLC-miss latency (closed page): {} core cycles",
        cfg.dram_closed_page_latency() + cfg.l1d.latency + cfg.l2.latency + cfg.l3.latency
    );
    Ok(())
}

fn print_flush_overhead(cli: &CliArgs) -> Result<(), SimError> {
    println!("{}", stat_flush_overhead(cli.budget)?.render());
    println!("paper: approximately 56 cycles per invocation for a 192-entry ROB");
    Ok(())
}

fn print_intervals(cli: &CliArgs) -> Result<(), SimError> {
    println!("{}", stat_intervals(cli.budget)?.render());
    println!("paper: ~27 % of runahead intervals are shorter than 20 cycles");
    Ok(())
}

fn print_free_resources(cli: &CliArgs) -> Result<(), SimError> {
    println!("{}", stat_free_resources(cli.suite, cli.budget)?.render());
    println!("paper: ~37 % IQ, ~51 % integer registers, ~59 % FP registers free at entry");
    println!("note: see the README, \"Register reclamation and the PRDQ\" — our");
    println!("synthetic integer kernels are denser in destination-writing micro-ops");
    println!("than SPEC x86 code, so the integer-register headroom is smaller for the");
    println!("integer workloads.");
    Ok(())
}

fn print_sst(cli: &CliArgs) -> Result<(), SimError> {
    println!(
        "{}",
        sst_sensitivity(cli.budget, &[4, 8, 16, 64, 256])?.render()
    );
    println!("paper: a 256-entry SST holds the stalling slices with almost no misses");
    Ok(())
}

fn print_emq(cli: &CliArgs) -> Result<(), SimError> {
    println!(
        "{}",
        emq_sensitivity(cli.budget, &[192, 384, 768, 1536])?.render()
    );
    println!(
        "paper: PRE+EMQ with a 768-entry EMQ improves performance by 28.6 % vs 35.5 % for PRE"
    );
    Ok(())
}
