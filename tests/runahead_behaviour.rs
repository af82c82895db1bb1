//! Cross-crate behavioural tests of the runahead machinery: the paper's
//! qualitative claims that do not depend on exact performance numbers.

use precise_runahead::core::OooCore;
use precise_runahead::model::config::SimConfig;
use precise_runahead::model::stats::SimStats;
use precise_runahead::runahead::Technique;
use precise_runahead::workloads::{Workload, WorkloadParams};

fn run(workload: Workload, technique: Technique, uops: u64) -> SimStats {
    let program = workload.build(&WorkloadParams::default());
    let cfg = SimConfig::haswell_like();
    let mut core = OooCore::new(&cfg, &program, technique).expect("core builds");
    core.run(uops, 50_000_000);
    assert!(
        !core.deadlocked(),
        "{workload} under {technique} deadlocked"
    );
    core.stats().clone()
}

#[test]
fn memory_bound_workloads_stall_and_enter_runahead() {
    let stats = run(Workload::LbmLike, Technique::Pre, 20_000);
    assert!(
        stats.full_window_stalls > 10,
        "expected frequent full-window stalls"
    );
    assert!(stats.runahead_entries > 10, "PRE should enter runahead");
    assert_eq!(
        stats.runahead_entries, stats.runahead_exits,
        "every entry must exit"
    );
    assert!(stats.runahead_cycles > 0);
    assert!(
        stats.runahead_prefetches_issued > 0,
        "runahead should prefetch"
    );
}

#[test]
fn compute_bound_workloads_never_enter_runahead() {
    for technique in Technique::RUNAHEAD {
        let stats = run(Workload::ComputeBound, technique, 20_000);
        assert_eq!(
            stats.runahead_entries, 0,
            "{technique} entered runahead without misses"
        );
        assert_eq!(stats.runahead_prefetches_issued, 0);
    }
}

#[test]
fn pre_invokes_runahead_more_often_than_traditional_runahead() {
    // Section 5.1: PRE enters runahead more frequently because entry and exit
    // are cheap and short intervals are still profitable.
    let ra = run(Workload::MilcLike, Technique::Runahead, 20_000);
    let pre = run(Workload::MilcLike, Technique::Pre, 20_000);
    assert!(
        pre.runahead_entries > ra.runahead_entries,
        "PRE entries {} should exceed RA entries {}",
        pre.runahead_entries,
        ra.runahead_entries
    );
    // The efficient-runahead policy must actually skip some short intervals.
    assert!(ra.runahead_entries_skipped_short + ra.runahead_entries_skipped_overlap > 0);
    assert_eq!(
        pre.runahead_entries_skipped_short, 0,
        "PRE never skips entries"
    );
}

#[test]
fn flush_style_runahead_pays_refill_overhead_and_pre_does_not() {
    let ra = run(Workload::LbmLike, Technique::Runahead, 20_000);
    let pre = run(Workload::LbmLike, Technique::Pre, 20_000);
    assert!(
        ra.flush_refill_cycles > 0,
        "RA must pay flush/refill cycles"
    );
    assert_eq!(pre.flush_refill_cycles, 0, "PRE never flushes the pipeline");
    // Stat A: the per-invocation penalty is 8 + 192/4 = 56 cycles.
    let per_invocation = ra.flush_refill_cycles as f64 / ra.runahead_exits.max(1) as f64;
    assert!(
        (per_invocation - 56.0).abs() < 1.0,
        "penalty {per_invocation} != 56"
    );
}

#[test]
fn pre_uses_sst_and_prdq_while_prior_techniques_do_not() {
    let pre = run(Workload::LbmLike, Technique::Pre, 20_000);
    assert!(
        pre.sst_lookups > 0 && pre.sst_hits > 0,
        "PRE exercises the SST"
    );
    assert!(
        pre.sst_inserts >= 2,
        "the SST learns more than the stalling load"
    );
    assert!(
        pre.prdq_allocations > 0,
        "runahead renaming allocates PRDQ entries"
    );
    assert!(
        pre.prdq_reclaims > 0,
        "runahead register reclamation frees registers"
    );

    let ra = run(Workload::LbmLike, Technique::Runahead, 20_000);
    assert_eq!(ra.sst_lookups, 0);
    assert_eq!(ra.prdq_allocations, 0);

    let rab = run(Workload::LbmLike, Technique::RunaheadBuffer, 20_000);
    assert!(
        rab.runahead_buffer_walks > 0,
        "RA-buffer performs data-flow walks"
    );
    assert!(
        rab.runahead_buffer_replays > 0,
        "RA-buffer replays its chain"
    );
    assert_eq!(pre.runahead_buffer_walks, 0);
}

#[test]
fn every_runahead_buffer_entry_walks_the_window() {
    // The walk runs on every entry, whether it finds a chain to replay or
    // not. Without one the interval falls back to traditional runahead, as
    // on asm-quicksort, whose window never holds a second instance of the
    // stalling load.
    let ra_buffer = |name: &str, uops| {
        let workload: Workload = name.parse().expect("known workload");
        run(workload, Technique::RunaheadBuffer, uops)
    };
    let strided = ra_buffer("lbm-like", 20_000);
    let chase = ra_buffer("asm-chase-large", 4_000);
    let no_chain = ra_buffer("asm-quicksort", 4_000);
    assert!(strided.runahead_buffer_replays > 0, "a chain is replayed");
    assert!(chase.runahead_buffer_replays > 0, "a chain is replayed");
    assert_eq!(no_chain.runahead_buffer_replays, 0, "no chain is found");
    for stats in [&strided, &chase, &no_chain] {
        assert!(stats.runahead_entries > 0, "RA-buffer enters runahead");
        assert_eq!(stats.runahead_buffer_walks, stats.runahead_entries);
    }
}

#[test]
fn emq_captures_and_redispatches_runahead_uops() {
    let pre_emq = run(Workload::LbmLike, Technique::PreEmq, 20_000);
    assert!(
        pre_emq.emq_writes > 0,
        "runahead micro-ops are captured in the EMQ"
    );
    assert!(
        pre_emq.emq_reads > 0,
        "captured micro-ops dispatch from the EMQ after exit"
    );
    assert!(pre_emq.emq_reads <= pre_emq.emq_writes);
    let pre = run(Workload::LbmLike, Technique::Pre, 20_000);
    assert_eq!(pre.emq_writes, 0, "plain PRE does not use the EMQ");
}

#[test]
fn runahead_prefetches_are_overwhelmingly_useful() {
    // Runahead prefetches real future addresses, so almost every prefetch
    // that initiated a DRAM fill should later be hit by a demand access.
    for technique in [Technique::Runahead, Technique::Pre] {
        let stats = run(Workload::LbmLike, technique, 20_000);
        assert!(
            stats.runahead_prefetches_issued > 50,
            "{technique} prefetched too little"
        );
        let accuracy =
            stats.runahead_prefetches_useful as f64 / stats.runahead_prefetches_issued as f64;
        assert!(
            accuracy > 0.7,
            "{technique} prefetch accuracy {accuracy:.2} too low"
        );
    }
}

#[test]
fn free_resources_exist_at_runahead_entry_for_fp_workloads() {
    // Stat C: for the FP streaming workloads a healthy fraction of the issue
    // queue and of both register files is free when the window stalls.
    let stats = run(Workload::LbmLike, Technique::Pre, 20_000);
    assert!(stats.iq_free_at_entry.samples() > 0);
    assert!(stats.iq_free_at_entry.mean() > 0.1);
    assert!(stats.fp_regs_free_at_entry.mean() > 0.1);
}

#[test]
fn runahead_interval_lengths_are_recorded() {
    let stats = run(Workload::MilcLike, Technique::Pre, 20_000);
    let hist = &stats.runahead_interval_hist;
    assert_eq!(hist.count(), stats.runahead_exits);
    assert!(hist.mean() > 1.0);
    assert!(
        hist.max() < 100_000,
        "interval lengths must be bounded by the miss latency"
    );
}
