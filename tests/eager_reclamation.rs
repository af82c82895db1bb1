//! Acceptance tests for eager PRDQ-driven register freeing: the
//! `asm-box-blur` reproduction finding (ROADMAP) was that the integer PRF is
//! exhausted at every full-window stall, so PRE entered runahead but could
//! never inject a slice micro-op (PRDQ allocations = 0) and paid pure
//! overhead. With the eager drain, PRE must inject on the integer-only
//! kernels and never lose to the out-of-order baseline on the asm matrix.

use precise_runahead::core::{OooCore, WarmedState};
use precise_runahead::model::config::SimConfig;
use precise_runahead::model::snapshot::SimSnapshot;
use precise_runahead::model::stats::SimStats;
use precise_runahead::runahead::Technique;
use precise_runahead::trace::collect::IntervalLog;
use precise_runahead::trace::IntervalCollector;
use precise_runahead::workloads::{Workload, WorkloadParams};

fn run(workload: Workload, technique: Technique, uops: u64) -> SimStats {
    run_with_events(workload, technique, uops).0
}

fn run_with_events(workload: Workload, technique: Technique, uops: u64) -> (SimStats, IntervalLog) {
    let program = workload.build(&WorkloadParams::default());
    let cfg = SimConfig::haswell_like();
    let mut core = OooCore::new(&cfg, &program, technique).expect("core builds");
    core.set_tracer(Box::new(IntervalCollector::new()));
    core.run(uops, 50_000_000);
    assert!(
        !core.deadlocked(),
        "{workload} under {technique} deadlocked"
    );
    let collector = core
        .take_tracer()
        .expect("tracer survives the run")
        .into_any()
        .downcast::<IntervalCollector>()
        .expect("tracer is the collector attached above");
    (core.stats().clone(), collector.log)
}

#[test]
fn pre_injects_slice_uops_on_the_integer_only_box_blur() {
    let stats = run(Workload::ASM_SUITE[3], Technique::Pre, 15_000);
    assert_eq!(Workload::ASM_SUITE[3].name(), "asm-box-blur");
    assert!(stats.runahead_entries > 0, "box-blur must trigger runahead");
    // The reproduction finding itself: the integer PRF is exhausted at
    // (almost) every full-window stall…
    assert!(stats.int_free_at_stall_hist.count() > 0);
    assert!(
        stats.int_free_at_stall_hist.fraction_below(5) > 0.9,
        "box-blur should exhaust the integer PRF at stalls"
    );
    // …and the eager drain turns that into injected slice micro-ops anyway.
    assert!(
        stats.prdq_eager_reclaims > 0,
        "the eager drain must free window registers"
    );
    assert!(
        stats.prdq_allocations > 0,
        "PRE must allocate PRDQ entries (inject runahead micro-ops)"
    );
    assert!(
        stats.runahead_uops_executed > 0,
        "injected slice micro-ops must execute"
    );
    assert!(
        stats.runahead_prefetches_issued > 0,
        "runahead must prefetch the stream"
    );
}

#[test]
fn pre_beats_the_baseline_on_box_blur() {
    let base = run(Workload::ASM_SUITE[3], Technique::OutOfOrder, 15_000);
    let pre = run(Workload::ASM_SUITE[3], Technique::Pre, 15_000);
    assert!(
        pre.ipc() > base.ipc() * 1.5,
        "PRE ({:.3}) should clearly beat OoO ({:.3}) on box-blur now that it injects",
        pre.ipc(),
        base.ipc()
    );
}

#[test]
fn pre_injects_on_chase_large_without_losing_to_the_baseline() {
    let base = run(Workload::ASM_SUITE[6], Technique::OutOfOrder, 4_000);
    let pre = run(Workload::ASM_SUITE[6], Technique::Pre, 4_000);
    assert_eq!(Workload::ASM_SUITE[6].name(), "asm-chase-large");
    assert!(
        pre.runahead_entries > 0,
        "chase-large must trigger runahead"
    );
    assert!(
        pre.prdq_allocations > 0,
        "PRE must inject the chase slice even though it cannot prefetch it"
    );
    // A serially dependent chase cannot be run ahead (the next address is
    // the missing data), so the win is bounded — but PRE must not lose,
    // because it never flushes the preserved window.
    assert!(
        pre.ipc() >= base.ipc() * 0.99,
        "PRE ({:.3}) must not lose to OoO ({:.3}) on chase-large",
        pre.ipc(),
        base.ipc()
    );
}

#[test]
fn pre_matches_or_beats_the_baseline_across_the_asm_matrix() {
    for workload in Workload::ASM_SUITE {
        let budget = if workload.name() == "asm-chase-large" {
            3_000 // every hop is a serial LLC miss; keep the cell fast
        } else {
            10_000
        };
        let base = run(workload, Technique::OutOfOrder, budget);
        let pre = run(workload, Technique::Pre, budget);
        assert!(
            pre.ipc() >= base.ipc() * 0.99,
            "PRE ({:.3}) lost to OoO ({:.3}) on {workload}",
            pre.ipc(),
            base.ipc()
        );
    }
}

/// The eager drain tracks its candidates by events; debug builds check the
/// tracked set against a full scan of the window after every seed pass.
/// Run both PRE flavours in the shape of a forked sweep point (a warm-up
/// snapshot, then a short detailed run) and require real eager seeds, so
/// that check is known to have compared actual candidates.
#[test]
fn forked_pre_points_seed_the_eager_drain() {
    let cfg = SimConfig::haswell_like();
    for workload in [Workload::ASM_SUITE[3], Workload::ASM_SUITE[6]] {
        let program = workload.build(&WorkloadParams::default());
        let snap = SimSnapshot::capture(&program, 200_000);
        assert!(!snap.halted, "{workload} must outlast the warm-up");
        let warmed = WarmedState::build(&cfg, &snap.trace);
        for technique in [Technique::Pre, Technique::PreEmq] {
            let mut core = OooCore::from_snapshot(&cfg, &program, technique, &snap, &warmed)
                .expect("fork builds");
            core.run(4_000, 50_000_000);
            assert!(
                !core.deadlocked(),
                "{workload} under {technique} deadlocked"
            );
            let stats = core.stats();
            assert!(
                stats.prdq_eager_seeds > 0,
                "{workload} under {technique} must seed the eager drain"
            );
            assert!(stats.prdq_eager_reclaims > 0);
        }
    }
}

#[test]
fn exit_restores_the_free_lists_so_normal_mode_is_unaffected() {
    // The eager drain must be fully undone at exit: every interval's exit
    // event reports the same free-register counts that normal commit later
    // observes, and the run retires to completion with identical
    // architectural state to the interpreter (covered exhaustively by
    // asm_vs_interpreter; this checks the event plumbing).
    let (stats, events) = run_with_events(Workload::ASM_SUITE[3], Technique::Pre, 10_000);
    assert_eq!(stats.runahead_entries, stats.runahead_exits);
    let entries = events
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                precise_runahead::model::stats::RunaheadEventKind::Entry
            )
        })
        .count() as u64;
    assert_eq!(
        events.dropped(),
        0,
        "budget small enough to keep all events"
    );
    assert_eq!(entries, stats.runahead_entries);
    assert!(
        events
            .events()
            .iter()
            .any(|e| e.int_eager_freed > 0 || e.fp_eager_freed > 0),
        "entry events must show the eager drain at work"
    );
}
