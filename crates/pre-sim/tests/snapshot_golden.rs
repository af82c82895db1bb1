//! Golden bit-identity tests for the checkpoint/cache layer.
//!
//! The contract of warm-up snapshots and the result cache is *exactness*:
//! forking a shared snapshot, restoring a serialized snapshot, or answering
//! from the cache must be bit-identical to doing the work from scratch —
//! never "close enough". These tests pin that contract across the mixed
//! workload matrix, every technique and both clock paths (quiescent-cycle
//! fast-forward on and off).

use pre_core::{OooCore, WarmedState};
use pre_model::config::SimConfig;
use pre_model::snapshot::SimSnapshot;
use pre_runahead::Technique;
use pre_sim::experiments::Suite;
use pre_sim::runner::{run_one, RunSpec};
use pre_sim::stores;
use pre_workloads::{Workload, WorkloadParams};

const BUDGET: u64 = 1_500;
const WARMUP: u64 = 800;

fn golden_params() -> WorkloadParams {
    WorkloadParams::short(400)
}

/// Runs `spec`'s cell from a *freshly captured* snapshot, bypassing the
/// global stores entirely: capture the warm-up, derive the warmed state,
/// build the core, run. This is the "cold end-to-end" reference the
/// store-forked runs must match bit-for-bit.
fn fresh_end_to_end(spec: &RunSpec) -> pre_model::stats::SimStats {
    let program = spec.workload.build(&spec.params);
    let snap = SimSnapshot::capture(&program, spec.warmup_uops);
    let warmed = WarmedState::build(&spec.config, &snap.trace);
    let mut core = OooCore::from_snapshot(&spec.config, &program, spec.technique, &snap, &warmed)
        .expect("valid configuration");
    core.run(spec.max_uops, spec.max_cycles);
    core.stats().clone()
}

#[test]
fn snapshot_fork_matches_cold_capture_across_matrix_and_clock_paths() {
    for fast_forward in [true, false] {
        let mut config = SimConfig::haswell_like();
        config.core.fast_forward = fast_forward;
        for (workload, technique) in Suite::Mixed.quick_cells() {
            let spec = RunSpec::new(workload, technique)
                .with_budget(BUDGET)
                .with_config(config.clone())
                .with_params(golden_params())
                .with_warmup(WARMUP);
            // First run captures (or reuses) the shared snapshot; the second
            // is guaranteed to fork the stored one.
            let first = run_one(&spec).expect("valid run");
            let second = run_one(&spec).expect("valid run");
            let reference = fresh_end_to_end(&spec);
            let cell = spec.cell_name();
            assert_eq!(
                first.stats, reference,
                "{cell} (fast_forward={fast_forward}): store-built run diverged from fresh capture"
            );
            assert_eq!(
                second.stats, reference,
                "{cell} (fast_forward={fast_forward}): forked run diverged from fresh capture"
            );
            // Cell-by-cell including the histogram/average fields the struct
            // equality treats loosely: the serialized form must match too.
            assert_eq!(first.stats.to_kv(), reference.to_kv(), "{cell} kv");
            assert_eq!(second.stats.to_kv(), reference.to_kv(), "{cell} kv");
        }
    }
}

#[test]
fn serialized_snapshot_restores_bit_identically() {
    let params = WorkloadParams::short(500);
    let chase: Workload = "asm-chase-large".parse().expect("known workload");
    for workload in [Workload::LbmLike, chase] {
        let program = workload.build(&params);
        let snap = SimSnapshot::capture(&program, WARMUP);
        let restored = SimSnapshot::from_text(&snap.to_text()).expect("roundtrips");
        assert_eq!(restored, snap);
        let config = SimConfig::haswell_like();
        for technique in Technique::ALL {
            let run = |s: &SimSnapshot| {
                let warmed = WarmedState::build(&config, &s.trace);
                let mut core = OooCore::from_snapshot(&config, &program, technique, s, &warmed)
                    .expect("valid configuration");
                core.run(BUDGET, 1_000_000);
                core.stats().clone()
            };
            let a = run(&snap);
            let b = run(&restored);
            assert_eq!(a.to_kv(), b.to_kv(), "{workload:?}/{technique:?}");
        }
    }
}

/// Forks share the snapshot's memory pages copy-on-write. Five cores — one
/// per technique, on concurrent threads — fork one shared snapshot of a
/// storing kernel and run; their stores must land in private page copies,
/// leaving the snapshot equal to a fresh capture, and each run must match a
/// run forked from an unshared (deserialized) copy.
#[test]
fn concurrent_forks_leave_the_shared_snapshot_untouched() {
    let params = WorkloadParams::short(500);
    let blur: Workload = "asm-box-blur".parse().expect("known workload");
    let program = blur.build(&params);
    let config = SimConfig::haswell_like();
    let shared = std::sync::Arc::new(SimSnapshot::capture(&program, WARMUP));
    let warmed = WarmedState::build(&config, &shared.trace);
    let run = |snap: &SimSnapshot, technique: Technique| {
        let mut core = OooCore::from_snapshot(&config, &program, technique, snap, &warmed)
            .expect("valid configuration");
        core.run(BUDGET, 1_000_000);
        core.stats().clone()
    };
    let forked: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = Technique::ALL
            .into_iter()
            .map(|technique| {
                let snap = std::sync::Arc::clone(&shared);
                let run = &run;
                scope.spawn(move || (technique, run(&snap, technique)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fork ran"))
            .collect()
    });
    assert_eq!(*shared, SimSnapshot::capture(&program, WARMUP));
    let unshared = SimSnapshot::from_text(&shared.to_text()).expect("roundtrips");
    for (technique, stats) in forked {
        assert!(stats.committed_stores > 0, "{technique:?}: no stores");
        assert_eq!(
            stats.to_kv(),
            run(&unshared, technique).to_kv(),
            "{technique:?}"
        );
    }
}

#[test]
fn cache_hit_is_byte_identical_to_the_miss_that_filled_it() {
    // Distinct params keep this test's cache keys disjoint from the other
    // tests (the stores are process-global and tests run concurrently).
    let params = WorkloadParams {
        iterations: 777,
        ..WorkloadParams::default()
    };
    let chase: Workload = "asm-chase-large".parse().expect("known workload");
    for (workload, technique) in [
        (Workload::LbmLike, Technique::PreEmq),
        (chase, Technique::Runahead),
        (Workload::ComputeBound, Technique::OutOfOrder),
    ] {
        let spec = RunSpec::new(workload, technique)
            .with_budget(BUDGET)
            .with_params(params)
            .with_warmup(WARMUP)
            .with_result_cache(true);
        let miss = run_one(&spec).expect("valid run");
        assert!(!miss.cache_hit, "first run must simulate");
        let hit = run_one(&spec).expect("valid run");
        assert!(hit.cache_hit, "second run must answer from cache");
        // Byte-identical: the serialized cache-file form of both results is
        // the same string, and every stats field matches.
        let program = spec.workload.build(&spec.params);
        let (_, desc) = stores::result_key(&spec, &program);
        assert_eq!(
            stores::result_to_text(&desc, &hit),
            stores::result_to_text(&desc, &miss),
            "{}: cache hit differs from the miss that filled it",
            spec.cell_name()
        );
        assert_eq!(hit.stats, miss.stats);
        assert_eq!(hit.energy, miss.energy);
    }
}
