//! SST-size siblings answered from one simulation. The batch executor runs
//! only the largest SST of a group of specs that differ in nothing else,
//! and answers the others from it when its table never evicted. Every point
//! answered that way must be bit-identical to simulating it, and must be
//! cached like a simulated point.

use pre_runahead::Technique;
use pre_sim::runner::{run_one, RunResult};
use pre_sim::stores::clear_stores;
use pre_sim::sweep::{Sweep, SweepPoint};
use pre_workloads::Workload;
use std::sync::Mutex;

/// Serializes the tests: one of them sets `PRE_CACHE_DIR` and empties the
/// process-wide stores.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn energy_bits(result: &RunResult) -> [u64; 6] {
    let e = &result.energy;
    [
        e.core_dynamic_nj,
        e.runahead_structures_nj,
        e.cache_dynamic_nj,
        e.dram_dynamic_nj,
        e.core_static_nj,
        e.dram_static_nj,
    ]
    .map(f64::to_bits)
}

/// Every point equals a fresh, uncached [`run_one`] of its spec: statistics
/// text, energy bits, deadlock flag and watchdog diagnostics.
fn assert_each_point_matches_run_one(points: &[SweepPoint]) {
    for p in points {
        let mut spec = p.spec.clone();
        spec.use_result_cache = false;
        let alone = run_one(&spec).expect("the point simulates on its own");
        let label = p.label();
        assert_eq!(p.result.stats.to_kv(), alone.stats.to_kv(), "{label}");
        assert_eq!(energy_bits(&p.result), energy_bits(&alone), "{label}");
        assert_eq!(p.result.deadlocked, alone.deadlocked, "{label}");
        assert_eq!(p.result.watchdog, alone.watchdog, "{label}");
    }
}

#[test]
fn lbm_sst_grid_matches_simulating_every_point() {
    let _guard = lock();
    let mut sweep = Sweep::new(Workload::LbmLike, Technique::Pre)
        .with_dim("sst=4,8,16,64,256".parse().expect("grid"));
    sweep.budget = 150_000;
    let run = sweep.run_isolated(|_| {});
    // The two smallest tables evict, so they are simulated; 16 and 64 hold
    // every PC the 256-entry run inserted.
    assert_eq!(run.from_sst_siblings, 2);
    let points = run.into_result().expect("every point runs");
    for p in &points[..2] {
        assert!(p.result.stats.sst_evictions > 0, "{}", p.label());
    }
    for p in &points[2..] {
        assert_eq!(p.result.stats.sst_evictions, 0, "{}", p.label());
    }
    assert_each_point_matches_run_one(&points);
}

#[test]
fn forked_chase_large_grid_matches_simulating_every_point() {
    let _guard = lock();
    let chase: Workload = "asm-chase-large".parse().expect("workload name");
    let mut sweep = Sweep::new(chase, Technique::PreEmq)
        .with_dim("rob=128,192".parse().expect("grid"))
        .with_dim("sst=8,16,256".parse().expect("grid"));
    sweep.budget = 4_000;
    sweep.warmup_uops = 20_000;
    let run = sweep.run_isolated(|_| {});
    // One simulation per ROB size answers both smaller tables.
    assert_eq!(run.from_sst_siblings, 4);
    let points = run.into_result().expect("every point runs");
    assert_each_point_matches_run_one(&points);
}

#[test]
fn derived_points_are_cached_like_simulated_ones() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("pre-sst-siblings-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("PRE_CACHE_DIR", &dir);
    let mut sweep = Sweep::new(Workload::LbmLike, Technique::Pre)
        .with_dim("sst=4,16,64,256".parse().expect("grid"));
    sweep.budget = 20_000;
    sweep.use_result_cache = true;

    clear_stores();
    let cold = sweep.run_isolated(|_| {});
    assert!(cold.from_sst_siblings >= 1, "some point was derived");
    let cold = cold.into_result().expect("cold pass runs");
    for p in &cold {
        assert!(!p.result.cache_hit, "{}: cold pass hit", p.label());
    }

    // A fresh process's view: only the disk entries remain.
    clear_stores();
    let warm = sweep.run_isolated(|_| {});
    assert_eq!(
        warm.from_sst_siblings, 0,
        "cached points are not re-derived"
    );
    let warm = warm.into_result().expect("warm pass runs");
    for (c, w) in cold.iter().zip(&warm) {
        assert!(w.result.cache_hit, "{}: warm pass missed", w.label());
        assert_eq!(c.result.stats.to_kv(), w.result.stats.to_kv());
        assert_eq!(energy_bits(&c.result), energy_bits(&w.result));
    }
    std::env::remove_var("PRE_CACHE_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}
