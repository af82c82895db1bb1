//! The parallel evaluation matrix must be a pure speedup: same cells, same
//! order, bit-identical statistics as the serial reference path.

use pre_model::config::SimConfig;
use pre_runahead::Technique;
use pre_sim::matrix::EvaluationMatrix;
use pre_sim::stores::clear_stores;
use pre_sim::{run_batch, RunResult, RunSpec, SampleSpec};
use pre_workloads::{Workload, WorkloadParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const WORKLOADS: [Workload; 2] = [Workload::LbmLike, Workload::McfLike];
const TECHNIQUES: [Technique; 2] = [Technique::OutOfOrder, Technique::Pre];

fn specs(workloads: &[Workload], techniques: &[Technique], max_uops: u64) -> Vec<RunSpec> {
    let config = SimConfig::haswell_like();
    let params = WorkloadParams::default();
    EvaluationMatrix::specs(workloads, techniques, &config, &params, max_uops)
}

/// Serializes the tests in this binary: one of them mutates the
/// process-global `PRE_THREADS` variable, which `pre-par` reads on every
/// call, so concurrent tests could otherwise observe a serial pool and pass
/// vacuously.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A tiny 2×2 (workload × technique) matrix runs to completion and yields
/// identical statistics whether run serially or in parallel.
#[test]
fn parallel_matrix_matches_serial_bit_for_bit() {
    let _guard = ENV_LOCK.lock().unwrap();
    let specs = specs(&WORKLOADS, &TECHNIQUES, 4_000);
    let serial = EvaluationMatrix::run_serial(&specs, |_| {}).expect("serial matrix runs");
    let parallel = EvaluationMatrix::run_specs_isolated(&specs, |_| {})
        .into_result()
        .expect("parallel matrix runs");

    assert_eq!(serial.results().len(), 4);
    assert_eq!(parallel.results().len(), 4);
    for (s, p) in serial.results().iter().zip(parallel.results()) {
        assert_eq!(s.workload, p.workload, "cell order must match");
        assert_eq!(s.technique, p.technique, "cell order must match");
        assert_eq!(
            s.stats, p.stats,
            "{}/{:?} diverged",
            s.workload, s.technique
        );
        assert_eq!(
            s.energy.total_mj().to_bits(),
            p.energy.total_mj().to_bits(),
            "energy must be bit-identical"
        );
        assert_eq!(s.deadlocked, p.deadlocked);
    }

    // Derived figure metrics agree exactly too.
    for &w in &WORKLOADS {
        assert_eq!(
            serial.speedup(w, Technique::Pre).map(f64::to_bits),
            parallel.speedup(w, Technique::Pre).map(f64::to_bits),
        );
    }
}

/// The progress callback fires exactly once per cell under both paths.
#[test]
fn progress_fires_once_per_cell() {
    let _guard = ENV_LOCK.lock().unwrap();
    let count = AtomicUsize::new(0);
    EvaluationMatrix::run_specs_isolated(&specs(&WORKLOADS, &TECHNIQUES, 2_000), |_| {
        count.fetch_add(1, Ordering::Relaxed);
    })
    .into_result()
    .expect("matrix runs");
    assert_eq!(count.load(Ordering::Relaxed), 4);
}

/// Forcing a single worker thread must not change results either (the
/// parallel path degenerates to the serial one).
#[test]
fn single_threaded_parallel_path_is_identical() {
    // `PRE_THREADS` is read per call inside pre-par and is process-global;
    // ENV_LOCK keeps the other tests from seeing it.
    let _guard = ENV_LOCK.lock().unwrap();
    let specs = specs(&[Workload::LbmLike], &[Technique::Pre], 2_000);
    std::env::set_var("PRE_THREADS", "1");
    let one = EvaluationMatrix::run_specs_isolated(&specs, |_| {})
        .into_result()
        .expect("matrix runs");
    std::env::remove_var("PRE_THREADS");
    let reference = EvaluationMatrix::run_serial(&specs, |_| {}).expect("serial matrix runs");
    assert_eq!(one.results()[0].stats, reference.results()[0].stats);
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

/// A batch that a pool launches in another order than spec order, since
/// the largest initial data image comes last: plain cells of several
/// programs, a sampled cell and an SST-size group. Its outcomes come back
/// in spec order and equal a one-worker run of the same batch bit for bit.
#[test]
fn cost_ordered_batch_matches_one_worker() {
    let _guard = ENV_LOCK.lock().unwrap();
    let chase_large: Workload = "asm-chase-large".parse().expect("a suite workload");
    let mut small_sst = SimConfig::haswell_like();
    small_sst.runahead.sst_entries = 16;
    let specs = [
        RunSpec::new(Workload::ComputeBound, Technique::OutOfOrder).with_budget(3_000),
        RunSpec::new(Workload::LbmLike, Technique::Pre).with_budget(3_000),
        RunSpec::new(Workload::McfLike, Technique::Pre)
            .with_budget(8_000)
            .sampled(SampleSpec::new(3, 1_000)),
        // An SST-size group: the 256-entry leader and a 16-entry member.
        RunSpec::new(Workload::OmnetppLike, Technique::Pre).with_budget(3_000),
        RunSpec::new(Workload::OmnetppLike, Technique::Pre)
            .with_budget(3_000)
            .with_config(small_sst),
        RunSpec::new(Workload::GccLike, Technique::PreEmq).with_budget(3_000),
        RunSpec::new(chase_large, Technique::Runahead).with_budget(3_000),
    ];

    let [serial, pool] = ["1", "2"].map(|threads| {
        std::env::set_var("PRE_THREADS", threads);
        clear_stores();
        run_batch(&specs, false, 0, |_, _| {})
    });
    std::env::remove_var("PRE_THREADS");

    assert_eq!(serial.len(), specs.len());
    assert_eq!(pool.len(), specs.len());
    for ((spec, (s, s_attempts)), (p, p_attempts)) in specs.iter().zip(&serial).zip(&pool) {
        let label = spec.cell_name();
        let s = s
            .as_ref()
            .unwrap_or_else(|e| panic!("{label} (one worker): {e}"));
        let p = p.as_ref().unwrap_or_else(|e| panic!("{label} (pool): {e}"));
        assert_eq!((p.workload, p.technique), (spec.workload, spec.technique));
        assert_eq!((*s_attempts, *p_attempts), (1, 1), "{label}");
        assert_eq!(s.stats.to_kv(), p.stats.to_kv(), "{label}");
        assert_eq!(energy_bits(s), energy_bits(p), "{label}");
        assert_eq!(s.deadlocked, p.deadlocked, "{label}");
        assert_eq!(s.sample, p.sample, "{label}");
    }
    assert!(serial[2].0.as_ref().is_ok_and(|r| r.sample.is_some()));
}
