//! Golden guarantees of the sampled-simulation subsystem: the profiling and
//! clustering passes are deterministic (including under `PRE_THREADS`
//! variation), and the extrapolated IPC of a sampled run stays within 5% of
//! the full detailed run on the long asm kernels under every runahead
//! flavour the paper compares. Batches that mix sampled and plain specs
//! match serial runs, and unusable sampling parameters are rejected with
//! typed errors.

use pre_model::config::SimConfig;
use pre_model::error::{ConfigError, SimError};
use pre_model::profile::{cluster_intervals, profile_intervals};
use pre_runahead::Technique;
use pre_sim::matrix::EvaluationMatrix;
use pre_sim::runner::{run_one, RunSpec};
use pre_sim::sample::SampleSpec;
use pre_sim::stores::clear_stores;
use pre_workloads::{Workload, WorkloadParams};
use std::sync::Mutex;

/// Serializes the tests in this binary: they mutate the process-global
/// `PRE_THREADS` variable and the process-global result/snapshot stores.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn workloads() -> [Workload; 2] {
    [
        "asm-chase-large".parse().expect("workload name"),
        "asm-box-blur".parse().expect("workload name"),
    ]
}
const TECHNIQUES: [Technique; 3] = [Technique::OutOfOrder, Technique::Runahead, Technique::Pre];

/// Budget of the error-bound comparison. Long enough that sampling skips
/// most of the execution, short enough to keep the test cheap.
const BUDGET: u64 = 60_000;

/// Sampling parameters of the error-bound comparison (also exercised by the
/// CI sampling smoke).
const SPEC: SampleSpec = SampleSpec {
    clusters: 6,
    interval_uops: 6_000,
};

fn with_threads(threads: Option<&str>, f: impl FnOnce()) {
    let saved = std::env::var("PRE_THREADS").ok();
    match threads {
        Some(n) => std::env::set_var("PRE_THREADS", n),
        None => std::env::remove_var("PRE_THREADS"),
    }
    f();
    match saved {
        Some(v) => std::env::set_var("PRE_THREADS", v),
        None => std::env::remove_var("PRE_THREADS"),
    }
}

/// The profiling pass and the clusterer are pure functions of the program:
/// repeated invocations produce byte-identical BBVs and identical cluster
/// assignments, regardless of the worker-pool width (both passes are
/// serial by construction).
#[test]
fn bbv_profile_and_clustering_are_deterministic() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let params = WorkloadParams::default();
    for &workload in &workloads() {
        let program = workload.build(&params);
        let reference = profile_intervals(&program, SPEC.interval_uops, BUDGET, 0);
        let ref_clusters = cluster_intervals(&reference, SPEC.clusters, 0);
        assert!(
            reference.intervals.len() > 1,
            "{workload}: the budget must span several intervals"
        );
        for threads in ["1", "4"] {
            with_threads(Some(threads), || {
                let repeat = profile_intervals(&program, SPEC.interval_uops, BUDGET, 0);
                assert_eq!(
                    repeat.intervals.len(),
                    reference.intervals.len(),
                    "{workload}: interval count diverged (PRE_THREADS={threads})"
                );
                for (a, b) in repeat.intervals.iter().zip(&reference.intervals) {
                    assert_eq!(a.start_uop, b.start_uop);
                    assert_eq!(a.len_uops, b.len_uops);
                    assert_eq!(
                        a.bbv.to_text(),
                        b.bbv.to_text(),
                        "{workload}: BBV of interval {} diverged (PRE_THREADS={threads})",
                        a.index
                    );
                }
                let clusters = cluster_intervals(&repeat, SPEC.clusters, 0);
                assert_eq!(
                    clusters.assignments, ref_clusters.assignments,
                    "{workload}: cluster assignments diverged (PRE_THREADS={threads})"
                );
                assert_eq!(clusters.representatives, ref_clusters.representatives);
            });
        }
    }
}

/// A sampled run is deterministic end to end: the extrapolated statistics
/// are bit-identical across repeats and across worker-pool widths.
#[test]
fn sampled_runs_are_thread_count_invariant() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let workload: Workload = "asm-chase-large".parse().expect("workload name");
    let mut spec = RunSpec::new(workload, Technique::Pre).with_budget(BUDGET);
    spec.sample = Some(SPEC);

    let mut reference = None;
    for threads in [None, Some("1"), Some("4")] {
        with_threads(threads, || {
            clear_stores();
            let result = run_one(&spec).expect("sampled run");
            let meta = result.sample.as_ref().expect("sampling metadata");
            assert!(meta.intervals_simulated() >= 1);
            match &reference {
                None => reference = Some(result),
                Some(r) => {
                    assert_eq!(
                        r.stats, result.stats,
                        "sampled stats diverged under PRE_THREADS={threads:?}"
                    );
                    assert_eq!(r.sample, result.sample);
                }
            }
        });
    }
}

/// The error-bound golden: on every (long asm kernel) × (OoO, RA, PRE)
/// cell, the sampled IPC estimate lands within 5% of the full detailed
/// run's IPC while simulating only a fraction of the budget in detail.
#[test]
fn sampled_ipc_is_within_five_percent_of_full_runs() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear_stores();
    for &workload in &workloads() {
        for &technique in &TECHNIQUES {
            let full_spec = RunSpec::new(workload, technique).with_budget(BUDGET);
            let full = run_one(&full_spec).expect("full run");
            let mut sampled_spec = RunSpec::new(workload, technique).with_budget(BUDGET);
            sampled_spec.sample = Some(SPEC);
            let sampled = run_one(&sampled_spec).expect("sampled run");

            let meta = sampled.sample.as_ref().expect("sampling metadata");
            assert!(
                meta.simulated_uops < meta.total_uops,
                "{workload}/{technique:?}: sampling must skip detailed work \
                 (simulated {} of {})",
                meta.simulated_uops,
                meta.total_uops
            );
            let error = (sampled.ipc() - full.ipc()).abs() / full.ipc();
            eprintln!(
                "{workload}/{technique:?}: full {:.4}  sampled {:.4}  error {:.2}%",
                full.ipc(),
                sampled.ipc(),
                error * 100.0
            );
            assert!(
                error <= 0.05,
                "{workload}/{technique:?}: sampled IPC {:.4} vs full {:.4} \
                 — error {:.2}% exceeds the 5% bound ({})",
                sampled.ipc(),
                full.ipc(),
                error * 100.0,
                meta.summary()
            );
        }
    }
}

/// Zero clusters or a zero interval size cannot be sampled: both are
/// rejected with a typed configuration error instead of a mislabelled
/// single-cluster estimate or a panic in the profiling pass.
#[test]
fn invalid_sampling_parameters_are_rejected_with_typed_errors() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (sample, field) in [
        (SampleSpec::new(0, 1_000), "sample.clusters"),
        (SampleSpec::new(2, 0), "sample.interval_uops"),
    ] {
        let spec = RunSpec::new(Workload::ComputeBound, Technique::Pre)
            .with_budget(8_000)
            .sampled(sample);
        let outcome = std::panic::catch_unwind(|| run_one(&spec));
        match outcome {
            Ok(Err(SimError::Config(ConfigError::ZeroCapacity { field: f }))) => {
                assert_eq!(f, field, "{sample}")
            }
            Ok(other) => panic!("{sample}: expected a zero-capacity error, got {other:?}"),
            Err(_) => panic!("{sample}: the sampled run panicked"),
        }
    }
}

/// One batch mixing plain specs, sampled specs (several techniques on the
/// same programs, so they share plans), a sampled spec with nothing to
/// sample and a sampled spec already in the result cache equals per-spec
/// serial `run_one` in stats, energy and sampling metadata, whatever the
/// worker-pool width.
#[test]
fn mixed_batches_match_serial_runs_under_any_pool_width() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let small = |w: Workload, t: Technique, budget: u64| {
        RunSpec::new(w, t)
            .with_budget(budget)
            .with_config(SimConfig::small_for_tests())
    };
    let sample = SampleSpec::new(3, 1_000);
    let cached = 8;
    let specs = vec![
        small(Workload::LbmLike, Technique::OutOfOrder, 4_000),
        small(Workload::ComputeBound, Technique::OutOfOrder, 8_000).sampled(sample),
        small(Workload::ComputeBound, Technique::Pre, 8_000).sampled(sample),
        small(Workload::McfLike, Technique::OutOfOrder, 8_000).sampled(sample),
        small(Workload::ComputeBound, Technique::PreEmq, 8_000).sampled(sample),
        small(Workload::McfLike, Technique::RunaheadBuffer, 4_000),
        small(Workload::McfLike, Technique::Pre, 8_000).sampled(sample),
        small(Workload::LbmLike, Technique::Pre, 0).sampled(sample),
        small(Workload::LbmLike, Technique::PreEmq, 8_000)
            .sampled(sample)
            .with_result_cache(true),
    ];
    for threads in ["1", "4"] {
        with_threads(Some(threads), || {
            clear_stores();
            let serial: Vec<_> = specs
                .iter()
                .map(|s| run_one(s).expect("serial run"))
                .collect();
            assert!(serial[7]
                .sample
                .as_ref()
                .is_some_and(|m| m.intervals_simulated() == 0));
            clear_stores();
            run_one(&specs[cached]).expect("priming run");
            let run = EvaluationMatrix::run_specs_isolated(&specs, |_| {});
            assert!(run.failures.is_empty(), "PRE_THREADS={threads}");
            for (spec, reference) in specs.iter().zip(&serial) {
                let got = run
                    .matrix
                    .get(spec.workload, spec.technique)
                    .expect("every cell present");
                let name = format!("{} (PRE_THREADS={threads})", spec.cell_name());
                assert_eq!(got.stats, reference.stats, "{name}");
                assert_eq!(got.energy, reference.energy, "{name}");
                assert_eq!(got.sample, reference.sample, "{name}");
            }
            let hit = run
                .matrix
                .get(specs[cached].workload, specs[cached].technique);
            assert!(hit.is_some_and(|r| r.cache_hit), "the cached spec is a hit");
        });
    }
}
