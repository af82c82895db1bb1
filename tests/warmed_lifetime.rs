//! How long a warmed cache hierarchy lives: a batch builds each warmed state
//! once, however many of its items fork from it, and frees it when the last
//! of them finishes, so none outlives the batch. Results do not depend on it:
//! every cell of the batch is bit-identical to `run_one` of its spec.

use precise_runahead::runahead::Technique;
use precise_runahead::sim::stores::{warmed_builds, warmed_live};
use precise_runahead::sim::{run_batch, run_one, RunResult, RunSpec, SampleSpec};
use precise_runahead::workloads::Workload;
use std::sync::{Mutex, PoisonError};

/// The warmed store is process-wide: the tests here take turns with it.
static STORE: Mutex<()> = Mutex::new(());

const WORKLOADS: [Workload; 2] = [Workload::McfLike, Workload::LbmLike];

/// Every workload under OoO and PRE, shaped by `shape`.
fn specs(shape: impl Fn(RunSpec) -> RunSpec) -> Vec<RunSpec> {
    WORKLOADS
        .iter()
        .flat_map(|&w| [Technique::OutOfOrder, Technique::Pre].map(|t| RunSpec::new(w, t)))
        .map(shape)
        .collect()
}

/// Runs `f` with `PRE_THREADS` set to `threads`, then restores it.
fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var_os("PRE_THREADS");
    std::env::set_var("PRE_THREADS", threads);
    let out = f();
    match saved {
        Some(v) => std::env::set_var("PRE_THREADS", v),
        None => std::env::remove_var("PRE_THREADS"),
    }
    out
}

/// Runs `specs` as one batch, on one worker per core and on one worker, and
/// checks the lifetime rule each time. `keys` counts the distinct warmed
/// states the batch forks from, given its results.
fn check_batch(specs: &[RunSpec], keys: impl Fn(&[RunResult]) -> u64) {
    let _turn = STORE.lock().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(warmed_live(), 0, "the store starts empty");
    // On one worker the items of a key run one after another, so a key
    // freed before its last fork would be built again.
    for threads in ["0", "1"] {
        let before = warmed_builds();
        let results: Vec<RunResult> =
            with_threads(threads, || run_batch(specs, false, 0, |_, _| {}))
                .into_iter()
                .map(|(outcome, attempts)| {
                    assert_eq!(attempts, 1);
                    outcome.expect("every cell runs")
                })
                .collect();
        let built = warmed_builds() - before;
        assert_eq!(warmed_live(), 0, "a warmed state outlived its batch");
        let expected = keys(&results);
        assert!(expected > 0, "the batch forks");
        assert_eq!(built, expected, "each warmed key is built once per batch");

        for (spec, result) in specs.iter().zip(&results) {
            let alone = run_one(spec).expect("the spec runs on its own");
            let cell = spec.cell_name();
            assert_eq!(result.stats, alone.stats, "{cell}: stats");
            assert_eq!(result.energy, alone.energy, "{cell}: energy");
            assert_eq!(result.sample, alone.sample, "{cell}: sampling metadata");
        }
        assert_eq!(warmed_live(), 0, "run_one frees its warmed state too");
    }
}

#[test]
fn a_forked_batch_builds_each_warmed_state_once_and_keeps_none() {
    let specs = specs(|s| s.with_budget(3_000).with_warmup(5_000));
    // Both techniques of a workload fork from one hierarchy.
    check_batch(&specs, |_| WORKLOADS.len() as u64);
}

#[test]
fn a_sampled_batch_builds_each_warmed_state_once_and_keeps_none() {
    let specs = specs(|s| s.with_budget(6_000).sampled(SampleSpec::new(3, 1_000)));
    // One warmed state per workload and representative, but the first
    // interval starts cold. Both techniques of a workload share its plan.
    check_batch(&specs, |results| {
        WORKLOADS
            .iter()
            .map(|&w| {
                let r = results.iter().find(|r| r.workload == w).expect("a cell");
                let meta = r.sample.as_ref().expect("an estimate");
                meta.weights.iter().filter(|rep| rep.interval > 0).count() as u64
            })
            .sum()
    });
}

#[test]
fn a_retry_rebuilds_the_warmed_state_its_first_attempt_freed() {
    let _turn = STORE.lock().unwrap_or_else(PoisonError::into_inner);
    // The core rejects the configuration only after the fork's warmed
    // state is built, so each attempt builds it and fails.
    let mut spec = RunSpec::new(Workload::LbmLike, Technique::Pre)
        .with_budget(1_000)
        .with_warmup(2_000);
    spec.config.core.rob_entries = 0;
    let before = warmed_builds();
    let outcomes = run_batch(&[spec], false, 1, |_, _| {});
    assert!(matches!(outcomes[..], [(Err(_), 2)]), "{outcomes:?}");
    assert_eq!(warmed_builds() - before, 2, "one build per attempt");
    assert_eq!(warmed_live(), 0, "the retry frees it again");
}
