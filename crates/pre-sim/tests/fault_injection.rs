//! End-to-end fault injection through `PRE_FAULT`: panicking cells are
//! isolated (surviving cells bit-identical to a clean serial run), injected
//! cache corruption and snapshot truncation degrade to quarantine +
//! recompute, and the binaries report partial failure through their exit
//! codes.

use pre_model::config::SimConfig;
use pre_model::error::SimError;
use pre_runahead::Technique;
use pre_sim::matrix::EvaluationMatrix;
use pre_sim::runner::{run_batch, run_one, RunSpec};
use pre_sim::stores::{clear_stores, snapshot_for, warmed_live};
use pre_sim::sweep::Sweep;
use pre_sim::SampleSpec;
use pre_workloads::{Workload, WorkloadParams};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

/// Serializes the in-process tests: they mutate process-wide environment
/// (`PRE_FAULT`, `PRE_CACHE_DIR`, `PRE_THREADS`) and the global stores.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard: sets env vars for one test, restores prior values after.
struct EnvGuard {
    saved: Vec<(&'static str, Option<std::ffi::OsString>)>,
}

impl EnvGuard {
    fn set(pairs: &[(&'static str, Option<&str>)]) -> Self {
        let mut saved = Vec::new();
        for &(name, value) in pairs {
            saved.push((name, std::env::var_os(name)));
            match value {
                Some(v) => std::env::set_var(name, v),
                None => std::env::remove_var(name),
            }
        }
        EnvGuard { saved }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        for (name, value) in self.saved.drain(..) {
            match value {
                Some(v) => std::env::set_var(name, v),
                None => std::env::remove_var(name),
            }
        }
    }
}

fn small_spec(workload: Workload, technique: Technique) -> RunSpec {
    RunSpec::new(workload, technique)
        .with_budget(1_500)
        .with_config(SimConfig::small_for_tests())
        .with_params(WorkloadParams::short(50))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pre-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn matrix_isolates_a_panicking_cell_and_survivors_match_serial() {
    let _guard = lock();
    let specs: Vec<RunSpec> = [
        (Workload::ComputeBound, Technique::OutOfOrder),
        (Workload::ComputeBound, Technique::Pre),
        (Workload::McfLike, Technique::OutOfOrder),
        (Workload::McfLike, Technique::Pre),
    ]
    .into_iter()
    .map(|(w, t)| small_spec(w, t))
    .collect();

    // Clean serial reference, before arming any fault.
    let _env = EnvGuard::set(&[("PRE_FAULT", None), ("PRE_CACHE_DIR", None)]);
    let serial: Vec<_> = specs
        .iter()
        .map(|s| run_one(s).expect("serial run"))
        .collect();

    let _fault = EnvGuard::set(&[("PRE_FAULT", Some("panic:cell=1"))]);
    let run = EvaluationMatrix::run_specs_isolated(&specs, |_| {});
    assert_eq!(run.cells, 4);
    assert_eq!(run.failures.len(), 1, "exactly the faulted cell failed");
    let failure = &run.failures[0];
    assert_eq!(failure.index, 1);
    assert!(
        matches!(&failure.error, SimError::Panic { detail } if detail.contains("injected fault")),
        "panic payload surfaced: {}",
        failure.error
    );

    // The three survivors are bit-identical to the serial reference.
    assert_eq!(run.matrix.results().len(), 3);
    for (i, serial_result) in serial.iter().enumerate() {
        if i == 1 {
            continue;
        }
        let survivor = run
            .matrix
            .get(specs[i].workload, specs[i].technique)
            .expect("survivor present");
        assert_eq!(survivor.stats, serial_result.stats);
        assert_eq!(survivor.stats.to_kv(), serial_result.stats.to_kv());
        assert_eq!(survivor.energy, serial_result.energy);
    }
}

#[test]
fn sampled_cells_take_cell_faults_as_whole_cells_not_per_slice() {
    let _guard = lock();
    let specs: Vec<RunSpec> = [
        (Workload::ComputeBound, Technique::OutOfOrder),
        (Workload::McfLike, Technique::Pre),
        (Workload::LbmLike, Technique::PreEmq),
    ]
    .into_iter()
    .map(|(w, t)| {
        RunSpec::new(w, t)
            .with_budget(8_000)
            .with_config(SimConfig::small_for_tests())
            .sampled(SampleSpec::new(3, 1_000))
    })
    .collect();

    // Clean reference, before arming any fault: every cell simulates at
    // least two representative slices, so a per-slice fault hook would hit
    // every cell.
    let _env = EnvGuard::set(&[("PRE_FAULT", None), ("PRE_CACHE_DIR", None)]);
    let clean: Vec<_> = specs
        .iter()
        .map(|s| run_one(s).expect("clean sampled run"))
        .collect();
    for result in &clean {
        let meta = result.sample.as_ref().expect("sampled");
        assert!(
            meta.intervals_simulated() >= 2,
            "{}: {}",
            result.workload,
            meta.summary()
        );
    }

    let _fault = EnvGuard::set(&[("PRE_FAULT", Some("panic:cell=1"))]);
    let run = EvaluationMatrix::run_specs_isolated(&specs, |_| {});
    assert_eq!(run.failures.len(), 1, "only cell 1 failed");
    assert_eq!(run.failures[0].index, 1);
    assert!(matches!(run.failures[0].error, SimError::Panic { .. }));
    for i in [0, 2] {
        let survivor = run
            .matrix
            .get(specs[i].workload, specs[i].technique)
            .expect("survivor present");
        assert_eq!(survivor.stats.to_kv(), clean[i].stats.to_kv());
        assert_eq!(survivor.energy, clean[i].energy);
        assert_eq!(survivor.sample, clean[i].sample);
    }
}

#[test]
fn sweep_retries_cover_injected_panics() {
    let _guard = lock();
    let _env = EnvGuard::set(&[("PRE_FAULT", Some("panic:cell=0")), ("PRE_CACHE_DIR", None)]);
    let mut sweep = Sweep::new(Workload::ComputeBound, Technique::OutOfOrder)
        .with_dim("rob=128,192".parse().expect("grid"));
    sweep.budget = 1_500;
    sweep.params = WorkloadParams::short(50);
    sweep.base_config = SimConfig::small_for_tests();
    sweep.max_retries = 2;
    let run = sweep.run_isolated(|_| {});
    assert_eq!(run.total, 2);
    assert_eq!(run.points.len(), 1, "the un-faulted point completed");
    assert_eq!(run.failures.len(), 1);
    let failure = &run.failures[0];
    assert_eq!(failure.index, 0);
    assert_eq!(
        failure.attempts, 3,
        "1 attempt + 2 retries, each covering the panic"
    );
    assert!(matches!(failure.error, SimError::Panic { .. }));
}

#[test]
fn sweep_fail_fast_skips_points_after_the_first_failure() {
    let _guard = lock();
    // PRE_THREADS=1 makes the launch order (and so the skip set)
    // deterministic.
    let _env = EnvGuard::set(&[
        ("PRE_FAULT", Some("panic:cell=0")),
        ("PRE_THREADS", Some("1")),
        ("PRE_CACHE_DIR", None),
    ]);
    let mut sweep = Sweep::new(Workload::ComputeBound, Technique::OutOfOrder)
        .with_dim("rob=128,192,256".parse().expect("grid"));
    sweep.budget = 1_500;
    sweep.params = WorkloadParams::short(50);
    sweep.base_config = SimConfig::small_for_tests();
    sweep.fail_fast = true;
    let run = sweep.run_isolated(|_| {});
    assert_eq!(run.points.len(), 0);
    assert_eq!(run.failures.len(), 3);
    assert!(matches!(run.failures[0].error, SimError::Panic { .. }));
    for skipped in &run.failures[1..] {
        assert!(matches!(skipped.error, SimError::Skipped));
        assert_eq!(skipped.attempts, 0);
    }
    // The all-or-nothing wrapper surfaces the real failure, not a skip.
    assert!(matches!(run.into_result(), Err(SimError::Panic { .. })));
}

#[test]
fn sst_siblings_take_cell_faults_as_their_own_cells() {
    let _guard = lock();
    let _env = EnvGuard::set(&[("PRE_FAULT", None), ("PRE_CACHE_DIR", None)]);
    let mut sweep = Sweep::new(Workload::LbmLike, Technique::Pre)
        .with_dim("sst=16,64,256".parse().expect("grid"));
    sweep.budget = 20_000;
    let clean = sweep.run_isolated(|_| {});
    assert_eq!(
        clean.from_sst_siblings, 2,
        "both smaller tables are derived"
    );
    let clean = clean.into_result().expect("clean grid");

    // A fault on a derived member fails that cell alone, on each of its
    // attempts; the other member is still derived.
    let _fault = EnvGuard::set(&[("PRE_FAULT", Some("panic:cell=1"))]);
    sweep.max_retries = 1;
    let run = sweep.run_isolated(|_| {});
    assert_eq!(run.failures.len(), 1, "exactly the faulted member failed");
    assert_eq!(run.failures[0].index, 1);
    assert_eq!(run.failures[0].attempts, 2);
    assert!(matches!(run.failures[0].error, SimError::Panic { .. }));
    assert_eq!(run.from_sst_siblings, 1);
    for p in &run.points {
        let i = if p.spec.config.runahead.sst_entries == 16 {
            0
        } else {
            2
        };
        assert_eq!(p.result.stats.to_kv(), clean[i].result.stats.to_kv());
    }

    // A fault on the leader leaves its members nothing to derive from:
    // they are simulated, and still match the clean grid.
    let _fault = EnvGuard::set(&[("PRE_FAULT", Some("panic:cell=2"))]);
    sweep.max_retries = 0;
    let run = sweep.run_isolated(|_| {});
    assert_eq!(run.failures.len(), 1);
    assert_eq!(run.failures[0].index, 2);
    assert_eq!(run.from_sst_siblings, 0);
    for (p, c) in run.points.iter().zip(&clean) {
        assert_eq!(p.result.stats.to_kv(), c.result.stats.to_kv());
        assert_eq!(p.result.energy, c.result.energy);
    }
}

#[test]
fn corrupt_cache_fault_quarantines_then_recomputes_bit_identically() {
    let _guard = lock();
    let dir = fresh_dir("corrupt-cache");
    let dir_str = dir.display().to_string();
    let spec = small_spec(Workload::ComputeBound, Technique::Pre).with_result_cache(true);

    // First run writes a cache entry and the armed fault corrupts it.
    let _env = EnvGuard::set(&[
        ("PRE_CACHE_DIR", Some(dir_str.as_str())),
        ("PRE_FAULT", Some("corrupt-cache:key=*")),
    ]);
    clear_stores();
    let first = run_one(&spec).expect("first run");
    assert!(!first.cache_hit);

    // Disarm and drop the in-memory copy: the next run must detect the
    // corruption, quarantine the frame and recompute identically.
    let _disarm = EnvGuard::set(&[("PRE_FAULT", None)]);
    clear_stores();
    let second = run_one(&spec).expect("recompute");
    assert!(!second.cache_hit, "corrupt entry did not serve a hit");
    assert_eq!(second.stats.to_kv(), first.stats.to_kv());
    let corrupt_files = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().to_string_lossy().ends_with(".corrupt"))
        .count();
    assert_eq!(corrupt_files, 1, "the damaged entry was quarantined");

    // The recompute re-stored a good entry: third run is a disk hit.
    clear_stores();
    let third = run_one(&spec).expect("cached run");
    assert!(third.cache_hit);
    assert_eq!(third.stats.to_kv(), first.stats.to_kv());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncate_snapshot_fault_falls_back_to_a_cold_capture() {
    let _guard = lock();
    let dir = fresh_dir("truncate-snap");
    let program = Workload::ComputeBound.build(&WorkloadParams::short(80));

    let _env = EnvGuard::set(&[
        ("PRE_FAULT", Some("truncate-snapshot")),
        ("PRE_CACHE_DIR", None),
    ]);
    clear_stores();
    let reference = snapshot_for(&program, 300, 300, Some(&dir));

    let _disarm = EnvGuard::set(&[("PRE_FAULT", None)]);
    clear_stores();
    let refetched = snapshot_for(&program, 300, 300, Some(&dir));
    assert_eq!(
        refetched.to_text(),
        reference.to_text(),
        "cold fallback is bit-identical to the reference capture"
    );
    let corrupt_files = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().to_string_lossy().ends_with(".corrupt"))
        .count();
    assert_eq!(corrupt_files, 1, "the truncated snapshot was quarantined");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Splits a `quick_check` row into its whitespace-separated columns.
fn columns(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

#[test]
fn quick_check_subprocess_isolates_a_panicking_cell() {
    // Subprocess tests set env only on the child, so no ENV_LOCK needed.
    let clean = Command::new(env!("CARGO_BIN_EXE_quick_check"))
        .arg("1500")
        .env_remove("PRE_FAULT")
        .env_remove("PRE_CACHE_DIR")
        .output()
        .expect("quick_check runs");
    assert!(clean.status.success(), "clean run exits 0");
    let clean_stdout = String::from_utf8_lossy(&clean.stdout).to_string();

    // Cell 1 is a runahead cell of the first workload; cell 5 is the
    // out-of-order baseline of the second, so that workload's speedups
    // have nothing to divide by.
    for cell in [1, 5] {
        let faulted = Command::new(env!("CARGO_BIN_EXE_quick_check"))
            .arg("1500")
            .env("PRE_FAULT", format!("panic:cell={cell}"))
            .env_remove("PRE_CACHE_DIR")
            .output()
            .expect("quick_check runs");
        assert_eq!(
            faulted.status.code(),
            Some(1),
            "partial failure surfaces as exit code 1"
        );
        let stdout = String::from_utf8_lossy(&faulted.stdout).to_string();
        let failed: Vec<&str> = stdout.lines().filter(|l| l.contains("FAILED")).collect();
        assert_eq!(failed.len(), 1, "exactly one failure line:\n{stdout}");
        assert!(
            failed[0].contains("injected fault"),
            "failure reported in output:\n{stdout}"
        );
        // "<workload> / <technique>: FAILED: ..."
        let (failed_workload, rest) = failed[0].split_once(" / ").expect("failure line");
        let baseline_failed = rest.starts_with("OoO:");
        assert_eq!(baseline_failed, cell == 5, "{}", failed[0]);

        // Every surviving row matches the clean run's row, except that a
        // workload whose baseline failed shows `-` for its speedups.
        let surviving: Vec<&str> = stdout.lines().filter(|l| !l.contains("FAILED")).collect();
        assert!(surviving.len() > 2, "other cells still ran:\n{stdout}");
        for line in surviving {
            let cols = columns(line);
            let reference = clean_stdout
                .lines()
                .map(columns)
                .find(|c| c.get(..2) == cols.get(..2))
                .unwrap_or_else(|| panic!("row missing from the clean run: {line}"));
            let mut expected = reference.clone();
            if baseline_failed && cols[0] == failed_workload {
                expected[3] = "-";
            }
            assert_eq!(cols, expected, "cell={cell}: surviving row differs");
        }
        assert_eq!(
            stdout.lines().count(),
            clean_stdout.lines().count(),
            "exactly one row replaced by a failure line"
        );
    }
}

#[test]
fn sweep_subprocess_reports_failures_and_retries() {
    let exe = env!("CARGO_BIN_EXE_sweep");
    let base_args = [
        "--workload",
        "compute-bound",
        "--budget",
        "1500",
        "--grid",
        "rob=128,192",
        "--no-cache",
    ];
    let clean = Command::new(exe)
        .args(base_args)
        .env_remove("PRE_FAULT")
        .env_remove("PRE_CACHE_DIR")
        .output()
        .expect("sweep runs");
    assert!(
        clean.status.success(),
        "clean sweep exits 0: {}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let faulted = Command::new(exe)
        .args(base_args)
        .args(["--max-retries", "1"])
        .env("PRE_FAULT", "panic:cell=1")
        .env_remove("PRE_CACHE_DIR")
        .output()
        .expect("sweep runs");
    assert_eq!(faulted.status.code(), Some(1), "failed grid exits 1");
    let stdout = String::from_utf8_lossy(&faulted.stdout).to_string();
    assert!(
        stdout.contains("FAILED (2 attempts)"),
        "retry count reported:\n{stdout}"
    );
    assert!(
        stdout.contains("1 of 2 points"),
        "surviving point completed:\n{stdout}"
    );
}

#[test]
fn sampled_batches_count_attempts_per_cell_not_per_slice() {
    let _guard = lock();
    let specs: Vec<RunSpec> = [
        (Workload::ComputeBound, Technique::OutOfOrder),
        (Workload::McfLike, Technique::Pre),
        (Workload::LbmLike, Technique::PreEmq),
    ]
    .into_iter()
    .map(|(w, t)| {
        RunSpec::new(w, t)
            .with_budget(8_000)
            .with_config(SimConfig::small_for_tests())
            .sampled(SampleSpec::new(3, 1_000))
    })
    .collect();
    let _env = EnvGuard::set(&[("PRE_FAULT", Some("panic:cell=1")), ("PRE_CACHE_DIR", None)]);

    // The hook fires once per attempt of cell 1: one retry, two attempts.
    let outcomes = run_batch(&specs, false, 1, |_, _| {});
    assert_eq!(outcomes.len(), 3);
    for (i, (outcome, attempts)) in outcomes.iter().enumerate() {
        if i == 1 {
            assert!(
                matches!(outcome, Err(SimError::Panic { .. })),
                "{outcome:?}"
            );
            assert_eq!(*attempts, 2);
        } else {
            assert!(outcome.is_ok(), "cell {i}: {outcome:?}");
            assert_eq!(*attempts, 1, "cell {i}");
        }
    }
    // Faulted, retried and finished slices all release their warmed state.
    assert_eq!(warmed_live(), 0, "a warmed state outlived the batch");

    // Fail-fast on one worker: cell 1 fails for good before any item of
    // cell 2 starts, so cell 2 is skipped without an attempt.
    let _one = EnvGuard::set(&[("PRE_THREADS", Some("1"))]);
    let outcomes = run_batch(&specs, true, 0, |_, _| {});
    assert!(matches!(outcomes[0], (Ok(_), 1)), "{:?}", outcomes[0]);
    assert!(
        matches!(outcomes[1], (Err(SimError::Panic { .. }), 1)),
        "{:?}",
        outcomes[1]
    );
    assert!(
        matches!(outcomes[2], (Err(SimError::Skipped), 0)),
        "{:?}",
        outcomes[2]
    );
    // So do skipped ones.
    assert_eq!(warmed_live(), 0, "a warmed state outlived the batch");
}
