//! Disk-cache integrity: damaged result frames are quarantined and degrade
//! to a cache miss whose recomputation is bit-identical, an incomplete frame
//! at the end of a log is only a miss, results other processes append are
//! found, and concurrent writers never produce a torn read.
//!
//! These tests pass explicit cache directories (no `PRE_CACHE_DIR`), so they
//! don't touch process environment; they still share the global in-memory
//! stores, so they serialize on one lock and use per-test cache keys.

use pre_model::config::SimConfig;
use pre_runahead::Technique;
use pre_sim::runner::{run_one, RunResult, RunSpec};
use pre_sim::stores::{
    clear_stores, encode_cache_file, result_key, result_lookup, result_store, result_to_text,
    try_result_store_disk,
};
use pre_workloads::{Workload, WorkloadParams};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Serializes tests in this file: they all clear the process-wide in-memory
/// stores to force the disk path.
static STORE_LOCK: Mutex<()> = Mutex::new(());

/// How every result frame starts.
const MAGIC: &[u8] = b"pre-cache v2 result ";

fn lock() -> std::sync::MutexGuard<'static, ()> {
    STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn spec_for(workload: Workload, budget: u64) -> RunSpec {
    RunSpec::new(workload, Technique::Pre)
        .with_budget(budget)
        .with_config(SimConfig::small_for_tests())
        .with_params(WorkloadParams::short(50))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pre-integrity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// This process's results log in `dir`.
fn log_file(dir: &Path) -> PathBuf {
    dir.join(format!("results-{}.log", std::process::id()))
}

/// The byte ranges of the frames in `log`, in order.
fn frames(log: &Path) -> Vec<Range<usize>> {
    let bytes = std::fs::read(log).expect("log readable");
    let starts: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i..].starts_with(MAGIC))
        .collect();
    let ends = starts.iter().skip(1).copied().chain([bytes.len()]);
    starts.iter().zip(ends).map(|(&s, e)| s..e).collect()
}

/// The `*.corrupt` files in `dir`.
fn corrupt_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".corrupt"))
        .collect()
}

fn populate(spec: &RunSpec, dir: &Path) -> (u64, String, RunResult) {
    let program = spec.workload.build(&spec.params);
    let (key, desc) = result_key(spec, &program);
    let baseline = run_one(spec).expect("baseline run");
    result_store(key, &desc, &baseline, Some(dir));
    assert!(log_file(dir).exists(), "entry persisted");
    (key, desc, baseline)
}

/// Damages the entry's frame (the last in the log), then asserts: lookup
/// misses, the frame was quarantined to `*.corrupt` and its magic
/// overwritten in place, and a recomputation is bit-identical to the
/// baseline.
fn assert_quarantine_and_recompute(
    spec: &RunSpec,
    dir: &Path,
    key: u64,
    desc: &str,
    baseline: &RunResult,
    damage: impl FnOnce(&Path, Range<usize>),
) {
    let log = log_file(dir);
    let frame = frames(&log).pop().expect("one frame");
    let start = frame.start;
    damage(&log, frame);
    clear_stores(); // force the disk path
    assert!(
        result_lookup(key, desc, Some(dir)).is_none(),
        "damaged entry reads as a miss"
    );
    let bytes = std::fs::read(&log).expect("log readable");
    assert!(
        !bytes[start..].starts_with(b"pre-cache v"),
        "damaged entry no longer matches lookups"
    );
    let corrupt = PathBuf::from(format!("{}.{start}.corrupt", log.display()));
    assert!(corrupt.exists(), "damaged entry was quarantined");
    let recomputed = run_one(spec).expect("recompute after quarantine");
    assert_eq!(recomputed.stats, baseline.stats);
    assert_eq!(
        recomputed.stats.to_kv(),
        baseline.stats.to_kv(),
        "recomputation is bit-identical"
    );
    assert_eq!(recomputed.energy, baseline.energy);
}

#[test]
fn corrupt_entry_is_quarantined_and_recomputed_bit_identically() {
    let _guard = lock();
    let dir = fresh_dir("corrupt");
    let spec = spec_for(Workload::ComputeBound, 2_000);
    let (key, desc, baseline) = populate(&spec, &dir);
    assert_quarantine_and_recompute(&spec, &dir, key, &desc, &baseline, |log, frame| {
        let mut bytes = std::fs::read(log).expect("entry readable");
        let mid = (frame.start + frame.end) / 2;
        for b in bytes.iter_mut().skip(mid).take(8) {
            *b ^= 0xff;
        }
        std::fs::write(log, bytes).expect("corruption written");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_is_quarantined_and_recomputed_bit_identically() {
    let _guard = lock();
    let dir = fresh_dir("truncate");
    let spec = spec_for(Workload::McfLike, 2_000);
    let (key, desc, baseline) = populate(&spec, &dir);
    assert_quarantine_and_recompute(&spec, &dir, key, &desc, &baseline, |log, frame| {
        // Cut the frame to a third and let another entry's frame follow it,
        // so it is not an incomplete tail a live writer may still be
        // appending.
        let mut bytes = std::fs::read(log).expect("entry readable");
        bytes.truncate(frame.start + frame.len() / 3);
        let next = encode_cache_file("result", "pre-result v1\nkeydesc another entry\nend\n");
        bytes.extend_from_slice(next.as_bytes());
        std::fs::write(log, bytes).expect("truncation written");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn other_version_frame_is_quarantined_not_trusted() {
    let _guard = lock();
    let dir = fresh_dir("v1");
    let spec = spec_for(Workload::ComputeBound, 1_500);
    let (key, desc, baseline) = populate(&spec, &dir);
    assert_quarantine_and_recompute(&spec, &dir, key, &desc, &baseline, |log, frame| {
        // The same frame under an older format version's header.
        let mut bytes = std::fs::read(log).expect("entry readable");
        let version = frame.start + "pre-cache v".len();
        assert_eq!(bytes[version], b'2');
        bytes[version] = b'1';
        std::fs::write(log, bytes).expect("v1 header written");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantined_entry_heals_on_next_store() {
    let _guard = lock();
    let dir = fresh_dir("heal");
    let spec = spec_for(Workload::ComputeBound, 1_000);
    let (key, desc, baseline) = populate(&spec, &dir);
    std::fs::write(log_file(&dir), "garbage").expect("damage written");
    clear_stores();
    assert!(result_lookup(key, &desc, Some(&dir)).is_none());
    // Re-store (as a recomputing run would) and read it back from disk.
    result_store(key, &desc, &baseline, Some(&dir));
    clear_stores();
    let hit = result_lookup(key, &desc, Some(&dir)).expect("healed entry hits");
    assert!(hit.cache_hit);
    assert_eq!(hit.stats.to_kv(), baseline.stats.to_kv());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frames_another_process_appends_are_found_on_a_miss() {
    let _guard = lock();
    let dir = fresh_dir("foreign");
    std::fs::create_dir_all(&dir).expect("cache dir");
    // A log named for another process (pid 0 is never a user process).
    let foreign = dir.join("results-0.log");
    let append = |spec: &RunSpec| {
        let program = spec.workload.build(&spec.params);
        let (key, desc) = result_key(spec, &program);
        let result = run_one(spec).expect("run");
        let frame = encode_cache_file("result", &result_to_text(&desc, &result));
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&foreign)
            .and_then(|mut f| f.write_all(frame.as_bytes()))
            .expect("frame appended");
        (key, desc, result)
    };
    let (key, desc, first) = append(&spec_for(Workload::ComputeBound, 1_100));
    clear_stores();
    let hit = result_lookup(key, &desc, Some(&dir)).expect("foreign frame hits");
    assert!(hit.cache_hit);
    assert_eq!(hit.stats.to_kv(), first.stats.to_kv());
    // Appended after that scan: the next miss rescans the grown log.
    let (key, desc, second) = append(&spec_for(Workload::ComputeBound, 1_200));
    let hit = result_lookup(key, &desc, Some(&dir)).expect("later frame hits");
    assert_eq!(hit.stats.to_kv(), second.stats.to_kv());
    assert!(!log_file(&dir).exists(), "reads create no log");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_tail_frame_is_a_miss_not_a_quarantine() {
    let _guard = lock();
    let dir = fresh_dir("tail");
    let spec = spec_for(Workload::ComputeBound, 1_300);
    let (key, desc, baseline) = populate(&spec, &dir);
    let log = log_file(&dir);
    let whole = std::fs::read(&log).expect("log readable");
    std::fs::write(&log, &whole[..whole.len() / 3]).expect("truncation written");
    clear_stores();
    assert!(result_lookup(key, &desc, Some(&dir)).is_none(), "a miss");
    assert!(corrupt_files(&dir).is_empty(), "nothing quarantined");
    // The writer finishes its frame: the next miss serves it.
    std::fs::write(&log, &whole).expect("rest written");
    let hit = result_lookup(key, &desc, Some(&dir)).expect("finished frame hits");
    assert_eq!(hit.stats.to_kv(), baseline.stats.to_kv());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stomped_frame_is_quarantined_once_and_the_recomputed_frame_wins() {
    let _guard = lock();
    let dir = fresh_dir("stomp");
    let spec = spec_for(Workload::LbmLike, 1_200);
    let (key, desc, baseline) = populate(&spec, &dir);
    let log = log_file(&dir);
    let frame = frames(&log).pop().expect("one frame");
    let mut bytes = std::fs::read(&log).expect("log readable");
    let mid = (frame.start + frame.end) / 2;
    bytes[mid..mid + 7].copy_from_slice(b"CORRUPT");
    std::fs::write(&log, bytes).expect("stomp written");
    for _ in 0..2 {
        clear_stores();
        assert!(result_lookup(key, &desc, Some(&dir)).is_none());
        assert_eq!(corrupt_files(&dir).len(), 1, "quarantined exactly once");
    }
    let recomputed = run_one(&spec).expect("recompute");
    assert_eq!(recomputed.stats.to_kv(), baseline.stats.to_kv());
    result_store(key, &desc, &recomputed, Some(&dir));
    assert_eq!(
        frames(&log).len(),
        1,
        "one whole frame follows the stomped one"
    );
    clear_stores();
    let hit = result_lookup(key, &desc, Some(&dir)).expect("recomputed frame hits");
    assert_eq!(hit.stats.to_kv(), baseline.stats.to_kv());
    assert_eq!(hit.energy, baseline.energy);
    assert_eq!(corrupt_files(&dir).len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn writer_reopens_a_log_whose_directory_was_recreated() {
    let _guard = lock();
    let dir = fresh_dir("recreate");
    let spec = spec_for(Workload::ComputeBound, 1_400);
    let (key, desc, baseline) = populate(&spec, &dir);
    std::fs::remove_dir_all(&dir).expect("directory deleted");
    std::fs::create_dir_all(&dir).expect("directory recreated");
    try_result_store_disk(&dir, key, &desc, &baseline).expect("disk store");
    assert_eq!(
        frames(&log_file(&dir)).len(),
        1,
        "the new log holds the frame"
    );
    clear_stores();
    let hit = result_lookup(key, &desc, Some(&dir)).expect("disk hit");
    assert_eq!(hit.stats.to_kv(), baseline.stats.to_kv());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_never_produce_a_torn_read() {
    let _guard = lock();
    let dir = fresh_dir("race");
    let spec = spec_for(Workload::LbmLike, 1_500);
    let program = spec.workload.build(&spec.params);
    let (key, desc) = result_key(&spec, &program);
    let baseline = run_one(&spec).expect("baseline run");
    let expected_kv = baseline.stats.to_kv();

    // The log only grows, and every read below rescans it whole, so the
    // writers pause between appends to keep it small.
    let dir = Arc::new(dir);
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for _ in 0..2 {
        let dir = Arc::clone(&dir);
        let stop = Arc::clone(&stop);
        let baseline = baseline.clone();
        let desc = desc.clone();
        writers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                try_result_store_disk(&dir, key, &desc, &baseline).expect("disk store");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }));
    }

    // Wait for the first store to land so the racing reads below actually
    // overlap the writers (under load the reader loop can otherwise finish
    // before the writer threads are even scheduled).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !log_file(&dir).exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "writers never produced an entry"
        );
        std::thread::yield_now();
    }

    // The reader bypasses the in-memory store each iteration: every disk
    // read racing the two writers must see either no whole frame or one
    // whole, checksum-valid entry — never a torn write.
    let mut hits = 0;
    for _ in 0..300 {
        clear_stores();
        if let Some(hit) = result_lookup(key, &desc, Some(&dir)) {
            assert_eq!(hit.stats.to_kv(), expected_kv, "read result is whole");
            hits += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer thread");
    }
    assert!(hits > 0, "reader observed the entry at least once");
    assert!(
        corrupt_files(&dir).is_empty(),
        "no reader ever quarantined a half-written entry"
    );
    let _ = std::fs::remove_dir_all(dir.as_path());
}
