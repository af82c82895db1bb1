//! Global snapshot stores and the content-addressed result cache.
//!
//! Every process-global memo in this crate is one `Memo`, keyed by stable
//! FNV-1a hashes ([`pre_model::hash::StableHasher`]) so keys survive across
//! processes:
//!
//! 1. **Program store** — built workload programs, one `Arc` per
//!    (workload, params), so every store key below hashes a program once.
//! 2. **Snapshot store** — configuration-*independent* warm-up snapshots
//!    ([`SimSnapshot`]), keyed by (program content hash, warm-up budget).
//!    Captured once per workload and shared by every sweep point; persisted
//!    under the cache directory so repeated invocations skip warm-up too.
//! 3. **Warmed-state store** — configuration-*dependent* warmed caches and
//!    predictor ([`WarmedState`]), keyed additionally by the memory-hierarchy
//!    and frontend configuration. A ROB/IQ/EMQ/SST sweep shares one entry.
//! 4. **Result cache** — finished [`RunResult`]s keyed by the full run
//!    specification (config + technique + program + budget + warm-up),
//!    in-memory always, and persisted as text files under a directory
//!    (`PRE_CACHE_DIR`) when one is configured.
//! 5. **Sampling plans** — profiles and clusterings (`crate::sample`).
//!
//! Every entry stores its full human-readable key description alongside the
//! 64-bit hash and verifies it on lookup, so a hash collision degrades to a
//! cache miss, never to a wrong answer. Cached results are byte-identical to
//! the run that produced them (the stats serialization round-trips exactly),
//! which the golden tests assert.
//!
//! # Disk integrity
//!
//! Snapshots and results share one disk tier (`Tier`). Every on-disk entry
//! is framed by a magic/version header carrying the body length and an
//! FNV-1a checksum, and is written atomically (unique temp file in the same
//! directory + `rename`), so concurrent sweeps sharing one `PRE_CACHE_DIR`
//! never observe a half-written entry. A file that fails the header,
//! checksum, length or parse check is **quarantined** — renamed to
//! `<name>.corrupt` with a warning — and treated as a cache miss, so a
//! corrupt or truncated entry (including pre-header `v1` files) degrades to
//! recomputation, never to a wrong answer or an abort. Quarantined snapshot
//! entries fall back to a cold re-capture, which is bit-identical by
//! construction.

// The degradation contract above is why unwrap/expect are banned here: every
// failure on this path must surface as a typed error or a quarantine+miss,
// never an unwind.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::runner::{RunResult, RunSpec};
use pre_core::WarmedState;
use pre_energy::EnergyBreakdown;
use pre_model::config::SimConfig;
use pre_model::error::SimError;
use pre_model::hash::{stable_hash_of_debug, StableHasher};
use pre_model::program::Program;
use pre_model::snapshot::SimSnapshot;
use pre_model::stats::SimStats;
use pre_runahead::Technique;
use pre_workloads::{Workload, WorkloadParams};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A process-global memo: 64-bit key → (full key description, value slot).
/// Lookups verify the description, so a hash collision is a miss, never a
/// wrong answer. Values are built outside the map lock, once per key: a
/// thread asking for a key whose value another thread is building waits for
/// that build instead of repeating it, so how much work a batch does never
/// depends on how its requests interleave. A build that panics leaves the
/// slot empty, and the next request (or a waiter) builds it afresh.
#[derive(Debug)]
pub(crate) struct Memo<V>(OnceLock<Mutex<HashMap<u64, Keyed<V>>>>);

/// One memo entry: its key description and its value slot, filled by
/// whichever request builds it first.
type Keyed<V> = (String, Arc<OnceLock<V>>);

impl<V: Clone> Memo<V> {
    /// An empty memo, usable as a `static`.
    pub(crate) const fn new() -> Self {
        Memo(OnceLock::new())
    }

    /// Locks the map, recovering from poisoning. The supervised pool catches
    /// cell panics, so a worker that died while holding the lock must not
    /// cascade its failure into every surviving cell; entries are only ever
    /// inserted whole, so the map is consistent even after a poisoned unlock.
    fn map(&self) -> MutexGuard<'_, HashMap<u64, Keyed<V>>> {
        self.0
            .get_or_init(Default::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The slot of `key`, created empty if the key is new; `None` on a 64-bit
    /// collision with another live description (the incumbent stays).
    fn slot(&self, key: u64, desc: &str) -> Option<Arc<OnceLock<V>>> {
        match self.map().entry(key) {
            Entry::Occupied(entry) if entry.get().0 == desc => Some(Arc::clone(&entry.get().1)),
            Entry::Occupied(_) => None,
            Entry::Vacant(entry) => Some(Arc::clone(
                &entry.insert((desc.to_string(), Arc::default())).1,
            )),
        }
    }

    /// The value stored under `key`, if it was stored under `desc` and its
    /// build has finished.
    pub(crate) fn get(&self, key: u64, desc: &str) -> Option<V> {
        let map = self.map();
        let (stored, slot) = map.get(&key)?;
        if stored != desc {
            return None;
        }
        slot.get().cloned()
    }

    /// The value stored under `key`, or else `build` (outside the map lock)
    /// and store it. Concurrent requests for one key run one `build`. On a
    /// collision the caller gets its own value back (uncached).
    pub(crate) fn get_or_insert_with(&self, key: u64, desc: &str, build: impl FnOnce() -> V) -> V {
        match self.slot(key, desc) {
            Some(slot) => slot.get_or_init(build).clone(),
            None => build(),
        }
    }

    /// Drops every entry.
    pub(crate) fn clear(&self) {
        self.map().clear();
    }
}

/// Hashes a key description into the `(key, description)` pair every memo
/// and disk entry is addressed by.
pub(crate) fn key_of(desc: String) -> (u64, String) {
    let mut h = StableHasher::new();
    h.write_str(&desc);
    (h.finish(), desc)
}

static PROGRAMS: Memo<Arc<Program>> = Memo::new();
static SNAPSHOTS: Memo<Arc<SimSnapshot>> = Memo::new();
static WARMED: Memo<Arc<WarmedState>> = Memo::new();
static RESULTS: Memo<RunResult> = Memo::new();

/// Empties every in-process memo (programs, snapshots, warmed state,
/// results, sampling plans). Benches and golden tests call this to force
/// cold paths; the on-disk cache is untouched.
pub fn clear_stores() {
    PROGRAMS.clear();
    SNAPSHOTS.clear();
    WARMED.clear();
    RESULTS.clear();
    crate::sample::PLANS.clear();
}

/// Serializes the unit tests that empty the process-global stores and then
/// assert on what they hold: the test harness runs tests on parallel
/// threads, and one test's [`clear_stores`] must not land inside another's
/// store-then-lookup sequence.
#[cfg(test)]
pub(crate) fn lock_stores() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The built program for `(workload, params)`, shared process-wide.
///
/// Building a workload is pure, so every run of the same cell constructs
/// the same program — but multi-megabyte images (the large pointer-chase
/// table) cost milliseconds to build and milliseconds more to content-hash,
/// and a sampled run launches one detailed run per representative slice.
/// Serving one `Arc<Program>` per cell makes those slices share a single
/// build *and* a single memoized [`Program::content_hash`], which every
/// downstream store key (snapshots, warmed state, results) asks for.
pub fn program_for(workload: Workload, params: &WorkloadParams) -> Arc<Program> {
    let (key, desc) = key_of(format!("program v1 workload={workload} params={params:?}"));
    PROGRAMS.get_or_insert_with(key, &desc, || Arc::new(workload.build(params)))
}

// ---------------------------------------------------------------------------
// Disk-cache integrity: framing, atomic writes, quarantine
// ---------------------------------------------------------------------------

/// Magic + version of the framed on-disk cache format. Bumping the version
/// quarantines (and recomputes) every older entry.
const CACHE_MAGIC: &str = "pre-cache v2";

fn body_checksum(body: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(body);
    h.finish()
}

/// Frames `body` with the integrity header:
/// `pre-cache v2 <kind> <body-bytes> <fnv1a-checksum>`.
pub fn encode_cache_file(kind: &str, body: &str) -> String {
    format!("{}{body}", cache_header(kind, body))
}

/// The integrity header line [`encode_cache_file`] puts before `body`.
fn cache_header(kind: &str, body: &str) -> String {
    format!(
        "{CACHE_MAGIC} {kind} {} {:016x}\n",
        body.len(),
        body_checksum(body)
    )
}

/// Verifies the framing written by [`encode_cache_file`] and returns the
/// body.
///
/// # Errors
///
/// Returns a description of the first integrity violation (bad magic, wrong
/// kind, truncated body, checksum mismatch).
pub fn decode_cache_file<'a>(kind: &str, text: &'a str) -> Result<&'a str, String> {
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| "missing cache header line".to_string())?;
    let rest = header
        .strip_prefix(CACHE_MAGIC)
        .ok_or_else(|| format!("not a `{CACHE_MAGIC}` file"))?;
    let mut parts = rest.split_whitespace();
    let file_kind = parts.next().ok_or("missing cache entry kind")?;
    if file_kind != kind {
        return Err(format!(
            "cache entry kind is `{file_kind}`, expected `{kind}`"
        ));
    }
    let len: usize = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("bad body length in cache header")?;
    let checksum = parts
        .next()
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or("bad checksum in cache header")?;
    if parts.next().is_some() {
        return Err("trailing fields in cache header".to_string());
    }
    if body.len() != len {
        return Err(format!(
            "truncated cache entry: header says {len} bytes, file has {}",
            body.len()
        ));
    }
    let actual = body_checksum(body);
    if actual != checksum {
        return Err(format!(
            "cache checksum mismatch: header {checksum:016x}, body {actual:016x}"
        ));
    }
    Ok(body)
}

/// Writes the concatenation of `parts` to `path` atomically: a
/// uniquely-named temp file in the same directory, then `rename`. Readers
/// (and concurrent writers racing on the same key) observe either the old
/// file or the whole new one, never a torn write; whichever rename lands
/// last wins, and both payloads are deterministic for one key so either
/// winner is correct.
fn write_atomic(path: &Path, parts: &[&str]) -> Result<(), String> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().ok_or("cache path has no parent directory")?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create_dir_all: {e}"))?;
    let name = path
        .file_name()
        .ok_or("cache path has no file name")?
        .to_string_lossy();
    let tmp = dir.join(format!(
        ".{name}.tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::File::create(&tmp)
        .and_then(|mut file| parts.iter().try_for_each(|p| file.write_all(p.as_bytes())))
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("rename {} -> {}: {e}", tmp.display(), path.display())
    })
}

/// Quarantines a corrupt cache entry: renames it to `<name>.corrupt` (so it
/// stops matching lookups and is preserved for inspection) and logs a
/// warning. Every caller then proceeds as a cache miss.
fn quarantine(path: &Path, detail: &str) {
    let mut target = path.as_os_str().to_owned();
    target.push(".corrupt");
    let target = PathBuf::from(target);
    match std::fs::rename(path, &target) {
        Ok(()) => eprintln!(
            "warning: quarantined corrupt cache entry {} -> {}: {detail}",
            path.display(),
            target.display()
        ),
        Err(e) => eprintln!(
            "warning: corrupt cache entry {} ({detail}); quarantine rename failed: {e}",
            path.display()
        ),
    }
}

/// The framed disk tier: one file per entry, `<kind>_<key:016x>.txt`, whose
/// body starts with the entry's key description.
#[derive(Debug, Clone, Copy)]
enum Tier {
    Snapshot,
    Result,
}

impl Tier {
    fn kind(self) -> &'static str {
        match self {
            Tier::Snapshot => "snapshot",
            Tier::Result => "result",
        }
    }

    fn path(self, dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{}_{key:016x}.txt", self.kind()))
    }

    /// Reads entry `key` and parses its body into `(stored description,
    /// value)`. A missing file, or one stored under another description (a
    /// hash collision), is a miss; an I/O failure is a warning and a miss;
    /// anything failing the framing, checksum or parse is quarantined and a
    /// miss.
    fn read<V>(
        self,
        dir: &Path,
        key: u64,
        desc: &str,
        parse: impl FnOnce(&str) -> Result<(String, V), String>,
    ) -> Option<V> {
        let path = self.path(dir, key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Not UTF-8: bit rot, not a transient I/O failure.
                quarantine(&path, "cache entry is not valid UTF-8");
                return None;
            }
            Err(e) => {
                eprintln!("warning: cannot read cache entry {}: {e}", path.display());
                return None;
            }
        };
        match decode_cache_file(self.kind(), &text).and_then(parse) {
            Ok((stored, value)) => (stored == desc).then_some(value),
            Err(detail) => {
                quarantine(&path, &detail);
                None
            }
        }
    }

    /// Writes entry `key` (framed as [`encode_cache_file`] frames it, without
    /// copying `body`; atomic), then applies this tier's armed `PRE_FAULT`
    /// damage, if any.
    fn write(self, dir: &Path, key: u64, body: &str) -> Result<(), SimError> {
        let path = self.path(dir, key);
        let header = cache_header(self.kind(), body);
        write_atomic(&path, &[&header, body]).map_err(|detail| SimError::Cache {
            path: path.display().to_string(),
            detail,
        })?;
        match self {
            Tier::Snapshot if crate::fault::should_truncate_snapshot() => inject_truncation(&path),
            Tier::Result if crate::fault::should_corrupt_cache(key) => inject_corruption(&path),
            _ => {}
        }
        Ok(())
    }
}

/// `corrupt-cache` fault: overwrites a span in the middle of the file so the
/// checksum no longer matches (deliberately not atomic — it models a torn or
/// bit-rotted entry).
fn inject_corruption(path: &Path) {
    if let Ok(mut bytes) = std::fs::read(path) {
        let mid = bytes.len() / 2;
        for b in bytes.iter_mut().skip(mid).take(16) {
            *b = b'X';
        }
        let _ = std::fs::write(path, bytes);
    }
}

/// `truncate-snapshot` fault: cuts the file in half, modelling a writer that
/// died mid-write without the atomic-rename protection.
fn inject_truncation(path: &Path) {
    if let Ok(bytes) = std::fs::read(path) {
        let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
    }
}

// ---------------------------------------------------------------------------
// Snapshot + warmed-state stores
// ---------------------------------------------------------------------------

fn snapshot_key(program: &Program, warmup_uops: u64, window: u64) -> (u64, String) {
    // The warm-trace window is part of the key: a per-interval snapshot at
    // offset W with a one-interval window must never collide with the plain
    // warm-up-budget snapshot at the same W (full window), or forked runs
    // would warm from the wrong trace span.
    key_of(format!(
        "snapshot v2 program={:016x} warmup={} window={}",
        program.content_hash(),
        warmup_uops,
        window
    ))
}

/// Parses a snapshot entry body: a `keydesc` line, then the snapshot text.
fn parse_snapshot(body: &str) -> Result<(String, SimSnapshot), String> {
    let (first, text) = body.split_once('\n').ok_or("empty snapshot body")?;
    let desc = first
        .strip_prefix("keydesc ")
        .ok_or("missing keydesc line")?;
    Ok((desc.to_string(), SimSnapshot::from_text(text)?))
}

/// The warm-up snapshot of `program` after `warmup_uops` micro-ops whose
/// warm trace covers only the final `window` of them (`window ==
/// warmup_uops` traces the whole warm-up; sampled runs fork mid-execution
/// representatives with one interval of warm history). Captured on first
/// request and shared (via `Arc`) afterwards.
///
/// Lookup order: in-memory store, then `disk_dir` (`None` = memory only;
/// callers pass [`env_cache_dir`] for `PRE_CACHE_DIR`), then a fresh
/// capture. A disk entry that fails the integrity or parse checks is
/// quarantined and the snapshot is re-captured cold — bit-identical to the
/// persisted one by determinism, so a truncated snapshot file costs time,
/// never correctness. Capture happens outside the store lock, so concurrent
/// first requests may both capture; the result is deterministic, so
/// whichever insertion wins is correct for both.
pub fn snapshot_for(
    program: &Program,
    warmup_uops: u64,
    window: u64,
    disk_dir: Option<&Path>,
) -> Arc<SimSnapshot> {
    if let Some(snap) = snapshot_lookup(program, warmup_uops, window, disk_dir) {
        return snap;
    }
    let snap = SimSnapshot::capture_windowed(program, warmup_uops, window);
    snapshot_publish(program, warmup_uops, window, snap, disk_dir)
}

/// Probes the snapshot store (memory, then `disk_dir`) without capturing on
/// a miss. Disk hits are promoted into the in-memory store. The sampling
/// batch-capture pass uses this to skip offsets that are already cached.
pub fn snapshot_lookup(
    program: &Program,
    warmup_uops: u64,
    window: u64,
    disk_dir: Option<&Path>,
) -> Option<Arc<SimSnapshot>> {
    let (key, desc) = snapshot_key(program, warmup_uops, window);
    if let Some(snap) = SNAPSHOTS.get(key, &desc) {
        return Some(snap);
    }
    let snap = Tier::Snapshot.read(disk_dir?, key, &desc, parse_snapshot)?;
    Some(SNAPSHOTS.get_or_insert_with(key, &desc, || Arc::new(snap)))
}

/// Inserts an externally-captured snapshot into the store (and, best-effort,
/// onto disk), returning the shared entry. The sampling batch-capture pass
/// publishes per-interval snapshots through this; the snapshot must be
/// bit-identical to what [`SimSnapshot::capture_windowed`] would produce for
/// the same key, which the batch pass guarantees by construction.
pub fn snapshot_publish(
    program: &Program,
    warmup_uops: u64,
    window: u64,
    snap: SimSnapshot,
    disk_dir: Option<&Path>,
) -> Arc<SimSnapshot> {
    let (key, desc) = snapshot_key(program, warmup_uops, window);
    if let Some(dir) = disk_dir {
        // The warm-up text of a large program runs to megabytes: build it
        // once, in place after the key line.
        let mut body = format!("keydesc {desc}\n");
        snap.write_text(&mut body);
        if let Err(e) = Tier::Snapshot.write(dir, key, &body) {
            eprintln!("warning: cannot persist snapshot: {e}");
        }
    }
    SNAPSHOTS.get_or_insert_with(key, &desc, || Arc::new(snap))
}

fn warmed_key(cfg: &SimConfig, program: &Program, warmup_uops: u64, window: u64) -> (u64, String) {
    // Everything MemoryHierarchy::new and BranchPredictorUnit::new read:
    // the four cache geometries, DRAM timing, the core frequency (DRAM
    // latency conversion) and the frontend (predictor) configuration. Core
    // and runahead sizing parameters are deliberately absent so a
    // ROB/IQ/EMQ/SST sweep shares one warmed state. The warm-trace window is
    // present: a windowed trace warms different state than a full one.
    key_of(format!(
        "warmed v2 program={:016x} warmup={} window={} mem={:016x} freq={:016x} frontend={:016x}",
        program.content_hash(),
        warmup_uops,
        window,
        stable_hash_of_debug(&(&cfg.l1i, &cfg.l1d, &cfg.l2, &cfg.l3, &cfg.dram)),
        cfg.core.freq_ghz.to_bits(),
        stable_hash_of_debug(&cfg.frontend),
    ))
}

/// The warmed caches + predictor for `cfg`'s memory hierarchy and frontend,
/// derived from `snap`'s trace on first request and shared afterwards.
/// `window` is the snapshot's warm-trace window (the warm-up budget itself
/// for full snapshots).
pub fn warmed_for(
    cfg: &SimConfig,
    program: &Program,
    warmup_uops: u64,
    window: u64,
    snap: &SimSnapshot,
) -> Arc<WarmedState> {
    let (key, desc) = warmed_key(cfg, program, warmup_uops, window);
    WARMED.get_or_insert_with(key, &desc, || {
        Arc::new(WarmedState::build(cfg, &snap.trace))
    })
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

/// The stable key (hash + full description) of one run specification.
/// Everything that can change the outcome enters the description: the
/// complete configuration, the technique, the *content* of the program the
/// workload builds (so editing a generator invalidates its entries), the
/// budget, the warm-up, and — only when set, so pre-existing descriptions
/// are unchanged — the warm-trace window and the sampling parameters.
/// Sampled (extrapolated) results therefore cache independently of full
/// runs of the same cell.
///
/// `CoreConfig::fast_forward` stays in the key with the rest of the
/// configuration: it leaves the simulated machine alone but not the
/// `SimStats` record, whose `ff_cycles` counts the skipped cycles (0 when
/// every cycle is ticked) and is part of the stored text.
pub fn result_key(spec: &RunSpec, program: &Program) -> (u64, String) {
    let mut desc = format!(
        "result v1 workload={} program={:016x} technique={} budget={} cycles={} warmup={} config={:?}",
        spec.workload.name(),
        program.content_hash(),
        spec.technique.label(),
        spec.max_uops,
        spec.max_cycles,
        spec.warmup_uops,
        spec.config,
    );
    if let Some(window) = spec.warm_window {
        let _ = write!(desc, " window={window}");
    }
    if let Some(sample) = &spec.sample {
        let _ = write!(desc, " sample={}", sample.label());
    }
    key_of(desc)
}

/// The on-disk cache directory, if the `PRE_CACHE_DIR` environment variable
/// names one.
pub fn env_cache_dir() -> Option<PathBuf> {
    std::env::var_os("PRE_CACHE_DIR").map(PathBuf::from)
}

/// Looks up a finished result, consulting the in-memory store first and then
/// `disk_dir` (if given). Disk hits are promoted into the in-memory store;
/// disk entries that fail the integrity checks are quarantined and reported
/// as a miss. The returned result has `cache_hit` set.
pub fn result_lookup(key: u64, desc: &str, disk_dir: Option<&Path>) -> Option<RunResult> {
    let mut hit = match RESULTS.get(key, desc) {
        Some(hit) => hit,
        None => {
            let stored = Tier::Result.read(disk_dir?, key, desc, result_from_text)?;
            RESULTS.get_or_insert_with(key, desc, || stored)
        }
    };
    hit.cache_hit = true;
    Some(hit)
}

/// Stores a finished result in the in-memory store and, when `disk_dir` is
/// given, as a framed text file under it. The disk write is best-effort (a
/// failure leaves only the in-memory entry and logs a warning); use
/// [`try_result_store_disk`] to surface the error instead.
pub fn result_store(key: u64, desc: &str, result: &RunResult, disk_dir: Option<&Path>) {
    let mut stored = result.clone();
    stored.cache_hit = false;
    RESULTS.get_or_insert_with(key, desc, || stored);
    if let Some(dir) = disk_dir {
        if let Err(e) = try_result_store_disk(dir, key, desc, result) {
            eprintln!("warning: cannot persist result: {e}");
        }
    }
}

/// Persists one result under `dir` (framed, atomic), surfacing I/O failures
/// as [`SimError::Cache`].
///
/// # Errors
///
/// Returns [`SimError::Cache`] when the temp-file write or rename fails.
pub fn try_result_store_disk(
    dir: &Path,
    key: u64,
    desc: &str,
    result: &RunResult,
) -> Result<(), SimError> {
    Tier::Result.write(dir, key, &result_to_text(desc, result))
}

fn energy_field_names() -> [&'static str; 6] {
    [
        "core_dynamic_nj",
        "runahead_structures_nj",
        "cache_dynamic_nj",
        "dram_dynamic_nj",
        "core_static_nj",
        "dram_static_nj",
    ]
}

fn energy_fields(e: &EnergyBreakdown) -> [f64; 6] {
    [
        e.core_dynamic_nj,
        e.runahead_structures_nj,
        e.cache_dynamic_nj,
        e.dram_dynamic_nj,
        e.core_static_nj,
        e.dram_static_nj,
    ]
}

/// Serializes a result (with its key description) to the line-oriented cache
/// body format. Exact roundtrip: energies are written as raw IEEE-754 bits.
/// On disk the body is additionally framed by [`encode_cache_file`].
pub fn result_to_text(desc: &str, result: &RunResult) -> String {
    let mut out = String::new();
    out.push_str("pre-result v1\n");
    let _ = writeln!(out, "keydesc {desc}");
    let _ = writeln!(out, "workload {}", result.workload.name());
    let _ = writeln!(out, "technique {}", result.technique.label());
    let _ = writeln!(out, "deadlocked {}", u8::from(result.deadlocked));
    if let Some(meta) = &result.sample {
        // Written only for extrapolated results, so measured entries stay
        // byte-identical to the pre-sampling format.
        let _ = writeln!(out, "sample.spec {}", meta.spec.label());
        let _ = writeln!(out, "sample.intervals_total {}", meta.intervals_total);
        let _ = writeln!(out, "sample.total_uops {}", meta.total_uops);
        let _ = writeln!(out, "sample.simulated_uops {}", meta.simulated_uops);
        let reps: Vec<String> = meta
            .weights
            .iter()
            .map(|w| format!("{}:{}:{}", w.interval, w.weight, w.uops))
            .collect();
        let _ = writeln!(
            out,
            "sample.reps {}",
            if reps.is_empty() {
                "-".to_string()
            } else {
                reps.join(",")
            }
        );
    }
    for (name, value) in energy_field_names()
        .iter()
        .zip(energy_fields(&result.energy))
    {
        let _ = writeln!(out, "energy.{name} {:016x}", value.to_bits());
    }
    out.push_str("stats\n");
    out.push_str(&result.stats.to_kv());
    out.push_str("end\n");
    out
}

/// Parses the format written by [`result_to_text`], returning the stored key
/// description and the result (with `cache_hit` false).
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn result_from_text(text: &str) -> Result<(String, RunResult), String> {
    let mut lines = text.lines();
    if lines.next() != Some("pre-result v1") {
        return Err("not a pre-result v1 file".to_string());
    }
    let mut desc = None;
    let mut workload = None;
    let mut technique = None;
    let mut deadlocked = false;
    let mut energy = [0f64; 6];
    let mut sample: Option<crate::sample::SampleMeta> = None;
    let mut stats_text = String::new();
    let mut in_stats = false;
    let mut saw_end = false;
    for line in lines {
        if in_stats {
            if line == "end" {
                saw_end = true;
                break;
            }
            stats_text.push_str(line);
            stats_text.push('\n');
            continue;
        }
        if line == "stats" {
            in_stats = true;
            continue;
        }
        let (tag, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed result line: {line}"))?;
        match tag {
            "keydesc" => desc = Some(value.to_string()),
            "workload" => {
                workload =
                    Some(Workload::from_str(value).map_err(|_| format!("bad workload: {value}"))?);
            }
            "technique" => {
                technique = Some(
                    Technique::from_str(&value.to_ascii_lowercase())
                        .map_err(|_| format!("bad technique: {value}"))?,
                );
            }
            "deadlocked" => deadlocked = value == "1",
            _ => {
                if let Some(field) = tag.strip_prefix("sample.") {
                    let meta = sample.get_or_insert_with(Default::default);
                    match field {
                        "spec" => {
                            meta.spec =
                                value.parse().map_err(|e| format!("bad sample spec: {e}"))?;
                        }
                        "intervals_total" => {
                            meta.intervals_total = value
                                .parse()
                                .map_err(|_| format!("bad sample.intervals_total: {value}"))?;
                        }
                        "total_uops" => {
                            meta.total_uops = value
                                .parse()
                                .map_err(|_| format!("bad sample.total_uops: {value}"))?;
                        }
                        "simulated_uops" => {
                            meta.simulated_uops = value
                                .parse()
                                .map_err(|_| format!("bad sample.simulated_uops: {value}"))?;
                        }
                        "reps" => {
                            meta.weights = parse_rep_weights(value)?;
                        }
                        other => return Err(format!("unknown sample field `{other}`")),
                    }
                } else if let Some(field) = tag.strip_prefix("energy.") {
                    let idx = energy_field_names()
                        .iter()
                        .position(|n| *n == field)
                        .ok_or_else(|| format!("unknown energy field `{field}`"))?;
                    let bits = u64::from_str_radix(value, 16)
                        .map_err(|_| format!("bad energy bits: {value}"))?;
                    energy[idx] = f64::from_bits(bits);
                } else {
                    return Err(format!("unknown result line tag `{tag}`"));
                }
            }
        }
    }
    if !saw_end {
        return Err("truncated result (no end marker)".to_string());
    }
    let stats = SimStats::from_kv(&stats_text)?;
    Ok((
        desc.ok_or("missing keydesc")?,
        RunResult {
            workload: workload.ok_or("missing workload")?,
            technique: technique.ok_or("missing technique")?,
            stats,
            energy: EnergyBreakdown {
                core_dynamic_nj: energy[0],
                runahead_structures_nj: energy[1],
                cache_dynamic_nj: energy[2],
                dram_dynamic_nj: energy[3],
                core_static_nj: energy[4],
                dram_static_nj: energy[5],
            },
            deadlocked,
            cache_hit: false,
            watchdog: None,
            sample,
        },
    ))
}

/// Parses the `sample.reps` value: comma-separated `interval:weight:uops`
/// triples, or `-` for an empty list.
fn parse_rep_weights(value: &str) -> Result<Vec<crate::sample::RepWeight>, String> {
    if value == "-" {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|entry| {
            let mut parts = entry.split(':');
            let mut next = || {
                parts
                    .next()
                    .and_then(|p| p.parse::<u64>().ok())
                    .ok_or_else(|| format!("bad sample.reps entry `{entry}`"))
            };
            let (interval, weight, uops) = (next()?, next()?, next()?);
            if parts.next().is_some() {
                return Err(format!("bad sample.reps entry `{entry}`"));
            }
            Ok(crate::sample::RepWeight {
                interval,
                weight,
                uops,
            })
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::runner::run_one;
    use pre_workloads::WorkloadParams;

    fn small_result() -> (RunSpec, RunResult) {
        let spec = RunSpec::new(Workload::ComputeBound, Technique::Pre)
            .with_budget(2_000)
            .with_config(SimConfig::small_for_tests())
            .with_params(WorkloadParams::short(50));
        let result = run_one(&spec).expect("valid run");
        (spec, result)
    }

    #[test]
    fn result_text_roundtrip_is_exact() {
        let (spec, result) = small_result();
        let program = spec.workload.build(&spec.params);
        let (_, desc) = result_key(&spec, &program);
        let text = result_to_text(&desc, &result);
        let (back_desc, back) = result_from_text(&text).expect("parses");
        assert_eq!(back_desc, desc);
        assert_eq!(back.workload, result.workload);
        assert_eq!(back.technique, result.technique);
        assert_eq!(back.stats, result.stats);
        assert_eq!(back.stats.to_kv(), result.stats.to_kv());
        assert_eq!(back.energy, result.energy);
        assert_eq!(back.deadlocked, result.deadlocked);
        // Re-serialization is byte-identical (cache hit == miss, bytewise).
        assert_eq!(result_to_text(&desc, &back), text);
    }

    #[test]
    fn framing_roundtrips_and_detects_damage() {
        let body = "hello cache\nline two\n";
        let framed = encode_cache_file("result", body);
        assert_eq!(decode_cache_file("result", &framed).unwrap(), body);
        // Wrong kind.
        assert!(decode_cache_file("snapshot", &framed).is_err());
        // Flipped byte in the body.
        let corrupt = framed.replace("hello", "hellO");
        assert!(decode_cache_file("result", &corrupt).is_err());
        // Truncation.
        let truncated = &framed[..framed.len() - 4];
        assert!(decode_cache_file("result", truncated).is_err());
        // Unframed v1-era file.
        assert!(decode_cache_file("result", body).is_err());
    }

    #[test]
    fn disk_cache_roundtrips_and_verifies_keydesc() {
        let _stores = lock_stores();
        let (spec, result) = small_result();
        let program = spec.workload.build(&spec.params);
        let (key, desc) = result_key(&spec, &program);
        let dir = std::env::temp_dir().join(format!("pre-cache-test-{key:016x}"));
        let _ = std::fs::remove_dir_all(&dir);
        clear_stores();
        assert!(result_lookup(key, &desc, Some(&dir)).is_none());
        result_store(key, &desc, &result, Some(&dir));
        clear_stores(); // force the disk path
        let hit = result_lookup(key, &desc, Some(&dir)).expect("disk hit");
        assert!(hit.cache_hit);
        assert_eq!(hit.stats, result.stats);
        assert_eq!(hit.stats.to_kv(), result.stats.to_kv());
        // A different description under the same hash is a miss, not a wrong
        // answer.
        clear_stores();
        assert!(result_lookup(key, "some other spec", Some(&dir)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_disk_roundtrip_and_truncation_fallback() {
        let _stores = lock_stores();
        let program = Workload::ComputeBound.build(&WorkloadParams::short(80));
        let (key, _) = snapshot_key(&program, 300, 300);
        let dir = std::env::temp_dir().join(format!("pre-snap-test-{key:016x}"));
        let _ = std::fs::remove_dir_all(&dir);
        clear_stores();
        let cold = snapshot_for(&program, 300, 300, Some(&dir));
        let path = Tier::Snapshot.path(&dir, key);
        assert!(path.exists(), "snapshot persisted");
        // A fresh process (cleared stores) answers from disk, identically.
        clear_stores();
        let from_disk = snapshot_for(&program, 300, 300, Some(&dir));
        assert!(!Arc::ptr_eq(&cold, &from_disk));
        assert_eq!(from_disk.to_text(), cold.to_text());
        // Truncate the file: next lookup quarantines it and re-captures.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        clear_stores();
        let refetched = snapshot_for(&program, 300, 300, Some(&dir));
        assert_eq!(
            refetched.to_text(),
            cold.to_text(),
            "cold fallback is bit-identical"
        );
        let corrupt = PathBuf::from(format!("{}.corrupt", path.display()));
        assert!(corrupt.exists(), "truncated snapshot was quarantined");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn published_snapshot_file_is_the_framed_body() {
        let _stores = lock_stores();
        let program = Workload::ComputeBound.build(&WorkloadParams::short(80));
        let (key, desc) = snapshot_key(&program, 300, 300);
        let dir = std::env::temp_dir().join(format!("pre-snap-frame-{key:016x}"));
        let _ = std::fs::remove_dir_all(&dir);
        clear_stores();
        let snap = SimSnapshot::capture_windowed(&program, 300, 300);
        let body = format!("keydesc {desc}\n{}", snap.to_text());
        snapshot_publish(&program, 300, 300, snap, Some(&dir));
        let written = std::fs::read_to_string(Tier::Snapshot.path(&dir, key)).unwrap();
        assert_eq!(written, encode_cache_file("snapshot", &body));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_key_is_sensitive_to_spec_changes() {
        let spec = RunSpec::new(Workload::ComputeBound, Technique::Pre).with_budget(2_000);
        let program = spec.workload.build(&spec.params);
        let (k1, _) = result_key(&spec, &program);
        let (k2, _) = result_key(&spec.clone().with_budget(3_000), &program);
        let (k3, _) = result_key(&spec.clone().with_warmup(1_000), &program);
        let mut cfg_spec = spec.clone();
        cfg_spec.config.runahead.sst_entries = 16;
        let (k4, _) = result_key(&cfg_spec, &program);
        let mut tick_spec = spec.clone();
        tick_spec.config.core.fast_forward = false;
        let (k5, _) = result_key(&tick_spec, &program);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_ne!(k1, k4);
        assert_ne!(k1, k5);
    }

    #[test]
    fn interval_snapshot_keys_never_collide_with_warmup_snapshots() {
        let _stores = lock_stores();
        let program = Workload::ComputeBound.build(&WorkloadParams::short(200));
        // A per-interval snapshot at offset 10k with a 2k warm window vs the
        // plain warm-up snapshot for a 10k warm-up budget (full window):
        // same program, same offset, different trace coverage.
        let (k_interval, d_interval) = snapshot_key(&program, 10_000, 2_000);
        let (k_warmup, d_warmup) = snapshot_key(&program, 10_000, 10_000);
        assert_ne!(k_interval, k_warmup, "keys must differ");
        assert_ne!(d_interval, d_warmup);
        assert!(d_interval.contains("window=2000"), "{d_interval}");

        // And the stores never cross-serve them.
        clear_stores();
        let windowed = snapshot_for(&program, 600, 200, None);
        assert!(
            snapshot_lookup(&program, 600, 600, None).is_none(),
            "full-window lookup must not hit the windowed entry"
        );
        let full = snapshot_for(&program, 600, 600, None);
        assert!(!Arc::ptr_eq(&windowed, &full));
        // Same architectural state, different trace coverage.
        assert_eq!(windowed.regs, full.regs);
        assert_eq!(windowed.pc, full.pc);
        assert!(windowed.trace.len() <= full.trace.len());
    }

    #[test]
    fn sampled_result_text_roundtrips_with_metadata() {
        use crate::sample::{RepWeight, SampleMeta, SampleSpec};
        let (spec, mut result) = small_result();
        result.sample = Some(SampleMeta {
            spec: SampleSpec::new(3, 500),
            intervals_total: 4,
            total_uops: 2_000,
            simulated_uops: 1_500,
            weights: vec![
                RepWeight {
                    interval: 0,
                    weight: 2,
                    uops: 500,
                },
                RepWeight {
                    interval: 2,
                    weight: 1,
                    uops: 500,
                },
                RepWeight {
                    interval: 3,
                    weight: 1,
                    uops: 500,
                },
            ],
        });
        let program = spec.workload.build(&spec.params);
        let sampled_spec = spec.clone().sampled(SampleSpec::new(3, 500));
        let (_, desc) = result_key(&sampled_spec, &program);
        assert!(desc.ends_with("sample=n=3,interval=500"), "{desc}");
        let (_, plain_desc) = result_key(&spec, &program);
        assert_ne!(desc, plain_desc, "sampled results cache independently");
        let text = result_to_text(&desc, &result);
        let (back_desc, back) = result_from_text(&text).expect("parses");
        assert_eq!(back_desc, desc);
        assert_eq!(back.sample, result.sample);
        assert_eq!(result_to_text(&desc, &back), text);
        // A measured result still serializes without any sample.* lines.
        let plain_text = result_to_text(
            &plain_desc,
            &RunResult {
                sample: None,
                ..result.clone()
            },
        );
        assert!(!plain_text.contains("sample."));
        let (_, plain_back) = result_from_text(&plain_text).expect("parses");
        assert!(plain_back.sample.is_none());
    }

    #[test]
    fn snapshot_store_shares_one_capture() {
        let _stores = lock_stores();
        clear_stores();
        let program = Workload::ComputeBound.build(&WorkloadParams::short(200));
        let a = snapshot_for(&program, 500, 500, None);
        let b = snapshot_for(&program, 500, 500, None);
        assert!(Arc::ptr_eq(&a, &b), "second request reuses the capture");
        let c = snapshot_for(&program, 600, 600, None);
        assert!(!Arc::ptr_eq(&a, &c), "different warm-up is a different key");
    }

    #[test]
    fn warmed_store_shares_across_core_sizing() {
        let _stores = lock_stores();
        clear_stores();
        let program = Workload::ComputeBound.build(&WorkloadParams::short(200));
        let snap = snapshot_for(&program, 500, 500, None);
        let base = SimConfig::haswell_like();
        let mut resized = base.clone();
        resized.core.rob_entries = 128;
        resized.runahead.sst_entries = 16;
        let a = warmed_for(&base, &program, 500, 500, &snap);
        let b = warmed_for(&resized, &program, 500, 500, &snap);
        assert!(
            Arc::ptr_eq(&a, &b),
            "ROB/SST sizing shares the warmed state"
        );
        let mut l3_grown = base.clone();
        l3_grown.l3.size_bytes *= 2;
        let c = warmed_for(&l3_grown, &program, 500, 500, &snap);
        assert!(
            !Arc::ptr_eq(&a, &c),
            "cache geometry forks the warmed state"
        );
    }

    #[test]
    fn memo_builds_each_key_once_under_concurrent_requests() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        let memo: Memo<u64> = Memo::new();
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(4);
        let values: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        memo.get_or_insert_with(7, "seven", || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            49
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(values, vec![49; 4]);
        assert_eq!(builds.load(Ordering::Relaxed), 1, "one build per key");
        assert_eq!(memo.get(7, "seven"), Some(49));
        assert_eq!(memo.get(7, "other"), None, "collision is a miss");
        assert_eq!(memo.get_or_insert_with(7, "other", || 1), 1);
    }

    #[test]
    fn memo_rebuilds_after_a_panicking_build() {
        let memo: Memo<u64> = Memo::new();
        let failed = std::thread::scope(|scope| {
            scope
                .spawn(|| memo.get_or_insert_with(3, "three", || panic!("build fails")))
                .join()
                .is_err()
        });
        assert!(failed);
        assert_eq!(memo.get(3, "three"), None, "a failed build stores nothing");
        assert_eq!(memo.get_or_insert_with(3, "three", || 9), 9);
        assert_eq!(memo.get(3, "three"), Some(9));
    }
}
