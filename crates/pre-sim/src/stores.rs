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
//!    An entry lives only as long as the batch that forks from it: each
//!    work item holds its key (`WarmedHold`) from before the batch's
//!    first pool call until it finishes, however it ends, and the last
//!    hold dropped removes the entry. `run_one` holds its key for its
//!    run. At the Table 1 geometry an entry is about 0.75 MB (21 504
//!    cache lines plus the predictor), and a sampled mixed matrix at 2 M
//!    micro-ops per cell forks from 122 of them. Keeping every one until
//!    [`clear_stores`] put perfbench `sampled-long`'s peak resident set at
//!    a 211.9 MiB median on 2 workers; freeing each after its last fork
//!    puts it at 138.7 MiB (six paired runs).
//! 4. **Result cache** — finished [`RunResult`]s keyed by the full run
//!    specification (config + technique + program + budget + warm-up),
//!    in-memory always, and appended to a results log under a directory
//!    (`PRE_CACHE_DIR`) when one is configured.
//! 5. **Sampling plans** — profiles and clusterings (`crate::sample`).
//!
//! Every entry stores its full human-readable key description alongside the
//! 64-bit hash and verifies it on lookup, so a hash collision degrades to a
//! cache miss, never to a wrong answer. Cached results are byte-identical to
//! the run that produced them (the stats serialization round-trips exactly),
//! which the golden tests assert.
//!
//! # Disk layout and integrity
//!
//! Every on-disk entry is framed by a magic/version header carrying the
//! body length and an FNV-1a checksum
//! (`pre-cache v2 <kind> <len> <checksum>`), and its body starts with the
//! entry's key description. Damage degrades to recomputation, never to a
//! wrong answer or an abort:
//!
//! - **Snapshots** are few and large: one file per key,
//!   `snapshot_<key:016x>.txt`, written atomically (unique temp file in the
//!   same directory + `rename`), so concurrent sweeps sharing one
//!   `PRE_CACHE_DIR` never observe a half-written one. A file that fails
//!   the header, checksum, length or parse check is **quarantined** —
//!   renamed to `<name>.corrupt` with a warning — and re-captured cold,
//!   which is bit-identical by construction.
//! - **Results** are many and small: each process appends them to its own
//!   log, `results-<pid>.log`, opened once and written one frame per
//!   `write_all` under a mutex (with one new file per result, creating
//!   files took a large share of a cold sweep). An in-process index maps
//!   each key to its latest whole frame (log, offset, length); a miss
//!   rescans only the logs that grew since the last scan, so results that
//!   other processes append still become visible. For one key the latest frame wins. A
//!   frame that fails its magic, length, checksum or parse check is
//!   quarantined: its bytes are copied to `<log>.<offset>.corrupt`, its
//!   magic is overwritten in place so no later scan serves it, and the
//!   lookup is a miss whose recomputation appends a new frame. An
//!   incomplete frame at the end of a log is a miss and nothing more, since
//!   its writer may still be appending; a scan resyncs on the next frame
//!   magic. `result_<key>.txt` files of the earlier one-file-per-result
//!   layout are not read: they miss once and are recomputed.

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
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write as _};
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

    /// Drops the entry of `key`. A request that already holds its slot
    /// keeps it, and a build in flight still completes for its waiters; the
    /// next request for `key` builds afresh.
    pub(crate) fn remove(&self, key: u64) {
        self.map().remove(&key);
    }

    /// How many keys have an entry.
    fn len(&self) -> usize {
        self.map().len()
    }

    /// Drops every entry.
    pub(crate) fn clear(&self) {
        self.map().clear();
    }
}

/// Hashes a key description into the `(key, description)` pair every memo
/// and disk entry is addressed by.
pub(crate) fn key_of(desc: String) -> (u64, String) {
    (key_hash(&desc), desc)
}

/// The 64-bit key of a key description.
fn key_hash(desc: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(desc);
    h.finish()
}

static PROGRAMS: Memo<Arc<Program>> = Memo::new();
static SNAPSHOTS: Memo<Arc<SimSnapshot>> = Memo::new();
static WARMED: Memo<Arc<WarmedState>> = Memo::new();
static RESULTS: Memo<RunResult> = Memo::new();

/// Empties every in-process memo (programs, snapshots, warmed state,
/// results, sampling plans) and drops the results logs' index and open
/// logs, so the next disk lookup scans every log afresh. Benches and golden
/// tests call this to force cold paths; the on-disk cache is untouched.
pub fn clear_stores() {
    PROGRAMS.clear();
    SNAPSHOTS.clear();
    WARMED.clear();
    RESULTS.clear();
    crate::sample::PLANS.clear();
    RESULT_LOGS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
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
// Disk-cache integrity: framing, snapshot files, the result log
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

/// Parses a header line (without its newline) of an entry of `kind` into
/// the body length and checksum it declares.
fn parse_header(header: &str, kind: &str) -> Result<(usize, u64), String> {
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
    Ok((len, checksum))
}

/// Verifies the framing written by [`encode_cache_file`] and returns the
/// body.
///
/// # Errors
///
/// Returns a description of the first integrity violation (bad magic, wrong
/// kind, truncated body, checksum mismatch).
pub(crate) fn decode_cache_file<'a>(kind: &str, text: &'a str) -> Result<&'a str, String> {
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| "missing cache header line".to_string())?;
    let (len, checksum) = parse_header(header, kind)?;
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
/// winner is correct. Only snapshots are written this way: results go to
/// the append-only results log, because creating a file per result took a
/// large share of a cold sweep.
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
    File::create(&tmp)
        .and_then(|mut file| parts.iter().try_for_each(|p| file.write_all(p.as_bytes())))
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("rename {} -> {}: {e}", tmp.display(), path.display())
    })
}

/// Quarantines a corrupt snapshot file: renames it to `<name>.corrupt` (so
/// it stops matching lookups and is preserved for inspection) and logs a
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

/// The file of snapshot `key`: `snapshot_<key:016x>.txt`, whose body starts
/// with the snapshot's key description.
fn snapshot_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("snapshot_{key:016x}.txt"))
}

/// Reads snapshot `key` from `dir`. A missing file, or one stored under
/// another description (a hash collision), is a miss; an I/O failure is a
/// warning and a miss; anything failing the framing, checksum or parse is
/// quarantined and a miss.
fn read_snapshot_file(dir: &Path, key: u64, desc: &str) -> Option<SimSnapshot> {
    let path = snapshot_path(dir, key);
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
    match decode_cache_file("snapshot", &text).and_then(parse_snapshot) {
        Ok((stored, snap)) => (stored == desc).then_some(snap),
        Err(detail) => {
            quarantine(&path, &detail);
            None
        }
    }
}

/// Writes snapshot `key` under `dir` (key line, then the snapshot text,
/// framed as [`encode_cache_file`] frames it; atomic), then applies an
/// armed `truncate-snapshot` fault. Best-effort: a failure is a warning.
fn write_snapshot_file(dir: &Path, key: u64, desc: &str, snap: &SimSnapshot) {
    // The warm-up text of a large program runs to megabytes: build it once,
    // in place after the key line, and frame it without copying.
    let mut body = format!("keydesc {desc}\n");
    snap.write_text(&mut body);
    let path = snapshot_path(dir, key);
    match write_atomic(&path, &[&cache_header("snapshot", &body), &body]) {
        Ok(()) if crate::fault::should_truncate_snapshot() => inject_truncation(&path),
        Ok(()) => {}
        Err(detail) => eprintln!(
            "warning: cannot persist snapshot {}: {detail}",
            path.display()
        ),
    }
}

/// `truncate-snapshot` fault: cuts the file in half, modelling a writer that
/// died mid-write without the atomic-rename protection.
fn inject_truncation(path: &Path) {
    if let Ok(bytes) = std::fs::read(path) {
        let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
    }
}

/// How every frame starts, whatever its format version ([`CACHE_MAGIC`]
/// without the version number). A scan of a results log finds frames by it
/// and resyncs on it past damage; a frame of another version is quarantined.
const FRAME_MAGIC: &str = "pre-cache v";

/// This process's results log in `dir`.
fn own_log(dir: &Path) -> PathBuf {
    dir.join(format!("results-{}.log", std::process::id()))
}

/// Where one whole frame sits: its log, its offset, and its length with the
/// header.
#[derive(Debug, Clone)]
struct FrameLoc {
    log: Arc<Path>,
    offset: u64,
    len: usize,
}

/// This process's view of the results logs in one cache directory.
#[derive(Debug, Default)]
struct ResultLogs {
    /// This process's own log, opened for appending by its first store.
    writer: Option<File>,
    /// How many bytes of each log the scans have consumed.
    scanned: HashMap<Arc<Path>, u64>,
    /// The latest whole frame of each key.
    frames: HashMap<u64, FrameLoc>,
}

/// The results logs of every cache directory this process has used. One
/// lock covers the appends and the scans; frames are read outside it.
static RESULT_LOGS: Mutex<Vec<(PathBuf, ResultLogs)>> = Mutex::new(Vec::new());

/// Runs `f` on the results logs of `dir` under the lock (recovering from
/// poisoning, as [`Memo::map`] does).
fn with_result_logs<T>(dir: &Path, f: impl FnOnce(&mut ResultLogs) -> T) -> T {
    let mut all = RESULT_LOGS.lock().unwrap_or_else(PoisonError::into_inner);
    let i = match all.iter().position(|(d, _)| d == dir) {
        Some(i) => i,
        None => {
            all.push((dir.to_path_buf(), ResultLogs::default()));
            all.len() - 1
        }
    };
    f(&mut all[i].1)
}

impl ResultLogs {
    /// Forgets every scanned frame, so the next scan reads every log afresh.
    fn forget(&mut self) {
        self.scanned.clear();
        self.frames.clear();
    }

    /// Appends `key`'s `frame` to this process's `log`, opening it on first
    /// use and reopening it when it was unlinked (its directory deleted and
    /// recreated). Returns the frame's offset.
    fn append(
        &mut self,
        dir: &Path,
        log: &Arc<Path>,
        key: u64,
        frame: &[u8],
    ) -> std::io::Result<u64> {
        if self.writer.is_some() && !log.exists() {
            // Whatever was indexed here went with the old directory.
            self.writer = None;
            self.forget();
        }
        let writer = match &mut self.writer {
            Some(writer) => writer,
            slot => {
                std::fs::create_dir_all(dir)?;
                slot.insert(OpenOptions::new().create(true).append(true).open(log)?)
            }
        };
        // Only this process appends to its log, so the end is where the
        // frame goes.
        let offset = writer.seek(SeekFrom::End(0))?;
        writer.write_all(frame)?;
        // Index the frame as a scan would, so no scan reads it again.
        if self.scanned.get(log).copied().unwrap_or(0) == offset {
            let len = frame.len();
            self.scanned.insert(Arc::clone(log), offset + len as u64);
            let loc = FrameLoc {
                log: Arc::clone(log),
                offset,
                len,
            };
            self.frames.insert(key, loc);
        }
        Ok(offset)
    }

    /// Indexes the frames appended to the results logs in `dir` since the
    /// last scan.
    fn scan(&mut self, dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !(name.starts_with("results-") && name.ends_with(".log")) {
                continue;
            }
            let Ok(len) = entry.metadata().map(|m| m.len()) else {
                continue;
            };
            let log: Arc<Path> = entry.path().into();
            let scanned = self.scanned.get(&log).copied().unwrap_or(0);
            if len == scanned {
                continue;
            }
            let from = if len < scanned {
                // Shorter than it was: the log was replaced.
                self.frames.retain(|_, loc| loc.log != log);
                0
            } else {
                scanned
            };
            match self.scan_log(&log, from) {
                Ok(to) => {
                    self.scanned.insert(log, to);
                }
                Err(e) => eprintln!("warning: cannot read results log {}: {e}", log.display()),
            }
        }
    }

    /// Indexes the frames of `log` from byte `from` on, quarantining damaged
    /// ones, and returns how far the scan got: past the last frame, or to
    /// the start of an incomplete frame at the end, which a live writer may
    /// still be appending.
    fn scan_log(&mut self, log: &Arc<Path>, from: u64) -> std::io::Result<u64> {
        let mut bytes = Vec::new();
        let mut file = File::open(log)?;
        file.seek(SeekFrom::Start(from))?;
        file.read_to_end(&mut bytes)?;
        let mut pos = 0;
        while let Some(start) = find_frame(&bytes, pos) {
            let offset = from + start as u64;
            let parsed = parse_frame(&bytes[start..]);
            if let Ok(Some((key, len))) = parsed {
                let loc = FrameLoc {
                    log: Arc::clone(log),
                    offset,
                    len,
                };
                self.frames.insert(key, loc);
                pos = start + len;
                continue;
            }
            let next = find_frame(&bytes, start + 1);
            let detail = match (parsed, next) {
                (Ok(_), None) => return Ok(offset),
                (Ok(_), Some(_)) => "incomplete frame before the next one".to_string(),
                (Err(detail), _) => detail,
            };
            pos = next.unwrap_or(bytes.len());
            quarantine_frame(log, offset, &bytes[start..pos], &detail);
        }
        // Keep a tail that may be the start of a frame's magic for the next
        // scan.
        let tail = bytes.len().saturating_sub(FRAME_MAGIC.len() - 1);
        Ok(from + tail.max(pos) as u64)
    }
}

/// The position of the first frame magic in `bytes` at or after `from`.
fn find_frame(bytes: &[u8], from: usize) -> Option<usize> {
    let magic = FRAME_MAGIC.as_bytes();
    bytes
        .get(from..)?
        .windows(magic.len())
        .position(|w| w == magic)
        .map(|i| from + i)
}

/// Reads the frame at the start of `bytes`: its key and length when it is
/// whole, `None` when `bytes` end before it does, and the integrity
/// violation when it is damaged.
fn parse_frame(bytes: &[u8]) -> Result<Option<(u64, usize)>, String> {
    let Some(eol) = bytes.iter().position(|&b| b == b'\n') else {
        return Ok(None);
    };
    let header = std::str::from_utf8(&bytes[..eol]).map_err(|_| "cache header is not UTF-8")?;
    let (len, _) = parse_header(header, "result")?;
    let end = (eol + 1)
        .checked_add(len)
        .ok_or("bad body length in cache header")?;
    let Some(frame) = bytes.get(..end) else {
        return Ok(None);
    };
    let text = std::str::from_utf8(frame).map_err(|_| "cache entry is not valid UTF-8")?;
    let body = decode_cache_file("result", text)?;
    let desc = body
        .lines()
        .nth(1)
        .and_then(|line| line.strip_prefix("keydesc "))
        .ok_or("missing keydesc line")?;
    Ok(Some((key_hash(desc), end)))
}

/// Reads the frame at `loc`.
fn read_frame(loc: &FrameLoc) -> std::io::Result<Vec<u8>> {
    let mut file = File::open(&loc.log)?;
    file.seek(SeekFrom::Start(loc.offset))?;
    let mut bytes = vec![0; loc.len];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Quarantines a damaged frame: copies its bytes to
/// `<log>.<offset>.corrupt` and overwrites its magic in place, so no later
/// scan, of this process or another, serves it or quarantines it again.
/// Every caller then proceeds as a cache miss.
fn quarantine_frame(log: &Path, offset: u64, bytes: &[u8], detail: &str) {
    let target = PathBuf::from(format!("{}.{offset}.corrupt", log.display()));
    let copied = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&target)
        .and_then(|mut file| file.write_all(bytes));
    let stomped = overwrite(log, offset, &[b'X'; FRAME_MAGIC.len()]);
    match copied.and(stomped) {
        Ok(()) => eprintln!(
            "warning: quarantined corrupt cache entry {} at byte {offset} -> {}: {detail}",
            log.display(),
            target.display()
        ),
        // Another scanner got there first.
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
        Err(e) => eprintln!(
            "warning: corrupt cache entry {} at byte {offset} ({detail}); quarantine failed: {e}",
            log.display()
        ),
    }
}

/// Overwrites `log` at `offset` with `bytes`, in place.
fn overwrite(log: &Path, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = OpenOptions::new().write(true).open(log)?;
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)
}

/// Reads the latest frame of `key` from the results logs in `dir` and
/// parses it; a frame stored under another description (a hash collision)
/// is a miss. When the index has no frame for `key`, the logs that grew are
/// scanned first. When the indexed frame is no longer there (its directory
/// was recreated, or it was damaged after the scan), every log is rescanned
/// once.
fn read_result(dir: &Path, key: u64, desc: &str) -> Option<RunResult> {
    for rescan in [false, true] {
        let loc = with_result_logs(dir, |logs| {
            if rescan {
                logs.forget();
            }
            if !logs.frames.contains_key(&key) {
                logs.scan(dir);
            }
            logs.frames.get(&key).cloned()
        })?;
        let Ok(bytes) = read_frame(&loc) else {
            continue;
        };
        let Ok(body) = std::str::from_utf8(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| decode_cache_file("result", text))
        else {
            continue;
        };
        return match result_from_text(body) {
            Ok((stored, result)) => (stored == desc).then_some(result),
            Err(detail) => {
                quarantine_frame(&loc.log, loc.offset, &bytes, &detail);
                with_result_logs(dir, |logs| logs.frames.remove(&key));
                None
            }
        };
    }
    None
}

/// `corrupt-cache` fault: overwrites 16 bytes in the middle of the `len`-byte
/// frame just appended at `offset`, so its checksum no longer matches
/// (deliberately in place: it models a bit-rotted entry).
fn inject_corruption(log: &Path, offset: u64, len: usize) {
    let _ = overwrite(log, offset + len as u64 / 2, &[b'X'; 16]);
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
/// never correctness. Concurrent first requests for one key read the disk
/// and capture once: the others wait in the store's slot. A fresh capture
/// is written to disk after it is shared in memory, so the waiting requests
/// start at once.
pub fn snapshot_for(
    program: &Program,
    warmup_uops: u64,
    window: u64,
    disk_dir: Option<&Path>,
) -> Arc<SimSnapshot> {
    let (key, desc) = snapshot_key(program, warmup_uops, window);
    let mut captured = false;
    let snap = SNAPSHOTS.get_or_insert_with(key, &desc, || {
        if let Some(snap) = disk_dir.and_then(|dir| read_snapshot_file(dir, key, &desc)) {
            return Arc::new(snap);
        }
        #[cfg(test)]
        count_capture(key);
        captured = true;
        Arc::new(SimSnapshot::capture_windowed(program, warmup_uops, window))
    });
    if let (true, Some(dir)) = (captured, disk_dir) {
        write_snapshot_file(dir, key, &desc, &snap);
    }
    snap
}

/// How many times [`snapshot_for`] captured each snapshot key.
#[cfg(test)]
static CAPTURES: Mutex<Vec<u64>> = Mutex::new(Vec::new());

#[cfg(test)]
fn count_capture(key: u64) {
    CAPTURES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(key);
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
    let snap = read_snapshot_file(disk_dir?, key, &desc)?;
    Some(SNAPSHOTS.get_or_insert_with(key, &desc, || Arc::new(snap)))
}

/// Inserts an externally-captured snapshot into the store and then,
/// best-effort, onto disk, returning the shared entry. The sampling
/// batch-capture pass publishes per-interval snapshots through this; the
/// snapshot must be bit-identical to what [`SimSnapshot::capture_windowed`]
/// would produce for the same key, which the batch pass guarantees by
/// construction.
pub fn snapshot_publish(
    program: &Program,
    warmup_uops: u64,
    window: u64,
    snap: SimSnapshot,
    disk_dir: Option<&Path>,
) -> Arc<SimSnapshot> {
    let (key, desc) = snapshot_key(program, warmup_uops, window);
    let shared = SNAPSHOTS.get_or_insert_with(key, &desc, || Arc::new(snap));
    if let Some(dir) = disk_dir {
        write_snapshot_file(dir, key, &desc, &shared);
    }
    shared
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
/// for full snapshots). Inside a batch the entry is freed when the batch's
/// last fork from it finishes (see the module documentation); asked for
/// outside one, it stays until [`clear_stores`].
pub fn warmed_for(
    cfg: &SimConfig,
    program: &Program,
    warmup_uops: u64,
    window: u64,
    snap: &SimSnapshot,
) -> Arc<WarmedState> {
    let (key, desc) = warmed_key(cfg, program, warmup_uops, window);
    WARMED.get_or_insert_with(key, &desc, || {
        WARMED_BUILDS.fetch_add(1, Ordering::Relaxed);
        Arc::new(WarmedState::build(cfg, &snap.trace))
    })
}

/// How many live [`WarmedHold`]s each warmed-state key has.
static WARMED_HOLDS: Mutex<BTreeMap<u64, usize>> = Mutex::new(BTreeMap::new());

/// How many warmed states [`warmed_for`] has built.
static WARMED_BUILDS: AtomicU64 = AtomicU64::new(0);

/// A hold on the warmed state one run forks from. Every work item of a
/// batch takes one before the batch's first pool call and drops it when it
/// finishes, however it ended. While a key has holds its entry stays in the
/// store, so the batch builds it once; the drop of the last hold removes
/// it. Cores forked from it own their copies, so they run on unaffected,
/// and a later request (a retry, another batch) builds it again,
/// bit-identically.
#[derive(Debug)]
pub(crate) struct WarmedHold(u64);

impl WarmedHold {
    /// A hold on the warmed state `spec` forks from; `None` for a cold
    /// start.
    pub(crate) fn new(spec: &RunSpec) -> Option<WarmedHold> {
        if spec.warmup_uops == 0 {
            return None;
        }
        let program = program_for(spec.workload, &spec.params);
        let (key, _) = warmed_key(
            &spec.config,
            &program,
            spec.warmup_uops,
            spec.warm_trace_uops(),
        );
        *warmed_holds().entry(key).or_insert(0) += 1;
        Some(WarmedHold(key))
    }
}

impl Drop for WarmedHold {
    fn drop(&mut self) {
        // The store entry goes under the holds lock, so a hold taken
        // meanwhile either keeps it or finds it gone.
        let mut holds = warmed_holds();
        let Some(count) = holds.get_mut(&self.0) else {
            return;
        };
        *count -= 1;
        if *count == 0 {
            holds.remove(&self.0);
            WARMED.remove(self.0);
        }
    }
}

/// Locks [`WARMED_HOLDS`], recovering from poisoning (counts are updated
/// whole).
fn warmed_holds() -> MutexGuard<'static, BTreeMap<u64, usize>> {
    WARMED_HOLDS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many warmed states the store holds. A batch frees each one when its
/// last fork from it finishes, so this is 0 after a batch unless some
/// caller asked [`warmed_for`] outside one.
pub fn warmed_live() -> usize {
    WARMED.len()
}

/// How many warmed states [`warmed_for`] has built since the process
/// started.
pub fn warmed_builds() -> u64 {
    WARMED_BUILDS.load(Ordering::Relaxed)
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
/// the results logs under `disk_dir` (if given). Disk hits are promoted into
/// the in-memory store; frames that fail the integrity checks are
/// quarantined and reported as a miss. The returned result has `cache_hit`
/// set.
pub fn result_lookup(key: u64, desc: &str, disk_dir: Option<&Path>) -> Option<RunResult> {
    let mut hit = match RESULTS.get(key, desc) {
        Some(hit) => hit,
        None => {
            let stored = read_result(disk_dir?, key, desc)?;
            RESULTS.get_or_insert_with(key, desc, || stored)
        }
    };
    hit.cache_hit = true;
    Some(hit)
}

/// Stores a finished result in the in-memory store and, when `disk_dir` is
/// given, as a frame appended to this process's results log under it. The
/// disk write is best-effort (a
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

/// Persists one result under `dir`: one framed append to this process's
/// results log there, surfacing I/O failures as [`SimError::Cache`].
///
/// # Errors
///
/// Returns [`SimError::Cache`] when the log cannot be opened or written.
pub fn try_result_store_disk(
    dir: &Path,
    key: u64,
    desc: &str,
    result: &RunResult,
) -> Result<(), SimError> {
    let frame = encode_cache_file("result", &result_to_text(desc, result));
    let log: Arc<Path> = own_log(dir).into();
    let offset = with_result_logs(dir, |logs| logs.append(dir, &log, key, frame.as_bytes()))
        .map_err(|e| SimError::Cache {
            path: log.display().to_string(),
            detail: e.to_string(),
        })?;
    if crate::fault::should_corrupt_cache(key) {
        inject_corruption(&log, offset, frame.len());
    }
    Ok(())
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
pub(crate) fn result_from_text(text: &str) -> Result<(String, RunResult), String> {
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
        // A results-log scan finds frames of this version and of any other.
        assert!(framed.starts_with(FRAME_MAGIC));
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
        let path = snapshot_path(&dir, key);
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
        let written = std::fs::read_to_string(snapshot_path(&dir, key)).unwrap();
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
    fn concurrent_snapshot_misses_capture_once() {
        use std::sync::Barrier;
        let _stores = lock_stores();
        clear_stores();
        let program = Workload::ComputeBound.build(&WorkloadParams::short(210));
        let (key, _) = snapshot_key(&program, 700, 700);
        let captures = || {
            let all = CAPTURES.lock().unwrap();
            all.iter().filter(|&&k| k == key).count()
        };
        let before = captures();
        let start = Barrier::new(4);
        let snaps: Vec<Arc<SimSnapshot>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        snapshot_for(&program, 700, 700, None)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(captures() - before, 1, "one capture for four misses");
        assert!(snaps.iter().all(|s| Arc::ptr_eq(s, &snaps[0])));
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
