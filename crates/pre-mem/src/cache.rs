//! Set-associative write-back cache with LRU replacement.
//!
//! Lines carry a `ready_at` timestamp (the cycle the fill completes) so that
//! accesses arriving while a fill is in flight are treated as secondary
//! misses, and a `prefetched` bit used to attribute useful runahead
//! prefetches.

use crate::hierarchy::HitLevel;
use pre_model::config::CacheConfig;

/// One cache line's metadata.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Set when the line was installed by a (runahead) prefetch and has not
    /// yet been referenced by a demand access.
    prefetched: bool,
    /// Cycle at which the fill that installed this line completes.
    ready_at: u64,
    /// Level the data was sourced from when the line was installed.
    fill_level: HitLevel,
    /// LRU timestamp (higher = more recent).
    lru: u64,
}

impl Line {
    fn invalid() -> Self {
        Line {
            tag: 0,
            valid: false,
            dirty: false,
            prefetched: false,
            ready_at: 0,
            fill_level: HitLevel::L1,
            lru: 0,
        }
    }
}

/// Result of probing a cache for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeResult {
    /// Cycle at which the line's data is available (fills in flight make this
    /// later than "now").
    pub ready_at: u64,
    /// Level the line was originally filled from.
    pub fill_level: HitLevel,
    /// The access consumed a not-yet-demand-referenced prefetched line.
    pub first_use_of_prefetch: bool,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Byte address of the start of the evicted line.
    pub line_addr: u64,
    /// Whether the evicted line was dirty (requires a write-back).
    pub dirty: bool,
}

/// Per-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (demand + prefetch + write).
    pub accesses: u64,
    /// Misses (line absent at access time).
    pub misses: u64,
    /// Fills installed.
    pub fills: u64,
    /// Dirty evictions (write-backs generated).
    pub writebacks: u64,
    /// Demand accesses that were the first use of a prefetched line.
    pub useful_prefetches: u64,
}

/// Set-associative write-back cache with true-LRU replacement.
///
/// Lines are stored in one flat slice (set-major, way-minor) so a probe
/// walks `assoc` contiguous entries instead of chasing a per-set `Vec`
/// pointer.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// All lines, flattened: set `s` occupies `lines[s * assoc .. (s + 1) * assoc]`.
    lines: Box<[Line]>,
    num_sets: usize,
    lru_clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`]; validate
    /// configurations before constructing the hierarchy.
    pub fn new(name: &'static str, cfg: CacheConfig) -> Self {
        cfg.validate(name).expect("invalid cache configuration");
        let num_sets = cfg.num_sets();
        let lines = vec![Line::invalid(); num_sets * cfg.assoc].into_boxed_slice();
        Cache {
            cfg,
            lines,
            num_sets,
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The flat slice holding the lines of set `set`.
    fn set(&self, set: usize) -> &[Line] {
        &self.lines[set * self.cfg.assoc..(set + 1) * self.cfg.assoc]
    }

    /// Mutable flat slice holding the lines of set `set`.
    fn set_mut(&mut self, set: usize) -> &mut [Line] {
        let assoc = self.cfg.assoc;
        &mut self.lines[set * assoc..(set + 1) * assoc]
    }

    /// The cache's configured geometry.
    pub(crate) fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Puts back statistics saved with [`Cache::stats`], so accesses made
    /// since (a warm-up replay) leave no trace in them.
    pub(crate) fn restore_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
    }

    /// Hit latency in cycles.
    pub(crate) fn latency(&self) -> u64 {
        self.cfg.latency
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes as u64) % self.num_sets as u64) as usize
    }

    fn tag(&self, addr: u64) -> u64 {
        addr / self.cfg.line_bytes as u64 / self.num_sets as u64
    }

    /// Looks up `addr`, updating LRU state and statistics.
    ///
    /// `is_demand` marks demand accesses (they clear the prefetched bit and
    /// may count a useful prefetch); `mark_dirty` is set for stores.
    /// Returns `None` on a miss.
    pub(crate) fn access(
        &mut self,
        addr: u64,
        is_demand: bool,
        mark_dirty: bool,
    ) -> Option<ProbeResult> {
        self.stats.accesses += 1;
        self.lru_clock += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let lru_clock = self.lru_clock;
        let assoc = self.cfg.assoc;
        let line = self.lines[set * assoc..(set + 1) * assoc]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag);
        match line {
            Some(line) => {
                line.lru = lru_clock;
                if mark_dirty {
                    line.dirty = true;
                }
                let first_use_of_prefetch = is_demand && line.prefetched;
                if first_use_of_prefetch {
                    line.prefetched = false;
                    self.stats.useful_prefetches += 1;
                }
                Some(ProbeResult {
                    ready_at: line.ready_at,
                    fill_level: line.fill_level,
                    first_use_of_prefetch,
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Probes for `addr` without updating LRU or statistics.
    pub fn probe(&self, addr: u64) -> Option<ProbeResult> {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        self.set(set)
            .iter()
            .find(|l| l.valid && l.tag == tag)
            .map(|line| ProbeResult {
                ready_at: line.ready_at,
                fill_level: line.fill_level,
                first_use_of_prefetch: false,
            })
    }

    /// Installs the line containing `addr`, evicting the LRU victim if
    /// necessary. Returns the eviction, if a valid line was displaced.
    ///
    /// `ready_at` is the cycle the fill data arrives; `fill_level` records
    /// where the data came from; `prefetched` marks runahead-prefetch fills;
    /// `dirty` pre-dirties the line (stores that allocated on a write miss).
    pub fn fill(
        &mut self,
        addr: u64,
        ready_at: u64,
        fill_level: HitLevel,
        prefetched: bool,
        dirty: bool,
    ) -> Option<Eviction> {
        self.lru_clock += 1;
        self.stats.fills += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        // Refill of an already-present line just refreshes metadata.
        let lru_clock = self.lru_clock;
        if let Some(line) = self
            .set_mut(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            line.ready_at = line.ready_at.min(ready_at);
            line.dirty |= dirty;
            line.lru = lru_clock;
            return None;
        }
        let victim_idx = self
            .set(set)
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("cache set has at least one way");
        let victim = self.set(set)[victim_idx];
        let eviction = if victim.valid {
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            Some(Eviction {
                line_addr: victim.tag * self.num_sets as u64 * self.cfg.line_bytes as u64
                    + set as u64 * self.cfg.line_bytes as u64,
                dirty: victim.dirty,
            })
        } else {
            None
        };
        self.set_mut(set)[victim_idx] = Line {
            tag,
            valid: true,
            dirty,
            prefetched,
            ready_at,
            fill_level,
            lru: lru_clock,
        };
        eviction
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// The start address of the cache line containing `addr`.
    pub(crate) fn align(&self, addr: u64) -> u64 {
        self.line_addr(addr)
    }

    /// Byte offset of `addr` within its cache line.
    pub(crate) fn line_offset(&self, addr: u64) -> u64 {
        addr & (self.cfg.line_bytes as u64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::config::CacheConfig;

    fn small_cache() -> Cache {
        // 2 sets x 2 ways x 64 B lines = 256 B.
        Cache::new(
            "test",
            CacheConfig {
                size_bytes: 256,
                assoc: 2,
                line_bytes: 64,
                latency: 2,
                mshrs: 4,
            },
        )
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        assert!(c.access(0x100, true, false).is_none());
        c.fill(0x100, 50, HitLevel::Memory, false, false);
        let hit = c.access(0x100, true, false).expect("line present");
        assert_eq!(hit.ready_at, 50);
        assert_eq!(hit.fill_level, HitLevel::Memory);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 2);
    }

    #[test]
    fn same_line_different_words_hit() {
        let mut c = small_cache();
        c.fill(0x100, 0, HitLevel::L2, false, false);
        assert!(c.access(0x13F, true, false).is_some());
        assert!(c.access(0x140, true, false).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Two lines mapping to the same set (stride = line * num_sets = 128).
        c.fill(0x000, 0, HitLevel::L2, false, false);
        c.fill(0x080, 0, HitLevel::L2, false, false);
        // Touch 0x000 so 0x080 becomes LRU.
        c.access(0x000, true, false);
        let ev = c
            .fill(0x100, 0, HitLevel::L2, false, false)
            .expect("eviction");
        assert_eq!(ev.line_addr, 0x080);
        assert!(c.probe(0x000).is_some());
        assert!(c.probe(0x080).is_none());
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_cache();
        c.fill(0x000, 0, HitLevel::L2, false, false);
        c.access(0x000, true, true); // store marks dirty
        c.fill(0x080, 0, HitLevel::L2, false, false);
        let ev = c
            .fill(0x100, 0, HitLevel::L2, false, false)
            .expect("eviction");
        assert!(ev.dirty);
        assert_eq!(ev.line_addr, 0x000);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn prefetched_line_counts_useful_once() {
        let mut c = small_cache();
        c.fill(0x200, 10, HitLevel::Memory, true, false);
        let first = c.access(0x200, true, false).unwrap();
        assert!(first.first_use_of_prefetch);
        let second = c.access(0x200, true, false).unwrap();
        assert!(!second.first_use_of_prefetch);
        assert_eq!(c.stats().useful_prefetches, 1);
    }

    #[test]
    fn non_demand_access_does_not_consume_prefetch_bit() {
        let mut c = small_cache();
        c.fill(0x200, 10, HitLevel::Memory, true, false);
        let pf = c.access(0x200, false, false).unwrap();
        assert!(!pf.first_use_of_prefetch);
        let demand = c.access(0x200, true, false).unwrap();
        assert!(demand.first_use_of_prefetch);
    }

    #[test]
    fn refill_of_present_line_does_not_evict() {
        let mut c = small_cache();
        c.fill(0x000, 100, HitLevel::Memory, false, false);
        assert!(c.fill(0x000, 50, HitLevel::L2, false, false).is_none());
        // ready_at keeps the earlier completion.
        assert_eq!(c.probe(0x000).unwrap().ready_at, 50);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn resident_lines_never_exceed_capacity() {
        let mut c = small_cache();
        for i in 0..100u64 {
            c.fill(i * 64, 0, HitLevel::L2, false, false);
        }
        assert!(c.resident_lines() <= 4);
    }

    #[test]
    fn align_masks_offset_bits() {
        let c = small_cache();
        assert_eq!(c.align(0x1234), 0x1200);
    }
}
