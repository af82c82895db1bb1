//! The three-level cache hierarchy plus DRAM.
//!
//! [`MemoryHierarchy`] is the single entry point the core uses for
//! instruction fetches, demand loads, committed stores and runahead
//! prefetches. Every access returns a [`MemAccess`] carrying the completion
//! cycle and the level that supplied the data; loads supplied by DRAM are the
//! *long-latency loads* that trigger full-window stalls and runahead
//! execution.

use crate::cache::Cache;
use crate::dram::Dram;
use crate::mshr::MshrFile;
use pre_model::config::SimConfig;
use pre_model::stats::SimStats;

/// The level of the hierarchy that satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// L1 instruction or data cache.
    L1,
    /// Private L2.
    L2,
    /// Shared last-level cache.
    L3,
    /// Off-chip DRAM (an LLC miss — a long-latency access).
    Memory,
}

/// The intent of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A demand access from normal-mode execution.
    Demand,
    /// A non-binding prefetch issued from runahead mode.
    Prefetch,
}

/// The outcome of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Core cycle at which the data is available to the requester.
    pub completion_cycle: u64,
    /// Hierarchy level that supplied (or is supplying) the data.
    pub level: HitLevel,
    /// The access was the first demand use of a line installed by a
    /// prefetch — used to attribute useful runahead prefetches.
    pub first_use_of_prefetch: bool,
    /// This access started a new DRAM fill (it was not satisfied by a cache
    /// or merged into an already in-flight fill). Runahead loads with this
    /// flag are the prefetches the paper counts.
    pub initiated_dram_fill: bool,
}

impl MemAccess {
    /// Latency observed by a request issued at `issued_at`.
    pub fn latency(&self, issued_at: u64) -> u64 {
        self.completion_cycle.saturating_sub(issued_at)
    }
}

/// Which L1 a request enters through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryPoint {
    Instruction,
    Data,
}

/// Combines the two halves of a line-crossing access: the requester waits
/// for the later half, the worse hit level is reported, and fill/prefetch
/// attribution is the union of both halves.
fn merge_split_access(a: MemAccess, b: MemAccess) -> MemAccess {
    MemAccess {
        completion_cycle: a.completion_cycle.max(b.completion_cycle),
        level: a.level.max(b.level),
        first_use_of_prefetch: a.first_use_of_prefetch || b.first_use_of_prefetch,
        initiated_dram_fill: a.initiated_dram_fill || b.initiated_dram_fill,
    }
}

/// The full memory hierarchy: L1I, L1D, L2, L3 and DRAM.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    l1i_mshr: MshrFile,
    l1d_mshr: MshrFile,
    l2_mshr: MshrFile,
    l3_mshr: MshrFile,
    dram: Dram,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if any cache geometry in `cfg` is invalid; call
    /// [`SimConfig::validate`] first.
    pub fn new(cfg: &SimConfig) -> Self {
        MemoryHierarchy {
            l1i: Cache::new("l1i", cfg.l1i),
            l1d: Cache::new("l1d", cfg.l1d),
            l2: Cache::new("l2", cfg.l2),
            l3: Cache::new("l3", cfg.l3),
            l1i_mshr: MshrFile::new(cfg.l1i.mshrs),
            l1d_mshr: MshrFile::new(cfg.l1d.mshrs),
            l2_mshr: MshrFile::new(cfg.l2.mshrs),
            l3_mshr: MshrFile::new(cfg.l3.mshrs),
            dram: Dram::new(cfg.dram, cfg.core.freq_ghz),
        }
    }

    /// Issues a data-side load. `kind` distinguishes demand loads from
    /// runahead prefetches (prefetches set the prefetched bit on the lines
    /// they install).
    pub fn load(&mut self, addr: u64, now: u64, kind: AccessKind) -> MemAccess {
        self.walk(addr, now, EntryPoint::Data, kind, false)
    }

    /// Issues a committed store (write-allocate, write-back). The returned
    /// completion is when the line is owned; commit does not wait for it.
    pub fn store(&mut self, addr: u64, now: u64) -> MemAccess {
        self.walk(addr, now, EntryPoint::Data, AccessKind::Demand, true)
    }

    /// `true` when the byte range `[addr, addr + len)` spans more than one
    /// L1D cache line (line offsets are byte-addressed; naturally aligned
    /// accesses of up to 8 bytes never span a 64-byte line).
    pub(crate) fn spans_data_lines(&self, addr: u64, len: u64) -> bool {
        len > 0 && self.l1d.line_offset(addr) + len > self.l1d.config().line_bytes as u64
    }

    /// Issues a data-side load for the byte range `[addr, addr + len)`.
    ///
    /// A range contained in one cache line (the only shape the pipeline
    /// produces, since effective addresses are naturally aligned) is a
    /// single [`MemoryHierarchy::load`]; a line-crossing range walks both
    /// lines and completes when the later half arrives.
    pub fn load_range(&mut self, addr: u64, len: u64, now: u64, kind: AccessKind) -> MemAccess {
        let first = self.load(addr, now, kind);
        if !self.spans_data_lines(addr, len) {
            return first;
        }
        let second_line = self.l1d.align(addr) + self.l1d.config().line_bytes as u64;
        let second = self.load(second_line, now, kind);
        merge_split_access(first, second)
    }

    /// Issues a committed store for the byte range `[addr, addr + len)`,
    /// touching both lines when the range crosses a line boundary.
    pub fn store_range(&mut self, addr: u64, len: u64, now: u64) -> MemAccess {
        let first = self.store(addr, now);
        if !self.spans_data_lines(addr, len) {
            return first;
        }
        let second_line = self.l1d.align(addr) + self.l1d.config().line_bytes as u64;
        let second = self.store(second_line, now);
        merge_split_access(first, second)
    }

    /// Issues an instruction fetch for the line containing `addr`.
    pub fn ifetch(&mut self, addr: u64, now: u64) -> MemAccess {
        self.walk(
            addr,
            now,
            EntryPoint::Instruction,
            AccessKind::Demand,
            false,
        )
    }

    /// Replays a warm-up trace in program order, deriving this geometry's
    /// warmed cache contents. Each event is the lookup and install a demand
    /// access performs, with every line immediately ready. The caches'
    /// statistics are saved before the replay and restored after it, so
    /// only tags, LRU order and dirty bits change; no MSHR is allocated and
    /// DRAM is never touched.
    pub fn warm_replay(&mut self, trace: &pre_model::snapshot::WarmTrace) {
        use pre_model::snapshot::WarmEvent;
        let saved = [&self.l1i, &self.l1d, &self.l2, &self.l3].map(Cache::stats);
        for event in &trace.events {
            match *event {
                WarmEvent::Ifetch(addr) => self.warm(addr, EntryPoint::Instruction, false),
                WarmEvent::Load(addr) => self.warm(addr, EntryPoint::Data, false),
                WarmEvent::Store(addr) => self.warm(addr, EntryPoint::Data, true),
            }
        }
        for (cache, stats) in [&mut self.l1i, &mut self.l1d, &mut self.l2, &mut self.l3]
            .into_iter()
            .zip(saved)
        {
            cache.restore_stats(stats);
        }
    }

    /// One warm-up access entering through `entry`: the hit/miss walk and
    /// fills of [`MemoryHierarchy::walk`] without its timing, MSHRs or DRAM.
    /// Fills arrive at cycle 0. An L1I victim is never dirty, so both L1s
    /// share the dirty write-back into L2.
    fn warm(&mut self, addr: u64, entry: EntryPoint, is_store: bool) {
        if self.l1(entry).0.access(addr, false, is_store).is_some() {
            return;
        }
        let level = if self.l2.access(addr, false, false).is_some() {
            HitLevel::L2
        } else {
            let level = if self.l3.access(addr, false, false).is_some() {
                HitLevel::L3
            } else {
                self.l3.fill(addr, 0, HitLevel::Memory, false, false);
                HitLevel::Memory
            };
            if let Some(ev) = self.l2.fill(addr, 0, level, false, false) {
                if ev.dirty {
                    self.l3.fill(ev.line_addr, 0, HitLevel::L2, false, true);
                }
            }
            level
        };
        if let Some(ev) = self.l1(entry).0.fill(addr, 0, level, false, is_store) {
            if ev.dirty {
                self.l2.fill(ev.line_addr, 0, HitLevel::L1, false, true);
            }
        }
    }

    /// The L1 cache `entry` enters through, with its MSHR file.
    fn l1(&mut self, entry: EntryPoint) -> (&mut Cache, &mut MshrFile) {
        match entry {
            EntryPoint::Instruction => (&mut self.l1i, &mut self.l1i_mshr),
            EntryPoint::Data => (&mut self.l1d, &mut self.l1d_mshr),
        }
    }

    fn walk(
        &mut self,
        addr: u64,
        now: u64,
        entry: EntryPoint,
        kind: AccessKind,
        is_store: bool,
    ) -> MemAccess {
        let demand = kind == AccessKind::Demand;
        let prefetched = kind == AccessKind::Prefetch;

        // ---- level 1 -------------------------------------------------------
        let (l1, l1_mshr) = self.l1(entry);
        let l1_latency = l1.latency();
        let l1_line = l1.align(addr);
        let l1_done = now + l1_latency;
        if let Some(p) = l1.access(addr, demand, is_store) {
            let completion = l1_done.max(p.ready_at);
            let level = if p.ready_at > now {
                p.fill_level
            } else {
                HitLevel::L1
            };
            return MemAccess {
                completion_cycle: completion,
                level,
                first_use_of_prefetch: p.first_use_of_prefetch,
                initiated_dram_fill: false,
            };
        }
        // L1 miss: request proceeds to L2 once an L1 MSHR is available.
        let l2_start = l1_mshr.next_free_cycle(now).max(now) + l1_latency;

        // ---- level 2 -------------------------------------------------------
        let l2_latency = self.l2.latency();
        let l2_done = l2_start + l2_latency;
        let (completion, level, first_use, initiated) =
            if let Some(p) = self.l2.access(addr, demand, false) {
                let completion = l2_done.max(p.ready_at);
                let level = if p.ready_at > l2_start {
                    p.fill_level
                } else {
                    HitLevel::L2
                };
                (completion, level, p.first_use_of_prefetch, false)
            } else {
                let l3_start = self.l2_mshr.next_free_cycle(l2_start).max(l2_start) + l2_latency;

                // ---- level 3 ---------------------------------------------------
                let l3_latency = self.l3.latency();
                let l3_done = l3_start + l3_latency;
                let (completion, level, first_use, initiated) =
                    if let Some(p) = self.l3.access(addr, demand, false) {
                        let completion = l3_done.max(p.ready_at);
                        let level = if p.ready_at > l3_start {
                            p.fill_level
                        } else {
                            HitLevel::L3
                        };
                        (completion, level, p.first_use_of_prefetch, false)
                    } else {
                        // ---- DRAM --------------------------------------------------
                        let dram_start =
                            self.l3_mshr.next_free_cycle(l3_start).max(l3_start) + l3_latency;
                        let line = self.l3.align(addr);
                        let completion = self.dram.access(line, dram_start, false);
                        if !self.l3_mshr.is_full(l3_start) {
                            self.l3_mshr.allocate(line, l3_start, completion);
                        }
                        if let Some(ev) =
                            self.l3
                                .fill(addr, completion, HitLevel::Memory, prefetched, false)
                        {
                            if ev.dirty {
                                self.dram.access(ev.line_addr, completion, true);
                            }
                        }
                        (completion, HitLevel::Memory, false, true)
                    };

                // Fill L2 on the way back; dirty L2 victims are written back to L3.
                if !self.l2_mshr.is_full(l2_start) {
                    self.l2_mshr
                        .allocate(self.l2.align(addr), l2_start, completion);
                }
                if let Some(ev) = self.l2.fill(addr, completion, level, prefetched, false) {
                    if ev.dirty {
                        self.l3
                            .fill(ev.line_addr, completion, HitLevel::L2, false, true);
                    }
                }
                (completion, level, first_use, initiated)
            };

        // Fill L1 on the way back; dirty L1 victims are written back to L2.
        let (l1, l1_mshr) = self.l1(entry);
        if !l1_mshr.is_full(now) {
            l1_mshr.allocate(l1_line, now, completion);
        }
        if let Some(ev) = l1.fill(addr, completion, level, prefetched, is_store) {
            if ev.dirty {
                self.l2
                    .fill(ev.line_addr, completion, HitLevel::L1, false, true);
            }
        }

        MemAccess {
            completion_cycle: completion.max(l1_done),
            level,
            first_use_of_prefetch: first_use,
            initiated_dram_fill: initiated,
        }
    }

    /// `true` when the L1 data cache can currently track another outstanding
    /// miss. The issue stage uses this as back-pressure: a load whose line is
    /// not already resident in the L1 must wait for a free MSHR, which bounds
    /// the number of in-flight misses (demand or runahead prefetch) exactly
    /// like real hardware.
    pub fn data_mshr_available(&mut self, now: u64) -> bool {
        !self.l1d_mshr.is_full(now)
    }

    /// `true` when the line containing `addr` is resident in the L1 data
    /// cache (no MSHR needed to access it).
    pub fn in_l1d(&self, addr: u64) -> bool {
        self.l1d.probe(addr).is_some()
    }

    /// Probes whether the line containing `addr` is present in the data-side
    /// hierarchy (any level), without disturbing LRU state or statistics.
    pub fn probe_data(&self, addr: u64) -> Option<HitLevel> {
        if self.l1d.probe(addr).is_some() {
            Some(HitLevel::L1)
        } else if self.l2.probe(addr).is_some() {
            Some(HitLevel::L2)
        } else if self.l3.probe(addr).is_some() {
            Some(HitLevel::L3)
        } else {
            None
        }
    }

    /// Copies cache and DRAM counters into a [`SimStats`] block.
    pub fn export_stats(&self, stats: &mut SimStats) {
        let l1i = self.l1i.stats();
        let l1d = self.l1d.stats();
        let l2 = self.l2.stats();
        let l3 = self.l3.stats();
        let dram = self.dram.stats();
        stats.l1i_accesses = l1i.accesses;
        stats.l1i_misses = l1i.misses;
        stats.l1d_accesses = l1d.accesses;
        stats.l1d_misses = l1d.misses;
        stats.l2_accesses = l2.accesses;
        stats.l2_misses = l2.misses;
        stats.l3_accesses = l3.accesses;
        stats.l3_misses = l3.misses;
        stats.dram_reads = dram.reads;
        stats.dram_writes = dram.writes;
        stats.dram_row_hits = dram.row_hits;
        stats.dram_row_misses = dram.row_misses + dram.row_conflicts;
        stats.runahead_prefetches_useful =
            l1d.useful_prefetches + l2.useful_prefetches + l3.useful_prefetches;
    }

    /// Number of outstanding misses currently tracked by the L1D MSHR file.
    /// Takes `&mut self` only to expire already-completed fills, which every
    /// other MSHR accessor also does — observing the occupancy never changes
    /// simulation outcomes.
    pub fn l1d_mshr_occupancy(&mut self, now: u64) -> usize {
        self.l1d_mshr.occupancy(now)
    }

    /// Cumulative L2 miss count (for time-series sampling).
    pub fn l2_miss_count(&self) -> u64 {
        self.l2.stats().misses
    }

    /// Cumulative L3 miss count (for time-series sampling).
    pub fn l3_miss_count(&self) -> u64 {
        self.l3.stats().misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::config::SimConfig;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&SimConfig::haswell_like())
    }

    #[test]
    fn cold_load_goes_to_memory() {
        let mut m = hierarchy();
        let acc = m.load(0x10_000, 0, AccessKind::Demand);
        assert_eq!(acc.level, HitLevel::Memory);
        assert!(acc.latency(0) > 100, "cold miss latency {}", acc.latency(0));
    }

    #[test]
    fn line_span_detection_is_byte_addressed() {
        let m = hierarchy();
        // 64-byte lines: a naturally aligned access of up to 8 bytes never
        // crosses a line.
        for len in [1u64, 2, 4, 8] {
            let addr = 0x1000 + (64 - len); // last slot of the line
            assert!(!m.spans_data_lines(addr, len), "aligned {len} @ {addr:#x}");
        }
        assert!(m.spans_data_lines(0x103E, 4)); // offset 62, 4 bytes
        assert!(m.spans_data_lines(0x103F, 2));
        assert!(!m.spans_data_lines(0x103F, 1));
    }

    #[test]
    fn range_within_one_line_is_one_access() {
        let mut a = hierarchy();
        let mut b = hierarchy();
        let single = a.load(0x2_0000, 0, AccessKind::Demand);
        let ranged = b.load_range(0x2_0000, 8, 0, AccessKind::Demand);
        assert_eq!(single, ranged);
        let (mut sa, mut sb) = (SimStats::new(), SimStats::new());
        a.export_stats(&mut sa);
        b.export_stats(&mut sb);
        assert_eq!(sa.l1d_accesses, sb.l1d_accesses);
    }

    #[test]
    fn line_crossing_range_touches_both_lines_and_waits_for_the_later() {
        let mut m = hierarchy();
        // Warm the first line only.
        let warm = m.load(0x3_0000, 0, AccessKind::Demand);
        let now = warm.completion_cycle + 1;
        // A (hypothetical, misaligned) 4-byte access at offset 62 touches
        // the warm line and the cold one: the cold half dominates.
        let acc = m.load_range(0x3_003E, 4, now, AccessKind::Demand);
        assert_eq!(acc.level, HitLevel::Memory);
        assert!(acc.latency(now) > 100);
        // Both lines are now resident: a repeat crossing access hits L1.
        let again = m.load_range(0x3_003E, 4, acc.completion_cycle + 1, AccessKind::Demand);
        assert_eq!(again.level, HitLevel::L1);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = hierarchy();
        let miss = m.load(0x10_000, 0, AccessKind::Demand);
        let hit = m.load(0x10_000, miss.completion_cycle + 1, AccessKind::Demand);
        assert_eq!(hit.level, HitLevel::L1);
        assert_eq!(hit.latency(miss.completion_cycle + 1), 4);
    }

    #[test]
    fn access_during_inflight_fill_merges() {
        let mut m = hierarchy();
        let miss = m.load(0x10_000, 0, AccessKind::Demand);
        // Another word of the same line, 10 cycles later, while the fill is
        // still in flight: completes when the fill does, reported as Memory.
        let merged = m.load(0x10_020, 10, AccessKind::Demand);
        assert_eq!(merged.level, HitLevel::Memory);
        assert_eq!(merged.completion_cycle, miss.completion_cycle);
    }

    #[test]
    fn prefetch_then_demand_hit_is_useful() {
        let mut m = hierarchy();
        let pf = m.load(0x20_000, 0, AccessKind::Prefetch);
        assert_eq!(pf.level, HitLevel::Memory);
        let demand = m.load(0x20_000, pf.completion_cycle + 1, AccessKind::Demand);
        assert_eq!(demand.level, HitLevel::L1);
        assert!(demand.first_use_of_prefetch);
        let mut stats = SimStats::new();
        m.export_stats(&mut stats);
        assert!(stats.runahead_prefetches_useful >= 1);
    }

    #[test]
    fn prefetch_hides_latency_even_before_fill_completes() {
        let mut m = hierarchy();
        let pf = m.load(0x20_000, 0, AccessKind::Prefetch);
        // Demand arrives halfway through the fill: it should complete when
        // the prefetch fill completes, not a full memory latency later.
        let halfway = pf.completion_cycle / 2;
        let demand = m.load(0x20_000, halfway, AccessKind::Demand);
        assert_eq!(
            demand.completion_cycle,
            pf.completion_cycle.max(halfway + 4)
        );
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let mut m = hierarchy();
        // Bring a line in, then thrash the L1 set with many conflicting lines.
        let target = 0x40_000u64;
        let t = m.load(target, 0, AccessKind::Demand).completion_cycle + 1;
        // L1D: 32KB/8-way/64B = 64 sets -> stride of 64*64 = 4096 bytes maps
        // to the same set. 16 distinct lines evict the 8-way set.
        let mut now = t;
        for i in 1..=16u64 {
            let acc = m.load(target + i * 4096, now, AccessKind::Demand);
            now = acc.completion_cycle + 1;
        }
        let again = m.load(target, now, AccessKind::Demand);
        assert!(matches!(again.level, HitLevel::L2 | HitLevel::L3));
    }

    #[test]
    fn ifetch_uses_instruction_cache() {
        let mut m = hierarchy();
        let first = m.ifetch(0x1000, 0);
        assert_eq!(first.level, HitLevel::Memory);
        let second = m.ifetch(0x1000, first.completion_cycle + 1);
        assert_eq!(second.level, HitLevel::L1);
    }

    #[test]
    fn stores_allocate_and_mark_dirty() {
        let mut m = hierarchy();
        let st = m.store(0x30_000, 0);
        assert_eq!(st.level, HitLevel::Memory);
        let ld = m.load(0x30_000, st.completion_cycle + 1, AccessKind::Demand);
        assert_eq!(ld.level, HitLevel::L1);
    }

    #[test]
    fn parallel_misses_overlap() {
        let mut m = hierarchy();
        // Issue 8 independent misses back to back; total time must be far
        // below 8x the isolated latency (memory-level parallelism).
        let isolated = {
            let mut probe = hierarchy();
            probe.load(0x100_000, 0, AccessKind::Demand).latency(0)
        };
        let mut last = 0;
        for i in 0..8u64 {
            let acc = m.load(0x200_000 + i * 8192, i, AccessKind::Demand);
            last = last.max(acc.completion_cycle);
        }
        assert!(
            last < isolated * 4,
            "8 independent misses took {last} cycles vs isolated {isolated}"
        );
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut m = hierarchy();
        assert_eq!(m.probe_data(0x50_000), None);
        let acc = m.load(0x50_000, 0, AccessKind::Demand);
        assert_eq!(m.probe_data(0x50_000), Some(HitLevel::L1));
        let mut s1 = SimStats::new();
        m.export_stats(&mut s1);
        let before = s1.l1d_accesses;
        let _ = m.probe_data(0x50_000);
        let mut s2 = SimStats::new();
        m.export_stats(&mut s2);
        assert_eq!(s2.l1d_accesses, before);
        assert!(acc.completion_cycle > 0);
    }

    #[test]
    fn export_stats_counts_accesses_and_misses() {
        let mut m = hierarchy();
        m.load(0x1000, 0, AccessKind::Demand);
        m.load(0x1000, 500, AccessKind::Demand);
        let mut stats = SimStats::new();
        m.export_stats(&mut stats);
        assert_eq!(stats.l1d_accesses, 2);
        assert_eq!(stats.l1d_misses, 1);
        assert_eq!(stats.l3_misses, 1);
        assert_eq!(stats.dram_reads, 1);
    }

    #[test]
    fn warm_replay_installs_lines_without_stats() {
        use pre_model::snapshot::WarmTrace;
        let mut m = hierarchy();
        let mut trace = WarmTrace::new();
        trace.record_ifetch(0);
        trace.record_load(0x20_000);
        trace.record_store(0x30_000);
        m.warm_replay(&trace);
        // Everything is resident and immediately ready...
        assert_eq!(m.probe_data(0x20_000), Some(HitLevel::L1));
        assert_eq!(m.probe_data(0x30_000), Some(HitLevel::L1));
        // ...and nothing was counted.
        let mut stats = SimStats::new();
        m.export_stats(&mut stats);
        assert_eq!(stats, SimStats::new());
        // A subsequent demand load hits the warmed L1 with hit latency.
        let acc = m.load(0x20_000, 0, AccessKind::Demand);
        assert_eq!(acc.level, HitLevel::L1);
    }
}
