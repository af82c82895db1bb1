//! Randomized-property tests for the memory hierarchy: cache residency
//! bounds, MSHR bookkeeping, DRAM timing monotonicity and hierarchy-level
//! sanity for arbitrary access streams.
//!
//! Driven by the workspace's deterministic [`pre_model::rng::SmallRng`]
//! instead of proptest (no crates.io access); every case derives from a fixed
//! seed, so failures reproduce exactly.

use pre_mem::{AccessKind, Cache, Dram, HitLevel, MemoryHierarchy, MshrFile};
use pre_model::config::{CacheConfig, DramConfig, SimConfig};
use pre_model::rng::SmallRng;

/// A cache never holds more lines than its capacity, and any line it reports
/// as present was filled and not yet evicted.
#[test]
fn cache_capacity_and_membership() {
    let mut rng = SmallRng::seed_from_u64(0x3E3_0001);
    for _case in 0..64 {
        let len = rng.gen_range_usize(1..300);
        let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range_u64(0..(1 << 16))).collect();
        let cfg = CacheConfig {
            size_bytes: 4096,
            assoc: 4,
            line_bytes: 64,
            latency: 2,
            mshrs: 4,
        };
        let mut cache = Cache::new("prop", cfg);
        let capacity_lines = cfg.size_bytes / cfg.line_bytes;
        let mut resident: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (i, &addr) in addrs.iter().enumerate() {
            let line = addr & !63;
            if let Some(ev) = cache.fill(addr, i as u64, HitLevel::Memory, false, false) {
                resident.remove(&ev.line_addr);
            }
            resident.insert(line);
            assert!(cache.resident_lines() <= capacity_lines);
            assert!(
                cache.probe(addr).is_some(),
                "a just-filled line must be present"
            );
        }
        // Everything the cache reports as resident is in our shadow set.
        for &line in &resident {
            if cache.probe(line).is_some() {
                assert!(resident.contains(&line));
            }
        }
    }
}

/// The MSHR file never exceeds its capacity.
#[test]
fn mshr_occupancy_is_bounded() {
    let mut rng = SmallRng::seed_from_u64(0x3E3_0002);
    for _case in 0..64 {
        let len = rng.gen_range_usize(1..200);
        let mut mshr = MshrFile::new(8);
        let mut now = 0u64;
        for _ in 0..len {
            let line = rng.gen_range_u64(0..64);
            let latency = rng.gen_range_u64(1..50);
            now += 1;
            let line_addr = line * 64;
            if mshr.is_full(now) {
                let free_at = mshr.next_free_cycle(now);
                assert!(free_at >= now);
                now = free_at;
            }
            mshr.allocate(line_addr, now, now + latency);
            assert!(mshr.occupancy(now) <= mshr.capacity());
        }
    }
}

/// DRAM completion times never precede the request time, and a request
/// issued later to the same bank never completes earlier than one issued
/// before it (per-bank FIFO-ish service).
#[test]
fn dram_timing_is_monotone() {
    let mut rng = SmallRng::seed_from_u64(0x3E3_0003);
    for _case in 0..64 {
        let len = rng.gen_range_usize(1..100);
        let lines: Vec<u64> = (0..len).map(|_| rng.gen_range_u64(0..512)).collect();
        let mut dram = Dram::new(DramConfig::default(), 2.66);
        let mut last_done_per_bank: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        for (i, &line) in lines.iter().enumerate() {
            let now = (i as u64) * 3;
            let addr = line * 64;
            let done = dram.access(addr, now, false);
            assert!(done > now, "completion must be after the request");
            let bank_key = addr / DramConfig::default().page_bytes as u64;
            if let Some(&prev) = last_done_per_bank.get(&bank_key) {
                assert!(done >= prev, "same-row requests must not reorder");
            }
            last_done_per_bank.insert(bank_key, done);
        }
        let stats = dram.stats();
        assert_eq!(stats.reads as usize, lines.len());
        assert_eq!(
            stats.row_hits + stats.row_misses + stats.row_conflicts,
            stats.reads
        );
    }
}

/// For an arbitrary mix of loads, stores and prefetches, the hierarchy
/// (a) never reports a completion before the request, (b) reports L1 hits
/// for immediately repeated accesses, and (c) counts at least as many
/// accesses as misses at every level.
#[test]
fn hierarchy_is_sane_for_arbitrary_streams() {
    let mut rng = SmallRng::seed_from_u64(0x3E3_0004);
    for _case in 0..48 {
        let len = rng.gen_range_usize(1..150);
        let cfg = SimConfig::small_for_tests();
        let mut mem = MemoryHierarchy::new(&cfg);
        let mut now = 0u64;
        for _ in 0..len {
            let addr = rng.gen_range_u64(0..(1 << 20));
            let kind = rng.gen_below(3) as u8;
            now += 7;
            let access = match kind {
                0 => mem.load(addr, now, AccessKind::Demand),
                1 => mem.load(addr, now, AccessKind::Prefetch),
                _ => mem.store(addr, now),
            };
            assert!(access.completion_cycle >= now);
            // An immediate re-load of the same address is an L1 hit (the line
            // was just installed, even if its fill is still in flight).
            let again = mem.load(addr, now, AccessKind::Demand);
            assert!(again.completion_cycle >= now);
            assert!(mem.probe_data(addr).is_some());
        }
        let mut stats = pre_model::stats::SimStats::new();
        mem.export_stats(&mut stats);
        assert!(stats.l1d_accesses >= stats.l1d_misses);
        assert!(stats.l2_accesses >= stats.l2_misses);
        assert!(stats.l3_accesses >= stats.l3_misses);
        assert!(stats.dram_reads <= stats.l3_misses + stats.dram_writes + stats.l3_accesses);
    }
}
