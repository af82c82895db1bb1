//! Deterministic simulated-event counts summed from `SimStats`. They repeat
//! exactly for a given seed, so a change that claims only host-time gains
//! can show they did not move; every ratio is printed with its base.

use crate::measure::ratio;
use pre_model::hash::StableHasher;
use pre_model::stats::SimStats;

/// Σ of the counters the benchmark reports, over a set of results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub results: u64,
    pub cycles: u64,
    pub fetched_uops: u64,
    pub committed_uops: u64,
    pub ff_cycles: u64,
    pub runahead_cycles: u64,
    pub prefetches_issued: u64,
    pub prefetches_useful: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub llc_misses: u64,
    pub dram_reads: u64,
    pub mispredicts: u64,
}

impl Counts {
    pub fn of<'a>(stats: impl IntoIterator<Item = &'a SimStats>) -> Self {
        let mut c = Counts::default();
        for s in stats {
            c.add(&Counts {
                results: 1,
                cycles: s.cycles,
                fetched_uops: s.fetched_uops,
                committed_uops: s.committed_uops,
                ff_cycles: s.ff_cycles.normal + s.ff_cycles.runahead,
                runahead_cycles: s.runahead_cycles,
                prefetches_issued: s.runahead_prefetches_issued,
                prefetches_useful: s.runahead_prefetches_useful,
                l1d_misses: s.l1d_misses,
                l2_misses: s.l2_misses,
                llc_misses: s.l3_misses,
                dram_reads: s.dram_reads,
                mispredicts: s.mispredicted_branches,
            });
        }
        c
    }

    pub fn add(&mut self, o: &Counts) {
        self.results += o.results;
        self.cycles += o.cycles;
        self.fetched_uops += o.fetched_uops;
        self.committed_uops += o.committed_uops;
        self.ff_cycles += o.ff_cycles;
        self.runahead_cycles += o.runahead_cycles;
        self.prefetches_issued += o.prefetches_issued;
        self.prefetches_useful += o.prefetches_useful;
        self.l1d_misses += o.l1d_misses;
        self.l2_misses += o.l2_misses;
        self.llc_misses += o.llc_misses;
        self.dram_reads += o.dram_reads;
        self.mispredicts += o.mispredicts;
    }

    pub fn ff_cycle_share(&self) -> f64 {
        ratio(self.ff_cycles as f64, self.cycles as f64)
    }

    pub fn runahead_cycle_share(&self) -> f64 {
        ratio(self.runahead_cycles as f64, self.cycles as f64)
    }

    pub fn committed_per_fetched(&self) -> f64 {
        ratio(self.committed_uops as f64, self.fetched_uops as f64)
    }

    pub fn prefetch_useful_ratio(&self) -> f64 {
        ratio(self.prefetches_useful as f64, self.prefetches_issued as f64)
    }

    /// Human-readable lines: the raw counts, then each ratio with its base.
    pub fn lines(&self, label: &str) -> Vec<String> {
        let ratio_line = |name: &str, part: u64, base_name: &str, base: u64| {
            format!(
                "  {label} {name} = {part} / {base} {base_name} = {:.6}",
                ratio(part as f64, base as f64)
            )
        };
        vec![
            format!(
                "counts {label}: results={} cycles={} fetched_uops={} committed_uops={} \
                 ff_cycles={} runahead_cycles={} prefetches_issued={} prefetches_useful={} \
                 l1d_misses={} l2_misses={} llc_misses={} dram_reads={} mispredicts={}",
                self.results,
                self.cycles,
                self.fetched_uops,
                self.committed_uops,
                self.ff_cycles,
                self.runahead_cycles,
                self.prefetches_issued,
                self.prefetches_useful,
                self.l1d_misses,
                self.l2_misses,
                self.llc_misses,
                self.dram_reads,
                self.mispredicts
            ),
            ratio_line("ff_cycle_share", self.ff_cycles, "cycles", self.cycles),
            ratio_line(
                "runahead_cycle_share",
                self.runahead_cycles,
                "cycles",
                self.cycles,
            ),
            ratio_line(
                "committed_per_fetched",
                self.committed_uops,
                "fetched_uops",
                self.fetched_uops,
            ),
            ratio_line(
                "prefetch_useful_ratio",
                self.prefetches_useful,
                "prefetches_issued",
                self.prefetches_issued,
            ),
            ratio_line(
                "llc_miss_per_kilo_committed",
                self.llc_misses * 1000,
                "committed_uops",
                self.committed_uops,
            ),
        ]
    }
}

/// Stable digest of every counter of every result, in order: equal digests
/// mean bit-identical `SimStats`.
pub fn digest<'a>(stats: impl IntoIterator<Item = &'a SimStats>) -> u64 {
    let mut h = StableHasher::new();
    for s in stats {
        h.write_str(&s.to_kv());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_and_ratios() {
        let mut a = SimStats::new();
        a.cycles = 100;
        a.fetched_uops = 80;
        a.committed_uops = 40;
        a.ff_cycles.normal = 10;
        a.ff_cycles.runahead = 15;
        a.runahead_prefetches_issued = 4;
        a.runahead_prefetches_useful = 3;
        let mut b = a.clone();
        b.cycles = 300;
        let c = Counts::of([&a, &b]);
        assert_eq!(c.results, 2);
        assert_eq!(c.cycles, 400);
        assert_eq!(c.ff_cycles, 50);
        assert!((c.ff_cycle_share() - 0.125).abs() < 1e-12);
        assert!((c.committed_per_fetched() - 0.5).abs() < 1e-12);
        assert!((c.prefetch_useful_ratio() - 0.75).abs() < 1e-12);
        assert!(c.lines("x")[1].contains("= 50 / 400 cycles = 0.125000"));
        assert_eq!(digest([&a, &b]), digest([&a, &b]));
        assert_ne!(digest([&a, &b]), digest([&b, &a]));
    }
}
