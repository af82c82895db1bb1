//! The event-based energy model.

use pre_model::config::SimConfig;
use pre_model::stats::SimStats;

/// Per-event dynamic energies (nanojoules) and static powers (watts).
///
/// Defaults are representative of a 22 nm, 4-wide out-of-order core as
/// reported by McPAT, with SRAM/CAM structure energies in the range CACTI
/// reports for kilobyte-scale arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EnergyParams {
    /// Instruction-cache access + fetch datapath, per fetched micro-op.
    pub fetch_nj: f64,
    /// Decode, per decoded micro-op.
    pub decode_nj: f64,
    /// Rename (RAT read/write ports), per renamed micro-op.
    pub rename_nj: f64,
    /// Issue-queue write, per dispatched micro-op.
    pub iq_write_nj: f64,
    /// Issue-queue wakeup/select broadcast, per completed micro-op.
    pub iq_wakeup_nj: f64,
    /// Physical-register-file read, per operand.
    pub prf_read_nj: f64,
    /// Physical-register-file write, per result.
    pub prf_write_nj: f64,
    /// ROB write (dispatch) or read (commit), per micro-op.
    pub rob_nj: f64,
    /// Load/store-queue associative search, per load.
    pub lsq_search_nj: f64,
    /// Integer ALU operation.
    pub int_alu_nj: f64,
    /// Integer multiply.
    pub int_mul_nj: f64,
    /// Floating-point operation.
    pub fp_op_nj: f64,
    /// Branch-unit operation.
    pub branch_nj: f64,
    /// L1 (instruction or data) access.
    pub l1_access_nj: f64,
    /// L2 access.
    pub l2_access_nj: f64,
    /// L3 access.
    pub l3_access_nj: f64,
    /// DRAM access (64-byte line, including I/O).
    pub dram_access_nj: f64,
    /// SST lookup (256-entry fully-associative CAM).
    pub sst_lookup_nj: f64,
    /// SST insert.
    pub sst_insert_nj: f64,
    /// PRDQ entry allocation/deallocation.
    pub prdq_nj: f64,
    /// EMQ write or read.
    pub emq_nj: f64,
    /// Runahead-buffer backward data-flow walk (CAM search across the ROB
    /// and store queue; the original proposal notes this is expensive).
    pub runahead_buffer_walk_nj: f64,
    /// Runahead-buffer chain replay, per replayed micro-op.
    pub runahead_buffer_replay_nj: f64,
    /// Core leakage plus clock-tree power (watts).
    pub core_static_w: f64,
    /// DRAM background (refresh, PLL, idle) power (watts).
    pub dram_static_w: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            fetch_nj: 0.055,
            decode_nj: 0.06,
            rename_nj: 0.04,
            iq_write_nj: 0.035,
            iq_wakeup_nj: 0.02,
            prf_read_nj: 0.02,
            prf_write_nj: 0.03,
            rob_nj: 0.03,
            lsq_search_nj: 0.04,
            int_alu_nj: 0.04,
            int_mul_nj: 0.18,
            fp_op_nj: 0.22,
            branch_nj: 0.04,
            l1_access_nj: 0.1,
            l2_access_nj: 0.4,
            l3_access_nj: 1.5,
            dram_access_nj: 16.0,
            sst_lookup_nj: 0.015,
            sst_insert_nj: 0.02,
            prdq_nj: 0.005,
            emq_nj: 0.01,
            runahead_buffer_walk_nj: 2.5,
            runahead_buffer_replay_nj: 0.08,
            core_static_w: 2.3,
            dram_static_w: 1.4,
        }
    }
}

/// An energy total broken down by component (all in nanojoules).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core pipeline dynamic energy (front end, rename, window, execution).
    pub core_dynamic_nj: f64,
    /// Dynamic energy of the runahead-specific structures (SST, PRDQ, EMQ,
    /// runahead buffer).
    pub runahead_structures_nj: f64,
    /// Cache dynamic energy (L1I, L1D, L2, L3).
    pub cache_dynamic_nj: f64,
    /// DRAM dynamic energy.
    pub dram_dynamic_nj: f64,
    /// Core static (leakage + clock) energy.
    pub core_static_nj: f64,
    /// DRAM background energy.
    pub dram_static_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.core_dynamic_nj
            + self.runahead_structures_nj
            + self.cache_dynamic_nj
            + self.dram_dynamic_nj
            + self.core_static_nj
            + self.dram_static_nj
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_nj() / 1.0e6
    }

    /// Fraction of the total that is static (core + DRAM background).
    pub fn static_fraction(&self) -> f64 {
        let total = self.total_nj();
        if total == 0.0 {
            0.0
        } else {
            (self.core_static_nj + self.dram_static_nj) / total
        }
    }

    /// Energy saving of `self` relative to `baseline`, as a fraction
    /// (positive = this breakdown consumes less energy).
    pub fn savings_vs(&self, baseline: &EnergyBreakdown) -> f64 {
        let base = baseline.total_nj();
        if base == 0.0 {
            0.0
        } else {
            1.0 - self.total_nj() / base
        }
    }
}

/// The energy model: applies the default `EnergyParams` to a run's
/// statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Computes the energy breakdown for one run.
    pub fn evaluate(&self, stats: &SimStats, cfg: &SimConfig) -> EnergyBreakdown {
        let p = &self.params;
        let f = |count: u64, nj: f64| count as f64 * nj;

        let core_dynamic_nj = f(stats.fetched_uops, p.fetch_nj)
            + f(stats.decoded_uops, p.decode_nj)
            + f(stats.renamed_uops, p.rename_nj)
            + f(stats.rat_reads + stats.rat_writes, p.rename_nj * 0.25)
            + f(stats.dispatched_uops, p.iq_write_nj)
            + f(stats.iq_wakeups, p.iq_wakeup_nj)
            + f(stats.prf_reads, p.prf_read_nj)
            + f(stats.prf_writes, p.prf_write_nj)
            + f(stats.rob_writes + stats.rob_reads, p.rob_nj)
            + f(stats.lsq_searches, p.lsq_search_nj)
            + f(stats.int_alu_ops, p.int_alu_nj)
            + f(stats.int_mul_ops, p.int_mul_nj)
            + f(stats.fp_ops, p.fp_op_nj)
            + f(stats.branch_ops, p.branch_nj)
            + f(stats.emq_reads, p.iq_write_nj);

        let runahead_structures_nj = f(stats.sst_lookups, p.sst_lookup_nj)
            + f(stats.sst_inserts, p.sst_insert_nj)
            + f(stats.prdq_allocations + stats.prdq_reclaims, p.prdq_nj)
            + f(stats.emq_writes + stats.emq_reads, p.emq_nj)
            + f(stats.runahead_buffer_walks, p.runahead_buffer_walk_nj)
            + f(stats.runahead_buffer_replays, p.runahead_buffer_replay_nj);

        let cache_dynamic_nj = f(stats.l1i_accesses + stats.l1d_accesses, p.l1_access_nj)
            + f(stats.l2_accesses, p.l2_access_nj)
            + f(stats.l3_accesses, p.l3_access_nj);

        let dram_dynamic_nj = f(stats.dram_reads + stats.dram_writes, p.dram_access_nj);

        let seconds = stats.cycles as f64 / (cfg.core.freq_ghz * 1.0e9);
        let core_static_nj = p.core_static_w * seconds * 1.0e9;
        let dram_static_nj = p.dram_static_w * seconds * 1.0e9;

        EnergyBreakdown {
            core_dynamic_nj,
            runahead_structures_nj,
            cache_dynamic_nj,
            dram_dynamic_nj,
            core_static_nj,
            dram_static_nj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_stats() -> SimStats {
        let mut s = SimStats::new();
        s.cycles = 1_000_000;
        s.committed_uops = 1_000_000;
        s.fetched_uops = 1_200_000;
        s.decoded_uops = 1_200_000;
        s.renamed_uops = 1_100_000;
        s.dispatched_uops = 1_100_000;
        s.issued_uops = 1_050_000;
        s.prf_reads = 2_000_000;
        s.prf_writes = 1_000_000;
        s.rob_writes = 1_100_000;
        s.rob_reads = 1_000_000;
        s.int_alu_ops = 700_000;
        s.fp_ops = 200_000;
        s.l1d_accesses = 300_000;
        s.l2_accesses = 60_000;
        s.l3_accesses = 40_000;
        s.dram_reads = 30_000;
        s
    }

    #[test]
    fn breakdown_components_are_positive() {
        let model = EnergyModel::default();
        let b = model.evaluate(&base_stats(), &SimConfig::haswell_like());
        assert!(b.core_dynamic_nj > 0.0);
        assert!(b.cache_dynamic_nj > 0.0);
        assert!(b.dram_dynamic_nj > 0.0);
        assert!(b.core_static_nj > 0.0);
        assert!(b.total_nj() > b.core_dynamic_nj);
    }

    #[test]
    fn static_energy_scales_with_runtime() {
        let model = EnergyModel::default();
        let cfg = SimConfig::haswell_like();
        let mut fast = base_stats();
        let slow = base_stats();
        fast.cycles = 500_000;
        let fast_b = model.evaluate(&fast, &cfg);
        let slow_b = model.evaluate(&slow, &cfg);
        assert!(fast_b.core_static_nj < slow_b.core_static_nj);
        assert!((slow_b.core_static_nj / fast_b.core_static_nj - 2.0).abs() < 1e-9);
        assert!(fast_b.savings_vs(&slow_b) > 0.0);
    }

    #[test]
    fn dram_accesses_dominate_per_event_costs() {
        let p = EnergyParams::default();
        assert!(p.dram_access_nj > 10.0 * p.l3_access_nj / 2.0);
        assert!(p.l3_access_nj > p.l2_access_nj);
        assert!(p.l2_access_nj > p.l1_access_nj);
    }

    #[test]
    fn static_fraction_is_meaningful_for_memory_bound_runs() {
        // A memory-bound run (low IPC): static + background should be a
        // substantial fraction, which is what makes runahead's speedup an
        // energy win despite the extra dynamic work.
        let model = EnergyModel::default();
        let mut s = base_stats();
        s.cycles = 5_000_000; // IPC 0.2
        let b = model.evaluate(&s, &SimConfig::haswell_like());
        let frac = b.static_fraction();
        assert!(frac > 0.3 && frac < 0.9, "static fraction {frac}");
    }

    #[test]
    fn runahead_structures_add_energy_when_active() {
        let model = EnergyModel::default();
        let cfg = SimConfig::haswell_like();
        let base = model.evaluate(&base_stats(), &cfg);
        let mut s = base_stats();
        s.sst_lookups = 500_000;
        s.emq_writes = 400_000;
        s.runahead_buffer_walks = 1_000;
        let with = model.evaluate(&s, &cfg);
        assert!(with.runahead_structures_nj > base.runahead_structures_nj);
        assert!(with.total_nj() > base.total_nj());
    }

    #[test]
    fn savings_vs_is_symmetric_zero_for_identical_runs() {
        let model = EnergyModel::default();
        let cfg = SimConfig::haswell_like();
        let a = model.evaluate(&base_stats(), &cfg);
        let b = model.evaluate(&base_stats(), &cfg);
        assert!(a.savings_vs(&b).abs() < 1e-12);
    }
}
