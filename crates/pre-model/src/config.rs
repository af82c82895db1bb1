//! Simulator configuration.
//!
//! [`SimConfig::haswell_like`] reproduces Table 1 of the paper: a 2.66 GHz
//! 4-wide out-of-order core with a 192-entry ROB, 92-entry issue queue,
//! 64-entry load and store queues, 168 + 168 physical registers, an 8-stage
//! front-end, a 32 KB L1I / 32 KB L1D / 256 KB L2 / 1 MB L3 cache hierarchy
//! and DDR3-1600 memory, plus the PRE structures (256-entry SST, 192-entry
//! PRDQ, 768-entry EMQ).

use crate::error::ConfigError;
use crate::isa::OpClass;

/// Execution-latency table, in core cycles, for non-memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Single-cycle integer ALU latency.
    pub int_alu: u64,
    /// Integer multiply latency.
    pub int_mul: u64,
    /// Floating-point add latency.
    pub fp_alu: u64,
    /// Floating-point multiply latency.
    pub fp_mul: u64,
    /// Floating-point divide latency.
    pub fp_div: u64,
    /// Branch resolution latency in the execution stage.
    pub branch: u64,
    /// Store address/data latency (cache write happens at commit).
    pub store: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            int_alu: 1,
            int_mul: 3,
            fp_alu: 3,
            fp_mul: 5,
            fp_div: 20,
            branch: 1,
            store: 1,
        }
    }
}

impl LatencyConfig {
    /// Execution latency for an operation class. Load latency is determined
    /// by the memory hierarchy and is not part of this table (loads return
    /// the address-generation latency here).
    pub fn for_class(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Nop => 1,
            OpClass::IntAlu => self.int_alu,
            OpClass::IntMul => self.int_mul,
            OpClass::FpAlu => self.fp_alu,
            OpClass::FpMul => self.fp_mul,
            OpClass::FpDiv => self.fp_div,
            OpClass::Load => 1,
            OpClass::Store => self.store,
            OpClass::Branch => self.branch,
        }
    }
}

/// Functional-unit counts (issue ports) per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Number of integer ALUs.
    pub int_alu: usize,
    /// Number of integer multipliers.
    pub int_mul: usize,
    /// Number of floating-point units (shared add/mul/div pipes).
    pub fp: usize,
    /// Number of load ports.
    pub load_ports: usize,
    /// Number of store ports.
    pub store_ports: usize,
    /// Number of branch units.
    pub branch: usize,
}

impl Default for FuConfig {
    fn default() -> Self {
        // Haswell-like: 4 integer ALUs, 1 multiplier pipe, 2 FP pipes,
        // 2 load ports, 1 store port, 2 branch-capable ports.
        FuConfig {
            int_alu: 4,
            int_mul: 1,
            fp: 2,
            load_ports: 2,
            store_ports: 1,
            branch: 2,
        }
    }
}

impl FuConfig {
    /// Number of units available for an operation class.
    pub fn ports_for(&self, class: OpClass) -> usize {
        match class {
            OpClass::Nop | OpClass::IntAlu => self.int_alu,
            OpClass::IntMul => self.int_mul,
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => self.fp,
            OpClass::Load => self.load_ports,
            OpClass::Store => self.store_ports,
            OpClass::Branch => self.branch,
        }
    }
}

/// Out-of-order core parameters (Table 1, first two rows).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Core clock frequency in GHz (2.66 in the paper).
    pub freq_ghz: f64,
    /// Reorder-buffer capacity (192).
    pub rob_entries: usize,
    /// Unified issue-queue capacity (92).
    pub iq_entries: usize,
    /// Load-queue capacity (64).
    pub lq_entries: usize,
    /// Store-queue capacity (64).
    pub sq_entries: usize,
    /// Maximum micro-ops the front-end delivers to rename per cycle (the
    /// paper assumes up to 8).
    pub fetch_width: usize,
    /// Dispatch (rename → ROB/IQ) width (4).
    pub dispatch_width: usize,
    /// Issue width (4).
    pub issue_width: usize,
    /// Commit width (4).
    pub commit_width: usize,
    /// Front-end depth in stages (8); determines the refill penalty after a
    /// pipeline flush.
    pub frontend_depth: usize,
    /// Integer physical register file size (168).
    pub int_phys_regs: usize,
    /// Floating-point physical register file size (168).
    pub fp_phys_regs: usize,
    /// Functional-unit pool.
    pub fu: FuConfig,
    /// Execution latencies.
    pub latencies: LatencyConfig,
    /// Skip quiescent cycles in bulk (`true`, the default): when every
    /// pipeline stage is provably idle the clock jumps to the next event.
    /// With `false` the core ticks every cycle. Both produce bit-identical
    /// statistics (only the fast-forward split differs); the
    /// tick-every-cycle run exists as the oracle for fast-forward.
    pub fast_forward: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            freq_ghz: 2.66,
            rob_entries: 192,
            iq_entries: 92,
            lq_entries: 64,
            sq_entries: 64,
            fetch_width: 8,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            frontend_depth: 8,
            int_phys_regs: 168,
            fp_phys_regs: 168,
            fu: FuConfig::default(),
            latencies: LatencyConfig::default(),
            fast_forward: true,
        }
    }
}

/// A single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Cache-line size in bytes (64).
    pub line_bytes: usize,
    /// Access latency in core cycles (hit latency).
    pub latency: u64,
    /// Number of miss-status holding registers (outstanding misses).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Convenience constructor from a size in kilobytes.
    pub(crate) fn kb(size_kb: usize, assoc: usize, latency: u64, mshrs: usize) -> Self {
        CacheConfig {
            size_bytes: size_kb * 1024,
            assoc,
            line_bytes: 64,
            latency,
            mshrs,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }

    /// Validates the geometry (size divisible by `assoc × line`, power-of-two
    /// set count).
    pub fn validate(&self, name: &'static str) -> Result<(), ConfigError> {
        if self.size_bytes == 0 || self.assoc == 0 || self.line_bytes == 0 {
            return Err(ConfigError::ZeroCapacity { field: name });
        }
        if self.size_bytes % (self.assoc * self.line_bytes) != 0 {
            return Err(ConfigError::BadCacheGeometry {
                cache: name,
                detail: format!(
                    "size {} not divisible by assoc {} x line {}",
                    self.size_bytes, self.assoc, self.line_bytes
                ),
            });
        }
        let sets = self.num_sets();
        if !sets.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: name,
                value: sets as u64,
            });
        }
        if self.mshrs == 0 {
            return Err(ConfigError::ZeroCapacity { field: name });
        }
        Ok(())
    }
}

/// DDR3-like main-memory timing (Table 1, last row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Memory bus frequency in MHz (800 for DDR3-1600).
    pub bus_mhz: f64,
    /// Number of ranks (4).
    pub ranks: usize,
    /// Total number of banks across all ranks (32).
    pub banks: usize,
    /// DRAM page (row-buffer) size in bytes (4 KB).
    pub page_bytes: usize,
    /// CAS latency in memory-bus cycles (11).
    pub t_cl: u64,
    /// RAS-to-CAS delay in memory-bus cycles (11).
    pub t_rcd: u64,
    /// Row-precharge time in memory-bus cycles (11).
    pub t_rp: u64,
    /// Burst length in bus transfers (8 transfers of 8 bytes = one 64 B line).
    pub burst_length: u64,
    /// Memory-controller overhead per request in memory-bus cycles: queue
    /// arbitration, scheduling, on-chip interconnect and I/O. Added to the
    /// completion time of every DRAM access; together with the array timing
    /// this puts an isolated LLC miss at "a couple hundred cycles", as the
    /// paper assumes.
    pub t_controller: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            bus_mhz: 800.0,
            ranks: 4,
            banks: 32,
            page_bytes: 4096,
            t_cl: 11,
            t_rcd: 11,
            t_rp: 11,
            burst_length: 8,
            t_controller: 40,
        }
    }
}

impl DramConfig {
    /// Converts memory-bus cycles into core cycles for a core running at
    /// `core_ghz`.
    pub fn bus_to_core_cycles(&self, core_ghz: f64, bus_cycles: u64) -> u64 {
        let ratio = (core_ghz * 1000.0) / self.bus_mhz;
        (bus_cycles as f64 * ratio).ceil() as u64
    }
}

/// Front-end branch-prediction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Number of branch-target-buffer entries.
    pub btb_entries: usize,
    /// gshare history/index width in bits (table has `2^bits` counters).
    pub gshare_bits: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            btb_entries: 4096,
            gshare_bits: 14,
        }
    }
}

/// Parameters of the runahead mechanisms (Sections 3.2–3.6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunaheadConfig {
    /// Stalling Slice Table entries (256, fully associative, LRU).
    pub sst_entries: usize,
    /// Precise Register Deallocation Queue entries (192).
    pub prdq_entries: usize,
    /// Extended Micro-op Queue entries (768 = 4 × ROB).
    pub emq_entries: usize,
    /// Maximum dependence-chain length extracted by the runahead buffer (32
    /// micro-ops, as in Hashemi et al.).
    pub runahead_buffer_chain_max: usize,
    /// Traditional-runahead / runahead-buffer entry policy: do not enter
    /// runahead mode when the stalling load is expected to return within
    /// this many cycles (Mutlu et al. short-interval optimization).
    pub min_expected_runahead_cycles: u64,
    /// PRE entry gate: refuse to enter runahead mode unless at least this
    /// many integer physical registers are free (counting registers the
    /// eager PRDQ drain can release at entry). Zero disables the gate.
    pub min_free_int_regs: usize,
    /// PRE entry gate for the floating-point register class. Zero disables
    /// the gate.
    pub min_free_fp_regs: usize,
}

impl Default for RunaheadConfig {
    fn default() -> Self {
        RunaheadConfig {
            sst_entries: 256,
            prdq_entries: 192,
            emq_entries: 768,
            runahead_buffer_chain_max: 32,
            min_expected_runahead_cycles: 20,
            min_free_int_regs: 0,
            min_free_fp_regs: 0,
        }
    }
}

/// Complete simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Core (back-end) parameters.
    pub core: CoreConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private unified L2.
    pub l2: CacheConfig,
    /// Shared L3 (one core in this study).
    pub l3: CacheConfig,
    /// Main-memory timing.
    pub dram: DramConfig,
    /// Branch-prediction parameters.
    pub frontend: FrontendConfig,
    /// Runahead-mechanism parameters.
    pub runahead: RunaheadConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::haswell_like()
    }
}

impl SimConfig {
    /// The paper's Table 1 baseline configuration.
    pub fn haswell_like() -> Self {
        SimConfig {
            core: CoreConfig::default(),
            l1i: CacheConfig::kb(32, 4, 2, 8),
            l1d: CacheConfig::kb(32, 8, 4, 32),
            l2: CacheConfig::kb(256, 8, 8, 48),
            l3: CacheConfig::kb(1024, 16, 30, 64),
            dram: DramConfig::default(),
            frontend: FrontendConfig::default(),
            runahead: RunaheadConfig::default(),
        }
    }

    /// A scaled-down configuration useful for fast unit tests: same structure
    /// as [`SimConfig::haswell_like`] but with small caches so that LLC
    /// misses (and therefore runahead intervals) occur with tiny working
    /// sets.
    pub fn small_for_tests() -> Self {
        let mut cfg = SimConfig::haswell_like();
        cfg.l1i = CacheConfig::kb(4, 2, 2, 4);
        cfg.l1d = CacheConfig::kb(4, 4, 4, 8);
        cfg.l2 = CacheConfig::kb(16, 4, 8, 8);
        cfg.l3 = CacheConfig::kb(64, 8, 30, 16);
        cfg
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: zero-sized structures,
    /// inconsistent cache geometry, physical register files too small to
    /// cover the architectural state, or unsupported widths.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let c = &self.core;
        for (field, value) in [
            ("rob_entries", c.rob_entries),
            ("iq_entries", c.iq_entries),
            ("lq_entries", c.lq_entries),
            ("sq_entries", c.sq_entries),
            ("fetch_width", c.fetch_width),
            ("dispatch_width", c.dispatch_width),
            ("issue_width", c.issue_width),
            ("commit_width", c.commit_width),
            ("frontend_depth", c.frontend_depth),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroCapacity { field });
            }
        }
        for (field, value) in [
            ("fetch_width", c.fetch_width),
            ("dispatch_width", c.dispatch_width),
            ("issue_width", c.issue_width),
            ("commit_width", c.commit_width),
        ] {
            if value > 16 {
                return Err(ConfigError::WidthOutOfRange {
                    field,
                    value,
                    max: 16,
                });
            }
        }
        let min_int = crate::reg::NUM_INT_ARCH_REGS + c.dispatch_width;
        if c.int_phys_regs < min_int {
            return Err(ConfigError::TooFewPhysRegs {
                class: "integer",
                configured: c.int_phys_regs,
                required: min_int,
            });
        }
        let min_fp = crate::reg::NUM_FP_ARCH_REGS + c.dispatch_width;
        if c.fp_phys_regs < min_fp {
            return Err(ConfigError::TooFewPhysRegs {
                class: "floating-point",
                configured: c.fp_phys_regs,
                required: min_fp,
            });
        }
        self.l1i.validate("l1i")?;
        self.l1d.validate("l1d")?;
        self.l2.validate("l2")?;
        self.l3.validate("l3")?;
        if self.runahead.sst_entries == 0 {
            return Err(ConfigError::ZeroCapacity {
                field: "sst_entries",
            });
        }
        if self.runahead.prdq_entries == 0 {
            return Err(ConfigError::ZeroCapacity {
                field: "prdq_entries",
            });
        }
        if self.runahead.emq_entries == 0 {
            return Err(ConfigError::ZeroCapacity {
                field: "emq_entries",
            });
        }
        Ok(())
    }

    /// Round-trip DRAM access latency (closed page) in core cycles, the
    /// latency an isolated LLC miss observes: controller + tRP + tRCD + tCL +
    /// burst.
    pub fn dram_closed_page_latency(&self) -> u64 {
        let bus = self.dram.t_controller
            + self.dram.t_rp
            + self.dram.t_rcd
            + self.dram.t_cl
            + self.dram.burst_length / 2;
        self.dram.bus_to_core_cycles(self.core.freq_ghz, bus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_like_matches_table1() {
        let cfg = SimConfig::haswell_like();
        assert_eq!(cfg.core.rob_entries, 192);
        assert_eq!(cfg.core.iq_entries, 92);
        assert_eq!(cfg.core.lq_entries, 64);
        assert_eq!(cfg.core.sq_entries, 64);
        assert_eq!(cfg.core.int_phys_regs, 168);
        assert_eq!(cfg.core.fp_phys_regs, 168);
        assert_eq!(cfg.core.frontend_depth, 8);
        assert_eq!(cfg.l1i.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1d.size_bytes, 32 * 1024);
        assert_eq!(cfg.l2.size_bytes, 256 * 1024);
        assert_eq!(cfg.l3.size_bytes, 1024 * 1024);
        assert_eq!(cfg.runahead.sst_entries, 256);
        assert_eq!(cfg.runahead.prdq_entries, 192);
        assert_eq!(cfg.runahead.emq_entries, 768);
        cfg.validate().unwrap();
    }

    #[test]
    fn small_for_tests_is_valid() {
        SimConfig::small_for_tests().validate().unwrap();
    }

    #[test]
    fn cache_geometry_is_power_of_two_sets() {
        let cfg = SimConfig::haswell_like();
        assert_eq!(cfg.l1d.num_sets(), 64);
        assert_eq!(cfg.l3.num_sets(), 1024);
    }

    #[test]
    fn validate_rejects_zero_capacities() {
        let mut cfg = SimConfig::haswell_like();
        cfg.core.rob_entries = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroCapacity {
                field: "rob_entries"
            })
        ));
        let mut cfg = SimConfig::haswell_like();
        cfg.runahead.sst_entries = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroCapacity {
                field: "sst_entries"
            })
        ));
    }

    #[test]
    fn validate_rejects_tiny_prf() {
        let mut cfg = SimConfig::haswell_like();
        cfg.core.int_phys_regs = 16;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TooFewPhysRegs { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_cache_geometry() {
        let mut cfg = SimConfig::haswell_like();
        cfg.l1d.size_bytes = 3000;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn free_reg_gates_default_off_and_validate() {
        let mut cfg = SimConfig::haswell_like();
        assert_eq!(cfg.runahead.min_free_int_regs, 0);
        assert_eq!(cfg.runahead.min_free_fp_regs, 0);
        cfg.runahead.min_free_int_regs = 4;
        cfg.runahead.min_free_fp_regs = 2;
        cfg.validate().unwrap();
    }

    #[test]
    fn dram_latency_is_a_couple_hundred_cycles() {
        let cfg = SimConfig::haswell_like();
        let lat = cfg.dram_closed_page_latency();
        // ~37 bus cycles at 800 MHz with a 2.66 GHz core is ~120+ core cycles;
        // combined with L1+L2+L3 lookup latencies an isolated miss costs a
        // couple hundred cycles, as the paper states.
        assert!(lat > 80 && lat < 400, "unexpected DRAM latency {lat}");
    }

    #[test]
    fn latency_table_covers_all_classes() {
        let lat = LatencyConfig::default();
        for class in OpClass::ALL {
            assert!(lat.for_class(class) >= 1);
        }
    }

    #[test]
    fn fu_ports_cover_all_classes() {
        let fu = FuConfig::default();
        for class in OpClass::ALL {
            assert!(fu.ports_for(class) >= 1);
        }
    }
}
