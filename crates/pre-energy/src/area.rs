//! Hardware-overhead (storage) accounting — Section 3.6 of the paper.

use pre_model::config::RunaheadConfig;
use pre_model::reg::NUM_ARCH_REGS;
use std::fmt;

/// Storage overhead of the runahead structures, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareOverhead {
    /// Stalling Slice Table (4-byte PC tags).
    pub sst_bytes: usize,
    /// Precise Register Deallocation Queue (4 bytes per entry).
    pub prdq_bytes: usize,
    /// RAT extension: one 4-byte producer PC per architectural register.
    pub rat_extension_bytes: usize,
    /// Extended Micro-op Queue (4 bytes per buffered micro-op), optional.
    pub emq_bytes: usize,
    /// The prior-work runahead buffer (two 32-entry chain buffers of decoded
    /// micro-ops), for comparison.
    pub runahead_buffer_bytes: usize,
}

impl HardwareOverhead {
    /// Computes the overhead for a given runahead configuration.
    pub fn for_config(cfg: &RunaheadConfig) -> Self {
        HardwareOverhead {
            sst_bytes: cfg.sst_entries * 4,
            prdq_bytes: cfg.prdq_entries * 4,
            rat_extension_bytes: NUM_ARCH_REGS * 4,
            emq_bytes: cfg.emq_entries * 4,
            runahead_buffer_bytes: 2 * cfg.runahead_buffer_chain_max * 28,
        }
    }

    /// PRE's overhead without the optional EMQ (the paper reports 2 KB).
    pub(crate) fn pre_total_bytes(&self) -> usize {
        self.sst_bytes + self.prdq_bytes + self.rat_extension_bytes
    }

    /// PRE + EMQ overhead (the paper reports 2 KB + 3 KB).
    pub(crate) fn pre_emq_total_bytes(&self) -> usize {
        self.pre_total_bytes() + self.emq_bytes
    }
}

impl fmt::Display for HardwareOverhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SST                 : {:>6} B", self.sst_bytes)?;
        writeln!(f, "PRDQ                : {:>6} B", self.prdq_bytes)?;
        writeln!(f, "RAT extension       : {:>6} B", self.rat_extension_bytes)?;
        writeln!(f, "PRE total           : {:>6} B", self.pre_total_bytes())?;
        writeln!(f, "EMQ (optional)      : {:>6} B", self.emq_bytes)?;
        writeln!(
            f,
            "PRE+EMQ total       : {:>6} B",
            self.pre_emq_total_bytes()
        )?;
        write!(
            f,
            "runahead buffer     : {:>6} B (prior work, for comparison)",
            self.runahead_buffer_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_paper_for_the_default_configuration() {
        let hw = HardwareOverhead::for_config(&RunaheadConfig::default());
        assert_eq!(hw.sst_bytes, 1024);
        assert_eq!(hw.prdq_bytes, 768);
        assert_eq!(hw.rat_extension_bytes, 256);
        assert_eq!(hw.pre_total_bytes(), 2048);
        assert_eq!(hw.emq_bytes, 3072);
        assert_eq!(hw.pre_emq_total_bytes(), 5120);
        // ≈1.7 KB for the prior-work runahead buffer.
        assert!((1600..1900).contains(&hw.runahead_buffer_bytes));
    }

    #[test]
    fn scales_with_configuration() {
        let cfg = RunaheadConfig {
            sst_entries: 512,
            prdq_entries: 96,
            emq_entries: 1536,
            runahead_buffer_chain_max: 16,
            ..Default::default()
        };
        let hw = HardwareOverhead::for_config(&cfg);
        assert_eq!(hw.sst_bytes, 2048);
        assert_eq!(hw.prdq_bytes, 384);
        assert_eq!(hw.rat_extension_bytes, 256);
        assert_eq!(hw.pre_total_bytes(), 2688);
        assert_eq!(hw.emq_bytes, 6144);
        assert_eq!(hw.pre_emq_total_bytes(), 8832);
        assert_eq!(hw.runahead_buffer_bytes, 2 * 16 * 28);
    }

    #[test]
    fn display_lists_all_structures() {
        let hw = HardwareOverhead::for_config(&RunaheadConfig::default());
        let text = hw.to_string();
        assert!(text.contains("SST"));
        assert!(text.contains("PRDQ"));
        assert!(text.contains("EMQ"));
    }
}
