//! The machine configurations compared in the paper's evaluation.

use crate::policy::EntryPolicy;
use pre_model::config::RunaheadConfig;
use std::fmt;
use std::str::FromStr;

/// One of the five machine configurations evaluated in Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// The baseline out-of-order core (no runahead).
    OutOfOrder,
    /// Traditional runahead execution (Mutlu et al., HPCA 2003) with the
    /// efficiency optimizations of Mutlu et al., ISCA 2005.
    Runahead,
    /// Filtered runahead with a runahead buffer (Hashemi et al., MICRO 2015).
    RunaheadBuffer,
    /// Precise Runahead Execution (the paper's contribution).
    Pre,
    /// PRE augmented with the Extended Micro-op Queue.
    PreEmq,
}

impl Technique {
    /// Every technique, in the order used by the paper's figures.
    pub const ALL: [Technique; 5] = [
        Technique::OutOfOrder,
        Technique::Runahead,
        Technique::RunaheadBuffer,
        Technique::Pre,
        Technique::PreEmq,
    ];

    /// The runahead techniques (everything except the baseline).
    pub const RUNAHEAD: [Technique; 4] = [
        Technique::Runahead,
        Technique::RunaheadBuffer,
        Technique::Pre,
        Technique::PreEmq,
    ];

    /// Short label used in figures ("OoO", "RA", "RA-buffer", "PRE",
    /// "PRE+EMQ").
    pub fn label(&self) -> &'static str {
        match self {
            Technique::OutOfOrder => "OoO",
            Technique::Runahead => "RA",
            Technique::RunaheadBuffer => "RA-buffer",
            Technique::Pre => "PRE",
            Technique::PreEmq => "PRE+EMQ",
        }
    }

    /// `true` for configurations that perform any form of runahead execution.
    pub fn is_runahead(&self) -> bool {
        !matches!(self, Technique::OutOfOrder)
    }

    /// `true` for configurations that use the Stalling Slice Table.
    pub fn uses_sst(&self) -> bool {
        matches!(self, Technique::Pre | Technique::PreEmq)
    }

    /// `true` for the configuration that buffers runahead micro-ops in the
    /// EMQ.
    pub fn uses_emq(&self) -> bool {
        matches!(self, Technique::PreEmq)
    }

    /// `true` when the technique discards the ROB at runahead entry and
    /// flushes/refills the pipeline at exit (the overhead PRE eliminates).
    pub(crate) fn flushes_pipeline(&self) -> bool {
        matches!(self, Technique::Runahead | Technique::RunaheadBuffer)
    }

    /// `true` when the ROB contents are preserved across runahead mode.
    pub fn preserves_rob(&self) -> bool {
        matches!(self, Technique::Pre | Technique::PreEmq)
    }

    /// The runahead entry policy this technique uses.
    pub fn entry_policy(&self, cfg: &RunaheadConfig) -> EntryPolicy {
        if self.flushes_pipeline() {
            EntryPolicy::efficient(cfg.min_expected_runahead_cycles)
        } else {
            EntryPolicy::gated(cfg.min_free_int_regs, cfg.min_free_fp_regs)
        }
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown technique name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTechniqueError(String);

impl fmt::Display for ParseTechniqueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown technique `{}`, expected one of: ooo, ra, ra-buffer, pre, pre-emq",
            self.0
        )
    }
}

impl std::error::Error for ParseTechniqueError {}

impl FromStr for Technique {
    type Err = ParseTechniqueError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ooo" | "baseline" | "out-of-order" => Ok(Technique::OutOfOrder),
            "ra" | "runahead" => Ok(Technique::Runahead),
            "ra-buffer" | "runahead-buffer" | "rab" => Ok(Technique::RunaheadBuffer),
            "pre" => Ok(Technique::Pre),
            "pre-emq" | "pre+emq" | "preemq" => Ok(Technique::PreEmq),
            other => Err(ParseTechniqueError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figures() {
        assert_eq!(Technique::OutOfOrder.label(), "OoO");
        assert_eq!(Technique::Runahead.label(), "RA");
        assert_eq!(Technique::RunaheadBuffer.label(), "RA-buffer");
        assert_eq!(Technique::Pre.label(), "PRE");
        assert_eq!(Technique::PreEmq.label(), "PRE+EMQ");
    }

    #[test]
    fn structural_properties() {
        assert!(!Technique::OutOfOrder.is_runahead());
        assert!(Technique::Runahead.flushes_pipeline());
        assert!(Technique::RunaheadBuffer.flushes_pipeline());
        assert!(Technique::Pre.preserves_rob());
        assert!(Technique::PreEmq.uses_emq());
        assert!(Technique::Pre.uses_sst());
        assert!(!Technique::Runahead.uses_sst());
    }

    #[test]
    fn entry_policies_differ() {
        let cfg = RunaheadConfig::default();
        let ra = Technique::Runahead.entry_policy(&cfg);
        assert_eq!(ra.min_expected_cycles, cfg.min_expected_runahead_cycles);
        assert!(ra.avoid_overlap);
        let pre = Technique::Pre.entry_policy(&cfg);
        assert_eq!(pre.min_expected_cycles, 0);
        assert!(!pre.avoid_overlap);
        assert_eq!(pre.min_free_int_regs, cfg.min_free_int_regs);
        assert_eq!(pre.min_free_fp_regs, cfg.min_free_fp_regs);
    }

    #[test]
    fn parsing_roundtrip() {
        for t in Technique::ALL {
            let parsed: Technique = t.label().parse().unwrap();
            assert_eq!(parsed, t);
        }
        assert!("nonsense".parse::<Technique>().is_err());
    }

    #[test]
    fn all_contains_five_unique_entries() {
        let mut labels: Vec<_> = Technique::ALL.iter().map(|t| t.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}
