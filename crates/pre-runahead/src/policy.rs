//! Runahead entry policies.
//!
//! Traditional runahead and the runahead buffer pay a full pipeline flush and
//! refill on every runahead exit, so they only enter runahead mode when the
//! interval is expected to be long enough to amortize that cost (the
//! "efficient runahead" optimizations of Mutlu et al.), and they avoid
//! re-entering runahead for a load that already ran ahead. PRE keeps the ROB
//! intact and exits for free, so it enters runahead unconditionally — the
//! paper measures PRE invoking runahead 1.62× (and PRE+EMQ 1.95×) more often
//! than traditional runahead, which is where much of its extra memory-level
//! parallelism comes from.

/// The outcome of consulting an [`EntryPolicy`] on a full-window stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryDecision {
    /// Enter runahead mode.
    Enter,
    /// Skip: the stalling load is expected back too soon to amortize the
    /// flush/refill overhead.
    SkipShortInterval,
    /// Skip: runahead was already performed for this stall (overlap
    /// avoidance).
    SkipOverlap,
    /// Skip: too few free destination registers to inject any slice
    /// micro-op (PRE's free-register entry gate).
    SkipNoFreeRegs,
}

impl EntryDecision {
    /// `true` when the decision is to enter runahead mode.
    pub fn should_enter(&self) -> bool {
        matches!(self, EntryDecision::Enter)
    }
}

/// Entry policy shared by the runahead flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryPolicy {
    /// Minimum expected remaining latency (cycles) of the stalling load for
    /// entry to be worthwhile. Zero disables the check (PRE).
    pub min_expected_cycles: u64,
    /// Whether to refuse re-entering runahead for the same stalling-load
    /// instance (overlap avoidance). PRE disables this as well.
    pub avoid_overlap: bool,
    /// Minimum free integer physical registers (including registers the
    /// eager PRDQ drain can release) for entry to be useful. Zero disables
    /// the gate. Runahead micro-ops execute on free registers, so entering
    /// with an exhausted register class is pure overhead.
    pub min_free_int_regs: usize,
    /// Minimum free floating-point physical registers. Zero disables the
    /// gate.
    pub min_free_fp_regs: usize,
}

impl EntryPolicy {
    /// The Mutlu-style policy used by traditional runahead and the runahead
    /// buffer.
    pub(crate) fn efficient(min_expected_cycles: u64) -> Self {
        EntryPolicy {
            min_expected_cycles,
            avoid_overlap: true,
            min_free_int_regs: 0,
            min_free_fp_regs: 0,
        }
    }

    /// PRE's policy: always enter (entry and exit are cheap because the ROB
    /// is preserved).
    pub(crate) fn always() -> Self {
        EntryPolicy {
            min_expected_cycles: 0,
            avoid_overlap: false,
            min_free_int_regs: 0,
            min_free_fp_regs: 0,
        }
    }

    /// PRE's policy with the free-register entry gate enabled.
    pub(crate) fn gated(min_free_int_regs: usize, min_free_fp_regs: usize) -> Self {
        EntryPolicy {
            min_free_int_regs,
            min_free_fp_regs,
            ..EntryPolicy::always()
        }
    }

    /// `true` when [`EntryPolicy::decide`] inspects the free-register
    /// counts, so callers can skip computing them otherwise.
    pub fn needs_free_reg_counts(&self) -> bool {
        self.min_free_int_regs > 0 || self.min_free_fp_regs > 0
    }

    /// Decides whether to enter runahead mode.
    ///
    /// * `expected_remaining_cycles` — cycles until the stalling load's data
    ///   is expected to arrive.
    /// * `already_ran_for_this_stall` — a runahead interval was already
    ///   executed for this stalling-load instance.
    /// * `free_int_regs` / `free_fp_regs` — per-class free destination
    ///   registers available to runahead renaming, counting registers an
    ///   eager PRDQ drain would release (only consulted when the gate is
    ///   enabled; pass the raw free counts otherwise).
    pub fn decide(
        &self,
        expected_remaining_cycles: u64,
        already_ran_for_this_stall: bool,
        free_int_regs: usize,
        free_fp_regs: usize,
    ) -> EntryDecision {
        if self.avoid_overlap && already_ran_for_this_stall {
            EntryDecision::SkipOverlap
        } else if expected_remaining_cycles < self.min_expected_cycles {
            EntryDecision::SkipShortInterval
        } else if free_int_regs < self.min_free_int_regs || free_fp_regs < self.min_free_fp_regs {
            EntryDecision::SkipNoFreeRegs
        } else {
            EntryDecision::Enter
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficient_policy_skips_short_intervals() {
        let p = EntryPolicy::efficient(20);
        assert_eq!(p.decide(10, false, 0, 0), EntryDecision::SkipShortInterval);
        assert_eq!(p.decide(20, false, 0, 0), EntryDecision::Enter);
        assert_eq!(p.decide(200, false, 0, 0), EntryDecision::Enter);
    }

    #[test]
    fn efficient_policy_skips_overlapping_intervals() {
        let p = EntryPolicy::efficient(20);
        assert_eq!(p.decide(200, true, 0, 0), EntryDecision::SkipOverlap);
    }

    #[test]
    fn always_policy_never_skips() {
        let p = EntryPolicy::always();
        assert!(p.decide(1, false, 0, 0).should_enter());
        assert!(p.decide(0, true, 0, 0).should_enter());
        assert!(!p.needs_free_reg_counts());
    }

    #[test]
    fn gated_policy_requires_free_registers() {
        let p = EntryPolicy::gated(4, 2);
        assert!(p.needs_free_reg_counts());
        assert_eq!(p.decide(100, false, 3, 10), EntryDecision::SkipNoFreeRegs);
        assert_eq!(p.decide(100, false, 10, 1), EntryDecision::SkipNoFreeRegs);
        assert_eq!(p.decide(100, false, 4, 2), EntryDecision::Enter);
        // The gate keeps PRE's unconditional entry otherwise.
        assert!(!p.avoid_overlap);
        assert_eq!(p.min_expected_cycles, 0);
    }

    #[test]
    fn should_enter_only_for_enter() {
        assert!(EntryDecision::Enter.should_enter());
        assert!(!EntryDecision::SkipShortInterval.should_enter());
        assert!(!EntryDecision::SkipOverlap.should_enter());
        assert!(!EntryDecision::SkipNoFreeRegs.should_enter());
    }
}
