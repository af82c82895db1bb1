//! Configuration-dependent warmed micro-architectural state.
//!
//! A [`pre_model::snapshot::SimSnapshot`] is configuration-independent: it
//! carries the functional state after warm-up plus the [`WarmTrace`] of
//! cache-relevant events. [`WarmedState`] is the configuration-*dependent*
//! half — the cache hierarchy and branch predictor a particular geometry
//! derives from that trace. Sweep drivers build one `WarmedState` per
//! distinct memory-hierarchy configuration and clone it into every core
//! forked from the snapshot ([`crate::OooCore::from_snapshot`]), so a
//! 20-point ROB/EMQ/SST sweep replays the trace once, not 20 times.
//!
//! Warming leaves no statistics behind: `pre-mem`'s warm replay runs each
//! event through the same cache lookup and install as a demand access, then
//! restores the statistics it saved before the replay, so only tags, LRU
//! order and dirty bits change. The predictor is trained through its
//! non-misprediction update path. A warmed run therefore reports exactly
//! the work it did after the snapshot point.

use pre_frontend::BranchPredictorUnit;
use pre_mem::MemoryHierarchy;
use pre_model::config::SimConfig;
use pre_model::snapshot::WarmTrace;

/// Warmed caches and branch predictor for one memory-hierarchy + frontend
/// configuration, derived from a snapshot's [`WarmTrace`].
#[derive(Debug, Clone)]
pub struct WarmedState {
    /// The warmed cache hierarchy (statistics restored to zero, no fills in
    /// flight).
    pub mem_hier: MemoryHierarchy,
    /// The warmed branch predictor (direction counters, BTB and history
    /// trained on the warm-up branch stream).
    pub predictor: BranchPredictorUnit,
}

impl WarmedState {
    /// Cold caches and an untrained predictor for `cfg`: the starting state
    /// of a core that did not warm up.
    ///
    /// # Panics
    ///
    /// Panics if any cache geometry in `cfg` is invalid; validate the
    /// configuration first (core construction does).
    pub(crate) fn cold(cfg: &SimConfig) -> Self {
        WarmedState {
            mem_hier: MemoryHierarchy::new(cfg),
            predictor: BranchPredictorUnit::new(&cfg.frontend),
        }
    }

    /// Replays `trace` against the geometry described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if any cache geometry in `cfg` is invalid; validate the
    /// configuration first (core construction does).
    pub fn build(cfg: &SimConfig, trace: &WarmTrace) -> Self {
        let mut warmed = WarmedState::cold(cfg);
        warmed.mem_hier.warm_replay(trace);
        for b in &trace.branches {
            warmed.predictor.update(b.pc, b.taken, b.target, false);
        }
        warmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::stats::SimStats;

    #[test]
    fn build_warms_caches_and_predictor_without_stats() {
        let cfg = SimConfig::haswell_like();
        let mut trace = WarmTrace::new();
        trace.record_ifetch(0);
        trace.record_load(0x40_000);
        for _ in 0..32 {
            trace.record_branch(7, true, 3);
        }
        let mut warmed = WarmedState::build(&cfg, &trace);
        assert_eq!(
            warmed.mem_hier.probe_data(0x40_000),
            Some(pre_mem::HitLevel::L1)
        );
        let mut stats = SimStats::new();
        warmed.mem_hier.export_stats(&mut stats);
        assert_eq!(stats, SimStats::new());
        assert_eq!(warmed.predictor.lookups(), 0);
        assert_eq!(warmed.predictor.mispredicts(), 0);
        // The trained predictor now predicts the warm-up branch taken.
        let pred = warmed.predictor.predict(7);
        assert!(pred.taken);
    }
}
