//! Branch prediction: gshare + BTB.
//!
//! Conditional branches are predicted by a gshare predictor (global history
//! XOR PC indexing a table of 2-bit saturating counters); targets come from a
//! direct-mapped branch target buffer. There is no return address stack: the
//! micro-op ISA has no call, return or indirect jump (the assembler lowers
//! `jalr` to conditional branches), so the global history is the only
//! predictor state checkpointed at runahead entry.

use pre_model::config::FrontendConfig;

/// A branch prediction: direction and, when the BTB knows it, a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional jumps that hit
    /// in the BTB).
    pub taken: bool,
    /// Predicted target PC, if the BTB holds one for this branch.
    pub target: Option<u32>,
}

/// 2-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter(u8);

impl Counter {
    fn predict(&self) -> bool {
        self.0 >= 2
    }
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// gshare direction predictor + direct-mapped BTB.
#[derive(Debug, Clone)]
pub struct BranchPredictorUnit {
    counters: Vec<Counter>,
    history: u64,
    history_mask: u64,
    btb: Vec<Option<(u64, u32)>>,
    lookups: u64,
    mispredicts: u64,
}

impl BranchPredictorUnit {
    /// Creates a predictor from the front-end configuration.
    ///
    /// # Panics
    ///
    /// Panics if `gshare_bits` is zero or larger than 24, or if the BTB has
    /// zero entries.
    pub fn new(cfg: &FrontendConfig) -> Self {
        assert!(
            cfg.gshare_bits > 0 && cfg.gshare_bits <= 24,
            "gshare_bits must be in 1..=24"
        );
        assert!(cfg.btb_entries > 0, "BTB must have at least one entry");
        BranchPredictorUnit {
            counters: vec![Counter(2); 1 << cfg.gshare_bits],
            history: 0,
            history_mask: (1u64 << cfg.gshare_bits) - 1,
            btb: vec![None; cfg.btb_entries],
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn index(&self, pc: u32) -> usize {
        ((pc as u64 ^ self.history) & self.history_mask) as usize
    }

    fn btb_index(&self, pc: u32) -> usize {
        pc as usize % self.btb.len()
    }

    /// Predicts a conditional branch at `pc`. The caller decides the target
    /// (from the BTB entry or, once decoded, the static instruction).
    pub fn predict(&mut self, pc: u32) -> Prediction {
        self.lookups += 1;
        let taken = self.counters[self.index(pc)].predict();
        let target = self.btb_lookup(pc);
        Prediction { taken, target }
    }

    /// Looks up the BTB only (used for unconditional jumps).
    pub fn btb_lookup(&self, pc: u32) -> Option<u32> {
        match self.btb[self.btb_index(pc)] {
            Some((tag, target)) if tag == pc as u64 => Some(target),
            _ => None,
        }
    }

    /// Updates predictor state when a branch resolves.
    ///
    /// `mispredicted` is accounted for statistics; the direction counters and
    /// global history are updated with the actual outcome, and the BTB learns
    /// the target of taken branches.
    pub fn update(&mut self, pc: u32, taken: bool, target: u32, mispredicted: bool) {
        if mispredicted {
            self.mispredicts += 1;
        }
        let idx = self.index(pc);
        self.counters[idx].update(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
        if taken {
            let bidx = self.btb_index(pc);
            self.btb[bidx] = Some((pc as u64, target));
        }
    }

    /// Speculatively shifts the predicted direction into the history (done at
    /// prediction time by aggressive front ends). The simulator uses
    /// resolve-time updates only, but this is exposed for experimentation.
    pub fn speculate_history(&mut self, taken: bool) {
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
    }

    /// Current global-history register (checkpointed at runahead entry).
    pub fn history(&self) -> u64 {
        self.history
    }

    /// Restores a previously checkpointed global history.
    pub fn restore_history(&mut self, history: u64) {
        self.history = history & self.history_mask;
    }

    /// Number of direction predictions made.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Number of resolved branches reported as mispredicted.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BranchPredictorUnit {
        BranchPredictorUnit::new(&FrontendConfig::default())
    }

    #[test]
    fn learns_always_taken_branch() {
        let mut p = unit();
        let pc = 42;
        for _ in 0..8 {
            let pred = p.predict(pc);
            p.update(pc, true, 7, !pred.taken);
        }
        assert!(p.predict(pc).taken);
        assert_eq!(p.btb_lookup(pc), Some(7));
    }

    #[test]
    fn learns_never_taken_branch() {
        let mut p = unit();
        let pc = 10;
        for _ in 0..8 {
            let pred = p.predict(pc);
            p.update(pc, false, 0, pred.taken);
        }
        assert!(!p.predict(pc).taken);
    }

    #[test]
    fn loop_branch_reaches_high_accuracy() {
        // Taken 15 times, then not taken once, repeatedly (a 16-iteration loop).
        let mut p = unit();
        let pc = 100;
        let mut correct = 0;
        let mut total = 0;
        for _trip in 0..200 {
            for i in 0..16 {
                let taken = i != 15;
                let pred = p.predict(pc);
                if pred.taken == taken {
                    correct += 1;
                }
                total += 1;
                p.update(pc, taken, 100, pred.taken != taken);
            }
        }
        let accuracy = correct as f64 / total as f64;
        assert!(accuracy > 0.85, "loop-branch accuracy too low: {accuracy}");
    }

    #[test]
    fn history_checkpoint_roundtrip() {
        let mut p = unit();
        for i in 0..10 {
            p.update(i, i % 2 == 0, i, false);
        }
        let h = p.history();
        p.update(99, true, 0, false);
        assert_ne!(p.history(), h);
        p.restore_history(h);
        assert_eq!(p.history(), h);
    }

    #[test]
    fn mispredict_counter_tracks_reports() {
        let mut p = unit();
        p.update(5, true, 1, true);
        p.update(5, true, 1, false);
        assert_eq!(p.mispredicts(), 1);
        assert_eq!(p.lookups(), 0);
        p.predict(5);
        assert_eq!(p.lookups(), 1);
    }

    #[test]
    #[should_panic(expected = "gshare_bits")]
    fn zero_gshare_bits_rejected() {
        let cfg = FrontendConfig {
            gshare_bits: 0,
            ..FrontendConfig::default()
        };
        let _ = BranchPredictorUnit::new(&cfg);
    }
}
