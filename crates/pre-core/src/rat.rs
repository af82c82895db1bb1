//! The Register Alias Table (RAT).
//!
//! Maps each of the 64 architectural registers (32 integer + 32 floating
//! point) to a physical register of the corresponding class. For PRE, every
//! entry is extended with the PC of the instruction that last produced the
//! register (Section 3.2): when an instruction hits in the SST, the PCs of
//! its producers are read from here and inserted into the SST, which is how
//! stalling slices are discovered iteratively.
//!
//! The RAT is checkpointed on runahead entry and restored at exit, and is
//! rolled back incrementally (youngest-first) on branch mispredictions.

use pre_model::reg::{ArchReg, PhysReg, RegClass, NUM_ARCH_REGS, NUM_INT_ARCH_REGS};

/// A full copy of the RAT used for runahead checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatCheckpoint {
    map: [PhysReg; NUM_ARCH_REGS],
    producer_pc: [Option<u32>; NUM_ARCH_REGS],
}

/// The register alias table with PRE's producer-PC extension.
#[derive(Debug, Clone)]
pub struct RegisterAliasTable {
    map: [PhysReg; NUM_ARCH_REGS],
    producer_pc: [Option<u32>; NUM_ARCH_REGS],
    reads: u64,
    writes: u64,
}

impl RegisterAliasTable {
    /// Creates the initial RAT: integer register `i` maps to integer physical
    /// register `i`, floating-point register `i` maps to floating-point
    /// physical register `i`.
    pub fn new() -> Self {
        let mut map = [PhysReg(0); NUM_ARCH_REGS];
        for (flat, entry) in map.iter_mut().enumerate() {
            *entry = Self::identity_mapping(flat);
        }
        RegisterAliasTable {
            map,
            producer_pc: [None; NUM_ARCH_REGS],
            reads: 0,
            writes: 0,
        }
    }

    /// The identity mapping used at reset: each architectural register maps
    /// to the same-numbered physical register of its class.
    pub(crate) fn identity_mapping(flat: usize) -> PhysReg {
        if flat < NUM_INT_ARCH_REGS {
            PhysReg(flat as u16)
        } else {
            PhysReg((flat - NUM_INT_ARCH_REGS) as u16)
        }
    }

    /// Looks up the current mapping of `reg` (counts a RAT read).
    pub(crate) fn lookup(&mut self, reg: ArchReg) -> PhysReg {
        self.reads += 1;
        self.map[reg.flat_index()]
    }

    /// Looks up the current mapping without counting a port access.
    pub fn peek(&self, reg: ArchReg) -> PhysReg {
        self.map[reg.flat_index()]
    }

    /// `true` when some architectural register of `class` currently maps to
    /// the physical register `reg`.
    pub(crate) fn maps(&self, class: RegClass, reg: PhysReg) -> bool {
        let (int, fp) = self.map.split_at(NUM_INT_ARCH_REGS);
        match class {
            RegClass::Int => int.contains(&reg),
            RegClass::Fp => fp.contains(&reg),
        }
    }

    /// The PC of the instruction that last renamed `reg`, if any.
    pub(crate) fn producer_pc(&self, reg: ArchReg) -> Option<u32> {
        self.producer_pc[reg.flat_index()]
    }

    /// Renames `reg` to `new`, produced by the instruction at `pc`.
    /// Returns the previous mapping and the previous producer PC.
    pub fn rename(&mut self, reg: ArchReg, new: PhysReg, pc: u32) -> (PhysReg, Option<u32>) {
        self.writes += 1;
        let flat = reg.flat_index();
        let old = self.map[flat];
        let old_pc = self.producer_pc[flat];
        self.map[flat] = new;
        self.producer_pc[flat] = Some(pc);
        (old, old_pc)
    }

    /// Restores a single mapping (used when rolling back a mispredicted
    /// branch by walking squashed instructions youngest-first).
    pub fn rollback(&mut self, reg: ArchReg, old: PhysReg, old_pc: Option<u32>) {
        let flat = reg.flat_index();
        self.map[flat] = old;
        self.producer_pc[flat] = old_pc;
    }

    /// Captures a checkpoint of the whole table (runahead entry).
    pub fn checkpoint(&self) -> RatCheckpoint {
        RatCheckpoint {
            map: self.map,
            producer_pc: self.producer_pc,
        }
    }

    /// Restores a previously captured checkpoint (runahead exit).
    pub fn restore(&mut self, checkpoint: &RatCheckpoint) {
        self.map = checkpoint.map;
        self.producer_pc = checkpoint.producer_pc;
    }

    /// Resets the table to the identity mapping and clears all producer PCs
    /// (used when rebuilding rename state from an architectural checkpoint
    /// after a flush-style runahead exit).
    pub(crate) fn reset_identity(&mut self) {
        for flat in 0..NUM_ARCH_REGS {
            self.map[flat] = Self::identity_mapping(flat);
            self.producer_pc[flat] = None;
        }
    }

    /// Iterates over `(architectural register, physical register)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ArchReg, PhysReg)> + '_ {
        self.map
            .iter()
            .enumerate()
            .map(|(flat, &p)| (ArchReg::from_flat_index(flat), p))
    }

    /// Number of RAT read-port accesses.
    pub(crate) fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of RAT write-port accesses.
    pub(crate) fn writes(&self) -> u64 {
        self.writes
    }
}

impl Default for RegisterAliasTable {
    fn default() -> Self {
        RegisterAliasTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_mapping_is_identity_per_class() {
        let rat = RegisterAliasTable::new();
        assert_eq!(rat.peek(ArchReg::int(5)), PhysReg(5));
        assert_eq!(rat.peek(ArchReg::fp(5)), PhysReg(5));
        assert_eq!(ArchReg::int(5).class(), RegClass::Int);
    }

    #[test]
    fn rename_returns_old_mapping_and_records_producer() {
        let mut rat = RegisterAliasTable::new();
        let (old, old_pc) = rat.rename(ArchReg::int(3), PhysReg(40), 77);
        assert_eq!(old, PhysReg(3));
        assert_eq!(old_pc, None);
        assert_eq!(rat.peek(ArchReg::int(3)), PhysReg(40));
        assert_eq!(rat.producer_pc(ArchReg::int(3)), Some(77));
        let (old2, old_pc2) = rat.rename(ArchReg::int(3), PhysReg(41), 99);
        assert_eq!(old2, PhysReg(40));
        assert_eq!(old_pc2, Some(77));
    }

    #[test]
    fn rollback_restores_previous_state() {
        let mut rat = RegisterAliasTable::new();
        let (old, old_pc) = rat.rename(ArchReg::fp(2), PhysReg(50), 10);
        rat.rollback(ArchReg::fp(2), old, old_pc);
        assert_eq!(rat.peek(ArchReg::fp(2)), PhysReg(2));
        assert_eq!(rat.producer_pc(ArchReg::fp(2)), None);
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut rat = RegisterAliasTable::new();
        rat.rename(ArchReg::int(1), PhysReg(60), 5);
        let cp = rat.checkpoint();
        rat.rename(ArchReg::int(1), PhysReg(61), 6);
        rat.rename(ArchReg::int(2), PhysReg(62), 7);
        rat.restore(&cp);
        assert_eq!(rat.peek(ArchReg::int(1)), PhysReg(60));
        assert_eq!(rat.peek(ArchReg::int(2)), PhysReg(2));
        assert_eq!(rat.producer_pc(ArchReg::int(1)), Some(5));
    }

    #[test]
    fn reset_identity_clears_everything() {
        let mut rat = RegisterAliasTable::new();
        rat.rename(ArchReg::int(1), PhysReg(60), 5);
        rat.reset_identity();
        assert_eq!(rat.peek(ArchReg::int(1)), PhysReg(1));
        assert_eq!(rat.producer_pc(ArchReg::int(1)), None);
    }

    #[test]
    fn port_counters() {
        let mut rat = RegisterAliasTable::new();
        rat.lookup(ArchReg::int(0));
        rat.rename(ArchReg::int(0), PhysReg(33), 1);
        assert_eq!(rat.reads(), 1);
        assert_eq!(rat.writes(), 1);
    }

    #[test]
    fn maps_checks_the_class_of_the_mapping() {
        let mut rat = RegisterAliasTable::new();
        assert!(rat.maps(RegClass::Int, PhysReg(7)));
        rat.rename(ArchReg::int(7), PhysReg(70), 1);
        assert!(!rat.maps(RegClass::Int, PhysReg(7)), "mapped out");
        assert!(rat.maps(RegClass::Int, PhysReg(70)));
        assert!(!rat.maps(RegClass::Fp, PhysReg(70)), "classes are separate");
        assert!(rat.maps(RegClass::Fp, PhysReg(7)));
    }

    #[test]
    fn iter_covers_all_arch_regs() {
        let rat = RegisterAliasTable::new();
        assert_eq!(rat.iter().count(), NUM_ARCH_REGS);
    }
}
