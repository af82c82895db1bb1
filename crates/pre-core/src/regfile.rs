//! The physical register file, with values, ready bits and the INV bits used
//! by runahead execution.

use pre_model::reg::PhysReg;

/// A physical register file for one register class.
///
/// Because the simulator is execution-driven, each register holds a real
/// 64-bit value. The `ready` bit implements wakeup (a consumer may issue once
/// all its sources are ready); the `inv` bit implements runahead's INV
/// propagation — results that transitively depend on the stalling load's
/// missing data are invalid and must not be used to generate prefetches.
#[derive(Debug, Clone)]
pub struct PhysRegFile {
    values: Vec<u64>,
    ready: Vec<bool>,
    inv: Vec<bool>,
    reads: u64,
    writes: u64,
}

impl PhysRegFile {
    /// Creates a register file of `capacity` registers. The first `reserved`
    /// registers (the initial architectural mappings) start ready with value
    /// zero; the rest start not-ready.
    pub(crate) fn new(capacity: usize, reserved: usize) -> Self {
        let mut ready = vec![false; capacity];
        for r in ready.iter_mut().take(reserved) {
            *r = true;
        }
        PhysRegFile {
            values: vec![0; capacity],
            ready,
            inv: vec![false; capacity],
            reads: 0,
            writes: 0,
        }
    }

    /// Reads a register's value (counts a PRF read port access).
    pub(crate) fn read(&mut self, reg: PhysReg) -> u64 {
        self.reads += 1;
        self.values[reg.index()]
    }

    /// Reads a register's value without counting an access (used for
    /// snapshots and debugging).
    pub(crate) fn peek(&self, reg: PhysReg) -> u64 {
        self.values[reg.index()]
    }

    /// Writes a register's value (counts a PRF write port access). The ready
    /// bit is *not* set — completion does that at writeback time.
    pub(crate) fn write(&mut self, reg: PhysReg, value: u64) {
        self.writes += 1;
        self.values[reg.index()] = value;
    }

    /// `true` once the producer of `reg` has completed.
    pub fn is_ready(&self, reg: PhysReg) -> bool {
        self.ready[reg.index()]
    }

    /// Marks `reg` ready (producer completed).
    pub fn set_ready(&mut self, reg: PhysReg, ready: bool) {
        self.ready[reg.index()] = ready;
    }

    /// `true` when the value in `reg` is invalid (runahead INV propagation).
    pub(crate) fn is_inv(&self, reg: PhysReg) -> bool {
        self.inv[reg.index()]
    }

    /// Marks `reg` invalid or valid.
    pub(crate) fn set_inv(&mut self, reg: PhysReg, inv: bool) {
        self.inv[reg.index()] = inv;
    }

    /// Resets the INV bit of every register (runahead exit).
    pub(crate) fn clear_all_inv(&mut self) {
        for b in &mut self.inv {
            *b = false;
        }
    }

    /// Prepares a newly allocated destination register: not ready, not
    /// invalid.
    pub(crate) fn reset_for_allocation(&mut self, reg: PhysReg) {
        self.ready[reg.index()] = false;
        self.inv[reg.index()] = false;
    }

    /// Directly initializes a register as holding an architectural value:
    /// value set, ready, not invalid. Used when (re)building the rename state
    /// from an architectural checkpoint.
    pub(crate) fn init_arch_value(&mut self, reg: PhysReg, value: u64) {
        self.values[reg.index()] = value;
        self.ready[reg.index()] = true;
        self.inv[reg.index()] = false;
    }

    /// Number of read-port accesses.
    pub(crate) fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write-port accesses.
    pub(crate) fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_registers_start_ready() {
        let rf = PhysRegFile::new(8, 4);
        assert!(rf.is_ready(PhysReg(0)));
        assert!(rf.is_ready(PhysReg(3)));
        assert!(!rf.is_ready(PhysReg(4)));
    }

    #[test]
    fn write_then_ready_then_read() {
        let mut rf = PhysRegFile::new(8, 0);
        rf.write(PhysReg(5), 99);
        assert!(!rf.is_ready(PhysReg(5)));
        rf.set_ready(PhysReg(5), true);
        assert_eq!(rf.read(PhysReg(5)), 99);
        assert_eq!(rf.reads(), 1);
        assert_eq!(rf.writes(), 1);
    }

    #[test]
    fn inv_bits_set_and_cleared() {
        let mut rf = PhysRegFile::new(4, 0);
        rf.set_inv(PhysReg(1), true);
        assert!(rf.is_inv(PhysReg(1)));
        rf.clear_all_inv();
        assert!(!rf.is_inv(PhysReg(1)));
    }

    #[test]
    fn allocation_reset_clears_state() {
        let mut rf = PhysRegFile::new(4, 4);
        rf.set_inv(PhysReg(2), true);
        rf.reset_for_allocation(PhysReg(2));
        assert!(!rf.is_ready(PhysReg(2)));
        assert!(!rf.is_inv(PhysReg(2)));
    }

    #[test]
    fn init_arch_value_makes_register_architectural() {
        let mut rf = PhysRegFile::new(4, 0);
        rf.init_arch_value(PhysReg(1), 42);
        assert!(rf.is_ready(PhysReg(1)));
        assert_eq!(rf.peek(PhysReg(1)), 42);
    }

    #[test]
    fn peek_does_not_count_reads() {
        let mut rf = PhysRegFile::new(4, 4);
        rf.write(PhysReg(0), 5);
        let before = rf.reads();
        assert_eq!(rf.peek(PhysReg(0)), 5);
        assert_eq!(rf.reads(), before);
    }
}
