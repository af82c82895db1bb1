//! Physical-register free lists (one per register class).

use pre_model::reg::PhysReg;

/// A free list over a physical register file of fixed size.
///
/// The first `NUM_*_ARCH_REGS` physical registers are initially mapped to the
/// architectural registers; the remainder start out free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeList {
    capacity: usize,
    free: Vec<PhysReg>,
}

impl FreeList {
    /// Creates a free list for a register file of `capacity` physical
    /// registers, of which the first `reserved` are initially mapped (not
    /// free).
    ///
    /// # Panics
    ///
    /// Panics if `reserved > capacity`.
    pub fn new(capacity: usize, reserved: usize) -> Self {
        assert!(
            reserved <= capacity,
            "cannot reserve {reserved} registers out of {capacity}"
        );
        FreeList {
            capacity,
            free: (reserved..capacity)
                .rev()
                .map(|i| PhysReg(i as u16))
                .collect(),
        }
    }

    /// Allocates a free physical register, if any remain.
    pub fn allocate(&mut self) -> Option<PhysReg> {
        self.free.pop()
    }

    /// Returns a register to the free list.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the register is already free — a
    /// double-free indicates a renaming bug.
    pub fn free(&mut self, reg: PhysReg) {
        debug_assert!(
            !self.free.contains(&reg),
            "double free of physical register {reg}"
        );
        debug_assert!((reg.index()) < self.capacity, "register {reg} out of range");
        self.free.push(reg);
    }

    /// Number of registers currently free.
    pub fn num_free(&self) -> usize {
        self.free.len()
    }

    /// Total physical registers managed.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fraction of the register file that is free.
    pub fn free_fraction(&self) -> f64 {
        self.free.len() as f64 / self.capacity as f64
    }

    /// `true` when `reg` is currently on the free list.
    pub fn is_free(&self, reg: PhysReg) -> bool {
        self.free.contains(&reg)
    }

    /// Snapshot of the free list (used by PRE to checkpoint rename state at
    /// runahead entry).
    pub fn snapshot(&self) -> Vec<PhysReg> {
        self.free.clone()
    }

    /// Restores a previously captured snapshot.
    pub fn restore(&mut self, snapshot: Vec<PhysReg>) {
        self.free = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_free_count_excludes_reserved() {
        let fl = FreeList::new(168, 32);
        assert_eq!(fl.num_free(), 136);
        assert_eq!(fl.capacity(), 168);
        assert!((fl.free_fraction() - 136.0 / 168.0).abs() < 1e-12);
    }

    #[test]
    fn allocate_and_free_roundtrip() {
        let mut fl = FreeList::new(40, 32);
        let mut allocated = Vec::new();
        while let Some(r) = fl.allocate() {
            allocated.push(r);
        }
        assert_eq!(allocated.len(), 8);
        assert_eq!(fl.num_free(), 0);
        for r in allocated {
            fl.free(r);
        }
        assert_eq!(fl.num_free(), 8);
    }

    #[test]
    fn allocation_returns_unreserved_registers() {
        let mut fl = FreeList::new(40, 32);
        let r = fl.allocate().unwrap();
        assert!(r.index() >= 32);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut fl = FreeList::new(40, 32);
        let snap = fl.snapshot();
        let a = fl.allocate().unwrap();
        let b = fl.allocate().unwrap();
        assert_eq!(fl.num_free(), 6);
        fl.restore(snap);
        assert_eq!(fl.num_free(), 8);
        assert!(fl.is_free(a));
        assert!(fl.is_free(b));
    }

    // The check is a `debug_assert!`, so release builds do not panic.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_debug() {
        let mut fl = FreeList::new(40, 32);
        let r = fl.allocate().unwrap();
        fl.free(r);
        fl.free(r);
    }

    #[test]
    #[should_panic(expected = "cannot reserve")]
    fn reserving_more_than_capacity_panics() {
        let _ = FreeList::new(8, 16);
    }
}
