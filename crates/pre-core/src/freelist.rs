//! Physical-register free lists (one per register class).

use pre_model::reg::PhysReg;

/// A free list over a physical register file of fixed size.
///
/// The first `NUM_*_ARCH_REGS` physical registers are initially mapped to the
/// architectural registers; the remainder start out free.
///
/// The allocation order lives in a stack; a membership bitmap beside it,
/// kept in step by every operation, makes [`FreeList::is_free`] (and the
/// double-free check in [`FreeList::free`]) a single indexed load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeList {
    capacity: usize,
    free: Vec<PhysReg>,
    is_free: Vec<bool>,
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
        let mut is_free = vec![false; capacity];
        is_free[reserved..].fill(true);
        FreeList {
            capacity,
            free: (reserved..capacity)
                .rev()
                .map(|i| PhysReg(i as u16))
                .collect(),
            is_free,
        }
    }

    /// Allocates a free physical register, if any remain.
    pub fn allocate(&mut self) -> Option<PhysReg> {
        let reg = self.free.pop()?;
        self.is_free[reg.index()] = false;
        Some(reg)
    }

    /// Returns a register to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the register is out of range or already free — a double
    /// free indicates a renaming bug, so release builds refuse it too.
    pub fn free(&mut self, reg: PhysReg) {
        assert!(reg.index() < self.capacity, "register {reg} out of range");
        assert!(
            !self.is_free[reg.index()],
            "double free of physical register {reg}"
        );
        self.is_free[reg.index()] = true;
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
        self.is_free[reg.index()]
    }

    /// Snapshot of the free list (used by PRE to checkpoint rename state at
    /// runahead entry).
    pub fn snapshot(&self) -> Vec<PhysReg> {
        self.free.clone()
    }

    /// Restores a previously captured snapshot.
    pub fn restore(&mut self, snapshot: Vec<PhysReg>) {
        self.is_free.fill(false);
        for reg in &snapshot {
            self.is_free[reg.index()] = true;
        }
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
        assert!(!fl.is_free(a));
        fl.restore(snap);
        assert_eq!(fl.num_free(), 8);
        assert!(fl.is_free(a));
        assert!(fl.is_free(b));
    }

    #[test]
    fn membership_tracks_allocate_and_free() {
        let mut fl = FreeList::new(40, 32);
        assert!(!fl.is_free(PhysReg(3)), "reserved registers start mapped");
        let r = fl.allocate().unwrap();
        assert!(!fl.is_free(r));
        fl.free(r);
        assert!(fl.is_free(r));
        let snap = fl.snapshot();
        let all: Vec<_> = std::iter::from_fn(|| fl.allocate()).collect();
        assert!(all.iter().all(|&r| !fl.is_free(r)));
        fl.restore(snap);
        assert!(all.iter().all(|&r| fl.is_free(r)));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
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
