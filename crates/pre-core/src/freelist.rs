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
///
/// `FreeList::mark` and `FreeList::rollback` checkpoint the list
/// without copying it: between the two, allocations record only the
/// registers they pop from below the marked depth, so the rollback costs
/// what changed since the mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeList {
    capacity: usize,
    free: Vec<PhysReg>,
    is_free: Vec<bool>,
    /// The lowest stack depth since the mark (0 when no mark is set, so
    /// allocations record nothing).
    low: usize,
    /// Stack depth at the mark, while one is set.
    mark: Option<usize>,
    /// Registers popped from below the marked depth since the mark, in pop
    /// order.
    popped: Vec<PhysReg>,
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
            low: 0,
            mark: None,
            popped: Vec::new(),
        }
    }

    /// Allocates a free physical register, if any remain.
    pub fn allocate(&mut self) -> Option<PhysReg> {
        let reg = self.free.pop()?;
        self.is_free[reg.index()] = false;
        if self.free.len() < self.low {
            self.low = self.free.len();
            self.popped.push(reg);
        }
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

    /// Fraction of the register file that is free.
    pub(crate) fn free_fraction(&self) -> f64 {
        self.free.len() as f64 / self.capacity as f64
    }

    /// `true` when `reg` is currently on the free list.
    pub fn is_free(&self, reg: PhysReg) -> bool {
        self.is_free[reg.index()]
    }

    /// A copy of the free list, in allocation order (the next register
    /// allocated is the last one).
    pub fn snapshot(&self) -> Vec<PhysReg> {
        self.free.clone()
    }

    /// Marks the current state for [`FreeList::rollback`] (PRE's runahead
    /// entry). Replaces any earlier mark.
    pub(crate) fn mark(&mut self) {
        self.low = self.free.len();
        self.mark = Some(self.free.len());
        self.popped.clear();
    }

    /// Puts the list back exactly — same registers, same allocation order —
    /// as it was at the last [`FreeList::mark`], and clears the mark. Costs
    /// the allocations and frees since the mark, not the list's length.
    ///
    /// The stack below the lowest depth reached since the mark was never
    /// touched; above it sit registers freed since, and the rest of the
    /// marked stack is in `popped`.
    ///
    /// # Panics
    ///
    /// Panics if no mark is set.
    pub(crate) fn rollback(&mut self) {
        let marked = self.mark.take().expect("rollback without a mark");
        for reg in &self.free[self.low..] {
            self.is_free[reg.index()] = false;
        }
        self.free.truncate(self.low);
        for &reg in self.popped.iter().rev() {
            self.is_free[reg.index()] = true;
            self.free.push(reg);
        }
        debug_assert_eq!(self.free.len(), marked, "rollback lost registers");
        self.low = 0;
        self.popped.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_free_count_excludes_reserved() {
        let fl = FreeList::new(168, 32);
        assert_eq!(fl.num_free(), 136);
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
        fl.mark();
        let a = fl.allocate().unwrap();
        let b = fl.allocate().unwrap();
        assert_eq!(fl.num_free(), 6);
        assert!(!fl.is_free(a));
        fl.rollback();
        assert_eq!(fl.snapshot(), snap);
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
        fl.mark();
        let all: Vec<_> = std::iter::from_fn(|| fl.allocate()).collect();
        assert!(all.iter().all(|&r| !fl.is_free(r)));
        fl.rollback();
        assert!(all.iter().all(|&r| fl.is_free(r)));
    }

    #[test]
    fn rollback_restores_the_marked_stack_exactly() {
        let mut rng = pre_model::rng::SmallRng::seed_from_u64(0x5EED_00F1);
        for _case in 0..64 {
            let mut fl = FreeList::new(48, 32);
            let mut held = Vec::new();
            // Random history before the mark, so the stack is not sorted.
            for _ in 0..rng.gen_range_usize(0..40) {
                if rng.gen_below(2) == 0 {
                    held.extend(fl.allocate());
                } else if !held.is_empty() {
                    fl.free(held.swap_remove(rng.gen_range_usize(0..held.len())));
                }
            }
            let before = fl.clone();
            fl.mark();
            for _ in 0..rng.gen_range_usize(0..60) {
                if rng.gen_below(2) == 0 {
                    held.extend(fl.allocate());
                } else if !held.is_empty() {
                    fl.free(held.swap_remove(rng.gen_range_usize(0..held.len())));
                }
            }
            fl.rollback();
            assert_eq!(fl.snapshot(), before.snapshot(), "allocation order");
            for i in 0..48 {
                assert_eq!(fl.is_free(PhysReg(i)), before.is_free(PhysReg(i)));
            }
        }
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
