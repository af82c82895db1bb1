//! The Precise Register Deallocation Queue (PRDQ).
//!
//! Section 3.4 of the paper: in normal mode a physical register is freed when
//! the last consumer of the previous mapping commits; runahead instructions
//! never commit, so PRE needs another way to recycle the registers it
//! allocates. The PRDQ is a FIFO allocated in program order by runahead
//! renaming. Each entry records the *previous* physical register mapped to
//! the instruction's destination architectural register and an `executed`
//! bit. An entry is deallocated — and its old register freed — only when the
//! instruction has executed **and** the entry has reached the queue head;
//! in-order deallocation guarantees no in-flight runahead instruction can
//! still read the freed register.
//!
//! One refinement over the paper's two-page description: a physical register
//! is returned to the free list through the PRDQ only if it was itself
//! allocated during the current runahead interval (`reclaimable`). Registers
//! that belong to the pre-runahead architectural state or to instructions
//! still waiting in the ROB must survive runahead mode — they are restored by
//! the RAT checkpoint at exit — so the PRDQ marks them non-reclaimable and
//! skips the free. This keeps the mechanism precise (hence the name) while
//! preserving the normal-mode state that PRE explicitly does not discard.

use pre_model::reg::{PhysReg, RegClass};
use std::collections::VecDeque;

/// One PRDQ entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrdqEntry {
    /// Identifier of the runahead instruction that allocated this entry.
    pub uop_id: u64,
    /// The physical register previously mapped to the instruction's
    /// destination architectural register (none for the first write in the
    /// interval to a register class that had no prior mapping — never happens
    /// in practice, but kept as an `Option` for robustness).
    pub old_reg: Option<(RegClass, PhysReg)>,
    /// Whether `old_reg` was allocated during the current runahead interval
    /// and can therefore be returned to the free list when this entry
    /// deallocates.
    pub reclaimable: bool,
    /// Set when the allocating instruction finishes execution.
    pub executed: bool,
    /// `true` for entries seeded by the eager drain: dead previous mappings
    /// of the stalled window (Section 3.4's normal-mode freeing condition —
    /// the last consumer has issued — detected at runahead entry or at a
    /// later issue boundary). Seeded entries enter at the head side, since
    /// the window predates every runahead micro-op in program order.
    pub eager: bool,
}

/// The PRDQ: a bounded FIFO of [`PrdqEntry`].
///
/// The queue is a ring holding an *eager prefix* (entries seeded by
/// [`PreciseRegisterDeallocationQueue::seed_executed`]) followed by the
/// runahead-allocated tail, whose micro-op ids ascend because runahead
/// renaming allocates in program order. Seeding inserts at the prefix
/// boundary, completion marking binary-searches the tail, and draining pops
/// the head — none of them shifts or scans the whole queue.
#[derive(Debug, Clone)]
pub struct PreciseRegisterDeallocationQueue {
    entries: VecDeque<PrdqEntry>,
    /// Length of the eager prefix at the head.
    eager_len: usize,
    capacity: usize,
    allocations: u64,
    reclaims: u64,
    eager_seeds: u64,
    eager_reclaims: u64,
}

impl PreciseRegisterDeallocationQueue {
    /// Creates a PRDQ with `capacity` entries (192 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "PRDQ capacity must be non-zero");
        PreciseRegisterDeallocationQueue {
            entries: VecDeque::with_capacity(capacity),
            eager_len: 0,
            capacity,
            allocations: 0,
            reclaims: 0,
            eager_seeds: 0,
            eager_reclaims: 0,
        }
    }

    /// `true` when no further runahead instruction can allocate an entry.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total entries allocated across the run.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Total physical registers reclaimed through the queue.
    pub fn reclaims(&self) -> u64 {
        self.reclaims
    }

    /// Total dead window mappings seeded by the eager drain.
    pub fn eager_seeds(&self) -> u64 {
        self.eager_seeds
    }

    /// Registers reclaimed by draining eager-seeded entries (a subset of
    /// [`PreciseRegisterDeallocationQueue::reclaims`]).
    pub fn eager_reclaims(&self) -> u64 {
        self.eager_reclaims
    }

    /// Allocates an entry at the tail, in program order (`uop_id` must be
    /// younger than every runahead entry already queued).
    ///
    /// Returns `false` (and allocates nothing) when the queue is full; the
    /// caller should stall runahead renaming for this cycle.
    pub fn allocate(
        &mut self,
        uop_id: u64,
        old_reg: Option<(RegClass, PhysReg)>,
        reclaimable: bool,
    ) -> bool {
        if self.is_full() {
            return false;
        }
        debug_assert!(
            self.entries.len() == self.eager_len
                || self.entries.back().is_some_and(|e| e.uop_id < uop_id),
            "runahead PRDQ entries must be allocated in program order"
        );
        self.entries.push_back(PrdqEntry {
            uop_id,
            old_reg,
            reclaimable,
            executed: false,
            eager: false,
        });
        self.allocations += 1;
        true
    }

    /// Seeds an already-dead window mapping at the head side of the queue
    /// (the eager drain). The entry is marked executed — its producer is a
    /// normal-mode instruction whose last consumer has already issued — so
    /// it deallocates on the next [`PreciseRegisterDeallocationQueue::
    /// drain_completed`]. Entries seeded by one pass must be pushed in
    /// program order; relative to live runahead entries they are older, so
    /// they are inserted after any executed eager prefix but before the
    /// runahead-allocated tail.
    ///
    /// Returns `false` (and seeds nothing) when the queue is full.
    pub fn seed_executed(&mut self, uop_id: u64, old_reg: (RegClass, PhysReg)) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.insert(
            self.eager_len,
            PrdqEntry {
                uop_id,
                old_reg: Some(old_reg),
                reclaimable: true,
                executed: true,
                eager: true,
            },
        );
        self.eager_len += 1;
        self.eager_seeds += 1;
        true
    }

    /// Marks the runahead entry allocated by `uop_id` as executed
    /// (instructions may execute out of order). Returns `true` if an entry
    /// was found.
    pub fn mark_executed(&mut self, uop_id: u64) -> bool {
        // The eager prefix sorts before every runahead entry and the tail
        // ascends by id, so one binary search finds the entry.
        let at = self
            .entries
            .partition_point(|e| e.eager || e.uop_id < uop_id);
        match self.entries.get_mut(at) {
            Some(e) if e.uop_id == uop_id => {
                e.executed = true;
                true
            }
            _ => false,
        }
    }

    /// Deallocates executed entries from the head, in order, handing each
    /// physical register to free to `free` (oldest first). Stops at the
    /// first entry that has not yet executed.
    pub fn drain_completed(&mut self, mut free: impl FnMut((RegClass, PhysReg))) {
        while self.entries.front().is_some_and(|head| head.executed) {
            let head = self.entries.pop_front().expect("head checked above");
            if head.eager {
                self.eager_len -= 1;
            }
            if head.reclaimable {
                if let Some(reg) = head.old_reg {
                    free(reg);
                    self.reclaims += 1;
                    if head.eager {
                        self.eager_reclaims += 1;
                    }
                }
            }
        }
    }

    /// Discards every entry (runahead exit). The registers referenced by the
    /// remaining entries are *not* freed here: at exit the pipeline restores
    /// the checkpointed RAT and rebuilds its free lists, which subsumes any
    /// pending deallocation.
    pub fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.eager_len = 0;
        n
    }

    /// Iterates over the live entries from head (oldest) to tail.
    pub fn iter(&self) -> impl Iterator<Item = &PrdqEntry> {
        self.entries.iter()
    }

    /// Storage cost in bytes: the paper provisions 192 entries at 4 bytes
    /// (instruction id + register tag + execute bit) for 768 bytes total.
    pub fn storage_bytes(&self) -> usize {
        self.capacity * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::rng::SmallRng;

    fn reg(i: u16) -> Option<(RegClass, PhysReg)> {
        Some((RegClass::Int, PhysReg(i)))
    }

    fn drain(q: &mut PreciseRegisterDeallocationQueue) -> Vec<(RegClass, PhysReg)> {
        let mut freed = Vec::new();
        q.drain_completed(|reg| freed.push(reg));
        freed
    }

    #[test]
    fn in_order_deallocation_waits_for_head() {
        let mut q = PreciseRegisterDeallocationQueue::new(4);
        assert!(q.allocate(1, reg(10), true));
        assert!(q.allocate(2, reg(11), true));
        assert!(q.allocate(3, reg(12), true));
        // Only uop 2 executed: nothing can drain because uop 1 is the head.
        q.mark_executed(2);
        assert!(drain(&mut q).is_empty());
        // Once the head executes, both 1 and 2 drain in order.
        q.mark_executed(1);
        let freed = drain(&mut q);
        assert_eq!(
            freed,
            vec![(RegClass::Int, PhysReg(10)), (RegClass::Int, PhysReg(11))]
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.reclaims(), 2);
    }

    #[test]
    fn non_reclaimable_registers_are_never_freed() {
        let mut q = PreciseRegisterDeallocationQueue::new(4);
        q.allocate(1, reg(5), false);
        q.mark_executed(1);
        assert!(drain(&mut q).is_empty());
        assert_eq!(q.reclaims(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn allocation_fails_when_full() {
        let mut q = PreciseRegisterDeallocationQueue::new(2);
        assert!(q.allocate(1, reg(1), true));
        assert!(q.allocate(2, reg(2), true));
        assert!(!q.allocate(3, reg(3), true));
        assert_eq!(q.allocations(), 2);
        assert!(q.is_full());
    }

    #[test]
    fn clear_discards_without_reclaiming() {
        let mut q = PreciseRegisterDeallocationQueue::new(4);
        q.allocate(1, reg(1), true);
        q.allocate(2, reg(2), true);
        q.mark_executed(1);
        assert_eq!(q.clear(), 2);
        assert!(q.is_empty());
        assert_eq!(q.reclaims(), 0);
    }

    #[test]
    fn mark_executed_unknown_uop_is_false() {
        let mut q = PreciseRegisterDeallocationQueue::new(2);
        assert!(!q.mark_executed(42));
    }

    #[test]
    fn eager_seeds_drain_immediately_and_in_order() {
        let mut q = PreciseRegisterDeallocationQueue::new(8);
        // A pending runahead allocation sits in the queue.
        assert!(q.allocate(100, reg(40), true));
        // Window mappings seeded in program order drain ahead of it.
        assert!(q.seed_executed(1, (RegClass::Int, PhysReg(10))));
        assert!(q.seed_executed(2, (RegClass::Int, PhysReg(11))));
        let freed = drain(&mut q);
        assert_eq!(
            freed,
            vec![(RegClass::Int, PhysReg(10)), (RegClass::Int, PhysReg(11))]
        );
        assert_eq!(q.len(), 1, "the pending runahead entry remains");
        assert_eq!(q.eager_seeds(), 2);
        assert_eq!(q.eager_reclaims(), 2);
        assert_eq!(q.reclaims(), 2);
        // The runahead entry still reclaims normally.
        q.mark_executed(100);
        assert_eq!(drain(&mut q), vec![(RegClass::Int, PhysReg(40))]);
        assert_eq!(q.eager_reclaims(), 2, "runahead reclaims are not eager");
        assert_eq!(q.reclaims(), 3);
    }

    #[test]
    fn later_seed_passes_extend_the_eager_prefix() {
        let mut q = PreciseRegisterDeallocationQueue::new(8);
        assert!(q.allocate(100, reg(40), true));
        assert!(q.allocate(101, reg(41), true));
        assert!(q.seed_executed(7, (RegClass::Int, PhysReg(10))));
        // A later pass seeds another window mapping before the prefix
        // drained: it joins the prefix, still ahead of every runahead entry.
        assert!(q.seed_executed(3, (RegClass::Int, PhysReg(11))));
        let order: Vec<u64> = q.iter().map(|e| e.uop_id).collect();
        assert_eq!(order, vec![7, 3, 100, 101]);
        // Completion marking finds runahead entries behind the prefix.
        assert!(q.mark_executed(101));
        assert!(!q.mark_executed(102), "not queued");
        assert_eq!(
            drain(&mut q),
            vec![(RegClass::Int, PhysReg(10)), (RegClass::Int, PhysReg(11))]
        );
        assert!(q.mark_executed(100));
        assert_eq!(
            drain(&mut q),
            vec![(RegClass::Int, PhysReg(40)), (RegClass::Int, PhysReg(41))]
        );
        assert_eq!(q.eager_reclaims(), 2);
        // The prefix is gone: a new seed goes to the (empty) head.
        assert!(q.allocate(102, reg(42), true));
        assert!(q.seed_executed(9, (RegClass::Int, PhysReg(12))));
        let order: Vec<u64> = q.iter().map(|e| e.uop_id).collect();
        assert_eq!(order, vec![9, 102]);
    }

    #[test]
    fn eager_seed_fails_when_full() {
        let mut q = PreciseRegisterDeallocationQueue::new(1);
        assert!(q.allocate(1, reg(1), true));
        assert!(!q.seed_executed(2, (RegClass::Int, PhysReg(2))));
        assert_eq!(q.eager_seeds(), 0);
    }

    #[test]
    fn storage_matches_paper() {
        let q = PreciseRegisterDeallocationQueue::new(192);
        assert_eq!(q.storage_bytes(), 768);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = PreciseRegisterDeallocationQueue::new(0);
    }

    /// Randomized: regardless of the execution order, (a) occupancy never
    /// exceeds capacity, (b) every reclaimable old register is freed exactly
    /// once, and (c) registers are freed in allocation order.
    #[test]
    fn prop_exactly_once_in_order() {
        let mut rng = SmallRng::seed_from_u64(0xD0_0001);
        for _case in 0..64 {
            let mut exec_order: Vec<u64> = (0..20).collect();
            rng.shuffle(&mut exec_order);
            let mut q = PreciseRegisterDeallocationQueue::new(32);
            for id in 0..20u64 {
                assert!(q.allocate(id, Some((RegClass::Int, PhysReg(id as u16))), true));
            }
            let mut freed = Vec::new();
            for id in exec_order {
                q.mark_executed(id);
                freed.extend(drain(&mut q));
                assert!(q.len() <= q.capacity());
            }
            freed.extend(drain(&mut q));
            assert_eq!(freed.len(), 20, "every register freed exactly once");
            for (i, (_, p)) in freed.iter().enumerate() {
                assert_eq!(p.0 as usize, i, "freed in allocation order");
            }
        }
    }
}
