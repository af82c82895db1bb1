//! The unified issue queue: a slab-backed store with an event-driven
//! wakeup/select scheduler.
//!
//! Entries live in fixed slots (stable indices, O(1) insert/remove); age
//! order is recovered from the monotonically increasing micro-op id. Instead
//! of rescanning the whole queue every cycle, the queue keeps:
//!
//! * a **producer-indexed wakeup table** (`PhysReg` → waiting consumer
//!   slots), mirroring a hardware scheduler's CAM/dependency lists: when a
//!   completion sets a register's ready bit, only that register's waiters
//!   are touched, each decrementing an unready-source counter;
//! * per-[`OpClass`], age-ordered **ready queues** fed by those counter
//!   decrements, from which select pops up to `issue_width` candidates in
//!   global age order against a fixed per-class port array; and
//! * a **store address-generation queue**: stores enqueue exactly when
//!   their base operand becomes ready, replacing the per-cycle full-queue
//!   scan.
//!
//! Slots carry a generation counter so wakeup tokens and ready-queue keys
//! that outlive their entry (squash, runahead exit) are dropped lazily
//! without walking any list eagerly.

use pre_model::isa::{OpClass, StaticInst};
use pre_model::reg::{PhysReg, RegClass};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A fixed-capacity inline list of physical source operands (at most two:
/// `src1`, `src2`). Keeps [`IqEntry`] `Copy` and dispatch allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcList {
    regs: [(RegClass, PhysReg); 2],
    len: u8,
}

impl Default for SrcList {
    fn default() -> Self {
        SrcList {
            regs: [(RegClass::Int, PhysReg(0)); 2],
            len: 0,
        }
    }
}

impl SrcList {
    /// An empty source list.
    pub(crate) fn new() -> Self {
        SrcList::default()
    }

    /// Builds a list from up to two operands.
    ///
    /// # Panics
    ///
    /// Panics if `srcs` has more than two elements.
    pub fn from_slice(srcs: &[(RegClass, PhysReg)]) -> Self {
        let mut list = SrcList::new();
        for &(class, reg) in srcs {
            list.push(class, reg);
        }
        list
    }

    /// Appends an operand.
    ///
    /// # Panics
    ///
    /// Panics when both operand slots are already used.
    pub(crate) fn push(&mut self, class: RegClass, reg: PhysReg) {
        assert!(
            (self.len as usize) < self.regs.len(),
            "micro-ops have at most two sources"
        );
        self.regs[self.len as usize] = (class, reg);
        self.len += 1;
    }

    /// The operands as a slice, in operand order.
    pub(crate) fn as_slice(&self) -> &[(RegClass, PhysReg)] {
        &self.regs[..self.len as usize]
    }

    /// Iterates over the operands in operand order.
    pub fn iter(&self) -> impl Iterator<Item = &(RegClass, PhysReg)> {
        self.as_slice().iter()
    }

    /// The first operand (the base address for memory operations), if any.
    pub(crate) fn first(&self) -> Option<(RegClass, PhysReg)> {
        self.as_slice().first().copied()
    }

    /// The operand at `idx`, if present.
    pub(crate) fn get(&self, idx: usize) -> Option<(RegClass, PhysReg)> {
        self.as_slice().get(idx).copied()
    }
}

/// One issue-queue entry: a micro-op waiting for its source operands.
#[derive(Debug, Clone, Copy)]
pub struct IqEntry {
    /// Micro-op identifier (shared with the ROB for normal micro-ops).
    /// Monotonically increasing, so it doubles as the age for select.
    pub id: u64,
    /// ROB slot handle for normal micro-ops ([`crate::rob::INVALID_SLOT`]
    /// for runahead micro-ops, which have no ROB entry); lets writeback
    /// address the ROB without a search, validated against `id`.
    pub rob_slot: u32,
    /// Program counter (needed for SST learning of runahead micro-ops).
    pub pc: u32,
    /// The static instruction.
    pub inst: StaticInst,
    /// Physical source registers, in operand order.
    pub srcs: SrcList,
    /// Physical destination register, if any.
    pub dest: Option<(RegClass, PhysReg)>,
    /// Functional-unit class.
    pub class: OpClass,
    /// `true` for micro-ops injected by runahead execution (they have no ROB
    /// entry and are discarded at runahead exit).
    pub is_runahead: bool,
    /// For stores: the address has been computed eagerly (address generation
    /// does not wait for the store data).
    pub store_addr_ready: bool,
}

/// A validated handle to a ready entry popped from the select queues; pass
/// it back to `IssueQueue::requeue_ready` when the entry could not issue
/// this cycle (memory-ordering or MSHR stall).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReadyKey {
    id: u64,
    slot: u32,
    gen: u32,
}

impl ReadyKey {
    /// The slot the ready entry occupies.
    pub(crate) fn slot(&self) -> u32 {
        self.slot
    }
}

/// One wakeup-table token: consumer slot, slot generation and which operand
/// of the consumer the watched register feeds (operand 0 is the store base,
/// which additionally triggers address generation). `counts` tokens
/// decrement the consumer's unready counter when they fire; non-counting
/// tokens only re-arm store address generation.
#[derive(Debug, Clone, Copy)]
struct WaitToken {
    slot: u32,
    gen: u32,
    src_idx: u8,
    counts: bool,
}

/// One slab slot.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Bumped every time the slot is freed; stale tokens/keys carry an older
    /// generation and are dropped on sight.
    gen: u32,
    /// Unready source-operand occurrences remaining.
    unready: u8,
    /// A live [`ReadyKey`] for this slot sits in a ready queue. Freeing the
    /// slot while set leaves a stale key behind (see `stale_ready_keys`).
    ready_queued: bool,
    entry: Option<IqEntry>,
}

fn class_idx(class: RegClass) -> usize {
    match class {
        RegClass::Int => 0,
        RegClass::Fp => 1,
    }
}

/// The unified issue queue (see the module documentation).
#[derive(Debug, Clone)]
pub struct IssueQueue {
    slots: Vec<Slot>,
    /// Free slot indices (stack).
    free: Vec<u32>,
    len: usize,
    capacity: usize,
    writes: u64,
    /// Producer-indexed wakeup lists: `wakeup[class][phys reg] -> tokens`.
    /// Grown on demand to the physical register file size.
    wakeup: [Vec<Vec<WaitToken>>; 2],
    /// Per-class ready queues, age-ordered (min-heap on the micro-op id).
    ready: [BinaryHeap<Reverse<ReadyKey>>; OpClass::COUNT],
    /// Stores whose base operand became ready and whose address generation
    /// has not run yet.
    agen: VecDeque<(u32, u32)>,
    /// Number of stale keys left in the ready queues by squashed entries.
    /// While zero — the common case — select can trust every queue head
    /// without validating it against its slot, which removes a random
    /// memory access per class from the per-issue-slot select loop.
    stale_ready_keys: usize,
    /// Bit `c` set ⇔ `ready[c]` is non-empty. Select iterates set bits
    /// instead of probing all `OpClass::COUNT` queues per issue slot.
    ready_mask: u16,
    /// `readers[class][phys reg]`: source-operand occurrences of the
    /// register among the waiting entries. Lets the eager drain ask "does a
    /// waiting micro-op still read this register?" without walking the
    /// queue. Grown on demand like `wakeup`.
    readers: [Vec<u16>; 2],
    /// Bit `i` set ⇔ slot `i` holds a runahead micro-op, so a runahead exit
    /// removes them without visiting the other slots.
    runahead_slots: Vec<u64>,
}

impl IssueQueue {
    /// Creates an issue queue with `capacity` entries (92 in Table 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "issue queue capacity must be non-zero");
        IssueQueue {
            slots: vec![Slot::default(); capacity],
            free: (0..capacity as u32).rev().collect(),
            len: 0,
            capacity,
            writes: 0,
            wakeup: [Vec::new(), Vec::new()],
            ready: std::array::from_fn(|_| BinaryHeap::new()),
            agen: VecDeque::new(),
            stale_ready_keys: 0,
            ready_mask: 0,
            readers: [Vec::new(), Vec::new()],
            runahead_slots: vec![0; capacity.div_ceil(64)],
        }
    }

    /// `true` when no further micro-op can be dispatched.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Current occupancy.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free entries.
    pub(crate) fn free_slots(&self) -> usize {
        self.capacity - self.len
    }

    /// Fraction of entries currently free (sampled by Stat C at runahead
    /// entry).
    pub(crate) fn free_fraction(&self) -> f64 {
        self.free_slots() as f64 / self.capacity as f64
    }

    /// Inserts a micro-op. `ready` reports whether a physical register's
    /// value is available (the PRF ready bit); unready operands register
    /// wakeup tokens, fully ready entries go straight to the ready queues,
    /// and stores with a ready base operand enqueue for address generation.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full; dispatch must check
    /// [`IssueQueue::is_full`] first.
    pub fn insert(&mut self, entry: IqEntry, ready: impl Fn(RegClass, PhysReg) -> bool) {
        assert!(!self.is_full(), "dispatch into a full issue queue");
        self.writes += 1;
        let slot_idx = self.free.pop().expect("fullness checked above") as usize;
        let gen = self.slots[slot_idx].gen;
        for &(class, reg) in entry.srcs.iter() {
            let counts = &mut self.readers[class_idx(class)];
            if reg.index() >= counts.len() {
                counts.resize(reg.index() + 1, 0);
            }
            counts[reg.index()] += 1;
        }
        let mut unready = 0u8;
        for (i, &(class, reg)) in entry.srcs.as_slice().iter().enumerate() {
            if !ready(class, reg) {
                unready += 1;
                self.register_token(class, reg, slot_idx as u32, gen, i as u8, true);
            }
        }
        if entry.class == OpClass::Store && !entry.store_addr_ready {
            if let Some((class, reg)) = entry.srcs.first() {
                if ready(class, reg) {
                    self.agen.push_back((slot_idx as u32, gen));
                }
            }
        }
        if unready == 0 {
            self.ready_mask |= 1 << entry.class.index();
            self.ready[entry.class.index()].push(Reverse(ReadyKey {
                id: entry.id,
                slot: slot_idx as u32,
                gen,
            }));
        }
        if entry.is_runahead {
            self.runahead_slots[slot_idx / 64] |= 1 << (slot_idx % 64);
        }
        let slot = &mut self.slots[slot_idx];
        slot.unready = unready;
        slot.ready_queued = unready == 0;
        slot.entry = Some(entry);
        self.len += 1;
    }

    fn register_token(
        &mut self,
        class: RegClass,
        reg: PhysReg,
        slot: u32,
        gen: u32,
        src_idx: u8,
        counts: bool,
    ) {
        let table = &mut self.wakeup[class_idx(class)];
        if reg.index() >= table.len() {
            table.resize_with(reg.index() + 1, Vec::new);
        }
        table[reg.index()].push(WaitToken {
            slot,
            gen,
            src_idx,
            counts,
        });
    }

    /// Wakes the consumers of `reg`: called exactly when the register's
    /// ready bit transitions to set. Each waiting occurrence decrements its
    /// entry's unready counter; entries reaching zero enter the ready
    /// queues, and stores whose base operand woke enqueue for address
    /// generation.
    pub(crate) fn wake(&mut self, class: RegClass, reg: PhysReg) {
        let ci = class_idx(class);
        if reg.index() >= self.wakeup[ci].len() {
            return;
        }
        // Take the token list out so its iteration does not alias the slot
        // and queue mutations below; nothing in the loop registers new
        // tokens, and the list (with its capacity) is handed back cleared.
        let mut tokens = std::mem::take(&mut self.wakeup[ci][reg.index()]);
        for &tok in &tokens {
            let slot = &mut self.slots[tok.slot as usize];
            if slot.gen != tok.gen {
                continue;
            }
            let Some(entry) = slot.entry.as_ref() else {
                continue;
            };
            if tok.counts {
                debug_assert!(slot.unready > 0, "woke an entry with no unready sources");
                slot.unready -= 1;
            }
            if entry.class == OpClass::Store && tok.src_idx == 0 && !entry.store_addr_ready {
                self.agen.push_back((tok.slot, tok.gen));
            }
            if tok.counts && slot.unready == 0 {
                let class = entry.class;
                let id = entry.id;
                slot.ready_queued = true;
                self.ready_mask |= 1 << class.index();
                self.ready[class.index()].push(Reverse(ReadyKey {
                    id,
                    slot: tok.slot,
                    gen: tok.gen,
                }));
            }
        }
        tokens.clear();
        self.wakeup[ci][reg.index()] = tokens;
    }

    /// Re-registers a popped-but-no-longer-ready entry. This covers a rare
    /// PRE-mode hazard: a source register can be reclaimed through the PRDQ
    /// and re-allocated to a younger runahead micro-op *after* this entry
    /// consumed its wakeup, clearing the ready bit again. Re-planting its
    /// wakeup tokens here makes the entry wait for the new producer instead
    /// of issuing with a stale operand.
    pub(crate) fn reregister(&mut self, key: ReadyKey, ready: impl Fn(RegClass, PhysReg) -> bool) {
        let slot_idx = key.slot as usize;
        debug_assert_eq!(
            self.slots[slot_idx].gen, key.gen,
            "reregister of a stale key"
        );
        let entry = self.slots[slot_idx]
            .entry
            .expect("reregister of a freed slot");
        let mut unready = 0u8;
        for (i, &(class, reg)) in entry.srcs.as_slice().iter().enumerate() {
            if !ready(class, reg) {
                unready += 1;
                self.register_token(class, reg, key.slot, key.gen, i as u8, true);
            }
        }
        debug_assert!(unready > 0, "reregister of a genuinely ready entry");
        self.slots[slot_idx].unready = unready;
    }

    /// Re-arms store address generation for the store in `slot` (its base
    /// register was reclaimed and re-allocated before the agen pass ran):
    /// the next wake of the base enqueues it again without touching the
    /// unready counter.
    pub(crate) fn watch_store_base(&mut self, slot: u32) {
        let gen = self.slots[slot as usize].gen;
        let Some(entry) = self.slots[slot as usize].entry else {
            return;
        };
        let Some((class, reg)) = entry.srcs.first() else {
            return;
        };
        self.register_token(class, reg, slot, gen, 0, false);
    }

    /// Pops the oldest ready entry whose class still has an issue port
    /// (`ports[class.index()] > 0`), returning its key and a copy of the
    /// entry. Stale keys (the entry issued or was squashed since it became
    /// ready) are discarded on the way.
    pub fn pop_ready(&mut self, ports: &[usize; OpClass::COUNT]) -> Option<(ReadyKey, IqEntry)> {
        let mut best: Option<(u64, usize)> = None;
        let mut mask = self.ready_mask;
        if self.stale_ready_keys == 0 {
            // Every queued key is live: compare queue heads by id alone,
            // without validating each against its slot.
            while mask != 0 {
                let ci = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if ports[ci] == 0 {
                    continue;
                }
                let Some(&Reverse(key)) = self.ready[ci].peek() else {
                    unreachable!("ready_mask bit set for an empty queue")
                };
                if best.map_or(true, |(best_id, _)| key.id < best_id) {
                    best = Some((key.id, ci));
                }
            }
        } else {
            while mask != 0 {
                let ci = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if ports[ci] == 0 {
                    continue;
                }
                let heap = &mut self.ready[ci];
                while let Some(&Reverse(key)) = heap.peek() {
                    let slot = &self.slots[key.slot as usize];
                    if slot.gen == key.gen && slot.entry.is_some() {
                        let older = match best {
                            None => true,
                            Some((best_id, _)) => key.id < best_id,
                        };
                        if older {
                            best = Some((key.id, ci));
                        }
                        break;
                    }
                    heap.pop();
                    self.stale_ready_keys -= 1;
                }
                if heap.is_empty() {
                    self.ready_mask &= !(1 << ci);
                }
            }
        }
        let (_, ci) = best?;
        let Reverse(key) = self.ready[ci].pop().expect("validated head");
        if self.ready[ci].is_empty() {
            self.ready_mask &= !(1 << ci);
        }
        let slot = &mut self.slots[key.slot as usize];
        debug_assert_eq!(slot.gen, key.gen, "popped a stale ready key");
        slot.ready_queued = false;
        let entry = slot.entry.expect("validated head");
        debug_assert_eq!(slot.unready, 0);
        Some((key, entry))
    }

    /// Puts a key popped by [`IssueQueue::pop_ready`] back (the entry stays
    /// ready but could not issue this cycle).
    pub(crate) fn requeue_ready(&mut self, key: ReadyKey) {
        let slot = &mut self.slots[key.slot as usize];
        debug_assert_eq!(slot.gen, key.gen, "requeue of a stale ready key");
        let class = slot.entry.as_ref().expect("requeue of a freed slot").class;
        slot.ready_queued = true;
        self.ready_mask |= 1 << class.index();
        self.ready[class.index()].push(Reverse(key));
    }

    /// Pops the next store awaiting address generation, returning its slot
    /// and a copy of the entry. Stale events are discarded.
    pub(crate) fn pop_agen(&mut self) -> Option<(u32, IqEntry)> {
        while let Some((slot_idx, gen)) = self.agen.pop_front() {
            let slot = &self.slots[slot_idx as usize];
            if slot.gen != gen {
                continue;
            }
            let Some(entry) = slot.entry else { continue };
            if entry.store_addr_ready {
                continue;
            }
            return Some((slot_idx, entry));
        }
        None
    }

    /// Marks the store in `slot` as having generated its address.
    pub(crate) fn mark_store_addr_ready(&mut self, slot: u32) {
        if let Some(entry) = self.slots[slot as usize].entry.as_mut() {
            entry.store_addr_ready = true;
        }
    }

    /// Purges stale heads from the select structures and reports whether
    /// the next issue stage has anything at all to do. Used by the
    /// quiescent-cycle fast-forward.
    pub(crate) fn select_idle(&mut self) -> bool {
        while let Some(&(slot_idx, gen)) = self.agen.front() {
            let slot = &self.slots[slot_idx as usize];
            if slot.gen == gen && slot.entry.is_some_and(|e| !e.store_addr_ready) {
                return false;
            }
            self.agen.pop_front();
        }
        let mut mask = self.ready_mask;
        while mask != 0 {
            let ci = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let heap = &mut self.ready[ci];
            while let Some(&Reverse(key)) = heap.peek() {
                let slot = &self.slots[key.slot as usize];
                if slot.gen == key.gen && slot.entry.is_some() {
                    return false;
                }
                heap.pop();
                self.stale_ready_keys -= 1;
            }
            // Only stale keys were queued; the class is empty after all.
            self.ready_mask &= !(1 << ci);
        }
        true
    }

    /// Iterates over waiting micro-ops in **slot order** (arbitrary with
    /// respect to age). Use the micro-op id to recover age where it
    /// matters.
    pub fn iter(&self) -> impl Iterator<Item = &IqEntry> {
        self.slots.iter().filter_map(|s| s.entry.as_ref())
    }

    /// How many source operands of waiting micro-ops read `reg` (an entry
    /// naming it twice counts twice). Zero means no waiting micro-op reads
    /// it.
    pub fn readers(&self, class: RegClass, reg: PhysReg) -> usize {
        self.readers[class_idx(class)]
            .get(reg.index())
            .map_or(0, |&n| n as usize)
    }

    /// Frees one slot (the entry issued or was squashed).
    fn free_slot(&mut self, slot_idx: usize) -> IqEntry {
        let slot = &mut self.slots[slot_idx];
        let entry = slot.entry.take().expect("freeing an empty slot");
        for &(class, reg) in entry.srcs.iter() {
            self.readers[class_idx(class)][reg.index()] -= 1;
        }
        slot.gen = slot.gen.wrapping_add(1);
        slot.unready = 0;
        self.runahead_slots[slot_idx / 64] &= !(1 << (slot_idx % 64));
        if slot.ready_queued {
            // Its key stays behind in a ready queue; select must validate
            // heads until the stragglers are popped and discarded.
            slot.ready_queued = false;
            self.stale_ready_keys += 1;
        }
        self.free.push(slot_idx as u32);
        self.len -= 1;
        entry
    }

    /// Removes the entry in `slot` (it issued). Outstanding wakeup tokens
    /// and ready keys die against the bumped generation.
    pub(crate) fn remove_slot(&mut self, slot: u32) -> IqEntry {
        self.free_slot(slot as usize)
    }

    /// Removes every entry matching the predicate and returns how many were
    /// removed (used for squashes and runahead exit).
    pub fn remove_where(&mut self, mut pred: impl FnMut(&IqEntry) -> bool) -> usize {
        let mut removed = 0;
        for idx in 0..self.slots.len() {
            if self.slots[idx].entry.as_ref().is_some_and(&mut pred) {
                self.free_slot(idx);
                removed += 1;
            }
        }
        removed
    }

    /// Removes every runahead micro-op (precise-runahead exit) and returns
    /// how many there were. Slots are freed in ascending order, as
    /// [`IssueQueue::remove_where`] frees them, but only runahead slots are
    /// visited.
    pub fn remove_runahead(&mut self) -> usize {
        let mut removed = 0;
        for w in 0..self.runahead_slots.len() {
            while self.runahead_slots[w] != 0 {
                let slot_idx = w * 64 + self.runahead_slots[w].trailing_zeros() as usize;
                self.free_slot(slot_idx);
                removed += 1;
            }
        }
        removed
    }

    /// Discards all entries and event state, and returns how many entries
    /// there were.
    pub(crate) fn clear(&mut self) -> usize {
        let n = self.len;
        for idx in 0..self.slots.len() {
            if self.slots[idx].entry.is_some() {
                self.free_slot(idx);
            }
        }
        for table in &mut self.wakeup {
            for list in table.iter_mut() {
                list.clear();
            }
        }
        for heap in &mut self.ready {
            heap.clear();
        }
        self.agen.clear();
        self.stale_ready_keys = 0;
        self.ready_mask = 0;
        n
    }

    /// Number of insertions (issue-queue write-port accesses).
    pub(crate) fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::isa::StaticInst;

    fn entry(id: u64, runahead: bool) -> IqEntry {
        IqEntry {
            id,
            rob_slot: crate::rob::INVALID_SLOT,
            pc: id as u32,
            inst: StaticInst::nop(),
            srcs: SrcList::new(),
            dest: None,
            class: OpClass::Nop,
            is_runahead: runahead,
            store_addr_ready: false,
        }
    }

    fn all_ready(_: RegClass, _: PhysReg) -> bool {
        true
    }

    const NOP_PORTS: [usize; OpClass::COUNT] = [4; OpClass::COUNT];

    #[test]
    fn insert_and_remove_by_id() {
        let mut iq = IssueQueue::new(4);
        iq.insert(entry(1, false), all_ready);
        iq.insert(entry(2, false), all_ready);
        assert_eq!(iq.len(), 2);
        assert_eq!(iq.remove_where(|e| e.id == 1), 1);
        assert_eq!(iq.remove_where(|e| e.id == 1), 0);
        assert_eq!(iq.len(), 1);
    }

    #[test]
    fn slot_reuse_preserves_membership() {
        let mut iq = IssueQueue::new(8);
        for id in 1..=5 {
            iq.insert(entry(id, false), all_ready);
        }
        iq.remove_where(|e| e.id == 3);
        let mut ids: Vec<_> = iq.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 4, 5]);
    }

    #[test]
    fn remove_where_filters_runahead_entries() {
        let mut iq = IssueQueue::new(8);
        iq.insert(entry(1, false), all_ready);
        iq.insert(entry(2, true), all_ready);
        iq.insert(entry(3, true), all_ready);
        let removed = iq.remove_where(|e| e.is_runahead);
        assert_eq!(removed, 2);
        assert_eq!(iq.len(), 1);
        assert_eq!(iq.iter().next().unwrap().id, 1);
    }

    #[test]
    fn remove_runahead_frees_the_slots_remove_where_frees_in_its_order() {
        let fill = |iq: &mut IssueQueue| {
            for id in 1..=70 {
                iq.insert(entry(id, id % 3 == 0), all_ready);
            }
            for id in [4, 9, 30, 31, 66] {
                iq.remove_where(|e| e.id == id);
            }
        };
        let (mut a, mut b) = (IssueQueue::new(96), IssueQueue::new(96));
        fill(&mut a);
        fill(&mut b);
        assert_eq!(a.remove_runahead(), b.remove_where(|e| e.is_runahead));
        assert_eq!(a.remove_runahead(), 0);
        assert_eq!(a.free, b.free, "later inserts land in the same slots");
        assert!(a.iter().all(|e| !e.is_runahead));
    }

    #[test]
    fn occupancy_accounting() {
        let mut iq = IssueQueue::new(4);
        assert_eq!(iq.free_slots(), 4);
        iq.insert(entry(1, false), all_ready);
        iq.insert(entry(2, false), all_ready);
        assert_eq!(iq.free_slots(), 2);
        assert!((iq.free_fraction() - 0.5).abs() < 1e-12);
        iq.clear();
        assert_eq!(iq.len(), 0);
    }

    #[test]
    #[should_panic(expected = "full issue queue")]
    fn insert_into_full_queue_panics() {
        let mut iq = IssueQueue::new(1);
        iq.insert(entry(1, false), all_ready);
        iq.insert(entry(2, false), all_ready);
    }

    #[test]
    fn ready_at_insert_pops_in_age_order() {
        let mut iq = IssueQueue::new(8);
        for id in [5, 2, 9, 1] {
            iq.insert(entry(id, false), all_ready);
        }
        let mut popped = Vec::new();
        while let Some((key, e)) = iq.pop_ready(&NOP_PORTS) {
            popped.push(e.id);
            iq.remove_slot(key.slot());
        }
        assert_eq!(popped, vec![1, 2, 5, 9]);
        assert!(iq.select_idle());
    }

    #[test]
    fn wakeup_counts_source_occurrences() {
        let mut iq = IssueQueue::new(8);
        let r1 = (RegClass::Int, PhysReg(7));
        let r2 = (RegClass::Int, PhysReg(9));
        let mut e = entry(1, false);
        e.class = OpClass::IntAlu;
        e.srcs = SrcList::from_slice(&[r1, r2]);
        iq.insert(e, |_, _| false);
        assert!(iq.pop_ready(&NOP_PORTS).is_none());
        iq.wake(RegClass::Int, PhysReg(7));
        assert!(iq.pop_ready(&NOP_PORTS).is_none());
        iq.wake(RegClass::Int, PhysReg(9));
        let (key, woken) = iq.pop_ready(&NOP_PORTS).expect("both sources woke");
        assert_eq!(woken.id, 1);
        iq.remove_slot(key.slot());
    }

    #[test]
    fn duplicate_source_needs_one_wake() {
        let mut iq = IssueQueue::new(8);
        let r = (RegClass::Int, PhysReg(3));
        let mut e = entry(4, false);
        e.class = OpClass::IntAlu;
        e.srcs = SrcList::from_slice(&[r, r]);
        iq.insert(e, |_, _| false);
        iq.wake(RegClass::Int, PhysReg(3));
        assert!(iq.pop_ready(&NOP_PORTS).is_some());
    }

    #[test]
    fn port_exhaustion_skips_class_but_not_others() {
        let mut iq = IssueQueue::new(8);
        let mut load = entry(1, false);
        load.class = OpClass::Load;
        let mut alu = entry(2, false);
        alu.class = OpClass::IntAlu;
        iq.insert(load, all_ready);
        iq.insert(alu, all_ready);
        let mut ports = [4usize; OpClass::COUNT];
        ports[OpClass::Load.index()] = 0;
        let (key, e) = iq.pop_ready(&ports).expect("ALU port available");
        assert_eq!(e.id, 2);
        // The load stays queued for a later cycle.
        iq.remove_slot(key.slot());
        ports[OpClass::Load.index()] = 1;
        let (_, e) = iq.pop_ready(&ports).expect("load pops once ported");
        assert_eq!(e.id, 1);
    }

    #[test]
    fn requeue_keeps_entry_ready_and_aged() {
        let mut iq = IssueQueue::new(8);
        iq.insert(entry(3, false), all_ready);
        iq.insert(entry(8, false), all_ready);
        let (key, e) = iq.pop_ready(&NOP_PORTS).unwrap();
        assert_eq!(e.id, 3);
        iq.requeue_ready(key);
        let (_, e) = iq.pop_ready(&NOP_PORTS).unwrap();
        assert_eq!(e.id, 3, "requeued entry keeps its age priority");
    }

    #[test]
    fn squashed_entries_leave_stale_keys_that_are_skipped() {
        let mut iq = IssueQueue::new(8);
        iq.insert(entry(1, false), all_ready);
        iq.insert(entry(2, false), all_ready);
        iq.remove_where(|e| e.id == 1);
        // Slot of id 1 is reused by id 5; the stale ready key for id 1 must
        // not resurface as id 5's.
        iq.insert(entry(5, false), all_ready);
        let mut popped = Vec::new();
        while let Some((key, e)) = iq.pop_ready(&NOP_PORTS) {
            popped.push(e.id);
            iq.remove_slot(key.slot());
        }
        assert_eq!(popped, vec![2, 5]);
    }

    #[test]
    fn store_base_wake_triggers_address_generation() {
        let mut iq = IssueQueue::new(8);
        let base = (RegClass::Int, PhysReg(11));
        let data = (RegClass::Int, PhysReg(12));
        let mut st = entry(6, false);
        st.class = OpClass::Store;
        st.srcs = SrcList::from_slice(&[base, data]);
        iq.insert(st, |_, _| false);
        assert!(iq.pop_agen().is_none(), "base not ready yet");
        iq.wake(RegClass::Int, PhysReg(12));
        assert!(iq.pop_agen().is_none(), "data wake must not trigger agen");
        iq.wake(RegClass::Int, PhysReg(11));
        let (slot, e) = iq.pop_agen().expect("base woke");
        assert_eq!(e.id, 6);
        iq.mark_store_addr_ready(slot);
        assert!(iq.pop_agen().is_none(), "agen runs once per store");
    }

    #[test]
    fn store_with_ready_base_enqueues_agen_at_insert() {
        let mut iq = IssueQueue::new(8);
        let base = (RegClass::Int, PhysReg(1));
        let data = (RegClass::Int, PhysReg(2));
        let mut st = entry(7, false);
        st.class = OpClass::Store;
        st.srcs = SrcList::from_slice(&[base, data]);
        iq.insert(st, |_, reg| reg == PhysReg(1));
        let (slot, e) = iq.pop_agen().expect("ready base enqueues at insert");
        assert_eq!(e.id, 7);
        iq.mark_store_addr_ready(slot);
        assert!(!iq.select_idle() || iq.pop_ready(&NOP_PORTS).is_none());
    }

    #[test]
    fn reader_counts_follow_insert_and_every_removal_path() {
        let r = PhysReg(4);
        let other = PhysReg(5);
        let mut iq = IssueQueue::new(8);
        assert_eq!(iq.readers(RegClass::Int, r), 0, "never-seen register");
        let mut twice = entry(1, false);
        twice.srcs = SrcList::from_slice(&[(RegClass::Int, r), (RegClass::Int, r)]);
        let mut once = entry(2, true);
        once.srcs = SrcList::from_slice(&[(RegClass::Int, r), (RegClass::Fp, other)]);
        iq.insert(twice, all_ready);
        iq.insert(once, all_ready);
        assert_eq!(iq.readers(RegClass::Int, r), 3);
        assert_eq!(iq.readers(RegClass::Fp, other), 1);
        assert_eq!(iq.readers(RegClass::Int, other), 0, "classes are separate");
        let (key, e) = iq.pop_ready(&NOP_PORTS).unwrap();
        assert_eq!(e.id, 1);
        iq.remove_slot(key.slot());
        assert_eq!(iq.readers(RegClass::Int, r), 1);
        iq.remove_where(|e| e.is_runahead);
        assert_eq!(iq.readers(RegClass::Int, r), 0);
        assert_eq!(iq.readers(RegClass::Fp, other), 0);
        iq.insert(twice, all_ready);
        iq.clear();
        assert_eq!(iq.readers(RegClass::Int, r), 0);
    }
}
