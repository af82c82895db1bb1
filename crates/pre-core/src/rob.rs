//! The reorder buffer (ROB).
//!
//! The buffer is a fixed-capacity ring with the per-entry state split
//! between a **hot** array ([`RobHotEntry`]: the status bits, age, program
//! counter and rename mappings that the per-cycle commit, full-window-stall
//! and eager-reclaim scans touch) and a **cold** array (the 8-byte micro-op
//! handle and the execution results, needed only when an entry writes back,
//! commits or is squashed). Neither array holds the static instruction: the
//! core's PC-indexed instruction table already does, so commit reads
//! `insts[pc]` and dispatch copies only the two opcode bits the hot scans
//! need (load, conditional branch) into the hot entry. Entries
//! never move: a micro-op keeps its physical slot index from dispatch to
//! removal, so the issue queue and the in-flight completion events carry a
//! slot handle and write back in O(1) — validated against the stored
//! micro-op id, which makes handles that outlive their entry (squash,
//! pseudo-retire during flush-style runahead) fail safely.

use crate::uop::DynUop;
use pre_mem::HitLevel;
use pre_model::isa::StaticInst;
use pre_model::reg::{ArchReg, PhysReg, RegClass};

/// Slot handle carried by issue-queue entries that have no ROB entry
/// (runahead micro-ops). Never validates against a live slot.
pub const INVALID_SLOT: u32 = u32::MAX;

/// One ROB entry, fully assembled. This is the dispatch-side input to
/// [`ReorderBuffer::push`] and the commit/squash-side output; while resident
/// the fields live split across the hot and cold arrays.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Unique, monotonically increasing micro-op identifier (program order).
    /// Always non-zero; zero marks a free slot internally.
    pub id: u64,
    /// The dynamic micro-op.
    pub uop: DynUop,
    /// The micro-op is a load (decoded once at dispatch).
    pub is_load: bool,
    /// The micro-op is a conditional branch (decoded once at dispatch).
    pub is_cond_branch: bool,
    /// Destination mapping allocated at rename, if the micro-op writes a
    /// register.
    pub dest: Option<(RegClass, PhysReg)>,
    /// Previous mapping of the destination architectural register (freed at
    /// commit, restored on a squash).
    pub old_dest: Option<(ArchReg, PhysReg, Option<u32>)>,
    /// The micro-op has been issued to a functional unit.
    pub issued: bool,
    /// The micro-op has finished execution.
    pub executed: bool,
    /// Cycle at which execution completes (valid once issued).
    pub completion_cycle: u64,
    /// For loads: the hierarchy level that supplied the data.
    pub mem_level: Option<HitLevel>,
    /// For loads/stores: the effective address.
    pub mem_addr: Option<u64>,
    /// For stores: the value to write at commit.
    pub store_value: Option<u64>,
    /// The value written to the destination register (for updating the
    /// architectural register file at commit).
    pub result: Option<u64>,
    /// For conditional branches: whether the branch was mispredicted.
    pub mispredicted: bool,
    /// For control instructions: the resolved next PC.
    pub actual_next_pc: u32,
}

impl RobEntry {
    /// Creates a freshly dispatched (not yet issued) entry for `uop`, whose
    /// static instruction is `inst`.
    pub fn new(id: u64, uop: DynUop, inst: &StaticInst) -> Self {
        RobEntry {
            id,
            uop,
            is_load: inst.opcode.is_load(),
            is_cond_branch: inst.opcode.is_cond_branch(),
            dest: None,
            old_dest: None,
            issued: false,
            executed: false,
            completion_cycle: 0,
            mem_level: None,
            mem_addr: None,
            store_value: None,
            result: None,
            mispredicted: false,
            actual_next_pc: uop.predicted_next_pc,
        }
    }
}

/// The hot per-entry state: everything the per-cycle scans (commit-head
/// probe, full-window-stall detection, fast-forward gating, the PRE eager
/// reclaim walk) read, so those scans never touch the cold payload.
#[derive(Debug, Clone, Copy)]
pub struct RobHotEntry {
    /// Micro-op identifier; `0` marks a free slot.
    pub id: u64,
    /// Program counter of the micro-op.
    pub pc: u32,
    /// The micro-op is a load.
    pub is_load: bool,
    /// The micro-op is a conditional branch.
    pub is_cond_branch: bool,
    /// The micro-op has been issued to a functional unit.
    pub issued: bool,
    /// The micro-op has finished execution.
    pub executed: bool,
    /// Cycle at which execution completes (valid once issued).
    pub completion_cycle: u64,
    /// For loads: the hierarchy level that supplied the data.
    pub mem_level: Option<HitLevel>,
    /// Destination mapping allocated at rename.
    pub dest: Option<(RegClass, PhysReg)>,
    /// Previous mapping of the destination architectural register.
    pub old_dest: Option<(ArchReg, PhysReg, Option<u32>)>,
}

impl RobHotEntry {
    /// `true` when this entry is a load still waiting on an off-chip access.
    pub(crate) fn is_blocking_long_latency_load(&self, now: u64) -> bool {
        self.is_load
            && self.issued
            && !self.executed
            && self.mem_level == Some(HitLevel::Memory)
            && self.completion_cycle > now
    }

    fn free() -> Self {
        RobHotEntry {
            id: 0,
            pc: 0,
            is_load: false,
            is_cond_branch: false,
            issued: false,
            executed: false,
            completion_cycle: 0,
            mem_level: None,
            dest: None,
            old_dest: None,
        }
    }
}

/// The cold payload: touched only at writeback, commit and squash.
#[derive(Debug, Clone, Copy)]
struct RobColdEntry {
    uop: DynUop,
    mem_addr: Option<u64>,
    store_value: Option<u64>,
    result: Option<u64>,
    mispredicted: bool,
    actual_next_pc: u32,
}

impl RobColdEntry {
    fn free() -> Self {
        RobColdEntry {
            uop: DynUop::sequential(0),
            mem_addr: None,
            store_value: None,
            result: None,
            mispredicted: false,
            actual_next_pc: 0,
        }
    }
}

fn split(entry: RobEntry) -> (RobHotEntry, RobColdEntry) {
    let RobEntry {
        id,
        uop,
        is_load,
        is_cond_branch,
        dest,
        old_dest,
        issued,
        executed,
        completion_cycle,
        mem_level,
        mem_addr,
        store_value,
        result,
        mispredicted,
        actual_next_pc,
    } = entry;
    (
        RobHotEntry {
            id,
            pc: uop.pc,
            is_load,
            is_cond_branch,
            issued,
            executed,
            completion_cycle,
            mem_level,
            dest,
            old_dest,
        },
        RobColdEntry {
            uop,
            mem_addr,
            store_value,
            result,
            mispredicted,
            actual_next_pc,
        },
    )
}

fn assemble(hot: RobHotEntry, cold: RobColdEntry) -> RobEntry {
    RobEntry {
        id: hot.id,
        uop: cold.uop,
        is_load: hot.is_load,
        is_cond_branch: hot.is_cond_branch,
        dest: hot.dest,
        old_dest: hot.old_dest,
        issued: hot.issued,
        executed: hot.executed,
        completion_cycle: hot.completion_cycle,
        mem_level: hot.mem_level,
        mem_addr: cold.mem_addr,
        store_value: cold.store_value,
        result: cold.result,
        mispredicted: cold.mispredicted,
        actual_next_pc: cold.actual_next_pc,
    }
}

/// The execute-stage writeback payload published into a ROB slot when a
/// micro-op issues (see [`ReorderBuffer::writeback`]).
#[derive(Debug, Clone, Copy)]
pub struct Writeback {
    /// Cycle at which execution completes.
    pub completion_cycle: u64,
    /// The destination value, if the micro-op produces one.
    pub result: Option<u64>,
    /// For loads/stores: the effective address.
    pub mem_addr: Option<u64>,
    /// For loads: the hierarchy level that supplied the data.
    pub mem_level: Option<HitLevel>,
    /// For stores: the value to write at commit.
    pub store_value: Option<u64>,
    /// For conditional branches: whether the branch was mispredicted.
    pub mispredicted: bool,
    /// For control instructions: the resolved next PC (`None` leaves the
    /// predicted fall-through in place).
    pub actual_next_pc: Option<u32>,
}

/// The reorder buffer: a bounded ring of entries in program order (see the
/// module documentation for the hot/cold layout and slot-handle contract).
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    hot: Box<[RobHotEntry]>,
    cold: Box<[RobColdEntry]>,
    /// Physical index of the oldest entry.
    head: usize,
    len: usize,
    writes: u64,
    reads: u64,
}

impl ReorderBuffer {
    /// Creates a ROB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB capacity must be non-zero");
        ReorderBuffer {
            hot: vec![RobHotEntry::free(); capacity].into_boxed_slice(),
            cold: vec![RobColdEntry::free(); capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            writes: 0,
            reads: 0,
        }
    }

    /// `true` when no entry can be dispatched.
    pub fn is_full(&self) -> bool {
        self.len >= self.hot.len()
    }

    /// `true` when the ROB holds no instructions.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current occupancy.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.hot.len()
    }

    /// Physical slot of the `logical`-th oldest entry.
    fn phys(&self, logical: usize) -> usize {
        let p = self.head + logical;
        if p >= self.hot.len() {
            p - self.hot.len()
        } else {
            p
        }
    }

    /// Pushes a dispatched entry at the tail and returns its (stable) slot
    /// handle.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full; the dispatch stage must check
    /// [`ReorderBuffer::is_full`] first.
    pub fn push(&mut self, entry: RobEntry) -> u32 {
        assert!(!self.is_full(), "dispatch into a full ROB");
        debug_assert!(entry.id != 0, "id 0 is reserved for free slots");
        self.writes += 1;
        let slot = self.phys(self.len);
        let (hot, cold) = split(entry);
        self.hot[slot] = hot;
        self.cold[slot] = cold;
        self.len += 1;
        slot as u32
    }

    /// The hot state of the oldest entry, if any.
    pub fn head(&self) -> Option<&RobHotEntry> {
        if self.len == 0 {
            None
        } else {
            Some(&self.hot[self.head])
        }
    }

    /// Removes and returns the oldest entry (commit / pseudo-retire).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        if self.len == 0 {
            return None;
        }
        self.reads += 1;
        let slot = self.head;
        let entry = assemble(self.hot[slot], self.cold[slot]);
        self.hot[slot].id = 0;
        self.head = self.phys(1);
        self.len -= 1;
        Some(entry)
    }

    /// The length of the run of consecutive executed entries at the head,
    /// capped at `max`: the batch size commit can drain this cycle with one
    /// probe instead of re-checking the head after every pop. Nothing marks
    /// entries executed while commit drains, so sizing the batch up front is
    /// equivalent to the head-at-a-time re-checks it replaces.
    pub(crate) fn executed_head_run(&self, max: usize) -> usize {
        let limit = max.min(self.len);
        let mut run = 0;
        while run < limit && self.hot[self.phys(run)].executed {
            run += 1;
        }
        run
    }

    /// `true` when `slot` currently holds the micro-op `id`. Handles from
    /// removed entries fail: freed slots clear their id and reused slots
    /// hold a different (younger, unique) id.
    pub(crate) fn slot_matches(&self, slot: u32, id: u64) -> bool {
        (slot as usize) < self.hot.len() && self.hot[slot as usize].id == id
    }

    /// Marks the micro-op in `slot` as having finished execution (a memory
    /// completion event). The caller validates the handle with
    /// `ReorderBuffer::slot_matches` first.
    pub fn set_executed(&mut self, slot: u32) {
        debug_assert!(
            self.hot[slot as usize].id != 0,
            "completion for a free slot"
        );
        self.hot[slot as usize].executed = true;
    }

    /// Force-executes the entry in `slot` with a zero result (flush-style
    /// runahead INV semantics: the window drains through pseudo-retirement
    /// instead of waiting for data that will be discarded).
    pub(crate) fn force_execute(&mut self, slot: u32) {
        debug_assert!(self.hot[slot as usize].id != 0, "invalidating a free slot");
        self.hot[slot as usize].executed = true;
        self.cold[slot as usize].result = Some(0);
    }

    /// Publishes the execute-stage results of micro-op `id` into `slot` and
    /// marks it issued. Returns `false` (and does nothing) when the entry is
    /// gone — an INV-forced entry can pseudo-retire while its issue-queue
    /// copy is still waiting, then issue later against a recycled slot.
    pub fn writeback(&mut self, slot: u32, id: u64, wb: Writeback) -> bool {
        if !self.slot_matches(slot, id) {
            return false;
        }
        let hot = &mut self.hot[slot as usize];
        hot.issued = true;
        hot.completion_cycle = wb.completion_cycle;
        hot.mem_level = wb.mem_level;
        let cold = &mut self.cold[slot as usize];
        cold.result = wb.result;
        cold.mem_addr = wb.mem_addr;
        cold.store_value = wb.store_value;
        cold.mispredicted = wb.mispredicted;
        if let Some(next) = wb.actual_next_pc {
            cold.actual_next_pc = next;
        }
        true
    }

    /// The predicted next PC of micro-op `id` in `slot`, if still resident
    /// (branch resolution compares it against the computed next PC).
    pub(crate) fn predicted_next_pc(&self, slot: u32, id: u64) -> Option<u32> {
        if self.slot_matches(slot, id) {
            Some(self.cold[slot as usize].uop.predicted_next_pc)
        } else {
            None
        }
    }

    /// The slot handle and hot state of the `logical`-th oldest entry, if
    /// resident.
    pub(crate) fn get_with_slot(&self, logical: usize) -> Option<(u32, &RobHotEntry)> {
        (logical < self.len).then(|| {
            let slot = self.phys(logical);
            (slot as u32, &self.hot[slot])
        })
    }

    /// The hot state held in `slot` (the caller knows the slot is
    /// resident).
    pub(crate) fn at_slot(&self, slot: u32) -> &RobHotEntry {
        debug_assert!(self.hot[slot as usize].id != 0, "reading a free slot");
        &self.hot[slot as usize]
    }

    /// The slot of the oldest entry (where the next push lands when the
    /// buffer is empty).
    pub(crate) fn head_slot(&self) -> u32 {
        self.head as u32
    }

    /// Iterates over the hot state from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobHotEntry> + '_ {
        (0..self.len).map(move |i| &self.hot[self.phys(i)])
    }

    /// Iterates over `(slot handle, hot state)` from oldest to youngest.
    pub fn iter_slots(&self) -> impl Iterator<Item = (u32, &RobHotEntry)> + '_ {
        (0..self.len).map(move |i| {
            let slot = self.phys(i);
            (slot as u32, &self.hot[slot])
        })
    }

    /// Removes every entry strictly younger than `id`, handing the hot state
    /// of each to `squashed` youngest-first (the order needed to roll back
    /// the RAT), and returns how many were removed.
    pub fn squash_younger_than(
        &mut self,
        id: u64,
        mut squashed: impl FnMut(&RobHotEntry),
    ) -> usize {
        let mut removed = 0;
        while self.len > 0 {
            let tail = self.phys(self.len - 1);
            if self.hot[tail].id <= id {
                break;
            }
            squashed(&self.hot[tail]);
            self.hot[tail].id = 0;
            self.len -= 1;
            removed += 1;
        }
        removed
    }

    /// Removes all entries (flush-style runahead discards the window) and
    /// returns how many there were. Unlike commit, nothing reads the
    /// payloads, so this only clears the hot ids.
    pub(crate) fn clear(&mut self) -> usize {
        let n = self.len;
        for i in 0..self.len {
            let slot = self.phys(i);
            self.hot[slot].id = 0;
        }
        self.head = 0;
        self.len = 0;
        n
    }

    /// Number of entries pushed (ROB write-port accesses).
    pub(crate) fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of entries popped (ROB read-port accesses at commit).
    pub(crate) fn reads(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::isa::StaticInst;

    fn entry(id: u64) -> RobEntry {
        RobEntry::new(id, DynUop::sequential(id as u32), &StaticInst::nop())
    }

    #[test]
    fn fifo_commit_order() {
        let mut rob = ReorderBuffer::new(4);
        rob.push(entry(1));
        rob.push(entry(2));
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.pop_head().unwrap().id, 1);
        assert_eq!(rob.pop_head().unwrap().id, 2);
        assert!(rob.is_empty());
    }

    #[test]
    fn ring_wraps_and_slots_stay_stable() {
        let mut rob = ReorderBuffer::new(3);
        let s1 = rob.push(entry(1));
        let s2 = rob.push(entry(2));
        assert_eq!(rob.pop_head().unwrap().id, 1);
        // Push past the physical end: the ring wraps into slot 0.
        let s3 = rob.push(entry(3));
        let s4 = rob.push(entry(4));
        assert_eq!(s4, s1, "freed slot is reused after a wrap");
        assert!(!rob.slot_matches(s1, 1), "stale handle must not match");
        assert!(rob.slot_matches(s2, 2));
        assert!(rob.slot_matches(s3, 3));
        assert!(rob.slot_matches(s4, 4));
        let ids: Vec<u64> = rob.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn full_detection() {
        let mut rob = ReorderBuffer::new(2);
        rob.push(entry(1));
        assert!(!rob.is_full());
        rob.push(entry(2));
        assert!(rob.is_full());
    }

    #[test]
    #[should_panic(expected = "full ROB")]
    fn push_into_full_rob_panics() {
        let mut rob = ReorderBuffer::new(1);
        rob.push(entry(1));
        rob.push(entry(2));
    }

    #[test]
    fn squash_younger_returns_youngest_first() {
        let mut rob = ReorderBuffer::new(8);
        for id in 1..=5 {
            rob.push(entry(id));
        }
        let mut ids = Vec::new();
        assert_eq!(rob.squash_younger_than(3, |e| ids.push(e.id)), 2);
        assert_eq!(ids, vec![5, 4]);
        assert_eq!(rob.len(), 3);
    }

    #[test]
    fn clear_empties_and_counts() {
        let mut rob = ReorderBuffer::new(8);
        for id in 1..=3 {
            let slot = rob.push(entry(id));
            assert!(rob.slot_matches(slot, id));
        }
        assert_eq!(rob.clear(), 3);
        assert!(rob.is_empty());
        // Handles into the cleared window are dead.
        for slot in 0..3 {
            assert!(!rob.slot_matches(slot, (slot + 1) as u64));
        }
    }

    #[test]
    fn writeback_is_slot_validated() {
        let mut rob = ReorderBuffer::new(4);
        let slot = rob.push(entry(9));
        let wb = Writeback {
            completion_cycle: 42,
            result: Some(7),
            mem_addr: None,
            mem_level: None,
            store_value: None,
            mispredicted: false,
            actual_next_pc: None,
        };
        assert!(rob.writeback(slot, 9, wb));
        let head = rob.head().unwrap();
        assert!(head.issued);
        assert_eq!(head.completion_cycle, 42);
        let popped = rob.pop_head().unwrap();
        assert_eq!(popped.result, Some(7));
        // The handle is dead after the pop.
        assert!(!rob.writeback(slot, 9, wb));
    }

    #[test]
    fn executed_head_run_counts_ready_prefix_and_wraps() {
        let mut rob = ReorderBuffer::new(4);
        assert_eq!(rob.executed_head_run(4), 0, "empty ROB");
        let slots: Vec<u32> = (1..=4).map(|id| rob.push(entry(id))).collect();
        assert_eq!(rob.executed_head_run(4), 0, "nothing executed yet");
        rob.set_executed(slots[0]);
        rob.set_executed(slots[1]);
        // Entry 3 stays in flight, so the run stops there even though 4 is
        // executed (commit is in-order).
        rob.set_executed(slots[3]);
        assert_eq!(rob.executed_head_run(4), 2);
        assert_eq!(rob.executed_head_run(1), 1, "capped at max");
        // Drain the ready prefix, refill past the ring boundary, and make the
        // whole (wrapped) window ready: the run must follow the wrap.
        assert_eq!(rob.pop_head().unwrap().id, 1);
        assert_eq!(rob.pop_head().unwrap().id, 2);
        let s5 = rob.push(entry(5));
        let s6 = rob.push(entry(6));
        rob.set_executed(slots[2]);
        rob.set_executed(s5);
        rob.set_executed(s6);
        assert_eq!(rob.executed_head_run(8), 4);
    }

    #[test]
    fn force_execute_sets_zero_result() {
        let mut rob = ReorderBuffer::new(2);
        let slot = rob.push(entry(5));
        rob.force_execute(slot);
        let popped = rob.pop_head().unwrap();
        assert_eq!(popped.result, Some(0));
        assert!(popped.executed);
    }

    #[test]
    fn long_latency_detection_requires_memory_level() {
        let mut rob = ReorderBuffer::new(2);
        let load = StaticInst::load(
            pre_model::reg::ArchReg::int(1),
            pre_model::reg::ArchReg::int(2),
            0,
        );
        let mut e = RobEntry::new(1, DynUop::sequential(1), &load);
        e.issued = true;
        e.completion_cycle = 500;
        e.mem_level = Some(HitLevel::L2);
        rob.push(e);
        let head = *rob.head().unwrap();
        assert!(!head.is_blocking_long_latency_load(100));
        let mut head = head;
        head.mem_level = Some(HitLevel::Memory);
        assert!(head.is_blocking_long_latency_load(100));
        assert!(!head.is_blocking_long_latency_load(600));
        head.executed = true;
        assert!(!head.is_blocking_long_latency_load(100));
    }
}
