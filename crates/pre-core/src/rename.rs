//! The rename subsystem: one owner for every rename-adjacent structure.
//!
//! Register allocation, mapping, value storage and — crucially — *every*
//! path that returns a physical register to a free list used to be smeared
//! across the pipeline stages. [`RenameSubsystem`] centralizes that state
//! (RAT, per-class free lists, per-class physical register files and the
//! PRDQ) behind a single reclamation interface with four entry points:
//!
//! * [`RenameSubsystem::free_committed`] — normal commit frees the previous
//!   mapping of the retiring instruction's destination.
//! * [`RenameSubsystem::rollback_squashed`] — branch recovery restores the
//!   previous mapping and frees the squashed instruction's own destination.
//! * [`RenameSubsystem::drain_prdq`] — precise runahead's in-order
//!   reclamation of registers allocated by runahead micro-ops (Section 3.4
//!   of the paper).
//! * [`RenameSubsystem::seed_eager`] — the eager drain: previous mappings
//!   of the *stalled window* whose producer has completed and whose last
//!   consumer has issued are dead, so they are seeded into the PRDQ and
//!   freed immediately instead of waiting for a commit that cannot happen
//!   while the window is stalled. This is what gives PRE free destination
//!   registers on integer-only kernels that exhaust the integer PRF at the
//!   full-window stall (the `asm-box-blur` reproduction finding).
//!
//! Runahead entry and exit ([`RenameSubsystem::begin_runahead_interval`] /
//! [`RenameSubsystem::end_runahead_interval`]) checkpoint the RAT and mark
//! the free lists, so the exit also un-frees every register the eager drain
//! released — the eager path needs no undo log of its own.
//!
//! # Safety argument for the eager drain
//!
//! A previous mapping `p` recorded in ROB entry `E.old_dest` may be freed
//! during a precise-runahead interval when all of the following hold:
//!
//! 1. `E` cannot be squashed: no conditional branch older than `E` is still
//!    unissued (branches resolve at issue in this pipeline, and recovery
//!    runs in the same cycle). Squashing `E` would roll the RAT back to `p`,
//!    so `p`'s value would have to survive.
//! 2. `p`'s producer has completed (`ready` bit set): an in-flight producer
//!    would later write `p` and set its ready bit, corrupting a runahead
//!    micro-op that re-allocated `p`.
//! 3. No waiting micro-op in the issue queue reads `p`: operands are read at
//!    issue, so issued consumers are done with it.
//! 4. `p` is not a live RAT mapping (holds by construction — `old_dest`
//!    registers were mapped out by the renaming instruction — and checked
//!    defensively anyway).
//!
//! Commit itself never observes an eager free: commits do not happen in
//! runahead mode, and the free lists are rolled back before normal mode
//! resumes, so the same register is freed exactly once on each path.
//!
//! # Finding candidates by events
//!
//! The candidates are tracked rather than rescanned, and the tracker lives
//! across intervals. A walk visits the window from the head up to (and
//! including) the oldest unissued conditional branch, recording which entry
//! holds each previous mapping. Entries are keyed by ROB slot, which a
//! commit does not move, and the walk frontier is the next unvisited entry:
//! each entry is visited once while it is in the window, and a walk stopped
//! at a branch resumes once that branch has issued. After that an entry is
//! re-checked only when its old register becomes ready or when the last
//! waiting reader of that register issues ([`RenameSubsystem::recheck_eager`]).
//! A PRE core reports both events in normal mode too, so the tracker is
//! current when the next interval starts; commit drops the head entry
//! ([`RenameSubsystem::eager_head_committing`]) and branch recovery the
//! squashed ones ([`RenameSubsystem::squash_eager_younger_than`]). An
//! interval's entry then visits only the entries dispatched since the last
//! walk.
//!
//! Inside the window each condition only turns from false to true, with one
//! exception: a register eagerly freed in an interval can be re-allocated
//! by runahead renaming, which clears its ready bit, and the exit restore
//! makes it a (possibly not ready) previous mapping again. So the exit
//! re-arms every entry seeded in the interval: it re-checks each one after
//! the restore, and only a still-dead one is pending for the next interval.
//!
//! Every check is a lookup: the issue queue counts the waiting readers of
//! each register, the free list keeps a membership bitmap, and seeded
//! entries carry a per-interval mark. Debug builds compare the tracked
//! candidates, their per-class counts and the walk frontier with a full
//! scan at every entry, seed pass, gate count and exit.

use crate::freelist::FreeList;
use crate::iq::{IssueQueue, SrcList};
use crate::rat::{RatCheckpoint, RegisterAliasTable};
use crate::regfile::PhysRegFile;
use crate::rob::ReorderBuffer;
use pre_model::isa::StaticInst;
use pre_model::reg::{ArchReg, PhysReg, RegClass, NUM_ARCH_REGS};
use pre_runahead::PreciseRegisterDeallocationQueue;

/// Per-class membership flags over physical-register indices.
///
/// Physical registers are densely numbered below the per-class file
/// capacity, so a flat flag vector makes membership a single indexed load
/// and `clear` a pair of short memsets.
#[derive(Debug)]
struct PhysFlagSet {
    int: Vec<bool>,
    fp: Vec<bool>,
}

impl PhysFlagSet {
    fn new(int_capacity: usize, fp_capacity: usize) -> Self {
        PhysFlagSet {
            int: vec![false; int_capacity],
            fp: vec![false; fp_capacity],
        }
    }

    #[inline]
    fn flags_mut(&mut self, class: RegClass) -> &mut [bool] {
        match class {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        }
    }

    #[inline]
    fn contains(&self, class: RegClass, reg: PhysReg) -> bool {
        match class {
            RegClass::Int => self.int[reg.index()],
            RegClass::Fp => self.fp[reg.index()],
        }
    }

    #[inline]
    fn insert(&mut self, class: RegClass, reg: PhysReg) {
        self.flags_mut(class)[reg.index()] = true;
    }

    #[inline]
    fn remove(&mut self, class: RegClass, reg: PhysReg) {
        self.flags_mut(class)[reg.index()] = false;
    }

    fn clear(&mut self) {
        self.int.fill(false);
        self.fp.fill(false);
    }
}

fn class_idx(class: RegClass) -> usize {
    match class {
        RegClass::Int => 0,
        RegClass::Fp => 1,
    }
}

/// A set of ROB slots as a bitmap.
#[derive(Debug, Default)]
struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// Makes room for slots below `capacity`.
    fn fit(&mut self, capacity: usize) {
        let words = capacity.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    fn contains(&self, slot: usize) -> bool {
        self.words
            .get(slot / 64)
            .is_some_and(|w| w >> (slot % 64) & 1 != 0)
    }

    /// Adds `slot`; `false` when it was already a member.
    fn insert(&mut self, slot: usize) -> bool {
        let word = &mut self.words[slot / 64];
        let bit = 1 << (slot % 64);
        let added = *word & bit == 0;
        *word |= bit;
        added
    }

    /// Removes `slot`; `false` when it was not a member.
    fn remove(&mut self, slot: usize) -> bool {
        let word = &mut self.words[slot / 64];
        let bit = 1 << (slot % 64);
        let removed = *word & bit != 0;
        *word &= !bit;
        removed
    }

    /// The smallest member at or above `from`.
    fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }

    /// The first member at or after logical position `from` of a ring of
    /// `capacity` slots whose oldest slot is `head`, with its logical
    /// position: program order runs from `head` to the end of the ring,
    /// then from slot 0 up to `head`. Every member must be a resident slot.
    fn ring_next(&self, head: usize, capacity: usize, from: usize) -> Option<(usize, usize)> {
        let slot = if head + from < capacity {
            self.next_from(head + from)
                .or_else(|| self.next_from(0).filter(|&s| s < head))
        } else {
            self.next_from(head + from - capacity).filter(|&s| s < head)
        }?;
        Some((slot, (slot + capacity - head) % capacity))
    }

    /// Members in ascending slot order.
    #[cfg(debug_assertions)]
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_from(0), |&slot| self.next_from(slot + 1))
    }
}

/// Marks a register no walked entry holds as its previous mapping.
const NO_OWNER: u32 = u32::MAX;

/// Event-driven bookkeeping of the eager drain, carried across runahead
/// intervals (see the module documentation and
/// [`RenameSubsystem::seed_eager`]).
///
/// The walked entries form a prefix of the window; each is keyed by its ROB
/// slot, which stays put until the entry commits or is squashed. The
/// entries found dead and not yet seeded are kept in `pending`.
#[derive(Debug)]
struct EagerTracker {
    /// `owner[class][phys reg]`: the ROB slot of the walked entry whose
    /// previous mapping is that register, or [`NO_OWNER`].
    owner: [Vec<u32>; 2],
    /// Slots whose previous mapping was seeded in the current interval
    /// (empty in normal mode: the exit re-arms them).
    seeded: SlotSet,
    /// Slots whose previous mapping is dead but not seeded.
    pending: SlotSet,
    /// Members of `pending` per class (integer, FP).
    pending_per_class: [usize; 2],
    /// Number of ROB entries, from the head, the walk has visited.
    walked: usize,
    /// The walk stopped at the unissued conditional branch at `walked - 1`:
    /// younger entries may still be squashed.
    blocked: bool,
}

impl EagerTracker {
    fn new(int_capacity: usize, fp_capacity: usize) -> Self {
        EagerTracker {
            owner: [vec![NO_OWNER; int_capacity], vec![NO_OWNER; fp_capacity]],
            seeded: SlotSet::default(),
            pending: SlotSet::default(),
            pending_per_class: [0; 2],
            walked: 0,
            blocked: false,
        }
    }

    fn add_pending(&mut self, slot: u32, class: RegClass) {
        if self.pending.insert(slot as usize) {
            self.pending_per_class[class_idx(class)] += 1;
        }
    }

    fn remove_pending(&mut self, slot: u32, class: RegClass) {
        if self.pending.remove(slot as usize) {
            self.pending_per_class[class_idx(class)] -= 1;
        }
    }

    /// Drops the walked entry in `slot`, whose previous mapping is
    /// `old_dest`, as it leaves the window (in normal mode, so it is not
    /// seeded).
    fn forget(&mut self, slot: u32, old_dest: Option<(ArchReg, PhysReg, Option<u32>)>) {
        if let Some((arch, old, _)) = old_dest {
            let class = arch.class();
            self.remove_pending(slot, class);
            let owner = &mut self.owner[class_idx(class)][old.index()];
            if *owner == slot {
                *owner = NO_OWNER;
            }
        }
    }
}

/// The outcome of renaming a destination register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestRename {
    /// The freshly allocated physical register.
    pub new: PhysReg,
    /// The previous mapping (freed when the instruction commits).
    pub old: PhysReg,
    /// The producer PC previously recorded for the architectural register.
    pub old_pc: Option<u32>,
}

/// The rename subsystem: RAT, free lists, physical register files and the
/// PRDQ behind one allocation/reclamation interface.
#[derive(Debug)]
pub struct RenameSubsystem {
    rat: RegisterAliasTable,
    int_free: FreeList,
    fp_free: FreeList,
    int_prf: PhysRegFile,
    fp_prf: PhysRegFile,
    prdq: PreciseRegisterDeallocationQueue,
    /// Registers allocated by runahead renaming in the current interval;
    /// only these may be reclaimed through regular PRDQ deallocation.
    runahead_allocated: PhysFlagSet,
    /// The eager drain's candidate tracking, carried across intervals.
    eager: EagerTracker,
    /// The RAT as it was at the current interval's entry.
    interval_rat: RatCheckpoint,
    int_capacity: usize,
    fp_capacity: usize,
}

impl RenameSubsystem {
    /// Builds the subsystem for register files of `int_phys` / `fp_phys`
    /// registers, a PRDQ of `prdq_entries`, and the initial architectural
    /// values in `arch_values` (flat index order).
    pub fn new(
        int_phys: usize,
        fp_phys: usize,
        prdq_entries: usize,
        arch_values: &[u64; NUM_ARCH_REGS],
    ) -> Self {
        let rat = RegisterAliasTable::new();
        let mut subsystem = RenameSubsystem {
            interval_rat: rat.checkpoint(),
            rat,
            int_free: FreeList::new(int_phys, pre_model::reg::NUM_INT_ARCH_REGS),
            fp_free: FreeList::new(fp_phys, pre_model::reg::NUM_FP_ARCH_REGS),
            int_prf: PhysRegFile::new(int_phys, pre_model::reg::NUM_INT_ARCH_REGS),
            fp_prf: PhysRegFile::new(fp_phys, pre_model::reg::NUM_FP_ARCH_REGS),
            prdq: PreciseRegisterDeallocationQueue::new(prdq_entries),
            runahead_allocated: PhysFlagSet::new(int_phys, fp_phys),
            eager: EagerTracker::new(int_phys, fp_phys),
            int_capacity: int_phys,
            fp_capacity: fp_phys,
        };
        subsystem.seed_arch_values(arch_values);
        subsystem
    }

    fn seed_arch_values(&mut self, arch_values: &[u64; NUM_ARCH_REGS]) {
        for (flat, &value) in arch_values.iter().enumerate() {
            let arch = ArchReg::from_flat_index(flat);
            let phys = RegisterAliasTable::identity_mapping(flat);
            self.prf_mut(arch.class()).init_arch_value(phys, value);
        }
    }

    // -----------------------------------------------------------------
    // Structure access.
    // -----------------------------------------------------------------

    /// Read-only view of the RAT (producer-PC lookups, peeks).
    pub fn rat(&self) -> &RegisterAliasTable {
        &self.rat
    }

    /// The physical register file of `class`.
    pub fn prf(&self, class: RegClass) -> &PhysRegFile {
        match class {
            RegClass::Int => &self.int_prf,
            RegClass::Fp => &self.fp_prf,
        }
    }

    /// Mutable physical register file of `class` (value writes, ready/INV
    /// bits are driven by the execution stages).
    pub fn prf_mut(&mut self, class: RegClass) -> &mut PhysRegFile {
        match class {
            RegClass::Int => &mut self.int_prf,
            RegClass::Fp => &mut self.fp_prf,
        }
    }

    /// The free list of `class` (read-only; all frees go through the
    /// reclamation interface).
    pub fn free_list(&self, class: RegClass) -> &FreeList {
        match class {
            RegClass::Int => &self.int_free,
            RegClass::Fp => &self.fp_free,
        }
    }

    fn free_list_mut(&mut self, class: RegClass) -> &mut FreeList {
        match class {
            RegClass::Int => &mut self.int_free,
            RegClass::Fp => &mut self.fp_free,
        }
    }

    /// The PRDQ (statistics and occupancy checks).
    pub fn prdq(&self) -> &PreciseRegisterDeallocationQueue {
        &self.prdq
    }

    /// Free registers in `class`.
    pub fn num_free(&self, class: RegClass) -> usize {
        self.free_list(class).num_free()
    }

    /// Fraction of `class`'s register file currently free.
    pub(crate) fn free_fraction(&self, class: RegClass) -> f64 {
        self.free_list(class).free_fraction()
    }

    // -----------------------------------------------------------------
    // Allocation (normal and runahead renaming).
    // -----------------------------------------------------------------

    /// Looks up the physical sources of `inst` through the RAT, in operand
    /// order (counts RAT read ports). Returns an inline list — renaming
    /// allocates nothing on the heap.
    pub fn lookup_sources(&mut self, inst: &StaticInst) -> SrcList {
        let mut srcs = SrcList::new();
        for src in inst.sources() {
            let phys = self.rat.lookup(src);
            srcs.push(src.class(), phys);
        }
        srcs
    }

    /// Renames destination `d` for the instruction at `pc`: allocates a
    /// fresh register, updates the RAT and prepares the register for a new
    /// value. Returns `None` when `d`'s class has no free register (the
    /// dispatch stage checks beforehand, so this is exceptional).
    pub fn rename_dest(&mut self, d: ArchReg, pc: u32) -> Option<DestRename> {
        let class = d.class();
        let new = self.free_list_mut(class).allocate()?;
        let (old, old_pc) = self.rat.rename(d, new, pc);
        self.prf_mut(class).reset_for_allocation(new);
        Some(DestRename { new, old, old_pc })
    }

    /// Renames one runahead micro-op (identified by `uop_id`): sources
    /// through the RAT, destination on a free register, and a PRDQ entry
    /// recording the previous mapping. The previous mapping is reclaimable
    /// through the PRDQ only if it was itself allocated during this
    /// runahead interval; pre-runahead state is restored by the checkpoint
    /// instead.
    ///
    /// The caller must have checked that a destination register and a PRDQ
    /// entry are available.
    pub fn runahead_rename(
        &mut self,
        inst: &StaticInst,
        pc: u32,
        uop_id: u64,
    ) -> (SrcList, Option<(RegClass, PhysReg)>) {
        let srcs = self.lookup_sources(inst);
        let mut dest = None;
        if let Some(d) = inst.dest {
            let class = d.class();
            let rename = self
                .rename_dest(d, pc)
                .expect("caller checked for a free register");
            let reclaimable = self.runahead_allocated.contains(class, rename.old);
            self.prdq
                .allocate(uop_id, Some((class, rename.old)), reclaimable);
            self.runahead_allocated.insert(class, rename.new);
            dest = Some((class, rename.new));
        } else {
            self.prdq.allocate(uop_id, None, false);
        }
        (srcs, dest)
    }

    // -----------------------------------------------------------------
    // The reclamation interface.
    // -----------------------------------------------------------------

    /// Normal commit: the retiring instruction's previous destination
    /// mapping is dead once the instruction is architectural.
    pub fn free_committed(&mut self, class: RegClass, old: PhysReg) {
        self.free_list_mut(class).free(old);
    }

    /// Branch recovery for one squashed instruction (walked youngest-first):
    /// restores the previous RAT mapping and frees the squashed
    /// instruction's own destination register.
    pub fn rollback_squashed(
        &mut self,
        old_dest: Option<(ArchReg, PhysReg, Option<u32>)>,
        dest: Option<(RegClass, PhysReg)>,
    ) {
        if let Some((arch, old, old_pc)) = old_dest {
            self.rat.rollback(arch, old, old_pc);
        }
        if let Some((class, reg)) = dest {
            self.free_list_mut(class).free(reg);
        }
    }

    /// Marks the PRDQ entry of a completed runahead micro-op as executed.
    pub fn mark_runahead_executed(&mut self, uop_id: u64) {
        self.prdq.mark_executed(uop_id);
    }

    /// Drains executed PRDQ entries in order and returns their registers to
    /// the free lists. Returns `(int, fp)` counts of registers freed.
    pub fn drain_prdq(&mut self) -> (usize, usize) {
        let mut counts = (0usize, 0usize);
        let (int_free, fp_free) = (&mut self.int_free, &mut self.fp_free);
        let runahead_allocated = &mut self.runahead_allocated;
        self.prdq.drain_completed(|(class, reg)| {
            match class {
                RegClass::Int => {
                    int_free.free(reg);
                    counts.0 += 1;
                }
                RegClass::Fp => {
                    fp_free.free(reg);
                    counts.1 += 1;
                }
            }
            runahead_allocated.remove(class, reg);
        });
        counts
    }

    /// The eager drain: seeds the PRDQ with dead previous mappings of the
    /// stalled window (see the module documentation for the safety
    /// argument), oldest first until the PRDQ is full, and returns how many
    /// entries were seeded. Call [`RenameSubsystem::drain_prdq`] afterwards
    /// to realize the frees.
    ///
    /// A pass does not rescan: the candidates were recorded by the walk and
    /// by [`RenameSubsystem::recheck_eager`] as the events happened, and
    /// the walk only visits entries it has not visited before (at entry,
    /// those dispatched since the last walk; later in the interval, those
    /// past a branch that has since issued). So mappings whose last
    /// consumer issues *during* the interval are freed at that issue
    /// boundary, at a cost proportional to the events.
    pub fn seed_eager(&mut self, rob: &ReorderBuffer, iq: &IssueQueue) -> usize {
        self.advance_eager_walk(rob, iq);
        let (head, capacity) = (rob.head_slot() as usize, rob.capacity());
        let mut seeded = 0;
        let mut next = match self.eager.pending_per_class {
            [0, 0] => None,
            _ => self.eager.pending.ring_next(head, capacity, 0),
        };
        while let Some((slot, pos)) = next {
            next = self.eager.pending.ring_next(head, capacity, pos + 1);
            let entry = rob.at_slot(slot as u32);
            let (arch, old, _) = entry.old_dest.expect("pending entries have an old mapping");
            let class = arch.class();
            // Defensive: `old_dest` registers are mapped out by
            // construction, but a live RAT mapping is never dead.
            if self.rat.maps(class, old) {
                continue;
            }
            if !self.prdq.seed_executed(entry.id, (class, old)) {
                break;
            }
            self.eager.remove_pending(slot as u32, class);
            self.eager.seeded.insert(slot);
            seeded += 1;
        }
        #[cfg(debug_assertions)]
        self.check_eager_tracker(rob, iq);
        seeded
    }

    /// Re-checks, after an event, the window entry whose previous mapping is
    /// `reg`: a PRE core calls it, in normal and runahead mode alike, when
    /// `reg`'s producer completes or when the last waiting reader of `reg`
    /// issues. An entry found dead becomes pending, and the next
    /// [`RenameSubsystem::seed_eager`] seeds it.
    pub fn recheck_eager(&mut self, class: RegClass, reg: PhysReg, iq: &IssueQueue) {
        let slot = self.eager.owner[class_idx(class)][reg.index()];
        if slot != NO_OWNER && self.eager_dead(slot as usize, class, reg, iq) {
            self.eager.add_pending(slot, class);
        }
    }

    /// The ROB head is about to commit: a PRE core calls this before
    /// popping it, so the tracker drops the entry if the walk visited it.
    pub fn eager_head_committing(&mut self, rob: &ReorderBuffer) {
        if self.eager.walked == 0 {
            return;
        }
        self.eager.walked -= 1;
        // A committing branch has issued: if the walk stopped at it, it
        // resumes past it.
        self.eager.blocked &= self.eager.walked > 0;
        let slot = rob.head_slot();
        self.eager.forget(slot, rob.at_slot(slot).old_dest);
    }

    /// Branch recovery is about to squash every entry younger than
    /// `branch_id`: a PRE core calls this first, so the tracker drops the
    /// walked ones. (The walk stops at the oldest unissued conditional
    /// branch and only an unissued branch can mispredict, so in the
    /// pipeline this finds none.)
    pub fn squash_eager_younger_than(&mut self, rob: &ReorderBuffer, branch_id: u64) {
        while let Some((slot, entry)) = self
            .eager
            .walked
            .checked_sub(1)
            .and_then(|pos| rob.get_with_slot(pos))
        {
            if entry.id <= branch_id {
                break;
            }
            self.eager.forget(slot, entry.old_dest);
            self.eager.walked -= 1;
            self.eager.blocked = false;
        }
    }

    /// Extends the walk: from the first entry it has not visited up to (and
    /// including) the oldest unissued conditional branch, recording which
    /// entry holds each previous mapping and queueing the dead ones. A walk
    /// stopped at a branch resumes once that branch has issued.
    fn advance_eager_walk(&mut self, rob: &ReorderBuffer, iq: &IssueQueue) {
        self.eager.seeded.fit(rob.capacity());
        self.eager.pending.fit(rob.capacity());
        if self.eager.blocked {
            let branch = self.eager.walked - 1;
            if !rob.get_with_slot(branch).is_some_and(|(_, e)| e.issued) {
                return;
            }
            self.eager.blocked = false;
        }
        while let Some((slot, entry)) = rob.get_with_slot(self.eager.walked) {
            self.eager.walked += 1;
            if let Some((arch, old, _)) = entry.old_dest {
                let class = arch.class();
                self.eager.owner[class_idx(class)][old.index()] = slot;
                if self.eager_dead(slot as usize, class, old, iq) {
                    self.eager.add_pending(slot, class);
                }
            }
            // Entries younger than an unresolved conditional branch may be
            // squashed, which would roll the RAT back to their previous
            // mappings — stop here. (Branches resolve at issue.)
            if entry.is_cond_branch && !entry.issued {
                self.eager.blocked = true;
                break;
            }
        }
    }

    /// The eagerness test for the entry in ROB slot `slot` whose previous
    /// mapping is `old`: not seeded this interval, its producer completed,
    /// no waiting reader, and not already free. Every check is a single
    /// lookup.
    fn eager_dead(&self, slot: usize, class: RegClass, old: PhysReg, iq: &IssueQueue) -> bool {
        !self.eager.seeded.contains(slot)
            && self.prf(class).is_ready(old)
            && iq.readers(class, old) == 0
            && !self.free_list(class).is_free(old)
    }

    /// Counts the registers per class that [`RenameSubsystem::seed_eager`]
    /// could release right now. Used by the free-register entry gate to
    /// decide whether entering runahead mode can inject micro-ops. Reads the
    /// tracker's counts after extending the walk over new entries.
    pub fn count_eager_reclaimable(
        &mut self,
        rob: &ReorderBuffer,
        iq: &IssueQueue,
    ) -> (usize, usize) {
        self.advance_eager_walk(rob, iq);
        #[cfg(debug_assertions)]
        self.check_eager_tracker(rob, iq);
        let [int, fp] = self.eager.pending_per_class;
        (int, fp)
    }

    /// The full scan: every previous mapping of the window up to the oldest
    /// unissued conditional branch that is provably dead, as `(ROB
    /// position, class, old register)` oldest first, and the number of
    /// entries the scan visited.
    #[cfg(debug_assertions)]
    fn collect_eager_candidates(
        &self,
        rob: &ReorderBuffer,
        iq: &IssueQueue,
    ) -> (Vec<(usize, RegClass, PhysReg)>, usize) {
        let mut candidates = Vec::new();
        let mut visited = 0;
        for (pos, (slot, entry)) in rob.iter_slots().enumerate() {
            visited = pos + 1;
            if let Some((arch, old, _)) = entry.old_dest {
                let class = arch.class();
                if self.eager_dead(slot as usize, class, old, iq) {
                    candidates.push((pos, class, old));
                }
            }
            if entry.is_cond_branch && !entry.issued {
                break;
            }
        }
        (candidates, visited)
    }

    /// Debug-build oracle: the walk frontier, the pending set, its
    /// per-class counts and the owner records must equal what a full scan
    /// finds, and no pending register may be a live mapping.
    #[cfg(debug_assertions)]
    fn check_eager_tracker(&self, rob: &ReorderBuffer, iq: &IssueQueue) {
        let (candidates, visited) = self.collect_eager_candidates(rob, iq);
        assert_eq!(
            self.eager.walked, visited,
            "eager-drain walk frontier diverged from the full window scan"
        );
        let (head, capacity) = (rob.head_slot() as usize, rob.capacity());
        let mut pending: Vec<usize> = self
            .eager
            .pending
            .iter()
            .map(|slot| (slot + capacity - head) % capacity)
            .collect();
        pending.sort_unstable();
        let scanned: Vec<usize> = candidates.iter().map(|c| c.0).collect();
        assert_eq!(
            pending, scanned,
            "eager-drain tracker diverged from the full window scan"
        );
        let mut per_class = [0usize; 2];
        for &(_, class, old) in &candidates {
            assert!(
                !self.rat.maps(class, old),
                "pending register {old} is mapped"
            );
            per_class[class_idx(class)] += 1;
        }
        assert_eq!(self.eager.pending_per_class, per_class, "pending counts");
        for (slot, entry) in rob.iter_slots().take(visited) {
            if let Some((arch, old, _)) = entry.old_dest {
                assert_eq!(
                    self.eager.owner[class_idx(arch.class())][old.index()],
                    slot,
                    "walked entry does not own its previous mapping"
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // Checkpoint / restore and bulk resets.
    // -----------------------------------------------------------------

    /// Starts a precise-runahead interval over the window `rob`: extends
    /// the eager-drain walk over the entries dispatched since the last one,
    /// checkpoints the RAT and marks both free lists, so the exit restore
    /// costs what the interval changed. Allocates nothing.
    pub fn begin_runahead_interval(&mut self, rob: &ReorderBuffer, iq: &IssueQueue) {
        self.advance_eager_walk(rob, iq);
        #[cfg(debug_assertions)]
        self.check_eager_tracker(rob, iq);
        debug_assert!(
            self.eager.seeded.next_from(0).is_none(),
            "an interval starts with nothing seeded"
        );
        self.interval_rat = self.rat.checkpoint();
        self.int_free.mark();
        self.fp_free.mark();
    }

    /// Ends a precise-runahead interval: discards the PRDQ and the
    /// per-interval allocation set, restores the RAT and rolls the free
    /// lists back to the entry (which undoes runahead allocations *and*
    /// eager frees), and clears all INV bits. Call it after the runahead
    /// micro-ops have left `iq`.
    ///
    /// It then re-arms the entries seeded in the interval: each one's
    /// register is a previous mapping again, not necessarily ready (runahead
    /// renaming may have re-allocated it), so it is pending again only if it
    /// is dead now.
    pub fn end_runahead_interval(&mut self, rob: &ReorderBuffer, iq: &IssueQueue) {
        self.prdq.clear();
        self.runahead_allocated.clear();
        self.rat.restore(&self.interval_rat);
        self.int_free.rollback();
        self.fp_free.rollback();
        self.int_prf.clear_all_inv();
        self.fp_prf.clear_all_inv();
        let mut next = self.eager.seeded.next_from(0);
        while let Some(slot) = next {
            next = self.eager.seeded.next_from(slot + 1);
            self.eager.seeded.remove(slot);
            let (arch, old, _) = rob
                .at_slot(slot as u32)
                .old_dest
                .expect("seeded entries have an old mapping");
            let class = arch.class();
            if self.eager_dead(slot, class, old, iq) {
                self.eager.add_pending(slot as u32, class);
            }
        }
        self.advance_eager_walk(rob, iq);
        #[cfg(debug_assertions)]
        self.check_eager_tracker(rob, iq);
    }

    /// Rebuilds the whole rename state from an architectural checkpoint
    /// (flush-style runahead exit): identity RAT, full free lists, register
    /// files seeded with the architectural values, modelled as free in time
    /// as the paper assumes.
    pub(crate) fn reset_from_arch(&mut self, arch_values: &[u64; NUM_ARCH_REGS]) {
        self.rat.reset_identity();
        self.int_free = FreeList::new(self.int_capacity, pre_model::reg::NUM_INT_ARCH_REGS);
        self.fp_free = FreeList::new(self.fp_capacity, pre_model::reg::NUM_FP_ARCH_REGS);
        self.seed_arch_values(arch_values);
        self.int_prf.clear_all_inv();
        self.fp_prf.clear_all_inv();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rob::RobHotEntry;
    use pre_model::isa::{AluOp, BranchCond, StaticInst};

    fn subsystem() -> RenameSubsystem {
        RenameSubsystem::new(40, 36, 16, &[0u64; NUM_ARCH_REGS])
    }

    fn rob_entry_with_rename(
        id: u64,
        subsystem: &mut RenameSubsystem,
        arch: ArchReg,
        executed: bool,
    ) -> RobHotEntry {
        let inst = StaticInst::int_alu_imm(AluOp::Add, arch, arch, 1);
        let rename = subsystem.rename_dest(arch, id as u32).expect("free reg");
        let mut entry = RobHotEntry::new(id, id as u32, &inst);
        entry.dest = Some((arch.class(), rename.new));
        entry.old_dest = Some((arch, rename.old, rename.old_pc));
        entry.issued = true;
        entry.executed = executed;
        if executed {
            subsystem.prf_mut(arch.class()).set_ready(rename.new, true);
        }
        entry
    }

    #[test]
    fn rename_dest_allocates_and_tracks_old_mapping() {
        let mut r = subsystem();
        let a = ArchReg::int(3);
        let first = r.rename_dest(a, 10).unwrap();
        assert_eq!(first.old, PhysReg(3), "initial mapping is identity");
        let second = r.rename_dest(a, 11).unwrap();
        assert_eq!(second.old, first.new);
        assert_eq!(second.old_pc, Some(10));
        // Commit of the second instruction frees the first allocation.
        let free_before = r.num_free(RegClass::Int);
        r.free_committed(RegClass::Int, second.old);
        assert_eq!(r.num_free(RegClass::Int), free_before + 1);
    }

    #[test]
    fn runahead_rename_feeds_the_prdq_and_reclaims_only_runahead_regs() {
        let mut r = subsystem();
        let a = ArchReg::int(4);
        let (rob, iq) = (ReorderBuffer::new(8), IssueQueue::new(8));
        r.begin_runahead_interval(&rob, &iq);
        let (_, dest1) = r.runahead_rename(&StaticInst::load_imm(a, 1), 100, 1);
        let first = dest1.unwrap().1;
        // The pre-runahead mapping is non-reclaimable: draining after
        // execution frees nothing.
        r.mark_runahead_executed(1);
        assert_eq!(r.drain_prdq(), (0, 0));
        // A second runahead write to the same register reclaims the first
        // runahead allocation.
        let (_, _dest2) = r.runahead_rename(&StaticInst::load_imm(a, 2), 101, 2);
        r.mark_runahead_executed(2);
        let free_before = r.num_free(RegClass::Int);
        assert_eq!(r.drain_prdq(), (1, 0));
        assert_eq!(r.num_free(RegClass::Int), free_before + 1);
        assert!(r.free_list(RegClass::Int).is_free(first));
        r.end_runahead_interval(&rob, &iq);
        assert_eq!(r.rat().peek(a), PhysReg(4), "checkpoint restored");
    }

    #[test]
    fn eager_drain_frees_dead_window_mappings_through_the_prdq() {
        let mut r = subsystem();
        let mut rob = ReorderBuffer::new(8);
        let iq = IssueQueue::new(8);
        let a = ArchReg::int(5);
        // Two back-to-back redefinitions: the first allocation's previous
        // mapping (identity reg 5) is dead once both have executed and no
        // consumer waits.
        rob.push(rob_entry_with_rename(1, &mut r, a, true), 0);
        rob.push(rob_entry_with_rename(2, &mut r, a, true), 0);
        r.begin_runahead_interval(&rob, &iq);
        let (int_reclaimable, fp_reclaimable) = r.count_eager_reclaimable(&rob, &iq);
        assert_eq!(int_reclaimable, 2);
        assert_eq!(fp_reclaimable, 0);
        let free_before = r.num_free(RegClass::Int);
        assert_eq!(r.seed_eager(&rob, &iq), 2);
        assert_eq!(r.drain_prdq(), (2, 0));
        assert_eq!(r.num_free(RegClass::Int), free_before + 2);
        assert_eq!(r.prdq().eager_seeds(), 2);
        // Seeding is idempotent per entry.
        assert_eq!(r.seed_eager(&rob, &iq), 0);
        // Exit restores the free lists exactly.
        r.end_runahead_interval(&rob, &iq);
        assert_eq!(r.num_free(RegClass::Int), free_before);
    }

    #[test]
    fn eager_drain_respects_unresolved_branches_and_waiting_consumers() {
        let mut r = subsystem();
        let mut rob = ReorderBuffer::new(8);
        let mut iq = IssueQueue::new(8);
        let a = ArchReg::int(6);
        let first = rob_entry_with_rename(1, &mut r, a, true);
        let first_new = first.dest.unwrap().1;
        rob.push(first, 0);
        // An unissued conditional branch shadows everything younger.
        let branch = StaticInst::branch(BranchCond::Lt, a, a, 0);
        let mut branch_entry = RobHotEntry::new(2, 2, &branch);
        branch_entry.issued = false;
        rob.push(branch_entry, 0);
        rob.push(rob_entry_with_rename(3, &mut r, a, true), 0);
        // A waiting consumer still reads the first allocation.
        iq.insert(
            crate::iq::IqEntry {
                id: 4,
                rob_slot: crate::rob::INVALID_SLOT,
                pc: 4,
                inst: StaticInst::int_alu_imm(AluOp::Add, a, a, 1),
                srcs: SrcList::from_slice(&[(RegClass::Int, first_new)]),
                dest: None,
                class: pre_model::isa::OpClass::IntAlu,
                is_runahead: false,
                store_addr_ready: false,
            },
            |_, _| true,
        );
        r.begin_runahead_interval(&rob, &iq);
        // Entry 1's old mapping (identity reg 6) is free-able; entry 3 is in
        // the branch shadow; entry 1's own destination is consumer-live.
        let candidates = r.count_eager_reclaimable(&rob, &iq);
        assert_eq!(candidates, (1, 0));
        assert_eq!(r.seed_eager(&rob, &iq), 1);
        let (int_freed, _) = r.drain_prdq();
        assert_eq!(int_freed, 1);
        assert!(r.free_list(RegClass::Int).is_free(PhysReg(6)));
        assert!(!r.free_list(RegClass::Int).is_free(first_new));
    }

    #[test]
    fn squash_and_commit_drop_walked_entries() {
        let mut r = subsystem();
        let mut rob = ReorderBuffer::new(8);
        let iq = IssueQueue::new(8);
        let a = ArchReg::int(5);
        for id in 1..=4 {
            rob.push(rob_entry_with_rename(id, &mut r, a, true), 0);
        }
        assert_eq!(r.count_eager_reclaimable(&rob, &iq), (4, 0));
        // A recovery younger than entry 2 squashes two walked entries.
        r.squash_eager_younger_than(&rob, 2);
        rob.squash_younger_than(2, |e| r.rollback_squashed(e.old_dest, e.dest));
        assert_eq!(r.count_eager_reclaimable(&rob, &iq), (2, 0));
        r.eager_head_committing(&rob);
        let (head, _) = rob.pop_head().expect("a head");
        let (arch, old, _) = head.old_dest.expect("an old mapping");
        r.free_committed(arch.class(), old);
        assert_eq!(r.count_eager_reclaimable(&rob, &iq), (1, 0));
        // The slots the squash freed take new entries, which the next walk
        // visits.
        rob.push(rob_entry_with_rename(5, &mut r, a, true), 0);
        assert_eq!(r.count_eager_reclaimable(&rob, &iq), (2, 0));
    }

    #[test]
    fn reset_from_arch_rebuilds_identity_state() {
        let mut r = subsystem();
        let a = ArchReg::int(1);
        r.rename_dest(a, 1).unwrap();
        r.rename_dest(ArchReg::fp(2), 2).unwrap();
        let mut arch_values = [0u64; NUM_ARCH_REGS];
        arch_values[a.flat_index()] = 99;
        r.reset_from_arch(&arch_values);
        assert_eq!(r.rat().peek(a), PhysReg(1));
        assert_eq!(r.prf(RegClass::Int).peek(PhysReg(1)), 99);
        assert_eq!(
            r.num_free(RegClass::Int),
            40 - pre_model::reg::NUM_INT_ARCH_REGS
        );
        assert_eq!(
            r.num_free(RegClass::Fp),
            36 - pre_model::reg::NUM_FP_ARCH_REGS
        );
    }

    #[test]
    fn rollback_squashed_restores_mapping_and_frees_destination() {
        let mut r = subsystem();
        let a = ArchReg::int(9);
        let rename = r.rename_dest(a, 5).unwrap();
        let free_before = r.num_free(RegClass::Int);
        r.rollback_squashed(
            Some((a, rename.old, rename.old_pc)),
            Some((RegClass::Int, rename.new)),
        );
        assert_eq!(r.rat().peek(a), rename.old);
        assert_eq!(r.num_free(RegClass::Int), free_before + 1);
    }
}
