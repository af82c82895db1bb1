//! Randomized invariant tests of the [`RenameSubsystem`]: under arbitrary
//! interleavings of normal renaming, commits, branch recoveries and precise
//! runahead intervals (runahead renaming, PRDQ drains and the eager drain),
//! physical registers are never double-freed, never freed while mapped or
//! while a waiting micro-op still reads them, and checkpoint/restore puts
//! the rename state back exactly.
//!
//! Driven by the workspace's deterministic [`pre_model::rng::SmallRng`];
//! every case derives from a fixed seed, so failures reproduce exactly.
//! (Double frees additionally trip the free list's assertion.)

use pre_core::iq::{IqEntry, IssueQueue, SrcList};
use pre_core::rename::RenameSubsystem;
use pre_core::rob::{ReorderBuffer, RobHotEntry, Writeback};
use pre_model::isa::{AluOp, BranchCond, OpClass, StaticInst};
use pre_model::reg::{ArchReg, PhysReg, RegClass, NUM_ARCH_REGS, NUM_INT_ARCH_REGS};
use pre_model::rng::SmallRng;

const INT_REGS: usize = 64;
const FP_REGS: usize = 48;
const PRDQ: usize = 24;

fn subsystem() -> RenameSubsystem {
    RenameSubsystem::new(INT_REGS, FP_REGS, PRDQ, &[0u64; NUM_ARCH_REGS])
}

fn int_mappings(r: &RenameSubsystem) -> Vec<PhysReg> {
    r.rat()
        .iter()
        .filter(|(arch, _)| arch.class() == RegClass::Int)
        .map(|(_, phys)| phys)
        .collect()
}

fn assert_no_free_while_mapped(r: &RenameSubsystem) {
    for phys in int_mappings(r) {
        assert!(
            !r.free_list(RegClass::Int).is_free(phys),
            "mapped register {phys} is on the free list"
        );
    }
}

fn assert_no_free_while_referenced(r: &RenameSubsystem, iq: &IssueQueue) {
    for entry in iq.iter() {
        for &(class, reg) in entry.srcs.iter() {
            assert!(
                !r.free_list(class).is_free(reg),
                "register {reg} is free while waiting micro-op {} reads it",
                entry.id
            );
        }
    }
}

/// Normal-mode conservation: renames, in-order commits and youngest-first
/// squashes through the subsystem's reclamation interface neither leak nor
/// duplicate registers, and the RAT stays injective.
#[test]
fn normal_rename_commit_squash_conserves_registers() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0001);
    for _case in 0..48 {
        let mut r = subsystem();
        // Outstanding renames, oldest first.
        let mut outstanding: Vec<(ArchReg, PhysReg, PhysReg, Option<u32>)> = Vec::new();
        let mut pc = 0u32;
        for _ in 0..rng.gen_range_usize(1..250) {
            match rng.gen_below(3) {
                0 => {
                    let arch = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
                    pc += 1;
                    if let Some(rename) = r.rename_dest(arch, pc) {
                        outstanding.push((arch, rename.new, rename.old, rename.old_pc));
                    }
                }
                1 => {
                    if !outstanding.is_empty() {
                        let (_, _, old, _) = outstanding.remove(0);
                        r.free_committed(RegClass::Int, old);
                    }
                }
                _ => {
                    if let Some((arch, new, old, old_pc)) = outstanding.pop() {
                        r.rollback_squashed(Some((arch, old, old_pc)), Some((RegClass::Int, new)));
                    }
                }
            }
            assert_no_free_while_mapped(&r);
            let mut seen = std::collections::HashSet::new();
            for phys in int_mappings(&r) {
                assert!(seen.insert(phys.index()), "RAT not injective at {phys}");
            }
            assert_eq!(
                r.num_free(RegClass::Int) + NUM_INT_ARCH_REGS + outstanding.len(),
                INT_REGS,
                "registers leaked or duplicated"
            );
        }
    }
}

/// Builds a random stalled window: a ROB of renamed instructions (some
/// executed, some waiting in the issue queue, the odd unresolved branch)
/// exactly as the pipeline would leave it at a full-window stall. Returns
/// the `(id, ROB slot)` of every entry, oldest first.
fn build_window(
    rng: &mut SmallRng,
    r: &mut RenameSubsystem,
    rob: &mut ReorderBuffer,
    iq: &mut IssueQueue,
) -> Vec<(u64, u32)> {
    let mut slots = Vec::new();
    let mut id = 0u64;
    for _ in 0..rng.gen_range_usize(1..24) {
        id += 1;
        if rng.gen_below(6) == 0 {
            // An unresolved conditional branch: shadows younger entries.
            let inst = StaticInst::branch(BranchCond::Lt, ArchReg::int(1), ArchReg::int(2), 0);
            let mut entry = RobHotEntry::new(id, id as u32, &inst);
            entry.issued = false;
            slots.push((id, rob.push(entry, id as u32 + 1)));
            continue;
        }
        let arch = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
        let src_arch = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
        let src_phys = r.rat().peek(src_arch);
        let inst = StaticInst::int_alu_imm(AluOp::Add, arch, src_arch, 1);
        let Some(rename) = r.rename_dest(arch, id as u32) else {
            break;
        };
        let mut entry = RobHotEntry::new(id, id as u32, &inst);
        entry.dest = Some((RegClass::Int, rename.new));
        entry.old_dest = Some((arch, rename.old, rename.old_pc));
        let issued = rng.gen_below(3) != 0;
        entry.issued = issued;
        if issued && rng.gen_below(2) == 0 {
            entry.executed = true;
            r.prf_mut(RegClass::Int).set_ready(rename.new, true);
        }
        let rob_slot = rob.push(entry, id as u32 + 1);
        slots.push((id, rob_slot));
        if !issued && !iq.is_full() {
            iq.insert(
                IqEntry {
                    id,
                    rob_slot,
                    pc: id as u32,
                    inst,
                    srcs: SrcList::from_slice(&[(RegClass::Int, src_phys)]),
                    dest: Some((RegClass::Int, rename.new)),
                    class: OpClass::IntAlu,
                    is_runahead: false,
                    store_addr_ready: false,
                },
                |_, _| true,
            );
        }
    }
    slots
}

/// Marks ROB entry `id` in `slot` issued, as the execute stage would.
fn issue_in_rob(rob: &mut ReorderBuffer, slot: u32, id: u64) {
    rob.writeback(
        slot,
        id,
        Writeback {
            completion_cycle: 0,
            result: None,
            mem_addr: None,
            mem_level: None,
            store_value: None,
            mispredicted: false,
        },
    );
}

/// A full precise-runahead interval over a random window: runahead renames,
/// out-of-order completions, PRDQ drains and eager drains interleave
/// randomly; no drain ever frees a mapped or still-referenced register, and
/// the exit restore puts the RAT and free lists back bit-exactly.
#[test]
fn runahead_interval_drains_safely_and_restores_exactly() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0002);
    for _case in 0..48 {
        let mut r = subsystem();
        let mut rob = ReorderBuffer::new(32);
        let mut iq = IssueQueue::new(32);
        build_window(&mut rng, &mut r, &mut rob, &mut iq);

        let int_free_before = r.free_list(RegClass::Int).snapshot();
        let fp_free_before = r.free_list(RegClass::Fp).snapshot();
        let rat_before: Vec<_> = r.rat().iter().collect();

        r.begin_runahead_interval(&rob, &iq);
        let mut live_runahead: Vec<u64> = Vec::new();
        let mut next_id = 1000u64;
        for _ in 0..rng.gen_range_usize(1..60) {
            match rng.gen_below(4) {
                0 => {
                    // Runahead rename on free resources, as the PRE filter
                    // would.
                    let arch = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
                    if !r.prdq().is_full() && r.num_free(RegClass::Int) > 0 {
                        next_id += 1;
                        r.runahead_rename(&StaticInst::load_imm(arch, 7), next_id as u32, next_id);
                        live_runahead.push(next_id);
                    }
                }
                1 => {
                    // An out-of-order completion.
                    if !live_runahead.is_empty() {
                        let pick = rng.gen_range_usize(0..live_runahead.len());
                        r.mark_runahead_executed(live_runahead[pick]);
                    }
                }
                2 => {
                    r.seed_eager(&rob, &iq);
                }
                _ => {
                    r.drain_prdq();
                }
            }
            assert_no_free_while_mapped(&r);
            assert_no_free_while_referenced(&r, &iq);
        }
        // Drain everything still pending, then verify the safety properties
        // one final time.
        for &id in &live_runahead {
            r.mark_runahead_executed(id);
        }
        r.seed_eager(&rob, &iq);
        r.drain_prdq();
        assert_no_free_while_mapped(&r);
        assert_no_free_while_referenced(&r, &iq);

        r.end_runahead_interval(&rob, &iq);
        assert_eq!(
            r.free_list(RegClass::Int).snapshot(),
            int_free_before,
            "int free list not restored exactly"
        );
        assert_eq!(
            r.free_list(RegClass::Fp).snapshot(),
            fp_free_before,
            "fp free list not restored exactly"
        );
        let rat_after: Vec<_> = r.rat().iter().collect();
        assert_eq!(rat_before, rat_after, "RAT not restored exactly");
        assert!(r.prdq().is_empty(), "PRDQ not cleared at exit");
    }
}

/// The eager drain tracks its candidates by events rather than rescanning:
/// during a random interval, in-flight window producers complete, waiting
/// readers issue and unresolved branches resolve, each reported to the
/// tracker the way the pipeline reports it. Every seed pass checks (in
/// debug builds) that the tracked candidates equal a full scan of the
/// window; here every pass must also leave the registers safe, and a final
/// pass with the PRDQ emptied must leave no dead mapping unseeded.
#[test]
fn eager_tracker_follows_random_window_events() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0004);
    let mut seeds = 0;
    for _case in 0..96 {
        let mut r = subsystem();
        let mut rob = ReorderBuffer::new(32);
        let mut iq = IssueQueue::new(32);
        let slots = build_window(&mut rng, &mut r, &mut rob, &mut iq);
        r.begin_runahead_interval(&rob, &iq);
        seeds += r.seed_eager(&rob, &iq);
        let mut next_id = 1000u64;
        for _ in 0..rng.gen_range_usize(1..80) {
            match rng.gen_below(5) {
                0 => {
                    // An issued window producer completes.
                    let in_flight: Vec<_> = rob
                        .iter_slots()
                        .filter(|(_, e)| e.issued && !e.executed)
                        .filter_map(|(slot, e)| Some((slot, e.dest?)))
                        .collect();
                    if !in_flight.is_empty() {
                        let (slot, (class, reg)) =
                            in_flight[rng.gen_range_usize(0..in_flight.len())];
                        rob.set_executed(slot);
                        r.prf_mut(class).set_ready(reg, true);
                        r.recheck_eager(class, reg, &iq);
                    }
                }
                1 => {
                    // A waiting reader whose sources are ready issues.
                    let ready: Vec<_> = iq
                        .iter()
                        .filter(|e| e.srcs.iter().all(|&(c, p)| r.prf(c).is_ready(p)))
                        .copied()
                        .collect();
                    if !ready.is_empty() {
                        let entry = ready[rng.gen_range_usize(0..ready.len())];
                        assert_eq!(iq.remove_where(|e| e.id == entry.id), 1);
                        issue_in_rob(&mut rob, entry.rob_slot, entry.id);
                        for &(class, reg) in entry.srcs.iter() {
                            if iq.readers(class, reg) == 0 {
                                r.recheck_eager(class, reg, &iq);
                            }
                        }
                    }
                }
                2 => {
                    // The oldest unresolved branch resolves correctly.
                    let branch = rob
                        .iter()
                        .find(|e| e.is_cond_branch && !e.issued)
                        .map(|e| e.id);
                    if let Some(id) = branch {
                        let &(_, slot) = slots.iter().find(|s| s.0 == id).expect("pushed");
                        issue_in_rob(&mut rob, slot, id);
                    }
                }
                3 => {
                    // A runahead micro-op renames on a free register.
                    let arch = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
                    if !r.prdq().is_full() && r.num_free(RegClass::Int) > 0 {
                        next_id += 1;
                        r.runahead_rename(&StaticInst::load_imm(arch, 7), next_id as u32, next_id);
                        r.mark_runahead_executed(next_id);
                    }
                }
                _ => {
                    seeds += r.seed_eager(&rob, &iq);
                    r.drain_prdq();
                }
            }
            assert_no_free_while_mapped(&r);
            assert_no_free_while_referenced(&r, &iq);
        }
        r.drain_prdq();
        seeds += r.seed_eager(&rob, &iq);
        assert!(
            !r.prdq().is_full(),
            "a drained PRDQ has room for every seed"
        );
        assert_eq!(
            r.count_eager_reclaimable(&rob, &iq),
            (0, 0),
            "a pass with PRDQ room seeds every dead mapping"
        );
        r.end_runahead_interval(&rob, &iq);
    }
    assert!(seeds > 100, "the cases must exercise real seeds ({seeds})");
}

/// The interval checkpoint round-trips under random branch-recovery
/// interleavings: renames and recoveries applied *after* the entry are
/// undone by the exit (the free lists come back in the same allocation
/// order), and the pre-entry history stays committable.
#[test]
fn checkpoint_restore_roundtrips_under_branch_recovery() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0003);
    for _case in 0..48 {
        let mut r = subsystem();
        let mut outstanding: Vec<(ArchReg, PhysReg, PhysReg, Option<u32>)> = Vec::new();
        // Random pre-history.
        for pc in 0..rng.gen_range_usize(1..40) {
            let arch = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
            if let Some(rename) = r.rename_dest(arch, pc as u32) {
                outstanding.push((arch, rename.new, rename.old, rename.old_pc));
            }
        }
        let int_free_at_cp = r.free_list(RegClass::Int).snapshot();
        let rat_at_cp: Vec<_> = r.rat().iter().collect();
        let (rob, iq) = (ReorderBuffer::new(8), IssueQueue::new(8));
        r.begin_runahead_interval(&rob, &iq);

        // Random post-checkpoint activity: more renames and random
        // branch-recovery rollbacks of the youngest outstanding rename.
        let mut speculative: Vec<(ArchReg, PhysReg, PhysReg, Option<u32>)> = Vec::new();
        for pc in 100..100 + rng.gen_range_usize(1..40) {
            if rng.gen_below(3) == 0 {
                if let Some((arch, new, old, old_pc)) = speculative.pop() {
                    r.rollback_squashed(Some((arch, old, old_pc)), Some((RegClass::Int, new)));
                }
            } else {
                let arch = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
                if let Some(rename) = r.rename_dest(arch, pc as u32) {
                    speculative.push((arch, rename.new, rename.old, rename.old_pc));
                }
            }
            assert_no_free_while_mapped(&r);
        }

        r.end_runahead_interval(&rob, &iq);
        assert_eq!(r.free_list(RegClass::Int).snapshot(), int_free_at_cp);
        let rat_restored: Vec<_> = r.rat().iter().collect();
        assert_eq!(rat_at_cp, rat_restored);
        // The pre-checkpoint history is still committable afterwards.
        for (_, _, old, _) in outstanding {
            r.free_committed(RegClass::Int, old);
        }
    }
}

/// One micro-op of the [`Machine`] below that issued and has not completed.
#[derive(Clone, Copy)]
struct InFlight {
    id: u64,
    /// ROB slot of a normal micro-op; `None` for a runahead micro-op.
    rob_slot: Option<u32>,
    dest: Option<(RegClass, PhysReg)>,
}

/// A small out-of-order machine around a [`RenameSubsystem`] that reports
/// to the eager-drain tracker exactly what a PRE core reports: producer
/// completions and last-reader issues in both modes, commits of the ROB
/// head and branch squashes. Its steps are random.
struct Machine {
    r: RenameSubsystem,
    rob: ReorderBuffer,
    iq: IssueQueue,
    in_flight: Vec<InFlight>,
    next_id: u64,
    in_runahead: bool,
    /// ROB ids whose previous mapping was seeded in the current interval.
    seeded: Vec<u64>,
}

impl Machine {
    fn new() -> Self {
        Machine {
            r: subsystem(),
            rob: ReorderBuffer::new(24),
            iq: IssueQueue::new(16),
            in_flight: Vec::new(),
            next_id: 1,
            in_runahead: false,
            seeded: Vec::new(),
        }
    }

    /// The reference: a fresh scan of the window up to the oldest unissued
    /// conditional branch for dead, unseeded previous mappings, oldest
    /// first — what a tracker reset at every entry would find.
    fn reference(&self) -> Vec<(RegClass, PhysReg)> {
        let mapped: Vec<PhysReg> = int_mappings(&self.r);
        let mut dead = Vec::new();
        for entry in self.rob.iter() {
            if let Some((arch, old, _)) = entry.old_dest {
                let class = arch.class();
                if !self.seeded.contains(&entry.id)
                    && self.r.prf(class).is_ready(old)
                    && self.iq.readers(class, old) == 0
                    && !self.r.free_list(class).is_free(old)
                    && !mapped.contains(&old)
                {
                    dead.push((class, old));
                }
            }
            if entry.is_cond_branch && !entry.issued {
                break;
            }
        }
        dead
    }

    fn check_counts(&mut self) {
        let reference = self.reference();
        let ints = reference.iter().filter(|c| c.0 == RegClass::Int).count();
        assert_eq!(
            self.r.count_eager_reclaimable(&self.rob, &self.iq),
            (ints, reference.len() - ints),
            "carried tracker differs from a fresh scan"
        );
    }

    fn dispatch(&mut self, rng: &mut SmallRng) {
        if self.in_runahead || self.rob.is_full() || self.iq.is_full() {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let a = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
        let b = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
        let inst = if rng.gen_below(5) == 0 {
            StaticInst::branch(BranchCond::Lt, a, b, 0)
        } else {
            StaticInst::int_alu(AluOp::Add, a, a, b)
        };
        let srcs = self.r.lookup_sources(&inst);
        let mut entry = RobHotEntry::new(id, id as u32, &inst);
        if let Some(d) = inst.dest {
            let Some(rename) = self.r.rename_dest(d, id as u32) else {
                return;
            };
            entry.dest = Some((d.class(), rename.new));
            entry.old_dest = Some((d, rename.old, rename.old_pc));
        }
        let dest = entry.dest;
        let rob_slot = self.rob.push(entry, id as u32 + 1);
        let r = &self.r;
        self.iq.insert(
            IqEntry {
                id,
                rob_slot,
                pc: id as u32,
                inst,
                srcs,
                dest,
                class: inst.opcode.class(),
                is_runahead: false,
                store_addr_ready: false,
            },
            |class, reg| r.prf(class).is_ready(reg),
        );
    }

    /// Issues a random waiting micro-op whose sources are ready; a normal
    /// branch mispredicts one time in four.
    fn issue(&mut self, rng: &mut SmallRng) {
        let ready: Vec<IqEntry> = self
            .iq
            .iter()
            .filter(|e| e.srcs.iter().all(|&(c, p)| self.r.prf(c).is_ready(p)))
            .copied()
            .collect();
        if ready.is_empty() {
            return;
        }
        let entry = ready[rng.gen_range_usize(0..ready.len())];
        assert_eq!(self.iq.remove_where(|e| e.id == entry.id), 1);
        let rob_slot = (!entry.is_runahead).then_some(entry.rob_slot);
        if let Some(slot) = rob_slot {
            issue_in_rob(&mut self.rob, slot, entry.id);
            for &(class, reg) in entry.srcs.iter() {
                if self.iq.readers(class, reg) == 0 {
                    self.r.recheck_eager(class, reg, &self.iq);
                }
            }
        }
        self.in_flight.push(InFlight {
            id: entry.id,
            rob_slot,
            dest: entry.dest,
        });
        if entry.inst.opcode.is_cond_branch() && !entry.is_runahead && rng.gen_below(4) == 0 {
            self.recover(entry.id);
        }
    }

    /// Branch recovery after branch `branch_id` mispredicted: a runahead
    /// interval ends first, then every younger micro-op is squashed.
    fn recover(&mut self, branch_id: u64) {
        if self.in_runahead {
            self.exit();
        }
        self.r.squash_eager_younger_than(&self.rob, branch_id);
        let r = &mut self.r;
        self.rob.squash_younger_than(branch_id, |e| {
            r.rollback_squashed(e.old_dest, e.dest);
        });
        self.iq.remove_where(|e| e.id > branch_id);
        self.in_flight.retain(|f| f.id <= branch_id);
    }

    fn complete(&mut self, rng: &mut SmallRng) {
        if self.in_flight.is_empty() {
            return;
        }
        let done = self
            .in_flight
            .swap_remove(rng.gen_range_usize(0..self.in_flight.len()));
        match done.rob_slot {
            Some(slot) => {
                self.rob.set_executed(slot);
                if let Some((class, reg)) = done.dest {
                    self.r.prf_mut(class).set_ready(reg, true);
                    self.r.recheck_eager(class, reg, &self.iq);
                }
            }
            None => {
                if let Some((class, reg)) = done.dest {
                    self.r.prf_mut(class).set_ready(reg, true);
                }
                self.r.mark_runahead_executed(done.id);
            }
        }
    }

    fn commit(&mut self) {
        if self.in_runahead || !self.rob.head().is_some_and(|h| h.executed) {
            return;
        }
        self.r.eager_head_committing(&self.rob);
        let (entry, _) = self.rob.pop_head().expect("head checked");
        if let Some((arch, old, _)) = entry.old_dest {
            self.r.free_committed(arch.class(), old);
        }
    }

    /// One seed pass and PRDQ drain; returns the registers it freed. The
    /// pass must seed the reference's dead mappings oldest first, until the
    /// PRDQ is full.
    fn seed_and_drain(&mut self) -> Vec<PhysReg> {
        let reference = self.reference();
        let room = self.r.prdq().capacity() - self.r.prdq().len();
        let before = self.r.free_list(RegClass::Int).snapshot();
        assert_eq!(
            self.r.seed_eager(&self.rob, &self.iq),
            reference.len().min(room),
            "seeds differ from a fresh scan"
        );
        for e in self.r.prdq().iter().filter(|e| e.eager) {
            if !self.seeded.contains(&e.uop_id) {
                self.seeded.push(e.uop_id);
            }
        }
        self.r.drain_prdq();
        let mut freed: Vec<PhysReg> = self
            .r
            .free_list(RegClass::Int)
            .snapshot()
            .into_iter()
            .filter(|p| !before.contains(p))
            .collect();
        freed.sort_unstable_by_key(|p| p.index());
        freed
    }

    /// Enters an interval and checks its eager frees against the reference.
    fn enter(&mut self) {
        let mut expected: Vec<PhysReg> = self
            .reference()
            .into_iter()
            .take(self.r.prdq().capacity())
            .map(|c| c.1)
            .collect();
        expected.sort_unstable_by_key(|p| p.index());
        self.r.begin_runahead_interval(&self.rob, &self.iq);
        self.in_runahead = true;
        // The PRDQ is empty at entry, so every seed drains at once.
        assert_eq!(self.seed_and_drain(), expected, "registers freed at entry");
    }

    fn exit(&mut self) {
        self.iq.remove_runahead();
        self.in_flight.retain(|f| f.rob_slot.is_some());
        self.r.end_runahead_interval(&self.rob, &self.iq);
        self.in_runahead = false;
        self.seeded.clear();
    }

    fn runahead_rename(&mut self, rng: &mut SmallRng) {
        if !self.in_runahead
            || self.iq.is_full()
            || self.r.prdq().is_full()
            || self.r.num_free(RegClass::Int) == 0
        {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let a = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
        let b = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
        let inst = StaticInst::int_alu(AluOp::Add, a, a, b);
        let (srcs, dest) = self.r.runahead_rename(&inst, id as u32, id);
        let r = &self.r;
        self.iq.insert(
            IqEntry {
                id,
                rob_slot: pre_core::rob::INVALID_SLOT,
                pc: id as u32,
                inst,
                srcs,
                dest,
                class: OpClass::IntAlu,
                is_runahead: true,
                store_addr_ready: false,
            },
            |class, reg| r.prf(class).is_ready(reg),
        );
    }
}

/// The eager-drain tracker is carried across intervals: under random
/// dispatches, issues, completions, commits and branch squashes interleaved
/// with several PRE intervals (with runahead renaming re-allocating eagerly
/// freed registers), its per-class counts equal a fresh scan whenever they
/// are asked for, every seed pass seeds what the fresh scan finds, and the registers
/// each entry frees equal those of a tracker reset at that entry. (Debug
/// builds also compare the tracker's slots, frontier and owner records with
/// a full scan inside every call.)
#[test]
fn carried_eager_tracker_matches_a_fresh_scan_across_intervals() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0005);
    let (mut intervals, mut eager_frees) = (0, 0);
    for _case in 0..64 {
        let mut m = Machine::new();
        for _ in 0..rng.gen_range_usize(100..400) {
            match rng.gen_below(16) {
                0..=3 => m.dispatch(&mut rng),
                4..=6 => m.issue(&mut rng),
                7..=9 => m.complete(&mut rng),
                10 | 11 => m.commit(),
                12 => m.runahead_rename(&mut rng),
                13 if m.in_runahead => {
                    eager_frees += m.seed_and_drain().len();
                }
                14 if !m.in_runahead => {
                    m.enter();
                    intervals += 1;
                }
                15 if m.in_runahead => m.exit(),
                _ => {}
            }
            // Counting extends the walk, so the walk lags behind the
            // window between counts, as it does behind the pipeline's
            // (which counts only at a gated stall).
            if rng.gen_below(16) == 0 {
                m.check_counts();
            }
            assert_no_free_while_mapped(&m.r);
            assert_no_free_while_referenced(&m.r, &m.iq);
        }
        if m.in_runahead {
            m.exit();
            m.check_counts();
        }
    }
    assert!(intervals > 500, "the cases must enter often ({intervals})");
    assert!(
        eager_frees > 50,
        "mid-interval passes must free ({eager_frees})"
    );
}

/// The one non-monotone case: a previous mapping freed by the eager drain
/// and re-allocated by runahead renaming comes back at the exit as a mapped
/// out, not ready register, and the next interval does not seed it.
#[test]
fn reallocated_eager_free_is_not_reseeded_after_the_exit() {
    let mut r = subsystem();
    let mut rob = ReorderBuffer::new(8);
    let iq = IssueQueue::new(8);
    let a = ArchReg::int(5);
    // Two executed redefinitions of `a`: both previous mappings are dead.
    for id in 1..=2u64 {
        let inst = StaticInst::int_alu_imm(AluOp::Add, a, a, 1);
        let rename = r.rename_dest(a, id as u32).expect("free register");
        let mut entry = RobHotEntry::new(id, id as u32, &inst);
        entry.dest = Some((RegClass::Int, rename.new));
        entry.old_dest = Some((a, rename.old, rename.old_pc));
        entry.issued = true;
        entry.executed = true;
        r.prf_mut(RegClass::Int).set_ready(rename.new, true);
        rob.push(entry, id as u32 + 1);
    }
    let olds: Vec<PhysReg> = rob.iter().map(|e| e.old_dest.unwrap().1).collect();

    r.begin_runahead_interval(&rob, &iq);
    assert_eq!(r.seed_eager(&rob, &iq), 2);
    assert_eq!(r.drain_prdq(), (2, 0));
    // The free list is a stack: runahead renaming takes the register the
    // drain freed last, the second entry's previous mapping.
    let (_, dest) = r.runahead_rename(&StaticInst::load_imm(ArchReg::int(7), 1), 100, 100);
    let (_, reused) = dest.expect("a destination");
    assert_eq!(reused, olds[1]);
    r.end_runahead_interval(&rob, &iq);

    assert!(!r.free_list(RegClass::Int).is_free(reused));
    assert!(
        !r.prf(RegClass::Int).is_ready(reused),
        "the re-allocation cleared the ready bit and no producer set it again"
    );
    assert_eq!(r.count_eager_reclaimable(&rob, &iq), (1, 0));

    r.begin_runahead_interval(&rob, &iq);
    assert_eq!(r.seed_eager(&rob, &iq), 1, "only the untouched mapping");
    assert_eq!(r.drain_prdq(), (1, 0));
    assert!(r.free_list(RegClass::Int).is_free(olds[0]));
    assert!(!r.free_list(RegClass::Int).is_free(reused));
    r.end_runahead_interval(&rob, &iq);
    assert_eq!(r.count_eager_reclaimable(&rob, &iq), (1, 0));
}
