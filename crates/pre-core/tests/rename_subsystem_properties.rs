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
use pre_core::rob::{ReorderBuffer, RobEntry, Writeback};
use pre_core::uop::DynUop;
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
            let mut entry = RobEntry::new(id, DynUop::sequential(id as u32), &inst);
            entry.issued = false;
            slots.push((id, rob.push(entry)));
            continue;
        }
        let arch = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
        let src_arch = ArchReg::int(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8);
        let src_phys = r.rat().peek(src_arch);
        let inst = StaticInst::int_alu_imm(AluOp::Add, arch, src_arch, 1);
        let Some(rename) = r.rename_dest(arch, id as u32) else {
            break;
        };
        let mut entry = RobEntry::new(id, DynUop::sequential(id as u32), &inst);
        entry.dest = Some((RegClass::Int, rename.new));
        entry.old_dest = Some((arch, rename.old, rename.old_pc));
        let issued = rng.gen_below(3) != 0;
        entry.issued = issued;
        if issued && rng.gen_below(2) == 0 {
            entry.executed = true;
            r.prf_mut(RegClass::Int).set_ready(rename.new, true);
        }
        let rob_slot = rob.push(entry);
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
                    dispatched_at: 0,
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
            actual_next_pc: None,
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

        let checkpoint = r.begin_runahead_interval();
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

        r.end_runahead_interval(checkpoint);
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
        let checkpoint = r.begin_runahead_interval();
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
        r.end_runahead_interval(checkpoint);
    }
    assert!(seeds > 100, "the cases must exercise real seeds ({seeds})");
}

/// Checkpoint/restore round-trips under random branch-recovery
/// interleavings: recoveries applied *after* the checkpoint are undone by
/// the restore, and recoveries applied in normal mode keep the subsystem
/// consistent with a recovery-free reference.
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
        let checkpoint = r.checkpoint();

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

        r.restore(&checkpoint);
        assert_eq!(r.free_list(RegClass::Int).snapshot(), int_free_at_cp);
        let rat_restored: Vec<_> = r.rat().iter().collect();
        assert_eq!(rat_at_cp, rat_restored);
        // The pre-checkpoint history is still committable afterwards.
        for (_, _, old, _) in outstanding {
            r.free_committed(RegClass::Int, old);
        }
    }
}
