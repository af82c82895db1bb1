//! Randomized-property tests of the rename machinery: for arbitrary
//! sequences of renames, commits, rollbacks and checkpoint/restore
//! operations, physical registers are never leaked, never double-freed, and
//! the RAT always maps every architectural register to a register that is
//! not on the free list.
//!
//! Driven by the workspace's deterministic [`pre_model::rng::SmallRng`]
//! instead of proptest (no crates.io access); every case derives from a fixed
//! seed, so failures reproduce exactly.

use pre_core::freelist::FreeList;
use pre_core::rat::RegisterAliasTable;
use pre_core::rob::{ReorderBuffer, RobHotEntry};
use pre_model::isa::StaticInst;
use pre_model::reg::{ArchReg, NUM_INT_ARCH_REGS};
use pre_model::rng::SmallRng;

/// One step of the random rename workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Rename architectural register `r` (like dispatching a producer of r).
    Rename(u8),
    /// Commit the oldest outstanding rename (free its previous mapping).
    CommitOldest,
    /// Squash the youngest outstanding rename (rollback + free new mapping).
    SquashYoungest,
}

fn random_op(rng: &mut SmallRng) -> Op {
    match rng.gen_below(3) {
        0 => Op::Rename(rng.gen_range_usize(0..NUM_INT_ARCH_REGS) as u8),
        1 => Op::CommitOldest,
        _ => Op::SquashYoungest,
    }
}

/// Conservation of physical registers across arbitrary rename/commit/squash
/// interleavings: free + live-mapped + pending-free = capacity, and the RAT
/// never maps two architectural registers to one physical register.
#[test]
fn rename_commit_squash_conserves_registers() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0001);
    for _case in 0..48 {
        let len = rng.gen_range_usize(1..300);
        let capacity = 64usize;
        let mut rat = RegisterAliasTable::new();
        let mut free = FreeList::new(capacity, NUM_INT_ARCH_REGS);
        // Outstanding renames, oldest first: (arch, new_phys, old_phys, old_pc).
        let mut outstanding: Vec<(
            ArchReg,
            pre_model::reg::PhysReg,
            pre_model::reg::PhysReg,
            Option<u32>,
        )> = Vec::new();
        let mut pc = 0u32;

        for _ in 0..len {
            match random_op(&mut rng) {
                Op::Rename(r) => {
                    if let Some(new) = free.allocate() {
                        let arch = ArchReg::int(r % NUM_INT_ARCH_REGS as u8);
                        pc += 1;
                        let (old, old_pc) = rat.rename(arch, new, pc);
                        outstanding.push((arch, new, old, old_pc));
                    }
                }
                Op::CommitOldest => {
                    if !outstanding.is_empty() {
                        let (_, _, old, _) = outstanding.remove(0);
                        free.free(old);
                    }
                }
                Op::SquashYoungest => {
                    if let Some((arch, new, old, old_pc)) = outstanding.pop() {
                        rat.rollback(arch, old, old_pc);
                        free.free(new);
                    }
                }
            }
            // Invariant 1: no physical register is both free and mapped.
            for (_, phys) in rat.iter().take(NUM_INT_ARCH_REGS) {
                assert!(
                    !free.is_free(phys),
                    "mapped register {phys} is on the free list"
                );
            }
            // Invariant 2: the RAT mapping is injective over the int class.
            let mut seen = std::collections::HashSet::new();
            for (arch, phys) in rat.iter() {
                if arch.class() == pre_model::reg::RegClass::Int {
                    assert!(
                        seen.insert(phys.index()),
                        "two architectural registers map to {phys}"
                    );
                }
            }
            // Invariant 3: register conservation.
            assert_eq!(
                free.num_free() + NUM_INT_ARCH_REGS + outstanding.len(),
                capacity,
                "registers leaked or duplicated"
            );
        }
    }
}

/// Checkpoint/restore puts the RAT back exactly, regardless of what happened
/// in between.
#[test]
fn rat_checkpoint_restore_is_exact() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0002);
    for _case in 0..48 {
        let len = rng.gen_range_usize(1..100);
        let renames: Vec<(u8, u16)> = (0..len)
            .map(|_| {
                (
                    rng.gen_range_usize(0..32) as u8,
                    rng.gen_range_usize(32..64) as u16,
                )
            })
            .collect();
        let mut rat = RegisterAliasTable::new();
        for (i, &(arch, phys)) in renames.iter().enumerate() {
            if i == renames.len() / 2 {
                let checkpoint = rat.checkpoint();
                let before: Vec<_> = rat.iter().collect();
                // Apply the rest, then restore.
                let mut scratch = rat.clone();
                for &(a2, p2) in &renames[i..] {
                    scratch.rename(ArchReg::int(a2 % 32), pre_model::reg::PhysReg(p2), 7);
                }
                scratch.restore(&checkpoint);
                let after: Vec<_> = scratch.iter().collect();
                assert_eq!(before, after);
            }
            rat.rename(
                ArchReg::int(arch % 32),
                pre_model::reg::PhysReg(phys),
                i as u32,
            );
        }
    }
}

/// The ROB keeps program order: squashing younger than an id never removes
/// older entries, and what remains is still sorted by id.
#[test]
fn rob_squash_preserves_order() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0003);
    for _case in 0..64 {
        let count = rng.gen_range_usize(1..60);
        let cut = rng.gen_range_u64(0..80);
        let mut rob = ReorderBuffer::new(64);
        for id in 1..=count as u64 {
            let pc = id as u32;
            rob.push(RobHotEntry::new(id, pc, &StaticInst::nop()), pc + 1);
        }
        let mut squashed = Vec::new();
        let removed = rob.squash_younger_than(cut, |e| squashed.push(e.id));
        assert_eq!(removed, squashed.len());
        for w in squashed.windows(2) {
            assert!(w[0] > w[1], "squash must run youngest-first");
        }
        for &id in &squashed {
            assert!(id > cut);
        }
        let remaining: Vec<u64> = rob.iter().map(|e| e.id).collect();
        for w in remaining.windows(2) {
            assert!(w[0] < w[1], "ROB order violated");
        }
        for &id in &remaining {
            assert!(id <= cut, "id {id} survived squash_younger_than({cut})");
        }
        assert_eq!(remaining.len() + squashed.len(), count);
    }
}
