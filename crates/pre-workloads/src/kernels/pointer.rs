//! Pointer-chasing kernels (mcf / omnetpp / gcc-like behaviour).

use super::{layout, regs};
use crate::builder::KernelBuilder;
use pre_model::isa::{AluOp, BranchCond};
use pre_model::program::Program;
use pre_model::rng::SmallRng;

/// Parameters of a pointer-chasing kernel.
#[derive(Debug, Clone, Copy)]
pub struct PointerChaseSpec {
    /// Workload name.
    pub name: &'static str,
    /// Number of independent linked lists traversed concurrently. Each list
    /// is a distinct stalling slice, which is where PRE's multi-slice
    /// coverage pays off over the single-chain runahead buffer.
    pub lists: usize,
    /// Nodes per list; each node occupies one cache line. The traversal
    /// order is a random cycle, so successive nodes live on different pages.
    pub nodes_per_list: usize,
    /// Additional strided array traffic per iteration (0 disables it). This
    /// models the array scans real pointer-heavy codes interleave with the
    /// chases and gives runahead independent work to prefetch.
    pub strided_arrays: usize,
    /// Integer compute per iteration.
    pub int_compute: usize,
    /// Number of data-dependent branches per iteration, each guarding one
    /// extra integer operation (models the compare-heavy control flow of
    /// mcf/omnetpp/gcc and keeps the window's destination-register density
    /// realistic).
    pub guarded_adds: usize,
    /// Whether one additional data-dependent branch guards a scratch store.
    pub guarded_store: bool,
    /// Whether each iteration unconditionally stores to the scratch region.
    pub store: bool,
}

/// Builds a pointer-chasing kernel and its linked-list memory image.
pub fn pointer_chase(spec: &PointerChaseSpec, iterations: u64, seed: u64) -> Program {
    assert!(spec.lists >= 1 && spec.lists <= 6, "1..=6 lists supported");
    assert!(spec.nodes_per_list >= 2, "lists need at least two nodes");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let mut b = KernelBuilder::new(spec.name);
    let t = regs::counter();
    let n = regs::limit();
    let i = regs::index();
    let mask = regs::mask();
    let acc = regs::acc();
    let out = regs::out_base();
    let one = regs::const_one();

    b.li(t, 0);
    b.li(n, iterations as i64);
    b.li(i, 0);
    b.li(acc, 0);
    b.li(out, layout::SCRATCH_BASE as i64);
    b.li(one, 1);
    // Strided side traffic uses an 8 MB window.
    let stream_ws: u64 = 1 << 23;
    b.li(mask, (stream_ws - 1) as i64);
    for k in 0..spec.strided_arrays {
        b.li(
            regs::stream_base(k),
            (layout::STREAM_BASE + k as u64 * layout::REGION_SPACING) as i64,
        );
    }

    // Build each list as a random cycle over its region and point the chase
    // register at the first node.
    for list in 0..spec.lists {
        let base = layout::LIST_BASE + list as u64 * layout::REGION_SPACING;
        let nodes = spec.nodes_per_list;
        let mut order: Vec<u64> = (0..nodes as u64).collect();
        // Shuffle into a single random cycle.
        rng.shuffle(&mut order);
        for w in 0..nodes {
            let cur = base + order[w] * 64;
            let next = base + order[(w + 1) % nodes] * 64;
            b.init_mem(cur, next);
        }
        let start = base + order[0] * 64;
        b.li(regs::chase_ptr(list), start as i64);
    }

    let loop_top = b.pc();
    // One dependent load per list: `p = mem[p]`.
    for list in 0..spec.lists {
        b.load(regs::chase_ptr(list), regs::chase_ptr(list), 0);
    }
    // Independent strided traffic (the scanned value feeds nothing critical,
    // like a prefetching pass over an arc array).
    for k in 0..spec.strided_arrays {
        b.alu(AluOp::Add, regs::stream_addr(k), regs::stream_base(k), i);
        b.load(regs::tmp(0), regs::stream_addr(k), 0);
    }
    // Integer compute on the accumulator (node bookkeeping that does not
    // depend on the outstanding misses, so it drains from the issue queue
    // quickly — what keeps the paper's "37 % of issue-queue entries free at
    // runahead entry" realistic).
    for c in 0..spec.int_compute {
        let op = if c % 2 == 0 { AluOp::Add } else { AluOp::Xor };
        b.alui(op, acc, acc, 0x2545 + c as i64);
    }
    // Data-dependent branches guarding one extra update each. The first one
    // compares a chased pointer (essentially random, resolves only when the
    // chase load returns — the mispredict-prone case); the remaining ones
    // compare the quickly-available accumulator so they do not pile up in the
    // issue queue behind the misses.
    for g in 0..spec.guarded_adds {
        let skip = b.pc() + 2;
        if g == 0 {
            b.branch(BranchCond::Lt, regs::chase_ptr(0), acc, skip);
        } else {
            b.branch(BranchCond::Lt, acc, mask, skip);
        }
        b.alui(AluOp::Add, acc, acc, 13 + g as i64);
    }
    // Optionally a branch-guarded store (e.g. "update the best arc found").
    if spec.guarded_store {
        let skip = b.pc() + 2;
        b.branch(BranchCond::Ge, acc, mask, skip);
        b.store(acc, out, 64);
    }
    // Unconditional scratch store (hits in the cache; keeps the store queue
    // exercised).
    if spec.store {
        b.store(acc, out, 0);
    }
    // Induction for the strided component.
    if spec.strided_arrays > 0 {
        b.alui(AluOp::Add, i, i, 64);
        b.alu(AluOp::And, i, i, mask);
    }
    b.alui(AluOp::Add, t, t, 1);
    b.branch(BranchCond::Lt, t, n, loop_top);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::program::Interpreter;
    use std::collections::HashSet;

    fn spec() -> PointerChaseSpec {
        PointerChaseSpec {
            name: "chase-test",
            lists: 3,
            nodes_per_list: 256,
            strided_arrays: 1,
            int_compute: 1,
            guarded_adds: 2,
            guarded_store: true,
            store: true,
        }
    }

    #[test]
    fn builds_and_validates() {
        let p = pointer_chase(&spec(), 1_000, 1);
        assert!(p.validate().is_ok());
        assert_eq!(p.initial_mem.len(), 3 * 256);
    }

    #[test]
    fn lists_form_a_single_cycle() {
        let p = pointer_chase(&spec(), 10, 42);
        // For each list region, following the stored pointers must visit all
        // nodes before returning to the start.
        let per_list = 256;
        for list in 0..3u64 {
            let base = layout::LIST_BASE + list * layout::REGION_SPACING;
            let map: std::collections::HashMap<u64, u64> = p
                .initial_mem
                .iter()
                .copied()
                .filter(|(a, _)| *a >= base && *a < base + layout::REGION_SPACING)
                .collect();
            assert_eq!(map.len(), per_list);
            let start = *map.keys().min().unwrap();
            let mut seen = HashSet::new();
            let mut cur = start;
            while seen.insert(cur) {
                cur = map[&cur];
            }
            assert_eq!(seen.len(), per_list, "list {list} is not a single cycle");
        }
    }

    #[test]
    fn chase_is_deterministic_for_a_seed() {
        let a = pointer_chase(&spec(), 10, 7);
        let b = pointer_chase(&spec(), 10, 7);
        assert_eq!(a.initial_mem, b.initial_mem);
        let c = pointer_chase(&spec(), 10, 8);
        assert_ne!(a.initial_mem, c.initial_mem);
    }

    #[test]
    fn runs_functionally_and_halts() {
        let p = pointer_chase(&spec(), 100, 3);
        let mut interp = Interpreter::new(&p);
        interp.run(1_000_000);
        assert!(interp.halted());
        // Pointer registers must stay inside their list regions.
        for list in 0..3 {
            let v = interp.reg(regs::chase_ptr(list));
            let base = layout::LIST_BASE + list as u64 * layout::REGION_SPACING;
            assert!(v >= base && v < base + layout::REGION_SPACING);
        }
    }

    #[test]
    fn guarded_branches_execute_conditionally() {
        let p = pointer_chase(&spec(), 200, 3);
        let mut interp = Interpreter::new(&p);
        interp.run(1_000_000);
        let (branches, taken) = interp.branch_profile();
        // Loop branch + 2 guarded adds + guarded store = 4 per iteration.
        assert_eq!(branches, 200 * 4);
        assert!(taken > 200, "some guards must be taken");
        assert!(taken < 200 * 4, "not every guard can be taken");
    }

    #[test]
    fn destination_density_leaves_rob_as_binding_resource() {
        // The fraction of loop-body micro-ops that write an integer register
        // must stay below 136/192 ≈ 0.71, otherwise the physical register
        // file (and not the ROB) limits the window and PRE has no registers
        // to run ahead with: a 192-entry ROB full of such micro-ops would
        // need more than the 136 renamable integer registers.
        let p = pointer_chase(&spec(), 10, 1);
        let body: Vec<_> = p.insts.iter().skip_while(|i| !i.opcode.is_load()).collect();
        let with_dest = body.iter().filter(|i| i.dest.is_some()).count();
        let density = with_dest as f64 / body.len() as f64;
        assert!(
            density < 0.71,
            "integer destination density too high: {density:.2}"
        );
    }
}
