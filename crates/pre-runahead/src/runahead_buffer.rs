//! The runahead buffer (Hashemi et al., MICRO 2015) — the prior work PRE is
//! compared against.
//!
//! On a full-window stall, the runahead buffer performs a backward data-flow
//! walk in the ROB (and store queue) to find the dependence chain that leads
//! to another dynamic instance of the stalling load, stores that chain
//! (up to 32 micro-ops) in a dedicated buffer in front of the rename stage,
//! and then — after discarding the window as traditional runahead does —
//! replays only that chain in a loop for the duration of the runahead
//! interval. The front-end is power-gated while the chain replays.
//!
//! Two pieces are implemented here:
//!
//! * [`extract_chain`] — the backward data-flow walk over a program-order
//!   snapshot of the ROB.
//! * [`ChainReplayEngine`] — the loop that renames/executes the buffered
//!   chain with data-flow timing, issuing prefetches into the memory
//!   hierarchy. The engine maintains its own small register context seeded
//!   from the architectural values at runahead entry, so pointer-chasing and
//!   induction-variable chains generate successive addresses exactly as the
//!   hardware would.

use pre_mem::{AccessKind, HitLevel, MemoryHierarchy};
use pre_model::isa::{extract_forwarded_bytes, range_contains, OpClass, StaticInst};
use pre_model::reg::{ArchReg, NUM_ARCH_REGS};
use std::collections::VecDeque;

/// A program-order view of one ROB entry, as needed by the chain walk.
#[derive(Debug, Clone, Copy)]
pub struct WindowUop {
    /// The instruction's PC.
    pub pc: u32,
    /// The static instruction.
    pub inst: StaticInst,
}

/// Extracts the dependence chain leading to the *youngest* in-window instance
/// of the stalling load (PC `stalling_pc`).
///
/// `window` is the ROB contents in program order, oldest first (the stalling
/// load at the head is expected at index 0). The walk starts from the
/// youngest other instance of the same PC — replaying the chain from that
/// instance generates the addresses of *future* instances. Returns `None`
/// when the window contains no second instance (the caller falls back to
/// traditional runahead for this interval, as the original proposal does when
/// no chain can be built).
///
/// The returned chain is in program order and ends with the stalling load
/// itself; it is truncated to `max_len` micro-ops (32 in the original
/// proposal).
pub(crate) fn extract_chain(
    window: &[WindowUop],
    stalling_pc: u32,
    max_len: usize,
) -> Option<Vec<StaticInst>> {
    // The walk needs *another* dynamic instance of the stalling load: at
    // least two entries with the stalling PC must be in the window. Start
    // from the youngest one.
    let instances = window.iter().filter(|u| u.pc == stalling_pc).count();
    if instances < 2 {
        return None;
    }
    let start_idx = window
        .iter()
        .enumerate()
        .rev()
        .find(|(_, u)| u.pc == stalling_pc)
        .map(|(i, _)| i)?;

    let mut needed = [false; NUM_ARCH_REGS];
    for src in window[start_idx].inst.sources() {
        needed[src.flat_index()] = true;
    }
    let mut chain_rev: Vec<StaticInst> = vec![window[start_idx].inst];
    let mut chain_pcs: Vec<u32> = vec![stalling_pc];

    for uop in window[..start_idx].iter().rev() {
        if chain_rev.len() >= max_len {
            break;
        }
        let dest = match uop.inst.dest {
            Some(d) => d,
            None => continue,
        };
        if !needed[dest.flat_index()] {
            continue;
        }
        // This micro-op produces a value the chain needs: absorb it and chase
        // its own sources instead. Only one instance of each static
        // instruction enters the chain — the buffer stores a loop body, not
        // an unrolled trace (Hashemi et al. deduplicate by PC).
        needed[dest.flat_index()] = false;
        for src in uop.inst.sources() {
            needed[src.flat_index()] = true;
        }
        if !chain_pcs.contains(&uop.pc) {
            chain_pcs.push(uop.pc);
            chain_rev.push(uop.inst);
        }
    }

    chain_rev.reverse();
    Some(chain_rev)
}

/// The runahead buffer itself: the extracted chain plus bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct RunaheadBuffer {
    chain: Vec<StaticInst>,
    /// Number of backward data-flow walks performed (each is an expensive
    /// CAM search over the ROB, charged by the energy model).
    walks: u64,
}

impl RunaheadBuffer {
    /// Creates an empty runahead buffer.
    pub fn new() -> Self {
        RunaheadBuffer::default()
    }

    /// Performs the backward data-flow walk and loads the buffer. Returns
    /// `true` when a chain was found.
    pub fn fill_from_window(
        &mut self,
        window: &[WindowUop],
        stalling_pc: u32,
        max_len: usize,
    ) -> bool {
        self.walks += 1;
        match extract_chain(window, stalling_pc, max_len) {
            Some(chain) => {
                self.chain = chain;
                true
            }
            None => {
                self.chain.clear();
                false
            }
        }
    }

    /// The buffered chain (empty if the last walk failed).
    pub fn chain(&self) -> &[StaticInst] {
        &self.chain
    }

    /// Number of data-flow walks performed.
    pub fn walks(&self) -> u64 {
        self.walks
    }
}

/// Loads whose data is further away than this many cycles are treated as
/// prefetches during chain replay: the destination is marked invalid and the
/// replay continues (Mutlu et al.'s INV semantics), instead of blocking the
/// whole loop behind one miss.
const REPLAY_INV_THRESHOLD: u64 = 40;

#[derive(Debug, Clone, Copy)]
struct RegState {
    value: u64,
    ready_at: u64,
    inv: bool,
}

/// Data-flow replay of a buffered chain during a runahead interval.
#[derive(Debug, Clone)]
pub struct ChainReplayEngine {
    chain: Vec<StaticInst>,
    regs: Vec<RegState>,
    pos: usize,
    uops_executed: u64,
    loads_executed: u64,
    prefetches_issued: u64,
    inv_loads: u64,
    /// Pending store-forwarding `(addr, len, value)` byte ranges produced by
    /// chain stores (rarely used; chains are address-generation slices).
    store_buffer: VecDeque<(u64, u64, u64)>,
}

impl ChainReplayEngine {
    /// Creates a replay engine for `chain`.
    ///
    /// `initial_regs` supplies the architectural register values at runahead
    /// entry (speculative rename-table values, exactly what the hardware
    /// reads); `inv_regs` lists registers whose values are invalid because
    /// they depend on the stalling load's missing data.
    pub fn new(
        chain: Vec<StaticInst>,
        initial_regs: &[u64],
        inv_regs: &[ArchReg],
        now: u64,
    ) -> Self {
        assert_eq!(
            initial_regs.len(),
            NUM_ARCH_REGS,
            "need all architectural registers"
        );
        let mut regs = vec![
            RegState {
                value: 0,
                ready_at: now,
                inv: false
            };
            NUM_ARCH_REGS
        ];
        for (i, &v) in initial_regs.iter().enumerate() {
            regs[i].value = v;
        }
        for r in inv_regs {
            regs[r.flat_index()].inv = true;
        }
        ChainReplayEngine {
            chain,
            regs,
            pos: 0,
            uops_executed: 0,
            loads_executed: 0,
            prefetches_issued: 0,
            inv_loads: 0,
            store_buffer: VecDeque::new(),
        }
    }

    /// Replays up to `width` chain micro-ops at cycle `now`, issuing
    /// prefetches into `mem`. Micro-ops whose source operands are not ready
    /// yet (e.g. waiting on a previous chain load) stall the replay for this
    /// cycle, exactly like an in-order dispatch of the buffered chain.
    ///
    /// `latency_of` supplies the execution latency per operation class.
    /// `read_mem` supplies the raw bytes a (non-binding, speculative) chain
    /// load of the given `(address, length)` observes — the pipeline wires
    /// this to its functional memory so chains that traverse loaded values
    /// (pointer chases, indexed gathers) compute real future addresses; the
    /// engine applies the load's sign/zero extension itself.
    pub fn step(
        &mut self,
        now: u64,
        width: usize,
        mem: &mut MemoryHierarchy,
        latency_of: impl Fn(OpClass) -> u64,
        read_mem: impl Fn(u64, u64) -> u64,
    ) {
        if self.chain.is_empty() {
            return;
        }
        for _ in 0..width {
            let inst = self.chain[self.pos];
            // Source readiness / validity.
            let mut start = now;
            let mut inv = false;
            for src in inst.sources() {
                let s = self.regs[src.flat_index()];
                if s.ready_at > now {
                    return; // data-flow stall this cycle
                }
                start = start.max(s.ready_at);
                inv |= s.inv;
            }
            let src1 = inst
                .src1
                .map(|r| self.regs[r.flat_index()].value)
                .unwrap_or(0);
            let src2 = inst
                .src2
                .map(|r| self.regs[r.flat_index()].value)
                .unwrap_or(0);

            let (result, ready_at) = if let Some(load_access) = inst.opcode.load_access() {
                self.loads_executed += 1;
                if inv {
                    self.inv_loads += 1;
                    (0, now + 1)
                } else {
                    let len = load_access.width.bytes();
                    let addr = inst.effective_address(src1);
                    // The replay shares the core's MSHRs: when no miss slot
                    // is free the chain stalls for this cycle, which bounds
                    // how fast the buffer can flood the memory system.
                    if !mem.in_l1d(addr) && !mem.data_mshr_available(now) {
                        self.loads_executed -= 1;
                        return;
                    }
                    // Youngest chain store whose byte range contains the
                    // load's forwards its overlapping bytes.
                    let forwarded = self
                        .store_buffer
                        .iter()
                        .rev()
                        .find(|&&(a, l, _)| range_contains(a, l, addr, len))
                        .map(|&(a, _, v)| extract_forwarded_bytes(a, v, addr, len));
                    let access = mem.load_range(addr, len, now, AccessKind::Prefetch);
                    if access.initiated_dram_fill || access.level == HitLevel::L3 {
                        self.prefetches_issued += 1;
                    }
                    let raw = forwarded.unwrap_or_else(|| read_mem(addr, len));
                    let value = load_access.extend(raw);
                    if access.completion_cycle.saturating_sub(now) > REPLAY_INV_THRESHOLD {
                        // Off-chip access: it has served its purpose as a
                        // prefetch; invalidate the destination and keep the
                        // replay loop moving.
                        inv = true;
                        (value, now + 1)
                    } else {
                        (value, access.completion_cycle)
                    }
                }
            } else if let Some(store_width) = inst.opcode.store_width() {
                if !inv {
                    let addr = inst.effective_address(src1);
                    self.store_buffer.push_back((
                        addr,
                        store_width.bytes(),
                        src2 & store_width.mask(),
                    ));
                    if self.store_buffer.len() > 64 {
                        self.store_buffer.pop_front();
                    }
                }
                (0, now + latency_of(inst.opcode.class()))
            } else {
                let out = inst.execute(0, src1, src2, None);
                (
                    out.result.unwrap_or(0),
                    now + latency_of(inst.opcode.class()),
                )
            };

            if let Some(dest) = inst.dest {
                self.regs[dest.flat_index()] = RegState {
                    value: result,
                    ready_at,
                    inv,
                };
            }
            self.uops_executed += 1;
            self.pos += 1;
            if self.pos == self.chain.len() {
                self.pos = 0;
            }
        }
    }

    /// Micro-ops replayed.
    pub fn uops_executed(&self) -> u64 {
        self.uops_executed
    }

    /// Loads replayed.
    pub fn loads_executed(&self) -> u64 {
        self.loads_executed
    }

    /// Prefetches issued to L3/DRAM.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// Loads skipped because their address depended on invalid data.
    pub fn inv_loads(&self) -> u64 {
        self.inv_loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::config::SimConfig;
    use pre_model::isa::AluOp;
    use pre_model::reg::ArchReg;

    /// Build a window that looks like a strided-load loop:
    ///   i = i + 8 ; addr = base + i ; x = load [addr] ; (acc += x)
    /// repeated, with the stalling load at the head.
    fn strided_window() -> Vec<WindowUop> {
        let i = ArchReg::int(1);
        let base = ArchReg::int(2);
        let addr = ArchReg::int(3);
        let x = ArchReg::int(4);
        let acc = ArchReg::int(5);
        let body = [
            (10, StaticInst::int_alu_imm(AluOp::Add, i, i, 8)),
            (11, StaticInst::int_alu(AluOp::Add, addr, base, i)),
            (12, StaticInst::load(x, addr, 0)),
            (13, StaticInst::int_alu(AluOp::Add, acc, acc, x)),
        ];
        let mut window = Vec::new();
        for _ in 0..4 {
            for (pc, inst) in body {
                window.push(WindowUop { pc, inst });
            }
        }
        window
    }

    #[test]
    fn extract_chain_finds_address_slice() {
        let window = strided_window();
        let chain = extract_chain(&window, 12, 32).expect("chain exists");
        // The chain ends with the load and contains the address computation
        // and the induction update, but not the accumulator add.
        assert!(chain.last().unwrap().opcode.is_load());
        assert!(chain.iter().any(|i| i.dest == Some(ArchReg::int(3))));
        assert!(chain.iter().any(|i| i.dest == Some(ArchReg::int(1))));
        assert!(!chain.iter().any(|i| i.dest == Some(ArchReg::int(5))));
        assert!(chain.len() <= 32);
    }

    #[test]
    fn extract_chain_requires_second_instance() {
        let window = &strided_window()[..4]; // single loop body only
        assert!(extract_chain(window, 12, 32).is_none());
    }

    #[test]
    fn extract_chain_respects_max_len() {
        let window = strided_window();
        let chain = extract_chain(&window, 12, 2).unwrap();
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn buffer_tracks_walk_statistics() {
        let mut buf = RunaheadBuffer::new();
        assert!(buf.fill_from_window(&strided_window(), 12, 32));
        assert!(!buf.fill_from_window(&strided_window()[..4], 12, 32));
        assert_eq!(buf.walks(), 2);
        assert!(buf.chain().is_empty());
    }

    #[test]
    fn replay_generates_distinct_prefetch_addresses() {
        let window = strided_window();
        let chain = extract_chain(&window, 12, 32).unwrap();
        let mut regs = vec![0u64; NUM_ARCH_REGS];
        regs[ArchReg::int(1).flat_index()] = 0; // i
        regs[ArchReg::int(2).flat_index()] = 0x10_0000; // base
        let cfg = SimConfig::haswell_like();
        let mut mem = MemoryHierarchy::new(&cfg);
        let chain_len = chain.len();
        let mut engine = ChainReplayEngine::new(chain, &regs, &[], 0);
        for cycle in 0..2000 {
            engine.step(
                cycle,
                4,
                &mut mem,
                |_| 1,
                |a, _len| a.wrapping_mul(0x9E3779B97F4A7C15),
            );
        }
        assert!(
            engine.uops_executed() >= 2 * chain_len as u64,
            "chain should loop"
        );
        assert!(
            engine.prefetches_issued() >= 2,
            "strided chain should prefetch"
        );
        assert_eq!(engine.inv_loads(), 0);
    }

    #[test]
    fn replay_with_invalid_source_issues_no_prefetches() {
        // A pure pointer chase whose seed register is invalid (it is the
        // stalling load's destination): nothing can be prefetched.
        let p = ArchReg::int(1);
        let chain = vec![StaticInst::load(p, p, 0)];
        let regs = vec![0u64; NUM_ARCH_REGS];
        let cfg = SimConfig::haswell_like();
        let mut mem = MemoryHierarchy::new(&cfg);
        let mut engine = ChainReplayEngine::new(chain, &regs, &[p], 0);
        for cycle in 0..200 {
            engine.step(
                cycle,
                4,
                &mut mem,
                |_| 1,
                |a, _len| a.wrapping_mul(0x9E3779B97F4A7C15),
            );
        }
        assert_eq!(engine.prefetches_issued(), 0);
        assert!(engine.inv_loads() > 0);
    }

    #[test]
    fn replay_cannot_prefetch_through_a_dependent_miss() {
        // Dependent chain: the second iteration's load address depends on the
        // first iteration's load value. The first off-chip load becomes a
        // prefetch with an INV result, so later iterations cannot compute
        // real addresses and must not issue further prefetches.
        let p = ArchReg::int(1);
        let chain = vec![StaticInst::load(p, p, 0)];
        let mut regs = vec![0u64; NUM_ARCH_REGS];
        regs[p.flat_index()] = 0x20_0000;
        let cfg = SimConfig::haswell_like();
        let mut mem = MemoryHierarchy::new(&cfg);
        let mut engine = ChainReplayEngine::new(chain, &regs, &[], 0);
        for cycle in 0..300 {
            engine.step(
                cycle,
                8,
                &mut mem,
                |_| 1,
                |a, _len| a.wrapping_mul(0x9E3779B97F4A7C15),
            );
        }
        assert_eq!(
            engine.prefetches_issued(),
            1,
            "only the first miss can prefetch"
        );
        assert!(engine.inv_loads() > 0, "later iterations propagate INV");
    }

    #[test]
    fn empty_chain_is_a_no_op() {
        let cfg = SimConfig::haswell_like();
        let mut mem = MemoryHierarchy::new(&cfg);
        let mut engine = ChainReplayEngine::new(Vec::new(), &vec![0; NUM_ARCH_REGS], &[], 0);
        engine.step(0, 4, &mut mem, |_| 1, |a, _len| a);
        assert_eq!(engine.uops_executed(), 0);
    }
}
