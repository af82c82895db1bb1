//! Static programs and the in-order reference interpreter.
//!
//! A [`Program`] is an array of [`StaticInst`]s (the PC of an instruction is
//! its index) plus an initial memory image and initial register values.
//! Workload generators in `pre-workloads` build programs; the out-of-order
//! core executes them cycle by cycle; the [`Interpreter`] here executes them
//! functionally in order and serves as the golden model in tests — the
//! architectural state produced by the out-of-order core (with or without
//! runahead) after *N* committed instructions must match the interpreter
//! after *N* steps.

use crate::error::ProgramError;
use crate::isa::StaticInst;
use crate::mem::FuncMem;
use crate::reg::{ArchReg, NUM_ARCH_REGS};
use crate::snapshot::WarmTrace;

/// A static program for the synthetic ISA.
#[derive(Debug, Default)]
pub struct Program {
    /// Human-readable workload name (e.g. `"mcf-like"`).
    pub name: String,
    /// The instructions; the PC of `insts[i]` is `i`.
    pub insts: Vec<StaticInst>,
    /// Entry PC.
    pub entry: u32,
    /// Initial memory image as `(byte address, 8-byte value)` pairs.
    pub initial_mem: Vec<(u64, u64)>,
    /// Byte-granular initial memory image as `(byte address, byte)` pairs
    /// (`.byte`/`.half` assembler data), applied after `initial_mem`.
    pub initial_mem_bytes: Vec<(u64, u8)>,
    /// Initial architectural register values.
    pub initial_regs: Vec<(ArchReg, u64)>,
    /// Memoized [`Program::content_hash`]. Multi-megabyte images make the
    /// hash a per-call millisecond cost, and the cache/snapshot stores ask
    /// for it on every lookup — so it is computed once per instance. A
    /// program must not be mutated after its first `content_hash` call;
    /// cloning resets the memo, so the build-by-mutating-a-clone producers
    /// (assembler, workload builders) stay correct.
    hash_memo: std::sync::OnceLock<u64>,
}

impl Clone for Program {
    fn clone(&self) -> Self {
        Program {
            name: self.name.clone(),
            insts: self.insts.clone(),
            entry: self.entry,
            initial_mem: self.initial_mem.clone(),
            initial_mem_bytes: self.initial_mem_bytes.clone(),
            initial_regs: self.initial_regs.clone(),
            // Clones are what producers mutate; never inherit the memo.
            hash_memo: std::sync::OnceLock::new(),
        }
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.insts == other.insts
            && self.entry == other.entry
            && self.initial_mem == other.initial_mem
            && self.initial_mem_bytes == other.initial_mem_bytes
            && self.initial_regs == other.initial_regs
    }
}

impl Eq for Program {}

impl Program {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            ..Program::default()
        }
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction at `pc`, or `None` when `pc` is outside the program.
    pub fn inst_at(&self, pc: u32) -> Option<&StaticInst> {
        self.insts.get(pc as usize)
    }

    /// Validates structural well-formedness of the program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] when the program is empty, the entry point
    /// or any branch target is out of range, or an instruction's operands are
    /// inconsistent with its opcode.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.insts.is_empty() {
            return Err(ProgramError::Empty);
        }
        if self.entry as usize >= self.insts.len() {
            return Err(ProgramError::EntryOutOfRange {
                entry: self.entry,
                len: self.insts.len(),
            });
        }
        for (pc, inst) in self.insts.iter().enumerate() {
            let pc = pc as u32;
            if inst.opcode.is_control() && inst.target as usize >= self.insts.len() {
                return Err(ProgramError::BranchTargetOutOfRange {
                    pc,
                    target: inst.target,
                    len: self.insts.len(),
                });
            }
            match inst.opcode.dest_class() {
                Some(class) => match inst.dest {
                    Some(d) if d.class() == class => {}
                    Some(d) => {
                        return Err(ProgramError::MalformedOperands {
                            pc,
                            detail: format!(
                                "destination {d} has class {}, opcode {} writes {class}",
                                d.class(),
                                inst.opcode
                            ),
                        })
                    }
                    None => {
                        return Err(ProgramError::MalformedOperands {
                            pc,
                            detail: format!("opcode {} requires a destination", inst.opcode),
                        })
                    }
                },
                None => {
                    if inst.dest.is_some() {
                        return Err(ProgramError::MalformedOperands {
                            pc,
                            detail: format!("opcode {} does not write a destination", inst.opcode),
                        });
                    }
                }
            }
            if inst.opcode.is_mem() && inst.src1.is_none() {
                return Err(ProgramError::MalformedOperands {
                    pc,
                    detail: "memory operation without a base register".to_string(),
                });
            }
            if inst.opcode.is_store() && inst.src2.is_none() {
                return Err(ProgramError::MalformedOperands {
                    pc,
                    detail: "store without a value register".to_string(),
                });
            }
        }
        Ok(())
    }

    /// Fraction of static instructions that are loads.
    pub fn static_load_fraction(&self) -> f64 {
        if self.insts.is_empty() {
            return 0.0;
        }
        let loads = self.insts.iter().filter(|i| i.opcode.is_load()).count();
        loads as f64 / self.insts.len() as f64
    }

    /// Stable content hash of the whole program: instructions, entry point,
    /// initial memory image and initial registers all enter the hash, so two
    /// programs hash equal exactly when they simulate identically. Backs the
    /// result-cache and snapshot keys (`pre-sim`).
    ///
    /// Memoized per instance (first call computes, later calls are free);
    /// see the `hash_memo` field for the mutate-after-hash caveat.
    pub fn content_hash(&self) -> u64 {
        *self.hash_memo.get_or_init(|| self.compute_content_hash())
    }

    fn compute_content_hash(&self) -> u64 {
        let mut h = crate::hash::StableHasher::new();
        h.write_str(&self.name);
        h.write_u64(u64::from(self.entry));
        h.write_u64(self.insts.len() as u64);
        for inst in &self.insts {
            h.write_u64(crate::hash::stable_hash_of_debug(inst));
        }
        h.write_u64(self.initial_mem.len() as u64);
        for &(addr, value) in &self.initial_mem {
            h.write_u64(addr);
            h.write_u64(value);
        }
        h.write_u64(self.initial_mem_bytes.len() as u64);
        for &(addr, byte) in &self.initial_mem_bytes {
            h.write_u64(addr);
            h.write_u64(u64::from(byte));
        }
        h.write_u64(self.initial_regs.len() as u64);
        for &(reg, value) in &self.initial_regs {
            h.write_u64(reg.flat_index() as u64);
            h.write_u64(value);
        }
        h.finish()
    }

    /// Builds a fresh functional memory initialized with the program's image.
    pub fn build_memory(&self) -> FuncMem {
        let mut mem = FuncMem::new();
        mem.init_from(self.initial_mem.iter().copied());
        mem.init_bytes_from(self.initial_mem_bytes.iter().copied());
        mem
    }

    /// Builds the initial architectural register file.
    pub fn build_registers(&self) -> [u64; NUM_ARCH_REGS] {
        let mut regs = [0u64; NUM_ARCH_REGS];
        for &(reg, value) in &self.initial_regs {
            regs[reg.flat_index()] = value;
        }
        regs
    }
}

/// Architectural state snapshot produced by the reference interpreter and by
/// the out-of-order core at commit, used to cross-check correctness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchSnapshot {
    /// Architectural register values, indexed by flat register index.
    pub regs: [u64; NUM_ARCH_REGS],
    /// Number of instructions architecturally completed.
    pub retired: u64,
    /// Order-sensitive checksum of all committed stores
    /// (`hash(addr, value, sequence)` folded together).
    pub store_checksum: u64,
    /// Number of committed store operations.
    pub stores: u64,
    /// Next PC to execute.
    pub next_pc: u32,
}

/// Folds one committed store into a running checksum.
///
/// Both the reference interpreter and the out-of-order core use this so that
/// their memory-update streams can be compared without comparing whole
/// memory images.
pub fn fold_store_checksum(checksum: u64, addr: u64, value: u64, seq: u64) -> u64 {
    let mut z = checksum ^ addr.rotate_left(17) ^ value.rotate_left(33) ^ seq;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

/// In-order functional interpreter: the golden model.
#[derive(Debug, Clone)]
pub struct Interpreter {
    /// The program's instructions (the PC of `insts[i]` is `i`). The initial
    /// memory image is read once, into `mem`, and not kept.
    insts: Box<[StaticInst]>,
    regs: [u64; NUM_ARCH_REGS],
    mem: FuncMem,
    pc: u32,
    retired: u64,
    store_checksum: u64,
    stores: u64,
    loads: u64,
    branches: u64,
    taken_branches: u64,
    halted: bool,
}

impl Interpreter {
    /// Creates an interpreter positioned at the program entry point.
    pub fn new(program: &Program) -> Self {
        Interpreter {
            regs: program.build_registers(),
            mem: program.build_memory(),
            pc: program.entry,
            insts: program.insts.as_slice().into(),
            retired: 0,
            store_checksum: 0,
            stores: 0,
            loads: 0,
            branches: 0,
            taken_branches: 0,
            halted: false,
        }
    }

    /// `true` once the program counter has left the program (fell off the
    /// end); no further steps execute.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Number of dynamic loads executed.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Number of dynamic conditional branches executed and how many were taken.
    pub fn branch_profile(&self) -> (u64, u64) {
        (self.branches, self.taken_branches)
    }

    /// Reads an architectural register.
    pub fn reg(&self, reg: ArchReg) -> u64 {
        self.regs[reg.flat_index()]
    }

    /// Read-only view of the functional memory.
    pub fn memory(&self) -> &FuncMem {
        &self.mem
    }

    /// Read-only view of the whole architectural register file.
    pub fn regs(&self) -> &[u64; NUM_ARCH_REGS] {
        &self.regs
    }

    /// Consumes the interpreter, yielding its functional memory (avoids
    /// cloning the full image when capturing a snapshot).
    pub fn into_memory(self) -> FuncMem {
        self.mem
    }

    /// Executes one instruction. Returns `false` when the interpreter is
    /// halted (PC outside the program) and nothing was executed.
    pub fn step(&mut self) -> bool {
        self.step_traced(None)
    }

    /// Executes one instruction, optionally recording its cache-relevant
    /// events (instruction fetch, load/store addresses, branch outcome)
    /// into `trace`. This is the single execution path — [`Interpreter::step`]
    /// is this with no trace — so traced warm-up and untraced golden runs
    /// cannot diverge.
    pub fn step_traced(&mut self, trace: Option<&mut WarmTrace>) -> bool {
        if self.halted {
            return false;
        }
        let inst = match self.insts.get(self.pc as usize) {
            Some(i) => *i,
            None => {
                self.halted = true;
                return false;
            }
        };
        let pc = self.pc;
        let src1 = inst.src1.map(|r| self.regs[r.flat_index()]).unwrap_or(0);
        let src2 = inst.src2.map(|r| self.regs[r.flat_index()]).unwrap_or(0);
        let mut load_addr = None;
        let loaded = if let Some(access) = inst.opcode.load_access() {
            self.loads += 1;
            let addr = inst.effective_address(src1);
            load_addr = Some(addr);
            Some(self.mem.load_bytes(addr, access.width.bytes()))
        } else {
            None
        };
        let out = inst.execute(self.pc, src1, src2, loaded);
        if let (Some(dest), Some(result)) = (inst.dest, out.result) {
            self.regs[dest.flat_index()] = result;
        }
        let mut store_addr = None;
        if let (Some(addr), Some(value)) = (out.mem_addr, out.store_value) {
            let width = inst.opcode.store_width().expect("store has a width");
            self.stores += 1;
            self.store_checksum =
                fold_store_checksum(self.store_checksum, addr, value, self.stores);
            self.mem.store_bytes(addr, width.bytes(), value);
            store_addr = Some(addr);
        }
        if inst.opcode.is_cond_branch() {
            self.branches += 1;
            if out.taken == Some(true) {
                self.taken_branches += 1;
            }
        }
        if let Some(trace) = trace {
            trace.record_ifetch(pc);
            if let Some(addr) = load_addr {
                trace.record_load(addr);
            }
            if let Some(addr) = store_addr {
                trace.record_store(addr);
            }
            if inst.opcode.is_cond_branch() {
                trace.record_branch(pc, out.taken == Some(true), out.next_pc);
            }
        }
        self.pc = out.next_pc;
        self.retired += 1;
        if self.pc as usize >= self.insts.len() {
            self.halted = true;
        }
        true
    }

    /// Executes up to `n` instructions; returns how many actually executed.
    pub fn run(&mut self, n: u64) -> u64 {
        let mut executed = 0;
        while executed < n && self.step() {
            executed += 1;
        }
        executed
    }

    /// Executes up to `n` instructions recording the warm-up trace; returns
    /// how many actually executed.
    pub fn run_warm(&mut self, n: u64, trace: &mut WarmTrace) -> u64 {
        let mut executed = 0;
        while executed < n && self.step_traced(Some(trace)) {
            executed += 1;
        }
        executed
    }

    /// Snapshot of the architectural state for comparison against the
    /// out-of-order core.
    pub fn snapshot(&self) -> ArchSnapshot {
        ArchSnapshot {
            regs: self.regs,
            retired: self.retired,
            store_checksum: self.store_checksum,
            stores: self.stores,
            next_pc: self.pc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, BranchCond};

    /// A loop that sums a strided array: the canonical tiny workload.
    fn sum_loop() -> Program {
        let mut p = Program::new("sum-loop");
        let base = ArchReg::int(1);
        let idx = ArchReg::int(2);
        let acc = ArchReg::int(3);
        let limit = ArchReg::int(4);
        let tmp = ArchReg::int(5);
        let addr = ArchReg::int(6);
        p.insts = vec![
            StaticInst::load_imm(base, 0x10_000), // 0
            StaticInst::load_imm(idx, 0),         // 1
            StaticInst::load_imm(acc, 0),         // 2
            StaticInst::load_imm(limit, 64),      // 3
            // loop:
            StaticInst::int_alu(AluOp::Add, addr, base, idx), // 4
            StaticInst::load(tmp, addr, 0),                   // 5
            StaticInst::int_alu(AluOp::Add, acc, acc, tmp),   // 6
            StaticInst::int_alu_imm(AluOp::Add, idx, idx, 8), // 7
            StaticInst::branch(BranchCond::Lt, idx, limit, 4), // 8
            StaticInst::store(acc, base, 4096),               // 9
        ];
        p.initial_mem = (0..8).map(|i| (0x10_000 + i * 8, i + 1)).collect();
        p
    }

    #[test]
    fn validate_accepts_well_formed_program() {
        sum_loop().validate().unwrap();
    }

    #[test]
    fn validate_rejects_empty_program() {
        assert_eq!(Program::new("x").validate(), Err(ProgramError::Empty));
    }

    #[test]
    fn validate_rejects_bad_branch_target() {
        let mut p = sum_loop();
        p.insts[8].target = 1000;
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BranchTargetOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_wrong_dest_class() {
        let mut p = sum_loop();
        p.insts[5].dest = Some(ArchReg::fp(0));
        assert!(matches!(
            p.validate(),
            Err(ProgramError::MalformedOperands { .. })
        ));
    }

    #[test]
    fn interpreter_sums_the_array() {
        let p = sum_loop();
        let mut interp = Interpreter::new(&p);
        while interp.step() {}
        assert!(interp.halted());
        // 1 + 2 + ... + 8 = 36
        assert_eq!(interp.reg(ArchReg::int(3)), 36);
        assert_eq!(interp.memory().load_u64(0x10_000 + 4096), 36);
        assert_eq!(interp.loads(), 8);
        let (branches, taken) = interp.branch_profile();
        assert_eq!(branches, 8);
        assert_eq!(taken, 7);
    }

    #[test]
    fn interpreter_run_respects_budget() {
        let p = sum_loop();
        let mut interp = Interpreter::new(&p);
        assert_eq!(interp.run(5), 5);
        assert_eq!(interp.retired(), 5);
        assert!(!interp.halted());
    }

    #[test]
    fn snapshots_of_identical_runs_match() {
        let p = sum_loop();
        let mut a = Interpreter::new(&p);
        let mut b = Interpreter::new(&p);
        a.run(20);
        b.run(20);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn store_checksum_is_order_sensitive() {
        let c1 = fold_store_checksum(fold_store_checksum(0, 0x10, 1, 1), 0x20, 2, 2);
        let c2 = fold_store_checksum(fold_store_checksum(0, 0x20, 2, 1), 0x10, 1, 2);
        assert_ne!(c1, c2);
    }

    #[test]
    fn static_load_fraction_counts_loads() {
        let p = sum_loop();
        assert!((p.static_load_fraction() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn content_hash_tracks_program_contents() {
        let p = sum_loop();
        assert_eq!(p.content_hash(), sum_loop().content_hash());
        let mut edited = sum_loop();
        edited.insts[7].imm += 8;
        assert_ne!(p.content_hash(), edited.content_hash());
        let mut remem = sum_loop();
        remem.initial_mem[0].1 ^= 1;
        assert_ne!(p.content_hash(), remem.content_hash());
    }

    #[test]
    fn traced_and_untraced_execution_are_identical() {
        let p = sum_loop();
        let mut traced = Interpreter::new(&p);
        let mut plain = Interpreter::new(&p);
        let mut trace = crate::snapshot::WarmTrace::new();
        while traced.step_traced(Some(&mut trace)) {
            plain.step();
        }
        assert!(!plain.step());
        assert_eq!(traced.snapshot(), plain.snapshot());
        // Every load and store of the run appears in the trace.
        let loads = trace
            .events
            .iter()
            .filter(|e| matches!(e, crate::snapshot::WarmEvent::Load(_)))
            .count() as u64;
        let stores = trace
            .events
            .iter()
            .filter(|e| matches!(e, crate::snapshot::WarmEvent::Store(_)))
            .count() as u64;
        assert_eq!(loads, traced.loads());
        assert_eq!(stores, traced.snapshot().stores);
        let (branches, _) = traced.branch_profile();
        assert_eq!(trace.branches.len() as u64, branches);
    }
}
