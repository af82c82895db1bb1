//! A small builder for hand-written synthetic kernels.

use pre_model::isa::{AluOp, BranchCond, StaticInst};
use pre_model::program::Program;
use pre_model::reg::ArchReg;

/// Convenience builder around [`Program`]: appends instructions, tracks the
/// current PC for loop targets, and records initial register/memory state.
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    program: Program,
}

impl KernelBuilder {
    /// Starts a kernel with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            program: Program::new(name),
        }
    }

    /// The PC the next emitted instruction will have (use as a loop target).
    pub fn pc(&self) -> u32 {
        self.program.insts.len() as u32
    }

    /// Emits an arbitrary instruction.
    pub(crate) fn emit(&mut self, inst: StaticInst) -> &mut Self {
        self.program.insts.push(inst);
        self
    }

    /// `dest = imm`.
    pub fn li(&mut self, dest: ArchReg, imm: i64) -> &mut Self {
        self.emit(StaticInst::load_imm(dest, imm))
    }

    /// `dest = src1 op src2`.
    pub fn alu(&mut self, op: AluOp, dest: ArchReg, src1: ArchReg, src2: ArchReg) -> &mut Self {
        self.emit(StaticInst::int_alu(op, dest, src1, src2))
    }

    /// `dest = src1 op imm`.
    pub fn alui(&mut self, op: AluOp, dest: ArchReg, src1: ArchReg, imm: i64) -> &mut Self {
        self.emit(StaticInst::int_alu_imm(op, dest, src1, imm))
    }

    /// `dest = src1 * src2`.
    pub(crate) fn mul(&mut self, dest: ArchReg, src1: ArchReg, src2: ArchReg) -> &mut Self {
        self.emit(StaticInst::int_mul(dest, src1, src2))
    }

    /// Integer load `dest = mem[base + offset]`.
    pub fn load(&mut self, dest: ArchReg, base: ArchReg, offset: i64) -> &mut Self {
        self.emit(StaticInst::load(dest, base, offset))
    }

    /// Floating-point load.
    pub(crate) fn fp_load(&mut self, dest: ArchReg, base: ArchReg, offset: i64) -> &mut Self {
        self.emit(StaticInst::fp_load(dest, base, offset))
    }

    /// Integer store `mem[base + offset] = value`.
    pub fn store(&mut self, value: ArchReg, base: ArchReg, offset: i64) -> &mut Self {
        self.emit(StaticInst::store(value, base, offset))
    }

    /// Floating-point store.
    pub(crate) fn fp_store(&mut self, value: ArchReg, base: ArchReg, offset: i64) -> &mut Self {
        self.emit(StaticInst::fp_store(value, base, offset))
    }

    /// Floating-point `dest = src1 op src2`.
    pub(crate) fn fp_alu(
        &mut self,
        op: AluOp,
        dest: ArchReg,
        src1: ArchReg,
        src2: ArchReg,
    ) -> &mut Self {
        self.emit(StaticInst::fp_alu(op, dest, src1, src2))
    }

    /// Floating-point multiply.
    pub(crate) fn fp_mul(&mut self, dest: ArchReg, src1: ArchReg, src2: ArchReg) -> &mut Self {
        self.emit(StaticInst::fp_mul(dest, src1, src2))
    }

    /// Conditional branch.
    pub fn branch(&mut self, cond: BranchCond, a: ArchReg, b: ArchReg, target: u32) -> &mut Self {
        self.emit(StaticInst::branch(cond, a, b, target))
    }

    /// Sets an initial memory word.
    pub fn init_mem(&mut self, addr: u64, value: u64) -> &mut Self {
        self.program.initial_mem.push((addr, value));
        self
    }

    /// Finishes the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the assembled program fails validation — kernels are
    /// compiled into the crate, so a validation failure is a programming
    /// error, not user input.
    pub fn finish(self) -> Program {
        self.program
            .validate()
            .expect("generated kernel must be well-formed");
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::program::Interpreter;

    #[test]
    fn builder_produces_valid_programs() {
        let mut b = KernelBuilder::new("test");
        let r1 = ArchReg::int(1);
        let r2 = ArchReg::int(2);
        b.li(r1, 5);
        b.li(r2, 7);
        b.alu(AluOp::Add, r1, r1, r2);
        let p = b.finish();
        assert_eq!(p.len(), 3);
        let mut interp = Interpreter::new(&p);
        while interp.step() {}
        assert_eq!(interp.reg(r1), 12);
    }

    #[test]
    fn pc_tracks_emitted_instructions() {
        let mut b = KernelBuilder::new("pc");
        assert_eq!(b.pc(), 0);
        b.li(ArchReg::int(1), 1);
        assert_eq!(b.pc(), 1);
        let loop_top = b.pc();
        b.alui(AluOp::Add, ArchReg::int(1), ArchReg::int(1), 1);
        b.branch(BranchCond::Lt, ArchReg::int(1), ArchReg::int(1), loop_top);
        assert_eq!(b.pc(), 3);
    }

    #[test]
    fn init_state_is_recorded() {
        let mut b = KernelBuilder::new("init");
        b.init_mem(0x1000, 7);
        b.li(ArchReg::int(1), 0);
        let p = b.finish();
        assert_eq!(p.initial_mem, vec![(0x1000, 7)]);
    }

    #[test]
    #[should_panic(expected = "well-formed")]
    fn invalid_kernel_panics_at_finish() {
        let mut b = KernelBuilder::new("bad");
        b.branch(BranchCond::Eq, ArchReg::int(0), ArchReg::int(0), 99);
        let _ = b.finish();
    }
}
