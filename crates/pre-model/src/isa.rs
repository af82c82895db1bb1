//! The synthetic micro-op ISA executed by the simulator.
//!
//! The ISA is a small load/store RISC: integer and floating-point ALU
//! operations, loads and stores with base+displacement addressing,
//! conditional branches and unconditional jumps. It is deliberately simple —
//! the paper's mechanisms (runahead execution, stalling-slice tracking,
//! register reclamation) depend only on *data-flow between registers and
//! memory*, not on a rich instruction set — but it is fully executable: every
//! micro-op has defined functional semantics so the out-of-order core and the
//! runahead engines compute real addresses and real values.

use crate::reg::{ArchReg, RegClass};
use std::fmt;

/// Integer/floating-point ALU operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by `src2 & 63` or `imm & 63`).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right (sign bit replicates into vacated bits).
    Sra,
}

impl AluOp {
    /// Applies the ALU operation to two 64-bit operands.
    pub fn apply(&self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Sra => (a as i64).wrapping_shr((b & 63) as u32) as u64,
        }
    }
}

/// Memory access width: byte, halfword, word (32-bit) or doubleword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes (halfword).
    H,
    /// 4 bytes (RISC-V word).
    W,
    /// 8 bytes (doubleword, the full register width).
    D,
}

impl MemWidth {
    /// Number of bytes transferred by an access of this width.
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }

    /// Bit mask selecting the low `bytes()` bytes of a register value.
    pub const fn mask(self) -> u64 {
        match self {
            MemWidth::D => u64::MAX,
            w => (1u64 << (w.bytes() * 8)) - 1,
        }
    }

    /// Aligns `addr` down to this width (accesses are naturally aligned:
    /// the effective address of a width-`N` access has its low `log2(N)`
    /// bits cleared, which for `D` reproduces the historical 8-byte-word
    /// aliasing exactly).
    pub(crate) const fn align(self, addr: u64) -> u64 {
        addr & !(self.bytes() - 1)
    }
}

impl fmt::Display for MemWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemWidth::B => "b",
            MemWidth::H => "h",
            MemWidth::W => "w",
            MemWidth::D => "d",
        })
    }
}

/// `true` when the byte range `[addr, addr + len)` lies entirely inside
/// `[store_addr, store_addr + store_len)`. Ends are compared inclusively so
/// ranges at the very top of the address space cannot wrap.
pub const fn range_contains(store_addr: u64, store_len: u64, addr: u64, len: u64) -> bool {
    store_addr <= addr && addr + (len - 1) <= store_addr + (store_len - 1)
}

/// `true` when the byte ranges `[a, a + a_len)` and `[b, b + b_len)` share
/// at least one byte (inclusive-end comparison, wrap-safe).
pub const fn ranges_overlap(a: u64, a_len: u64, b: u64, b_len: u64) -> bool {
    a <= b + (b_len - 1) && b <= a + (a_len - 1)
}

/// Extracts the `len` bytes at `addr` out of a (little-endian) store value
/// whose range starts at `store_addr`, zero-extended. The load range must be
/// contained in the store's ([`range_contains`]).
pub const fn extract_forwarded_bytes(
    store_addr: u64,
    store_value: u64,
    addr: u64,
    len: u64,
) -> u64 {
    let shifted = store_value >> (8 * (addr - store_addr));
    if len == 8 {
        shifted
    } else {
        shifted & ((1u64 << (8 * len)) - 1)
    }
}

/// A load's access shape: width plus how the loaded value fills the
/// destination register (sign- or zero-extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Access width.
    pub width: MemWidth,
    /// `true` for sign-extending loads (`lb`/`lh`/`lw`), `false` for
    /// zero-extending ones (`lbu`/`lhu`/`lwu`). Irrelevant for `D` (the
    /// full register is replaced either way).
    pub signed: bool,
}

impl MemAccess {
    /// The full-width (64-bit) access every pre-existing load used.
    pub const D: MemAccess = MemAccess {
        width: MemWidth::D,
        signed: false,
    };

    /// Sign-extending access of the given width.
    pub const fn signed(width: MemWidth) -> Self {
        MemAccess {
            width,
            signed: true,
        }
    }

    /// Zero-extending access of the given width.
    pub const fn unsigned(width: MemWidth) -> Self {
        MemAccess {
            width,
            signed: false,
        }
    }

    /// Extends the raw loaded bytes (zero-extended in the low bits of
    /// `raw`) to the destination register value: an arithmetic shift pair
    /// for signed loads, a mask for unsigned ones.
    pub const fn extend(self, raw: u64) -> u64 {
        let shift = 64 - self.width.bytes() * 8;
        if shift == 0 {
            raw
        } else if self.signed {
            (((raw << shift) as i64) >> shift) as u64
        } else {
            raw & self.width.mask()
        }
    }
}

/// Conditions for conditional branches (comparing `src1` against `src2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Taken if `src1 == src2`.
    Eq,
    /// Taken if `src1 != src2`.
    Ne,
    /// Taken if `src1 < src2` (unsigned).
    Lt,
    /// Taken if `src1 >= src2` (unsigned).
    Ge,
}

impl BranchCond {
    /// Evaluates the branch condition on two operand values.
    pub fn taken(&self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
        }
    }
}

/// Micro-op opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// No operation.
    Nop,
    /// Integer ALU operation: `dest = src1 op (src2 | imm)`.
    IntAlu(AluOp),
    /// Integer multiply: `dest = src1 * (src2 | imm)`.
    IntMul,
    /// Floating-point ALU operation (operates on raw 64-bit payloads).
    FpAlu(AluOp),
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide (long latency).
    FpDiv,
    /// Load immediate: `dest = imm`.
    LoadImm,
    /// Integer load: `dest = extend(mem[src1 + imm])`, at the carried
    /// access width and extension.
    Load(MemAccess),
    /// Floating-point load: `dest = mem[src1 + imm]` (always 8 bytes).
    FpLoad,
    /// Integer store: `mem[src1 + imm] = low_bytes(src2)`, at the carried
    /// width.
    Store(MemWidth),
    /// Floating-point store: `mem[src1 + imm] = src2` (always 8 bytes).
    FpStore,
    /// Conditional branch to `target` when the condition holds on `(src1, src2)`.
    Branch(BranchCond),
    /// Unconditional jump to `target`.
    Jump,
}

/// Functional-unit classes used for scheduling and latency selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// No-op (consumes a pipeline slot only).
    Nop,
    /// Single-cycle integer ALU.
    IntAlu,
    /// Integer multiplier.
    IntMul,
    /// Floating-point adder.
    FpAlu,
    /// Floating-point multiplier.
    FpMul,
    /// Floating-point divider.
    FpDiv,
    /// Load port (address generation + cache access).
    Load,
    /// Store port.
    Store,
    /// Branch unit.
    Branch,
}

impl OpClass {
    /// Number of functional-unit classes (the length of [`OpClass::ALL`]).
    pub const COUNT: usize = 9;

    /// All functional-unit classes, in discriminant order (so
    /// `ALL[c.index()] == c`).
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::Nop,
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];

    /// Dense index of this class in `0..OpClass::COUNT`, usable for flat
    /// per-class tables (issue ports, ready queues) without hashing.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl Opcode {
    /// The functional-unit class this opcode executes on.
    pub fn class(&self) -> OpClass {
        match self {
            Opcode::Nop => OpClass::Nop,
            Opcode::IntAlu(_) | Opcode::LoadImm => OpClass::IntAlu,
            Opcode::IntMul => OpClass::IntMul,
            Opcode::FpAlu(_) => OpClass::FpAlu,
            Opcode::FpMul => OpClass::FpMul,
            Opcode::FpDiv => OpClass::FpDiv,
            Opcode::Load(_) | Opcode::FpLoad => OpClass::Load,
            Opcode::Store(_) | Opcode::FpStore => OpClass::Store,
            Opcode::Branch(_) | Opcode::Jump => OpClass::Branch,
        }
    }

    /// `true` for loads (integer or floating point).
    pub fn is_load(&self) -> bool {
        matches!(self, Opcode::Load(_) | Opcode::FpLoad)
    }

    /// `true` for stores (integer or floating point).
    pub fn is_store(&self) -> bool {
        matches!(self, Opcode::Store(_) | Opcode::FpStore)
    }

    /// The access shape of a load (floating-point loads are full-width),
    /// `None` for non-loads.
    pub fn load_access(&self) -> Option<MemAccess> {
        match self {
            Opcode::Load(a) => Some(*a),
            Opcode::FpLoad => Some(MemAccess::D),
            _ => None,
        }
    }

    /// The width of a store (floating-point stores are full-width), `None`
    /// for non-stores.
    pub fn store_width(&self) -> Option<MemWidth> {
        match self {
            Opcode::Store(w) => Some(*w),
            Opcode::FpStore => Some(MemWidth::D),
            _ => None,
        }
    }

    /// The access width of any memory operation, `None` otherwise.
    pub fn mem_width(&self) -> Option<MemWidth> {
        match self {
            Opcode::Load(a) => Some(a.width),
            Opcode::Store(w) => Some(*w),
            Opcode::FpLoad | Opcode::FpStore => Some(MemWidth::D),
            _ => None,
        }
    }

    /// `true` for any memory operation.
    pub(crate) fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// `true` for conditional branches and unconditional jumps.
    pub fn is_control(&self) -> bool {
        matches!(self, Opcode::Branch(_) | Opcode::Jump)
    }

    /// `true` only for conditional branches.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Opcode::Branch(_))
    }

    /// The register class of the destination this opcode writes, if any.
    pub fn dest_class(&self) -> Option<RegClass> {
        match self {
            Opcode::IntAlu(_) | Opcode::IntMul | Opcode::LoadImm | Opcode::Load(_) => {
                Some(RegClass::Int)
            }
            Opcode::FpAlu(_) | Opcode::FpMul | Opcode::FpDiv | Opcode::FpLoad => Some(RegClass::Fp),
            _ => None,
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Opcode::Nop => write!(f, "nop"),
            Opcode::IntAlu(op) => write!(f, "ialu.{op:?}"),
            Opcode::IntMul => write!(f, "imul"),
            Opcode::FpAlu(op) => write!(f, "falu.{op:?}"),
            Opcode::FpMul => write!(f, "fmul"),
            Opcode::FpDiv => write!(f, "fdiv"),
            Opcode::LoadImm => write!(f, "li"),
            Opcode::Load(a) => match (a.width, a.signed) {
                (MemWidth::D, _) => write!(f, "ld"),
                (w, true) => write!(f, "l{w}"),
                (w, false) => write!(f, "l{w}u"),
            },
            Opcode::FpLoad => write!(f, "fld"),
            Opcode::Store(MemWidth::D) => write!(f, "sd"),
            Opcode::Store(w) => write!(f, "s{w}"),
            Opcode::FpStore => write!(f, "fst"),
            Opcode::Branch(c) => write!(f, "b.{c:?}"),
            Opcode::Jump => write!(f, "j"),
        }
    }
}

/// A static instruction: one entry of a [`crate::program::Program`].
///
/// The program counter of an instruction is its index in the program; branch
/// targets are absolute indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInst {
    /// Operation performed by this instruction.
    pub opcode: Opcode,
    /// Destination architectural register, if the opcode writes one.
    pub dest: Option<ArchReg>,
    /// First source register (base address for memory operations).
    pub src1: Option<ArchReg>,
    /// Second source register (stored value for stores, comparison operand
    /// for branches, second ALU operand when present).
    pub src2: Option<ArchReg>,
    /// Immediate operand (displacement for memory operations, literal for
    /// `LoadImm`, second ALU operand when `src2` is absent).
    pub imm: i64,
    /// Absolute branch/jump target (ignored for non-control instructions).
    pub target: u32,
}

impl StaticInst {
    /// A no-op.
    pub fn nop() -> Self {
        StaticInst {
            opcode: Opcode::Nop,
            dest: None,
            src1: None,
            src2: None,
            imm: 0,
            target: 0,
        }
    }

    /// Integer ALU op with a register second operand: `dest = src1 op src2`.
    pub fn int_alu(op: AluOp, dest: ArchReg, src1: ArchReg, src2: ArchReg) -> Self {
        StaticInst {
            opcode: Opcode::IntAlu(op),
            dest: Some(dest),
            src1: Some(src1),
            src2: Some(src2),
            imm: 0,
            target: 0,
        }
    }

    /// Integer ALU op with an immediate second operand: `dest = src1 op imm`.
    pub fn int_alu_imm(op: AluOp, dest: ArchReg, src1: ArchReg, imm: i64) -> Self {
        StaticInst {
            opcode: Opcode::IntAlu(op),
            dest: Some(dest),
            src1: Some(src1),
            src2: None,
            imm,
            target: 0,
        }
    }

    /// Integer multiply: `dest = src1 * src2`.
    pub fn int_mul(dest: ArchReg, src1: ArchReg, src2: ArchReg) -> Self {
        StaticInst {
            opcode: Opcode::IntMul,
            dest: Some(dest),
            src1: Some(src1),
            src2: Some(src2),
            imm: 0,
            target: 0,
        }
    }

    /// Integer multiply by an immediate: `dest = src1 * imm`.
    pub fn int_mul_imm(dest: ArchReg, src1: ArchReg, imm: i64) -> Self {
        StaticInst {
            opcode: Opcode::IntMul,
            dest: Some(dest),
            src1: Some(src1),
            src2: None,
            imm,
            target: 0,
        }
    }

    /// Floating-point ALU op: `dest = src1 op src2`.
    pub fn fp_alu(op: AluOp, dest: ArchReg, src1: ArchReg, src2: ArchReg) -> Self {
        StaticInst {
            opcode: Opcode::FpAlu(op),
            dest: Some(dest),
            src1: Some(src1),
            src2: Some(src2),
            imm: 0,
            target: 0,
        }
    }

    /// Floating-point multiply: `dest = src1 * src2`.
    pub fn fp_mul(dest: ArchReg, src1: ArchReg, src2: ArchReg) -> Self {
        StaticInst {
            opcode: Opcode::FpMul,
            dest: Some(dest),
            src1: Some(src1),
            src2: Some(src2),
            imm: 0,
            target: 0,
        }
    }

    /// Load immediate: `dest = imm`.
    pub fn load_imm(dest: ArchReg, imm: i64) -> Self {
        StaticInst {
            opcode: Opcode::LoadImm,
            dest: Some(dest),
            src1: None,
            src2: None,
            imm,
            target: 0,
        }
    }

    /// Integer load: `dest = mem[base + offset]` (full 8-byte width).
    pub fn load(dest: ArchReg, base: ArchReg, offset: i64) -> Self {
        StaticInst::load_width(dest, base, offset, MemAccess::D)
    }

    /// Integer load with an explicit access width and extension:
    /// `dest = extend(mem[base + offset])`.
    pub fn load_width(dest: ArchReg, base: ArchReg, offset: i64, access: MemAccess) -> Self {
        StaticInst {
            opcode: Opcode::Load(access),
            dest: Some(dest),
            src1: Some(base),
            src2: None,
            imm: offset,
            target: 0,
        }
    }

    /// Floating-point load: `dest = mem[base + offset]`.
    pub fn fp_load(dest: ArchReg, base: ArchReg, offset: i64) -> Self {
        StaticInst {
            opcode: Opcode::FpLoad,
            dest: Some(dest),
            src1: Some(base),
            src2: None,
            imm: offset,
            target: 0,
        }
    }

    /// Integer store: `mem[base + offset] = value` (full 8-byte width).
    pub fn store(value: ArchReg, base: ArchReg, offset: i64) -> Self {
        StaticInst::store_width(value, base, offset, MemWidth::D)
    }

    /// Integer store of the low `width` bytes of `value`.
    pub fn store_width(value: ArchReg, base: ArchReg, offset: i64, width: MemWidth) -> Self {
        StaticInst {
            opcode: Opcode::Store(width),
            dest: None,
            src1: Some(base),
            src2: Some(value),
            imm: offset,
            target: 0,
        }
    }

    /// Floating-point store: `mem[base + offset] = value`.
    pub fn fp_store(value: ArchReg, base: ArchReg, offset: i64) -> Self {
        StaticInst {
            opcode: Opcode::FpStore,
            dest: None,
            src1: Some(base),
            src2: Some(value),
            imm: offset,
            target: 0,
        }
    }

    /// Conditional branch: `if cond(src1, src2) goto target`.
    pub fn branch(cond: BranchCond, src1: ArchReg, src2: ArchReg, target: u32) -> Self {
        StaticInst {
            opcode: Opcode::Branch(cond),
            dest: None,
            src1: Some(src1),
            src2: Some(src2),
            imm: 0,
            target,
        }
    }

    /// Unconditional jump to `target`.
    pub fn jump(target: u32) -> Self {
        StaticInst {
            opcode: Opcode::Jump,
            dest: None,
            src1: None,
            src2: None,
            imm: 0,
            target,
        }
    }

    /// Effective memory address for loads/stores, given the resolved base
    /// register value. Accesses are naturally aligned: the raw address is
    /// aligned down to the access width (for the historical 8-byte ops this
    /// reproduces the old word-aliasing behaviour bit for bit; a byte access
    /// is never adjusted).
    pub fn effective_address(&self, base: u64) -> u64 {
        let raw = base.wrapping_add(self.imm as u64);
        match self.opcode.mem_width() {
            Some(width) => width.align(raw),
            None => raw,
        }
    }

    /// Computes the functional result of this instruction.
    ///
    /// `src1`/`src2` are the resolved source operand values (0 when the
    /// operand is absent); `loaded` is the raw (zero-extended) bytes read
    /// from memory for loads — sign/zero extension to the register width
    /// happens here, per the opcode's [`MemAccess`]. Returns the executed
    /// outcome: the destination value (if the opcode writes a register), the
    /// effective memory address and access width (for memory operations),
    /// the truncated value to store (for stores), the branch direction and
    /// the next program counter.
    pub fn execute(&self, pc: u32, src1: u64, src2: u64, loaded: Option<u64>) -> ExecOutcome {
        let fallthrough = pc.wrapping_add(1);
        match self.opcode {
            Opcode::Nop => ExecOutcome::plain(None, fallthrough),
            Opcode::IntAlu(op) | Opcode::FpAlu(op) => {
                let b = if self.src2.is_some() {
                    src2
                } else {
                    self.imm as u64
                };
                ExecOutcome::plain(Some(op.apply(src1, b)), fallthrough)
            }
            Opcode::IntMul | Opcode::FpMul => {
                let b = if self.src2.is_some() {
                    src2
                } else {
                    self.imm as u64
                };
                ExecOutcome::plain(Some(src1.wrapping_mul(b)), fallthrough)
            }
            Opcode::FpDiv => {
                let b = if self.src2.is_some() {
                    src2
                } else {
                    self.imm as u64
                };
                let v = if b == 0 {
                    u64::MAX
                } else {
                    src1.wrapping_div(b)
                };
                ExecOutcome::plain(Some(v), fallthrough)
            }
            Opcode::LoadImm => ExecOutcome::plain(Some(self.imm as u64), fallthrough),
            Opcode::Load(_) | Opcode::FpLoad => {
                let access = self.opcode.load_access().expect("opcode is a load");
                ExecOutcome {
                    result: loaded.map(|raw| access.extend(raw)),
                    mem_addr: Some(self.effective_address(src1)),
                    mem_width: Some(access.width),
                    store_value: None,
                    taken: None,
                    next_pc: fallthrough,
                }
            }
            Opcode::Store(_) | Opcode::FpStore => {
                let width = self.opcode.store_width().expect("opcode is a store");
                ExecOutcome {
                    result: None,
                    mem_addr: Some(self.effective_address(src1)),
                    mem_width: Some(width),
                    store_value: Some(src2 & width.mask()),
                    taken: None,
                    next_pc: fallthrough,
                }
            }
            Opcode::Branch(cond) => {
                let taken = cond.taken(src1, src2);
                ExecOutcome {
                    result: None,
                    mem_addr: None,
                    mem_width: None,
                    store_value: None,
                    taken: Some(taken),
                    next_pc: if taken { self.target } else { fallthrough },
                }
            }
            Opcode::Jump => ExecOutcome {
                result: None,
                mem_addr: None,
                mem_width: None,
                store_value: None,
                taken: Some(true),
                next_pc: self.target,
            },
        }
    }

    /// Source registers of this instruction, in operand order.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.src1.into_iter().chain(self.src2)
    }
}

impl fmt::Display for StaticInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        if let Some(d) = self.dest {
            write!(f, " {d}")?;
        }
        if let Some(s) = self.src1 {
            write!(f, " {s}")?;
        }
        if let Some(s) = self.src2 {
            write!(f, " {s}")?;
        }
        if self.imm != 0 {
            write!(f, " #{}", self.imm)?;
        }
        if self.opcode.is_control() {
            write!(f, " -> {}", self.target)?;
        }
        Ok(())
    }
}

/// The functional outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Value written to the destination register, if any.
    pub result: Option<u64>,
    /// Effective memory address (naturally aligned), for loads and stores.
    pub mem_addr: Option<u64>,
    /// Access width, for loads and stores.
    pub mem_width: Option<MemWidth>,
    /// Value written to memory (truncated to `mem_width`), for stores.
    pub store_value: Option<u64>,
    /// Branch direction, for control instructions.
    pub taken: Option<bool>,
    /// Program counter of the next instruction on the executed path.
    pub next_pc: u32,
}

impl ExecOutcome {
    fn plain(result: Option<u64>, next_pc: u32) -> Self {
        ExecOutcome {
            result,
            mem_addr: None,
            mem_width: None,
            store_value: None,
            taken: None,
            next_pc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_apply() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Sub.apply(3, 4), 3u64.wrapping_sub(4));
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.apply(1, 4), 16);
        assert_eq!(AluOp::Shr.apply(16, 4), 1);
        // Shift amounts are masked to 6 bits.
        assert_eq!(AluOp::Shl.apply(1, 64), 1);
        // Arithmetic shift replicates the sign bit; logical does not.
        assert_eq!(AluOp::Sra.apply((-16i64) as u64, 2), (-4i64) as u64);
        assert_eq!(AluOp::Sra.apply(16, 2), 4);
        assert_ne!(AluOp::Shr.apply((-16i64) as u64, 2), (-4i64) as u64);
    }

    #[test]
    fn mem_width_geometry() {
        assert_eq!(MemWidth::B.bytes(), 1);
        assert_eq!(MemWidth::H.bytes(), 2);
        assert_eq!(MemWidth::W.bytes(), 4);
        assert_eq!(MemWidth::D.bytes(), 8);
        assert_eq!(MemWidth::B.mask(), 0xFF);
        assert_eq!(MemWidth::W.mask(), 0xFFFF_FFFF);
        assert_eq!(MemWidth::D.mask(), u64::MAX);
        assert_eq!(MemWidth::B.align(0x1003), 0x1003);
        assert_eq!(MemWidth::H.align(0x1003), 0x1002);
        assert_eq!(MemWidth::W.align(0x1007), 0x1004);
        assert_eq!(MemWidth::D.align(0x1007), 0x1000);
    }

    #[test]
    fn byte_range_helpers() {
        assert!(range_contains(0x100, 8, 0x103, 2));
        assert!(range_contains(0x100, 8, 0x100, 8));
        assert!(!range_contains(0x100, 8, 0x106, 4)); // crosses the end
        assert!(!range_contains(0x103, 1, 0x100, 8)); // narrower store
        assert!(ranges_overlap(0x100, 8, 0x106, 4));
        assert!(ranges_overlap(0x103, 1, 0x100, 8));
        assert!(!ranges_overlap(0x100, 8, 0x108, 1));
        // Wrap-safe at the top of the address space.
        let top = u64::MAX - 7;
        assert!(range_contains(top, 8, top, 8));
        assert!(!ranges_overlap(0, 8, top, 8));
        // Extraction is little-endian.
        assert_eq!(
            extract_forwarded_bytes(0x100, 0x1122_3344_5566_7788, 0x103, 2),
            0x4455
        );
        assert_eq!(
            extract_forwarded_bytes(0x100, 0x1122_3344_5566_7788, 0x100, 8),
            0x1122_3344_5566_7788
        );
    }

    #[test]
    fn mem_access_extension() {
        let lb = MemAccess::signed(MemWidth::B);
        let lbu = MemAccess::unsigned(MemWidth::B);
        assert_eq!(lb.extend(0x80), 0xFFFF_FFFF_FFFF_FF80);
        assert_eq!(lbu.extend(0x80), 0x80);
        assert_eq!(lb.extend(0x7F), 0x7F);
        let lh = MemAccess::signed(MemWidth::H);
        assert_eq!(lh.extend(0x8000), 0xFFFF_FFFF_FFFF_8000);
        let lw = MemAccess::signed(MemWidth::W);
        assert_eq!(lw.extend(0x8000_0000), 0xFFFF_FFFF_8000_0000);
        let lwu = MemAccess::unsigned(MemWidth::W);
        assert_eq!(lwu.extend(0x8000_0000), 0x8000_0000);
        assert_eq!(MemAccess::D.extend(u64::MAX), u64::MAX);
    }

    #[test]
    fn sub_word_load_extends_and_store_truncates() {
        let lb = StaticInst::load_width(
            ArchReg::int(1),
            ArchReg::int(2),
            0,
            MemAccess::signed(MemWidth::B),
        );
        let out = lb.execute(0, 0x1000, 0, Some(0xFE));
        assert_eq!(out.result, Some((-2i64) as u64));

        let sb = StaticInst::store_width(ArchReg::int(3), ArchReg::int(2), 0, MemWidth::B);
        let out = sb.execute(0, 0x1000, 0xABCD, None);
        assert_eq!(out.store_value, Some(0xCD));
        assert_eq!(out.mem_addr, Some(0x1000));
    }

    #[test]
    fn effective_addresses_are_naturally_aligned() {
        let ld = StaticInst::load(ArchReg::int(1), ArchReg::int(2), 3);
        assert_eq!(ld.effective_address(0x1004), 0x1000);
        let lb = StaticInst::load_width(
            ArchReg::int(1),
            ArchReg::int(2),
            3,
            MemAccess::unsigned(MemWidth::B),
        );
        assert_eq!(lb.effective_address(0x1004), 0x1007);
        let lh = StaticInst::load_width(
            ArchReg::int(1),
            ArchReg::int(2),
            0,
            MemAccess::unsigned(MemWidth::H),
        );
        assert_eq!(lh.effective_address(0x1003), 0x1002);
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchCond::Eq.taken(5, 5));
        assert!(!BranchCond::Eq.taken(5, 6));
        assert!(BranchCond::Ne.taken(5, 6));
        assert!(BranchCond::Lt.taken(5, 6));
        assert!(BranchCond::Ge.taken(6, 6));
    }

    #[test]
    fn load_execute_computes_address_and_result() {
        let ld = StaticInst::load(ArchReg::int(1), ArchReg::int(2), 16);
        let out = ld.execute(10, 0x1000, 0, Some(42));
        assert_eq!(out.mem_addr, Some(0x1010));
        assert_eq!(out.result, Some(42));
        assert_eq!(out.next_pc, 11);
    }

    #[test]
    fn store_execute_reports_value_and_address() {
        let st = StaticInst::store(ArchReg::int(3), ArchReg::int(2), 8);
        let out = st.execute(0, 0x2000, 99, None);
        assert_eq!(out.mem_addr, Some(0x2008));
        assert_eq!(out.store_value, Some(99));
        assert_eq!(out.result, None);
    }

    #[test]
    fn branch_taken_and_not_taken_paths() {
        let b = StaticInst::branch(BranchCond::Lt, ArchReg::int(1), ArchReg::int(2), 3);
        let taken = b.execute(7, 1, 2, None);
        assert_eq!(taken.taken, Some(true));
        assert_eq!(taken.next_pc, 3);
        let not = b.execute(7, 2, 2, None);
        assert_eq!(not.taken, Some(false));
        assert_eq!(not.next_pc, 8);
    }

    #[test]
    fn jump_always_redirects() {
        let j = StaticInst::jump(0);
        let out = j.execute(5, 0, 0, None);
        assert_eq!(out.taken, Some(true));
        assert_eq!(out.next_pc, 0);
    }

    #[test]
    fn imm_operand_used_when_src2_absent() {
        let add = StaticInst::int_alu_imm(AluOp::Add, ArchReg::int(1), ArchReg::int(1), 64);
        let out = add.execute(0, 100, 0, None);
        assert_eq!(out.result, Some(164));
    }

    #[test]
    fn opcode_classification() {
        assert!(Opcode::Load(MemAccess::D).is_load());
        assert!(Opcode::FpStore.is_store());
        assert!(Opcode::Store(MemWidth::D).is_mem());
        assert!(Opcode::Jump.is_control());
        assert!(!Opcode::Jump.is_cond_branch());
        assert!(Opcode::Branch(BranchCond::Eq).is_cond_branch());
        assert_eq!(Opcode::Load(MemAccess::D).dest_class(), Some(RegClass::Int));
        assert_eq!(Opcode::FpLoad.dest_class(), Some(RegClass::Fp));
        assert_eq!(Opcode::Store(MemWidth::D).dest_class(), None);
        assert_eq!(Opcode::FpDiv.class(), OpClass::FpDiv);
        assert_eq!(
            Opcode::Load(MemAccess::signed(MemWidth::B)).mem_width(),
            Some(MemWidth::B)
        );
        assert_eq!(Opcode::Store(MemWidth::H).mem_width(), Some(MemWidth::H));
        assert_eq!(Opcode::FpLoad.load_access(), Some(MemAccess::D));
        assert_eq!(Opcode::FpStore.store_width(), Some(MemWidth::D));
        assert_eq!(Opcode::Nop.mem_width(), None);
    }

    #[test]
    fn display_is_nonempty() {
        let ld = StaticInst::load(ArchReg::int(1), ArchReg::int(2), 16);
        assert!(!ld.to_string().is_empty());
        assert!(!StaticInst::jump(4).to_string().is_empty());
    }

    #[test]
    fn fp_div_by_zero_saturates() {
        let d = StaticInst {
            opcode: Opcode::FpDiv,
            dest: Some(ArchReg::fp(0)),
            src1: Some(ArchReg::fp(1)),
            src2: Some(ArchReg::fp(2)),
            imm: 0,
            target: 0,
        };
        let out = d.execute(0, 10, 0, None);
        assert_eq!(out.result, Some(u64::MAX));
    }
}
