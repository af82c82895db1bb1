//! A RISC-V (RV64I subset) assembly frontend for the PRE simulator.
//!
//! The synthetic workloads in `pre-workloads` are *generated*; this crate
//! lets the simulator run *real programs*: a two-pass assembler + loader
//! that lowers an RV64I subset (register/immediate ALU ops including
//! `sra`/`srai`, the full `lb`/`lbu`/`lh`/`lhu`/`lw`/`lwu`/`ld` and
//! `sb`/`sh`/`sw`/`sd` load/store family at their true access widths, the
//! full branch family, `jal`/`jalr`, labels and
//! `.data`/`.byte`/`.half`/`.word`/`.fill`/`.align` directives, with `x0`
//! hardwired-zero semantics) onto the existing micro-op ISA
//! ([`pre_model::isa::StaticInst`], whose memory micro-ops carry an
//! explicit [`pre_model::isa::MemAccess`] width) and emits a ready-to-run
//! [`pre_model::Program`] — instructions, initial memory image (8-byte and
//! byte-granular) and initial registers (`sp` pointing at a stack).
//!
//! See [`assembler`] for the exact lowering rules (signed branches, the
//! `jalr` return-address dispatch, reserved `gp`/`tp` scratch registers)
//! and [`AsmKernel`] for the bundled nine-kernel suite (matmul, quicksort,
//! pointer-chase, box-blur, prime sieve, binary search, chase-large,
//! byte-histo, struct-chase).
//!
//! # Example
//!
//! ```
//! use pre_asm::assemble;
//!
//! let program = assemble(
//!     "triangle",
//!     r#"
//!     main:   li   a0, 10
//!             li   a1, 0
//!     loop:   add  a1, a1, a0
//!             addi a0, a0, -1
//!             bnez a0, loop
//!     "#,
//! )?;
//! let mut interp = pre_model::program::Interpreter::new(&program);
//! while interp.step() {}
//! assert_eq!(interp.reg(pre_model::reg::ArchReg::int(11)), 55);
//! # Ok::<(), pre_asm::AsmError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assembler;
mod error;
mod kernels;

pub use assembler::assemble;
pub use error::{AsmError, AsmErrorKind};
pub use kernels::{AsmKernel, ParseAsmKernelError};
