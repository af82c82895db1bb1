//! Execution-driven out-of-order core simulator with integrated runahead
//! execution.
//!
//! The pipeline models the paper's Table 1 baseline: an 8-stage front-end
//! feeding a 4-wide rename/dispatch/issue/commit back-end with a 192-entry
//! ROB, a 92-entry unified issue queue, 64-entry load and store queues and
//! 168 + 168 physical registers, connected to the `pre-mem` cache hierarchy.
//! Register values are real (execution-driven simulation), so runahead
//! execution computes real prefetch addresses.
//!
//! The same pipeline implements all five configurations of the paper's
//! evaluation, selected by [`pre_runahead::Technique`]:
//!
//! * the out-of-order baseline (no runahead),
//! * traditional runahead (flush-style, with the Mutlu et al. entry
//!   optimizations),
//! * the runahead buffer (single-chain replay, front end gated),
//! * PRE (SST-filtered runahead using free back-end resources, no flush), and
//! * PRE + EMQ (additionally buffering runahead micro-ops for re-dispatch).
//!
//! # Example
//!
//! ```
//! use pre_core::OooCore;
//! use pre_model::config::SimConfig;
//! use pre_model::isa::{AluOp, StaticInst};
//! use pre_model::program::Program;
//! use pre_model::reg::ArchReg;
//! use pre_runahead::Technique;
//!
//! // A tiny program: r1 = 1 + 2.
//! let mut program = Program::new("tiny");
//! program.insts = vec![
//!     StaticInst::load_imm(ArchReg::int(1), 1),
//!     StaticInst::int_alu_imm(AluOp::Add, ArchReg::int(1), ArchReg::int(1), 2),
//! ];
//! let mut core = OooCore::new(&SimConfig::haswell_like(), &program, Technique::OutOfOrder)?;
//! core.run(1_000, 10_000);
//! assert_eq!(core.arch_reg(ArchReg::int(1)), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod freelist;
pub mod iq;
mod lsq;
mod pipeline;
pub mod rat;
mod regfile;
pub mod rename;
pub mod rob;
mod runahead_store_buffer;
mod sorted_deque;
mod uop;
mod warm;

pub use pipeline::{BuildError, OooCore};
pub use regfile::PhysRegFile;
pub use rename::{DestRename, RenameSubsystem};
pub use warm::WarmedState;
