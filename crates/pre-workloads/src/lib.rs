//! Synthetic SPEC-CPU2006-like workloads for the PRE simulator.
//!
//! The paper evaluates PRE on the memory-intensive subset of SPEC CPU2006
//! (the same set used by the runahead-buffer work), simulating 1-billion
//! instruction SimPoints. SPEC binaries and traces cannot be redistributed,
//! so this crate substitutes each benchmark with a synthetic kernel that
//! reproduces the property runahead execution is sensitive to: the *stalling
//! slice structure* — how many distinct dependence chains lead to
//! LLC-missing loads, how long those chains are, and whether their address
//! generation is strided, indexed or pointer-chasing — together with the
//! approximate memory intensity (LLC misses per kilo-instruction).
//!
//! Each generator's stalling-slice shape is described in
//! [`Workload::description`].
//!
//! Alongside the synthetic generators, the suite carries the **assembled
//! RISC-V kernels** from `pre-asm` ([`Workload::ASM_SUITE`], names prefixed
//! `asm-`): real programs with real control flow and address streams,
//! first-class members of [`Workload`].
//!
//! # Example
//!
//! ```
//! use pre_workloads::{Workload, WorkloadParams};
//!
//! let program = Workload::LibquantumLike.build(&WorkloadParams::default());
//! assert!(program.validate().is_ok());
//! assert!(program.len() > 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
mod kernels;
pub mod suite;

pub use builder::KernelBuilder;
pub use suite::{SliceProfile, Workload, WorkloadParams};
