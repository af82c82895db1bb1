//! Common model types for the Precise Runahead Execution (PRE) simulator.
//!
//! This crate defines everything the rest of the workspace agrees on:
//!
//! * the synthetic micro-op ISA executed by the simulator ([`isa`]),
//! * architectural and physical register identifiers ([`reg`]),
//! * the functional memory image used for execution-driven simulation
//!   ([`mem`]),
//! * static programs built from the ISA ([`program`]),
//! * the simulator configuration, defaulting to the paper's Table 1
//!   Haswell-like core ([`config`]),
//! * the statistics each run produces ([`stats`]),
//! * and the JSON writer and reader behind every report ([`json`]).
//!
//! # Example
//!
//! ```
//! use pre_model::config::SimConfig;
//!
//! let cfg = SimConfig::haswell_like();
//! assert_eq!(cfg.core.rob_entries, 192);
//! assert_eq!(cfg.core.int_phys_regs, 168);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod error;
pub mod hash;
pub mod isa;
pub mod json;
pub mod mem;
pub mod profile;
pub mod program;
pub mod reg;
pub mod rng;
pub mod snapshot;
pub mod stats;

pub use config::SimConfig;
pub use error::ConfigError;
pub use hash::{stable_hash_of_debug, StableHasher};
pub use isa::{AluOp, BranchCond, Opcode, StaticInst};
pub use mem::FuncMem;
pub use profile::{
    cluster_intervals, profile_intervals, Bbv, Clustering, IntervalProfile, ProfiledInterval,
    Representative,
};
pub use program::Program;
pub use reg::{ArchReg, PhysReg, RegClass};
pub use snapshot::{SimSnapshot, WarmBranch, WarmEvent, WarmTrace};
pub use stats::SimStats;
