//! Memory hierarchy for the PRE simulator.
//!
//! The hierarchy matches Table 1 of the paper: a 32 KB L1 instruction cache,
//! a 32 KB L1 data cache, a private 256 KB L2, a 1 MB last-level cache and
//! DDR3-1600 main memory with 4 ranks, 32 banks and 4 KB row buffers.
//!
//! The model is latency-based and execution-driven: every access resolves to
//! a *completion cycle* computed from the cache level that holds the line,
//! MSHR occupancy (secondary misses merge), DRAM bank/row-buffer state and
//! data-bus occupancy. Lines are installed with a `ready_at` timestamp so
//! that requests overlapping an in-flight fill observe the fill latency —
//! this is what creates memory-level parallelism for runahead prefetches to
//! exploit.
//!
//! # Example
//!
//! ```
//! use pre_model::config::SimConfig;
//! use pre_mem::{AccessKind, MemoryHierarchy};
//!
//! let cfg = SimConfig::haswell_like();
//! let mut mem = MemoryHierarchy::new(&cfg);
//! let miss = mem.load(0x4000, 100, AccessKind::Demand);
//! let hit = mem.load(0x4000, miss.completion_cycle, AccessKind::Demand);
//! assert!(hit.completion_cycle - miss.completion_cycle < miss.latency(100));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod dram;
mod hierarchy;
mod mshr;

pub use cache::{Cache, CacheStats, Eviction, ProbeResult};
pub use dram::{Dram, DramStats};
pub use hierarchy::{AccessKind, HitLevel, MemAccess, MemoryHierarchy};
pub use mshr::MshrFile;
