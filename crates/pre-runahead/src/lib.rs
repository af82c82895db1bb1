//! Precise Runahead Execution (PRE): the paper's contribution.
//!
//! This crate implements the hardware structures and policies proposed (or
//! compared against) in *"Precise Runahead Execution"* by Naithani, Feliu,
//! Adileh and Eeckhout:
//!
//! * [`sst::StallingSliceTable`] — the SST, a fully-associative PC cache that
//!   learns, iteratively through the renaming unit, every instruction that
//!   belongs to a *stalling slice* (the backward dependence chain of a
//!   long-latency load). In runahead mode only instructions that hit in the
//!   SST are executed (Section 3.2).
//! * [`prdq::PreciseRegisterDeallocationQueue`] — the PRDQ, the in-order
//!   queue that implements *runahead register reclamation*: physical
//!   registers allocated by runahead instructions are returned to the free
//!   list as soon as the allocating instruction has executed and reached the
//!   queue head, without waiting for a commit that will never happen
//!   (Section 3.4).
//! * [`emq::ExtendedMicroOpQueue`] — the EMQ, an optional buffer holding all
//!   micro-ops decoded in runahead mode so they can be dispatched after exit
//!   without re-fetching them (Section 3.3).
//! * [`RunaheadBuffer`] and [`ChainReplayEngine`] — the prior-work *runahead
//!   buffer* (Hashemi et al., MICRO 2015): backward data-flow chain
//!   extraction from the ROB and the chain-replay engine that loops the
//!   extracted slice during runahead mode.
//! * [`EntryPolicy`] — entry policies: the Mutlu-style short-interval / overlap
//!   avoidance used by traditional runahead and the runahead buffer, versus
//!   PRE's unconditional entry.
//! * [`technique::Technique`] — the five machine configurations evaluated in
//!   the paper (out-of-order baseline, RA, RA-buffer, PRE, PRE + EMQ).
//!
//! The cycle-level integration of these structures into the out-of-order
//! pipeline lives in the `pre-core` crate; everything here is independent of
//! the pipeline so it can be unit- and property-tested in isolation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod emq;
mod policy;
mod prdq;
mod runahead_buffer;
mod sst;
mod technique;

pub use emq::ExtendedMicroOpQueue;
pub use policy::{EntryDecision, EntryPolicy};
pub use prdq::{PrdqEntry, PreciseRegisterDeallocationQueue};
pub use runahead_buffer::{ChainReplayEngine, RunaheadBuffer, WindowUop};
pub use sst::StallingSliceTable;
pub use technique::{ParseTechniqueError, Technique};
