//! Tracing and metrics for the PRE reproduction.
//!
//! The simulator core drives a [`Tracer`] through narrow hooks placed on the
//! pipeline's already-existing decision points. Every hook has a no-op
//! default and the core guards each call site with a single
//! `Option::is_some` branch, so a run without a tracer attached pays one
//! untaken branch per hook and nothing else — the repository benchmark's
//! untraced `ns_per_cycle` holds the disabled path to the parent commit's.
//!
//! Four observation streams are implemented on top of the trait:
//!
//! * [`pipeview`] — per-micro-op lifecycle stamps (fetch → retire/squash) in
//!   gem5 `O3PipeView` text, loadable in Konata;
//! * [`chrome`] — runahead intervals, fast-forward jumps, stall spans and
//!   off-chip miss events as `chrome://tracing` JSON on the simulated clock;
//! * [`timeseries`] — windowed IPC / occupancy / free-register / MLP samples
//!   as CSV or JSON;
//! * [`commitlog`] — the committed (PC, op class, effective address, width)
//!   stream as a compact binary log with a reader API.
//!
//! [`TraceSession`] bundles any subset of the four behind one [`Tracer`]
//! (selected by a [`TraceSpec`], the value of the `--trace` CLI flag);
//! [`IntervalCollector`] is a cheap in-memory tracer that only keeps the
//! runahead entry/exit event log (used by `debug_stats`).
//!
//! Tracers observe and never steer: a hook must not mutate simulator state,
//! and the `trace_golden` suite asserts `SimStats` are bit-identical with
//! tracing on and off.

pub mod chrome;
pub mod collect;
pub mod commitlog;
pub mod pipeview;
mod ring;
mod spec;
pub mod timeseries;

mod session;

pub use collect::IntervalCollector;
pub use ring::CommitRing;
pub use session::TraceSession;
pub use spec::{TimeSeriesFormat, TraceSpec, TraceSpecError};

use pre_model::isa::{OpClass, StaticInst};
use pre_model::stats::RunaheadEvent;
use std::any::Any;
use std::fmt;

/// The mode the core was in when a [`Tracer::fast_forward`] jump skipped
/// its cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FfMode {
    /// Normal-mode quiescence (full-window stall on an off-chip load).
    Normal,
    /// Runahead-mode quiescence (flush-style or precise runahead).
    Runahead,
}

impl FfMode {
    /// Short label used in trace output.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FfMode::Normal => "ff-normal",
            FfMode::Runahead => "ff-runahead",
        }
    }
}

/// Which level serviced an off-chip data access reported through
/// [`Tracer::mem_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissLevel {
    /// Missed L2, serviced by the LLC.
    L2Miss,
    /// Missed the LLC, serviced by DRAM.
    LlcMiss,
}

impl MissLevel {
    /// Short label used in trace output.
    pub(crate) fn label(self) -> &'static str {
        match self {
            MissLevel::L2Miss => "l2-miss",
            MissLevel::LlcMiss => "llc-miss",
        }
    }
}

/// An off-chip data-cache miss observed at issue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// Issue cycle of the load.
    pub cycle: u64,
    /// PC of the load.
    pub pc: u32,
    /// Effective byte address.
    pub addr: u64,
    /// Deepest level the access had to reach.
    pub level: MissLevel,
    /// `true` for runahead prefetches, `false` for demand loads.
    pub prefetch: bool,
    /// Cycle the fill completes.
    pub completes: u64,
    /// L1D MSHR occupancy right after the access (outstanding misses — the
    /// instantaneous memory-level parallelism).
    pub mshr_occupancy: usize,
}

/// One architecturally retired micro-op, as seen by the commit stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommittedUop {
    /// Dispatch-order micro-op id.
    pub id: u64,
    /// Program counter (instruction index).
    pub pc: u32,
    /// Functional-unit class.
    pub class: OpClass,
    /// Effective byte address for loads and stores.
    pub addr: Option<u64>,
    /// Access width in bytes for loads and stores, 0 otherwise.
    pub width: u8,
}

/// One time-series sample of pipeline state, taken by the run loop at
/// window boundaries. Occupancies are instantaneous; counters are cumulative
/// (the sampler differences them per window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Cycle the sample was taken at.
    pub cycle: u64,
    /// Cumulative committed micro-ops.
    pub committed_uops: u64,
    /// Reorder-buffer occupancy.
    pub rob: usize,
    /// Issue-queue occupancy.
    pub iq: usize,
    /// Load-queue occupancy.
    pub lq: usize,
    /// Store-queue occupancy.
    pub sq: usize,
    /// Extended micro-op queue occupancy.
    pub emq: usize,
    /// Fraction of the integer physical register file that is free.
    pub free_int_frac: f64,
    /// Fraction of the floating-point physical register file that is free.
    pub free_fp_frac: f64,
    /// Outstanding L1D misses (MSHR occupancy — instantaneous MLP).
    pub mshr_occupancy: usize,
    /// Cumulative L2 data misses.
    pub l2_misses: u64,
    /// Cumulative LLC data misses.
    pub l3_misses: u64,
    /// `true` while the core is in (any flavour of) runahead mode.
    pub in_runahead: bool,
}

/// Observation hooks driven by the simulator core.
///
/// Every method has a no-op default, so an implementation only overrides the
/// streams it cares about. Implementations must treat the simulator as
/// read-only: the golden tracing-on/off test asserts that attaching any
/// tracer leaves `SimStats` bit-identical.
///
/// `Send` is a supertrait so a core with a tracer attached can still run on
/// the parallel evaluation matrix; `Debug` keeps the core's own derive
/// working.
pub trait Tracer: fmt::Debug + Send {
    // ---- per-micro-op lifecycle ----------------------------------------

    /// A micro-op entered the frontend delay pipe.
    fn uop_fetched(&mut self, _pc: u32, _inst: &StaticInst, _cycle: u64) {}

    /// The oldest fetched micro-op left the delay pipe for the micro-op
    /// queue.
    fn uop_decoded(&mut self, _cycle: u64) {}

    /// The PRE decode filter consumed the oldest decoded micro-op.
    /// `captured` is set when it was buffered in the EMQ (it will dispatch
    /// later), `executed` when it hit in the SST and was injected as a
    /// runahead micro-op.
    fn uop_filtered(&mut self, _cycle: u64, _captured: bool, _executed: bool) {}

    /// The oldest decoded (or EMQ-buffered, when `from_emq`) micro-op was
    /// renamed and dispatched as micro-op `id`.
    fn uop_dispatched(&mut self, _id: u64, _pc: u32, _cycle: u64, _from_emq: bool) {}

    /// Micro-op `id` issued to a functional unit.
    fn uop_issued(&mut self, _id: u64, _cycle: u64) {}

    /// Micro-op `id`'s writeback completed.
    fn uop_completed(&mut self, _id: u64, _cycle: u64) {}

    /// Micro-op `id` retired architecturally.
    fn uop_committed(&mut self, _uop: &CommittedUop, _cycle: u64) {}

    /// Micro-op `id` was squashed after dispatch (branch recovery, a
    /// flush-style runahead entry/exit, or pseudo-retirement of a discarded
    /// runahead window).
    fn uop_squashed(&mut self, _id: u64, _cycle: u64) {}

    /// Every pre-dispatch micro-op (delay pipe, micro-op queue and EMQ) was
    /// discarded.
    fn frontend_flushed(&mut self, _cycle: u64) {}

    // ---- spans and events ----------------------------------------------

    /// A runahead interval began. `ev.kind` is `Entry`.
    fn runahead_entry(&mut self, _ev: &RunaheadEvent, _stalling_pc: u32) {}

    /// The active runahead interval ended. `ev.kind` is `Exit`; the interval
    /// spanned `entered_at..ev.cycle`.
    fn runahead_exit(&mut self, _ev: &RunaheadEvent, _entered_at: u64, _stalling_pc: u32) {}

    /// The event scheduler fast-forwarded the clock from `from` to `to`:
    /// cycles `from+1..=to` were skipped, and the next tick runs `to + 1`.
    fn fast_forward(&mut self, _from: u64, _to: u64, _mode: FfMode) {}

    /// One cycle (or `count` bulk-accumulated cycles) during which fetch
    /// stalled on a full EMQ.
    fn emq_full_cycles(&mut self, _cycle: u64, _count: u64) {}

    /// One cycle (or `count` bulk-accumulated cycles) of full-window stall.
    fn window_stall_cycles(&mut self, _cycle: u64, _count: u64) {}

    /// A data access missed L2 or the LLC.
    fn mem_event(&mut self, _ev: &MemEvent) {}

    // ---- windowed time-series ------------------------------------------

    /// `true` when the tracer wants a [`Sample`] at `cycle`. The core builds
    /// the (comparatively expensive) snapshot only when this returns `true`.
    fn sample_due(&mut self, _cycle: u64) -> bool {
        false
    }

    /// Deliver the sample requested by [`Tracer::sample_due`].
    fn sample(&mut self, _s: &Sample) {}

    // ---- teardown ------------------------------------------------------

    /// The run ended (halted, budget-bounded or deadlocked) at `cycle`:
    /// flush buffers and write output files.
    fn finish(&mut self, _cycle: u64) {}

    /// Recover the concrete tracer after the core hands it back as a trait
    /// object.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}
