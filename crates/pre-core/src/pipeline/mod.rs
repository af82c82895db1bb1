//! The out-of-order pipeline with integrated runahead execution.
//!
//! [`OooCore`] ties together the front end (`pre-frontend`), the rename and
//! back-end structures of this crate, the memory hierarchy (`pre-mem`) and
//! the runahead structures (`pre-runahead`). One instance simulates one
//! program under one [`Technique`].
//!
//! The per-cycle loop walks the pipeline backwards (commit → issue →
//! dispatch → decode → fetch) so that a micro-op spends at least one cycle in
//! each stage. Stage implementations live in [`mod@self`] (commit,
//! completion, run control), `stages` (fetch/decode/dispatch/issue and branch
//! recovery) and `runahead` (full-window-stall detection, runahead entry,
//! exit and the PRE decode filter).

mod runahead;
mod stages;

use crate::iq::{IssueQueue, ReadyKey};
use crate::lsq::LoadStoreQueue;
use crate::regfile::PhysRegFile;
use crate::rename::RenameSubsystem;
use crate::rob::ReorderBuffer;
use crate::runahead_store_buffer::RunaheadStoreBuffer;
use crate::uop::DynUop;
use pre_frontend::{BranchPredictorUnit, DelayPipe, UopQueue};
use pre_mem::{HitLevel, MemoryHierarchy};
use pre_model::config::SimConfig;
use pre_model::error::{ConfigError, ProgramError, SimError, WatchdogDiag};
use pre_model::isa::StaticInst;
use pre_model::mem::FuncMem;
use pre_model::program::{fold_store_checksum, ArchSnapshot, Program};
use pre_model::reg::{ArchReg, PhysReg, RegClass, NUM_ARCH_REGS};
use pre_model::snapshot::SimSnapshot;
use pre_model::stats::{SimStats, TerminationKind};
use pre_runahead::{ChainReplayEngine, EntryPolicy, StallingSliceTable, Technique};
use pre_trace::{CommitRing, CommittedUop, FfMode, Sample, Tracer};
use std::error::Error;
use std::fmt;

mod event_queue;
use event_queue::EventQueue;

/// Cycles without a commit after which the run is declared deadlocked (a
/// modelling-bug safety net, not an architectural feature).
pub(crate) const DEADLOCK_WINDOW: u64 = 200_000;

/// Commits retained by the always-on [`CommitRing`] for watchdog
/// diagnostics.
pub(crate) const COMMIT_RING_CAPACITY: usize = 8;

/// Execution mode of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Normal out-of-order execution.
    Normal,
    /// Flush-style runahead (traditional runahead or the runahead buffer):
    /// the window is discarded at entry and the pipeline is flushed at exit.
    RunaheadFlush(FlushKind),
    /// Precise runahead: the ROB is preserved, runahead micro-ops execute on
    /// free resources.
    RunaheadPre,
}

/// Which flush-style runahead flavour is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushKind {
    /// Traditional runahead: the front end keeps fetching and the whole
    /// future instruction stream is pre-executed.
    Traditional,
    /// Runahead buffer: the front end is gated and the extracted dependence
    /// chain replays in a loop.
    Buffer,
}

/// A scheduled completion event for an issued micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InFlight {
    pub completion: u64,
    pub id: u64,
    /// ROB slot of the issuing micro-op ([`crate::rob::INVALID_SLOT`] for
    /// runahead micro-ops); validated against `id` at completion, so stale
    /// events after a squash fail safely.
    pub rob_slot: u32,
    pub is_runahead: bool,
    pub interval_seq: u64,
    pub dest: Option<(RegClass, PhysReg)>,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.completion, self.id).cmp(&(other.completion, other.id))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-interval runahead bookkeeping (checkpoints and exit information).
#[derive(Debug, Clone)]
pub(crate) struct RunaheadInterval {
    pub stalling_pc: u32,
    pub expected_return: u64,
    pub entered_at: u64,
    pub arch_checkpoint: Option<[u64; NUM_ARCH_REGS]>,
    pub history: u64,
    pub resume_fetch_pc: u32,
    /// PRDQ allocation counter at entry, so the exit event can report how
    /// many entries this interval allocated.
    pub prdq_allocs_at_entry: u64,
}

/// Error building an [`OooCore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The simulator configuration is inconsistent.
    Config(ConfigError),
    /// The program is malformed.
    Program(ProgramError),
    /// A requested trace output could not be created (I/O failure when
    /// opening the trace files).
    Trace(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Config(e) => write!(f, "invalid configuration: {e}"),
            BuildError::Program(e) => write!(f, "invalid program: {e}"),
            BuildError::Trace(e) => write!(f, "cannot create trace output: {e}"),
        }
    }
}

impl Error for BuildError {}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

impl From<ProgramError> for BuildError {
    fn from(e: ProgramError) -> Self {
        BuildError::Program(e)
    }
}

impl From<BuildError> for SimError {
    fn from(e: BuildError) -> Self {
        match e {
            BuildError::Config(e) => SimError::Config(e),
            BuildError::Program(e) => SimError::Program(e),
            BuildError::Trace(detail) => SimError::Trace(detail),
        }
    }
}

/// The out-of-order core simulator.
///
/// See the crate-level documentation for an example.
#[derive(Debug)]
pub struct OooCore {
    pub(crate) cfg: SimConfig,
    pub(crate) technique: Technique,
    /// The program's instructions (the PC of `insts[i]` is `i`). The core
    /// never reads the program's initial image after construction, so it
    /// keeps only these.
    pub(crate) insts: Box<[StaticInst]>,

    // Functional / architectural state.
    pub(crate) mem_hier: MemoryHierarchy,
    pub(crate) func_mem: FuncMem,
    pub(crate) arf: [u64; NUM_ARCH_REGS],

    // Front end.
    pub(crate) predictor: BranchPredictorUnit,
    pub(crate) delay_pipe: DelayPipe<DynUop>,
    pub(crate) uop_queue: UopQueue<DynUop>,
    pub(crate) fetch_pc: u32,
    pub(crate) fetch_stall_until: u64,
    pub(crate) fetch_done: bool,
    pub(crate) last_fetch_line: Option<u64>,
    pub(crate) next_dispatch_pc: u32,

    // Rename: allocation, mapping, checkpointing and every reclamation path
    // (commit, branch recovery, PRDQ drain, eager drain) live behind this
    // subsystem.
    pub(crate) rename: RenameSubsystem,

    // Back end.
    pub(crate) rob: ReorderBuffer,
    pub(crate) iq: IssueQueue,
    pub(crate) lsq: LoadStoreQueue,
    pub(crate) in_flight: EventQueue,
    pub(crate) next_id: u64,
    pub(crate) dispatch_blocked: bool,
    pub(crate) pending_recovery: Option<(u64, u32)>,

    // Runahead machinery.
    pub(crate) mode: Mode,
    pub(crate) use_emq: bool,
    pub(crate) entry_policy: EntryPolicy,
    pub(crate) sst: StallingSliceTable,
    /// The Extended Micro-op Queue (Section 3.3): with PRE+EMQ, every
    /// micro-op decoded in runahead mode (SST hits and misses alike) is
    /// buffered here and dispatched straight from it after exit instead of
    /// being fetched and decoded again. Runahead stalls once it is full, so
    /// its capacity (768 entries, 4 × ROB, in the paper) bounds the interval.
    pub(crate) emq: UopQueue<DynUop>,
    pub(crate) chain_engine: Option<ChainReplayEngine>,
    /// Line-granular runahead store buffer (runahead stores never reach
    /// memory; their bytes are forwarded to younger runahead loads).
    pub(crate) runahead_store_buffer: RunaheadStoreBuffer,
    pub(crate) interval: Option<RunaheadInterval>,
    pub(crate) interval_seq: u64,
    pub(crate) last_stall_head_id: Option<u64>,
    pub(crate) runahead_done_for: Option<u64>,
    /// Set when an event that can create new eager-drain candidates occurred
    /// this interval (a normal micro-op issued or completed), and kept set
    /// while a seed pass is cut short by a full PRDQ: the candidate set only
    /// changes at those boundaries, so the runahead cycle hook runs a
    /// [`RenameSubsystem::seed_eager`] pass only while this is set.
    pub(crate) pre_eager_rescan: bool,
    /// The technique keeps the window across runahead intervals (PRE and
    /// PRE+EMQ), so the eager drain's candidate tracker follows the window
    /// in normal mode too: completions, issues, commits and squashes are
    /// reported to it. Other techniques pay nothing.
    pub(crate) eager_tracked: bool,

    // Time, statistics and run control.
    pub(crate) cycle: u64,
    pub(crate) stats: SimStats,
    pub(crate) halted: bool,
    pub(crate) deadlocked: bool,
    pub(crate) last_progress_cycle: u64,
    /// Always-on ring of the last few committed `(cycle, pc)` pairs, so a
    /// watchdog abort can report where the machine last made progress even
    /// when no tracer was attached. Two stores per commit; their cost is
    /// inside the benchmark's `ns_per_cycle`.
    pub(crate) commit_ring: CommitRing,
    /// Attached observation hooks (`None` in normal runs: every hook site
    /// pays one untaken branch and nothing else). Tracers observe committed
    /// pipeline decisions and never steer them — the `trace_golden` suite
    /// asserts [`SimStats`] stay bit-identical with and without a tracer.
    pub(crate) tracer: Option<Box<dyn Tracer>>,

    // Reusable retry list of the issue stage, so the per-cycle path performs
    // no heap allocation. (PRE checkpoints the rename state without copying:
    // see `RenameSubsystem::begin_runahead_interval`.) Flush-style entry
    // still allocates, once per interval: the invalidation list and the
    // runahead buffer's window, chain and INV register list.
    pub(crate) issue_retry: Vec<ReadyKey>,
}

impl OooCore {
    /// Builds a core simulating `program` under `technique` from a cold
    /// start: the program's initial registers and memory image, cold caches
    /// and an untrained branch predictor.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when the configuration or the program fails
    /// validation.
    pub fn new(
        cfg: &SimConfig,
        program: &Program,
        technique: Technique,
    ) -> Result<Self, BuildError> {
        Self::validate(cfg, program)?;
        Ok(Self::build(
            cfg,
            program,
            technique,
            program.build_registers(),
            program.entry,
            program.build_memory(),
            crate::WarmedState::cold(cfg),
        ))
    }

    /// Builds a core resuming from a warm-up snapshot instead of a cold
    /// start: architectural registers, PC and functional memory come from
    /// `snap`; caches and branch predictor are cloned from `warmed` (built
    /// once per memory-hierarchy configuration via
    /// [`crate::WarmedState::build`] and shared across every core forked
    /// from the same snapshot).
    ///
    /// A fork shares what it only reads: the snapshot's memory pages are
    /// shared copy-on-write (the core copies a page on its first store to
    /// it), and of the program only the instructions are kept. The warmed
    /// hierarchy and predictor, which the core mutates on every access, are
    /// the only structures cloned wholesale.
    ///
    /// The core starts at cycle 0 with empty statistics: a snapshot run
    /// reports only the work performed after the snapshot point, and two
    /// cores forked from the same `(snap, warmed)` pair are bit-identical by
    /// construction — there is no separate "restore" code path that could
    /// drift from this one.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when the configuration or the program fails
    /// validation.
    pub fn from_snapshot(
        cfg: &SimConfig,
        program: &Program,
        technique: Technique,
        snap: &SimSnapshot,
        warmed: &crate::WarmedState,
    ) -> Result<Self, BuildError> {
        Self::validate(cfg, program)?;
        // Fetch resumes at the snapshot PC. `fetch_done` starts false even
        // when warm-up consumed the whole program: the fetch stage discovers
        // the end itself when no instruction exists at the PC.
        Ok(Self::build(
            cfg,
            program,
            technique,
            snap.regs,
            snap.pc,
            snap.mem.clone(),
            warmed.clone(),
        ))
    }

    /// Checks the configuration and the program before anything is built
    /// from them (cache construction assumes a valid geometry).
    fn validate(cfg: &SimConfig, program: &Program) -> Result<(), BuildError> {
        cfg.validate()?;
        program.validate()?;
        Ok(())
    }

    /// The one constructor body behind [`new`](Self::new) and
    /// [`from_snapshot`](Self::from_snapshot). It takes the starting
    /// architectural state (`arf`, `pc`, `func_mem`) and the cold or warmed
    /// caches and predictor (`warmed`) by value, so neither caller builds a
    /// structure only to replace it.
    fn build(
        cfg: &SimConfig,
        program: &Program,
        technique: Technique,
        arf: [u64; NUM_ARCH_REGS],
        pc: u32,
        func_mem: FuncMem,
        warmed: crate::WarmedState,
    ) -> Self {
        let core_cfg = &cfg.core;
        let rename = RenameSubsystem::new(
            core_cfg.int_phys_regs,
            core_cfg.fp_phys_regs,
            cfg.runahead.prdq_entries,
            &arf,
        );
        let entry_policy = technique.entry_policy(&cfg.runahead);
        OooCore {
            mem_hier: warmed.mem_hier,
            func_mem,
            arf,
            predictor: warmed.predictor,
            delay_pipe: DelayPipe::new(
                core_cfg.frontend_depth as u64,
                core_cfg.fetch_width * (core_cfg.frontend_depth + 1),
            ),
            uop_queue: UopQueue::new(core_cfg.fetch_width * 4),
            fetch_pc: pc,
            fetch_stall_until: 0,
            fetch_done: false,
            last_fetch_line: None,
            next_dispatch_pc: pc,
            rename,
            rob: ReorderBuffer::new(core_cfg.rob_entries),
            iq: IssueQueue::new(core_cfg.iq_entries),
            lsq: LoadStoreQueue::new(core_cfg.lq_entries, core_cfg.sq_entries),
            in_flight: EventQueue::new(),
            next_id: 1,
            dispatch_blocked: false,
            pending_recovery: None,
            mode: Mode::Normal,
            use_emq: technique.uses_emq(),
            entry_policy,
            sst: StallingSliceTable::new(cfg.runahead.sst_entries),
            emq: UopQueue::new(cfg.runahead.emq_entries),
            chain_engine: None,
            runahead_store_buffer: RunaheadStoreBuffer::new(),
            interval: None,
            interval_seq: 0,
            last_stall_head_id: None,
            runahead_done_for: None,
            pre_eager_rescan: false,
            eager_tracked: technique.preserves_rob(),
            cycle: 0,
            stats: SimStats::new(),
            halted: false,
            deadlocked: false,
            last_progress_cycle: 0,
            commit_ring: CommitRing::new(COMMIT_RING_CAPACITY),
            tracer: None,
            issue_retry: Vec::new(),
            cfg: cfg.clone(),
            technique,
            insts: program.insts.as_slice().into(),
        }
    }

    /// `true` once the program has fully retired and the pipeline drained.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// `true` if the run was aborted because no instruction committed for an
    /// implausibly long time (indicates a modelling bug; asserted against in
    /// tests).
    pub fn deadlocked(&self) -> bool {
        self.deadlocked
    }

    /// Diagnostic dump for a watchdog abort: where the machine was when it
    /// wedged (cycle, ROB/IQ occupancy, and the last committed PCs from the
    /// always-on commit ring). `None` unless the run [`deadlocked`](Self::deadlocked).
    pub fn watchdog_diag(&self) -> Option<WatchdogDiag> {
        if !self.deadlocked {
            return None;
        }
        Some(WatchdogDiag {
            cycle: self.cycle,
            committed_uops: self.stats.committed_uops,
            rob_occupancy: self.rob.len(),
            rob_capacity: self.rob.capacity(),
            iq_occupancy: self.iq.len(),
            iq_capacity: self.iq.capacity(),
            last_commits: self.commit_ring.entries(),
        })
    }

    /// The committed (architectural) value of `reg`.
    pub fn arch_reg(&self, reg: ArchReg) -> u64 {
        self.arf[reg.flat_index()]
    }

    /// Accumulated statistics. [`OooCore::run`] folds the cache, DRAM and
    /// structure counters in before it returns.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Attaches a [`Tracer`] whose hooks the pipeline drives from the next
    /// cycle on. Tracers observe and never steer: attaching one leaves the
    /// simulated outcome (and [`SimStats`]) bit-identical.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Detaches and returns the attached tracer, if any. Call after the run
    /// (the run loop already invoked [`Tracer::finish`]).
    pub fn take_tracer(&mut self) -> Option<Box<dyn Tracer>> {
        self.tracer.take()
    }

    /// Snapshot of the committed architectural state, comparable against
    /// [`pre_model::program::Interpreter::snapshot`] after the same number of
    /// retired instructions.
    pub fn arch_snapshot(&self) -> ArchSnapshot {
        ArchSnapshot {
            regs: self.arf,
            retired: self.stats.committed_uops,
            store_checksum: self.stats.store_checksum,
            stores: self.stats.committed_stores,
            next_pc: self
                .rob
                .head()
                .map(|h| h.pc)
                .unwrap_or(self.next_dispatch_pc),
        }
    }

    /// Advances the simulation by one cycle.
    pub(crate) fn tick(&mut self) {
        self.cycle += 1;
        let now = self.cycle;
        self.process_completions(now);
        self.check_runahead_exit(now);
        self.commit_stage(now);
        self.issue_stage(now);
        if let Some((branch_id, target)) = self.pending_recovery.take() {
            self.recover_from_branch(branch_id, target, now);
        }
        self.dispatch_stage(now);
        self.decode_stage(now);
        self.fetch_stage(now);
        self.runahead_cycle_hook(now);
    }

    /// Runs until `max_uops` micro-ops have committed, `max_cycles` cycles
    /// have elapsed, or the program retires completely; then folds structure
    /// counters into the statistics.
    ///
    /// With `CoreConfig::fast_forward` set (the default), quiescent
    /// stretches — cycles during which every pipeline stage is provably a
    /// no-op, e.g. a full-window stall on an off-chip load — are
    /// fast-forwarded in bulk: the clock jumps to the next completion event
    /// and the per-cycle stall statistics are accumulated arithmetically.
    /// With it cleared the loop ticks every cycle. The resulting
    /// [`SimStats`] are bit-identical either way (asserted by the facade's
    /// `stats_corpus` suite, which checks both against a checked-in corpus).
    pub fn run(&mut self, max_uops: u64, max_cycles: u64) -> &SimStats {
        let fast_forward = self.cfg.core.fast_forward;
        while !self.halted
            && !self.deadlocked
            && self.stats.committed_uops < max_uops
            && self.cycle < max_cycles
        {
            self.tick();
            if self.cycle - self.last_progress_cycle > DEADLOCK_WINDOW {
                self.deadlocked = true;
            }
            // Only fast-forward when the loop will keep ticking; advancing
            // the clock after the final tick would diverge from the
            // tick-every-cycle run.
            if fast_forward && self.stats.committed_uops < max_uops && self.cycle < max_cycles {
                self.fast_forward_quiescent(max_cycles);
            }
            if self.tracer.is_some() {
                self.trace_sample_tick();
            }
        }
        if self.tracer.is_some() {
            // Close the time series with a final (partial-window) sample so
            // even runs shorter than one window produce a data point.
            self.trace_sample_now();
        }
        // Record how the run ended. Purely a function of simulated machine
        // state and the budget, so it is bit-identical with fast-forward on
        // and off (and across cached vs recomputed results).
        self.stats.terminated = if self.deadlocked {
            TerminationKind::Watchdog
        } else if self.halted || self.stats.committed_uops >= max_uops {
            TerminationKind::Completed
        } else {
            TerminationKind::MaxCycles
        };
        self.finalize_stats();
        let final_cycle = self.cycle;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.finish(final_cycle);
        }
        &self.stats
    }

    /// Delivers a time-series [`Sample`] to the tracer when one is due. The
    /// snapshot only reads occupancy/counter state (the MSHR read expires
    /// already-completed fills, which every access path does anyway), so
    /// sampling never perturbs the simulation.
    fn trace_sample_tick(&mut self) {
        let now = self.cycle;
        let due = match self.tracer.as_deref_mut() {
            Some(t) => t.sample_due(now),
            None => false,
        };
        if !due {
            return;
        }
        self.trace_sample_now();
    }

    /// Delivers one time-series [`Sample`] unconditionally.
    fn trace_sample_now(&mut self) {
        let now = self.cycle;
        let sample = Sample {
            cycle: now,
            committed_uops: self.stats.committed_uops,
            rob: self.rob.len(),
            iq: self.iq.len(),
            lq: self.lsq.lq_len(),
            sq: self.lsq.sq_len(),
            emq: self.emq.len(),
            free_int_frac: self.rename.free_fraction(RegClass::Int),
            free_fp_frac: self.rename.free_fraction(RegClass::Fp),
            mshr_occupancy: self.mem_hier.l1d_mshr_occupancy(now),
            l2_misses: self.mem_hier.l2_miss_count(),
            l3_misses: self.mem_hier.l3_miss_count(),
            in_runahead: self.mode != Mode::Normal,
        };
        if let Some(t) = self.tracer.as_deref_mut() {
            t.sample(&sample);
        }
    }

    /// Folds memory-hierarchy and structure counters into the statistics.
    pub(crate) fn finalize_stats(&mut self) {
        self.stats.cycles = self.cycle;
        self.mem_hier.export_stats(&mut self.stats);
        self.stats.rat_reads = self.rename.rat().reads();
        self.stats.rat_writes = self.rename.rat().writes();
        self.stats.prf_reads =
            self.rename.prf(RegClass::Int).reads() + self.rename.prf(RegClass::Fp).reads();
        self.stats.prf_writes =
            self.rename.prf(RegClass::Int).writes() + self.rename.prf(RegClass::Fp).writes();
        self.stats.iq_writes = self.iq.writes();
        self.stats.rob_writes = self.rob.writes();
        self.stats.rob_reads = self.rob.reads();
        self.stats.lsq_searches = self.lsq.searches();
        self.stats.lsq_forwards = self.lsq.forwards();
        self.stats.forward_blocked_partial = self.lsq.forward_blocked_partial();
        self.stats.sst_lookups = self.sst.lookups();
        self.stats.sst_hits = self.sst.hits();
        self.stats.sst_inserts = self.sst.inserts();
        self.stats.sst_evictions = self.sst.evictions();
        self.stats.prdq_allocations = self.rename.prdq().allocations();
        self.stats.prdq_reclaims = self.rename.prdq().reclaims();
        self.stats.prdq_eager_seeds = self.rename.prdq().eager_seeds();
        self.stats.prdq_eager_reclaims = self.rename.prdq().eager_reclaims();
        self.stats.emq_writes = self.emq.pushes();
        self.stats.emq_reads = self.emq.pops();
    }

    // ---------------------------------------------------------------------
    // Completion (writeback) handling.
    // ---------------------------------------------------------------------

    pub(crate) fn process_completions(&mut self, now: u64) {
        while let Some(head) = self.in_flight.pop_due(now) {
            if head.is_runahead {
                // Runahead micro-ops are only meaningful while their interval
                // is still the active PRE interval.
                if self.mode == Mode::RunaheadPre && head.interval_seq == self.interval_seq {
                    if let Some((class, reg)) = head.dest {
                        self.set_ready_and_wake(class, reg);
                    }
                    self.rename.mark_runahead_executed(head.id);
                    self.stats.iq_wakeups += 1;
                }
                continue;
            }
            // Normal micro-op: it may have been squashed (branch recovery or
            // flush-style runahead) in the meantime, which kills its slot
            // handle.
            if !self.rob.slot_matches(head.rob_slot, head.id) {
                continue;
            }
            if let Some((class, reg)) = head.dest {
                self.set_ready_and_wake(class, reg);
            }
            self.rob.set_executed(head.rob_slot);
            if let Some(t) = self.tracer.as_deref_mut() {
                t.uop_completed(head.id, head.completion);
            }
            if self.eager_tracked {
                // A window producer completed: the previous mapping it wrote
                // may now be an eager-drain candidate (seeded by the next
                // runahead cycle hook, or by the next interval's entry).
                self.pre_eager_rescan |= self.mode == Mode::RunaheadPre;
                if let Some((class, reg)) = head.dest {
                    self.rename.recheck_eager(class, reg, &self.iq);
                }
            }
            self.stats.executed_uops += 1;
            self.stats.iq_wakeups += 1;
        }
    }

    // ---------------------------------------------------------------------
    // Commit stage.
    // ---------------------------------------------------------------------

    pub(crate) fn commit_stage(&mut self, now: u64) {
        match self.mode {
            Mode::RunaheadFlush(_) => {
                self.pseudo_retire(now);
                return;
            }
            Mode::RunaheadPre => {
                // Section 3.1: no instructions commit in runahead mode; the
                // ROB is preserved so commit resumes immediately at exit.
                return;
            }
            Mode::Normal => {}
        }

        // Batch retire: one head-run probe sizes the whole batch of
        // consecutive executed head entries, then the drain pops them without
        // re-checking the head after every entry.
        let batch = self.rob.executed_head_run(self.cfg.core.commit_width);
        for _ in 0..batch {
            if self.eager_tracked {
                self.rename.eager_head_committing(&self.rob);
            }
            let Some((entry, cold)) = self.rob.pop_head() else {
                break;
            };
            let inst = self.insts[entry.pc as usize];
            if let (Some(dest), Some(result)) = (inst.dest, cold.result) {
                self.arf[dest.flat_index()] = result;
            }
            if let Some(width) = inst.opcode.store_width() {
                let addr = cold.mem_addr.expect("committed store has an address");
                let value = cold.store_value.expect("committed store has a value");
                self.func_mem.store_bytes(addr, width.bytes(), value);
                self.mem_hier.store_range(addr, width.bytes(), now);
                self.stats.committed_stores += 1;
                self.stats.store_checksum = fold_store_checksum(
                    self.stats.store_checksum,
                    addr,
                    value,
                    self.stats.committed_stores,
                );
                self.lsq.release_store(entry.id);
            }
            if inst.opcode.is_load() {
                self.stats.committed_loads += 1;
                self.lsq.release_load(entry.id);
            }
            if inst.opcode.is_cond_branch() {
                self.stats.committed_branches += 1;
                if cold.mispredicted {
                    self.stats.mispredicted_branches += 1;
                }
            }
            if let Some((arch, old, _)) = entry.old_dest {
                self.rename.free_committed(arch.class(), old);
            }
            self.stats.committed_uops += 1;
            self.last_progress_cycle = now;
            self.commit_ring.push(now, entry.pc);
            if let Some(t) = self.tracer.as_deref_mut() {
                t.uop_committed(
                    &CommittedUop {
                        id: entry.id,
                        pc: entry.pc,
                        class: inst.opcode.class(),
                        addr: cold.mem_addr,
                        width: inst.opcode.mem_width().map_or(0, |w| w.bytes() as u8),
                    },
                    now,
                );
            }
        }
        // A partial batch means the head is either gone (empty window: check
        // for the end of the program) or still in flight (a commit-blocked
        // full window counts toward the stall statistics).
        if batch < self.cfg.core.commit_width {
            if self.rob.is_empty() {
                if self.fetch_done
                    && self.uop_queue.is_empty()
                    && self.delay_pipe.is_empty()
                    && self.emq.is_empty()
                {
                    self.halted = true;
                }
            } else {
                self.detect_full_window_stall(now);
            }
        }
    }

    /// Pseudo-retirement during flush-style runahead: instructions drain from
    /// the ROB head without updating architectural state.
    fn pseudo_retire(&mut self, now: u64) {
        let batch = self.rob.executed_head_run(self.cfg.core.commit_width);
        for _ in 0..batch {
            let Some((entry, _)) = self.rob.pop_head() else {
                break;
            };
            if self.insts[entry.pc as usize].opcode.is_store() {
                self.lsq.release_store(entry.id);
            }
            if entry.is_load {
                self.lsq.release_load(entry.id);
            }
            if let Some((arch, old, _)) = entry.old_dest {
                self.rename.free_committed(arch.class(), old);
            }
            self.stats.runahead_uops_executed += 1;
            self.last_progress_cycle = now;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.uop_squashed(entry.id, now);
            }
        }
    }

    // ---------------------------------------------------------------------
    // Small helpers shared by the stage implementations.
    // ---------------------------------------------------------------------

    pub(crate) fn prf(&self, class: RegClass) -> &PhysRegFile {
        self.rename.prf(class)
    }

    pub(crate) fn prf_mut(&mut self, class: RegClass) -> &mut PhysRegFile {
        self.rename.prf_mut(class)
    }

    /// Sets `reg`'s ready bit (writeback completed) and, on the not-ready →
    /// ready transition, wakes its waiting consumers through the issue
    /// queue's producer-indexed wakeup table. Every ready-bit set in the
    /// pipeline goes through here so the event scheduler never misses a
    /// wakeup.
    pub(crate) fn set_ready_and_wake(&mut self, class: RegClass, reg: PhysReg) {
        let prf = self.rename.prf_mut(class);
        let newly_ready = !prf.is_ready(reg);
        prf.set_ready(reg, true);
        if newly_ready {
            self.iq.wake(class, reg);
        }
    }

    /// The current speculative value of an architectural register, read
    /// through the RAT (falls back to the committed value when the youngest
    /// producer has not executed yet). Used to seed the runahead-buffer chain
    /// replay.
    pub(crate) fn speculative_arch_value(&self, reg: ArchReg) -> u64 {
        let phys = self.rename.rat().peek(reg);
        let prf = self.prf(reg.class());
        if prf.is_ready(phys) {
            prf.peek(phys)
        } else {
            self.arf[reg.flat_index()]
        }
    }

    // ---------------------------------------------------------------------
    // Quiescent-cycle fast-forward.
    // ---------------------------------------------------------------------

    /// Jumps the clock over cycles during which every pipeline stage is
    /// provably a no-op, bulk-accumulating the per-cycle statistics so the
    /// resulting [`SimStats`] are bit-identical to ticking cycle by cycle.
    ///
    /// The quiescence conditions (all must hold; anything else falls back to
    /// normal ticking):
    ///
    /// * the core is running and not in runahead-buffer mode (its chain
    ///   replay does real work every cycle), and in PRE mode no eager-drain
    ///   seed pass is pending (the cycle hook would run one);
    /// * nothing ready or pending in the issue stage (select and store
    ///   address generation idle);
    /// * the back end blocked, per mode:
    ///   - normal mode: the ROB head exists and has not executed, and
    ///     dispatch has nothing it could dispatch (no front micro-op, or a
    ///     back-end resource is exhausted);
    ///   - flush-style runahead: the same, except that an empty ROB also
    ///     quiesces (pseudo-retirement never halts the run);
    ///   - PRE: the decode filter blocked — the micro-op queue empty, the
    ///     EMQ full, or the head micro-op an SST hit waiting for resources.
    ///     Such a head performs one mutating SST lookup per skipped cycle,
    ///     replayed through [`StallingSliceTable::record_bulk_hits`];
    /// * fetch and decode unable to act before the jump target (the target
    ///   is capped at `fetch_stall_until`, unless a full EMQ stalls fetch
    ///   first, and at the delay pipe's next-ready cycle).
    ///
    /// The jump target is the next `in_flight` completion, capped by the
    /// caller's cycle limit and a horizon: the deadlock watchdog in normal
    /// mode, so aborted runs stop at the same cycle as the tick-every-cycle
    /// run, and the interval's expected return in runahead, so the exit
    /// check happens on a real tick. (The stalling load's own completion
    /// event comes no later than that return, so the runahead cap is a
    /// safety net rather than a binding limit.)
    pub(crate) fn fast_forward_quiescent(&mut self, max_cycles: u64) {
        let pre = self.mode == Mode::RunaheadPre;
        if self.halted
            || self.deadlocked
            || self.mode == Mode::RunaheadFlush(FlushKind::Buffer)
            || (pre && self.pre_eager_rescan)
            || !self.iq.select_idle()
        {
            return;
        }
        debug_assert!(self.pending_recovery.is_none());
        debug_assert_eq!(self.interval.is_some(), self.mode != Mode::Normal);
        let mut dispatch_would_block = false;
        let mut emq_blocked = false;
        let mut blocked_hit_pc = None;
        // `(id, completion)` of an off-chip load at the ROB head in normal
        // mode: the commit stage may count full-window stalls behind it.
        let mut stall_head = None;
        if pre {
            debug_assert!(!self.dispatch_blocked);
            // The hook's PRDQ drain just ran: anything drainable was
            // drained, so the per-cycle drain stays a no-op until the next
            // completion.
            debug_assert!(
                self.rename
                    .prdq()
                    .iter()
                    .next()
                    .map_or(true, |e| !e.executed),
                "drainable PRDQ head at fast-forward"
            );
            emq_blocked = self.use_emq && self.emq.is_full();
            if let Some(&uop) = self.uop_queue.front().filter(|_| !emq_blocked) {
                // An SST miss at the queue head pops every cycle; a hit with
                // free resources executes. Both are real per-cycle work.
                if !self.sst.contains(uop.pc) || self.pre_runahead_resources_available(&uop) {
                    return;
                }
                blocked_hit_pc = Some(uop.pc);
            }
        } else {
            match self.rob.head() {
                // Commit (or pseudo-retirement) makes progress.
                Some(head) if head.executed => return,
                // An empty window ends the run or refills in normal mode.
                None if self.mode == Mode::Normal => return,
                Some(head)
                    if self.mode == Mode::Normal
                        && head.is_load
                        && head.issued
                        && head.mem_level == Some(HitLevel::Memory) =>
                {
                    stall_head = Some((head.id, head.completion_cycle));
                }
                _ => {}
            }
            // Flush-style runahead never uses the EMQ, so this peeks the
            // micro-op queue there, as its dispatch stage does.
            debug_assert!(self.mode == Mode::Normal || self.emq.is_empty());
            let front = if self.emq.is_empty() {
                self.uop_queue.front().copied()
            } else {
                self.emq.front().copied()
            };
            if let Some(uop) = front {
                if self.dispatch_resources_available(&uop) {
                    return;
                }
                dispatch_would_block = true;
            }
        }

        let now = self.cycle;
        let horizon = match &self.interval {
            Some(interval) => interval.expected_return,
            None => self.last_progress_cycle + DEADLOCK_WINDOW + 1,
        };
        let mut target = horizon.min(max_cycles);
        if let Some(next_completion) = self.in_flight.next_completion() {
            debug_assert!(next_completion > now, "unprocessed completion event");
            target = target.min(next_completion);
        }
        // Fetch resumes (or discovers the end of the program) once the
        // instruction-cache stall expires; a full EMQ stalls it before that
        // check. Decode drains the delay pipe regardless of the EMQ.
        if !emq_blocked && !self.fetch_done && !self.delay_pipe.is_full() {
            if self.fetch_stall_until <= now + 1 {
                return;
            }
            target = target.min(self.fetch_stall_until);
        }
        if !self.uop_queue.is_full() {
            if let Some(ready_at) = self.delay_pipe.next_ready_at() {
                if ready_at <= now + 1 {
                    return;
                }
                target = target.min(ready_at);
            }
        }
        if target <= now + 1 {
            return;
        }

        // Skip cycles `now+1 ..= end`; `tick` itself runs cycle `end + 1`.
        let mut end = target - 1;
        if let Some((head_id, head_completion)) = stall_head {
            // The commit stage of skipped cycle `t` counts a stall when the
            // ROB is full or cycle `t-1`'s dispatch stage blocked: the first
            // skipped cycle sees the current flag, later ones the value the
            // (no-op) dispatch stages recompute.
            let rob_full = self.rob.is_full();
            let first = if rob_full || self.dispatch_blocked {
                now + 1
            } else {
                now + 2
            };
            let last = if rob_full || dispatch_would_block {
                end
            } else {
                now + 1
            };
            if first <= last {
                let cycles = last - first + 1;
                let enter = self.technique.is_runahead() && {
                    let free = self.runahead_free_regs();
                    let remaining = head_completion.saturating_sub(first);
                    self.runahead_entry_decision(head_id, remaining, free, cycles)
                };
                if enter {
                    // The real tick at `first` performs the entry and counts
                    // that cycle's stall itself.
                    end = first - 1;
                } else {
                    self.count_window_stall_cycles(first, head_id, cycles);
                }
            }
        }
        if end <= now {
            return;
        }
        let skipped = end - now;
        if let Some(pc) = blocked_hit_pc {
            self.sst.record_bulk_hits(pc, skipped);
        }
        if emq_blocked && !self.fetch_done {
            self.stats.emq_full_stall_cycles += skipped;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.emq_full_cycles(now + 1, skipped);
            }
        } else if !self.fetch_done {
            // Skipped cycles with `t < fetch_stall_until` would each have
            // counted one front-end stall cycle.
            let stalled_until = end.min(self.fetch_stall_until.saturating_sub(1));
            self.stats.frontend_stall_cycles += stalled_until.saturating_sub(now);
        }
        // The tick at `end + 1` must observe the flag the skipped dispatch
        // stages recomputed.
        self.dispatch_blocked = dispatch_would_block;
        let ff_mode = if self.mode == Mode::Normal {
            self.stats.ff_cycles.normal += skipped;
            FfMode::Normal
        } else {
            // The cycle hook counts every skipped runahead cycle as progress
            // (runahead mode never trips the deadlock watchdog).
            self.stats.runahead_cycles += skipped;
            self.last_progress_cycle = end;
            self.stats.ff_cycles.runahead += skipped;
            FfMode::Runahead
        };
        if let Some(t) = self.tracer.as_deref_mut() {
            t.fast_forward(now, end, ff_mode);
        }
        self.cycle = end;
    }
}
