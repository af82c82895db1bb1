//! Runahead-mode control: full-window-stall detection, entry, exit, the PRE
//! decode filter and the runahead-buffer chain replay.

use super::{FlushKind, Mode, OooCore, RunaheadInterval};
use crate::iq::IqEntry;
use pre_model::reg::{ArchReg, RegClass, NUM_ARCH_REGS};
use pre_model::stats::{RunaheadEvent, RunaheadEventKind};
use pre_runahead::{extract_chain, ChainReplayEngine, EntryDecision, Technique};

impl OooCore {
    // ---------------------------------------------------------------------
    // Full-window-stall detection (normal mode).
    // ---------------------------------------------------------------------

    /// Called from the commit stage when the ROB head is not ready to commit.
    ///
    /// The paper defines a full-window stall as the ROB filling up behind a
    /// load that missed in the LLC. We use the slightly more general
    /// condition "dispatch is blocked on a back-end resource while the ROB
    /// head is an outstanding off-chip load", which reduces to the paper's
    /// definition when the ROB is the binding resource. The generalisation
    /// matters when the issue queue, the LSQ or a register class runs out
    /// before the ROB does: the window is then just as stalled behind the
    /// miss, and runahead has just as much to gain from it.
    ///
    /// The quiescent-cycle fast-forward applies this per-cycle policy to a
    /// whole run of skipped cycles at once through the same three helpers
    /// below.
    pub(crate) fn detect_full_window_stall(&mut self, now: u64) {
        if !(self.rob.is_full() || self.dispatch_blocked) {
            return;
        }
        let Some(head) = self.rob.head() else {
            return;
        };
        if !head.is_blocking_long_latency_load(now) {
            return;
        }
        let (head_id, head_pc, head_completion) = (head.id, head.pc, head.completion_cycle);
        self.count_window_stall_cycles(now, head_id, 1);
        if !self.technique.is_runahead() {
            return;
        }
        let free = self.runahead_free_regs();
        if self.runahead_entry_decision(head_id, head_completion.saturating_sub(now), free, 1) {
            self.enter_runahead(now, head_id, head_pc, head_completion);
        }
    }

    /// Counts the `cycles` consecutive cycles from `first` on as full-window
    /// stall cycles behind ROB head `head_id`. The first such cycle behind a
    /// new head also counts a new stall and records the per-class
    /// free-register occupancy — the paper's §3.4 premise ("~51 % of
    /// integer registers free") that the integer-only asm kernels violate.
    pub(crate) fn count_window_stall_cycles(&mut self, first: u64, head_id: u64, cycles: u64) {
        self.stats.full_window_stall_cycles += cycles;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.window_stall_cycles(first, cycles);
        }
        if self.last_stall_head_id != Some(head_id) {
            self.last_stall_head_id = Some(head_id);
            self.stats.full_window_stalls += 1;
            self.stats
                .int_free_at_stall_hist
                .record_fraction(self.rename.free_fraction(RegClass::Int));
            self.stats
                .fp_free_at_stall_hist
                .record_fraction(self.rename.free_fraction(RegClass::Fp));
        }
    }

    /// The `(int, fp)` free-register counts the entry policy judges. The
    /// gate adds what the eager drain could release (the tracker's pending
    /// counts, not a window scan), so it only refuses entry when runahead
    /// renaming would stay starved even after reclamation.
    pub(crate) fn runahead_free_regs(&mut self) -> (usize, usize) {
        let mut free = (
            self.rename.num_free(RegClass::Int),
            self.rename.num_free(RegClass::Fp),
        );
        if self.entry_policy.needs_free_reg_counts() {
            let (int_reclaimable, fp_reclaimable) =
                self.rename.count_eager_reclaimable(&self.rob, &self.iq);
            free.0 += int_reclaimable;
            free.1 += fp_reclaimable;
        }
        free
    }

    /// Asks the entry policy whether to enter runahead behind ROB head
    /// `head_id` on each of `cycles` consecutive stalled cycles, the first
    /// of which expects the data back in `expected_remaining` cycles.
    /// `true` means enter on the first; otherwise every cycle's refusal is
    /// counted under the one reason.
    ///
    /// The first cycle decides for the whole run: the head, its overlap
    /// mark and the free-register counts are fixed, and the remaining
    /// latency only shrinks, so a skip stays a skip for the same reason (a
    /// technique's policy gates on the interval length or on free
    /// registers, never on both).
    pub(crate) fn runahead_entry_decision(
        &mut self,
        head_id: u64,
        expected_remaining: u64,
        (free_int, free_fp): (usize, usize),
        cycles: u64,
    ) -> bool {
        let already = self.runahead_done_for == Some(head_id);
        let decide = |remaining| {
            self.entry_policy
                .decide(remaining, already, free_int, free_fp)
        };
        let decision = decide(expected_remaining);
        debug_assert!(
            decision.should_enter()
                || decision == decide(expected_remaining.saturating_sub(cycles - 1)),
            "entry decision changed inside a stall run"
        );
        let skipped = match decision {
            EntryDecision::Enter => return true,
            EntryDecision::SkipShortInterval => &mut self.stats.runahead_entries_skipped_short,
            EntryDecision::SkipOverlap => &mut self.stats.runahead_entries_skipped_overlap,
            EntryDecision::SkipNoFreeRegs => &mut self.stats.runahead_entries_skipped_no_regs,
        };
        *skipped += cycles;
        false
    }

    // ---------------------------------------------------------------------
    // Entry.
    // ---------------------------------------------------------------------

    fn enter_runahead(&mut self, now: u64, head_id: u64, head_pc: u32, completion: u64) {
        self.interval_seq += 1;
        self.stats.runahead_entries += 1;
        self.runahead_done_for = Some(head_id);

        // Stat C: free back-end resources at runahead entry.
        self.stats.iq_free_at_entry.record(self.iq.free_fraction());
        self.stats
            .int_regs_free_at_entry
            .record(self.rename.free_fraction(RegClass::Int));
        self.stats
            .fp_regs_free_at_entry
            .record(self.rename.free_fraction(RegClass::Fp));

        let mut interval = RunaheadInterval {
            stalling_pc: head_pc,
            expected_return: completion.max(now + 1),
            entered_at: now,
            arch_checkpoint: None,
            history: self.predictor.history(),
            resume_fetch_pc: self.next_dispatch_pc,
            prdq_allocs_at_entry: self.rename.prdq().allocations(),
        };

        let mut eager_freed = (0usize, 0usize);
        match self.technique {
            Technique::Runahead => {
                interval.arch_checkpoint = Some(self.arf);
                self.begin_flush_runahead(head_id, FlushKind::Traditional);
            }
            Technique::RunaheadBuffer => {
                interval.arch_checkpoint = Some(self.arf);
                let kind = self.begin_buffer_runahead(now, head_id, head_pc);
                self.begin_flush_runahead(head_id, kind);
            }
            Technique::Pre | Technique::PreEmq => {
                // The checkpoint is captured before the eager drain, so the
                // exit restore also un-frees every eagerly released
                // register.
                self.rename.begin_runahead_interval(&self.rob, &self.iq);
                eager_freed = self.begin_pre_runahead(head_pc);
            }
            Technique::OutOfOrder => unreachable!("baseline never enters runahead"),
        }
        let ev = RunaheadEvent {
            cycle: now,
            kind: RunaheadEventKind::Entry,
            int_free: self.rename.num_free(RegClass::Int),
            fp_free: self.rename.num_free(RegClass::Fp),
            int_eager_freed: eager_freed.0,
            fp_eager_freed: eager_freed.1,
            prdq_allocated: 0,
        };
        if let Some(t) = self.tracer.as_deref_mut() {
            t.runahead_entry(&ev, head_pc);
        }
        self.interval = Some(interval);
    }

    /// Traditional-runahead entry: mark the stalling load — and every other
    /// load in the window still waiting on an off-chip access — invalid, so
    /// the window drains through pseudo-retirement instead of waiting for
    /// data that will be discarded anyway (Mutlu et al.'s INV semantics).
    fn begin_flush_runahead(&mut self, head_id: u64, kind: FlushKind) {
        let now = self.cycle;
        let long_latency_threshold = self.cfg.l3.latency;
        let mut to_invalidate: Vec<(
            u32,
            Option<(pre_model::reg::RegClass, pre_model::reg::PhysReg)>,
        )> = Vec::new();
        for (slot, entry) in self.rob.iter_slots() {
            let pending_off_chip = entry.issued
                && !entry.executed
                && entry.is_load
                && entry.completion_cycle.saturating_sub(now) > long_latency_threshold;
            if entry.id == head_id || pending_off_chip {
                to_invalidate.push((slot, entry.dest));
            }
        }
        for (slot, dest) in to_invalidate {
            self.rob.force_execute(slot);
            if let Some((class, reg)) = dest {
                let prf = self.prf_mut(class);
                prf.write(reg, 0);
                prf.set_inv(reg, true);
                // Waiting consumers of the invalidated register wake now.
                self.set_ready_and_wake(class, reg);
            }
        }
        self.mode = Mode::RunaheadFlush(kind);
    }

    /// Runahead-buffer entry: extract the stalling slice from the window and
    /// start the chain replay. Falls back to traditional runahead when no
    /// chain can be found (no second instance of the load in the window).
    fn begin_buffer_runahead(&mut self, now: u64, head_id: u64, head_pc: u32) -> FlushKind {
        // Every entry walks the window, whether or not it finds a chain (each
        // walk is a CAM search over the ROB, charged by the energy model).
        self.stats.runahead_buffer_walks += 1;
        let max_len = self.cfg.runahead.runahead_buffer_chain_max;
        let window = self
            .rob
            .iter()
            .rev()
            .map(|e| (e.pc, &self.insts[e.pc as usize]));
        let Some(chain) = extract_chain(window, head_pc, max_len) else {
            return FlushKind::Traditional;
        };
        // Seed the replay with the youngest speculative register values, as
        // the hardware's rename table would supply.
        let mut regs = [0u64; NUM_ARCH_REGS];
        for (flat, reg) in regs.iter_mut().enumerate() {
            *reg = self.speculative_arch_value(ArchReg::from_flat_index(flat));
        }
        debug_assert!(
            self.rob.head().is_some_and(|h| h.id == head_id),
            "runahead entry is triggered by the ROB head"
        );
        let inv_regs: Vec<ArchReg> = self
            .rob
            .head()
            .and_then(|h| self.insts[h.pc as usize].dest)
            .into_iter()
            .collect();
        self.chain_engine = Some(ChainReplayEngine::new(chain, &regs, &inv_regs, now));
        // The window is discarded, as in traditional runahead; the back-end
        // resources are then used exclusively by the chain replay.
        self.squash_window(now);
        FlushKind::Buffer
    }

    /// Discards the whole window: every ROB micro-op is reported squashed,
    /// and the ROB, issue queue and LSQ are emptied.
    fn squash_window(&mut self, now: u64) {
        if let Some(t) = self.tracer.as_deref_mut() {
            for (_, entry) in self.rob.iter_slots() {
                t.uop_squashed(entry.id, now);
            }
        }
        let squashed = self.rob.clear() + self.iq.clear();
        self.stats.squashed_uops += squashed as u64;
        self.lsq.clear();
    }

    /// PRE entry: seed the SST with the stalling load and its producers,
    /// run the eager PRDQ drain so runahead renaming has free destination
    /// registers even when the stalled window exhausted a register class,
    /// and switch the decode path to the SST filter. The ROB, issue queue
    /// and LSQ are left untouched. Returns `(int, fp)` counts of eagerly
    /// freed registers.
    fn begin_pre_runahead(&mut self, head_pc: u32) -> (usize, usize) {
        self.sst.insert(head_pc);
        if let Some(inst) = self.insts.get(head_pc as usize) {
            for src in inst.sources() {
                if let Some(pc) = self.rename.rat().producer_pc(src) {
                    self.sst.insert(pc);
                }
            }
        }
        self.mode = Mode::RunaheadPre;
        // Eager drain: seed the PRDQ with the window's dead previous
        // mappings, which the tracker already holds, and reclaim them
        // immediately (the PRDQ is empty at entry, so everything drained
        // here is an eager free). Leave the rescan flag set: a seed pass cut
        // short by a full PRDQ retries on the next cycle.
        self.rename.seed_eager(&self.rob, &self.iq);
        self.pre_eager_rescan = true;
        self.rename.drain_prdq()
    }

    // ---------------------------------------------------------------------
    // Per-cycle runahead work.
    // ---------------------------------------------------------------------

    pub(crate) fn runahead_cycle_hook(&mut self, now: u64) {
        match self.mode {
            Mode::Normal => {}
            Mode::RunaheadFlush(FlushKind::Buffer) => {
                self.stats.runahead_cycles += 1;
                self.last_progress_cycle = now;
                if let Some(engine) = &mut self.chain_engine {
                    let latencies = self.cfg.core.latencies;
                    let func_mem = &self.func_mem;
                    engine.step(
                        now,
                        self.cfg.core.dispatch_width,
                        &mut self.mem_hier,
                        |class| latencies.for_class(class),
                        |addr, len| func_mem.load_bytes(addr, len),
                    );
                }
            }
            Mode::RunaheadFlush(FlushKind::Traditional) => {
                self.stats.runahead_cycles += 1;
                self.last_progress_cycle = now;
            }
            Mode::RunaheadPre => {
                self.stats.runahead_cycles += 1;
                self.last_progress_cycle = now;
                // Window mappings whose last consumer issued (or whose
                // producer completed) this cycle are now dead: seed them so
                // the drain below frees them at that boundary instead of
                // waiting for a commit. Those events recorded the new
                // candidates as they happened, so the pass only seeds them
                // (and extends the window walk past a branch that issued);
                // quiet cycles skip it. A full PRDQ keeps the flag set so
                // unseeded candidates are retried once the drain makes room.
                if self.pre_eager_rescan {
                    self.rename.seed_eager(&self.rob, &self.iq);
                    self.pre_eager_rescan = self.rename.prdq().is_full();
                }
                // Runahead register reclamation: drain executed PRDQ entries
                // in order and return their registers to the free lists.
                self.rename.drain_prdq();
            }
        }
    }

    /// The PRE decode filter (Section 3.3): consume decoded micro-ops, buffer
    /// them in the EMQ when enabled, and speculatively execute the ones that
    /// hit in the SST using free back-end resources.
    pub(crate) fn pre_filter_stage(&mut self, now: u64) {
        for _ in 0..self.cfg.core.fetch_width {
            let uop = match self.uop_queue.front() {
                Some(u) => *u,
                None => break,
            };
            if self.use_emq && self.emq.is_full() {
                break;
            }
            let hit = self.sst.lookup(uop.pc);
            if hit && !self.pre_runahead_resources_available(&uop) {
                // Retry next cycle; the micro-op stays at the queue head so
                // program order within the slice is preserved.
                break;
            }
            let uop = self.uop_queue.pop().expect("front checked above");
            if let Some(t) = self.tracer.as_deref_mut() {
                t.uop_filtered(now, self.use_emq, hit);
            }
            if self.use_emq {
                self.emq.push(uop).expect("EMQ fullness checked above");
            }
            if hit {
                self.runahead_execute_uop(uop);
            }
        }
    }

    pub(crate) fn pre_runahead_resources_available(&self, uop: &crate::uop::DynUop) -> bool {
        if self.iq.is_full() || self.rename.prdq().is_full() {
            return false;
        }
        if let Some(class) = self.insts[uop.pc as usize].opcode.dest_class() {
            if self.rename.num_free(class) == 0 {
                return false;
            }
        }
        true
    }

    /// Renames and injects one SST-hitting micro-op into the issue queue as a
    /// runahead micro-op, allocating its PRDQ entry and learning its
    /// producers' PCs.
    fn runahead_execute_uop(&mut self, uop: crate::uop::DynUop) {
        let inst = self.insts[uop.pc as usize];
        // Iterative slice learning: the producers of this instruction's
        // sources are part of the slice too.
        for src in inst.sources() {
            if let Some(pc) = self.rename.rat().producer_pc(src) {
                self.sst.insert(pc);
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        let (srcs, dest) = self.rename.runahead_rename(&inst, uop.pc, id);
        // Injected slice micro-ops register with the producer-indexed wakeup
        // table exactly like normal dispatch, so completions wake them
        // without any scan.
        let rename = &self.rename;
        self.iq.insert(
            IqEntry {
                id,
                rob_slot: crate::rob::INVALID_SLOT,
                pc: uop.pc,
                inst,
                srcs,
                dest,
                class: inst.opcode.class(),
                is_runahead: true,
                store_addr_ready: false,
            },
            |class, reg| rename.prf(class).is_ready(reg),
        );
        self.stats.renamed_uops += 1;
    }

    // ---------------------------------------------------------------------
    // Exit.
    // ---------------------------------------------------------------------

    pub(crate) fn check_runahead_exit(&mut self, now: u64) {
        let expected = match &self.interval {
            Some(interval) => interval.expected_return,
            None => return,
        };
        if self.mode == Mode::Normal || now < expected {
            return;
        }
        match self.mode {
            Mode::RunaheadFlush(_) => self.exit_flush(now),
            Mode::RunaheadPre => self.exit_pre(now, false),
            Mode::Normal => {}
        }
    }

    /// Exit from traditional runahead or the runahead buffer: the pipeline is
    /// flushed, the architectural checkpoint restored and fetch redirected to
    /// the stalling load (Section 2.2), paying the flush/refill penalty that
    /// PRE avoids (Section 2.4).
    fn exit_flush(&mut self, now: u64) {
        let interval = self
            .interval
            .take()
            .expect("exit requires an active interval");
        self.stats.runahead_exits += 1;
        self.stats
            .runahead_interval_hist
            .record(now - interval.entered_at);
        // Stat A: the analytic flush/refill penalty — refill the front end
        // (depth cycles) and re-dispatch a full window at dispatch width.
        self.stats.flush_refill_cycles += self.cfg.core.frontend_depth as u64
            + (self.cfg.core.rob_entries / self.cfg.core.dispatch_width) as u64;

        if let Some(engine) = self.chain_engine.take() {
            self.stats.runahead_uops_executed += engine.uops_executed();
            self.stats.runahead_loads_executed += engine.loads_executed();
            self.stats.runahead_prefetches_issued += engine.prefetches_issued();
            self.stats.runahead_inv_loads += engine.inv_loads();
            self.stats.runahead_buffer_replays += engine.uops_executed();
        }

        self.squash_window(now);
        self.in_flight.clear();
        self.delay_pipe.flush();
        self.uop_queue.clear();
        self.runahead_store_buffer.clear();
        if let Some(t) = self.tracer.as_deref_mut() {
            t.frontend_flushed(now);
        }

        let arch = interval
            .arch_checkpoint
            .expect("flush-style runahead checkpoints the ARF");
        self.rename.reset_from_arch(&arch);
        self.predictor.restore_history(interval.history);
        self.record_exit_event(
            now,
            interval.entered_at,
            interval.stalling_pc,
            interval.prdq_allocs_at_entry,
        );

        self.fetch_pc = interval.stalling_pc;
        self.next_dispatch_pc = interval.stalling_pc;
        self.fetch_stall_until = now + 1;
        self.last_fetch_line = None;
        self.fetch_done = false;
        self.last_stall_head_id = None;
        self.mode = Mode::Normal;
        self.last_progress_cycle = now;
    }

    /// Exit from precise runahead: restore the RAT checkpoint and free lists,
    /// discard runahead micro-ops and resume normal execution with the ROB
    /// intact — commit restarts immediately (Section 3.5).
    ///
    /// `aborted` is set when the exit is forced by a normal-mode branch
    /// misprediction rather than by the stalling load returning.
    pub(crate) fn exit_pre(&mut self, now: u64, aborted: bool) {
        let interval = self
            .interval
            .take()
            .expect("exit requires an active interval");
        self.stats.runahead_exits += 1;
        self.stats
            .runahead_interval_hist
            .record(now - interval.entered_at);

        let removed = self.iq.remove_runahead();
        self.stats.squashed_uops += removed as u64;
        self.runahead_store_buffer.clear();

        // One call restores the RAT and both free lists (undoing runahead
        // allocations and eager frees alike), clears the INV bits and
        // re-arms the eager drain's seeded entries.
        self.rename.end_runahead_interval(&self.rob, &self.iq);
        self.predictor.restore_history(interval.history);
        self.record_exit_event(
            now,
            interval.entered_at,
            interval.stalling_pc,
            interval.prdq_allocs_at_entry,
        );

        if !self.use_emq || aborted {
            // Without the EMQ the micro-ops fetched during runahead are
            // re-fetched in normal mode.
            self.stats.squashed_uops += (self.uop_queue.len() + self.delay_pipe.len()) as u64;
            self.uop_queue.clear();
            self.delay_pipe.flush();
            self.emq.clear();
            if let Some(t) = self.tracer.as_deref_mut() {
                t.frontend_flushed(now);
            }
            self.fetch_pc = interval.resume_fetch_pc;
            self.next_dispatch_pc = interval.resume_fetch_pc;
            self.fetch_stall_until = now + 1;
            self.last_fetch_line = None;
        }
        self.fetch_done = false;
        self.last_stall_head_id = None;
        self.mode = Mode::Normal;
        self.last_progress_cycle = now;
    }

    /// Reports the runahead exit to the tracer with the post-restore
    /// free-register occupancy and the PRDQ entries this interval allocated.
    fn record_exit_event(
        &mut self,
        now: u64,
        entered_at: u64,
        stalling_pc: u32,
        prdq_allocs_at_entry: u64,
    ) {
        if self.tracer.is_none() {
            return;
        }
        let ev = RunaheadEvent {
            cycle: now,
            kind: RunaheadEventKind::Exit,
            int_free: self.rename.num_free(RegClass::Int),
            fp_free: self.rename.num_free(RegClass::Fp),
            int_eager_freed: 0,
            fp_eager_freed: 0,
            prdq_allocated: self
                .rename
                .prdq()
                .allocations()
                .saturating_sub(prdq_allocs_at_entry),
        };
        if let Some(t) = self.tracer.as_deref_mut() {
            t.runahead_exit(&ev, entered_at, stalling_pc);
        }
    }
}
