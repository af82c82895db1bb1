//! Front-end and back-end pipeline stages: fetch, decode, dispatch, issue and
//! branch-misprediction recovery.

use super::{FlushKind, InFlight, Mode, OooCore};
use crate::iq::IqEntry;
use crate::rob::RobHotEntry;
use crate::uop::DynUop;
use pre_mem::{AccessKind, HitLevel};
use pre_model::isa::OpClass;
use pre_trace::{MemEvent, MissLevel};

/// Outcome of attempting to execute one issue-queue entry.
enum IssueOutcome {
    /// The micro-op issued; remove it from the issue queue.
    Issued,
    /// The micro-op could not issue this cycle (memory-ordering stall).
    NotIssued,
}

impl OooCore {
    // ---------------------------------------------------------------------
    // Fetch.
    // ---------------------------------------------------------------------

    pub(crate) fn fetch_stage(&mut self, now: u64) {
        if self.fetch_done {
            return;
        }
        // The runahead buffer power-gates the front end during runahead mode.
        if self.mode == Mode::RunaheadFlush(FlushKind::Buffer) {
            return;
        }
        // PRE+EMQ: once the EMQ fills, runahead execution stalls until the
        // stalling load returns (Section 3.3).
        if self.mode == Mode::RunaheadPre && self.use_emq && self.emq.is_full() {
            self.stats.emq_full_stall_cycles += 1;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.emq_full_cycles(now, 1);
            }
            return;
        }
        if now < self.fetch_stall_until {
            self.stats.frontend_stall_cycles += 1;
            return;
        }
        for _ in 0..self.cfg.core.fetch_width {
            if self.delay_pipe.is_full() {
                break;
            }
            let inst = match self.insts.get(self.fetch_pc as usize) {
                Some(i) => *i,
                None => {
                    self.fetch_done = true;
                    break;
                }
            };
            // One instruction-cache access per new line.
            let iaddr = self.fetch_pc as u64 * 4;
            let line = iaddr & !63;
            if self.last_fetch_line != Some(line) {
                let access = self.mem_hier.ifetch(iaddr, now);
                self.last_fetch_line = Some(line);
                if access.level != HitLevel::L1 {
                    self.fetch_stall_until = access.completion_cycle;
                    break;
                }
            }
            let (predicted_taken, next_pc) = if inst.opcode.is_cond_branch() {
                let prediction = self.predictor.predict(self.fetch_pc);
                let next = if prediction.taken {
                    inst.target
                } else {
                    self.fetch_pc + 1
                };
                (prediction.taken, next)
            } else if inst.opcode.is_control() {
                (true, inst.target)
            } else {
                (false, self.fetch_pc + 1)
            };
            let uop = DynUop {
                pc: self.fetch_pc,
                predicted_next_pc: next_pc,
            };
            if self.delay_pipe.push(uop, now).is_err() {
                break;
            }
            self.stats.fetched_uops += 1;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.uop_fetched(uop.pc, &inst, now);
            }
            self.fetch_pc = next_pc;
            if inst.opcode.is_control() && predicted_taken {
                // Taken control flow ends the fetch group.
                break;
            }
        }
    }

    // ---------------------------------------------------------------------
    // Decode.
    // ---------------------------------------------------------------------

    pub(crate) fn decode_stage(&mut self, now: u64) {
        if self.mode == Mode::RunaheadFlush(FlushKind::Buffer) {
            return;
        }
        for _ in 0..self.cfg.core.fetch_width {
            if self.uop_queue.is_full() {
                break;
            }
            let uop = match self.delay_pipe.pop_ready(now) {
                Some(u) => u,
                None => break,
            };
            self.stats.decoded_uops += 1;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.uop_decoded(now);
            }
            self.uop_queue
                .push(uop)
                .expect("uop queue fullness checked above");
        }
    }

    // ---------------------------------------------------------------------
    // Dispatch (rename + allocate ROB/IQ/LSQ).
    // ---------------------------------------------------------------------

    pub(crate) fn dispatch_stage(&mut self, now: u64) {
        self.dispatch_blocked = false;
        match self.mode {
            Mode::RunaheadFlush(FlushKind::Buffer) => return,
            Mode::RunaheadPre => {
                self.pre_filter_stage(now);
                return;
            }
            Mode::Normal | Mode::RunaheadFlush(FlushKind::Traditional) => {}
        }
        for _ in 0..self.cfg.core.dispatch_width {
            // After a PRE+EMQ exit, buffered runahead micro-ops dispatch from
            // the EMQ before the live front-end stream continues.
            let from_emq = self.mode == Mode::Normal && !self.emq.is_empty();
            let peeked = if from_emq {
                self.emq.front().copied()
            } else {
                self.uop_queue.front().copied()
            };
            let uop = match peeked {
                Some(u) => u,
                None => break,
            };
            if !self.dispatch_resources_available(&uop) {
                self.dispatch_blocked = true;
                break;
            }
            if from_emq {
                self.emq.pop();
            } else {
                self.uop_queue.pop();
            }
            let id = self.rename_and_dispatch(uop);
            if let Some(t) = self.tracer.as_deref_mut() {
                t.uop_dispatched(id, uop.pc, now, from_emq);
            }
        }
    }

    pub(crate) fn dispatch_resources_available(&self, uop: &DynUop) -> bool {
        if self.rob.is_full() || self.iq.is_full() {
            return false;
        }
        let opcode = self.insts[uop.pc as usize].opcode;
        if opcode.is_load() && self.lsq.lq_full() {
            return false;
        }
        if opcode.is_store() && self.lsq.sq_full() {
            return false;
        }
        if let Some(class) = opcode.dest_class() {
            if self.rename.num_free(class) == 0 {
                return false;
            }
        }
        true
    }

    pub(crate) fn rename_and_dispatch(&mut self, uop: DynUop) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let inst = self.insts[uop.pc as usize];

        // The SST sits after the decode stage and is looked up for every
        // micro-op (Section 3.2). In normal mode a hit drives the iterative
        // slice learning: the producers of the hitting instruction's source
        // registers — read from the RAT extension — join the slice.
        if self.technique.uses_sst() && self.sst.lookup(uop.pc) {
            for src in inst.sources() {
                if let Some(pc) = self.rename.rat().producer_pc(src) {
                    self.sst.insert(pc);
                }
            }
        }

        let srcs = self.rename.lookup_sources(&inst);
        let mut dest = None;
        let mut old_dest = None;
        if let Some(d) = inst.dest {
            let rename = self
                .rename
                .rename_dest(d, uop.pc)
                .expect("dispatch checked for a free register");
            dest = Some((d.class(), rename.new));
            old_dest = Some((d, rename.old, rename.old_pc));
        }

        let mut rob_entry = RobHotEntry::new(id, uop.pc, &inst);
        rob_entry.dest = dest;
        rob_entry.old_dest = old_dest;
        let rob_slot = self.rob.push(rob_entry, uop.predicted_next_pc);

        let rename = &self.rename;
        self.iq.insert(
            IqEntry {
                id,
                rob_slot,
                pc: uop.pc,
                inst,
                srcs,
                dest,
                class: inst.opcode.class(),
                is_runahead: false,
                store_addr_ready: false,
            },
            |class, reg| rename.prf(class).is_ready(reg),
        );
        if inst.opcode.is_load() {
            self.lsq.allocate_load(id);
        }
        if let Some(width) = inst.opcode.store_width() {
            self.lsq.allocate_store(id, width.bytes() as u8);
        }
        self.stats.renamed_uops += 1;
        self.stats.dispatched_uops += 1;
        self.next_dispatch_pc = uop.predicted_next_pc;
        id
    }

    // ---------------------------------------------------------------------
    // Issue + execute.
    // ---------------------------------------------------------------------

    /// Issue + execute: wakeup-driven select. Store address generation runs
    /// first (exactly the stores whose base operand became ready), then
    /// select pops ready entries in global age order against the per-class
    /// port array until `issue_width` is exhausted. Readiness is based on
    /// the ready bits set by previous completions, so issuing one candidate
    /// cannot make another ready within the same cycle.
    pub(crate) fn issue_stage(&mut self, now: u64) {
        self.process_store_agen();

        let mut remaining = self.cfg.core.issue_width;
        let mut ports: [usize; OpClass::COUNT] =
            std::array::from_fn(|i| self.cfg.core.fu.ports_for(OpClass::ALL[i]));
        let mut retry = std::mem::take(&mut self.issue_retry);
        debug_assert!(retry.is_empty());

        while remaining > 0 {
            let Some((key, entry)) = self.iq.pop_ready(&ports) else {
                break;
            };
            if !self.sources_ready(&entry) {
                // A source register was reclaimed (PRDQ) and re-allocated
                // after this entry's wakeup: wait for the new producer.
                let rename = &self.rename;
                self.iq
                    .reregister(key, |class, reg| rename.prf(class).is_ready(reg));
                continue;
            }
            match self.try_execute(&entry, now) {
                IssueOutcome::Issued => {
                    ports[entry.class.index()] -= 1;
                    remaining -= 1;
                    self.iq.remove_slot(key.slot());
                    self.stats.issued_uops += 1;
                    if self.eager_tracked && !entry.is_runahead {
                        // A waiting consumer left the issue queue: its
                        // sources may now be eager-drain candidates.
                        self.pre_eager_rescan |= self.mode == Mode::RunaheadPre;
                        self.recheck_eager_sources(&entry);
                    }
                    self.count_issue_class(entry.class);
                    if self.pending_recovery.is_some() {
                        // A mispredicted branch resolved: younger micro-ops
                        // must not issue this cycle.
                        break;
                    }
                }
                // Memory-ordering or MSHR stall: the entry stays ready and
                // retries next cycle.
                IssueOutcome::NotIssued => retry.push(key),
            }
        }
        for key in retry.drain(..) {
            self.iq.requeue_ready(key);
        }
        self.issue_retry = retry;
    }

    /// An issued normal micro-op left the issue queue (PRE techniques, in
    /// either mode): a source it was the last waiting reader of may now be
    /// a dead previous mapping.
    fn recheck_eager_sources(&mut self, entry: &IqEntry) {
        for &(class, reg) in entry.srcs.iter() {
            if self.iq.readers(class, reg) == 0 {
                self.rename.recheck_eager(class, reg, &self.iq);
            }
        }
    }

    fn count_issue_class(&mut self, class: OpClass) {
        match class {
            OpClass::IntAlu | OpClass::Nop => self.stats.int_alu_ops += 1,
            OpClass::IntMul => self.stats.int_mul_ops += 1,
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => self.stats.fp_ops += 1,
            OpClass::Branch => self.stats.branch_ops += 1,
            OpClass::Load | OpClass::Store => {}
        }
    }

    /// Wakeup-driven store address generation: drains the stores whose base
    /// operand became ready (at dispatch or through a completion wakeup)
    /// and publishes their addresses — and data values when already
    /// available — to the store queue, so that younger loads are not
    /// serialized behind stores that are only waiting for data.
    fn process_store_agen(&mut self) {
        while let Some((slot, e)) = self.iq.pop_agen() {
            let Some((base_class, base_reg)) = e.srcs.first() else {
                continue;
            };
            if !self.prf(base_class).is_ready(base_reg) {
                // The base was reclaimed (PRDQ) and re-allocated between
                // the wake and this pass: re-arm on the new producer.
                self.iq.watch_store_base(slot);
                continue;
            }
            let addr = e
                .inst
                .effective_address(self.prf(base_class).peek(base_reg));
            self.lsq.set_store_addr(e.id, addr);
            self.iq.mark_store_addr_ready(slot);
            if let Some((data_class, data_reg)) = e.srcs.get(1) {
                if self.prf(data_class).is_ready(data_reg) {
                    let mask = e.inst.opcode.store_width().expect("agen on a store").mask();
                    let value = self.prf(data_class).peek(data_reg) & mask;
                    self.lsq.set_store_value(e.id, value);
                }
            }
        }
    }

    fn sources_ready(&self, entry: &IqEntry) -> bool {
        entry
            .srcs
            .iter()
            .all(|&(class, reg)| self.prf(class).is_ready(reg))
    }

    fn read_operands(&mut self, entry: &IqEntry) -> (u64, u64, bool) {
        let inst = entry.inst;
        let mut iter = entry.srcs.iter();
        let mut inv = false;
        let mut read = |slot: &mut OooCore, present: bool| -> u64 {
            if !present {
                return 0;
            }
            match iter.next() {
                Some(&(class, reg)) => {
                    inv |= slot.prf(class).is_inv(reg);
                    slot.prf_mut(class).read(reg)
                }
                None => 0,
            }
        };
        let src1 = read(self, inst.src1.is_some());
        let src2 = read(self, inst.src2.is_some());
        (src1, src2, inv)
    }

    fn try_execute(&mut self, entry: &IqEntry, now: u64) -> IssueOutcome {
        let inst = entry.inst;
        let latency = self.cfg.core.latencies.for_class(entry.class);
        let in_flush_runahead = matches!(self.mode, Mode::RunaheadFlush(_));
        let runahead_exec = entry.is_runahead || in_flush_runahead;
        let (src1, src2, src_inv) = self.read_operands(entry);

        let mut result: Option<u64> = None;
        let mut completion = now + latency;
        let mut dest_inv = src_inv;
        let mut mem_addr = None;
        let mut mem_level = None;
        let mut store_value = None;
        let mut mispredicted = false;

        if let Some(load_access) = inst.opcode.load_access() {
            let len = load_access.width.bytes();
            let addr = inst.effective_address(src1);
            mem_addr = Some(addr);
            // Back-pressure: a load that needs to bring its line in can only
            // issue when an L1D miss-status register is available. This
            // bounds outstanding misses (demand and runahead prefetches
            // alike) to the MSHR count, as in real hardware.
            if (!src_inv || !runahead_exec)
                && !self.mem_hier.in_l1d(addr)
                && !self.mem_hier.data_mshr_available(now)
            {
                return IssueOutcome::NotIssued;
            }
            if runahead_exec {
                self.stats.runahead_loads_executed += 1;
                if src_inv {
                    // The address depends on the stalling load's missing
                    // data: cannot prefetch (INV propagation).
                    self.stats.runahead_inv_loads += 1;
                    result = Some(0);
                    completion = now + 1;
                    dest_inv = true;
                } else {
                    let value = self.runahead_load_value(entry.id, addr, load_access);
                    let access = self
                        .mem_hier
                        .load_range(addr, len, now, AccessKind::Prefetch);
                    mem_level = Some(access.level);
                    self.trace_mem_event(entry.pc, addr, &access, true, now);
                    if access.initiated_dram_fill {
                        self.stats.runahead_prefetches_issued += 1;
                    }
                    result = Some(value);
                    let remaining = access.completion_cycle.saturating_sub(now);
                    if remaining > self.cfg.l3.latency {
                        // The data will not arrive for a long time (an
                        // off-chip access): the load has served its purpose
                        // as a prefetch. Mark the result invalid and complete
                        // quickly so dependants do not hold resources
                        // (Mutlu et al.'s INV semantics).
                        completion = now + self.cfg.l1d.latency;
                        dest_inv = true;
                    } else {
                        completion = access.completion_cycle;
                    }
                }
            } else {
                match self.lsq.check_load(entry.id, addr, len as u8) {
                    crate::lsq::LoadCheck::Stall => return IssueOutcome::NotIssued,
                    crate::lsq::LoadCheck::Forward(raw) => {
                        result = Some(load_access.extend(raw));
                        completion = now + self.cfg.l1d.latency;
                        mem_level = Some(HitLevel::L1);
                    }
                    crate::lsq::LoadCheck::Proceed => {
                        let raw = self.func_mem.load_bytes(addr, len);
                        let access = self.mem_hier.load_range(addr, len, now, AccessKind::Demand);
                        self.trace_mem_event(entry.pc, addr, &access, false, now);
                        result = Some(load_access.extend(raw));
                        completion = access.completion_cycle;
                        mem_level = Some(access.level);
                    }
                }
            }
        } else if let Some(width) = inst.opcode.store_width() {
            let addr = inst.effective_address(src1);
            let value = src2 & width.mask();
            mem_addr = Some(addr);
            store_value = Some(value);
            if !entry.is_runahead {
                self.lsq.set_store_addr(entry.id, addr);
                self.lsq.set_store_value(entry.id, value);
            }
            if runahead_exec && !src_inv {
                self.runahead_store_buffer.store(addr, width.bytes(), value);
            }
        } else if inst.opcode.is_control() {
            let outcome = inst.execute(entry.pc, src1, src2, None);
            if !entry.is_runahead && !src_inv {
                if inst.opcode.is_cond_branch() {
                    let predicted_next = self
                        .rob
                        .predicted_next_pc(entry.rob_slot, entry.id)
                        .unwrap_or(outcome.next_pc);
                    mispredicted = outcome.next_pc != predicted_next;
                    self.predictor.update(
                        entry.pc,
                        outcome.taken.unwrap_or(false),
                        inst.target,
                        mispredicted,
                    );
                }
                if mispredicted {
                    self.pending_recovery = Some((entry.id, outcome.next_pc));
                }
            }
        } else {
            let outcome = inst.execute(entry.pc, src1, src2, None);
            result = outcome.result;
        }

        // Write the destination value; the ready bit is set at completion.
        if let Some((class, reg)) = entry.dest {
            self.prf_mut(class).write(reg, result.unwrap_or(0));
            self.prf_mut(class).set_inv(reg, dest_inv);
        }

        self.in_flight.push(InFlight {
            completion,
            id: entry.id,
            rob_slot: entry.rob_slot,
            is_runahead: entry.is_runahead,
            interval_seq: self.interval_seq,
            dest: entry.dest,
        });

        if let Some(t) = self.tracer.as_deref_mut() {
            t.uop_issued(entry.id, now);
        }

        if entry.is_runahead {
            self.stats.runahead_uops_executed += 1;
        } else {
            self.rob.writeback(
                entry.rob_slot,
                entry.id,
                crate::rob::Writeback {
                    completion_cycle: completion,
                    result,
                    mem_addr,
                    mem_level,
                    store_value,
                    mispredicted,
                },
            );
        }
        IssueOutcome::Issued
    }

    /// Reports a data access that left the core (missed L2 or the LLC) to
    /// the tracer, tagging it with the instantaneous MSHR occupancy.
    fn trace_mem_event(
        &mut self,
        pc: u32,
        addr: u64,
        access: &pre_mem::MemAccess,
        prefetch: bool,
        now: u64,
    ) {
        if self.tracer.is_none() {
            return;
        }
        let level = match access.level {
            HitLevel::L3 => MissLevel::L2Miss,
            HitLevel::Memory => MissLevel::LlcMiss,
            _ => return,
        };
        let ev = MemEvent {
            cycle: now,
            pc,
            addr,
            level,
            prefetch,
            completes: access.completion_cycle,
            mshr_occupancy: self.mem_hier.l1d_mshr_occupancy(now),
        };
        if let Some(t) = self.tracer.as_deref_mut() {
            t.mem_event(&ev);
        }
    }

    /// The value a runahead load observes, byte-wise in priority order:
    /// runahead store-buffer bytes, then uncommitted architectural stores
    /// (store-queue forwarding), then committed memory. Returns the value
    /// extended per the load's access shape.
    fn runahead_load_value(
        &mut self,
        load_id: u64,
        addr: u64,
        access: pre_model::isa::MemAccess,
    ) -> u64 {
        let len = access.width.bytes();
        let buffered = self.runahead_store_buffer.read(addr, len);
        let raw = if buffered.is_complete(len) {
            // Fully buffered: no LSQ search needed.
            buffered.value
        } else {
            let underlying = if let crate::lsq::LoadCheck::Forward(v) =
                self.lsq.check_load_speculative(load_id, addr, len as u8)
            {
                v
            } else {
                self.func_mem.load_bytes(addr, len)
            };
            // Partially buffered (only reachable with sub-word runahead
            // stores): overlay the buffered bytes on the underlying
            // LSQ-or-memory value.
            buffered.overlay(underlying)
        };
        access.extend(raw)
    }

    // ---------------------------------------------------------------------
    // Branch-misprediction recovery.
    // ---------------------------------------------------------------------

    pub(crate) fn recover_from_branch(&mut self, branch_id: u64, target: u32, now: u64) {
        // PRE runahead cannot survive a normal-mode misprediction: the
        // runahead state is discarded first, then ordinary recovery runs.
        if self.mode == Mode::RunaheadPre {
            self.exit_pre(now, true);
        }
        if self.eager_tracked {
            self.rename.squash_eager_younger_than(&self.rob, branch_id);
        }
        // Roll the rename state back from the ROB tail, youngest first. The
        // squashed ids are collected only for an attached tracer.
        let rename = &mut self.rename;
        let mut traced_ids = self.tracer.is_some().then(Vec::new);
        let mut unissued = 0usize;
        let squashed = self.rob.squash_younger_than(branch_id, |entry| {
            rename.rollback_squashed(entry.old_dest, entry.dest);
            unissued += usize::from(!entry.issued);
            if let Some(ids) = traced_ids.as_mut() {
                ids.push(entry.id);
            }
        });
        self.stats.squashed_uops += squashed as u64;
        // Every waiting normal micro-op has a ROB entry, so the ones younger
        // than the branch are exactly the squashed entries that had not
        // issued.
        let removed = self.iq.remove_where(|e| !e.is_runahead && e.id > branch_id);
        debug_assert_eq!(removed, unissued, "issue queue out of step with the ROB");
        self.lsq.squash_younger_than(branch_id);

        self.stats.squashed_uops +=
            (self.uop_queue.len() + self.delay_pipe.len() + self.emq.len()) as u64;
        self.uop_queue.clear();
        self.delay_pipe.flush();
        self.emq.clear();
        if let Some(t) = self.tracer.as_deref_mut() {
            for id in traced_ids.into_iter().flatten() {
                t.uop_squashed(id, now);
            }
            t.frontend_flushed(now);
        }

        self.fetch_pc = target;
        self.next_dispatch_pc = target;
        self.fetch_stall_until = now + 1;
        self.fetch_done = false;
        self.last_fetch_line = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::config::SimConfig;
    use pre_model::isa::{AluOp, BranchCond, StaticInst};
    use pre_model::program::{Interpreter, Program};
    use pre_model::reg::ArchReg;
    use pre_runahead::Technique;

    fn straight_line_program() -> Program {
        let mut p = Program::new("straight");
        let r1 = ArchReg::int(1);
        let r2 = ArchReg::int(2);
        let r3 = ArchReg::int(3);
        p.insts = vec![
            StaticInst::load_imm(r1, 10),
            StaticInst::load_imm(r2, 32),
            StaticInst::int_alu(AluOp::Add, r3, r1, r2),
            StaticInst::int_alu_imm(AluOp::Shl, r3, r3, 1),
            StaticInst::store(r3, r1, 0x1000),
            StaticInst::load(r2, r1, 0x1000),
        ];
        p
    }

    fn loop_program(iterations: u64) -> Program {
        let mut p = Program::new("loop");
        let i = ArchReg::int(1);
        let n = ArchReg::int(2);
        let acc = ArchReg::int(3);
        p.insts = vec![
            StaticInst::load_imm(i, 0),
            StaticInst::load_imm(n, iterations as i64),
            StaticInst::load_imm(acc, 0),
            StaticInst::int_alu_imm(AluOp::Add, acc, acc, 3), // 3
            StaticInst::int_alu_imm(AluOp::Add, i, i, 1),
            StaticInst::branch(BranchCond::Lt, i, n, 3),
        ];
        p
    }

    fn run_core(program: &Program, max_uops: u64) -> OooCore {
        let cfg = SimConfig::haswell_like();
        let mut core = OooCore::new(&cfg, program, Technique::OutOfOrder).unwrap();
        core.run(max_uops, 2_000_000);
        assert!(!core.deadlocked(), "core deadlocked");
        core
    }

    #[test]
    fn straight_line_matches_interpreter() {
        let p = straight_line_program();
        let core = run_core(&p, 1_000);
        let mut interp = Interpreter::new(&p);
        while interp.step() {}
        assert!(core.halted());
        let a = core.arch_snapshot();
        let b = interp.snapshot();
        assert_eq!(a.regs, b.regs);
        assert_eq!(a.retired, b.retired);
        assert_eq!(a.store_checksum, b.store_checksum);
        assert_eq!(core.arch_reg(ArchReg::int(2)), 84);
    }

    #[test]
    fn loop_with_branches_matches_interpreter() {
        let p = loop_program(500);
        let core = run_core(&p, 100_000);
        let mut interp = Interpreter::new(&p);
        while interp.step() {}
        assert!(core.halted());
        assert_eq!(core.arch_reg(ArchReg::int(3)), 1500);
        assert_eq!(core.arch_snapshot().regs, interp.snapshot().regs);
        assert_eq!(core.stats().committed_uops, interp.retired());
    }

    #[test]
    fn branch_mispredictions_are_recovered_not_committed() {
        // A data-dependent, hard-to-predict branch pattern.
        let mut p = Program::new("noisy-branches");
        let i = ArchReg::int(1);
        let n = ArchReg::int(2);
        let acc = ArchReg::int(3);
        let bit = ArchReg::int(4);
        let one = ArchReg::int(5);
        p.insts = vec![
            StaticInst::load_imm(i, 0),
            StaticInst::load_imm(n, 400),
            StaticInst::load_imm(acc, 0),
            StaticInst::load_imm(one, 1),
            // 4: bit = (i*2654435761) >> 13 & 1  (pseudo-random direction)
            StaticInst::int_mul_imm(bit, i, 2654435761),
            StaticInst::int_alu_imm(AluOp::Shr, bit, bit, 13),
            StaticInst::int_alu(AluOp::And, bit, bit, one),
            // 7: if bit != one skip the add
            StaticInst::branch(BranchCond::Ne, bit, one, 9),
            StaticInst::int_alu_imm(AluOp::Add, acc, acc, 7),
            // 9:
            StaticInst::int_alu_imm(AluOp::Add, i, i, 1),
            StaticInst::branch(BranchCond::Lt, i, n, 4),
        ];
        let core = run_core(&p, 100_000);
        let mut interp = Interpreter::new(&p);
        while interp.step() {}
        assert_eq!(core.arch_reg(acc), interp.reg(acc));
        assert_eq!(core.arch_snapshot().regs, interp.snapshot().regs);
        assert!(
            core.stats().mispredicted_branches > 0,
            "pattern should mispredict"
        );
        assert!(core.stats().squashed_uops > 0);
    }

    #[test]
    fn ipc_is_superscalar_on_independent_work() {
        // A loop of independent immediate loads: once the instruction cache
        // is warm, IPC should comfortably exceed 1.
        let mut p = Program::new("ilp");
        let i = ArchReg::int(30);
        let n = ArchReg::int(31);
        p.insts.push(StaticInst::load_imm(i, 0));
        p.insts.push(StaticInst::load_imm(n, 2_000));
        for r in 1..=8u8 {
            p.insts
                .push(StaticInst::load_imm(ArchReg::int(r), r as i64));
        }
        p.insts.push(StaticInst::int_alu_imm(AluOp::Add, i, i, 1));
        p.insts.push(StaticInst::branch(BranchCond::Lt, i, n, 2));
        let core = run_core(&p, 100_000);
        assert!(core.halted());
        let ipc = core.stats().ipc();
        assert!(ipc > 1.5, "expected superscalar IPC, got {ipc}");
    }

    #[test]
    fn store_to_load_forwarding_preserves_values() {
        let mut p = Program::new("forward");
        let base = ArchReg::int(1);
        let v = ArchReg::int(2);
        let x = ArchReg::int(3);
        p.insts = vec![
            StaticInst::load_imm(base, 0x8000),
            StaticInst::load_imm(v, 1234),
            StaticInst::store(v, base, 0),
            StaticInst::load(x, base, 0),
            StaticInst::int_alu_imm(AluOp::Add, x, x, 1),
        ];
        let core = run_core(&p, 100);
        assert_eq!(core.arch_reg(x), 1235);
    }

    #[test]
    fn cold_misses_make_loads_long_latency() {
        // A pointer-chase over a working set far larger than the LLC.
        let mut p = Program::new("chase");
        let ptr = ArchReg::int(1);
        let n = ArchReg::int(2);
        let i = ArchReg::int(3);
        p.insts = vec![
            StaticInst::load_imm(ptr, 0x100_0000),
            StaticInst::load_imm(n, 64),
            StaticInst::load_imm(i, 0),
            StaticInst::load(ptr, ptr, 0), // 3
            StaticInst::int_alu_imm(AluOp::Add, i, i, 1),
            StaticInst::branch(BranchCond::Lt, i, n, 3),
        ];
        // Build a pointer chain with 1 MB strides.
        let mut addr = 0x100_0000u64;
        for _ in 0..70 {
            let next = addr + 1_048_576 + 64;
            p.initial_mem.push((addr, next));
            addr = next;
        }
        let cfg = SimConfig::haswell_like();
        let mut core = OooCore::new(&cfg, &p, Technique::OutOfOrder).unwrap();
        core.run(10_000, 500_000);
        assert!(!core.deadlocked());
        assert!(
            core.stats().l3_misses > 32,
            "pointer chase should miss the LLC"
        );
        // Dependent misses serialize: the run must take far longer than the
        // instruction count.
        assert!(core.stats().cycles > 64 * 100);
    }
}
