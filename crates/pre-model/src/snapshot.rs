//! Warm-up snapshots: functional state plus a cache-warming trace.
//!
//! A [`SimSnapshot`] captures everything a warmed-up simulation start needs
//! and nothing tied to one particular core configuration:
//!
//! * the architectural registers and next PC after executing N micro-ops on
//!   the in-order [`Interpreter`](crate::program::Interpreter);
//! * the byte-granular [`FuncMem`] image at that point;
//! * a [`WarmTrace`] — the program-order stream of instruction-fetch, load
//!   and store line touches plus the conditional-branch outcomes — from
//!   which warmed cache and branch-predictor state can be *replayed* for any
//!   memory-hierarchy configuration.
//!
//! The trace is what makes one snapshot serve a whole parameter sweep: the
//! expensive part of warm-up (executing the program) happens once, and each
//! sweep point derives its own warmed caches by replaying the trace against
//! its own geometry (`pre-mem`'s `warm_replay`). Snapshots are captured
//! per (workload, params, warmup-uops) and forked per sweep point.
//!
//! Snapshots serialize to a line-oriented text format ([`SimSnapshot::to_text`]
//! / [`SimSnapshot::from_text`]) that round-trips exactly, so a warmed image
//! can be stored and restored across processes.

// Decode paths here feed the fault-tolerant stores: a failure must surface as
// a typed error (and degrade to a cold run), never unwind.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::mem::FuncMem;
use crate::program::{Interpreter, Program};
use crate::reg::NUM_ARCH_REGS;
use std::fmt::Write as _;

/// One cache-relevant event of the warm-up execution, in program order.
///
/// Addresses are byte addresses; the replay applies its own line alignment,
/// so one trace serves any line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmEvent {
    /// An instruction fetch touched this address (one event per new fetch
    /// line, mirroring the pipeline's line-granular fetch).
    Ifetch(u64),
    /// A demand load read this address.
    Load(u64),
    /// A committed store wrote this address.
    Store(u64),
}

/// One conditional-branch outcome of the warm-up execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmBranch {
    /// PC of the branch.
    pub pc: u32,
    /// Whether it was taken.
    pub taken: bool,
    /// The PC executed next (the branch target when taken).
    pub target: u32,
}

/// Lowercase hex digits by nibble value: the page-payload encoding.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Nibble value of each ASCII byte (either case), `INVALID_HEX` for
/// anything that is not a hex digit.
const HEX_VALUES: [u8; 256] = {
    let mut table = [INVALID_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};
const INVALID_HEX: u8 = 0xFF;

/// Appends two lowercase hex digits per byte of `bytes`.
fn push_hex(out: &mut String, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xF)]));
    }
}

/// Decodes `hex` (two digits per byte) into `out`; `None` on any non-hex
/// digit. The caller checks `hex.len() == 2 * out.len()`.
fn decode_hex(hex: &[u8], out: &mut [u8]) -> Option<()> {
    for (byte, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
        let hi = HEX_VALUES[usize::from(pair[0])];
        let lo = HEX_VALUES[usize::from(pair[1])];
        if hi == INVALID_HEX || lo == INVALID_HEX {
            return None;
        }
        *byte = (hi << 4) | lo;
    }
    Some(())
}

/// Instruction-fetch line size assumed by the trace's ifetch deduplication.
/// This mirrors the pipeline's fetch stage: PCs are program indices scaled
/// by 4 bytes and fetched in 64-byte lines.
const FETCH_LINE_BYTES: u64 = 64;

/// The program-order warm-up trace: memory events interleaved exactly as
/// the interpreter produced them (so replay reproduces LRU interactions in
/// shared levels) plus the branch outcomes for predictor warming.
#[derive(Debug, Clone, Default)]
pub struct WarmTrace {
    /// Ifetch/load/store events in program order.
    pub events: Vec<WarmEvent>,
    /// Conditional-branch outcomes in program order.
    pub branches: Vec<WarmBranch>,
    /// Last recorded ifetch line (capture-time deduplication state; not
    /// serialized and irrelevant to replay).
    last_fetch_line: Option<u64>,
}

impl PartialEq for WarmTrace {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events && self.branches == other.branches
    }
}

impl WarmTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        WarmTrace::default()
    }

    /// Records the instruction fetch for `pc`, deduplicated per 64-byte
    /// fetch line exactly like the pipeline's fetch stage (which only
    /// touches the instruction cache when fetch crosses into a new line).
    pub fn record_ifetch(&mut self, pc: u32) {
        let line = (u64::from(pc) * 4) & !(FETCH_LINE_BYTES - 1);
        if self.last_fetch_line != Some(line) {
            self.last_fetch_line = Some(line);
            self.events.push(WarmEvent::Ifetch(line));
        }
    }

    /// Records a demand load of `addr`.
    pub fn record_load(&mut self, addr: u64) {
        self.events.push(WarmEvent::Load(addr));
    }

    /// Records a committed store to `addr`.
    pub fn record_store(&mut self, addr: u64) {
        self.events.push(WarmEvent::Store(addr));
    }

    /// Records a conditional-branch outcome.
    pub fn record_branch(&mut self, pc: u32, taken: bool, target: u32) {
        self.branches.push(WarmBranch { pc, taken, target });
    }

    /// Total number of memory events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A serializable warmed-up simulation start: architectural registers, PC,
/// functional-memory image and the warm-up trace.
///
/// Captured once per (workload, params, warmup-uops) and forked (cloned) per
/// sweep point; the configuration-dependent warmed structures (caches,
/// branch predictor) are derived from [`SimSnapshot::trace`] by the
/// consumer. Every snapshot is built by [`SimSnapshot::advance`]:
/// [`SimSnapshot::capture`] and [`SimSnapshot::capture_windowed`] advance a
/// fresh interpreter, and sampled runs advance one interpreter through all
/// their representative offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// The requested warm-up budget in micro-ops.
    pub warmup_uops: u64,
    /// Micro-ops actually executed (less than `warmup_uops` when the
    /// program retired completely during warm-up).
    pub executed: u64,
    /// `true` when the program retired completely during warm-up.
    pub halted: bool,
    /// Architectural register file after warm-up.
    pub regs: [u64; NUM_ARCH_REGS],
    /// Next PC to execute.
    pub pc: u32,
    /// Functional-memory image after warm-up.
    pub mem: FuncMem,
    /// The cache/predictor warming trace.
    pub trace: WarmTrace,
}

impl SimSnapshot {
    /// Executes `warmup_uops` micro-ops of `program` on the in-order
    /// interpreter, collecting the warm trace, and captures the resulting
    /// state.
    pub fn capture(program: &Program, warmup_uops: u64) -> SimSnapshot {
        SimSnapshot::capture_windowed(program, warmup_uops, warmup_uops)
    }

    /// Like [`SimSnapshot::capture`], but only the final `trace_window`
    /// micro-ops of the warm-up contribute to the warm trace; the earlier
    /// `warmup_uops − trace_window` micro-ops execute untraced.
    ///
    /// Interval sampling uses this to take snapshots deep into a program
    /// without carrying (and replaying) the entire execution history: the
    /// architectural state is exact regardless of the window, while cache
    /// and predictor warming come from the most recent window only.
    /// `trace_window ≥ warmup_uops` is equivalent to a full-trace capture.
    /// This is [`SimSnapshot::advance`] on a fresh interpreter.
    pub fn capture_windowed(program: &Program, warmup_uops: u64, trace_window: u64) -> SimSnapshot {
        SimSnapshot::advance(&mut Interpreter::new(program), warmup_uops, trace_window)
    }

    /// Runs `interp` on until it has retired `warmup_uops` micro-ops in
    /// total (or halts), tracing only those of the final `trace_window`
    /// that it has not already retired, and captures the state there.
    ///
    /// Every snapshot is captured here. One interpreter advanced through
    /// increasing offsets yields, at each offset, the snapshot
    /// [`SimSnapshot::capture_windowed`] takes from a fresh one, provided
    /// each window starts at or after the previous offset; so a sampled
    /// run's representatives cost one functional pass. The snapshot shares
    /// the interpreter's memory pages copy-on-write, so the interpreter can
    /// run on without copying its image.
    pub fn advance(interp: &mut Interpreter, warmup_uops: u64, trace_window: u64) -> SimSnapshot {
        let untraced = warmup_uops.saturating_sub(trace_window);
        interp.run(untraced.saturating_sub(interp.retired()));
        let mut trace = WarmTrace::new();
        interp.run_warm(warmup_uops.saturating_sub(interp.retired()), &mut trace);
        SimSnapshot {
            warmup_uops,
            executed: interp.retired(),
            halted: interp.halted(),
            regs: *interp.regs(),
            pc: interp.pc(),
            mem: interp.memory().clone(),
            trace,
        }
    }

    /// Serializes the snapshot to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    /// Appends [`SimSnapshot::to_text`] to `out`, so a caller framing the
    /// text (the on-disk snapshot store) builds it in place instead of
    /// copying it.
    pub fn write_text(&self, out: &mut String) {
        out.push_str("pre-snapshot v1\n");
        let _ = writeln!(out, "warmup_uops {}", self.warmup_uops);
        let _ = writeln!(out, "executed {}", self.executed);
        let _ = writeln!(out, "halted {}", u8::from(self.halted));
        let _ = writeln!(out, "pc {}", self.pc);
        out.push_str("regs");
        for r in &self.regs {
            let _ = write!(out, " {r}");
        }
        out.push('\n');
        for (page_no, data, written) in self.mem.page_images() {
            let _ = write!(out, "page {page_no} ");
            push_hex(out, data);
            for w in written {
                let _ = write!(out, " {w:x}");
            }
            out.push('\n');
        }
        for event in &self.trace.events {
            let _ = match event {
                WarmEvent::Ifetch(a) => writeln!(out, "I {a}"),
                WarmEvent::Load(a) => writeln!(out, "L {a}"),
                WarmEvent::Store(a) => writeln!(out, "S {a}"),
            };
        }
        for b in &self.trace.branches {
            let _ = writeln!(out, "B {} {} {}", b.pc, u8::from(b.taken), b.target);
        }
        out.push_str("end\n");
    }

    /// Parses the text format written by [`SimSnapshot::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<SimSnapshot, String> {
        let mut lines = text.lines();
        if lines.next() != Some("pre-snapshot v1") {
            return Err("not a pre-snapshot v1 file".to_string());
        }
        let mut snap = SimSnapshot {
            warmup_uops: 0,
            executed: 0,
            halted: false,
            regs: [0; NUM_ARCH_REGS],
            pc: 0,
            mem: FuncMem::new(),
            trace: WarmTrace::new(),
        };
        let mut saw_end = false;
        for line in lines {
            let mut parts = line.split_ascii_whitespace();
            let tag = parts.next().unwrap_or("");
            let mut next_u64 = |what: &str| -> Result<u64, String> {
                parts
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| format!("bad {what} in line: {line}"))
            };
            match tag {
                "warmup_uops" => snap.warmup_uops = next_u64("warmup_uops")?,
                "executed" => snap.executed = next_u64("executed")?,
                "halted" => snap.halted = next_u64("halted")? != 0,
                "pc" => {
                    snap.pc = u32::try_from(next_u64("pc")?)
                        .map_err(|_| format!("pc out of range in line: {line}"))?;
                }
                "regs" => {
                    for (i, slot) in snap.regs.iter_mut().enumerate() {
                        *slot = next_u64(&format!("reg {i}"))?;
                    }
                }
                "page" => {
                    let page_no = next_u64("page number")?;
                    let hex = parts
                        .next()
                        .ok_or_else(|| "page without payload".to_string())?;
                    if hex.len() != FuncMem::PAGE_BYTES * 2 {
                        return Err(format!("page {page_no}: bad payload length"));
                    }
                    let mut data = vec![0u8; FuncMem::PAGE_BYTES];
                    decode_hex(hex.as_bytes(), &mut data)
                        .ok_or_else(|| format!("page {page_no}: bad payload hex"))?;
                    let written: Vec<u64> = parts
                        .map(|w| u64::from_str_radix(w, 16))
                        .collect::<Result<_, _>>()
                        .map_err(|_| format!("page {page_no}: bad bitmap hex"))?;
                    snap.mem.install_page(page_no, &data, &written);
                    continue;
                }
                "I" => snap.trace.events.push(WarmEvent::Ifetch(next_u64("addr")?)),
                "L" => snap.trace.events.push(WarmEvent::Load(next_u64("addr")?)),
                "S" => snap.trace.events.push(WarmEvent::Store(next_u64("addr")?)),
                "B" => {
                    let pc = u32::try_from(next_u64("branch pc")?)
                        .map_err(|_| format!("branch pc out of range: {line}"))?;
                    let taken = next_u64("taken flag")? != 0;
                    let target = u32::try_from(next_u64("branch target")?)
                        .map_err(|_| format!("branch target out of range: {line}"))?;
                    snap.trace.record_branch(pc, taken, target);
                }
                "end" => {
                    saw_end = true;
                    break;
                }
                other => return Err(format!("unknown snapshot line tag `{other}`")),
            }
        }
        if !saw_end {
            return Err("truncated snapshot (no end marker)".to_string());
        }
        Ok(snap)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, BranchCond, StaticInst};
    use crate::reg::ArchReg;

    fn looping_program() -> Program {
        // r1 = counter, r2 = base address; stores then reloads a value.
        let mut p = Program::new("snapshot-test");
        p.insts = vec![
            StaticInst::load_imm(ArchReg::int(1), 0),
            StaticInst::load_imm(ArchReg::int(2), 0x1000),
            StaticInst::store(ArchReg::int(1), ArchReg::int(2), 0),
            StaticInst::load(ArchReg::int(3), ArchReg::int(2), 0),
            StaticInst::int_alu_imm(AluOp::Add, ArchReg::int(1), ArchReg::int(1), 1),
            StaticInst::branch(BranchCond::Lt, ArchReg::int(1), ArchReg::int(4), 2),
        ];
        p.initial_regs = vec![(ArchReg::int(4), 50)];
        p
    }

    #[test]
    fn capture_collects_events_and_state() {
        let program = looping_program();
        let snap = SimSnapshot::capture(&program, 100);
        assert_eq!(snap.executed, 100);
        assert!(!snap.halted);
        assert!(!snap.trace.is_empty());
        assert!(snap.trace.branches.iter().any(|b| b.taken));
        assert!(snap.mem.resident_pages() > 0);
        // Interleaving preserved: first events include an ifetch before any
        // load or store.
        assert!(matches!(snap.trace.events[0], WarmEvent::Ifetch(_)));
    }

    #[test]
    fn capture_stops_at_program_end() {
        let program = looping_program();
        let snap = SimSnapshot::capture(&program, 1_000_000);
        assert!(snap.halted);
        assert!(snap.executed < 1_000_000);
    }

    #[test]
    fn ifetch_events_are_line_deduplicated() {
        let program = looping_program();
        let snap = SimSnapshot::capture(&program, 64);
        let ifetches = snap
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, WarmEvent::Ifetch(_)))
            .count();
        // Six instructions fit in one 64-byte line, so the loop touches the
        // same line every iteration and the dedup suppresses repeats.
        assert!(
            ifetches < 3,
            "expected deduplicated ifetches, got {ifetches}"
        );
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let program = looping_program();
        let snap = SimSnapshot::capture(&program, 80);
        let text = snap.to_text();
        let back = SimSnapshot::from_text(&text).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.mem.written_bytes(), snap.mem.written_bytes());
        // The restored memory reads identically (spot-check the stored word
        // and an unwritten location).
        assert_eq!(back.mem.load_u64(0x1000), snap.mem.load_u64(0x1000));
        assert_eq!(back.mem.load_u64(0x9999), snap.mem.load_u64(0x9999));
    }

    #[test]
    fn windowed_capture_matches_state_with_bounded_trace() {
        let program = looping_program();
        let full = SimSnapshot::capture(&program, 120);
        let windowed = SimSnapshot::capture_windowed(&program, 120, 30);
        // Architectural state is exact regardless of the trace window.
        assert_eq!(windowed.regs, full.regs);
        assert_eq!(windowed.pc, full.pc);
        assert_eq!(windowed.executed, full.executed);
        assert_eq!(
            windowed.mem.written_bytes(),
            full.mem.written_bytes(),
            "memory image must not depend on the trace window"
        );
        // The trace only covers the final window.
        assert!(windowed.trace.branches.len() < full.trace.branches.len());
        assert!(windowed.trace.len() < full.trace.len());
        // A window at least as large as the warm-up is a full capture.
        let wide = SimSnapshot::capture_windowed(&program, 120, 500);
        assert_eq!(wide, full);
    }

    #[test]
    fn advancing_one_interpreter_matches_fresh_captures() {
        // Offsets in increasing order with windows that start at or after
        // the previous offset; the last one runs past the program's end.
        let program = looping_program();
        let points = [(40, 20), (100, 60), (1_000, 30)];
        let mut interp = Interpreter::new(&program);
        let snaps: Vec<SimSnapshot> = points
            .iter()
            .map(|&(offset, window)| SimSnapshot::advance(&mut interp, offset, window))
            .collect();
        // Compared only now, so later stores by the interpreter would show
        // if they leaked into the snapshots it already took.
        for (snap, (offset, window)) in snaps.iter().zip(points) {
            assert_eq!(
                *snap,
                SimSnapshot::capture_windowed(&program, offset, window)
            );
        }
        assert!(snaps[2].halted && snaps[2].executed < 1_000);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(SimSnapshot::from_text("nope").is_err());
        assert!(SimSnapshot::from_text("pre-snapshot v1\n").is_err());
        assert!(SimSnapshot::from_text("pre-snapshot v1\nwat 3\nend\n").is_err());
        // A payload of the right byte length with a non-hex (and non-ASCII)
        // digit is an error, not a panic.
        let payload = format!("{}é", "0".repeat(FuncMem::PAGE_BYTES * 2 - 2));
        let text = format!(
            "pre-snapshot v1\npage 0 {payload}{}\nend\n",
            " 0".repeat(64)
        );
        let err = SimSnapshot::from_text(&text).expect_err("bad hex rejected");
        assert!(err.contains("bad payload hex"), "{err}");
    }

    /// Pins the exact text of a tiny snapshot: two pages, a register file,
    /// one event of each kind and a branch. Persisted snapshots must keep
    /// decoding, so the format may not drift.
    #[test]
    fn text_format_is_pinned() {
        let mut mem = FuncMem::new();
        let ramp: Vec<u8> = (0..FuncMem::PAGE_BYTES).map(|i| i as u8).collect();
        let mut written = [0u64; 64];
        written[0] = 0xff;
        written[63] = 1 << 63;
        mem.install_page(2, &ramp, &written);
        let zeros = vec![0u8; FuncMem::PAGE_BYTES];
        mem.install_page(7, &zeros, &[0; 64]);
        let mut regs = [0u64; NUM_ARCH_REGS];
        regs[1] = 42;
        regs[NUM_ARCH_REGS - 1] = u64::MAX;
        let mut trace = WarmTrace::new();
        trace.record_ifetch(3);
        trace.record_load(0x2010);
        trace.record_store(0x7000);
        trace.record_branch(5, true, 1);
        let snap = SimSnapshot {
            warmup_uops: 100,
            executed: 99,
            halted: true,
            regs,
            pc: 6,
            mem,
            trace,
        };

        let mut expected =
            String::from("pre-snapshot v1\nwarmup_uops 100\nexecuted 99\nhalted 1\npc 6\nregs");
        for r in &regs {
            expected.push_str(&format!(" {r}"));
        }
        let ramp_hex: String = (0..=255u8).map(|b| format!("{b:02x}")).collect();
        expected.push_str(&format!(
            "\npage 2 {} ff{} 8000000000000000\n",
            ramp_hex.repeat(16),
            " 0".repeat(62)
        ));
        expected.push_str(&format!(
            "page 7 {}{}\n",
            "00".repeat(4096),
            " 0".repeat(64)
        ));
        expected.push_str("I 0\nL 8208\nS 28672\nB 5 1 1\nend\n");
        let text = snap.to_text();
        assert_eq!(text, expected);
        assert_eq!(SimSnapshot::from_text(&text).expect("parses"), snap);
    }
}
