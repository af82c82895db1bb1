//! Per-micro-op lifecycle tracing in gem5 `O3PipeView` text.
//!
//! The output loads directly in [Konata](https://github.com/shioyadan/Konata)
//! and in gem5's `util/o3-pipeview.py`. One record per micro-op:
//!
//! ```text
//! O3PipeView:fetch:<tick>:0x<byte-pc>:0:<seq>:<disasm>
//! O3PipeView:decode:<tick>
//! O3PipeView:rename:<tick>
//! O3PipeView:dispatch:<tick>
//! O3PipeView:issue:<tick>
//! O3PipeView:complete:<tick>
//! O3PipeView:retire:<tick>:store:0
//! ```
//!
//! Ticks are simulated cycles; a stage tick of `0` means the micro-op was
//! squashed before reaching that stage (gem5's convention — Konata draws
//! such records as flushed).
//!
//! The simulator assigns micro-op ids at dispatch, but pipeview needs fetch
//! and decode stamps too, so `PipeviewTrace` mirrors the frontend queues:
//! fetch pushes a record into a fetch FIFO, decode moves the oldest into a
//! decode FIFO, the PRE filter moves the oldest into an EMQ FIFO (or retires
//! it as runahead-consumed), and dispatch pops the appropriate FIFO and keys
//! the record by the newly assigned id. The mirrors stay in lockstep because
//! every queue involved is itself a FIFO.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

/// Lifecycle stamps of one micro-op. A stage stamp of 0 means "never
/// reached"; a retire stamp of 0 means squashed.
#[derive(Debug, Clone, Default)]
struct PipeRecord {
    sn: u64,
    pc: u32,
    disasm: String,
    fetch: u64,
    decode: u64,
    rename: u64,
    dispatch: u64,
    issue: u64,
    complete: u64,
    retire: u64,
}

impl PipeRecord {
    fn render(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "O3PipeView:fetch:{}:0x{:08x}:0:{}:{}",
            self.fetch,
            u64::from(self.pc) * 4,
            self.sn,
            self.disasm
        );
        let _ = writeln!(out, "O3PipeView:decode:{}", self.decode);
        let _ = writeln!(out, "O3PipeView:rename:{}", self.rename);
        let _ = writeln!(out, "O3PipeView:dispatch:{}", self.dispatch);
        let _ = writeln!(out, "O3PipeView:issue:{}", self.issue);
        let _ = writeln!(out, "O3PipeView:complete:{}", self.complete);
        let _ = writeln!(out, "O3PipeView:retire:{}:store:0", self.retire);
    }
}

/// Where finished records go: streamed in retirement order, or kept in a
/// bounded ring ("the last N micro-ops before the watchdog fired").
#[derive(Debug)]
enum Output {
    Stream(String),
    Ring {
        buf: VecDeque<PipeRecord>,
        cap: usize,
    },
}

/// The pipeview stream builder driven by the tracer hooks.
#[derive(Debug)]
pub(crate) struct PipeviewTrace {
    next_sn: u64,
    fetch_q: VecDeque<PipeRecord>,
    decode_q: VecDeque<PipeRecord>,
    emq_q: VecDeque<PipeRecord>,
    in_flight: HashMap<u64, PipeRecord>,
    out: Output,
}

impl PipeviewTrace {
    /// Creates a streaming trace, or a ring-buffered one keeping only the
    /// last `ring` retired/squashed micro-ops.
    pub(crate) fn new(ring: Option<usize>) -> Self {
        PipeviewTrace {
            next_sn: 1,
            fetch_q: VecDeque::new(),
            decode_q: VecDeque::new(),
            emq_q: VecDeque::new(),
            in_flight: HashMap::new(),
            out: match ring {
                Some(cap) => Output::Ring {
                    buf: VecDeque::with_capacity(cap),
                    cap,
                },
                None => Output::Stream(String::new()),
            },
        }
    }

    fn emit(&mut self, record: PipeRecord) {
        match &mut self.out {
            Output::Stream(s) => record.render(s),
            Output::Ring { buf, cap } => {
                if buf.len() == *cap {
                    buf.pop_front();
                }
                buf.push_back(record);
            }
        }
    }

    /// Fetch hook: a new record enters the fetch FIFO.
    pub(crate) fn on_fetch(&mut self, pc: u32, disasm: String, cycle: u64) {
        let record = PipeRecord {
            sn: self.next_sn,
            pc,
            disasm,
            fetch: cycle,
            ..PipeRecord::default()
        };
        self.next_sn += 1;
        self.fetch_q.push_back(record);
    }

    /// Decode hook: the oldest fetched micro-op moves to the decode FIFO.
    pub(crate) fn on_decode(&mut self, cycle: u64) {
        if let Some(mut record) = self.fetch_q.pop_front() {
            record.decode = cycle;
            self.decode_q.push_back(record);
        }
    }

    /// PRE-filter hook: the oldest decoded micro-op was consumed — buffered
    /// in the EMQ when `captured`, otherwise retired as runahead-consumed
    /// (drawn as squashed).
    pub(crate) fn on_filtered(&mut self, cycle: u64, captured: bool) {
        let Some(mut record) = self.decode_q.pop_front() else {
            return;
        };
        if captured {
            self.emq_q.push_back(record);
        } else {
            record.rename = cycle;
            self.emit(record);
        }
    }

    /// Dispatch hook: pop the EMQ mirror (PRE+EMQ replay after an interval)
    /// or the decode mirror and key the record by its assigned id.
    pub(crate) fn on_dispatch(&mut self, id: u64, pc: u32, cycle: u64, from_emq: bool) {
        let source = if from_emq {
            &mut self.emq_q
        } else {
            &mut self.decode_q
        };
        let Some(mut record) = source.pop_front() else {
            return;
        };
        debug_assert_eq!(record.pc, pc, "pipeview mirror out of sync at dispatch");
        record.rename = cycle;
        record.dispatch = cycle;
        self.in_flight.insert(id, record);
    }

    /// Issue hook (ignored for ids not in the mirror, e.g. injected runahead
    /// micro-ops).
    pub(crate) fn on_issue(&mut self, id: u64, cycle: u64) {
        if let Some(record) = self.in_flight.get_mut(&id) {
            record.issue = cycle;
        }
    }

    /// Writeback-complete hook.
    pub(crate) fn on_complete(&mut self, id: u64, cycle: u64) {
        if let Some(record) = self.in_flight.get_mut(&id) {
            record.complete = cycle;
        }
    }

    /// Commit hook: the record is finished and emitted.
    pub(crate) fn on_commit(&mut self, id: u64, cycle: u64) {
        if let Some(mut record) = self.in_flight.remove(&id) {
            record.retire = cycle;
            self.emit(record);
        }
    }

    /// Post-dispatch squash hook: the record is finished with retire tick 0.
    pub(crate) fn on_squash(&mut self, id: u64, _cycle: u64) {
        if let Some(record) = self.in_flight.remove(&id) {
            self.emit(record);
        }
    }

    /// Frontend flush hook: every mirrored pre-dispatch micro-op is squashed.
    pub(crate) fn on_frontend_flush(&mut self, _cycle: u64) {
        let drained: Vec<PipeRecord> = self
            .fetch_q
            .drain(..)
            .chain(self.decode_q.drain(..))
            .chain(self.emq_q.drain(..))
            .collect();
        for record in drained {
            self.emit(record);
        }
    }

    /// Finishes the stream: micro-ops still in flight (the run ended with a
    /// non-empty pipeline) are emitted with the stamps they reached, in
    /// program order, and the full text is returned.
    pub(crate) fn finish(&mut self) -> String {
        let mut leftovers: Vec<PipeRecord> = self
            .in_flight
            .drain()
            .map(|(_, r)| r)
            .chain(self.fetch_q.drain(..))
            .chain(self.decode_q.drain(..))
            .chain(self.emq_q.drain(..))
            .collect();
        leftovers.sort_by_key(|r| r.sn);
        for record in leftovers {
            self.emit(record);
        }
        match &mut self.out {
            Output::Stream(s) => std::mem::take(s),
            Output::Ring { buf, .. } => {
                let mut s = String::new();
                for record in buf.drain(..) {
                    record.render(&mut s);
                }
                s
            }
        }
    }
}

/// Validates O3PipeView text: every record is 7 lines in stage order with
/// parseable ticks, non-zero fetch stamps and non-decreasing stamps within
/// the stages a micro-op reached. Returns `(records, retired)` — the total
/// number of records and how many retired (non-zero retire tick).
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate(text: &str) -> Result<(usize, usize), String> {
    const STAGES: [&str; 7] = [
        "fetch", "decode", "rename", "dispatch", "issue", "complete", "retire",
    ];
    let mut records = 0usize;
    let mut retired = 0usize;
    let mut lines = text.lines().enumerate().peekable();
    while lines.peek().is_some() {
        let mut stamps = [0u64; 7];
        for (stage_idx, stage) in STAGES.iter().enumerate() {
            let (lineno, line) = lines
                .next()
                .ok_or_else(|| format!("truncated record: missing {stage} line"))?;
            let rest = line
                .strip_prefix("O3PipeView:")
                .and_then(|r| r.strip_prefix(stage))
                .and_then(|r| r.strip_prefix(':'))
                .ok_or_else(|| {
                    format!("line {}: expected {stage} line, got `{line}`", lineno + 1)
                })?;
            // The disasm text (last fetch field) may itself contain colons.
            let expected_fields = match *stage {
                "fetch" => 5,
                "retire" => 3,
                _ => 1,
            };
            let fields: Vec<&str> = rest.splitn(expected_fields, ':').collect();
            if fields.len() != expected_fields {
                return Err(format!(
                    "line {}: {stage} line has {} fields, expected {expected_fields}",
                    lineno + 1,
                    fields.len()
                ));
            }
            stamps[stage_idx] = fields[0]
                .parse::<u64>()
                .map_err(|_| format!("line {}: bad {stage} tick `{}`", lineno + 1, fields[0]))?;
        }
        if stamps[0] == 0 {
            return Err(format!("record {}: zero fetch tick", records + 1));
        }
        let mut last = 0u64;
        for (stage, &tick) in STAGES.iter().zip(&stamps) {
            if tick == 0 {
                continue;
            }
            if tick < last {
                return Err(format!(
                    "record {}: {stage} tick {tick} precedes a previous stage",
                    records + 1
                ));
            }
            last = tick;
        }
        records += 1;
        if stamps[6] != 0 {
            retired += 1;
        }
    }
    Ok((records, retired))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_records_validate() {
        let mut t = PipeviewTrace::new(None);
        t.on_fetch(0, "add x1, x2, x3".into(), 1);
        t.on_fetch(1, "ld x4, 0(x1)".into(), 1);
        t.on_decode(4);
        t.on_decode(4);
        t.on_dispatch(10, 0, 5, false);
        t.on_dispatch(11, 1, 5, false);
        t.on_issue(10, 6);
        t.on_complete(10, 7);
        t.on_commit(10, 8);
        t.on_squash(11, 8);
        let text = t.finish();
        let (records, retired) = validate(&text).unwrap();
        assert_eq!(records, 2);
        assert_eq!(retired, 1);
    }

    #[test]
    fn ring_mode_keeps_only_the_tail() {
        let mut t = PipeviewTrace::new(Some(2));
        for i in 0..5u64 {
            t.on_fetch(i as u32, format!("nop{i}"), i + 1);
            t.on_decode(i + 2);
            t.on_dispatch(100 + i, i as u32, i + 3, false);
            t.on_commit(100 + i, i + 4);
        }
        let text = t.finish();
        let (records, retired) = validate(&text).unwrap();
        assert_eq!((records, retired), (2, 2));
        assert!(text.contains("nop3") && text.contains("nop4"));
        assert!(!text.contains("nop2"));
    }

    #[test]
    fn frontend_flush_squashes_mirrored_uops() {
        let mut t = PipeviewTrace::new(None);
        t.on_fetch(7, "beq x1, x2".into(), 3);
        t.on_frontend_flush(4);
        let text = t.finish();
        let (records, retired) = validate(&text).unwrap();
        assert_eq!((records, retired), (1, 0));
    }
}
