//! Span/event tracing as Chrome `chrome://tracing` JSON (also loadable in
//! Perfetto). Timestamps are simulated cycles (the viewer displays them as
//! microseconds).
//!
//! Tracks (thread ids): 0 = runahead intervals, 1 = fast-forward jumps,
//! 2 = stall spans (full-window and EMQ-full), 3 = off-chip misses and the
//! MSHR-occupancy counter.
//!
//! Documents are written and read back with [`pre_model::json`].

use pre_model::json::{self, Value};

/// Thread id of the runahead-interval track.
pub(crate) const TID_INTERVALS: u64 = 0;
/// Thread id of the fast-forward track.
pub(crate) const TID_FF: u64 = 1;
/// Thread id of the stall-span track.
pub(crate) const TID_STALLS: u64 = 2;
/// Thread id of the memory-event track.
pub(crate) const TID_MEM: u64 = 3;

/// One Chrome trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name (shown on the slice).
    pub name: String,
    /// Category.
    pub cat: String,
    /// Phase: `X` complete, `i` instant, `C` counter, `M` metadata.
    pub ph: char,
    /// Start timestamp (simulated cycles).
    pub ts: u64,
    /// Duration for `X` events.
    pub dur: Option<u64>,
    /// Process id (always 0 here).
    pub pid: u64,
    /// Thread id (track).
    pub tid: u64,
    /// Event arguments.
    pub args: Vec<(String, Value)>,
}

impl ChromeEvent {
    /// An event of process 0 with no duration and no arguments.
    fn new(name: impl Into<String>, cat: &str, ph: char, ts: u64, tid: u64) -> Self {
        ChromeEvent {
            name: name.into(),
            cat: cat.into(),
            ph,
            ts,
            dur: None,
            pid: 0,
            tid,
            args: Vec::new(),
        }
    }

    fn to_value(&self) -> Value {
        let mut members = vec![
            ("name", Value::from(self.name.as_str())),
            ("cat", self.cat.as_str().into()),
            ("ph", self.ph.to_string().into()),
            ("ts", self.ts.into()),
        ];
        if let Some(dur) = self.dur {
            members.push(("dur", dur.into()));
        }
        members.push(("pid", self.pid.into()));
        members.push(("tid", self.tid.into()));
        if self.ph == 'i' {
            // Instant events need a scope; "t" = thread.
            members.push(("s", "t".into()));
        }
        members.push(("args", Value::Obj(self.args.clone())));
        Value::obj(members)
    }

    fn from_value(event: &Value) -> Result<Self, String> {
        let field = |key: &str| {
            event
                .get(key)
                .ok_or_else(|| format!("event missing `{key}`"))
        };
        let text = |key| {
            field(key)?
                .as_str()
                .ok_or_else(|| format!("`{key}` is not a string"))
        };
        let count = |value: &Value| value.as_i64().and_then(|n| u64::try_from(n).ok());
        let number = |key| count(field(key)?).ok_or_else(|| format!("`{key}` is not a count"));
        Ok(ChromeEvent {
            name: text("name")?.into(),
            cat: text("cat")?.into(),
            ph: text("ph")?.chars().next().ok_or("empty ph")?,
            ts: number("ts")?,
            dur: event.get("dur").map(|_| number("dur")).transpose()?,
            pid: number("pid")?,
            tid: number("tid")?,
            args: match event.get("args") {
                Some(Value::Obj(args)) => args.clone(),
                _ => Vec::new(),
            },
        })
    }
}

/// Chrome-trace stream builder driven by the tracer hooks. Interval and
/// stall spans are coalesced from per-cycle (or bulk fast-forwarded)
/// reports and closed at [`ChromeTrace::finish`].
#[derive(Debug, Default)]
pub(crate) struct ChromeTrace {
    events: Vec<ChromeEvent>,
    pending_interval: Option<(u64, u32)>,
    emq_run: Option<(u64, u64)>,
    stall_run: Option<(u64, u64)>,
}

impl ChromeTrace {
    /// Creates an empty trace with named tracks.
    pub(crate) fn new() -> Self {
        let mut trace = ChromeTrace::default();
        for (tid, name) in [
            (TID_INTERVALS, "runahead intervals"),
            (TID_FF, "fast-forward"),
            (TID_STALLS, "stalls"),
            (TID_MEM, "memory"),
        ] {
            trace.events.push(ChromeEvent {
                args: vec![("name".into(), name.into())],
                ..ChromeEvent::new("thread_name", "__metadata", 'M', 0, tid)
            });
        }
        trace
    }

    /// Opens a runahead-interval span.
    pub(crate) fn interval_begin(&mut self, cycle: u64, stalling_pc: u32) {
        self.pending_interval = Some((cycle, stalling_pc));
    }

    /// Closes the open runahead-interval span (begin may predate this
    /// builder's attachment, so `entered_at` is passed explicitly).
    pub(crate) fn interval_end(
        &mut self,
        technique: &str,
        entered_at: u64,
        cycle: u64,
        args: Vec<(String, Value)>,
    ) {
        self.pending_interval = None;
        let name = format!("runahead ({technique})");
        self.events.push(ChromeEvent {
            dur: Some(cycle.saturating_sub(entered_at).max(1)),
            args,
            ..ChromeEvent::new(name, "interval", 'X', entered_at, TID_INTERVALS)
        });
    }

    /// Records a fast-forward jump that skipped cycles `from+1..=to`, on the
    /// same time base as the stall spans covering those cycles.
    pub(crate) fn fast_forward(&mut self, name: &str, from: u64, to: u64) {
        self.events.push(ChromeEvent {
            dur: Some(to - from),
            ..ChromeEvent::new(name, "ff", 'X', from + 1, TID_FF)
        });
    }

    /// Extends `run` by `count` cycles from `first`; a gap closes the run,
    /// which is returned.
    fn extend_run(run: &mut Option<(u64, u64)>, first: u64, count: u64) -> Option<(u64, u64)> {
        let last = first + count - 1;
        match run {
            Some((_, end)) if first <= *end + 1 => {
                *end = (*end).max(last);
                None
            }
            _ => run.replace((first, last)),
        }
    }

    fn emit_span(&mut self, name: &str, (start, end): (u64, u64)) {
        self.events.push(ChromeEvent {
            dur: Some(end - start + 1),
            ..ChromeEvent::new(name, "stall", 'X', start, TID_STALLS)
        });
    }

    /// Reports `count` EMQ-full fetch-stall cycles starting at `first`.
    pub(crate) fn emq_full(&mut self, first: u64, count: u64) {
        if let Some(span) = Self::extend_run(&mut self.emq_run, first, count) {
            self.emit_span("emq-full", span);
        }
    }

    /// Reports `count` full-window-stall cycles starting at `first`.
    pub(crate) fn window_stall(&mut self, first: u64, count: u64) {
        if let Some(span) = Self::extend_run(&mut self.stall_run, first, count) {
            self.emit_span("full-window-stall", span);
        }
    }

    /// Records an off-chip miss instant event plus an MSHR-occupancy counter
    /// sample.
    pub(crate) fn mem_event(&mut self, ev: &crate::MemEvent) {
        self.events.push(ChromeEvent {
            args: vec![
                ("pc".into(), format!("{:#x}", u64::from(ev.pc) * 4).into()),
                ("addr".into(), format!("{:#x}", ev.addr).into()),
                ("prefetch".into(), u64::from(ev.prefetch).into()),
                ("completes".into(), ev.completes.into()),
            ],
            ..ChromeEvent::new(ev.level.label(), "mem", 'i', ev.cycle, TID_MEM)
        });
        self.events.push(ChromeEvent {
            args: vec![("outstanding".into(), ev.mshr_occupancy.into())],
            ..ChromeEvent::new("mshr", "mem", 'C', ev.cycle, TID_MEM)
        });
    }

    /// Closes open spans (run ended mid-interval or mid-stall) and renders
    /// the `{"traceEvents": [...]}` document.
    pub(crate) fn finish(&mut self, cycle: u64) -> String {
        if let Some((entered_at, pc)) = self.pending_interval.take() {
            self.interval_end(
                "unfinished",
                entered_at,
                cycle,
                vec![(
                    "stalling_pc".into(),
                    format!("{:#x}", u64::from(pc) * 4).into(),
                )],
            );
        }
        if let Some(span) = self.emq_run.take() {
            self.emit_span("emq-full", span);
        }
        if let Some(span) = self.stall_run.take() {
            self.emit_span("full-window-stall", span);
        }
        to_json(&self.events)
    }
}

/// Renders events as a `{"traceEvents": [...]}` document.
pub(crate) fn to_json(events: &[ChromeEvent]) -> String {
    let events = events.iter().map(ChromeEvent::to_value).collect();
    json::write(&Value::obj([("traceEvents", Value::Arr(events))]))
}

/// Parses a document produced by `to_json` back into events.
///
/// # Errors
///
/// Returns a description of the first syntax or structural problem.
pub fn parse(text: &str) -> Result<Vec<ChromeEvent>, String> {
    json::parse(text)?
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?
        .iter()
        .map(ChromeEvent::from_value)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_coalesce_and_close() {
        let mut trace = ChromeTrace::new();
        trace.window_stall(10, 1);
        trace.window_stall(11, 5); // contiguous: extends
        trace.window_stall(40, 2); // gap: closes the first span
        let json = trace.finish(100);
        let events = parse(&json).unwrap();
        let stalls: Vec<_> = events.iter().filter(|e| e.cat == "stall").collect();
        assert_eq!(stalls.len(), 2);
        assert_eq!((stalls[0].ts, stalls[0].dur), (10, Some(6)));
        assert_eq!((stalls[1].ts, stalls[1].dur), (40, Some(2)));
    }

    #[test]
    fn fast_forward_span_covers_the_skipped_cycles() {
        // A jump from cycle 10 to 20 skipped cycles 11..=20, exactly the
        // cycles of the EMQ-full stall the same jump accumulated.
        let mut trace = ChromeTrace::new();
        trace.fast_forward("ff-runahead", 10, 20);
        trace.emq_full(11, 10);
        let events = parse(&trace.finish(100)).unwrap();
        let span = |cat: &str| {
            let e = events.iter().find(|e| e.cat == cat).unwrap();
            (e.ts, e.dur)
        };
        assert_eq!(span("ff"), (11, Some(10)));
        assert_eq!(span("ff"), span("stall"));
    }

    #[test]
    fn escapes_round_trip() {
        let events = vec![ChromeEvent {
            name: "weird \"name\"\n\\t".into(),
            cat: "x".into(),
            ph: 'i',
            ts: 5,
            dur: None,
            pid: 0,
            tid: 3,
            args: vec![("k".into(), Value::Str("v\t∅".into()))],
        }];
        assert_eq!(parse(&to_json(&events)).unwrap(), events);
        assert!(parse("{\"traceEvents\": []} junk").is_err());
    }
}
