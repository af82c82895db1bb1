//! Span/event tracing as Chrome `chrome://tracing` JSON (also loadable in
//! Perfetto). Timestamps are simulated cycles (the viewer displays them as
//! microseconds).
//!
//! Tracks (thread ids): 0 = runahead intervals, 1 = fast-forward jumps,
//! 2 = stall spans (full-window and EMQ-full), 3 = off-chip misses and the
//! MSHR-occupancy counter.
//!
//! The writer is hand-rolled (the workspace is std-only) and paired with a
//! minimal parser so the round-trip test can assert encode → decode → equal.

use std::fmt::Write as _;

/// Thread id of the runahead-interval track.
pub const TID_INTERVALS: u64 = 0;
/// Thread id of the fast-forward track.
pub const TID_FF: u64 = 1;
/// Thread id of the stall-span track.
pub const TID_STALLS: u64 = 2;
/// Thread id of the memory-event track.
pub const TID_MEM: u64 = 3;

/// An argument value of a trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// Integer argument.
    Int(i64),
    /// String argument.
    Str(String),
}

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
    pub args: Vec<(String, ArgValue)>,
}

/// Appends `s` to `out` escaped for the inside of a JSON string literal
/// (quotes, backslashes and control characters). Shared by the Chrome trace
/// writer and `pre-sim`'s sweep report.
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl ChromeEvent {
    fn render(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        json_escape_into(out, &self.name);
        out.push_str("\",\"cat\":\"");
        json_escape_into(out, &self.cat);
        let _ = write!(out, "\",\"ph\":\"{}\",\"ts\":{}", self.ph, self.ts);
        if let Some(dur) = self.dur {
            let _ = write!(out, ",\"dur\":{dur}");
        }
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", self.pid, self.tid);
        if self.ph == 'i' {
            // Instant events need a scope; "t" = thread.
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{");
        for (i, (key, value)) in self.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(out, key);
            out.push_str("\":");
            match value {
                ArgValue::Int(v) => {
                    let _ = write!(out, "{v}");
                }
                ArgValue::Str(s) => {
                    out.push('"');
                    json_escape_into(out, s);
                    out.push('"');
                }
            }
        }
        out.push_str("}}");
    }
}

/// Chrome-trace stream builder driven by the tracer hooks. Interval and
/// stall spans are coalesced from per-cycle (or bulk fast-forwarded)
/// reports and closed at [`ChromeTrace::finish`].
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<ChromeEvent>,
    pending_interval: Option<(u64, u32)>,
    emq_run: Option<(u64, u64)>,
    stall_run: Option<(u64, u64)>,
}

impl ChromeTrace {
    /// Creates an empty trace with named tracks.
    pub fn new() -> Self {
        let mut trace = ChromeTrace::default();
        for (tid, name) in [
            (TID_INTERVALS, "runahead intervals"),
            (TID_FF, "fast-forward"),
            (TID_STALLS, "stalls"),
            (TID_MEM, "memory"),
        ] {
            trace.events.push(ChromeEvent {
                name: "thread_name".into(),
                cat: "__metadata".into(),
                ph: 'M',
                ts: 0,
                dur: None,
                pid: 0,
                tid,
                args: vec![("name".into(), ArgValue::Str(name.into()))],
            });
        }
        trace
    }

    /// Appends a fully formed event.
    pub fn push(&mut self, event: ChromeEvent) {
        self.events.push(event);
    }

    /// Opens a runahead-interval span.
    pub fn interval_begin(&mut self, cycle: u64, stalling_pc: u32) {
        self.pending_interval = Some((cycle, stalling_pc));
    }

    /// Closes the open runahead-interval span (begin may predate this
    /// builder's attachment, so `entered_at` is passed explicitly).
    pub fn interval_end(
        &mut self,
        technique: &str,
        entered_at: u64,
        cycle: u64,
        args: Vec<(String, ArgValue)>,
    ) {
        self.pending_interval = None;
        self.events.push(ChromeEvent {
            name: format!("runahead ({technique})"),
            cat: "interval".into(),
            ph: 'X',
            ts: entered_at,
            dur: Some(cycle.saturating_sub(entered_at).max(1)),
            pid: 0,
            tid: TID_INTERVALS,
            args,
        });
    }

    /// Records a fast-forward jump over `from..=to`.
    pub fn fast_forward(&mut self, name: &str, from: u64, to: u64) {
        self.events.push(ChromeEvent {
            name: name.into(),
            cat: "ff".into(),
            ph: 'X',
            ts: from,
            dur: Some(to - from),
            pid: 0,
            tid: TID_FF,
            args: Vec::new(),
        });
    }

    fn extend_run(
        run: &mut Option<(u64, u64)>,
        first: u64,
        count: u64,
        closed: &mut Option<(u64, u64)>,
    ) {
        let last = first + count - 1;
        match run {
            Some((_, end)) if first <= *end + 1 => *end = (*end).max(last),
            Some(span) => {
                *closed = Some(*span);
                *run = Some((first, last));
            }
            None => *run = Some((first, last)),
        }
    }

    fn emit_span(&mut self, name: &str, (start, end): (u64, u64)) {
        self.events.push(ChromeEvent {
            name: name.into(),
            cat: "stall".into(),
            ph: 'X',
            ts: start,
            dur: Some(end - start + 1),
            pid: 0,
            tid: TID_STALLS,
            args: Vec::new(),
        });
    }

    /// Reports `count` EMQ-full fetch-stall cycles starting at `first`.
    pub fn emq_full(&mut self, first: u64, count: u64) {
        let mut closed = None;
        Self::extend_run(&mut self.emq_run, first, count, &mut closed);
        if let Some(span) = closed {
            self.emit_span("emq-full", span);
        }
    }

    /// Reports `count` full-window-stall cycles starting at `first`.
    pub fn window_stall(&mut self, first: u64, count: u64) {
        let mut closed = None;
        Self::extend_run(&mut self.stall_run, first, count, &mut closed);
        if let Some(span) = closed {
            self.emit_span("full-window-stall", span);
        }
    }

    /// Records an off-chip miss instant event plus an MSHR-occupancy counter
    /// sample.
    pub fn mem_event(&mut self, ev: &crate::MemEvent) {
        self.events.push(ChromeEvent {
            name: ev.level.label().into(),
            cat: "mem".into(),
            ph: 'i',
            ts: ev.cycle,
            dur: None,
            pid: 0,
            tid: TID_MEM,
            args: vec![
                (
                    "pc".into(),
                    ArgValue::Str(format!("{:#x}", u64::from(ev.pc) * 4)),
                ),
                ("addr".into(), ArgValue::Str(format!("{:#x}", ev.addr))),
                ("prefetch".into(), ArgValue::Int(i64::from(ev.prefetch))),
                ("completes".into(), ArgValue::Int(ev.completes as i64)),
            ],
        });
        self.events.push(ChromeEvent {
            name: "mshr".into(),
            cat: "mem".into(),
            ph: 'C',
            ts: ev.cycle,
            dur: None,
            pid: 0,
            tid: TID_MEM,
            args: vec![(
                "outstanding".into(),
                ArgValue::Int(ev.mshr_occupancy as i64),
            )],
        });
    }

    /// Closes open spans (run ended mid-interval or mid-stall) and renders
    /// the `{"traceEvents": [...]}` document.
    pub fn finish(&mut self, cycle: u64) -> String {
        if let Some((entered_at, pc)) = self.pending_interval.take() {
            self.interval_end(
                "unfinished",
                entered_at,
                cycle,
                vec![(
                    "stalling_pc".into(),
                    ArgValue::Str(format!("{:#x}", u64::from(pc) * 4)),
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
pub fn to_json(events: &[ChromeEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        event.render(&mut out);
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to round-trip what the writer emits.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char).unwrap_or('∅')
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u escape {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let start = self.pos - 1;
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >> 5 == 0b110 => 2,
                        _ if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    self.pos = start + len;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| "truncated UTF-8 sequence".to_string())?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'{') => {
                self.expect(b'{')?;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let key = self.parse_string()?;
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    fields.push((key, value));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                if c == b'-' {
                    self.pos += 1;
                }
                while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                text.parse::<i64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number `{text}`"))
            }
            other => Err(format!(
                "unexpected `{}` at byte {}",
                other.map(|b| b as char).unwrap_or('∅'),
                self.pos
            )),
        }
    }
}

fn field<'j>(obj: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses a document produced by [`to_json`] back into events.
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn parse(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let doc = parser.parse_value()?;
    let Json::Obj(doc) = doc else {
        return Err("top level is not an object".into());
    };
    let Some(Json::Arr(raw_events)) = field(&doc, "traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    let mut events = Vec::with_capacity(raw_events.len());
    for raw in raw_events {
        let Json::Obj(obj) = raw else {
            return Err("event is not an object".into());
        };
        let get_str = |key: &str| -> Result<String, String> {
            match field(obj, key) {
                Some(Json::Str(s)) => Ok(s.clone()),
                _ => Err(format!("event missing string field `{key}`")),
            }
        };
        let get_num = |key: &str| -> Result<i64, String> {
            match field(obj, key) {
                Some(Json::Num(n)) => Ok(*n),
                _ => Err(format!("event missing numeric field `{key}`")),
            }
        };
        let ph = get_str("ph")?;
        let mut args = Vec::new();
        if let Some(Json::Obj(raw_args)) = field(obj, "args") {
            for (key, value) in raw_args {
                args.push((
                    key.clone(),
                    match value {
                        Json::Num(n) => ArgValue::Int(*n),
                        Json::Str(s) => ArgValue::Str(s.clone()),
                        _ => return Err(format!("arg `{key}` is not a scalar")),
                    },
                ));
            }
        }
        events.push(ChromeEvent {
            name: get_str("name")?,
            cat: get_str("cat")?,
            ph: ph.chars().next().ok_or("empty ph")?,
            ts: get_num("ts")? as u64,
            dur: match field(obj, "dur") {
                Some(Json::Num(n)) => Some(*n as u64),
                None => None,
                _ => return Err("dur is not a number".into()),
            },
            pid: get_num("pid")? as u64,
            tid: get_num("tid")? as u64,
            args,
        });
    }
    Ok(events)
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
    fn escapes_round_trip() {
        let events = vec![ChromeEvent {
            name: "weird \"name\"\n\\t".into(),
            cat: "x".into(),
            ph: 'i',
            ts: 5,
            dur: None,
            pid: 0,
            tid: 3,
            args: vec![("k".into(), ArgValue::Str("v\t∅".into()))],
        }];
        assert_eq!(parse(&to_json(&events)).unwrap(), events);
    }
}
