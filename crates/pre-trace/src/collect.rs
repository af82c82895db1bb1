//! In-memory collectors: the capped runahead entry/exit event log.
//!
//! Until PR 7, `SimStats` itself carried a capped `Vec<RunaheadEvent>`;
//! that log now lives here, routed through the tracer hooks, so the
//! statistics stay pure aggregates (and `SimStats: PartialEq` compares no
//! event payloads).

use crate::Tracer;
use pre_model::stats::{RunaheadEvent, MAX_RUNAHEAD_EVENTS};
use std::any::Any;

/// A capped in-memory log of runahead interval entry/exit events.
///
/// Intentionally bounded: a pathological run can enter runahead millions of
/// times, so overflow is counted instead of stored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalLog {
    events: Vec<RunaheadEvent>,
    dropped: u64,
}

impl IntervalLog {
    /// Creates an empty log.
    pub(crate) fn new() -> Self {
        IntervalLog::default()
    }

    /// Records one event, up to [`MAX_RUNAHEAD_EVENTS`].
    pub(crate) fn record(&mut self, event: RunaheadEvent) {
        if self.events.len() < MAX_RUNAHEAD_EVENTS {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[RunaheadEvent] {
        &self.events
    }

    /// Events discarded after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A tracer that only keeps the runahead interval event log. Cheap enough
/// for `debug_stats` to attach unconditionally.
#[derive(Debug, Clone, Default)]
pub struct IntervalCollector {
    /// The collected log.
    pub log: IntervalLog,
}

impl IntervalCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        IntervalCollector::default()
    }
}

impl Tracer for IntervalCollector {
    fn runahead_entry(&mut self, ev: &RunaheadEvent, _stalling_pc: u32) {
        self.log.record(*ev);
    }

    fn runahead_exit(&mut self, ev: &RunaheadEvent, _entered_at: u64, _stalling_pc: u32) {
        self.log.record(*ev);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::stats::RunaheadEventKind;

    #[test]
    fn log_caps_and_counts_overflow() {
        let mut log = IntervalLog::new();
        let ev = RunaheadEvent {
            cycle: 1,
            kind: RunaheadEventKind::Entry,
            int_free: 2,
            fp_free: 3,
            int_eager_freed: 0,
            fp_eager_freed: 0,
            prdq_allocated: 0,
        };
        for _ in 0..MAX_RUNAHEAD_EVENTS + 3 {
            log.record(ev);
        }
        assert_eq!(log.events().len(), MAX_RUNAHEAD_EVENTS);
        assert_eq!(log.dropped(), 3);
    }
}
