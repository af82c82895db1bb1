//! [`TraceSession`]: every enabled stream of one simulated cell behind a
//! single [`Tracer`].

use crate::chrome::ChromeTrace;
use crate::collect::IntervalLog;
use crate::commitlog::CommitLogWriter;
use crate::pipeview::PipeviewTrace;
use crate::spec::{TimeSeriesFormat, TraceSpec};
use crate::timeseries::TimeSeries;
use crate::{CommittedUop, FfMode, MemEvent, Sample, Tracer};
use pre_model::isa::StaticInst;
use pre_model::stats::RunaheadEvent;
use std::any::Any;
use std::io;
use std::path::PathBuf;

/// A file-writing tracer recording every stream selected by a
/// [`TraceSpec`], plus an always-on in-memory runahead interval log.
///
/// Output files are buffered in memory and written by
/// [`Tracer::finish`]; call [`TraceSession::io_error`] afterwards to check
/// that the writes succeeded.
#[derive(Debug)]
pub struct TraceSession {
    pipeview: Option<(PipeviewTrace, PathBuf)>,
    chrome: Option<(ChromeTrace, PathBuf)>,
    timeseries: Option<(TimeSeries, PathBuf)>,
    commit: Option<(CommitLogWriter, PathBuf)>,
    paths: Vec<PathBuf>,
    intervals: IntervalLog,
    io_error: Option<io::Error>,
}

impl TraceSession {
    /// Creates the output directory and a session writing
    /// `<dir>/<cell>.<ext>` for each enabled stream.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the output directory.
    pub fn create(spec: &TraceSpec, cell: &str) -> io::Result<Self> {
        std::fs::create_dir_all(&spec.dir)?;
        let path = |ext: &str| spec.dir.join(format!("{cell}.{ext}"));
        let session = TraceSession {
            pipeview: spec
                .pipeview
                .then(|| (PipeviewTrace::new(spec.ring), path("pipeview"))),
            chrome: spec
                .chrome
                .then(|| (ChromeTrace::new(), path("trace.json"))),
            timeseries: spec.timeseries.map(|format| {
                let ext = match format {
                    TimeSeriesFormat::Csv => "timeseries.csv",
                    TimeSeriesFormat::Json => "timeseries.json",
                };
                (TimeSeries::new(spec.window, format), path(ext))
            }),
            commit: spec
                .commit
                .then(|| (CommitLogWriter::new(), path("commit.bin"))),
            paths: Vec::new(),
            intervals: IntervalLog::new(),
            io_error: None,
        };
        Ok(TraceSession {
            paths: [
                session.pipeview.as_ref().map(|(_, p)| p.clone()),
                session.chrome.as_ref().map(|(_, p)| p.clone()),
                session.timeseries.as_ref().map(|(_, p)| p.clone()),
                session.commit.as_ref().map(|(_, p)| p.clone()),
            ]
            .into_iter()
            .flatten()
            .collect(),
            ..session
        })
    }

    /// Paths of every enabled output file (valid before and after
    /// [`Tracer::finish`]).
    pub fn files(&self) -> &[PathBuf] {
        &self.paths
    }

    /// The first error encountered while writing output files (check after
    /// [`Tracer::finish`]).
    pub fn io_error(&self) -> Option<&io::Error> {
        self.io_error.as_ref()
    }

    /// The runahead interval entry/exit events observed during the run.
    pub fn interval_log(&self) -> &IntervalLog {
        &self.intervals
    }

    fn write(&mut self, path: PathBuf, bytes: &[u8]) {
        if self.io_error.is_some() {
            return;
        }
        if let Err(e) = std::fs::write(&path, bytes) {
            self.io_error = Some(io::Error::new(
                e.kind(),
                format!("writing trace file {}: {e}", path.display()),
            ));
        }
    }
}

impl Tracer for TraceSession {
    fn uop_fetched(&mut self, pc: u32, inst: &StaticInst, cycle: u64) {
        if let Some((pipeview, _)) = &mut self.pipeview {
            pipeview.on_fetch(pc, inst.to_string(), cycle);
        }
    }

    fn uop_decoded(&mut self, cycle: u64) {
        if let Some((pipeview, _)) = &mut self.pipeview {
            pipeview.on_decode(cycle);
        }
    }

    fn uop_filtered(&mut self, cycle: u64, captured: bool, _executed: bool) {
        if let Some((pipeview, _)) = &mut self.pipeview {
            pipeview.on_filtered(cycle, captured);
        }
    }

    fn uop_dispatched(&mut self, id: u64, pc: u32, cycle: u64, from_emq: bool) {
        if let Some((pipeview, _)) = &mut self.pipeview {
            pipeview.on_dispatch(id, pc, cycle, from_emq);
        }
    }

    fn uop_issued(&mut self, id: u64, cycle: u64) {
        if let Some((pipeview, _)) = &mut self.pipeview {
            pipeview.on_issue(id, cycle);
        }
    }

    fn uop_completed(&mut self, id: u64, cycle: u64) {
        if let Some((pipeview, _)) = &mut self.pipeview {
            pipeview.on_complete(id, cycle);
        }
    }

    fn uop_committed(&mut self, uop: &CommittedUop, cycle: u64) {
        if let Some((pipeview, _)) = &mut self.pipeview {
            pipeview.on_commit(uop.id, cycle);
        }
        if let Some((commit, _)) = &mut self.commit {
            commit.push(&uop.into());
        }
    }

    fn uop_squashed(&mut self, id: u64, cycle: u64) {
        if let Some((pipeview, _)) = &mut self.pipeview {
            pipeview.on_squash(id, cycle);
        }
    }

    fn frontend_flushed(&mut self, cycle: u64) {
        if let Some((pipeview, _)) = &mut self.pipeview {
            pipeview.on_frontend_flush(cycle);
        }
    }

    fn runahead_entry(&mut self, ev: &RunaheadEvent, stalling_pc: u32) {
        self.intervals.record(*ev);
        if let Some((chrome, _)) = &mut self.chrome {
            chrome.interval_begin(ev.cycle, stalling_pc);
        }
    }

    fn runahead_exit(&mut self, ev: &RunaheadEvent, entered_at: u64, stalling_pc: u32) {
        self.intervals.record(*ev);
        if let Some((chrome, _)) = &mut self.chrome {
            chrome.interval_end(
                "interval",
                entered_at,
                ev.cycle,
                vec![
                    (
                        "stalling_pc".into(),
                        format!("{:#x}", u64::from(stalling_pc) * 4).into(),
                    ),
                    ("int_free".into(), ev.int_free.into()),
                    ("fp_free".into(), ev.fp_free.into()),
                    ("prdq_allocated".into(), ev.prdq_allocated.into()),
                ],
            );
        }
    }

    fn fast_forward(&mut self, from: u64, to: u64, mode: FfMode) {
        if let Some((chrome, _)) = &mut self.chrome {
            chrome.fast_forward(mode.label(), from, to);
        }
    }

    fn emq_full_cycles(&mut self, cycle: u64, count: u64) {
        if let Some((chrome, _)) = &mut self.chrome {
            chrome.emq_full(cycle, count);
        }
    }

    fn window_stall_cycles(&mut self, cycle: u64, count: u64) {
        if let Some((chrome, _)) = &mut self.chrome {
            chrome.window_stall(cycle, count);
        }
    }

    fn mem_event(&mut self, ev: &MemEvent) {
        if let Some((chrome, _)) = &mut self.chrome {
            chrome.mem_event(ev);
        }
    }

    fn sample_due(&mut self, cycle: u64) -> bool {
        self.timeseries
            .as_ref()
            .is_some_and(|(ts, _)| ts.due(cycle))
    }

    fn sample(&mut self, s: &Sample) {
        if let Some((ts, _)) = &mut self.timeseries {
            ts.record(s);
        }
    }

    fn finish(&mut self, cycle: u64) {
        if let Some((mut pipeview, path)) = self.pipeview.take() {
            let text = pipeview.finish();
            self.write(path, text.as_bytes());
        }
        if let Some((mut chrome, path)) = self.chrome.take() {
            let json = chrome.finish(cycle);
            self.write(path, json.as_bytes());
        }
        if let Some((ts, path)) = self.timeseries.take() {
            let text = ts.render();
            self.write(path, text.as_bytes());
        }
        if let Some((commit, path)) = self.commit.take() {
            let bytes = commit.into_bytes();
            self.write(path, &bytes);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}
