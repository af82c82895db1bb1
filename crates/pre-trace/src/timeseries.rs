//! Windowed time-series sampling: IPC, structure occupancies, free physical
//! registers and memory-level parallelism per configurable k-cycle window.
//!
//! The run loop asks `TimeSeries::due` once per tick (one compare) and
//! builds a [`Sample`] only when a window boundary has been
//! crossed. Fast-forward jumps can cross several boundaries at once; each
//! crossed window gets its own row with the pipeline state observed at the
//! jump target (the pipeline is quiescent across the jump, so the held
//! values are exact) and rate columns averaged over the actual elapsed span.

use crate::spec::TimeSeriesFormat;
use crate::Sample;
use pre_model::json::{self, Value};
use std::fmt::Write as _;

/// CSV header of the time-series stream (one `Row` per line, same order);
/// its columns are also the keys of the JSON rows.
pub const CSV_HEADER: &str = "cycle,ipc,committed_uops,rob,iq,lq,sq,emq,\
free_int_pct,free_fp_pct,mshr_outstanding,l2_miss_delta,l3_miss_delta,runahead";

/// One emitted window row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    /// Window-end cycle.
    pub cycle: u64,
    /// Committed micro-ops per cycle over the window.
    pub ipc: f64,
    /// Cumulative committed micro-ops at the window end.
    pub committed_uops: u64,
    /// ROB occupancy at the window end.
    pub rob: usize,
    /// Issue-queue occupancy.
    pub iq: usize,
    /// Load-queue occupancy.
    pub lq: usize,
    /// Store-queue occupancy.
    pub sq: usize,
    /// EMQ occupancy.
    pub emq: usize,
    /// Free integer physical registers, percent.
    pub free_int_pct: f64,
    /// Free floating-point physical registers, percent.
    pub free_fp_pct: f64,
    /// Outstanding L1D misses (MSHR occupancy).
    pub mshr_outstanding: usize,
    /// L2 data misses in this window.
    pub l2_miss_delta: u64,
    /// LLC data misses in this window.
    pub l3_miss_delta: u64,
    /// 1 when the core was in runahead mode at the window end.
    pub runahead: bool,
}

/// The time-series sampler.
#[derive(Debug)]
pub(crate) struct TimeSeries {
    window: u64,
    format: TimeSeriesFormat,
    next_boundary: u64,
    last_cycle: u64,
    last_committed: u64,
    last_l2: u64,
    last_l3: u64,
    rows: Vec<Row>,
}

impl TimeSeries {
    /// Creates a sampler with the given window (cycles) and output format.
    pub(crate) fn new(window: u64, format: TimeSeriesFormat) -> Self {
        TimeSeries {
            window: window.max(1),
            format,
            next_boundary: window.max(1),
            last_cycle: 0,
            last_committed: 0,
            last_l2: 0,
            last_l3: 0,
            rows: Vec::new(),
        }
    }

    /// `true` when `cycle` has crossed the next window boundary.
    pub(crate) fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_boundary
    }

    /// Consumes a sample, emitting one row per crossed window. A sample that
    /// has not crossed a boundary (the run loop only sends one when the run
    /// ends mid-window) emits a single partial-window row at the sample
    /// cycle, so even runs shorter than one window produce a data point.
    pub(crate) fn record(&mut self, s: &Sample) {
        let partial = !self.due(s.cycle);
        if partial && s.cycle <= self.last_cycle && !self.rows.is_empty() {
            return;
        }
        // Rates are averaged over the span since the previous sample, then
        // attributed to each crossed window (`step` apart); a partial
        // window is one row at the sample cycle and moves no boundary.
        let elapsed = s.cycle.saturating_sub(self.last_cycle).max(1);
        let ipc = (s.committed_uops - self.last_committed) as f64 / elapsed as f64;
        let l2_delta = s.l2_misses - self.last_l2;
        let l3_delta = s.l3_misses - self.last_l3;
        let (first, windows, step) = if partial {
            (s.cycle, 1, 0)
        } else {
            let crossed = (s.cycle - self.next_boundary) / self.window + 1;
            (self.next_boundary, crossed, self.window)
        };
        for i in 0..windows {
            self.rows.push(Row {
                cycle: first + i * step,
                ipc,
                committed_uops: s.committed_uops,
                rob: s.rob,
                iq: s.iq,
                lq: s.lq,
                sq: s.sq,
                emq: s.emq,
                free_int_pct: s.free_int_frac * 100.0,
                free_fp_pct: s.free_fp_frac * 100.0,
                mshr_outstanding: s.mshr_occupancy,
                l2_miss_delta: if i == 0 { l2_delta } else { 0 },
                l3_miss_delta: if i == 0 { l3_delta } else { 0 },
                runahead: s.in_runahead,
            });
        }
        self.next_boundary += windows * step;
        self.last_cycle = s.cycle;
        self.last_committed = s.committed_uops;
        self.last_l2 = s.l2_misses;
        self.last_l3 = s.l3_misses;
    }

    /// Renders the configured output format: CSV under [`CSV_HEADER`], or
    /// a JSON array of one object per row keyed by the same columns.
    pub(crate) fn render(&self) -> String {
        let columns = || CSV_HEADER.split(',');
        if self.format == TimeSeriesFormat::Json {
            let rows = self
                .rows
                .iter()
                .map(|r| Value::obj(columns().zip(r.values())));
            return json::write(&Value::Arr(rows.collect()));
        }
        let mut out = String::from(CSV_HEADER);
        for r in &self.rows {
            for (i, (column, value)) in columns().zip(r.values()).enumerate() {
                out.push(if i == 0 { '\n' } else { ',' });
                let _ = match value {
                    Value::Float(x) if column == "ipc" => write!(out, "{x:.4}"),
                    Value::Float(x) => write!(out, "{x:.1}"),
                    Value::Int(v) => write!(out, "{v}"),
                    other => unreachable!("time-series cell {other:?}"),
                };
            }
        }
        out.push('\n');
        out
    }
}

impl Row {
    /// The row's values, in [`CSV_HEADER`] column order (`runahead` as
    /// 0/1).
    fn values(&self) -> [Value; 14] {
        [
            self.cycle.into(),
            self.ipc.into(),
            self.committed_uops.into(),
            self.rob.into(),
            self.iq.into(),
            self.lq.into(),
            self.sq.into(),
            self.emq.into(),
            self.free_int_pct.into(),
            self.free_fp_pct.into(),
            self.mshr_outstanding.into(),
            self.l2_miss_delta.into(),
            self.l3_miss_delta.into(),
            u64::from(self.runahead).into(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64, committed: u64) -> Sample {
        Sample {
            cycle,
            committed_uops: committed,
            rob: 10,
            iq: 5,
            lq: 2,
            sq: 1,
            emq: 0,
            free_int_frac: 0.5,
            free_fp_frac: 1.0,
            mshr_occupancy: 3,
            l2_misses: cycle / 10,
            l3_misses: cycle / 100,
            in_runahead: false,
        }
    }

    #[test]
    fn one_row_per_crossed_window() {
        let mut ts = TimeSeries::new(100, TimeSeriesFormat::Csv);
        assert!(!ts.due(99));
        assert!(ts.due(100));
        ts.record(&sample(105, 200));
        assert_eq!(ts.rows.len(), 1);
        assert!(!ts.due(199));
        // A fast-forward jump across three boundaries emits three rows.
        ts.record(&sample(405, 300));
        assert_eq!(ts.rows.len(), 4);
        assert_eq!(ts.rows[1].cycle, 200);
        assert_eq!(ts.rows[3].cycle, 400);
        let ipc = (300.0 - 200.0) / 300.0;
        assert!((ts.rows[1].ipc - ipc).abs() < 1e-9);
    }

    #[test]
    fn csv_has_matching_column_count() {
        let mut ts = TimeSeries::new(10, TimeSeriesFormat::Csv);
        ts.record(&sample(10, 5));
        let csv = ts.render();
        let mut lines = csv.lines();
        let header_cols = lines.next().unwrap().split(',').count();
        assert_eq!(lines.next().unwrap().split(',').count(), header_cols);
    }

    #[test]
    fn json_rows_are_keyed_by_the_csv_columns() {
        let mut ts = TimeSeries::new(10, TimeSeriesFormat::Json);
        ts.record(&sample(10, 5));
        ts.record(&sample(35, 9));
        let doc = json::parse(&ts.render()).unwrap();
        let rows = doc.as_array().unwrap();
        assert_eq!(rows.len(), ts.rows.len());
        let columns: Vec<&str> = CSV_HEADER.split(',').collect();
        for (json_row, row) in rows.iter().zip(&ts.rows) {
            let Value::Obj(members) = json_row else {
                panic!("row is not an object: {json_row:?}");
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, columns);
            assert_eq!(json_row.get("cycle"), Some(&Value::Int(row.cycle as i64)));
            assert_eq!(json_row.get("ipc"), Some(&Value::Float(row.ipc)));
            assert_eq!(json_row.get("runahead"), Some(&Value::Int(0)));
        }
    }
}
