//! Golden tests for the tracing subsystem: tracers observe, never steer.
//!
//! The load-bearing guarantee of `pre-trace` is that attaching a tracer
//! cannot change simulation results: `SimStats` must be bit-identical with
//! tracing on and off for every cell of the mixed matrix, under all five
//! techniques, on both clock paths (quiescent-cycle fast-forward on, and
//! off so the core ticks every cycle). On top of that, traced runs must be
//! deterministic (byte-identical files across repeats) and the emitted
//! streams must be well-formed (pipeview validates, Chrome JSON parses,
//! the commit log round-trips), and the bulk-accumulated stall and
//! fast-forward events add up to the counters they mirror.

use pre_model::config::SimConfig;
use pre_runahead::Technique;
use pre_sim::experiments::Suite;
use pre_sim::runner::{run_one, run_one_traced, RunSpec};
use pre_trace::commitlog::CommitLogReader;
use pre_trace::{chrome, pipeview, FfMode, TraceSession, TraceSpec, Tracer};
use pre_workloads::Workload;
use std::any::Any;
use std::fs;
use std::path::PathBuf;

/// A scratch directory unique to this process and `tag`, wiped on entry.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pre-trace-golden-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn full_spec(dir: &std::path::Path) -> TraceSpec {
    TraceSpec {
        dir: dir.to_path_buf(),
        ..TraceSpec::default()
    }
}

#[test]
fn stats_bit_identical_with_tracing_on_and_off() {
    let dir = tmp_dir("golden");
    let trace_spec = full_spec(&dir);
    for fast_forward in [true, false] {
        let mut config = SimConfig::haswell_like();
        config.core.fast_forward = fast_forward;
        for (workload, technique) in Suite::Mixed.cells() {
            let spec = RunSpec::new(workload, technique)
                .with_budget(2_000)
                .with_config(config.clone());
            let plain = run_one(&spec).expect("untraced run");
            let cell = format!(
                "{}-{}",
                if fast_forward { "ff" } else { "tick" },
                spec.cell_name()
            );
            let session = TraceSession::create(&trace_spec, &cell).expect("trace files");
            let (traced, tracer) = run_one_traced(&spec, Box::new(session)).expect("traced run");
            let session = tracer
                .into_any()
                .downcast::<TraceSession>()
                .expect("tracer is the session attached above");
            assert!(
                session.io_error().is_none(),
                "trace writes failed for {cell}: {:?}",
                session.io_error()
            );
            assert_eq!(
                plain.stats, traced.stats,
                "tracing changed SimStats for {cell}"
            );
            assert_eq!(plain.deadlocked, traced.deadlocked);
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Sums the tracer events that mirror `SimStats` counters and keeps every
/// fast-forward jump as `(from, to, mode)`.
#[derive(Debug, Default)]
struct CountingTracer {
    window_stall_cycles: u64,
    emq_full_cycles: u64,
    jumps: Vec<(u64, u64, FfMode)>,
}

impl Tracer for CountingTracer {
    fn fast_forward(&mut self, from: u64, to: u64, mode: FfMode) {
        self.jumps.push((from, to, mode));
    }

    fn emq_full_cycles(&mut self, _cycle: u64, count: u64) {
        self.emq_full_cycles += count;
    }

    fn window_stall_cycles(&mut self, _cycle: u64, count: u64) {
        self.window_stall_cycles += count;
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[test]
fn tracer_events_add_up_to_the_counters_they_mirror() {
    let mut runahead_jumps = 0;
    for fast_forward in [true, false] {
        let mut config = SimConfig::haswell_like();
        config.core.fast_forward = fast_forward;
        for (workload, technique) in Suite::Mixed.cells() {
            let spec = RunSpec::new(workload, technique)
                .with_budget(6_000)
                .with_config(config.clone());
            let cell = format!("{} (fast_forward={fast_forward})", spec.cell_name());
            let (result, tracer) =
                run_one_traced(&spec, Box::<CountingTracer>::default()).expect("traced run");
            let counts = tracer
                .into_any()
                .downcast::<CountingTracer>()
                .expect("tracer is the counter attached above");
            let stats = &result.stats;
            assert_eq!(
                counts.window_stall_cycles, stats.full_window_stall_cycles,
                "{cell}: window-stall events"
            );
            assert_eq!(
                counts.emq_full_cycles, stats.emq_full_stall_cycles,
                "{cell}: EMQ-full events"
            );
            let skipped = |mode: FfMode| -> u64 {
                counts
                    .jumps
                    .iter()
                    .filter(|jump| jump.2 == mode)
                    .map(|&(from, to, _)| to - from)
                    .sum()
            };
            assert_eq!(skipped(FfMode::Normal), stats.ff_cycles.normal, "{cell}");
            assert_eq!(
                skipped(FfMode::Runahead),
                stats.ff_cycles.runahead,
                "{cell}"
            );
            // Jump `(from, to)` skips cycles `from+1..=to`: each skips at
            // least one cycle and starts no earlier than the last one ended.
            assert!(
                counts.jumps.iter().all(|&(from, to, _)| from < to),
                "{cell}"
            );
            for pair in counts.jumps.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "{cell}: overlapping jumps {pair:?}");
            }
            runahead_jumps += counts
                .jumps
                .iter()
                .filter(|jump| jump.2 == FfMode::Runahead)
                .count();
        }
    }
    assert!(
        runahead_jumps > 0,
        "the matrix never fast-forwarded a runahead interval"
    );
}

#[test]
fn traced_runs_are_byte_identical_across_repeats() {
    let base = tmp_dir("determinism");
    let mut snapshots: Vec<Vec<(String, Vec<u8>)>> = Vec::new();
    for repeat in 0..2 {
        let dir = base.join(format!("run{repeat}"));
        let spec = RunSpec::new(Workload::LbmLike, Technique::PreEmq)
            .with_budget(5_000)
            .with_trace(full_spec(&dir));
        run_one(&spec).expect("traced run");
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
            .expect("trace dir exists")
            .map(|entry| {
                let entry = entry.expect("dir entry");
                let name = entry.file_name().to_string_lossy().into_owned();
                let bytes = fs::read(entry.path()).expect("trace file readable");
                (name, bytes)
            })
            .collect();
        files.sort_by(|a, b| a.0.cmp(&b.0));
        snapshots.push(files);
    }
    let (first, second) = (&snapshots[0], &snapshots[1]);
    assert_eq!(first.len(), 4, "all four streams written");
    assert_eq!(first.len(), second.len());
    for ((name_a, bytes_a), (name_b, bytes_b)) in first.iter().zip(second) {
        assert_eq!(name_a, name_b);
        assert!(
            bytes_a == bytes_b,
            "trace file {name_a} differs between identical runs"
        );
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn emitted_streams_are_well_formed_for_every_mode() {
    let dir = tmp_dir("streams");
    let trace_spec = full_spec(&dir);
    // asm-box-blur enters runahead readily under both RA and PRE+EMQ.
    let workload = Workload::ASM_SUITE[3];
    for technique in [
        Technique::OutOfOrder,
        Technique::Runahead,
        Technique::PreEmq,
    ] {
        let spec = RunSpec::new(workload, technique).with_budget(6_000);
        let session = TraceSession::create(&trace_spec, &spec.cell_name()).expect("trace files");
        let (result, tracer) = run_one_traced(&spec, Box::new(session)).expect("traced run");
        let session = tracer
            .into_any()
            .downcast::<TraceSession>()
            .expect("tracer is the session attached above");
        assert!(session.io_error().is_none());
        let path = |ext: &str| dir.join(format!("{}.{ext}", spec.cell_name()));

        // O3PipeView: structurally valid, and exactly the committed uops
        // carry a retire stamp.
        let text = fs::read_to_string(path("pipeview")).expect("pipeview file");
        let (records, retired) =
            pipeview::validate(&text).unwrap_or_else(|e| panic!("{technique}: {e}"));
        assert!(records >= retired);
        assert_eq!(
            retired as u64, result.stats.committed_uops,
            "{technique}: every committed uop retires exactly once in the pipeview stream"
        );

        // Chrome JSON: parses, and runahead techniques produced interval
        // spans matching the interval count in the statistics.
        let json = fs::read_to_string(path("trace.json")).expect("chrome file");
        let events = chrome::parse(&json).unwrap_or_else(|e| panic!("{technique}: {e}"));
        assert!(!events.is_empty());
        let interval_spans = events
            .iter()
            .filter(|e| e.ph == 'X' && e.cat == "interval")
            .count() as u64;
        assert_eq!(
            interval_spans, result.stats.runahead_exits,
            "{technique}: one Chrome span per completed runahead interval"
        );
        if technique != Technique::OutOfOrder {
            assert!(
                result.stats.runahead_entries > 0,
                "{technique}: no intervals"
            );
        }

        // Committed-stream binary log: round-trips and mirrors the commit
        // count.
        let bytes = fs::read(path("commit.bin")).expect("commit log");
        let reader = CommitLogReader::new(&bytes).expect("valid commit log");
        assert_eq!(reader.len() as u64, result.stats.committed_uops);
        for record in reader.records() {
            record.expect("decodable commit record");
        }

        // Time-series CSV: header plus at least one sampled window.
        let csv = fs::read_to_string(path("timeseries.csv")).expect("timeseries file");
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(pre_trace::timeseries::CSV_HEADER));
        assert!(lines.next().is_some(), "{technique}: no samples recorded");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ring_buffer_mode_bounds_the_pipeview_stream() {
    let dir = tmp_dir("ring");
    let trace_spec = TraceSpec {
        dir: dir.to_path_buf(),
        pipeview: true,
        chrome: false,
        timeseries: None,
        commit: false,
        ring: Some(64),
        ..TraceSpec::default()
    };
    let spec = RunSpec::new(Workload::LbmLike, Technique::Pre).with_budget(5_000);
    let session = TraceSession::create(&trace_spec, &spec.cell_name()).expect("trace files");
    let (_, tracer) = run_one_traced(&spec, Box::new(session)).expect("traced run");
    let session = tracer
        .into_any()
        .downcast::<TraceSession>()
        .expect("tracer is the session attached above");
    assert!(session.io_error().is_none());
    let text = fs::read_to_string(dir.join(format!("{}.pipeview", spec.cell_name())))
        .expect("pipeview file");
    let (records, _) = pipeview::validate(&text).expect("valid ring-mode stream");
    assert!(records <= 64, "ring mode must cap the record count");
    assert!(records > 0, "ring mode still records the tail");
    let _ = fs::remove_dir_all(&dir);
}
