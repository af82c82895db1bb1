//! Golden corpus: the statistics of 131 cells are checked in as text
//! (`tests/golden/stats.kv`), and every run of those cells must reproduce
//! them bit for bit.
//!
//! The corpus is the scheduler oracle. It pins every counter of
//! [`SimStats`] (including `iq_wakeups`, the PRDQ/eager-drain counters and
//! the fast-forward split) and the energy total, so any change to what the
//! simulator models shows up as a field-level diff, also when the change
//! sits in code every clock path shares (rename, LSQ, memory, runahead).
//!
//! The cells are the mixed (synthetic + asm) matrix under every technique at
//! 6 000 micro-ops, eight long runs at 40 000 across contrasting behaviours,
//! `asm-chase-large` under every runahead technique at 20 000, `milc-like`
//! under every technique at 20 000 after a 200 000 micro-op warm-up (warm
//! replay into the caches), and one sampled `milc-like` PRE cell (3 slices
//! of 20 000 over 200 000, forked from windowed snapshots), `asm-box-blur`
//! under PRE and PRE+EMQ with the free-register entry gate at 40 integer
//! registers, and one `asm-chase-large` PRE+EMQ point forked after a
//! 200 000 micro-op warm-up with a 256-entry ROB and a 768-entry EMQ.
//!
//! Two runs are checked against it:
//! - the default, fast-forwarded runs: kv text and energy bits must match
//!   exactly, `ff_cycles` included;
//! - tick-every-cycle runs (`CoreConfig::fast_forward = false`): statistics
//!   read back with [`SimStats::from_kv`] must compare equal (the
//!   fast-forward split is deliberately outside `==`) and nothing may be
//!   fast-forwarded.
//!
//! Together the two prove that fast-forward on and off simulate the same
//! machine on every cell.
//!
//! On a mismatch the first test writes the whole actual corpus to
//! `target/tmp/stats.actual.kv` and names the differing cells and fields.
//! A change that alters the model on purpose re-blesses the corpus by
//! copying that file over `tests/golden/stats.kv`, in the same diff.

use precise_runahead::model::config::SimConfig;
use precise_runahead::model::stats::SimStats;
use precise_runahead::runahead::Technique;
use precise_runahead::sim::experiments::Suite;
use precise_runahead::sim::matrix::EvaluationMatrix;
use precise_runahead::sim::runner::{RunResult, RunSpec};
use precise_runahead::sim::sample::SampleSpec;
use precise_runahead::workloads::{Workload, WorkloadParams};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

const CORPUS: &str = include_str!("golden/stats.kv");

/// At most this many differing fields are listed in a failure message.
const MAX_DIFF_LINES: usize = 40;

fn asm_workload(name: &str) -> Workload {
    *Workload::ASM_SUITE
        .iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("{name} kernel present"))
}

/// A cell's corpus label: `<suite-or-budget>/<workload>/<technique>`.
fn label(group: &str, spec: &RunSpec) -> String {
    format!(
        "{group}/{}/{}",
        spec.workload.name(),
        spec.technique.label()
    )
}

/// Every corpus cell, in corpus order: its label and its run specification.
fn cells(config: &SimConfig) -> Vec<(String, RunSpec)> {
    let matrix_uops = 6_000;
    let mut cells: Vec<(String, RunSpec)> = EvaluationMatrix::specs(
        &Suite::Mixed.workloads(),
        &Technique::ALL,
        config,
        &WorkloadParams::default(),
        matrix_uops,
    )
    .into_iter()
    .map(|spec| (label("mixed", &spec), spec))
    .collect();

    // Long runs across contrasting behaviours: an LLC-missing dependent
    // chase, branchy integer code, flush-style runahead, the
    // fast-forward-heavy baseline on a permanently LLC-missing kernel, and
    // sub-word dependent chains (byte-granular LSQ + FuncMem path).
    let long = [
        (Workload::McfLike, Technique::Pre),
        (Workload::LbmLike, Technique::Runahead),
        (Workload::GccLike, Technique::RunaheadBuffer),
        (Workload::LibquantumLike, Technique::PreEmq),
        (Workload::ComputeBound, Technique::OutOfOrder),
        (asm_workload("asm-chase-large"), Technique::OutOfOrder),
        (asm_workload("asm-box-blur"), Technique::Pre),
        (asm_workload("asm-struct-chase"), Technique::Pre),
    ];
    // Runahead-mode fast-forward on a long-horizon pointer chase.
    let chase = [
        Technique::Runahead,
        Technique::RunaheadBuffer,
        Technique::Pre,
        Technique::PreEmq,
    ]
    .map(|technique| (asm_workload("asm-chase-large"), technique));
    for (budget, list) in [(40_000, &long[..]), (20_000, &chase[..])] {
        for &(workload, technique) in list {
            let spec = RunSpec::new(workload, technique)
                .with_budget(budget)
                .with_config(config.clone());
            cells.push((label(&budget.to_string(), &spec), spec));
        }
    }

    // Warmed starts. The warm-up overflows the L1s, so what its replay
    // leaves in L2 and L3 (fills on the way back, dirty L1 write-backs)
    // reaches the detailed run of every technique. The sampled cell forks
    // its slices from windowed snapshots taken mid-run.
    for technique in Technique::ALL {
        let spec = RunSpec::new(Workload::MilcLike, technique)
            .with_budget(20_000)
            .with_warmup(200_000)
            .with_config(config.clone());
        cells.push((label("warm200000", &spec), spec));
    }
    let spec = RunSpec::new(Workload::MilcLike, Technique::Pre)
        .with_budget(200_000)
        .with_config(config.clone())
        .sampled(SampleSpec::new(3, 20_000));
    cells.push((label("sampled", &spec), spec));

    // The free-register entry gate: at 40 integer registers it admits some
    // `asm-box-blur` stalls and refuses others, so its count of what the
    // eager drain could release decides entries.
    let mut gated = config.clone();
    gated.runahead.min_free_int_regs = 40;
    for technique in [Technique::Pre, Technique::PreEmq] {
        let spec = RunSpec::new(asm_workload("asm-box-blur"), technique)
            .with_budget(20_000)
            .with_config(gated.clone());
        cells.push((label("gate-int40", &spec), spec));
    }

    // One warm-forked long-window point of the PRE+EMQ sweep grid: a
    // 256-entry ROB (every other cell has the Table 1 ROB of 192) behind
    // which PRE enters often and reclaims a few registers per interval.
    let mut long_window = config.clone();
    long_window.core.rob_entries = 256;
    long_window.runahead.emq_entries = 768;
    let spec = RunSpec::new(asm_workload("asm-chase-large"), Technique::PreEmq)
        .with_budget(4_000)
        .with_warmup(200_000)
        .with_config(long_window);
    cells.push((label("fork-rob256-emq768", &spec), spec));
    cells
}

/// Runs every corpus cell under `config`, in corpus order.
fn run_cells(config: &SimConfig) -> Vec<(String, RunResult)> {
    let (labels, specs): (Vec<String>, Vec<RunSpec>) = cells(config).into_iter().unzip();
    let matrix = EvaluationMatrix::run_specs_isolated(&specs, |_| {})
        .into_result()
        .expect("corpus cells run");
    labels.into_iter().zip(matrix.results().to_vec()).collect()
}

/// One corpus entry: the `cell` header line, the energy line and the kv text.
fn entry_text(label: &str, result: &RunResult) -> String {
    format!(
        "cell {label}\nenergy.total_mj {:016x}\n{}",
        result.energy.total_mj().to_bits(),
        result.stats.to_kv()
    )
}

/// Splits corpus text into `label → body` (the energy line plus the kv
/// text).
fn parse_corpus(text: &str) -> BTreeMap<String, String> {
    let mut entries: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if let Some(label) = line.strip_prefix("cell ") {
            entries.push((label.to_string(), String::new()));
        } else {
            let (_, body) = entries
                .last_mut()
                .expect("the corpus starts with a `cell` header");
            body.push_str(line);
            body.push('\n');
        }
    }
    let count = entries.len();
    let map: BTreeMap<String, String> = entries.into_iter().collect();
    assert_eq!(map.len(), count, "a cell appears twice");
    map
}

/// The `field → value` lines of one entry body.
fn fields(body: &str) -> BTreeMap<&str, &str> {
    body.lines()
        .filter_map(|line| line.split_once(' '))
        .collect()
}

/// A field-level diff of `actual` against `expected` corpus text: missing and
/// extra cells, and `cell field: expected X, actual Y` per differing field.
fn corpus_diff(expected: &str, actual: &str) -> Vec<String> {
    let (want, got) = (parse_corpus(expected), parse_corpus(actual));
    let mut diff = Vec::new();
    for label in want.keys().chain(got.keys()).collect::<BTreeSet<_>>() {
        let (Some(want), Some(got)) = (want.get(label), got.get(label)) else {
            diff.push(if want.contains_key(label) {
                format!("missing cell {label} (in the corpus, not run)")
            } else {
                format!("extra cell {label} (run, not in the corpus)")
            });
            continue;
        };
        let (want, got) = (fields(want), fields(got));
        for name in want.keys().chain(got.keys()).collect::<BTreeSet<_>>() {
            let (w, g) = (want.get(name), got.get(name));
            if w != g {
                diff.push(format!(
                    "{label} {name}: expected {}, actual {}",
                    w.unwrap_or(&"<absent>"),
                    g.unwrap_or(&"<absent>")
                ));
            }
        }
    }
    if diff.is_empty() {
        diff.push("same cells and values, in a different order or layout".to_string());
    }
    diff
}

/// The default, fast-forwarded runs reproduce the corpus text exactly: every
/// counter, the fast-forward split and the energy bits of every cell.
#[test]
fn fast_forwarded_runs_reproduce_the_corpus() {
    let runs = run_cells(&SimConfig::haswell_like());
    let mut actual_text = String::new();
    for (label, result) in &runs {
        actual_text.push_str(&entry_text(label, result));
    }
    if actual_text != CORPUS {
        let diff = corpus_diff(CORPUS, &actual_text);
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stats.actual.kv");
        std::fs::write(&path, &actual_text).expect("write the actual corpus");
        let mut message = format!(
            "{} difference(s) against tests/golden/stats.kv; the actual corpus is in {}\n",
            diff.len(),
            path.display()
        );
        for line in diff.iter().take(MAX_DIFF_LINES) {
            let _ = writeln!(message, "  {line}");
        }
        if diff.len() > MAX_DIFF_LINES {
            let _ = writeln!(message, "  ... {} more", diff.len() - MAX_DIFF_LINES);
        }
        panic!("{message}");
    }

    // Runahead-mode fast-forward on the long-horizon chase. PRE intervals go
    // quiescent once the decode filter blocks on an SST hit (and, with the
    // EMQ, once the queue fills), so their runahead fast-forward counters
    // must be non-zero. Traditional runahead on a pointer chase executes an
    // INV load every runahead cycle and the buffer variant replays its chain
    // every cycle, so neither is ever quiescent: all their runahead cycles
    // are simulated.
    for (label, result) in runs.iter().filter(|(l, _)| l.starts_with("20000/")) {
        let s = &result.stats;
        assert_eq!(
            s.normal_cycles_simulated()
                + s.ff_cycles.normal
                + s.runahead_cycles_simulated()
                + s.ff_cycles.runahead,
            s.cycles,
            "{label}: per-mode cycle split must cover the run"
        );
        if matches!(result.technique, Technique::Pre | Technique::PreEmq) {
            assert!(
                s.ff_cycles.runahead > 0,
                "{label}: PRE intervals must reach a quiescent state"
            );
        } else {
            assert_eq!(
                s.ff_cycles.runahead, 0,
                "{label}: every runahead cycle does work, none may be skipped"
            );
        }
    }
}

/// Ticking every cycle simulates the same machine: each cell's statistics
/// equal the corpus entry read back with `SimStats::from_kv`, its energy bits
/// match, and no cycle was fast-forwarded.
#[test]
fn tick_every_cycle_runs_match_the_corpus() {
    let mut config = SimConfig::haswell_like();
    config.core.fast_forward = false;
    let runs = run_cells(&config);
    let expected = parse_corpus(CORPUS);
    assert_eq!(expected.len(), runs.len(), "corpus and run cell counts");
    for (label, result) in &runs {
        let body = expected
            .get(label)
            .unwrap_or_else(|| panic!("{label}: not in the corpus"));
        let (energy_line, kv) = body.split_once('\n').expect("energy line");
        let energy = energy_line
            .strip_prefix("energy.total_mj ")
            .expect("energy line first");
        assert_eq!(
            format!("{:016x}", result.energy.total_mj().to_bits()),
            energy,
            "{label}: energy must be bit-identical"
        );
        let golden = SimStats::from_kv(kv).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            result.stats, golden,
            "{label}: ticking every cycle diverged from the corpus"
        );
        assert!(!result.deadlocked, "{label}: deadlocked");
        assert_eq!(result.stats.ff_cycles.normal, 0, "{label}: fast-forwarded");
        assert_eq!(
            result.stats.ff_cycles.runahead, 0,
            "{label}: fast-forwarded"
        );
    }
}
