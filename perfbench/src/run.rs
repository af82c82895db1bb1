//! Machinery shared by the three workloads: the timed set-up, outcome
//! bookkeeping and failure accounting, the decomposed (traced) cell path,
//! and the per-layer metric set.

use crate::check::{verify, Expect};
use crate::counts::Counts;
use crate::measure::{busy_share, median, percentile, ratio, straggler_ms, Metric, Span};
use crate::probe::{span, timed, with_thread_sampler, HostTracer, Layers};
use pre_core::OooCore;
use pre_energy::EnergyModel;
use pre_model::snapshot::SimSnapshot;
use pre_model::stats::{SimStats, TerminationKind};
use pre_runahead::Technique;
use pre_sim::{stores, MatrixRun, RunResult, RunSpec, SweepRun};
use pre_workloads::{Workload, WorkloadParams};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// What one benchmark invocation found: attempts, failed cells, readable
/// lines for the log, and the metrics of the result line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    failed: BTreeSet<String>,
    pub problems: Vec<String>,
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Marks the cell attempt `key` as failed (once, however many checks it
    /// fails) and records why.
    pub fn fail(&mut self, key: String, why: String) {
        self.failed.insert(key);
        self.problems.push(why);
    }

    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }

    /// Share of attempted cells that passed every check.
    pub fn completed_share(&self) -> f64 {
        1.0 - ratio(self.failed() as f64, self.attempted as f64)
    }

    /// Counts one pass's cells as attempted and fails each one that errored,
    /// panicked, hit the watchdog, did not complete, or whose statistics
    /// differ from the same cell in the first pass (`reference`).
    pub fn tally(
        &mut self,
        pass: &str,
        labels: &[String],
        outcomes: &[Outcome],
        reference: &mut Option<Vec<Option<SimStats>>>,
    ) {
        let first = reference.is_none();
        let mut stats = Vec::with_capacity(outcomes.len());
        for (i, (label, outcome)) in labels.iter().zip(outcomes).enumerate() {
            self.attempted += 1;
            let key = format!("{pass}:{label}");
            match outcome {
                Err(e) => {
                    self.fail(key, format!("{label}: {e}"));
                    stats.push(None);
                }
                Ok(r) => {
                    if let Some(why) = verdict(r) {
                        self.fail(key.clone(), format!("{label}: {why}"));
                    }
                    if let Some(Some(Some(want))) = reference.as_ref().map(|v| v.get(i)) {
                        if *want != r.stats {
                            self.fail(
                                key,
                                format!("{label}: SimStats of {pass} differ from the first pass"),
                            );
                        }
                    }
                    stats.push(Some(r.stats.clone()));
                }
            }
        }
        if first {
            *reference = Some(stats);
        }
    }
}

/// One cell's outcome: its result, or why it has none.
pub type Outcome = Result<RunResult, String>;

/// Why a finished run does not count as a success, if it does not.
pub fn verdict(r: &RunResult) -> Option<String> {
    if r.deadlocked {
        return Some("hit the deadlock watchdog".to_string());
    }
    match r.terminated() {
        TerminationKind::Completed => None,
        other => Some(format!("terminated with {}", other.as_str())),
    }
}

/// A matrix run as one outcome per spec, in spec order.
pub fn matrix_outcomes(run: MatrixRun) -> Vec<Outcome> {
    let mut slots: Vec<Option<Outcome>> = (0..run.cells).map(|_| None).collect();
    for f in &run.failures {
        slots[f.index] = Some(Err(f.to_string()));
    }
    fill_in_order(slots, run.matrix.results().iter().cloned())
}

/// A sweep run as one outcome per grid point, in grid order.
pub fn sweep_outcomes(run: SweepRun) -> Vec<Outcome> {
    let mut slots: Vec<Option<Outcome>> = (0..run.total).map(|_| None).collect();
    for f in &run.failures {
        slots[f.index] = Some(Err(format!("{}: {}", f.label(), f.error)));
    }
    fill_in_order(slots, run.points.into_iter().map(|p| p.result))
}

fn fill_in_order(
    slots: Vec<Option<Outcome>>,
    mut successes: impl Iterator<Item = RunResult>,
) -> Vec<Outcome> {
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| successes.next().ok_or_else(|| "missing result".to_string()))
        })
        .collect()
}

pub fn ok_results(outcomes: &[Outcome]) -> impl Iterator<Item = &RunResult> {
    outcomes.iter().filter_map(|o| o.as_ref().ok())
}

/// `workload/technique` label of a spec.
pub fn label(spec: &RunSpec) -> String {
    format!("{}/{}", spec.workload.name(), spec.technique.label())
}

/// The timed set-up: builds and content-hashes every program the workload
/// uses, filling the process-wide program store the timed phase reads.
/// Returns the seconds it took.
pub fn setup(workloads: &[Workload], params: &WorkloadParams, layers: &mut Layers) -> f64 {
    let t = Instant::now();
    for &w in workloads {
        let program = timed(&mut layers.build, || stores::program_for(w, params));
        timed(&mut layers.content_hash, || program.content_hash());
    }
    t.elapsed().as_secs_f64()
}

/// `rounds` cold set-ups (stores emptied before each), as seconds.
pub fn setup_rounds(workloads: &[Workload], params: &WorkloadParams, rounds: usize) -> Vec<f64> {
    (0..rounds)
        .map(|_| {
            stores::clear_stores();
            setup(workloads, params, &mut Layers::default())
        })
        .collect()
}

/// Gains the paper reports over the out-of-order baseline, in percent.
pub const PAPER_GAINS: [(Technique, f64); 4] = [
    (Technique::Runahead, 14.5),
    (Technique::RunaheadBuffer, 14.4),
    (Technique::Pre, 35.5),
    (Technique::PreEmq, 28.6),
];

/// One cell of the decomposed path, with what the benchmark observed.
#[derive(Debug)]
pub struct Traced {
    pub result: RunResult,
    pub layers: Layers,
    /// Counts of the cores the benchmark ran (none for a cache hit).
    pub detailed: Counts,
    /// Final architectural state of each core, to check on the interpreter.
    pub checks: Vec<Expect>,
}

/// `run_one` broken into its public calls, each timed: result-cache
/// lookup, `program_for`, `OooCore::new` for a cold start or snapshot
/// lookup/capture/publish, `warmed_for` and `OooCore::from_snapshot` for a
/// forked one, `OooCore::run` with a [`HostTracer`] attached, and the
/// result-cache store. `disk` is the on-disk cache tier `run_one` would use.
pub fn decomposed_run(spec: &RunSpec, disk: Option<&Path>) -> Result<Traced, String> {
    let mut l = Layers::default();
    let program = timed(&mut l.build, || {
        stores::program_for(spec.workload, &spec.params)
    });
    let key = spec
        .use_result_cache
        .then(|| stores::result_key(spec, &program));
    if let Some((k, desc)) = &key {
        l.result_lookups += 1;
        if let Some(hit) = timed(&mut l.result_read, || stores::result_lookup(*k, desc, disk)) {
            l.result_hits += 1;
            return Ok(Traced {
                result: hit,
                layers: l,
                detailed: Counts::default(),
                checks: Vec::new(),
            });
        }
    }
    let (mut core, offset) = if spec.warmup_uops == 0 {
        let core = timed(&mut l.core_new, || {
            OooCore::new(&spec.config, &program, spec.technique)
        })
        .map_err(|e| e.to_string())?;
        (core, 0)
    } else {
        let w = spec.warmup_uops;
        let window = spec.warm_window.map_or(w, |v| v.min(w));
        let found = timed(&mut l.snapshot, || {
            stores::snapshot_lookup(&program, w, window, disk)
        });
        let snap = match found {
            Some(snap) => snap,
            None => {
                let captured = timed(&mut l.snapshot, || {
                    SimSnapshot::capture_windowed(&program, w, window)
                });
                timed(&mut l.snapshot_write, || {
                    stores::snapshot_publish(&program, w, window, captured, disk)
                })
            }
        };
        let warmed = timed(&mut l.warm, || {
            stores::warmed_for(&spec.config, &program, w, window, &snap)
        });
        let core = timed(&mut l.core_fork, || {
            OooCore::from_snapshot(&spec.config, &program, spec.technique, &snap, &warmed)
        })
        .map_err(|e| e.to_string())?;
        (core, snap.executed)
    };
    core.set_tracer(Box::new(HostTracer::default()));
    timed(&mut l.core_run, || {
        core.run(spec.max_uops, spec.max_cycles);
    });
    let tracer = core
        .take_tracer()
        .and_then(|t| t.into_any().downcast::<HostTracer>().ok())
        .ok_or("the core lost the host tracer")?;
    l.add_tracer(&tracer);
    let stats = core.stats().clone();
    let result = RunResult {
        workload: spec.workload,
        technique: spec.technique,
        energy: EnergyModel::default().evaluate(&stats, &spec.config),
        deadlocked: core.deadlocked(),
        cache_hit: false,
        watchdog: core.watchdog_diag().map(Box::new),
        sample: None,
        stats,
    };
    if let Some((k, desc)) = &key {
        timed(&mut l.result_write, || {
            stores::result_store(*k, desc, &result, disk)
        });
    }
    let check = Expect::from_core(
        format!("{}@{offset}", label(spec)),
        offset,
        &core.arch_snapshot(),
    );
    Ok(Traced {
        detailed: Counts::of([&result.stats]),
        checks: vec![check],
        result,
        layers: l,
    })
}

/// Runs `f` over `items` on the `pre_par` pool with a span per item and the
/// live-thread sampler on; returns the outcomes, the spans and the wall
/// time of the pass.
pub fn traced_pass<T: Sync>(
    items: &[T],
    f: impl Fn(&T) -> Result<Traced, String> + Sync,
) -> (Vec<Result<Traced, String>>, Vec<Span>, Duration, u64) {
    let origin = Instant::now();
    let (outcomes, threads) =
        with_thread_sampler(|| pre_par::try_par_map(items, |item| span(origin, || f(item))));
    let wall = origin.elapsed();
    let mut spans = Vec::with_capacity(outcomes.len());
    let results = outcomes
        .into_iter()
        .map(|o| match o {
            Ok((r, s)) => {
                spans.push(s);
                r
            }
            Err(job) => Err(format!("panicked: {}", job.payload)),
        })
        .collect();
    (results, spans, wall, threads)
}

/// Splits decomposed outcomes into plain outcomes, folding layers, counts
/// and architectural checks into `rep` and `checks`.
pub fn fold_traced(
    rep: &mut TracedRep,
    checks: &mut Vec<(Workload, Expect)>,
    traced: Vec<Result<Traced, String>>,
) -> Vec<Outcome> {
    traced
        .into_iter()
        .map(|t| {
            t.map(|t| {
                rep.layers.add(&t.layers);
                rep.detailed.add(&t.detailed);
                checks.extend(t.checks.into_iter().map(|c| (t.result.workload, c)));
                t.result
            })
        })
        .collect()
}

/// Checks every expectation on the interpreter, one pass per program (in
/// parallel), failing the cells that diverge.
pub fn check_on_interpreter(
    report: &mut Report,
    params: &WorkloadParams,
    checks: Vec<(Workload, Expect)>,
) {
    let mut groups: Vec<(Workload, Vec<Expect>)> = Vec::new();
    for (w, e) in checks {
        match groups.iter_mut().find(|(g, _)| *g == w) {
            Some((_, v)) => v.push(e),
            None => groups.push((w, vec![e])),
        }
    }
    report.lines.push(format!(
        "architectural checks: {} states on {} programs",
        groups.iter().map(|(_, v)| v.len()).sum::<usize>(),
        groups.len()
    ));
    let problems = pre_par::par_map(&groups, |(w, expects)| {
        verify(&stores::program_for(*w, params), expects.clone())
    });
    for p in problems.into_iter().flatten() {
        report.fail(format!("interpreter:{p}"), p);
    }
}

/// One traced repetition: the untraced library pass it is compared with,
/// and everything the decomposed pass observed.
#[derive(Debug, Default)]
pub struct TracedRep {
    pub untraced_wall: f64,
    pub traced_wall: Duration,
    pub cell_spans: Vec<Span>,
    /// Wall time of the pool pass the cell spans belong to.
    pub span_wall: Duration,
    pub layers: Layers,
    pub detailed: Counts,
    pub threads_max: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The per-layer metric set, identical on every workload; a layer the
/// workload does not exercise reads 0. Times are per repetition.
pub fn layer_metrics(reps: &[TracedRep], workers: usize, quarantined: u64) -> Vec<Metric> {
    let n = reps.len().max(1) as f64;
    let mut l = Layers::default();
    for r in reps {
        l.add(&r.layers);
    }
    let per_rep = |d: Duration| ms(d) / n;
    let detailed = reps.first().map(|r| r.detailed).unwrap_or_default();
    let cell_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.cell_spans.iter().map(|s| ms(s.len())))
        .collect();
    let cell_pct = |p: f64| {
        if cell_ms.is_empty() {
            0.0
        } else {
            percentile(&cell_ms, p)
        }
    };
    let mean = |f: &dyn Fn(&TracedRep) -> f64| reps.iter().map(f).sum::<f64>() / n;
    let traced: Vec<f64> = reps.iter().map(|r| r.traced_wall.as_secs_f64()).collect();
    let untraced: Vec<f64> = reps.iter().map(|r| r.untraced_wall).collect();
    let overhead = if reps.is_empty() {
        0.0
    } else {
        100.0 * (median(&traced) / median(&untraced) - 1.0)
    };
    let run_ns = l.core_run.as_secs_f64() * 1e9 / n;
    vec![
        Metric::new("pre-workloads.build_ms", per_rep(l.build), "ms"),
        Metric::new("pre-model.content_hash_ms", per_rep(l.content_hash), "ms"),
        Metric::new("pre-core.new_ms", per_rep(l.core_new), "ms"),
        Metric::new("pre-core.fork_ms", per_rep(l.core_fork), "ms"),
        Metric::new("pre-core.run_ms", per_rep(l.core_run), "ms"),
        Metric::new(
            "pre-core.run_ns_per_cycle",
            ratio(run_ns, detailed.cycles as f64),
            "ns",
        ),
        Metric::new(
            "pre-core.run_ns_per_fetched_uop",
            ratio(run_ns, detailed.fetched_uops as f64),
            "ns",
        ),
        Metric::new("pre-core.cell_ms_p50", cell_pct(50.0), "ms"),
        Metric::new("pre-core.cell_ms_p90", cell_pct(90.0), "ms"),
        Metric::new("pre-core.cell_ms_max", cell_pct(100.0), "ms"),
        Metric::new(
            "pre-core.ff_cycle_share",
            detailed.ff_cycle_share(),
            "ratio",
        ),
        Metric::new(
            "pre-core.committed_per_fetched",
            detailed.committed_per_fetched(),
            "ratio",
        ),
        Metric::new("pre-core.ff_jumps", l.ff_jumps as f64 / n, "count"),
        Metric::new("pre-core.cycles", detailed.cycles as f64, "count"),
        Metric::new(
            "pre-core.fetched_uops",
            detailed.fetched_uops as f64,
            "count",
        ),
        Metric::new(
            "pre-core.committed_uops",
            detailed.committed_uops as f64,
            "count",
        ),
        Metric::new(
            "pre-runahead.host_share",
            ratio(l.runahead.as_secs_f64(), l.core_run.as_secs_f64()),
            "ratio",
        ),
        Metric::new(
            "pre-runahead.cycle_share",
            detailed.runahead_cycle_share(),
            "ratio",
        ),
        Metric::new(
            "pre-runahead.prefetch_useful_ratio",
            detailed.prefetch_useful_ratio(),
            "ratio",
        ),
        Metric::new(
            "pre-runahead.prefetches_issued",
            detailed.prefetches_issued as f64,
            "count",
        ),
        Metric::new(
            "pre-frontend.mispredicts",
            detailed.mispredicts as f64,
            "count",
        ),
        Metric::new("pre-mem.warm_ms", per_rep(l.warm), "ms"),
        Metric::new("pre-mem.l1d_misses", detailed.l1d_misses as f64, "count"),
        Metric::new("pre-mem.l2_misses", detailed.l2_misses as f64, "count"),
        Metric::new("pre-mem.llc_misses", detailed.llc_misses as f64, "count"),
        Metric::new("pre-mem.dram_reads", detailed.dram_reads as f64, "count"),
        Metric::new("pre-model.snapshot_ms", per_rep(l.snapshot), "ms"),
        Metric::new("pre-model.profile_ms", per_rep(l.profile), "ms"),
        Metric::new(
            "pre-model.interp_ns_per_uop",
            ratio(l.profile.as_secs_f64() * 1e9, l.profiled_uops as f64),
            "ns",
        ),
        Metric::new("pre-model.cluster_ms", per_rep(l.cluster), "ms"),
        Metric::new(
            "pre-sim.stores.snapshot_write_ms",
            per_rep(l.snapshot_write),
            "ms",
        ),
        Metric::new(
            "pre-sim.stores.result_write_ms",
            per_rep(l.result_write),
            "ms",
        ),
        Metric::new(
            "pre-sim.stores.result_read_ms",
            per_rep(l.result_read),
            "ms",
        ),
        Metric::new(
            "pre-sim.stores.hit_rate",
            ratio(l.result_hits as f64, l.result_lookups as f64),
            "ratio",
        ),
        Metric::new("pre-sim.stores.quarantined", quarantined as f64, "count"),
        Metric::new("pre-sim.sample.plan_ms", per_rep(l.plan), "ms"),
        Metric::new("pre-sim.sample.slice_ms", per_rep(l.slice), "ms"),
        Metric::new(
            "pre-par.busy_share",
            mean(&|r| busy_share(&r.cell_spans, r.span_wall, workers)),
            "ratio",
        ),
        Metric::new(
            "pre-par.straggler_ms",
            mean(&|r| straggler_ms(&r.cell_spans)),
            "ms",
        ),
        Metric::new(
            "pre-par.live_threads_max",
            reps.iter().map(|r| r.threads_max).max().unwrap_or(0) as f64,
            "count",
        ),
        Metric::new("pre-trace.overhead_pct", overhead, "%"),
    ]
}
