//! The three workloads, one per workflow users run:
//!
//! * `matrix-mixed` — the `full_eval --suite mixed` matrix
//!   (`EvaluationMatrix::run_specs_isolated`), 22 workloads × 5 techniques,
//!   cold start, detailed simulation of every cell;
//! * `sweep-fork` — a warm-forked `Sweep` of `asm-chase-large` under
//!   PRE+EMQ with the result cache on disk: a cold pass writes every point,
//!   the in-memory stores are emptied, a second pass answers from disk;
//! * `sampled-long` — the same mixed matrix under `--sample` at a long
//!   horizon, where the functional interpreter does most of the work.
//!
//! Each runs closed-loop in one process: the `pre_par` pool (one worker per
//! core) hands a worker its next cell only when its current one finishes.
//! An untraced invocation repeats the workflow for `--seconds`, each pass
//! after a cold, separately timed set-up, then checks the outputs untimed.
//! A traced invocation alternates an untraced library pass with a pass
//! through the public calls it is made of (`run::decomposed_run`), timing
//! each call, and requires the two to agree bit for bit.

use crate::check::Expect;
use crate::counts::{digest, Counts};
use crate::measure::{gmean, median, ns_per, paper_gap_pp, peak_rss_mb, rel_err_pct, Metric};
use crate::probe::{timed, Layers};
use crate::run::{
    check_on_interpreter, decomposed_run, fold_traced, label, layer_metrics, matrix_outcomes,
    ok_results, setup, setup_rounds, sweep_outcomes, traced_pass, verdict, Outcome, Report, Traced,
    TracedRep, PAPER_GAINS,
};
use pre_asm::AsmKernel;
use pre_energy::EnergyModel;
use pre_model::profile::{cluster_intervals, profile_intervals, Clustering, IntervalProfile};
use pre_model::program::{Interpreter, Program};
use pre_model::snapshot::{SimSnapshot, WarmTrace};
use pre_model::stats::SimStats;
use pre_runahead::Technique;
use pre_sim::experiments::Suite;
use pre_sim::sweep::Sweep;
use pre_sim::SampleSpec;
use pre_sim::{run_one, stores, EvaluationMatrix, RepWeight, RunResult, RunSpec, SampleMeta};
use pre_workloads::{Workload, WorkloadParams};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Command-line arguments every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["matrix-mixed", "sweep-fork", "sampled-long"];

/// Cold set-ups timed before the first pass, on top of one per pass, so
/// `setup_s` is a median of several samples even when passes are long.
const SETUP_ROUNDS: usize = 5;
/// Passes an untraced invocation makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// `matrix-mixed`: committed uops per cell.
const MATRIX_UOPS: u64 = 60_000;
/// `sweep-fork`: shared functional warm-up and detailed budget per point.
const SWEEP_WARMUP: u64 = 200_000;
const SWEEP_UOPS: u64 = 4_000;
/// `sweep-fork` grid: core/runahead sizing plus three LLC sizes, so three
/// warmed states are built from the one snapshot.
const SWEEP_GRID: [&str; 4] = [
    "rob=128,160,192,224,256",
    "emq=96,192,384,768",
    "sst=16,64,128,256",
    "l3-kb=1024,2048,4096",
];
/// `sampled-long`: committed uops per cell, estimated by sampling.
const SAMPLED_UOPS: u64 = 2_000_000;

/// Cells whose sampled IPC is checked against a full detailed run: cheap to
/// run in full, and one pointer chase and one stencil.
const ACCURACY_WORKLOADS: [Workload; 2] = [
    Workload::Asm(AsmKernel::ChaseLarge),
    Workload::Asm(AsmKernel::BoxBlur),
];
const ACCURACY_TECHNIQUES: [Technique; 2] = [Technique::OutOfOrder, Technique::Pre];
/// Full-run budget of the `sampled-long` accuracy references.
const ACCURACY_UOPS: u64 = 240_000;

/// The clustering seed `pre_sim::sample` combines with the program hash;
/// the decomposed sampled path must cluster exactly as the library does.
const CLUSTER_SEED: u64 = 0x5a3c_9d11_7e24_c0de;

/// Runs workload `name`, or returns `None` for an unknown name.
pub fn run(name: &str, args: &Args) -> Option<Report> {
    let params = WorkloadParams {
        seed: args.seed,
        ..WorkloadParams::default()
    };
    match name {
        "matrix-mixed" => Some(matrix_mixed(args, params)),
        "sweep-fork" => Some(sweep_fork(args, params)),
        "sampled-long" => Some(sampled_long(args, params)),
        _ => None,
    }
}

/// The `full_eval` cells of the mixed suite, as `full_eval` builds them.
fn matrix_specs(params: WorkloadParams, budget: u64, sample: Option<SampleSpec>) -> Vec<RunSpec> {
    Suite::Mixed
        .cells()
        .map(|(w, t)| {
            let mut spec = RunSpec::new(w, t)
                .with_budget(budget)
                .with_params(params)
                .with_result_cache(true);
            spec.sample = sample;
            spec
        })
        .collect()
}

/// Samples of an untraced run.
struct Passes {
    /// Set-up seconds: the extra rounds, one per pass, and any a pass adds.
    setups: Vec<f64>,
    /// Pass wall seconds.
    walls: Vec<f64>,
    /// The process's peak resident set after the last pass, in MiB.
    peak_rss: f64,
}

/// Repeats `pass` — each after emptying the stores and a timed cold set-up
/// — until `--seconds` of passes have run, and at least [`MIN_PASSES`]
/// unless that would take more than twice `--seconds`.
fn repeat_passes(
    args: &Args,
    workloads: &[Workload],
    params: &WorkloadParams,
    mut pass: impl FnMut(usize, &mut Vec<f64>) -> f64,
) -> Passes {
    let mut setups = setup_rounds(workloads, params, SETUP_ROUNDS);
    let mut walls = Vec::new();
    loop {
        let measured: f64 = walls.iter().sum();
        if measured >= args.seconds && (walls.len() >= MIN_PASSES || measured >= 2.0 * args.seconds)
        {
            break;
        }
        stores::clear_stores();
        setups.push(setup(workloads, params, &mut Layers::default()));
        walls.push(pass(walls.len(), &mut setups));
    }
    Passes {
        setups,
        walls,
        peak_rss: peak_rss_mb(),
    }
}

/// Fills in the end-to-end metrics once every check has run.
fn end_to_end(report: &mut Report, passes: &Passes, delivered: &Counts, gap: f64, sample_err: f64) {
    let Passes {
        setups,
        walls,
        peak_rss,
    } = passes;
    let wall = median(walls);
    report.lines.push(format!(
        "wall_s: median of {} passes {walls:.4?}; setup_s: median of {} set-ups",
        walls.len(),
        setups.len()
    ));
    report.lines.extend(delivered.lines("delivered"));
    report.metrics = vec![
        Metric::new("setup_s", median(setups), "s"),
        Metric::new("wall_s", wall, "s"),
        Metric::new("peak_rss_mb", *peak_rss, "MiB"),
        Metric::new("completed_share", report.completed_share(), "ratio"),
        Metric::new("ns_per_cycle", ns_per(wall, delivered.cycles), "ns"),
        Metric::new(
            "ns_per_fetched_uop",
            ns_per(wall, delivered.fetched_uops),
            "ns",
        ),
        Metric::new("paper_gap_pp", gap, "pp"),
        Metric::new("sample_ipc_err_pct", sample_err, "%"),
    ];
}

/// Mean |measured − paper| gmean IPC gain over OoO on the 13 synthetic
/// memory-intensive rows of a matrix.
fn matrix_paper_gap(report: &mut Report, results: &[Outcome]) -> f64 {
    let ipc = |w: Workload, t: Technique| {
        ok_results(results)
            .find(|r| r.workload == w && r.technique == t)
            .map(RunResult::ipc)
    };
    let mut pairs = Vec::new();
    for (t, paper) in PAPER_GAINS {
        let speedups: Vec<f64> = Workload::MEMORY_INTENSIVE
            .iter()
            .filter_map(|&w| Some(ipc(w, t)? / ipc(w, Technique::OutOfOrder)?))
            .collect();
        let gain = gmean(&speedups);
        report.lines.push(format!(
            "paper gap {}: measured {:+.2} % over {} rows vs paper {paper:+.1} %",
            t.label(),
            100.0 * (gain - 1.0),
            speedups.len()
        ));
        pairs.push((gain, paper));
    }
    paper_gap_pp(&pairs)
}

/// Largest relative IPC error of sampled estimates of `specs` against
/// `references` (detailed runs of the same specs), both untimed.
fn sample_error(
    report: &mut Report,
    specs: &[RunSpec],
    sample: SampleSpec,
    references: &[Outcome],
) -> f64 {
    let estimates = pre_par::par_map(specs, |spec| {
        run_one(&spec.clone().sampled(sample).with_result_cache(false)).map_err(|e| e.to_string())
    });
    let mut worst: f64 = 0.0;
    for ((spec, est), reference) in specs.iter().zip(&estimates).zip(references) {
        let name = format!("{}~{}", label(spec), sample.label());
        report.attempted += 1;
        match (est, reference) {
            (Ok(est), Ok(reference)) => {
                if let Some(why) = verdict(est) {
                    report.fail(format!("accuracy:{name}"), format!("{name}: {why}"));
                }
                let err = rel_err_pct(est.ipc(), reference.ipc());
                report.lines.push(format!(
                    "sampled {name} at {} uops: ipc {:.4} vs detailed {:.4} ({err:.3} %)",
                    spec.max_uops,
                    est.ipc(),
                    reference.ipc()
                ));
                worst = worst.max(err);
            }
            (Err(e), _) | (_, Err(e)) => {
                report.fail(format!("accuracy:{name}"), format!("{name}: {e}"))
            }
        }
    }
    worst
}

/// Detailed runs of `specs` with the result cache off, untimed.
fn detailed_runs(report: &mut Report, specs: &[RunSpec]) -> Vec<Outcome> {
    let runs: Vec<Outcome> = pre_par::par_map(specs, |spec| {
        run_one(&spec.clone().with_result_cache(false)).map_err(|e| e.to_string())
    });
    let labels: Vec<String> = specs.iter().map(label).collect();
    report.tally("reference", &labels, &runs, &mut None);
    runs
}

fn accuracy_specs(params: WorkloadParams, budget: u64, warmup: u64) -> Vec<RunSpec> {
    ACCURACY_WORKLOADS
        .iter()
        .flat_map(|&w| ACCURACY_TECHNIQUES.iter().map(move |&t| (w, t)))
        .map(|(w, t)| {
            RunSpec::new(w, t)
                .with_budget(budget)
                .with_params(params)
                .with_warmup(warmup)
        })
        .collect()
}

/// Architectural checks a cold run's statistics allow.
fn stats_checks(results: &[Outcome], specs: &[RunSpec]) -> Vec<(Workload, Expect)> {
    specs
        .iter()
        .zip(results)
        .filter_map(|(spec, r)| {
            let r = r.as_ref().ok()?;
            Some((spec.workload, Expect::from_stats(label(spec), &r.stats)))
        })
        .collect()
}

/// Untraced passes of a mixed matrix through `run_specs_isolated`, as
/// `full_eval` runs it; returns the first pass's outcomes.
fn matrix_passes(
    args: &Args,
    params: &WorkloadParams,
    specs: &[RunSpec],
) -> (Report, Passes, Vec<Outcome>) {
    let labels: Vec<String> = specs.iter().map(label).collect();
    let mut report = Report::default();
    let mut reference = None;
    let mut first: Option<Vec<Outcome>> = None;
    let passes = repeat_passes(args, &Suite::Mixed.workloads(), params, |pass, _| {
        let t = Instant::now();
        let run = EvaluationMatrix::run_specs_isolated(specs, |_| {});
        let wall = t.elapsed().as_secs_f64();
        let outcomes = matrix_outcomes(run);
        report.tally(&format!("pass{pass}"), &labels, &outcomes, &mut reference);
        first.get_or_insert(outcomes);
        wall
    });
    (report, passes, first.unwrap_or_default())
}

fn matrix_mixed(args: &Args, params: WorkloadParams) -> Report {
    let specs = matrix_specs(params, MATRIX_UOPS, None);
    if args.trace {
        return traced_matrix(args, params, &specs);
    }
    let (mut report, passes, results) = matrix_passes(args, &params, &specs);
    check_on_interpreter(&mut report, &params, stats_checks(&results, &specs));
    let gap = matrix_paper_gap(&mut report, &results);
    // The matrix cells themselves are the detailed references.
    let acc = accuracy_specs(params, MATRIX_UOPS, 0);
    let refs: Vec<Outcome> = acc
        .iter()
        .map(|a| {
            let i = specs
                .iter()
                .position(|s| s.workload == a.workload && s.technique == a.technique)
                .expect("accuracy cells are matrix cells");
            results[i].clone()
        })
        .collect();
    let err = sample_error(&mut report, &acc, SampleSpec::new(4, 5_000), &refs);
    let delivered = Counts::of(ok_results(&results).map(|r| &r.stats));
    report.lines.push(format!(
        "stats digest {:016x} over {} cells",
        digest(ok_results(&results).map(|r| &r.stats)),
        results.len()
    ));
    end_to_end(&mut report, &passes, &delivered, gap, err);
    report
}

/// Traced matrix: library pass vs decomposed cold cells.
fn traced_matrix(args: &Args, params: WorkloadParams, specs: &[RunSpec]) -> Report {
    let workloads = Suite::Mixed.workloads();
    let labels: Vec<String> = specs.iter().map(label).collect();
    let mut report = Report::default();
    let (reps, checks) = traced_reps(
        args,
        &mut report,
        &labels,
        |_| library_matrix(specs, &workloads, &params),
        |_, rep, checks| {
            stores::clear_stores();
            setup(&workloads, &params, &mut rep.layers);
            let (traced, spans, wall, threads) = traced_pass(specs, |s| decomposed_run(s, None));
            (rep.cell_spans, rep.span_wall, rep.traced_wall) = (spans, wall, wall);
            rep.threads_max = threads;
            vec![fold_traced(rep, checks, traced)]
        },
    );
    check_on_interpreter(&mut report, &params, checks);
    finish_traced(report, &reps, 0)
}

/// One library pass of a matrix after a cold set-up: outcomes and wall.
fn library_matrix(
    specs: &[RunSpec],
    workloads: &[Workload],
    params: &WorkloadParams,
) -> (Vec<Vec<Outcome>>, f64) {
    stores::clear_stores();
    setup(workloads, params, &mut Layers::default());
    let t = Instant::now();
    let outcomes = matrix_outcomes(EvaluationMatrix::run_specs_isolated(specs, |_| {}));
    (vec![outcomes], t.elapsed().as_secs_f64())
}

/// Alternates an untraced library pass with a decomposed traced pass —
/// library first on even repetitions, traced first on odd ones, so neither
/// always runs on a colder process — until `--seconds` have run. Every pass
/// of every repetition must reproduce the first pass's `SimStats` bit for
/// bit. Returns the repetitions and the first one's architectural checks.
fn traced_reps(
    args: &Args,
    report: &mut Report,
    labels: &[String],
    mut library: impl FnMut(usize) -> (Vec<Vec<Outcome>>, f64),
    mut decomposed: impl FnMut(usize, &mut TracedRep, &mut Vec<(Workload, Expect)>) -> Vec<Vec<Outcome>>,
) -> (Vec<TracedRep>, Vec<(Workload, Expect)>) {
    let mut reference = None;
    let mut reps = Vec::new();
    let mut checks = Vec::new();
    let mut measured = 0.0;
    while reps.is_empty() || measured < args.seconds {
        let n = reps.len();
        let mut rep = TracedRep::default();
        let mut rep_checks = Vec::new();
        let ((lib, wall), traced) = if n % 2 == 0 {
            let lib = library(n);
            (lib, decomposed(n, &mut rep, &mut rep_checks))
        } else {
            let traced = decomposed(n, &mut rep, &mut rep_checks);
            (library(n), traced)
        };
        for (i, outcomes) in lib.iter().enumerate() {
            report.tally(&format!("library{n}.{i}"), labels, outcomes, &mut reference);
        }
        for (i, outcomes) in traced.iter().enumerate() {
            report.tally(
                &format!("decomposed{n}.{i}"),
                labels,
                outcomes,
                &mut reference,
            );
        }
        if n == 0 {
            checks = rep_checks;
        }
        rep.untraced_wall = wall;
        measured += wall + rep.traced_wall.as_secs_f64();
        reps.push(rep);
    }
    (reps, checks)
}

fn finish_traced(mut report: Report, reps: &[TracedRep], quarantined: u64) -> Report {
    let workers = pre_par::num_threads(usize::MAX);
    if let Some(first) = reps.first() {
        report.lines.extend(first.detailed.lines("detailed"));
        report.lines.push(format!(
            "traced: {} repetitions, {} cells per pass (cell percentiles over {}), {workers} workers",
            reps.len(),
            first.cell_spans.len(),
            reps.iter().map(|r| r.cell_spans.len()).sum::<usize>()
        ));
    }
    report.metrics = layer_metrics(reps, workers, quarantined);
    report
}

// ---------------------------------------------------------------------------
// sweep-fork
// ---------------------------------------------------------------------------

fn chase_large() -> Workload {
    Workload::Asm(AsmKernel::ChaseLarge)
}

fn sweep_grid(params: WorkloadParams) -> Sweep {
    let mut sweep = Sweep::new(chase_large(), Technique::PreEmq);
    for dim in SWEEP_GRID {
        sweep = sweep.with_dim(dim.parse().expect("valid sweep grid"));
    }
    sweep.params = params;
    sweep.budget = SWEEP_UOPS;
    sweep.warmup_uops = SWEEP_WARMUP;
    sweep.use_result_cache = true;
    sweep
}

/// A fresh, empty on-disk cache directory under the checkout.
fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = Path::new("perfbench/.cache").join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark's cache directory");
    dir
}

/// Removes a cache directory, returning how many entries the stores had
/// quarantined in it.
fn drop_cache_dir(dir: &Path) -> u64 {
    let quarantined = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".corrupt"))
                .count() as u64
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir("perfbench/.cache");
    quarantined
}

/// One library sweep: a cold pass into `dir`, then (stores emptied, set-up
/// redone) a pass answered from disk. Returns both passes' outcomes and
/// their summed wall time.
fn library_sweep(
    sweep: &Sweep,
    dir: &Path,
    params: &WorkloadParams,
    setups: &mut Vec<f64>,
) -> (Vec<Outcome>, Vec<Outcome>, f64) {
    std::env::set_var("PRE_CACHE_DIR", dir);
    let t = Instant::now();
    let cold = sweep_outcomes(sweep.run_isolated(|_| {}));
    let cold_wall = t.elapsed().as_secs_f64();
    stores::clear_stores();
    setups.push(setup(&[chase_large()], params, &mut Layers::default()));
    let t = Instant::now();
    let warm = sweep_outcomes(sweep.run_isolated(|_| {}));
    let warm_wall = t.elapsed().as_secs_f64();
    std::env::remove_var("PRE_CACHE_DIR");
    (cold, warm, cold_wall + warm_wall)
}

/// Fails cold-pass cache hits and warm-pass misses.
fn check_tiers(
    report: &mut Report,
    pass: &str,
    labels: &[String],
    cold: &[Outcome],
    warm: &[Outcome],
) {
    for (label, (c, w)) in labels.iter().zip(cold.iter().zip(warm)) {
        if c.as_ref().is_ok_and(|r| r.cache_hit) {
            report.fail(
                format!("{pass}:cold:{label}"),
                format!("{label}: cold pass hit the cache"),
            );
        }
        if w.as_ref().is_ok_and(|r| !r.cache_hit) {
            report.fail(
                format!("{pass}:warm:{label}"),
                format!("{label}: second pass missed the disk cache"),
            );
        }
    }
}

fn sweep_fork(args: &Args, params: WorkloadParams) -> Report {
    let sweep = sweep_grid(params);
    let specs: Vec<RunSpec> = sweep.specs().into_iter().map(|(_, s)| s).collect();
    let labels: Vec<String> = sweep
        .specs()
        .iter()
        .map(|(settings, _)| {
            let parts: Vec<String> = settings.iter().map(|(d, v)| format!("{d}={v}")).collect();
            parts.join(" ")
        })
        .collect();
    if args.trace {
        return traced_sweep(args, params, &sweep, &specs, &labels);
    }
    let mut report = Report::default();
    let mut reference = None;
    let mut quarantined = 0;
    let mut first: Option<Vec<Outcome>> = None;
    let passes = repeat_passes(args, &[chase_large()], &params, |pass, setups| {
        let dir = fresh_cache_dir(&format!("pass{pass}"));
        let (cold, warm, wall) = library_sweep(&sweep, &dir, &params, setups);
        quarantined += drop_cache_dir(&dir);
        report.tally(&format!("pass{pass}:cold"), &labels, &cold, &mut reference);
        report.tally(&format!("pass{pass}:warm"), &labels, &warm, &mut reference);
        check_tiers(&mut report, &format!("pass{pass}"), &labels, &cold, &warm);
        if first.is_none() {
            first = Some(cold.into_iter().chain(warm).collect());
        }
        wall
    });
    let results = first.unwrap_or_default();
    if quarantined > 0 {
        report.fail(
            "quarantine".into(),
            format!("{quarantined} cache entries were quarantined"),
        );
    }
    // Gap: PRE+EMQ over OoO on the grid's Table 1 point, both forked from
    // the same warm-up, against the paper's PRE+EMQ gain.
    let base: Vec<RunSpec> = [Technique::OutOfOrder, Technique::PreEmq]
        .iter()
        .map(|&t| {
            RunSpec::new(chase_large(), t)
                .with_budget(SWEEP_UOPS)
                .with_params(params)
                .with_warmup(SWEEP_WARMUP)
        })
        .collect();
    let base_runs = detailed_runs(&mut report, &base);
    let gap = match (&base_runs[0], &base_runs[1]) {
        (Ok(ooo), Ok(pe)) => {
            let speedup = pe.ipc() / ooo.ipc();
            report.lines.push(format!(
                "paper gap PRE+EMQ on {} at the Table 1 point: measured {:+.2} % vs paper +28.6 %",
                chase_large().name(),
                100.0 * (speedup - 1.0)
            ));
            paper_gap_pp(&[(speedup, 28.6)])
        }
        _ => 0.0,
    };
    // Sampled estimates of forked runs ten times the point budget.
    let acc: Vec<RunSpec> = base
        .iter()
        .map(|s| s.clone().with_budget(10 * SWEEP_UOPS))
        .collect();
    let refs = detailed_runs(&mut report, &acc);
    let err = sample_error(&mut report, &acc, SampleSpec::new(4, SWEEP_UOPS), &refs);
    let delivered = Counts::of(ok_results(&results).map(|r| &r.stats));
    report.lines.push(format!(
        "stats digest {:016x} over {} points x 2 passes",
        digest(ok_results(&results).map(|r| &r.stats)),
        specs.len()
    ));
    end_to_end(&mut report, &passes, &delivered, gap, err);
    report
}

/// Traced sweep: library sweep vs decomposed forked points, cold then from
/// disk.
fn traced_sweep(
    args: &Args,
    params: WorkloadParams,
    sweep: &Sweep,
    specs: &[RunSpec],
    labels: &[String],
) -> Report {
    let mut report = Report::default();
    let quarantined = Cell::new(0);
    let (reps, checks) = traced_reps(
        args,
        &mut report,
        labels,
        |n| {
            stores::clear_stores();
            setup(&[chase_large()], &params, &mut Layers::default());
            let dir = fresh_cache_dir(&format!("library{n}"));
            let (cold, warm, wall) = library_sweep(sweep, &dir, &params, &mut Vec::new());
            quarantined.set(quarantined.get() + drop_cache_dir(&dir));
            (vec![cold, warm], wall)
        },
        |n, rep, checks| {
            let dir = fresh_cache_dir(&format!("decomposed{n}"));
            stores::clear_stores();
            setup(&[chase_large()], &params, &mut rep.layers);
            let (traced, spans, cold_wall, threads) =
                traced_pass(specs, |s| decomposed_run(s, Some(&dir)));
            let cold = fold_traced(rep, checks, traced);
            stores::clear_stores();
            setup(&[chase_large()], &params, &mut rep.layers);
            let (traced, _, warm_wall, _) = traced_pass(specs, |s| decomposed_run(s, Some(&dir)));
            let warm = fold_traced(rep, checks, traced);
            quarantined.set(quarantined.get() + drop_cache_dir(&dir));
            (rep.cell_spans, rep.span_wall) = (spans, cold_wall);
            rep.traced_wall = cold_wall + warm_wall;
            rep.threads_max = threads;
            vec![cold, warm]
        },
    );
    check_on_interpreter(&mut report, &params, checks);
    finish_traced(report, &reps, quarantined.get())
}

// ---------------------------------------------------------------------------
// sampled-long
// ---------------------------------------------------------------------------

fn sampled_long(args: &Args, params: WorkloadParams) -> Report {
    let sample = SampleSpec::default();
    let specs = matrix_specs(params, SAMPLED_UOPS, Some(sample));
    if args.trace {
        return traced_sampled(args, params, &specs);
    }
    let (mut report, passes, results) = matrix_passes(args, &params, &specs);
    for r in ok_results(&results).filter(|r| r.sample.is_none()) {
        let label = format!("{}/{}", r.workload.name(), r.technique.label());
        report.fail(
            format!("sampled:{label}"),
            format!("{label}: result is not an estimate"),
        );
    }
    let gap = matrix_paper_gap(&mut report, &results);
    let acc = accuracy_specs(params, ACCURACY_UOPS, 0);
    let refs = detailed_runs(&mut report, &acc);
    check_on_interpreter(&mut report, &params, stats_checks(&refs, &acc));
    let err = sample_error(&mut report, &acc, sample, &refs);
    let delivered = Counts::of(ok_results(&results).map(|r| &r.stats));
    report.lines.push(format!(
        "stats digest {:016x} over {} sampled cells",
        digest(ok_results(&results).map(|r| &r.stats)),
        results.len()
    ));
    end_to_end(&mut report, &passes, &delivered, gap, err);
    report
}

/// Profile and clustering of one program, as `pre_sim::sample` plans it.
struct Plan {
    profile: IntervalProfile,
    clustering: Clustering,
}

/// The sampling plan, timed call by call: profile, cluster, and capture
/// every representative's windowed snapshot in one interpreter pass
/// (publishing them to the snapshot store), as `pre_sim::sample` does.
fn decomposed_plan(spec: &RunSpec, layers: &mut Layers) -> Plan {
    let sample = spec.sample.expect("sampled spec");
    let t = Instant::now();
    let program = timed(&mut layers.build, || {
        stores::program_for(spec.workload, &spec.params)
    });
    let profile = timed(&mut layers.profile, || {
        profile_intervals(
            &program,
            sample.interval_uops,
            spec.max_uops,
            spec.warmup_uops,
        )
    });
    layers.profiled_uops += spec.warmup_uops + profile.total_uops();
    let clustering = timed(&mut layers.cluster, || {
        cluster_intervals(
            &profile,
            sample.clusters,
            program.content_hash() ^ CLUSTER_SEED,
        )
    });
    timed(&mut layers.snapshot, || {
        capture_representatives(&program, &profile, &clustering, sample.interval_uops)
    });
    layers.plan += t.elapsed();
    Plan {
        profile,
        clustering,
    }
}

/// The representatives' windowed snapshots in one interpreter pass, published
/// to the snapshot store: the same steps as the private capture pass of
/// `pre_sim::sample`, which the bit-identity check holds this copy to.
fn capture_representatives(
    program: &Program,
    profile: &IntervalProfile,
    clustering: &Clustering,
    interval_uops: u64,
) {
    let disk = stores::env_cache_dir();
    let mut wanted: Vec<(u64, u64)> = clustering
        .representatives
        .iter()
        .map(|rep| profile.intervals[rep.interval].start_uop)
        .filter(|&offset| offset > 0)
        .map(|offset| (offset, interval_uops.min(offset)))
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    wanted.retain(|&(offset, window)| {
        stores::snapshot_lookup(program, offset, window, disk.as_deref()).is_none()
    });
    if wanted.is_empty() {
        return;
    }
    let mut interp = Interpreter::new(program);
    let mut executed = 0u64;
    for (offset, window) in wanted {
        executed += interp.run(offset - window - executed.min(offset - window));
        let mut trace = WarmTrace::new();
        executed += interp.run_warm(offset - executed, &mut trace);
        let snap = SimSnapshot {
            warmup_uops: offset,
            executed,
            halted: interp.halted(),
            regs: *interp.regs(),
            pc: interp.pc(),
            mem: interp.clone().into_memory(),
            trace,
        };
        stores::snapshot_publish(program, offset, window, snap, disk.as_deref());
    }
}

/// One sampled cell through public calls: result-cache lookup, one
/// decomposed run per representative slice (nested pool), weighted merge,
/// result-cache store.
fn decomposed_sampled(spec: &RunSpec, plan: &Plan) -> Result<Traced, String> {
    let sample = spec.sample.expect("sampled spec");
    let mut layers = Layers::default();
    let program = timed(&mut layers.build, || {
        stores::program_for(spec.workload, &spec.params)
    });
    let (key, desc) = stores::result_key(spec, &program);
    layers.result_lookups += 1;
    if let Some(hit) = timed(&mut layers.result_read, || {
        stores::result_lookup(key, &desc, None)
    }) {
        layers.result_hits += 1;
        return Ok(Traced {
            result: hit,
            layers,
            detailed: Counts::default(),
            checks: Vec::new(),
        });
    }
    let reps = &plan.clustering.representatives;
    let slice_specs: Vec<RunSpec> = reps
        .iter()
        .map(|rep| {
            let iv = &plan.profile.intervals[rep.interval];
            let mut s = spec.clone();
            s.sample = None;
            s.warmup_uops = iv.start_uop;
            s.warm_window = (iv.start_uop > 0).then(|| sample.interval_uops.min(iv.start_uop));
            s.max_uops = iv.len_uops;
            s.max_cycles = iv.len_uops.saturating_mul(200).max(1_000_000);
            s
        })
        .collect();
    let slices = pre_par::try_par_map(&slice_specs, |s| {
        let t = Instant::now();
        (decomposed_run(s, None), t.elapsed())
    });
    let mut stats = SimStats::new();
    let mut detailed = Counts::default();
    let mut checks = Vec::new();
    let mut parts = Vec::with_capacity(slices.len());
    for (rep, slice) in reps.iter().zip(slices) {
        let (traced, took) = slice.map_err(|job| format!("slice panicked: {}", job.payload))?;
        let traced = traced?;
        layers.slice += took;
        layers.add(&traced.layers);
        detailed.add(&traced.detailed);
        checks.extend(traced.checks);
        stats.merge_scaled(&traced.result.stats, rep.weight);
        parts.push(traced.result);
    }
    let meta = SampleMeta {
        spec: sample,
        intervals_total: plan.profile.intervals.len() as u64,
        total_uops: plan.profile.total_uops(),
        simulated_uops: reps
            .iter()
            .map(|rep| plan.profile.intervals[rep.interval].len_uops)
            .sum(),
        weights: reps
            .iter()
            .map(|rep| RepWeight {
                interval: rep.interval as u64,
                weight: rep.weight,
                uops: plan.profile.intervals[rep.interval].len_uops,
            })
            .collect(),
    };
    let result = RunResult {
        workload: spec.workload,
        technique: spec.technique,
        energy: EnergyModel::default().evaluate(&stats, &spec.config),
        stats,
        deadlocked: parts.iter().any(|p| p.deadlocked),
        cache_hit: parts.iter().all(|p| p.cache_hit),
        watchdog: parts.iter().find_map(|p| p.watchdog.clone()),
        sample: Some(meta),
    };
    timed(&mut layers.result_write, || {
        stores::result_store(key, &desc, &result, None)
    });
    Ok(Traced {
        result,
        layers,
        detailed,
        checks,
    })
}

/// Traced sampled matrix: library pass vs plans per program, then
/// decomposed sampled cells.
fn traced_sampled(args: &Args, params: WorkloadParams, specs: &[RunSpec]) -> Report {
    let workloads = Suite::Mixed.workloads();
    let labels: Vec<String> = specs.iter().map(label).collect();
    let mut report = Report::default();
    // One plan per program: the first cell of each workload row.
    let plan_specs: Vec<RunSpec> = workloads
        .iter()
        .map(|&w| specs.iter().find(|s| s.workload == w).expect("row").clone())
        .collect();
    let (reps, checks) = traced_reps(
        args,
        &mut report,
        &labels,
        |_| library_matrix(specs, &workloads, &params),
        |_, rep, checks| {
            stores::clear_stores();
            setup(&workloads, &params, &mut rep.layers);
            let t = Instant::now();
            let plans = pre_par::par_map(&plan_specs, |s| {
                let mut layers = Layers::default();
                (decomposed_plan(s, &mut layers), layers)
            });
            for (_, l) in &plans {
                rep.layers.add(l);
            }
            let (traced, spans, cell_wall, threads) = traced_pass(specs, |s| {
                let row = workloads
                    .iter()
                    .position(|&w| w == s.workload)
                    .expect("row");
                decomposed_sampled(s, &plans[row].0)
            });
            rep.traced_wall = t.elapsed();
            (rep.cell_spans, rep.span_wall) = (spans, cell_wall);
            rep.threads_max = threads;
            vec![fold_traced(rep, checks, traced)]
        },
    );
    check_on_interpreter(&mut report, &params, checks);
    finish_traced(report, &reps, 0)
}
