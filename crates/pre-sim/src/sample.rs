//! SimPoint-style sampled simulation: profile → cluster → simulate
//! representatives → extrapolate.
//!
//! A sampled [`RunSpec`] is estimated from a handful of detailed-simulation
//! slices. It runs as a cell of a [`crate::runner::run_batch`] batch
//! ([`run_one`] and [`run_sampled`] are batches of one), in three phases:
//!
//! ```text
//!  1. plans (one pool job per key)   2. items (one pool for the batch)    3. fold (last slice)
//!  ┌───────────────────────────┐    ┌─────────────────────────────┐    ┌─────────────────────┐
//!  │ result-cache lookup; on a │    │ one item per representative:│    │ first error in slice│
//!  │ miss: interval BBVs,      │ ─► │ fork from a windowed        │ ─► │ order fails; else   │
//!  │ deterministic k-means,    │    │ snapshot, warm-replay, run  │    │ SimStats × cluster  │
//!  │ snapshot capture          │    │ one interval                │    │ weight, cache store │
//!  └───────────────────────────┘    └─────────────────────────────┘    └─────────────────────┘
//! ```
//!
//! The profiling/clustering plan and the representative snapshots are
//! memoized per (program, sampling parameters, budget, skip), so the five
//! techniques of one evaluation cell pay for a single functional profile.
//! The batch resolves every distinct plan concurrently before any slice
//! runs, and a cell answered from the result cache never builds its plan.
//! The slices of every cell then share the batch's one worker pool with
//! its plain cells; each runs under `catch_unwind`, so a panic in one slice
//! surfaces as [`SimError::Panic`] for its cell instead of tearing anything
//! down. The `PRE_FAULT` cell hook fires once per attempt at a sampled
//! cell, never per slice.
//!
//! Every extrapolated result carries a [`SampleMeta`] so downstream
//! reporting can mark estimates (`~`) and show K / coverage / weights;
//! sampled results enter the result cache under keys that include the
//! sampling parameters, independent of full runs.

// Sampled results feed the same caches and reports as measured ones; any
// failure here must surface as a typed error, never an unwind.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::runner::{caught, run_one, Cell, Fold, Item, RunResult, RunSpec};
use crate::stores::{key_of, Memo};
use pre_energy::EnergyModel;
use pre_model::error::{ConfigError, SimError};
use pre_model::profile::{
    cluster_intervals, profile_intervals, Clustering, IntervalProfile, Representative,
};
use pre_model::program::{Interpreter, Program};
use pre_model::snapshot::SimSnapshot;
use pre_model::stats::SimStats;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Sampling parameters: how many clusters (representative slices) and how
/// long each interval is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Number of k-means clusters (`n=` in the CLI grammar); one
    /// representative interval is simulated per cluster.
    pub clusters: usize,
    /// Interval size in committed micro-ops (`interval=` in the CLI
    /// grammar); also the warm-trace window for representative snapshots.
    pub interval_uops: u64,
}

impl SampleSpec {
    /// Default number of clusters.
    pub const DEFAULT_CLUSTERS: usize = 8;
    /// Default interval size in committed micro-ops.
    pub const DEFAULT_INTERVAL_UOPS: u64 = 10_000;

    /// Creates a spec with explicit parameters.
    pub fn new(clusters: usize, interval_uops: u64) -> Self {
        SampleSpec {
            clusters,
            interval_uops,
        }
    }

    /// Parses the `--sample` value grammar: `n=K,interval=N`, with either
    /// part optional (`n=4`, `interval=5000`, `n=4,interval=5000`); omitted
    /// parts take the defaults.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed part.
    pub fn parse(text: &str) -> Result<SampleSpec, String> {
        let mut spec = SampleSpec::default();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad sample part `{part}` (expected key=value)"))?;
            match key.trim() {
                "n" => {
                    spec.clusters = value
                        .trim()
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad cluster count `{value}`"))?;
                }
                "interval" => {
                    spec.interval_uops = value
                        .trim()
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad interval size `{value}`"))?;
                }
                other => return Err(format!("unknown sample key `{other}`")),
            }
        }
        Ok(spec)
    }

    /// Canonical rendering of the spec in the CLI grammar.
    pub fn label(&self) -> String {
        format!("n={},interval={}", self.clusters, self.interval_uops)
    }
}

impl Default for SampleSpec {
    fn default() -> Self {
        SampleSpec {
            clusters: SampleSpec::DEFAULT_CLUSTERS,
            interval_uops: SampleSpec::DEFAULT_INTERVAL_UOPS,
        }
    }
}

impl FromStr for SampleSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SampleSpec::parse(s)
    }
}

impl fmt::Display for SampleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One representative slice's contribution to the extrapolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepWeight {
    /// Index of the representative interval in profiling order.
    pub interval: u64,
    /// Cluster population it stands for (extrapolation weight).
    pub weight: u64,
    /// Committed micro-ops of the interval (the interval size, except for a
    /// shorter final slice).
    pub uops: u64,
}

/// Sampling metadata attached to an extrapolated [`RunResult`], so sampled
/// numbers are never mistaken for measured ones.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SampleMeta {
    /// The sampling parameters the run was performed with.
    pub spec: SampleSpec,
    /// Total intervals the profiling pass produced.
    pub intervals_total: u64,
    /// Committed micro-ops covered by the profile (what the extrapolation
    /// stands for).
    pub total_uops: u64,
    /// Committed micro-ops actually simulated in detail (sum of the
    /// representatives' interval lengths, unweighted).
    pub simulated_uops: u64,
    /// Per-representative weights, sorted by interval index.
    pub weights: Vec<RepWeight>,
}

impl SampleMeta {
    /// Number of representative intervals simulated (= number of clusters
    /// actually produced).
    pub fn intervals_simulated(&self) -> usize {
        self.weights.len()
    }

    /// Fraction of the profiled micro-ops that were simulated in detail.
    pub fn coverage(&self) -> f64 {
        if self.total_uops == 0 {
            0.0
        } else {
            self.simulated_uops as f64 / self.total_uops as f64
        }
    }

    /// One-line human-readable summary (`K=…, coverage=…%, weights=[…]`).
    pub fn summary(&self) -> String {
        let weights: Vec<String> = self
            .weights
            .iter()
            .map(|w| format!("{}×{}", w.interval, w.weight))
            .collect();
        format!(
            "K={} of {} intervals ({}), coverage={:.1}%, weights=[{}]",
            self.intervals_simulated(),
            self.intervals_total,
            self.spec.label(),
            self.coverage() * 100.0,
            weights.join(" ")
        )
    }
}

/// The memoized profile + clustering for one (program, sampling, budget)
/// tuple, shared by all techniques of an evaluation cell.
#[derive(Debug)]
pub(crate) struct SamplePlan {
    profile: IntervalProfile,
    clustering: Clustering,
}

/// The plan memo; [`crate::stores::clear_stores`] empties it.
pub(crate) static PLANS: Memo<Arc<SamplePlan>> = Memo::new();

/// Fixed seed component for the clustering rng; combined with the program
/// content hash so different programs explore different centroid seeds while
/// every run of the same program clusters identically.
const CLUSTER_SEED: u64 = 0x5a3c_9d11_7e24_c0de;

/// The profile + clustering for a sampled run, computed once per (program,
/// sampling parameters, budget) and shared across techniques. On first
/// computation the representative snapshots are also captured (in one
/// interpreter pass) and published to the snapshot store.
fn plan_for(
    program: &Program,
    sample: &SampleSpec,
    max_uops: u64,
    skip_uops: u64,
) -> Arc<SamplePlan> {
    let (key, desc) = key_of(format!(
        "plan v1 program={:016x} sample={} budget={} skip={}",
        program.content_hash(),
        sample.label(),
        max_uops,
        skip_uops
    ));
    PLANS.get_or_insert_with(key, &desc, || {
        let profile = profile_intervals(program, sample.interval_uops, max_uops, skip_uops);
        let clustering = cluster_intervals(
            &profile,
            sample.clusters,
            program.content_hash() ^ CLUSTER_SEED,
        );
        capture_representative_snapshots(program, &profile, &clustering, sample.interval_uops);
        Arc::new(SamplePlan {
            profile,
            clustering,
        })
    })
}

/// Captures every representative's windowed snapshot in **one** functional
/// pass over the program (representatives are visited in offset order) and
/// publishes them to the snapshot store, where the per-technique detailed
/// runs will find them. Equivalent to — and bit-identical with —
/// [`SimSnapshot::capture_windowed`] per offset, but O(last offset) total
/// instead of O(sum of offsets).
fn capture_representative_snapshots(
    program: &Program,
    profile: &IntervalProfile,
    clustering: &Clustering,
    interval_uops: u64,
) {
    let disk = crate::stores::env_cache_dir();
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
        crate::stores::snapshot_lookup(program, offset, window, disk.as_deref()).is_none()
    });
    if wanted.is_empty() {
        return;
    }
    let mut interp = Interpreter::new(program);
    for &(offset, window) in &wanted {
        // Windows never overlap: consecutive representative offsets differ
        // by at least one interval, and windows are at most one interval.
        let snap = SimSnapshot::advance(&mut interp, offset, window);
        crate::stores::snapshot_publish(program, offset, window, snap, disk.as_deref());
    }
}

/// Rejects sampled `spec`s that cannot be estimated: tracing (unsupported
/// in sampled mode), zero clusters or a zero interval size.
fn validate(spec: &RunSpec, sample: &SampleSpec) -> Result<(), SimError> {
    if spec.trace.is_some() {
        return Err(SimError::Trace(
            "tracing is not supported with --sample (trace a full run instead)".to_string(),
        ));
    }
    for (field, value) in [
        ("sample.clusters", sample.clusters as u64),
        ("sample.interval_uops", sample.interval_uops),
    ] {
        if value == 0 {
            return Err(SimError::Config(ConfigError::ZeroCapacity { field }));
        }
    }
    Ok(())
}

/// Expands the sampled specs of a batch into their work items; `None` for
/// every plain spec. Plans come first: one pool job per distinct (program,
/// sampling parameters, budget, skip) key answers that key's cells from the
/// result cache where it can and builds the plan only for a cell that
/// misses. A rejected spec, or a key whose job panicked, becomes a cell
/// answered with the error.
pub(crate) fn expand(specs: &[RunSpec]) -> Vec<Option<Cell>> {
    let mut cells: Vec<Option<Cell>> = specs.iter().map(|_| None).collect();
    let mut keys: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<(SampleSpec, Vec<usize>)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let Some(sample) = &spec.sample else { continue };
        if let Err(e) = validate(spec, sample) {
            cells[i] = Some(Cell::answered(Err(e)));
            continue;
        }
        let key = format!(
            "{} {:?} {} {} {}",
            spec.workload,
            spec.params,
            sample.label(),
            spec.max_uops,
            spec.warmup_uops
        );
        let group = *keys.entry(key).or_insert_with(|| {
            groups.push((*sample, Vec::new()));
            groups.len() - 1
        });
        groups[group].1.push(i);
    }
    let resolved = pre_par::par_map(&groups, |(sample, group)| {
        caught(|| resolve(specs, *sample, group))
    });
    for ((_, group), outcome) in groups.iter().zip(resolved) {
        match outcome {
            Ok(group_cells) => {
                for (&i, cell) in group.iter().zip(group_cells) {
                    cells[i] = Some(cell);
                }
            }
            Err(e) => {
                for &i in group {
                    cells[i] = Some(Cell::answered(Err(e.clone())));
                }
            }
        }
    }
    cells
}

/// One plan job: the cells of `group` (specs sharing one plan key, never
/// empty), each answered from the result cache or expanded from the plan,
/// which is built at the first miss.
fn resolve(specs: &[RunSpec], sample: SampleSpec, group: &[usize]) -> Vec<Cell> {
    let first = &specs[group[0]];
    let program = crate::stores::program_for(first.workload, &first.params);
    let disk = crate::stores::env_cache_dir();
    let mut plan = None;
    group
        .iter()
        .map(|&i| {
            let spec = &specs[i];
            let store = spec
                .use_result_cache
                .then(|| crate::stores::result_key(spec, &program));
            let hit = store
                .as_ref()
                .and_then(|(key, desc)| crate::stores::result_lookup(*key, desc, disk.as_deref()));
            if let Some(hit) = hit {
                return Cell::answered(Ok(hit));
            }
            let plan = plan
                .get_or_insert_with(|| plan_for(&program, &sample, spec.max_uops, spec.warmup_uops))
                .clone();
            Estimate {
                sample,
                plan,
                store,
            }
            .cell(spec)
        })
        .collect()
}

/// How a sampled cell's slice results fold into its estimate.
#[derive(Debug)]
pub(crate) struct Estimate {
    sample: SampleSpec,
    plan: Arc<SamplePlan>,
    /// The result-cache entry the estimate is stored under, when the spec
    /// opts into the cache.
    store: Option<(u64, String)>,
}

impl Estimate {
    /// The cell of sampled `spec`: one item per representative slice (fork
    /// from the interval snapshot, warm window one interval, simulate
    /// exactly the interval), or one unsampled run of the same spec when
    /// there is nothing to sample (zero budget, or the program halts before
    /// the warm-up ends).
    fn cell(self, spec: &RunSpec) -> Cell {
        let mut base = spec.clone();
        base.sample = None;
        let reps = &self.plan.clustering.representatives;
        let items = if reps.is_empty() {
            base.use_result_cache = false;
            vec![Item::Run(Box::new(base))]
        } else {
            reps.iter()
                .map(|rep| {
                    let iv = &self.plan.profile.intervals[rep.interval];
                    let mut s = base.clone();
                    s.warmup_uops = iv.start_uop;
                    s.warm_window =
                        (iv.start_uop > 0).then(|| self.sample.interval_uops.min(iv.start_uop));
                    s.max_uops = iv.len_uops;
                    s.max_cycles = iv.len_uops.saturating_mul(200).max(1_000_000);
                    Item::Run(Box::new(s))
                })
                .collect()
        };
        Cell {
            items,
            fold: Fold::Sampled(self),
        }
    }

    /// Folds the slice results (in representative order) into the estimate
    /// of `spec` and stores it in the result cache when the spec opts in.
    /// Integer counters are exact functions of the per-slice stats and
    /// cluster weights.
    pub(crate) fn fold(
        &self,
        spec: &RunSpec,
        slices: Vec<RunResult>,
    ) -> Result<RunResult, SimError> {
        let plan = &self.plan;
        let reps = &plan.clustering.representatives;
        let result = if reps.is_empty() {
            let mut result = slices
                .into_iter()
                .next()
                .ok_or_else(|| SimError::Snapshot {
                    detail: "sampled cell without representatives ran no item".to_string(),
                })?;
            result.sample = Some(SampleMeta {
                spec: self.sample,
                ..SampleMeta::default()
            });
            result
        } else {
            let mut stats = SimStats::new();
            for (rep, slice) in reps.iter().zip(&slices) {
                stats.merge_scaled(&slice.stats, rep.weight);
            }
            let len = |rep: &Representative| plan.profile.intervals[rep.interval].len_uops;
            let meta = SampleMeta {
                spec: self.sample,
                intervals_total: plan.profile.intervals.len() as u64,
                total_uops: plan.profile.total_uops(),
                simulated_uops: reps.iter().map(len).sum(),
                weights: reps
                    .iter()
                    .map(|rep| RepWeight {
                        interval: rep.interval as u64,
                        weight: rep.weight,
                        uops: len(rep),
                    })
                    .collect(),
            };
            RunResult {
                workload: spec.workload,
                technique: spec.technique,
                energy: EnergyModel::default().evaluate(&stats, &spec.config),
                stats,
                deadlocked: slices.iter().any(|s| s.deadlocked),
                cache_hit: slices.iter().all(|s| s.cache_hit),
                watchdog: slices.iter().find_map(|s| s.watchdog.clone()),
                sample: Some(meta),
            }
        };
        if let Some((key, desc)) = &self.store {
            let disk = crate::stores::env_cache_dir();
            crate::stores::result_store(*key, desc, &result, disk.as_deref());
        }
        Ok(result)
    }
}

/// Runs `spec` in sampled mode (`spec.sample` must be set) without the
/// result cache: profiles the functional execution into intervals,
/// clusters them, simulates one representative per cluster in detail and
/// extrapolates a full-run [`RunResult`] carrying [`SampleMeta`]. This is
/// [`run_one`] on the spec with [`RunSpec::use_result_cache`] off, so
/// neither the estimate nor its slices touch the cache.
///
/// # Errors
///
/// Returns [`SimError`] when the spec carries no sampling parameters,
/// requests tracing or zero clusters or interval size, and propagates the
/// first failure in slice order (validation errors, watchdog aborts as
/// data, panics as [`SimError::Panic`]).
pub fn run_sampled(spec: &RunSpec) -> Result<RunResult, SimError> {
    if spec.sample.is_none() {
        return Err(SimError::Snapshot {
            detail: "run_sampled called without sampling parameters".to_string(),
        });
    }
    run_one(&spec.clone().with_result_cache(false))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use pre_runahead::Technique;
    use pre_workloads::Workload;

    #[test]
    fn sample_spec_grammar_roundtrips() {
        assert_eq!(
            SampleSpec::parse("n=4,interval=5000").unwrap(),
            SampleSpec::new(4, 5_000)
        );
        assert_eq!(
            SampleSpec::parse("interval=2000").unwrap(),
            SampleSpec::new(SampleSpec::DEFAULT_CLUSTERS, 2_000)
        );
        assert_eq!(
            SampleSpec::parse("n=3").unwrap(),
            SampleSpec::new(3, SampleSpec::DEFAULT_INTERVAL_UOPS)
        );
        assert_eq!(SampleSpec::parse("").unwrap(), SampleSpec::default());
        let spec = SampleSpec::new(6, 12_000);
        assert_eq!(spec.label().parse::<SampleSpec>().unwrap(), spec);
        assert!(SampleSpec::parse("n=0").is_err());
        assert!(SampleSpec::parse("interval=x").is_err());
        assert!(SampleSpec::parse("clusters=4").is_err());
        assert!(SampleSpec::parse("n4").is_err());
    }

    #[test]
    fn sample_meta_coverage_and_summary() {
        let meta = SampleMeta {
            spec: SampleSpec::new(2, 100),
            intervals_total: 10,
            total_uops: 1_000,
            simulated_uops: 200,
            weights: vec![
                RepWeight {
                    interval: 1,
                    weight: 7,
                    uops: 100,
                },
                RepWeight {
                    interval: 8,
                    weight: 3,
                    uops: 100,
                },
            ],
        };
        assert_eq!(meta.intervals_simulated(), 2);
        assert!((meta.coverage() - 0.2).abs() < 1e-12);
        let summary = meta.summary();
        assert!(summary.contains("K=2 of 10"), "{summary}");
        assert!(summary.contains("coverage=20.0%"), "{summary}");
        assert!(summary.contains("1×7"), "{summary}");
        assert_eq!(SampleMeta::default().coverage(), 0.0);
    }

    #[test]
    fn sampled_run_reports_metadata_and_reasonable_ipc() {
        let _stores = crate::stores::lock_stores();
        crate::stores::clear_stores();
        let spec = RunSpec::new(Workload::ComputeBound, Technique::OutOfOrder)
            .with_budget(20_000)
            .sampled(SampleSpec::new(3, 2_000));
        let sampled = run_sampled(&spec).expect("sampled run succeeds");
        let meta = sampled.sample.as_ref().expect("metadata attached");
        assert!(meta.intervals_simulated() >= 1);
        assert!(meta.intervals_total >= meta.intervals_simulated() as u64);
        assert!(meta.coverage() > 0.0 && meta.coverage() <= 1.0);
        assert_eq!(
            meta.weights.iter().map(|w| w.weight).sum::<u64>(),
            meta.intervals_total
        );
        // The extrapolated uop count matches the profiled total up to the
        // per-slice commit-batch overshoot (the core stops at >= max_uops).
        assert!(sampled.stats.committed_uops >= meta.total_uops);
        assert!(sampled.stats.committed_uops < meta.total_uops + meta.intervals_total * 8);

        let full = run_one(
            &RunSpec::new(Workload::ComputeBound, Technique::OutOfOrder).with_budget(20_000),
        )
        .expect("full run succeeds");
        assert!(full.sample.is_none());
        let err = (sampled.ipc() - full.ipc()).abs() / full.ipc();
        assert!(
            err < 0.05,
            "sampled IPC {:.4} vs full {:.4}: {:.2}% error",
            sampled.ipc(),
            full.ipc(),
            err * 100.0
        );
    }

    #[test]
    fn sampled_runs_are_deterministic_and_cache_cleanly() {
        let _stores = crate::stores::lock_stores();
        crate::stores::clear_stores();
        let spec = RunSpec::new(Workload::ComputeBound, Technique::Pre)
            .with_budget(12_000)
            .sampled(SampleSpec::new(2, 3_000))
            .with_result_cache(true);
        let a = run_one(&spec).expect("first run");
        let b = run_one(&spec).expect("second run");
        assert!(!a.cache_hit);
        assert!(b.cache_hit, "second sampled run is a cache hit");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.stats.to_kv(), b.stats.to_kv());
        assert_eq!(a.sample, b.sample);

        // A full (unsampled) run of the same cell caches independently.
        let full_spec = RunSpec::new(Workload::ComputeBound, Technique::Pre)
            .with_budget(12_000)
            .with_result_cache(true);
        let full = run_one(&full_spec).expect("full run");
        assert!(
            !full.cache_hit,
            "sampled entry must not shadow the full run"
        );
    }

    #[test]
    fn sampled_run_rejects_tracing() {
        let spec = RunSpec::new(Workload::ComputeBound, Technique::Pre)
            .with_budget(4_000)
            .sampled(SampleSpec::default())
            .with_trace(pre_trace::TraceSpec::default());
        assert!(matches!(run_sampled(&spec), Err(SimError::Trace(_))));
    }
}
