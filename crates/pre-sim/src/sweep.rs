//! Declarative parameter-grid sweeps.
//!
//! A [`Sweep`] names a base run (workload, technique, budget, warm-up) plus
//! a list of [`GridDim`]s — parameter dimensions with value lists, parsed
//! from the `dim=v1,v2,...` grammar the `sweep` binary accepts. The
//! Cartesian product of the dimensions expands into one [`RunSpec`] per
//! point; points run over the `pre-par` worker pool, share warm-up
//! snapshots ([`crate::stores`]) and consult the result cache, so a repeated
//! sweep answers from cache and a cold sweep pays warm-up once instead of
//! once per point.
//!
//! Points are failure-isolated: [`Sweep::run_isolated`] completes the whole
//! grid even when individual points error or panic, reporting the failed
//! cells (with their [`SimError`]s and attempt counts) alongside the
//! successful ones. `max_retries` re-runs a failed point; `fail_fast` stops
//! launching new points after the first failure.
//!
//! The EMQ/SST sensitivity experiments (`report emq` and `report sst`, built
//! on `experiments::{emq,sst}_sensitivity`) are one-dimensional sweeps over
//! this engine.

// Failure isolation is this module's contract: a grid point must never take
// down the sweep, so every fallible step here surfaces a SimError instead of
// unwinding.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::runner::{schedule, RunResult, RunSpec};
use crate::sample::SampleSpec;
use pre_model::config::SimConfig;
use pre_model::error::SimError;
use pre_model::json::{self, Value};
use pre_runahead::Technique;
use pre_workloads::{Workload, WorkloadParams};
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

/// One sweepable configuration parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepDim {
    /// `emq` — extended micro-op queue entries (`runahead.emq_entries`).
    Emq,
    /// `sst` — stalling slice table entries (`runahead.sst_entries`).
    Sst,
    /// `rob` — reorder-buffer entries (`core.rob_entries`).
    Rob,
    /// `iq` — issue-queue entries (`core.iq_entries`).
    Iq,
    /// `prdq` — precise register deallocation queue entries
    /// (`runahead.prdq_entries`).
    Prdq,
    /// `min-free-int` — runahead entry gate on free integer registers
    /// (`runahead.min_free_int_regs`).
    MinFreeInt,
    /// `min-free-fp` — runahead entry gate on free FP registers
    /// (`runahead.min_free_fp_regs`).
    MinFreeFp,
    /// `l3-kb` — L3 capacity in KiB (`l3.size_bytes`; geometry change, forks
    /// the warmed cache state).
    L3Kb,
    /// `min-ra-cycles` — minimum expected runahead interval
    /// (`runahead.min_expected_runahead_cycles`).
    MinRaCycles,
}

/// All sweepable dimensions (for usage messages).
pub const ALL_DIMS: [SweepDim; 9] = [
    SweepDim::Emq,
    SweepDim::Sst,
    SweepDim::Rob,
    SweepDim::Iq,
    SweepDim::Prdq,
    SweepDim::MinFreeInt,
    SweepDim::MinFreeFp,
    SweepDim::L3Kb,
    SweepDim::MinRaCycles,
];

impl SweepDim {
    /// The grammar name of the dimension (`emq`, `sst`, `rob`, …).
    pub fn name(&self) -> &'static str {
        match self {
            SweepDim::Emq => "emq",
            SweepDim::Sst => "sst",
            SweepDim::Rob => "rob",
            SweepDim::Iq => "iq",
            SweepDim::Prdq => "prdq",
            SweepDim::MinFreeInt => "min-free-int",
            SweepDim::MinFreeFp => "min-free-fp",
            SweepDim::L3Kb => "l3-kb",
            SweepDim::MinRaCycles => "min-ra-cycles",
        }
    }

    /// Applies `value` to `cfg`.
    pub(crate) fn apply(&self, cfg: &mut SimConfig, value: u64) {
        match self {
            SweepDim::Emq => cfg.runahead.emq_entries = value as usize,
            SweepDim::Sst => cfg.runahead.sst_entries = value as usize,
            SweepDim::Rob => cfg.core.rob_entries = value as usize,
            SweepDim::Iq => cfg.core.iq_entries = value as usize,
            SweepDim::Prdq => cfg.runahead.prdq_entries = value as usize,
            SweepDim::MinFreeInt => cfg.runahead.min_free_int_regs = value as usize,
            SweepDim::MinFreeFp => cfg.runahead.min_free_fp_regs = value as usize,
            SweepDim::L3Kb => cfg.l3.size_bytes = value as usize * 1024,
            SweepDim::MinRaCycles => cfg.runahead.min_expected_runahead_cycles = value,
        }
    }
}

impl fmt::Display for SweepDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a sweep dimension or grid specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGridError(String);

impl fmt::Display for ParseGridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseGridError {}

impl FromStr for SweepDim {
    type Err = ParseGridError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ALL_DIMS
            .iter()
            .copied()
            .find(|d| d.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = ALL_DIMS.iter().map(|d| d.name()).collect();
                ParseGridError(format!(
                    "unknown sweep dimension `{s}` (expected one of {})",
                    names.join(", ")
                ))
            })
    }
}

/// One sweep dimension with its value list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridDim {
    /// The parameter being swept.
    pub dim: SweepDim,
    /// The values it takes (one sweep point per combination across
    /// dimensions).
    pub values: Vec<u64>,
}

impl FromStr for GridDim {
    type Err = ParseGridError;

    /// Parses `dim=v1,v2,...` (e.g. `emq=192,384,768`). A value listed
    /// twice is an error: it would run the same point twice.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, list) = s
            .split_once('=')
            .ok_or_else(|| ParseGridError(format!("grid entry `{s}` is not `dim=v1,v2,...`")))?;
        let dim = SweepDim::from_str(name.trim())?;
        let values: Vec<u64> = list
            .split(',')
            .map(|v| v.trim().parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|_| ParseGridError(format!("bad value list in `{s}`")))?;
        if values.is_empty() {
            return Err(ParseGridError(format!("empty value list in `{s}`")));
        }
        if let Some(v) = values
            .iter()
            .enumerate()
            .find_map(|(i, v)| values[..i].contains(v).then_some(v))
        {
            return Err(ParseGridError(format!("value {v} listed twice in `{s}`")));
        }
        Ok(GridDim { dim, values })
    }
}

/// A compact `dim=value dim=value` label (`base` for an empty grid), shared
/// by points and failures.
fn settings_label(settings: &[(SweepDim, u64)]) -> String {
    if settings.is_empty() {
        return "base".to_string();
    }
    let pairs: Vec<String> = settings.iter().map(|(d, v)| format!("{d}={v}")).collect();
    pairs.join(" ")
}

/// One point of an expanded sweep: the dimension settings, the spec they
/// produce, and (after running) the result.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// `(dimension, value)` pairs, in grid order.
    pub settings: Vec<(SweepDim, u64)>,
    /// The fully-resolved run specification.
    pub spec: RunSpec,
    /// The run's outcome.
    pub result: RunResult,
}

impl SweepPoint {
    /// A compact `dim=value dim=value` label for tables and progress output.
    pub fn label(&self) -> String {
        settings_label(&self.settings)
    }
}

/// One failed sweep point: its grid position and settings, the final
/// [`SimError`] (a caught panic surfaces as [`SimError::Panic`]), and how
/// many attempts were made. Points skipped by `fail_fast` carry
/// [`SimError::Skipped`] and zero attempts.
#[derive(Debug)]
pub struct SweepFailure {
    /// Index of the point in grid order.
    pub index: usize,
    /// `(dimension, value)` pairs, in grid order.
    pub settings: Vec<(SweepDim, u64)>,
    /// The error of the final attempt.
    pub error: SimError,
    /// Attempts made (`1 + retries`; 0 when skipped by fail-fast).
    pub attempts: u32,
}

impl SweepFailure {
    /// A compact `dim=value dim=value` label for tables and reports.
    pub fn label(&self) -> String {
        settings_label(&self.settings)
    }
}

/// The outcome of a failure-isolated sweep: the successful points (grid
/// order) plus every failure. A failed or panicking point never takes down
/// the grid.
#[derive(Debug)]
pub struct SweepRun {
    /// The successful points, in grid order.
    pub points: Vec<SweepPoint>,
    /// The failed (or fail-fast-skipped) points, in grid order.
    pub failures: Vec<SweepFailure>,
    /// Total points in the grid (`points.len() + failures.len()`).
    pub total: usize,
    /// Points answered from the simulation of a larger-SST sibling rather
    /// than simulated or read from the cache (see
    /// [`run_batch`](crate::runner::run_batch)).
    pub from_sst_siblings: usize,
}

impl SweepRun {
    /// All points, or the first real failure in grid order (preferring a
    /// concrete error over a fail-fast [`SimError::Skipped`] marker).
    ///
    /// # Errors
    ///
    /// Returns the first failed point's error when any point failed.
    pub fn into_result(mut self) -> Result<Vec<SweepPoint>, SimError> {
        if self.failures.is_empty() {
            return Ok(self.points);
        }
        let pos = self
            .failures
            .iter()
            .position(|f| !matches!(f.error, SimError::Skipped))
            .unwrap_or(0);
        Err(self.failures.swap_remove(pos).error)
    }
}

/// A declarative parameter sweep: one base run expanded over the Cartesian
/// product of its grid dimensions.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The workload every point simulates.
    pub workload: Workload,
    /// The technique every point simulates.
    pub technique: Technique,
    /// The base configuration the grid perturbs.
    pub base_config: SimConfig,
    /// Workload build parameters.
    pub params: WorkloadParams,
    /// Committed-uop budget per point (post-warm-up).
    pub budget: u64,
    /// Warm-up micro-ops shared across all points (0 = cold).
    pub warmup_uops: u64,
    /// Whether points consult/populate the result cache.
    pub use_result_cache: bool,
    /// When set, every point is *estimated* by SimPoint-style interval
    /// sampling ([`crate::sample`]) instead of simulated in
    /// full; the JSON report records the sampling parameters and marks the
    /// points.
    pub sample: Option<SampleSpec>,
    /// Stop launching new points after the first failure. Already-running
    /// points finish; points not yet started are reported as
    /// [`SimError::Skipped`]. Which points were already running is
    /// scheduling-dependent: on a pool the longest predicted points launch
    /// first, and under `PRE_THREADS=1` points launch in grid order, so the
    /// skip set is deterministic there.
    pub fail_fast: bool,
    /// Re-run a failed point up to this many extra times before recording
    /// the failure. Retries cover panics too (see
    /// [`run_batch`](crate::runner::run_batch)); a deterministic failure
    /// simply fails every attempt.
    pub max_retries: u32,
    /// The grid dimensions.
    pub dims: Vec<GridDim>,
}

impl Sweep {
    /// A sweep of `workload` under `technique` from the paper's Table 1
    /// configuration, with no grid (one base point) until dimensions are
    /// added.
    pub fn new(workload: Workload, technique: Technique) -> Self {
        Sweep {
            workload,
            technique,
            base_config: SimConfig::haswell_like(),
            params: WorkloadParams::default(),
            budget: 300_000,
            warmup_uops: 0,
            use_result_cache: false,
            sample: None,
            fail_fast: false,
            max_retries: 0,
            dims: Vec::new(),
        }
    }

    /// Adds a grid dimension.
    pub fn with_dim(mut self, dim: GridDim) -> Self {
        self.dims.push(dim);
        self
    }

    /// Number of points the grid expands to.
    pub fn num_points(&self) -> usize {
        self.dims.iter().map(|d| d.values.len()).product()
    }

    /// Expands the Cartesian product into per-point specs (grid order:
    /// first dimension slowest, last fastest).
    pub fn specs(&self) -> Vec<(Vec<(SweepDim, u64)>, RunSpec)> {
        let mut points: Vec<Vec<(SweepDim, u64)>> = vec![Vec::new()];
        for grid_dim in &self.dims {
            points = points
                .into_iter()
                .flat_map(|prefix| {
                    grid_dim.values.iter().map(move |&v| {
                        let mut settings = prefix.clone();
                        settings.push((grid_dim.dim, v));
                        settings
                    })
                })
                .collect();
        }
        points
            .into_iter()
            .map(|settings| {
                let mut config = self.base_config.clone();
                for &(dim, value) in &settings {
                    dim.apply(&mut config, value);
                }
                let mut spec = RunSpec::new(self.workload, self.technique)
                    .with_budget(self.budget)
                    .with_config(config)
                    .with_params(self.params)
                    .with_warmup(self.warmup_uops)
                    .with_result_cache(self.use_result_cache);
                spec.sample = self.sample;
                (settings, spec)
            })
            .collect()
    }

    /// Runs every point through [`run_batch`](crate::runner::run_batch)
    /// with failure isolation: a point that errors or panics (after
    /// `max_retries` extra attempts) is recorded in [`SweepRun::failures`]
    /// while the rest of the grid completes and stays bit-identical to a
    /// clean run. With `fail_fast`, points not yet launched when the first
    /// failure lands are skipped; points launch longest predicted first on
    /// a pool and in grid order on one worker. `progress` fires as points
    /// complete; the returned points are in grid order. [`SweepRun::into_result`] gives
    /// all-or-nothing behaviour. Points of an SST-size dimension share one
    /// simulation whenever the largest size's table never evicted.
    pub fn run_isolated(&self, mut progress: impl FnMut(&SweepPoint) + Send) -> SweepRun {
        let (settings, specs): (Vec<_>, Vec<_>) = self.specs().into_iter().unzip();
        let (outcomes, from_sst_siblings) = schedule(
            &specs,
            self.fail_fast,
            self.max_retries,
            true,
            |i, result| {
                progress(&SweepPoint {
                    settings: settings[i].clone(),
                    spec: specs[i].clone(),
                    result: result.clone(),
                });
            },
        );
        let total = outcomes.len();
        let mut points = Vec::new();
        let mut failures = Vec::new();
        let grid = outcomes.into_iter().zip(settings).zip(specs);
        for (index, (((outcome, attempts), settings), spec)) in grid.enumerate() {
            match outcome {
                Ok(result) => points.push(SweepPoint {
                    settings,
                    spec,
                    result,
                }),
                Err(error) => failures.push(SweepFailure {
                    index,
                    settings,
                    error,
                    attempts,
                }),
            }
        }
        SweepRun {
            points,
            failures,
            total,
            from_sst_siblings,
        }
    }
}

/// Fraction of points answered from the result cache.
pub fn cache_hit_rate(points: &[SweepPoint]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let hits = points.iter().filter(|p| p.result.cache_hit).count();
    hits as f64 / points.len() as f64
}

/// Renders sweep results as JSON, including the failed points (with their
/// errors and attempt counts) so a partially-failed sweep is still
/// machine-readable.
pub fn sweep_json(
    sweep: &Sweep,
    points: &[SweepPoint],
    failures: &[SweepFailure],
    elapsed_secs: f64,
) -> String {
    let hits = points.iter().filter(|p| p.result.cache_hit).count();
    let sample = sweep.sample.map_or(Value::Null, |s| s.to_string().into());
    let failures_json = failures.iter().map(|f| {
        Value::obj([
            ("index", f.index.into()),
            ("label", f.label().into()),
            ("attempts", f.attempts.into()),
            ("error", f.error.to_string().into()),
        ])
    });
    let points_json = points.iter().map(|p| {
        let settings = p.settings.iter().map(|&(dim, v)| (dim.name(), v.into()));
        Value::obj(settings.chain([
            ("ipc", p.result.ipc().into()),
            ("sim_cycles", p.result.stats.cycles.into()),
            ("committed_uops", p.result.stats.committed_uops.into()),
            ("energy_mj", p.result.energy_mj().into()),
            ("cache_hit", p.result.cache_hit.into()),
            ("deadlocked", p.result.deadlocked.into()),
            ("sampled", p.result.sample.is_some().into()),
        ]))
    });
    json::write(&Value::obj([
        ("workload", sweep.workload.name().into()),
        ("technique", sweep.technique.label().into()),
        ("budget", sweep.budget.into()),
        ("warmup", sweep.warmup_uops.into()),
        ("sample", sample),
        ("elapsed_secs", elapsed_secs.into()),
        ("num_points", points.len().into()),
        ("failed_points", failures.len().into()),
        ("cache_hits", hits.into()),
        ("cache_hit_rate", cache_hit_rate(points).into()),
        ("failures", Value::Arr(failures_json.collect())),
        ("points", Value::Arr(points_json.collect())),
    ]))
}

/// Renders sweep results as CSV (one row per point, one column per
/// dimension plus the headline metrics). Failed points have no metrics and
/// are deliberately absent — consumers needing them read the JSON report.
pub fn sweep_csv(sweep: &Sweep, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    for grid_dim in &sweep.dims {
        let _ = write!(out, "{},", grid_dim.dim);
    }
    out.push_str("ipc,sim_cycles,committed_uops,energy_mj,cache_hit,deadlocked\n");
    for p in points {
        for (_, value) in &p.settings {
            let _ = write!(out, "{value},");
        }
        let _ = writeln!(
            out,
            "{:.6},{},{},{:.6},{},{}",
            p.result.ipc(),
            p.result.stats.cycles,
            p.result.stats.committed_uops,
            p.result.energy_mj(),
            p.result.cache_hit,
            p.result.deadlocked
        );
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn grid_parsing_and_errors() {
        let g: GridDim = "emq=192,384,768".parse().expect("parses");
        assert_eq!(g.dim, SweepDim::Emq);
        assert_eq!(g.values, vec![192, 384, 768]);
        assert!("emq".parse::<GridDim>().is_err());
        assert!("emq=".parse::<GridDim>().is_err());
        assert!("emq=a,b".parse::<GridDim>().is_err());
        assert!("nope=1,2".parse::<GridDim>().is_err());
        let spaced: GridDim = " sst = 4 , 8 ".parse().expect("tolerates spaces");
        assert_eq!(spaced.values, vec![4, 8]);
    }

    #[test]
    fn grid_rejects_a_value_listed_twice() {
        let err = "sst=16,64,16".parse::<GridDim>().unwrap_err();
        assert!(err.to_string().contains("16 listed twice"), "{err}");
        assert!("sst=16, 16".parse::<GridDim>().is_err());
        assert!("sst=16,64".parse::<GridDim>().is_ok());
    }

    #[test]
    fn cartesian_expansion_applies_settings() {
        let sweep = Sweep::new(Workload::LbmLike, Technique::PreEmq)
            .with_dim("emq=192,768".parse().unwrap())
            .with_dim("rob=128,192,256".parse().unwrap());
        assert_eq!(sweep.num_points(), 6);
        let specs = sweep.specs();
        assert_eq!(specs.len(), 6);
        // First dimension slowest: the first three points share emq=192.
        for (settings, spec) in &specs[..3] {
            assert_eq!(settings[0], (SweepDim::Emq, 192));
            assert_eq!(spec.config.runahead.emq_entries, 192);
        }
        let (settings, spec) = &specs[5];
        assert_eq!(settings[1], (SweepDim::Rob, 256));
        assert_eq!(spec.config.core.rob_entries, 256);
        assert_eq!(spec.config.runahead.emq_entries, 768);
        // Un-swept parameters keep the base value.
        assert_eq!(
            spec.config.runahead.sst_entries,
            SimConfig::haswell_like().runahead.sst_entries
        );
    }

    #[test]
    fn every_dim_applies_to_its_field() {
        let mut cfg = SimConfig::haswell_like();
        for dim in ALL_DIMS {
            dim.apply(&mut cfg, 64);
        }
        assert_eq!(cfg.runahead.emq_entries, 64);
        assert_eq!(cfg.runahead.sst_entries, 64);
        assert_eq!(cfg.core.rob_entries, 64);
        assert_eq!(cfg.core.iq_entries, 64);
        assert_eq!(cfg.runahead.prdq_entries, 64);
        assert_eq!(cfg.runahead.min_free_int_regs, 64);
        assert_eq!(cfg.runahead.min_free_fp_regs, 64);
        assert_eq!(cfg.l3.size_bytes, 64 * 1024);
        assert_eq!(cfg.runahead.min_expected_runahead_cycles, 64);
    }

    #[test]
    fn empty_grid_is_one_base_point() {
        let sweep = Sweep::new(Workload::ComputeBound, Technique::OutOfOrder);
        assert_eq!(sweep.num_points(), 1);
        let specs = sweep.specs();
        assert_eq!(specs.len(), 1);
        assert!(specs[0].0.is_empty());
    }

    #[test]
    fn json_and_csv_shapes() {
        let mut sweep = Sweep::new(Workload::ComputeBound, Technique::OutOfOrder)
            .with_dim("rob=128,192".parse().unwrap());
        sweep.budget = 2_000;
        sweep.params = WorkloadParams::short(50);
        sweep.base_config = SimConfig::small_for_tests();
        let points = sweep.run_isolated(|_| {}).into_result().expect("runs");
        assert_eq!(points.len(), 2);
        let json = sweep_json(&sweep, &points, &[], 1.25);
        assert!(json.contains("\"num_points\": 2"));
        assert!(json.contains("\"failed_points\": 0"));
        assert!(json.contains("\"rob\": 128"));
        assert!(!json.contains("\"cells\""));
        let doc = json::parse(&json).expect("sweep JSON parses");
        let parsed_points = doc.get("points").and_then(Value::as_array).expect("points");
        assert_eq!(
            doc.get("num_points").and_then(Value::as_i64),
            Some(parsed_points.len() as i64)
        );
        assert_eq!(parsed_points[0].get("rob"), Some(&Value::Int(128)));
        assert_eq!(
            parsed_points[1].get("sim_cycles"),
            Some(&Value::from(points[1].result.stats.cycles))
        );
        assert_eq!(doc.get("elapsed_secs"), Some(&Value::Float(1.25)));
        assert_eq!(doc.get("sample"), Some(&Value::Null));
        let csv = sweep_csv(&sweep, &points);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "rob,ipc,sim_cycles,committed_uops,energy_mj,cache_hit,deadlocked"
        );
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(points[0].label(), "rob=128");
    }

    #[test]
    fn sweep_json_reports_failures() {
        let sweep = Sweep::new(Workload::ComputeBound, Technique::OutOfOrder)
            .with_dim("rob=128,192".parse().unwrap());
        let failures = vec![SweepFailure {
            index: 1,
            settings: vec![(SweepDim::Rob, 192)],
            error: SimError::Panic {
                detail: "boom \"quoted\"".to_string(),
            },
            attempts: 2,
        }];
        let json = sweep_json(&sweep, &[], &failures, 0.5);
        assert!(json.contains("\"failed_points\": 1"));
        assert!(json.contains("\"label\": \"rob=192\""));
        assert!(json.contains("\"attempts\": 2"));
        assert!(json.contains("boom \\\"quoted\\\""));
        let doc = json::parse(&json).expect("sweep JSON parses");
        let failure = &doc
            .get("failures")
            .and_then(Value::as_array)
            .expect("failures")[0];
        assert_eq!(failure.get("index"), Some(&Value::Int(1)));
        assert_eq!(
            failure.get("error").and_then(Value::as_str),
            Some(failures[0].error.to_string().as_str())
        );
    }

    #[test]
    fn into_result_prefers_real_failures_over_skips() {
        let run = SweepRun {
            points: Vec::new(),
            failures: vec![
                SweepFailure {
                    index: 0,
                    settings: Vec::new(),
                    error: SimError::Skipped,
                    attempts: 0,
                },
                SweepFailure {
                    index: 1,
                    settings: Vec::new(),
                    error: SimError::Panic {
                        detail: "real".to_string(),
                    },
                    attempts: 1,
                },
            ],
            total: 2,
            from_sst_siblings: 0,
        };
        assert!(!run.failures.is_empty());
        assert!(matches!(
            run.into_result(),
            Err(SimError::Panic { detail }) if detail == "real"
        ));
    }
}
