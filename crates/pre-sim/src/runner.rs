//! Running simulations: one (workload, technique) spec with [`run_one`], or
//! a batch of independent specs with [`run_batch`].

use crate::sample::{SampleMeta, SampleSpec};
use pre_core::OooCore;
use pre_energy::{EnergyBreakdown, EnergyModel};
use pre_model::config::SimConfig;
use pre_model::error::{SimError, WatchdogDiag};
use pre_model::stats::{SimStats, TerminationKind};
use pre_runahead::Technique;
use pre_trace::{TraceSession, TraceSpec, Tracer};
use pre_workloads::{Workload, WorkloadParams};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Specification of one simulation run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload to simulate.
    pub workload: Workload,
    /// The machine configuration (baseline or one of the runahead flavours).
    pub technique: Technique,
    /// The simulator configuration.
    pub config: SimConfig,
    /// Workload build parameters.
    pub params: WorkloadParams,
    /// Stop after this many committed micro-ops.
    pub max_uops: u64,
    /// Hard cycle limit (safety net).
    pub max_cycles: u64,
    /// Optional trace outputs: when set, [`run_one`] attaches a
    /// [`TraceSession`] writing the requested streams for this cell.
    pub trace: Option<TraceSpec>,
    /// Micro-ops of functional warm-up before detailed simulation. `0` is a
    /// cold start; anything else builds the core from a shared warm-up
    /// snapshot ([`crate::stores::snapshot_for`]), so every spec with the
    /// same (workload, params, warm-up) amortizes one warm-up execution.
    /// The committed-uop budget counts post-warm-up commits only.
    pub warmup_uops: u64,
    /// Warm-trace window for the warm-up snapshot: when set, the snapshot's
    /// cache/predictor warm trace covers only the final `warm_window` uops of
    /// the warm-up instead of all of it. Architectural state is unaffected.
    /// Sampled runs use this to fork mid-execution representatives cheaply.
    /// `None` (the default) traces the whole warm-up.
    pub warm_window: Option<u64>,
    /// Sampled-mode parameters: when set, [`run_one`] estimates the result
    /// via SimPoint-style interval sampling ([`crate::sample::run_sampled`])
    /// instead of simulating the whole budget in detail. The result then
    /// carries [`RunResult::sample`] metadata.
    pub sample: Option<SampleSpec>,
    /// Consult the result cache ([`crate::stores`]) before simulating and
    /// store the outcome after. Off by default so timing harnesses measure
    /// real simulations unless they opt in.
    pub use_result_cache: bool,
}

impl RunSpec {
    /// A run of `workload` under `technique` with the paper's Table 1
    /// configuration and the default evaluation budget.
    pub fn new(workload: Workload, technique: Technique) -> Self {
        RunSpec {
            workload,
            technique,
            config: SimConfig::haswell_like(),
            params: WorkloadParams::default(),
            max_uops: 300_000,
            max_cycles: 60_000_000,
            trace: None,
            warmup_uops: 0,
            warm_window: None,
            sample: None,
            use_result_cache: false,
        }
    }

    /// Overrides the committed-micro-op budget (the cycle limit scales with
    /// it).
    pub fn with_budget(mut self, max_uops: u64) -> Self {
        self.max_uops = max_uops;
        self.max_cycles = max_uops.saturating_mul(200).max(1_000_000);
        self
    }

    /// Overrides the simulator configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the workload parameters.
    pub fn with_params(mut self, params: WorkloadParams) -> Self {
        self.params = params;
        self
    }

    /// Requests trace outputs for this run (see [`TraceSpec`]).
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Requests `uops` of functional warm-up (snapshot-based) before
    /// detailed simulation.
    pub fn with_warmup(mut self, uops: u64) -> Self {
        self.warmup_uops = uops;
        self
    }

    /// Limits the warm-up snapshot's warm trace to the final `uops` of the
    /// warm-up (see [`RunSpec::warm_window`]).
    pub fn with_warm_window(mut self, uops: u64) -> Self {
        self.warm_window = Some(uops);
        self
    }

    /// Requests SimPoint-style interval sampling with the given parameters
    /// (see [`crate::sample::run_sampled`]).
    pub fn sampled(mut self, sample: SampleSpec) -> Self {
        self.sample = Some(sample);
        self
    }

    /// Opts this run into the result cache.
    pub fn with_result_cache(mut self, on: bool) -> Self {
        self.use_result_cache = on;
        self
    }

    /// The canonical file-name stem for this run's cell, e.g.
    /// `lbm-like_pre-emq`.
    pub fn cell_name(&self) -> String {
        cell_name(self.workload, self.technique)
    }
}

/// The canonical `<workload>_<technique>` cell name used for trace files
/// and progress output, e.g. `asm-chase-large_pre-emq`.
pub fn cell_name(workload: Workload, technique: Technique) -> String {
    format!(
        "{}_{}",
        workload.name(),
        technique.label().to_lowercase().replace('+', "-")
    )
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload that was simulated.
    pub workload: Workload,
    /// The technique that was simulated.
    pub technique: Technique,
    /// Raw simulation statistics.
    pub stats: SimStats,
    /// Energy breakdown computed by the default [`EnergyModel`].
    pub energy: EnergyBreakdown,
    /// Whether the run hit the deadlock watchdog (indicates a modelling bug).
    pub deadlocked: bool,
    /// `true` when this result came out of the result cache rather than a
    /// simulation (never serialized; a cached copy of a run is bit-identical
    /// to the run in every other field).
    pub cache_hit: bool,
    /// Watchdog diagnostics when the run deadlocked (never serialized; a
    /// cached copy of a watchdog run reconstructs a minimal diagnostic from
    /// its stats via [`RunResult::watchdog_error`]).
    pub watchdog: Option<Box<WatchdogDiag>>,
    /// Sampling metadata when this result was *extrapolated* from
    /// representative intervals rather than measured in full
    /// ([`crate::sample::run_sampled`]); `None` for measured runs. Reporting
    /// marks such results with `~`.
    pub sample: Option<SampleMeta>,
}

impl RunResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// How the run terminated (completed / cycle budget / watchdog).
    pub fn terminated(&self) -> TerminationKind {
        self.stats.terminated
    }

    /// For a deadlocked run, the [`SimError::Watchdog`] describing it (built
    /// from the captured diagnostics, or minimally from the stats for a
    /// cache hit). `None` when the run did not deadlock. Watchdog runs still
    /// carry their full stats, so callers choose between treating them as
    /// data (warning markers) or as failures (this error).
    pub fn watchdog_error(&self) -> Option<SimError> {
        if !self.deadlocked {
            return None;
        }
        let diag = self.watchdog.clone().unwrap_or_else(|| {
            Box::new(WatchdogDiag {
                cycle: self.stats.cycles,
                committed_uops: self.stats.committed_uops,
                ..WatchdogDiag::default()
            })
        });
        Some(SimError::Watchdog(diag))
    }
}

/// Runs one simulation: answered from the result cache when the spec opts
/// in (traced runs always simulate), otherwise simulated in full or, with
/// [`RunSpec::sample`], estimated by interval sampling.
///
/// # Errors
///
/// Returns [`SimError`] if the configuration or the generated program is
/// invalid, or if trace output cannot be written.
pub fn run_one(spec: &RunSpec) -> Result<RunResult, SimError> {
    if !spec.use_result_cache || spec.trace.is_some() {
        return run_uncached(spec);
    }
    let program = crate::stores::program_for(spec.workload, &spec.params);
    let (key, desc) = crate::stores::result_key(spec, &program);
    let disk = crate::stores::env_cache_dir();
    if let Some(hit) = crate::stores::result_lookup(key, &desc, disk.as_deref()) {
        return Ok(hit);
    }
    let result = run_uncached(spec)?;
    crate::stores::result_store(key, &desc, &result, disk.as_deref());
    Ok(result)
}

fn run_uncached(spec: &RunSpec) -> Result<RunResult, SimError> {
    if spec.sample.is_some() {
        return crate::sample::run_sampled(spec);
    }
    let Some(ts) = &spec.trace else {
        let program = crate::stores::program_for(spec.workload, &spec.params);
        let mut core = build_core(spec, &program)?;
        core.run(spec.max_uops, spec.max_cycles);
        return Ok(run_result(spec, &core));
    };
    let session =
        TraceSession::create(ts, &spec.cell_name()).map_err(|e| SimError::Trace(e.to_string()))?;
    let (result, tracer) = run_one_traced(spec, Box::new(session))?;
    let session = tracer.into_any().downcast::<TraceSession>().map_err(|_| {
        SimError::Trace("tracer returned by the core is not the attached session".to_string())
    })?;
    if let Some(e) = session.io_error() {
        return Err(SimError::Trace(e.to_string()));
    }
    Ok(result)
}

/// Runs one simulation with an explicit tracer attached, returning the
/// tracer afterwards so the caller can inspect what it collected (downcast
/// via [`Tracer::into_any`]).
///
/// # Errors
///
/// Returns [`SimError`] if the configuration or the generated program is
/// invalid.
pub fn run_one_traced(
    spec: &RunSpec,
    tracer: Box<dyn Tracer>,
) -> Result<(RunResult, Box<dyn Tracer>), SimError> {
    let program = crate::stores::program_for(spec.workload, &spec.params);
    let mut core = build_core(spec, &program)?;
    core.set_tracer(tracer);
    core.run(spec.max_uops, spec.max_cycles);
    let tracer = core
        .take_tracer()
        .ok_or_else(|| SimError::Trace("core lost the attached tracer".to_string()))?;
    Ok((run_result(spec, &core), tracer))
}

/// Builds the core for `spec`: cold when `warmup_uops` is 0, otherwise from
/// the shared warm-up snapshot and warmed state. Cold-with-warmup and
/// snapshot-forked runs go through this one path, so they are bit-identical
/// by construction.
fn build_core(spec: &RunSpec, program: &pre_model::Program) -> Result<OooCore, SimError> {
    if spec.warmup_uops == 0 {
        return OooCore::new(&spec.config, program, spec.technique).map_err(SimError::from);
    }
    let window = spec
        .warm_window
        .map_or(spec.warmup_uops, |w| w.min(spec.warmup_uops));
    let snap = crate::stores::snapshot_for_windowed(program, spec.warmup_uops, window);
    let warmed = crate::stores::warmed_for(&spec.config, program, spec.warmup_uops, window, &snap);
    OooCore::from_snapshot(&spec.config, program, spec.technique, &snap, &warmed)
        .map_err(SimError::from)
}

/// The [`RunResult`] of `spec` once `core` has finished running it.
fn run_result(spec: &RunSpec, core: &OooCore) -> RunResult {
    let stats = core.stats().clone();
    RunResult {
        workload: spec.workload,
        technique: spec.technique,
        energy: EnergyModel::default().evaluate(&stats, &spec.config),
        stats,
        deadlocked: core.deadlocked(),
        cache_hit: false,
        watchdog: core.watchdog_diag().map(Box::new),
        sample: None,
    }
}

/// Runs independent specs over the [`pre_par`] worker pool: the one
/// executor behind evaluation matrices, sweeps and `quick_check`.
///
/// Every attempt at spec `i` runs under `catch_unwind` (a panic becomes
/// [`SimError::Panic`]) after the `PRE_FAULT` cell hook
/// [`crate::fault::panic_if_cell_faulted`] for index `i`. A failed spec is retried
/// up to `max_retries` times. With `fail_fast`, specs not yet started once
/// any spec has failed for good are skipped as [`SimError::Skipped`] with
/// zero attempts; which ones is scheduling-dependent (deterministic under
/// `PRE_THREADS=1`). `progress(i, result)` fires as specs succeed, in
/// completion order.
///
/// Returns one `(outcome, attempts)` pair per spec, in spec order. Each
/// spec is deterministic and independent of its siblings, so a successful
/// result is bit-identical to a serial [`run_one`] of the same spec.
pub fn run_batch(
    specs: &[RunSpec],
    fail_fast: bool,
    max_retries: u32,
    progress: impl FnMut(usize, &RunResult) + Send,
) -> Vec<(Result<RunResult, SimError>, u32)> {
    let progress = Mutex::new(progress);
    let abort = AtomicBool::new(false);
    let attempts = max_retries.saturating_add(1);
    let indices: Vec<usize> = (0..specs.len()).collect();
    pre_par::par_map(&indices, |&i| {
        if fail_fast && abort.load(Ordering::Relaxed) {
            return (Err(SimError::Skipped), 0);
        }
        let mut error = SimError::Skipped;
        for attempt in 1..=attempts {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                crate::fault::panic_if_cell_faulted(i);
                run_one(&specs[i])
            }));
            match outcome {
                Ok(Ok(result)) => {
                    // The callback only renders progress output, so a
                    // poisoned lock is safe to recover.
                    (*progress.lock().unwrap_or_else(PoisonError::into_inner))(i, &result);
                    return (Ok(result), attempt);
                }
                Ok(Err(e)) => error = e,
                Err(payload) => {
                    error = SimError::Panic {
                        detail: pre_par::panic_message(payload.as_ref()),
                    }
                }
            }
        }
        abort.store(true, Ordering::Relaxed);
        (Err(error), attempts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders_apply_overrides() {
        let spec = RunSpec::new(Workload::LbmLike, Technique::Pre)
            .with_budget(1_000)
            .with_params(WorkloadParams::short(10));
        assert_eq!(spec.max_uops, 1_000);
        assert_eq!(spec.params.iterations, 10);
        assert!(spec.max_cycles >= 1_000_000);
    }

    #[test]
    fn compute_bound_run_produces_stats_and_energy() {
        let spec = RunSpec::new(Workload::ComputeBound, Technique::OutOfOrder).with_budget(5_000);
        let result = run_one(&spec).expect("valid run");
        assert!(!result.deadlocked);
        assert!(result.stats.committed_uops >= 5_000);
        assert!(result.ipc() > 0.5);
        assert!(result.energy_mj() > 0.0);
        assert_eq!(result.terminated(), TerminationKind::Completed);
        assert!(result.watchdog.is_none());
        assert!(result.watchdog_error().is_none());
    }
}
