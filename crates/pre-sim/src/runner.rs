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
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

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
    /// via SimPoint-style interval sampling ([`crate::sample`])
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

    /// Requests SimPoint-style interval sampling with the given parameters
    /// (see [`crate::sample`]).
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
    /// ([`crate::sample`]); `None` for measured runs. Reporting
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
/// [`RunSpec::sample`], estimated by interval sampling as a batch of one
/// (its slices still share the worker pool).
///
/// # Errors
///
/// Returns [`SimError`] if the configuration or the generated program is
/// invalid, or if trace output cannot be written.
pub fn run_one(spec: &RunSpec) -> Result<RunResult, SimError> {
    if spec.sample.is_none() {
        return run_plain(spec);
    }
    let (outcome, _) = schedule(std::slice::from_ref(spec), false, 0, false, |_, _| {})
        .0
        .pop()
        .expect("one outcome per spec");
    outcome
}

/// [`run_one`] of a spec without sampling parameters.
fn run_plain(spec: &RunSpec) -> Result<RunResult, SimError> {
    cached(spec, || run_uncached(spec))
}

/// `spec`'s result from the result cache when the spec opts in (traced
/// runs never do); otherwise `compute`s it and, when opted in, stores it.
fn cached(
    spec: &RunSpec,
    compute: impl FnOnce() -> Result<RunResult, SimError>,
) -> Result<RunResult, SimError> {
    if !spec.use_result_cache || spec.trace.is_some() {
        return compute();
    }
    let program = crate::stores::program_for(spec.workload, &spec.params);
    let (key, desc) = crate::stores::result_key(spec, &program);
    let disk = crate::stores::env_cache_dir();
    if let Some(hit) = crate::stores::result_lookup(key, &desc, disk.as_deref()) {
        return Ok(hit);
    }
    let result = compute()?;
    crate::stores::result_store(key, &desc, &result, disk.as_deref());
    Ok(result)
}

fn run_uncached(spec: &RunSpec) -> Result<RunResult, SimError> {
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
    let snap = crate::stores::snapshot_for(
        program,
        spec.warmup_uops,
        window,
        crate::stores::env_cache_dir().as_deref(),
    );
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

/// One cell of a batch, expanded into the work items that compute it.
#[derive(Debug)]
pub(crate) struct Cell {
    /// The cell's items; never empty.
    pub(crate) items: Vec<Item>,
    /// How the items' results fold into the cell's result.
    pub(crate) fold: Fold,
}

/// One work item of a batch.
#[derive(Debug)]
pub(crate) enum Item {
    /// A run without sampling parameters, as [`run_one`] runs it.
    Run(Box<RunSpec>),
    /// A plain spec answered from its own result-cache entry, or else by
    /// the result its SST leader proved equal to it (see [`run_batch`]).
    Sibling(Box<RunSpec>, Box<RunResult>),
    /// The cell's outcome, known at expansion: a result-cache hit or a
    /// rejected spec.
    Answer(Box<Result<RunResult, SimError>>),
}

/// How a [`Cell`]'s item results fold into its result.
#[derive(Debug)]
pub(crate) enum Fold {
    /// The cell's one item is its result.
    Plain,
    /// Slices of a sampled spec, extrapolated into an estimate.
    Sampled(crate::sample::Estimate),
}

impl Cell {
    /// A plain spec: one item.
    fn plain(spec: &RunSpec) -> Cell {
        Cell {
            items: vec![Item::Run(Box::new(spec.clone()))],
            fold: Fold::Plain,
        }
    }

    /// A cell whose outcome is already known.
    pub(crate) fn answered(outcome: Result<RunResult, SimError>) -> Cell {
        Cell {
            items: vec![Item::Answer(Box::new(outcome))],
            fold: Fold::Plain,
        }
    }

    /// The cell's result from its items' outcomes (in item order): the
    /// first error fails the cell.
    fn fold(
        &self,
        spec: &RunSpec,
        outcomes: impl IntoIterator<Item = Result<RunResult, SimError>>,
    ) -> Result<RunResult, SimError> {
        let mut parts = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
        match &self.fold {
            Fold::Plain => Ok(parts.pop().expect("a plain cell has one item")),
            Fold::Sampled(estimate) => estimate.fold(spec, parts),
        }
    }
}

/// Every spec of a batch as a [`Cell`], in spec order.
fn expand(specs: &[RunSpec]) -> Vec<Cell> {
    specs
        .iter()
        .zip(crate::sample::expand(specs))
        .map(|(spec, cell)| cell.unwrap_or_else(|| Cell::plain(spec)))
        .collect()
}

/// One attempt at `spec` on the calling thread: expanded afresh, its items
/// run in order.
fn run_serially(spec: &RunSpec) -> Result<RunResult, SimError> {
    let cell = expand(std::slice::from_ref(spec))
        .pop()
        .expect("one cell per spec");
    cell.fold(spec, cell.items.iter().map(run_item))
}

/// Runs `f`, turning a panic into [`SimError::Panic`].
pub(crate) fn caught<T>(f: impl FnOnce() -> T) -> Result<T, SimError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| SimError::Panic {
        detail: pre_par::panic_message(payload.as_ref()),
    })
}

/// Runs one item; a panic becomes [`SimError::Panic`].
fn run_item(item: &Item) -> Result<RunResult, SimError> {
    caught(|| match item {
        Item::Run(spec) => run_plain(spec),
        Item::Sibling(spec, result) => cached(spec, || Ok((**result).clone())),
        Item::Answer(outcome) => (**outcome).clone(),
    })
    .and_then(|outcome| outcome)
}

/// Fires the `PRE_FAULT` cell hook for cell `index`, returning its panic.
fn cell_fault(index: usize) -> Option<SimError> {
    caught(|| crate::fault::panic_if_cell_faulted(index)).err()
}

/// Locks `m`, recovering from poisoning: slots are only ever assigned or
/// taken whole, and the progress callback only renders output.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Tally::phase`] before any item of the cell has begun.
const FRESH: u8 = 0;
/// [`Tally::phase`] once the cell's first attempt has begun.
const RUNNING: u8 = 1;
/// [`Tally::phase`] of a cell skipped by fail-fast.
const SKIPPED: u8 = 2;

/// The bookkeeping of one cell while its items run on the pool.
#[derive(Debug)]
struct Tally {
    /// [`FRESH`], [`RUNNING`] or [`SKIPPED`]; the first item of the cell to
    /// begin decides.
    phase: AtomicU8,
    /// The panic of the `PRE_FAULT` cell hook, if it fired: it fails the
    /// attempt ahead of any item outcome.
    fault: OnceLock<SimError>,
    /// Each item's outcome, in item order, until the cell is folded.
    outcomes: Vec<Mutex<Option<Result<RunResult, SimError>>>>,
    /// Items not yet finished; the item that brings it to zero folds the
    /// cell.
    pending: AtomicUsize,
}

/// Runs independent specs as one batch: the executor behind evaluation
/// matrices, sweeps and `quick_check`.
///
/// The batch is scheduled by work item, not by cell, in four phases:
///
/// 1. **Plans.** The sampling plan of every distinct (program, sampling
///    parameters, budget, skip) key is resolved concurrently, one pool job
///    per key; a sampled spec answered from the result cache never builds
///    its plan.
/// 2. **Items.** Each spec expands into items: a plain spec is one item, a
///    sampled spec one item per representative slice (or one unsampled
///    item when it has no representatives), and a cache hit or rejected
///    spec one item carrying its answer. All items of the batch but the
///    SST siblings of phase 4 go through one [`pre_par`] pool call, each
///    under `catch_unwind` (a panic becomes [`SimError::Panic`]). On more
///    than one worker the items launch longest predicted first: cells in
///    decreasing size of their program's initial data image, a cell's
///    items together and in order, ties in spec order. On one worker they
///    launch in spec order. Outcomes are returned in spec order either way.
/// 3. **Fold.** A spec is folded when its last item finishes: the first
///    error in item order fails it; otherwise sampled slices are
///    extrapolated and the estimate is cached.
/// 4. **SST siblings.** Plain specs (no sampling, no trace) equal in every
///    field but `config.runahead.sst_entries` form a group, whose largest
///    SST (ties: first in spec order) is its *leader*. Only leaders run in
///    phase 2; the other members run afterwards on a second pool call. A
///    member answers from its own result-cache entry when it has one
///    (damaged entries are still quarantined). Otherwise it takes the
///    leader's statistics when the leader succeeded with
///    `sst_evictions == 0`, `sst_inserts` is at most the member's SST and
///    the member's configuration validates; its energy is recomputed from
///    its own configuration and it is stored under its own key. This is
///    exact, not an estimate: the table reads its capacity only when an
///    insert finds it full, and entries leave it only by eviction, so a
///    run without evictions never took that branch and never held more
///    than `sst_inserts` PCs. Any capacity of at least `sst_inserts`
///    therefore executes the same cycles
///    ([`pre_runahead::StallingSliceTable`]). A member
///    outside that certificate is simulated in the second pool call, which
///    launches its items in the same order as phase 2.
///
/// An attempt at spec `i` starts with the `PRE_FAULT` cell hook
/// `fault::panic_if_cell_faulted` for index `i`, once per attempt
/// and never per slice, SST siblings included. A failed spec is retried up
/// to `max_retries` times, each retry on the worker that folded it, its
/// items run there in order (a sibling's retry simulates it). With
/// `fail_fast`, specs none of whose items have started once any spec has
/// failed for good are skipped as [`SimError::Skipped`] with zero attempts;
/// which ones is scheduling-dependent (deterministic under
/// `PRE_THREADS=1`, where specs launch in spec order). `progress(i, result)`
/// fires as specs succeed, in completion order.
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
    schedule(specs, fail_fast, max_retries, true, progress).0
}

/// A spec's final outcome and the attempts it took.
type Attempted = (Result<RunResult, SimError>, u32);

/// [`run_batch`], with the `PRE_FAULT` cell hook armed only when
/// `cell_faults` is set ([`run_one`] of a sampled spec runs without it).
/// Also returns how many specs were answered from an SST sibling's result.
pub(crate) fn schedule(
    specs: &[RunSpec],
    fail_fast: bool,
    max_retries: u32,
    cell_faults: bool,
    progress: impl FnMut(usize, &RunResult) + Send,
) -> (Vec<Attempted>, usize) {
    let leaders = sst_leaders(specs);
    let mut cells = expand(specs);
    let progress = Mutex::new(progress);
    let abort = AtomicBool::new(false);
    let attempts = max_retries.saturating_add(1);
    let fault = |c: usize| if cell_faults { cell_fault(c) } else { None };

    // One pool call over the items of the cells `which`, launched longest
    // predicted first, returning each cell's `(index, (outcome, attempts))`.
    let run = |cells: &[Cell], which: &[usize]| {
        let tallies: Vec<Tally> = cells.iter().map(Tally::new).collect();
        let workers = pre_par::num_threads(which.len());
        let items = launch_order(specs, cells, which, workers);
        pre_par::par_map(&items, |&(c, i)| {
            let (cell, tally) = (&cells[c], &tallies[c]);
            let begin = if fail_fast && abort.load(SeqCst) {
                SKIPPED
            } else {
                RUNNING
            };
            let phase = match tally.phase.compare_exchange(FRESH, begin, SeqCst, SeqCst) {
                // This item begins the cell's first attempt.
                Ok(_) if begin == RUNNING => {
                    if let Some(e) = fault(c) {
                        let _ = tally.fault.set(e);
                    }
                    RUNNING
                }
                Ok(_) => SKIPPED,
                Err(decided) => decided,
            };
            if phase == RUNNING && tally.fault.get().is_none() {
                *lock(&tally.outcomes[i]) = Some(run_item(&cell.items[i]));
            }
            if tally.pending.fetch_sub(1, SeqCst) != 1 {
                return None;
            }
            // The last item of the cell: fold it, retrying on this worker.
            if phase == SKIPPED {
                return Some((c, (Err(SimError::Skipped), 0)));
            }
            let mut outcome = match tally.fault.get() {
                Some(e) => Err(e.clone()),
                None => cell.fold(
                    &specs[c],
                    tally.outcomes.iter().map(|slot| {
                        lock(slot)
                            .take()
                            .expect("every item of a running cell without a fault has run")
                    }),
                ),
            };
            let mut attempt = 1;
            while outcome.is_err() && attempt < attempts {
                attempt += 1;
                outcome = fault(c).map_or_else(|| run_serially(&specs[c]), Err);
            }
            match &outcome {
                Ok(result) => (*lock(&progress))(c, result),
                Err(_) => abort.store(true, SeqCst),
            }
            Some((c, (outcome, attempt)))
        })
        .into_iter()
        .flatten()
        .collect::<Vec<_>>()
    };

    let (members, firsts): (Vec<usize>, Vec<usize>) =
        (0..specs.len()).partition(|&c| leaders[c].is_some());
    let mut outcomes: Vec<Option<Attempted>> = specs.iter().map(|_| None).collect();
    for (c, outcome) in run(&cells, &firsts) {
        outcomes[c] = Some(outcome);
    }
    for &c in &members {
        let Some((Ok(leader), _)) = leaders[c].and_then(|l| outcomes[l].as_ref()) else {
            continue;
        };
        if let Some(result) = from_sst_leader(&specs[c], leader) {
            let item = Item::Sibling(Box::new(specs[c].clone()), Box::new(result));
            cells[c].items = vec![item];
        }
    }
    for (c, outcome) in run(&cells, &members) {
        outcomes[c] = Some(outcome);
    }
    // A sibling's first attempt either hits its own cache entry or takes
    // the leader's result; a retry simulates it.
    let from_siblings = members
        .iter()
        .filter(|&&c| matches!(cells[c].items[..], [Item::Sibling(..)]))
        .filter(|&&c| matches!(&outcomes[c], Some((Ok(r), 1)) if !r.cache_hit))
        .count();
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every cell is folded or skipped exactly once"))
        .collect();
    (outcomes, from_siblings)
}

/// The `(cell, item)` pairs of the cells `which` (in spec order) of
/// `cells`, the expansion of `specs`, in launch order on `workers` workers:
/// by the [`predicted_cost`] of the cell's spec, largest first.
///
/// The pool hands out items in slice order, so a long cell launched last
/// leaves the other workers idle while it finishes; launching it first lets
/// the short cells fill in behind it. The sort is stable on the one
/// per-cell key, so a cell's items stay contiguous and in item order (a
/// sampled cell's slices in slice order), and cells of equal cost keep
/// spec order: the techniques of one program, adjacent in a matrix, stay
/// together. That locality matters: a variant that sorted sampled slices
/// by technique across programs raised the peak resident set of a 2-worker
/// sampled mixed matrix at 2 M micro-ops per cell from 184–208 to 235–261
/// MiB in five paired runs, with no wall-clock gain; keeping each
/// program's items together stayed at 190–201 MiB.
///
/// One worker keeps spec order: order cannot shorten a serial pass, and
/// `PRE_THREADS=1` stays the serial reference for fail-fast skip sets and
/// progress order.
fn launch_order(
    specs: &[RunSpec],
    cells: &[Cell],
    which: &[usize],
    workers: usize,
) -> Vec<(usize, usize)> {
    let mut items: Vec<(usize, usize)> = which
        .iter()
        .flat_map(|&c| (0..cells[c].items.len()).map(move |i| (c, i)))
        .collect();
    if workers > 1 {
        items.sort_by_cached_key(|&(c, _)| std::cmp::Reverse(predicted_cost(&specs[c])));
    }
    items
}

/// The predicted host cost of `spec`'s cell: the size of its program's
/// initial data image. On the mixed matrix the four largest images
/// (`asm-chase-large`, mcf, omnetpp, gcc) are also the four workloads with
/// the most host time. The program comes from the memoized
/// [`crate::stores::program_for`], which the cell's run asks for anyway;
/// it is built, not hashed.
fn predicted_cost(spec: &RunSpec) -> usize {
    crate::stores::program_for(spec.workload, &spec.params)
        .initial_mem
        .len()
}

impl Tally {
    /// A fresh tally for `cell`.
    fn new(cell: &Cell) -> Tally {
        Tally {
            phase: AtomicU8::new(FRESH),
            fault: OnceLock::new(),
            outcomes: cell.items.iter().map(|_| Mutex::default()).collect(),
            pending: AtomicUsize::new(cell.items.len()),
        }
    }
}

/// The SST leader of each spec of `specs` that has one (see [`run_batch`]):
/// `Some(l)` for a member whose group's leader is spec `l`, `None` for
/// leaders and for specs without siblings. Compares specs only, so it
/// builds and hashes no program.
fn sst_leaders(specs: &[RunSpec]) -> Vec<Option<usize>> {
    // Each group: its specs' configuration with the SST size zeroed, and
    // their indices.
    let mut groups: Vec<(SimConfig, Vec<usize>)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if spec.sample.is_some() || spec.trace.is_some() {
            continue;
        }
        let mut config = spec.config.clone();
        config.runahead.sst_entries = 0;
        match groups
            .iter_mut()
            .find(|(c, g)| same_run(&specs[g[0]], spec) && *c == config)
        {
            Some((_, group)) => group.push(i),
            None => groups.push((config, vec![i])),
        }
    }
    let mut leaders = vec![None; specs.len()];
    for (_, group) in groups.iter().filter(|(_, g)| g.len() > 1) {
        let sst = |i: usize| specs[i].config.runahead.sst_entries;
        let leader = group
            .iter()
            .copied()
            .min_by_key(|&i| (std::cmp::Reverse(sst(i)), i))
            .expect("a group has specs");
        for &i in group.iter().filter(|&&i| i != leader) {
            leaders[i] = Some(leader);
        }
    }
    leaders
}

/// `true` when plain specs `a` and `b` (no sampling, no trace) are equal
/// in every field but `config`.
fn same_run(a: &RunSpec, b: &RunSpec) -> bool {
    // Destructured so that a new field of `RunSpec` must be judged here.
    let RunSpec {
        workload,
        technique,
        config: _,
        params,
        max_uops,
        max_cycles,
        trace: _,
        warmup_uops,
        warm_window,
        sample: _,
        use_result_cache,
    } = a;
    *workload == b.workload
        && *technique == b.technique
        && *params == b.params
        && *max_uops == b.max_uops
        && *max_cycles == b.max_cycles
        && *warmup_uops == b.warmup_uops
        && *warm_window == b.warm_window
        && *use_result_cache == b.use_result_cache
}

/// `member`'s result taken from its SST leader's, when the leader's own
/// counters certify that the member's SST would have executed identically
/// (see [`run_batch`]); `None` otherwise. A deadlocked leader answered
/// from the cache carries no watchdog diagnostics to pass on, so it
/// certifies nothing.
fn from_sst_leader(member: &RunSpec, leader: &RunResult) -> Option<RunResult> {
    let stats = &leader.stats;
    let exact = stats.sst_evictions == 0
        && stats.sst_inserts <= member.config.runahead.sst_entries as u64
        && leader.deadlocked == leader.watchdog.is_some()
        && member.config.validate().is_ok();
    exact.then(|| RunResult {
        energy: EnergyModel::default().evaluate(stats, &member.config),
        cache_hit: false,
        ..leader.clone()
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

    /// The cells of `items`, one entry per run of equal cells.
    fn cell_runs(items: &[(usize, usize)]) -> Vec<usize> {
        let mut runs: Vec<usize> = items.iter().map(|&(c, _)| c).collect();
        runs.dedup();
        runs
    }

    /// The workload with the largest initial data image.
    fn chase_large() -> Workload {
        "asm-chase-large".parse().expect("a suite workload")
    }

    fn small(workload: Workload, technique: Technique) -> RunSpec {
        RunSpec::new(workload, technique).with_budget(8_000)
    }

    #[test]
    fn launch_order_starts_the_largest_image_first() {
        // Spec order puts the largest image (asm-chase-large) last and a
        // smaller one (mcf) in the middle.
        let specs = [
            small(Workload::ComputeBound, Technique::OutOfOrder),
            small(Workload::McfLike, Technique::OutOfOrder),
            small(Workload::McfLike, Technique::Pre),
            small(chase_large(), Technique::Runahead),
        ];
        let cells = expand(&specs);
        let all: Vec<usize> = (0..specs.len()).collect();
        let order = launch_order(&specs, &cells, &all, 2);
        assert_eq!(cell_runs(&order), [3, 1, 2, 0]);
        // The second pool call over a subset uses the same order.
        assert_eq!(cell_runs(&launch_order(&specs, &cells, &[0, 3], 2)), [3, 0]);
    }

    #[test]
    fn launch_order_keeps_spec_order_among_equal_keys() {
        // Synthetic streaming kernels have no initial data image: every key
        // is 0.
        let specs = [
            small(Workload::LbmLike, Technique::Pre),
            small(Workload::MilcLike, Technique::OutOfOrder),
            small(Workload::LbmLike, Technique::OutOfOrder),
            small(Workload::ComputeBound, Technique::Pre),
        ];
        let cells = expand(&specs);
        let all: Vec<usize> = (0..specs.len()).collect();
        assert_eq!(cell_runs(&launch_order(&specs, &cells, &all, 4)), all);
    }

    #[test]
    fn launch_order_keeps_a_sampled_cells_slices_contiguous_and_in_order() {
        let specs = [
            small(Workload::ComputeBound, Technique::Pre),
            small(Workload::McfLike, Technique::Pre).sampled(SampleSpec::new(3, 1_000)),
            small(chase_large(), Technique::OutOfOrder),
        ];
        let cells = expand(&specs);
        let slices = cells[1].items.len();
        assert!(slices > 1, "the sampled cell has {slices} items");
        let order = launch_order(&specs, &cells, &[0, 1, 2], 2);
        let sampled: Vec<(usize, usize)> = (0..slices).map(|i| (1, i)).collect();
        assert_eq!(order[0], (2, 0));
        assert_eq!(order[1..=slices], sampled[..]);
        assert_eq!(order[slices + 1], (0, 0));
    }

    #[test]
    fn launch_order_on_one_worker_is_spec_order() {
        let specs = [
            small(Workload::ComputeBound, Technique::OutOfOrder),
            small(Workload::McfLike, Technique::Pre).sampled(SampleSpec::new(3, 1_000)),
            small(chase_large(), Technique::Runahead),
        ];
        let cells = expand(&specs);
        let order = launch_order(&specs, &cells, &[0, 1, 2], 1);
        let spec_order: Vec<(usize, usize)> = (0..specs.len())
            .flat_map(|c| (0..cells[c].items.len()).map(move |i| (c, i)))
            .collect();
        assert_eq!(order, spec_order);
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
