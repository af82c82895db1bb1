//! Experiment definitions: one function per figure/table/statistic of the
//! paper, shared by the `pre-sim` binaries.

use crate::matrix::{EvaluationMatrix, MatrixRun};
use crate::report::{pct, pct_improvement, Table};
use crate::runner::{run_one, RunResult, RunSpec};
use crate::sample::SampleSpec;
use crate::sweep::{GridDim, Sweep, SweepDim};
use pre_model::config::SimConfig;
use pre_model::error::SimError;
use pre_runahead::Technique;
use pre_trace::TraceSpec;
use pre_workloads::Workload;
use std::fmt;
use std::iter::Peekable;
use std::str::FromStr;

/// Default committed-micro-op budget per (workload, technique) run used by
/// the experiment binaries. The paper simulates 1-billion-instruction
/// SimPoints; this reproduction uses a budget that keeps the full evaluation
/// matrix tractable on one machine while still covering thousands of
/// runahead intervals per run. Override with the `max_uops` argument of each
/// binary.
pub const DEFAULT_EVAL_UOPS: u64 = 300_000;

/// Which workload set an experiment binary runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Suite {
    /// The synthetic memory-intensive SPEC-2006-like suite (the default,
    /// matching the paper's figures).
    #[default]
    Synthetic,
    /// The assembled RISC-V kernel suite (`pre-asm`): real programs.
    Asm,
    /// Both suites in one matrix.
    Mixed,
}

impl Suite {
    /// The workloads this suite runs, in figure order.
    pub fn workloads(&self) -> Vec<Workload> {
        match self {
            Suite::Synthetic => Workload::MEMORY_INTENSIVE.to_vec(),
            Suite::Asm => Workload::ASM_SUITE.to_vec(),
            Suite::Mixed => {
                let mut all = Workload::MEMORY_INTENSIVE.to_vec();
                all.extend(Workload::ASM_SUITE);
                all
            }
        }
    }

    /// A reduced, representative workload subset for smoke binaries
    /// (`quick_check`) and quick statistics: the synthetic suite keeps the
    /// five behaviourally distinct workloads; the asm suite is small enough
    /// to run whole.
    pub(crate) fn quick_workloads(&self) -> Vec<Workload> {
        match self {
            Suite::Synthetic => vec![
                Workload::LibquantumLike,
                Workload::LbmLike,
                Workload::MilcLike,
                Workload::McfLike,
                Workload::ComputeBound,
            ],
            Suite::Asm => Workload::ASM_SUITE.to_vec(),
            Suite::Mixed => {
                let mut all = Suite::Synthetic.quick_workloads();
                all.extend(Workload::ASM_SUITE);
                all
            }
        }
    }

    /// Every (workload, technique) cell of this suite's full matrix in
    /// canonical order: workload-major, techniques in [`Technique::ALL`]
    /// order. All binaries iterating the matrix share this iterator so
    /// their cell orderings agree.
    pub fn cells(&self) -> impl Iterator<Item = (Workload, Technique)> {
        Self::cells_of(self.workloads())
    }

    /// The cells of the reduced `Suite::quick_workloads` matrix, in the
    /// same canonical order.
    pub fn quick_cells(&self) -> impl Iterator<Item = (Workload, Technique)> {
        Self::cells_of(self.quick_workloads())
    }

    fn cells_of(workloads: Vec<Workload>) -> impl Iterator<Item = (Workload, Technique)> {
        workloads
            .into_iter()
            .flat_map(|w| Technique::ALL.iter().map(move |&t| (w, t)))
    }

    /// Short name used on the command line.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Suite::Synthetic => "synthetic",
            Suite::Asm => "asm",
            Suite::Mixed => "mixed",
        }
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown suite name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSuiteError(String);

impl fmt::Display for ParseSuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown suite `{}` (expected synthetic|asm|mixed)",
            self.0
        )
    }
}

impl std::error::Error for ParseSuiteError {}

impl FromStr for Suite {
    type Err = ParseSuiteError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "synthetic" | "spec" => Ok(Suite::Synthetic),
            "asm" | "riscv" => Ok(Suite::Asm),
            "mixed" | "all" => Ok(Suite::Mixed),
            _ => Err(ParseSuiteError(s.to_string())),
        }
    }
}

/// A flag of the shared experiment command line. A binary that cannot
/// honour one refuses it through [`CliArgs::only`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--suite synthetic|asm|mixed`
    Suite,
    /// `--warmup <uops>`
    Warmup,
    /// `--trace <spec>`
    Trace,
    /// `--sample [n=K,interval=N]`
    Sample,
}

impl Flag {
    /// Every flag, for the binaries that honour them all.
    pub const ALL: [Flag; 4] = [Flag::Suite, Flag::Warmup, Flag::Trace, Flag::Sample];

    fn from_key(key: &str) -> Option<Flag> {
        Flag::ALL.into_iter().find(|f| f.key() == key)
    }

    fn key(self) -> &'static str {
        match self {
            Flag::Suite => "--suite",
            Flag::Warmup => "--warmup",
            Flag::Trace => "--trace",
            Flag::Sample => "--sample",
        }
    }
}

/// Common command-line arguments of the experiment binaries:
/// `<binary> [--suite synthetic|asm|mixed] [--warmup <uops>] [--trace <spec>]
/// [--sample [n=K,interval=N]] [name]... [max_uops]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    /// Which workload suite to run.
    pub suite: Suite,
    /// Committed-micro-op budget per run.
    pub budget: u64,
    /// Micro-ops of functional warm-up before detailed simulation
    /// (`--warmup <uops>`; 0 = cold start). Warm-up snapshots are shared
    /// across the cells of one invocation, so the warm-up executes once per
    /// workload.
    pub warmup: u64,
    /// Trace outputs requested with `--trace <spec>` (see
    /// [`TraceSpec`] for the spec grammar). `None` when tracing is off.
    pub trace: Option<TraceSpec>,
    /// Sampled-mode parameters requested with `--sample [n=K,interval=N]`
    /// (see [`SampleSpec`] for the grammar). When set, every cell is
    /// estimated by SimPoint-style interval sampling instead of a full
    /// detailed run, and reported numbers are marked `~`.
    pub sample: Option<SampleSpec>,
    /// The positional arguments other than the budget, in order: a report
    /// name, or `debug_stats`'s workload and technique.
    pub names: Vec<String>,
    /// The flags given, in command-line order.
    pub flags: Vec<Flag>,
}

impl CliArgs {
    /// Returns these arguments when they use no flag outside `accepted` and
    /// at most `max_names` names.
    ///
    /// # Errors
    ///
    /// Names the first refused flag or surplus name.
    pub fn only(self, accepted: &[Flag], max_names: usize) -> Result<Self, String> {
        if let Some(flag) = self.flags.iter().find(|f| !accepted.contains(f)) {
            return Err(format!("{} is not accepted here", flag.key()));
        }
        if let Some(extra) = self.names.get(max_names) {
            return Err(format!("unrecognized argument `{extra}`"));
        }
        Ok(self)
    }
}

/// Parses a `--sample` spec, with a message suitable for printing.
///
/// # Errors
///
/// Returns the spec's parse error.
pub fn parse_sample(value: &str) -> Result<SampleSpec, String> {
    value.parse().map_err(|e| format!("bad --sample: {e}"))
}

/// Reads the optional value of a bare `--sample` flag from `args`: the next
/// argument is the spec only when it looks like one (contains `=` and is not
/// itself a flag), so `--sample 60000` keeps the budget and `--sample
/// --warmup=500` keeps the flag. Shared with the `sweep` binary.
///
/// # Errors
///
/// Returns the spec's parse error.
pub fn sample_value<I: Iterator<Item = String>>(
    args: &mut Peekable<I>,
) -> Result<SampleSpec, String> {
    match args.next_if(|next| next.contains('=') && !next.starts_with("--")) {
        Some(value) => parse_sample(&value),
        None => Ok(SampleSpec::default()),
    }
}

/// Parses `[--suite <name>] [--warmup <uops>] [--trace <spec>] [--sample
/// [n=K,interval=N]] [name]... [max_uops]` from an argument iterator. Flags
/// take their value as the next argument or after `=`; `--sample` with no
/// value uses [`SampleSpec::default`]. A numeric positional is the budget,
/// any other is a name.
///
/// # Errors
///
/// Returns a message suitable for printing when a flag is unknown or
/// malformed, or the budget is given twice.
pub(crate) fn parse_cli<I: IntoIterator<Item = String>>(
    args: I,
    default_budget: u64,
) -> Result<CliArgs, String> {
    let mut cli = CliArgs {
        suite: Suite::default(),
        budget: default_budget,
        warmup: 0,
        trace: None,
        sample: None,
        names: Vec::new(),
        flags: Vec::new(),
    };
    let mut budget_given = false;
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            match arg.parse() {
                Ok(_) if budget_given => return Err(format!("unrecognized argument `{arg}`")),
                Ok(budget) => {
                    cli.budget = budget;
                    budget_given = true;
                }
                Err(_) => cli.names.push(arg),
            }
            continue;
        }
        let (key, inline) = match arg.split_once('=') {
            Some((key, value)) => (key, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let flag = Flag::from_key(key).ok_or_else(|| format!("unrecognized argument `{arg}`"))?;
        cli.flags.push(flag);
        if flag == Flag::Sample {
            cli.sample = Some(match inline {
                Some(value) => parse_sample(&value)?,
                None => sample_value(&mut args)?,
            });
            continue;
        }
        let value = match inline {
            Some(value) => value,
            None => args
                .next()
                .ok_or_else(|| format!("{key} requires a value"))?,
        };
        match flag {
            Flag::Suite => cli.suite = value.parse().map_err(|e: ParseSuiteError| e.to_string())?,
            Flag::Warmup => {
                cli.warmup = value
                    .parse()
                    .map_err(|_| format!("bad --warmup value `{value}`"))?;
            }
            Flag::Trace => cli.trace = Some(value.parse().map_err(|e| format!("{e}"))?),
            Flag::Sample => unreachable!("handled above"),
        }
    }
    Ok(cli)
}

/// Parses the process command line with `parse_cli` and hands the result
/// to `interpret`, the binary's own reading of it (which flags and names it
/// accepts, see [`CliArgs::only`]). `--help` prints `usage` and exits 0; a
/// command line that fails to parse, or that `interpret` refuses, prints the
/// error and `usage` and exits 2.
pub fn cli_from_args<T>(
    usage: &str,
    default_budget: u64,
    interpret: impl FnOnce(CliArgs) -> Result<T, String>,
) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage.trim_end());
        std::process::exit(0);
    }
    match parse_cli(args, default_budget).and_then(interpret) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{}", usage.trim_end());
            std::process::exit(2);
        }
    }
}

/// Runs the evaluation matrix described by parsed [`CliArgs`], honouring
/// `--suite`, `--warmup`, `--trace` (the trace
/// spec, when present, is applied to every cell; each cell writes its own
/// files named after [`crate::runner::cell_name`]) and `--sample`. Cells
/// consult the result cache, so a repeated invocation (with `PRE_CACHE_DIR`
/// set, or within one process) answers unchanged cells without simulating;
/// traced cells always simulate.
///
/// Failure-isolated: a cell that errors or panics is reported in
/// [`MatrixRun::failures`] while every other cell still contributes its
/// result, so one broken cell degrades the report instead of aborting the
/// evaluation. [`MatrixRun::into_result`] recovers all-or-nothing behaviour.
pub fn run_suite_matrix_cli_isolated(
    cli: &CliArgs,
    progress: impl FnMut(&RunResult) + Send,
) -> MatrixRun {
    EvaluationMatrix::run_specs_isolated(&suite_matrix_specs(cli, cli.suite.cells()), progress)
}

/// One result-cached spec per (workload, technique) cell, in the given
/// order, with the budget, warm-up, trace and sampling options of `cli`.
/// `full_eval` passes [`Suite::cells`]; `quick_check` passes
/// [`Suite::quick_cells`].
pub fn suite_matrix_specs(
    cli: &CliArgs,
    cells: impl IntoIterator<Item = (Workload, Technique)>,
) -> Vec<RunSpec> {
    cells
        .into_iter()
        .map(|(workload, technique)| {
            let mut spec = RunSpec::new(workload, technique)
                .with_budget(cli.budget)
                .with_warmup(cli.warmup)
                .with_result_cache(true);
            spec.trace.clone_from(&cli.trace);
            spec.sample = cli.sample;
            spec
        })
        .collect()
}

/// `~` when the cell's result was extrapolated by sampling, so estimated
/// numbers are never mistaken for measured ones in the rendered tables.
fn est_marker(result: Option<&RunResult>) -> &'static str {
    match result.and_then(|r| r.sample.as_ref()) {
        Some(_) => "~",
        None => "",
    }
}

/// `~` when any of `technique`'s cells in the matrix is extrapolated (the
/// aggregate rows inherit the marker from their inputs).
fn est_marker_any(matrix: &EvaluationMatrix, technique: Technique) -> &'static str {
    if matrix
        .results()
        .iter()
        .any(|r| r.technique == technique && r.sample.is_some())
    {
        "~"
    } else {
        ""
    }
}

/// Builds the Figure 2 table (performance normalized to the out-of-order
/// baseline) from an evaluation matrix.
pub fn fig2_table(matrix: &EvaluationMatrix) -> Table {
    let mut table = Table::new(
        "Figure 2 — performance normalized to OoO (IPC ratio)",
        &["workload", "RA", "RA-buffer", "PRE", "PRE+EMQ"],
    );
    for workload in matrix.workloads() {
        let cell = |t: Technique| {
            // `~` marks extrapolated (sampled) cells.
            let est = est_marker(matrix.get(workload, t));
            matrix
                .speedup(workload, t)
                .map(|s| format!("{est}{s:.3}"))
                .unwrap_or_else(|| "-".into())
        };
        table.add_row(vec![
            workload.name().to_string(),
            cell(Technique::Runahead),
            cell(Technique::RunaheadBuffer),
            cell(Technique::Pre),
            cell(Technique::PreEmq),
        ]);
    }
    let gmean = |t: Technique| {
        format!(
            "{}{:.3}",
            est_marker_any(matrix, t),
            matrix.gmean_speedup(t)
        )
    };
    table.add_row(vec![
        "gmean".into(),
        gmean(Technique::Runahead),
        gmean(Technique::RunaheadBuffer),
        gmean(Technique::Pre),
        gmean(Technique::PreEmq),
    ]);
    table
}

/// Summary lines comparing the measured average improvements against the
/// numbers the paper reports for Figure 2.
pub fn fig2_summary(matrix: &EvaluationMatrix) -> String {
    let mut out = String::new();
    let paper = [
        (Technique::Runahead, 14.5),
        (Technique::RunaheadBuffer, 14.4),
        (Technique::Pre, 35.5),
        (Technique::PreEmq, 28.6),
    ];
    for (technique, paper_pct) in paper {
        let measured = matrix.gmean_speedup(technique);
        out.push_str(&format!(
            "{:<10} paper: +{:.1} %   measured: {}\n",
            technique.label(),
            paper_pct,
            pct_improvement(measured)
        ));
    }
    out
}

/// Builds the Figure 3 table (energy savings relative to the baseline).
pub fn fig3_table(matrix: &EvaluationMatrix) -> Table {
    let mut table = Table::new(
        "Figure 3 — energy savings relative to OoO (core + DRAM)",
        &["workload", "RA", "RA-buffer", "PRE", "PRE+EMQ"],
    );
    for workload in matrix.workloads() {
        let cell = |t: Technique| {
            let est = est_marker(matrix.get(workload, t));
            matrix
                .energy_savings(workload, t)
                .map(|s| format!("{est}{}", pct(s)))
                .unwrap_or_else(|| "-".into())
        };
        table.add_row(vec![
            workload.name().to_string(),
            cell(Technique::Runahead),
            cell(Technique::RunaheadBuffer),
            cell(Technique::Pre),
            cell(Technique::PreEmq),
        ]);
    }
    let mean = |t: Technique| {
        format!(
            "{}{}",
            est_marker_any(matrix, t),
            pct(matrix.mean_energy_savings(t))
        )
    };
    table.add_row(vec![
        "mean".into(),
        mean(Technique::Runahead),
        mean(Technique::RunaheadBuffer),
        mean(Technique::Pre),
        mean(Technique::PreEmq),
    ]);
    table
}

/// Summary lines comparing measured energy savings against the paper's
/// Figure 3 numbers.
pub fn fig3_summary(matrix: &EvaluationMatrix) -> String {
    let mut out = String::new();
    let paper = [
        (Technique::Runahead, -2.7),
        (Technique::RunaheadBuffer, 0.0),
        (Technique::Pre, 6.1),
        (Technique::PreEmq, 7.2),
    ];
    for (technique, paper_pct) in paper {
        out.push_str(&format!(
            "{:<10} paper: {:+.1} %   measured: {}\n",
            technique.label(),
            paper_pct,
            pct(matrix.mean_energy_savings(technique))
        ));
    }
    out
}

/// Renders Table 1 (the baseline configuration) from the live `SimConfig`
/// defaults, so the printed table always matches what the simulator actually
/// uses.
pub fn table1() -> Table {
    let cfg = SimConfig::haswell_like();
    let mut t = Table::new(
        "Table 1 — baseline out-of-order core",
        &["parameter", "value"],
    );
    let rows: Vec<(&str, String)> = vec![
        ("frequency", format!("{:.2} GHz", cfg.core.freq_ghz)),
        ("ROB", cfg.core.rob_entries.to_string()),
        (
            "issue/load/store queue",
            format!(
                "{}/{}/{}",
                cfg.core.iq_entries, cfg.core.lq_entries, cfg.core.sq_entries
            ),
        ),
        ("width", cfg.core.dispatch_width.to_string()),
        (
            "front-end depth",
            format!("{} stages", cfg.core.frontend_depth),
        ),
        (
            "register file",
            format!(
                "{} int, {} fp",
                cfg.core.int_phys_regs, cfg.core.fp_phys_regs
            ),
        ),
        (
            "SST",
            format!("{} entry, fully assoc, LRU", cfg.runahead.sst_entries),
        ),
        ("PRDQ size", cfg.runahead.prdq_entries.to_string()),
        ("EMQ size", cfg.runahead.emq_entries.to_string()),
        (
            "L1 I-cache",
            format!(
                "{} KB, assoc {}, {} cyc",
                cfg.l1i.size_bytes / 1024,
                cfg.l1i.assoc,
                cfg.l1i.latency
            ),
        ),
        (
            "L1 D-cache",
            format!(
                "{} KB, assoc {}, {} cyc",
                cfg.l1d.size_bytes / 1024,
                cfg.l1d.assoc,
                cfg.l1d.latency
            ),
        ),
        (
            "private L2",
            format!(
                "{} KB, assoc {}, {} cyc",
                cfg.l2.size_bytes / 1024,
                cfg.l2.assoc,
                cfg.l2.latency
            ),
        ),
        (
            "shared L3",
            format!(
                "{} KB, assoc {}, {} cyc",
                cfg.l3.size_bytes / 1024,
                cfg.l3.assoc,
                cfg.l3.latency
            ),
        ),
        (
            "memory",
            format!(
                "DDR3-1600, {:.0} MHz, ranks {}, banks {}, page {} KB, tRP-tCL-tRCD {}-{}-{}",
                cfg.dram.bus_mhz,
                cfg.dram.ranks,
                cfg.dram.banks,
                cfg.dram.page_bytes / 1024,
                cfg.dram.t_rp,
                cfg.dram.t_cl,
                cfg.dram.t_rcd
            ),
        ),
    ];
    for (k, v) in rows {
        t.add_row(vec![k.to_string(), v]);
    }
    t
}

/// Stat A (§2.4): the per-invocation flush/refill penalty of flush-style
/// runahead: the analytic 8 + 192/4 = 56 cycles, plus the measured average
/// from a traditional-runahead run.
pub fn stat_flush_overhead(max_uops: u64) -> Result<Table, SimError> {
    let cfg = SimConfig::haswell_like();
    let analytic =
        cfg.core.frontend_depth as u64 + (cfg.core.rob_entries / cfg.core.dispatch_width) as u64;
    let mut table = Table::new(
        "Stat A — flush/refill penalty per runahead invocation",
        &[
            "workload",
            "invocations",
            "avg penalty (cycles)",
            "analytic (cycles)",
        ],
    );
    for workload in [
        Workload::LbmLike,
        Workload::LibquantumLike,
        Workload::MilcLike,
    ] {
        let result = run_one(&RunSpec::new(workload, Technique::Runahead).with_budget(max_uops))?;
        let exits = result.stats.runahead_exits.max(1);
        table.add_row(vec![
            workload.name().into(),
            result.stats.runahead_exits.to_string(),
            format!(
                "{:.1}",
                result.stats.flush_refill_cycles as f64 / exits as f64
            ),
            analytic.to_string(),
        ]);
    }
    Ok(table)
}

/// Stat B (§2.4): the distribution of runahead-interval lengths and the
/// fraction below 20 cycles (the paper reports 27 % on average).
pub fn stat_intervals(max_uops: u64) -> Result<Table, SimError> {
    let mut table = Table::new(
        "Stat B — runahead interval lengths (PRE, unrestricted entry)",
        &["workload", "intervals", "mean (cycles)", "< 20 cycles"],
    );
    for workload in Workload::MEMORY_INTENSIVE {
        let result = run_one(&RunSpec::new(workload, Technique::Pre).with_budget(max_uops))?;
        let hist = &result.stats.runahead_interval_hist;
        table.add_row(vec![
            workload.name().into(),
            hist.count().to_string(),
            format!("{:.1}", hist.mean()),
            pct(hist.fraction_below(20)),
        ]);
    }
    Ok(table)
}

/// Stat C (§3.4): free back-end resources sampled at runahead entry
/// (the paper reports ≈37 % of IQ entries, 51 % of integer and 59 % of
/// floating-point registers free), plus the per-class free-register
/// occupancy histograms at full-window stalls and the eager-drain volume —
/// the counters behind the `asm-box-blur` reproduction finding.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn stat_free_resources(suite: Suite, max_uops: u64) -> Result<Table, SimError> {
    let mut table = Table::new(
        "Stat C — free resources at runahead entry (PRE)",
        &[
            "workload",
            "IQ free",
            "int regs free",
            "fp regs free",
            "int <5% @stall",
            "eager frees",
        ],
    );
    // Walk the canonical `Suite::cells` matrix (shared with `quick_check`)
    // restricted to the PRE column, so cell orderings agree across
    // binaries.
    for (workload, technique) in suite.cells().filter(|&(_, t)| t == Technique::Pre) {
        let result = run_one(&RunSpec::new(workload, technique).with_budget(max_uops))?;
        table.add_row(vec![
            workload.name().into(),
            pct(result.stats.iq_free_at_entry.mean()),
            pct(result.stats.int_regs_free_at_entry.mean()),
            pct(result.stats.fp_regs_free_at_entry.mean()),
            pct(result.stats.int_free_at_stall_hist.fraction_below(5)),
            result.stats.prdq_eager_reclaims.to_string(),
        ]);
    }
    Ok(table)
}

/// Stat D (§5.1): how much more often PRE (and PRE+EMQ) invoke runahead
/// compared with traditional runahead (paper: 1.62× and 1.95×).
pub fn stat_invocations(matrix: &EvaluationMatrix) -> Table {
    let mut table = Table::new(
        "Stat D — runahead invocations relative to traditional runahead",
        &["technique", "paper", "measured"],
    );
    table.add_row(vec![
        "PRE".into(),
        "1.62x".into(),
        format!(
            "{:.2}x",
            matrix.invocation_ratio_vs_runahead(Technique::Pre)
        ),
    ]);
    table.add_row(vec![
        "PRE+EMQ".into(),
        "1.95x".into(),
        format!(
            "{:.2}x",
            matrix.invocation_ratio_vs_runahead(Technique::PreEmq)
        ),
    ]);
    table
}

/// Runs a one-dimensional capacity sweep of `workload` under `technique`
/// (sharing the sweep engine with the `sweep` binary) and returns the points
/// in grid order plus the out-of-order baseline IPC the rows normalize to.
fn capacity_sweep(
    workload: Workload,
    technique: Technique,
    dim: SweepDim,
    sizes: &[usize],
    max_uops: u64,
) -> Result<(Vec<crate::sweep::SweepPoint>, f64), SimError> {
    let baseline = run_one(&RunSpec::new(workload, Technique::OutOfOrder).with_budget(max_uops))?;
    let mut sweep = Sweep::new(workload, technique).with_dim(GridDim {
        dim,
        values: sizes.iter().map(|&s| s as u64).collect(),
    });
    sweep.budget = max_uops;
    let points = sweep.run_isolated(|_| {}).into_result()?;
    Ok((points, baseline.ipc()))
}

/// Stat F / ablation (§3.6): SST-capacity sensitivity. Returns
/// `(entries, speedup over OoO, SST hit rate)` rows for one representative
/// multi-slice workload.
pub fn sst_sensitivity(max_uops: u64, sizes: &[usize]) -> Result<Table, SimError> {
    let (points, base_ipc) = capacity_sweep(
        Workload::LbmLike,
        Technique::Pre,
        SweepDim::Sst,
        sizes,
        max_uops,
    )?;
    let mut table = Table::new(
        "Stat F — SST capacity sensitivity (lbm-like, PRE)",
        &["SST entries", "speedup vs OoO", "SST hit rate", "evictions"],
    );
    for p in points {
        table.add_row(vec![
            p.settings[0].1.to_string(),
            format!("{:.3}", p.result.ipc() / base_ipc),
            format!("{:.3}", p.result.stats.sst_hit_rate()),
            p.result.stats.sst_evictions.to_string(),
        ]);
    }
    Ok(table)
}

/// EMQ-capacity ablation: how the EMQ size bounds PRE+EMQ's benefit.
pub fn emq_sensitivity(max_uops: u64, sizes: &[usize]) -> Result<Table, SimError> {
    let (points, base_ipc) = capacity_sweep(
        Workload::LbmLike,
        Technique::PreEmq,
        SweepDim::Emq,
        sizes,
        max_uops,
    )?;
    let mut table = Table::new(
        "Ablation — EMQ capacity sensitivity (lbm-like, PRE+EMQ)",
        &["EMQ entries", "speedup vs OoO", "EMQ-full stall cycles"],
    );
    for p in points {
        table.add_row(vec![
            p.settings[0].1.to_string(),
            format!("{:.3}", p.result.ipc() / base_ipc),
            p.result.stats.emq_full_stall_cycles.to_string(),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_the_paper_parameters() {
        let t = table1();
        let text = t.render();
        assert!(text.contains("ROB"));
        assert!(text.contains("192"));
        assert!(text.contains("DDR3-1600"));
        assert!(text.contains("SST"));
    }

    #[test]
    fn fig2_table_from_synthetic_matrix_has_gmean_row() {
        let matrix = EvaluationMatrix::new();
        let t = fig2_table(&matrix);
        // Empty matrix still renders the gmean row.
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn suites_select_the_right_workloads() {
        assert_eq!(
            Suite::Synthetic.workloads(),
            Workload::MEMORY_INTENSIVE.to_vec()
        );
        assert_eq!(Suite::Asm.workloads(), Workload::ASM_SUITE.to_vec());
        let mixed = Suite::Mixed.workloads();
        assert_eq!(
            mixed.len(),
            Workload::MEMORY_INTENSIVE.len() + Workload::ASM_SUITE.len()
        );
        assert!(Suite::Asm.workloads().iter().all(|w| w.is_asm()));
    }

    #[test]
    fn cli_parses_suite_and_budget_in_any_order() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cli = parse_cli(args(&[]), 777).unwrap();
        assert_eq!(cli.suite, Suite::Synthetic);
        assert_eq!(cli.budget, 777);

        let cli = parse_cli(args(&["--suite", "asm", "5000"]), 777).unwrap();
        assert_eq!(cli.suite, Suite::Asm);
        assert_eq!(cli.budget, 5000);

        let cli = parse_cli(args(&["9000", "--suite=mixed"]), 777).unwrap();
        assert_eq!(cli.suite, Suite::Mixed);
        assert_eq!(cli.budget, 9000);

        assert!(parse_cli(args(&["--suite", "bogus"]), 777).is_err());
        assert!(parse_cli(args(&["--suite"]), 777).is_err());
        assert!(parse_cli(args(&["--wat"]), 777).is_err());
        assert!(parse_cli(args(&["7000", "8000"]), 777).is_err());
    }

    #[test]
    fn cli_collects_names_around_the_budget() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cli = parse_cli(
            args(&["asm-quicksort", "--suite", "asm", "pre", "3000"]),
            777,
        )
        .unwrap();
        assert_eq!(cli.suite, Suite::Asm);
        assert_eq!(cli.names, args(&["asm-quicksort", "pre"]));
        assert_eq!(cli.budget, 3000);
        // A malformed budget is a name, so a binary that takes none refuses it.
        let cli = parse_cli(args(&["2k"]), 777).unwrap();
        assert_eq!((cli.budget, cli.names.clone()), (777, args(&["2k"])));
        assert!(cli.only(&Flag::ALL, 0).is_err());
    }

    #[test]
    fn only_refuses_flags_and_names_a_binary_cannot_honour() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let parse = |v: &[&str]| parse_cli(args(v), 777).unwrap();
        assert!(parse(&["sst", "2000"]).only(&[], 1).is_ok());
        // A flag's value is never misread as the budget.
        assert!(parse(&["sst", "--warmup", "5000"]).only(&[], 1).is_err());
        assert!(parse(&["sst", "--suite=asm"]).only(&[], 1).is_err());
        assert!(parse(&["free-resources", "--suite=asm"])
            .only(&[Flag::Suite], 1)
            .is_ok());
        assert!(parse(&["mcf", "pre", "extra"]).only(&Flag::ALL, 2).is_err());
    }

    #[test]
    fn cli_parses_sample_flag_forms() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cli = parse_cli(args(&[]), 777).unwrap();
        assert_eq!(cli.sample, None);

        let cli = parse_cli(args(&["--sample"]), 777).unwrap();
        assert_eq!(cli.sample, Some(SampleSpec::default()));

        let cli = parse_cli(args(&["--sample", "n=4,interval=5000"]), 777).unwrap();
        assert_eq!(cli.sample, Some(SampleSpec::new(4, 5_000)));

        let cli = parse_cli(args(&["--sample=n=3", "9000"]), 777).unwrap();
        assert_eq!(
            cli.sample,
            Some(SampleSpec::new(3, SampleSpec::DEFAULT_INTERVAL_UOPS))
        );
        assert_eq!(cli.budget, 9000);

        // A bare `--sample` followed by the budget leaves the budget intact.
        let cli = parse_cli(args(&["--sample", "60000"]), 777).unwrap();
        assert_eq!(cli.sample, Some(SampleSpec::default()));
        assert_eq!(cli.budget, 60_000);

        assert!(parse_cli(args(&["--sample=n=0"]), 777).is_err());

        // A bare `--sample` never swallows the next flag.
        let cli = parse_cli(args(&["--sample", "--warmup=500"]), 777).unwrap();
        assert_eq!(cli.sample, Some(SampleSpec::default()));
        assert_eq!(cli.warmup, 500);
        assert_eq!(cli.flags, vec![Flag::Sample, Flag::Warmup]);
    }

    #[test]
    fn suite_names_roundtrip() {
        for suite in [Suite::Synthetic, Suite::Asm, Suite::Mixed] {
            assert_eq!(suite.name().parse::<Suite>().unwrap(), suite);
        }
        assert!("nope".parse::<Suite>().is_err());
    }
}
