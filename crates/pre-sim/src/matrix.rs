//! The workload × technique evaluation matrix behind Figures 2 and 3.

use crate::runner::{cell_name, run_batch, run_one, RunResult, RunSpec};
use pre_model::config::SimConfig;
use pre_model::error::SimError;
use pre_runahead::Technique;
use pre_workloads::{Workload, WorkloadParams};
use std::collections::HashMap;
use std::fmt;

/// One failed matrix cell: which cell, and the [`SimError`] (a caught panic
/// surfaces as [`SimError::Panic`]).
#[derive(Debug)]
pub struct CellFailure {
    /// Index of the cell in spec (matrix) order.
    pub index: usize,
    /// The workload of the failed cell.
    pub workload: Workload,
    /// The technique of the failed cell.
    pub technique: Technique,
    /// What went wrong.
    pub error: SimError,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} ({}): {}",
            self.index,
            cell_name(self.workload, self.technique),
            self.error
        )
    }
}

/// The outcome of a failure-isolated matrix run: every cell that succeeded
/// (in matrix order) plus a record of every cell that did not. A panicking
/// or erroring cell never takes down its siblings.
#[derive(Debug)]
pub struct MatrixRun {
    /// The successful cells, in matrix order.
    pub matrix: EvaluationMatrix,
    /// The failed cells, in matrix order.
    pub failures: Vec<CellFailure>,
    /// Total cells attempted (`matrix.results().len() + failures.len()`).
    pub cells: usize,
}

impl MatrixRun {
    /// `true` when every cell produced a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The complete matrix, or the first failure in matrix order.
    ///
    /// # Errors
    ///
    /// Returns the first [`CellFailure`]'s error when any cell failed.
    pub fn into_result(self) -> Result<EvaluationMatrix, SimError> {
        match self.failures.into_iter().next() {
            None => Ok(self.matrix),
            Some(failure) => Err(failure.error),
        }
    }
}

/// Results of running a set of workloads under a set of techniques.
#[derive(Debug, Clone, Default)]
pub struct EvaluationMatrix {
    results: Vec<RunResult>,
    /// (workload, technique) → index of the *first* result for that cell,
    /// maintained by [`EvaluationMatrix::push`]. Keeps the aggregate queries
    /// (`gmean_speedup`, `mean_energy_savings`, …) O(cells) instead of
    /// O(cells²) — they call [`EvaluationMatrix::get`] per workload.
    index: HashMap<(Workload, Technique), usize>,
}

impl EvaluationMatrix {
    /// Creates an empty matrix.
    pub(crate) fn new() -> Self {
        EvaluationMatrix::default()
    }

    /// Runs an explicit list of cells (in the given order) through
    /// [`run_batch`], isolating failures: a cell that returns an error *or
    /// panics* is recorded in [`MatrixRun::failures`] while every other cell
    /// still produces its (bit-identical) result. `progress` fires as cells
    /// complete, which under parallel execution is not necessarily matrix
    /// order. [`MatrixRun::into_result`] gives all-or-nothing behaviour.
    pub fn run_specs_isolated(
        specs: &[RunSpec],
        mut progress: impl FnMut(&RunResult) + Send,
    ) -> MatrixRun {
        let mut matrix = EvaluationMatrix::new();
        let mut failures = Vec::new();
        let outcomes = run_batch(specs, false, 0, |_, result| progress(result));
        for (index, ((outcome, _), spec)) in outcomes.into_iter().zip(specs).enumerate() {
            match outcome {
                Ok(result) => matrix.push(result),
                Err(error) => failures.push(CellFailure {
                    index,
                    workload: spec.workload,
                    technique: spec.technique,
                    error,
                }),
            }
        }
        MatrixRun {
            matrix,
            failures,
            cells: specs.len(),
        }
    }

    /// Runs `specs` one at a time on the calling thread, in order. Reference
    /// implementation for [`EvaluationMatrix::run_specs_isolated`]; the
    /// parallel path must produce bit-identical statistics.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] encountered; later cells do not run.
    pub fn run_serial(
        specs: &[RunSpec],
        mut progress: impl FnMut(&RunResult),
    ) -> Result<Self, SimError> {
        let mut matrix = EvaluationMatrix::new();
        for spec in specs {
            let result = run_one(spec)?;
            progress(&result);
            matrix.push(result);
        }
        Ok(matrix)
    }

    /// The run specifications for every (workload, technique) cell, in
    /// matrix order (workload-major, matching the paper's figures).
    pub fn specs(
        workloads: &[Workload],
        techniques: &[Technique],
        config: &SimConfig,
        params: &WorkloadParams,
        max_uops: u64,
    ) -> Vec<RunSpec> {
        workloads
            .iter()
            .flat_map(|&workload| {
                techniques
                    .iter()
                    .map(move |&technique| (workload, technique))
            })
            .map(|(workload, technique)| {
                RunSpec::new(workload, technique)
                    .with_budget(max_uops)
                    .with_config(config.clone())
                    .with_params(*params)
            })
            .collect()
    }

    /// Adds a result (used by custom sweeps). The first result for a
    /// (workload, technique) cell is the one [`EvaluationMatrix::get`]
    /// returns, matching the original linear-scan semantics.
    pub(crate) fn push(&mut self, result: RunResult) {
        let key = (result.workload, result.technique);
        let idx = self.results.len();
        self.results.push(result);
        self.index.entry(key).or_insert(idx);
    }

    /// All results.
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// The result for one (workload, technique) cell, if present (the first
    /// pushed, when a sweep pushed several). O(1) via the cell index.
    pub fn get(&self, workload: Workload, technique: Technique) -> Option<&RunResult> {
        self.index
            .get(&(workload, technique))
            .map(|&idx| &self.results[idx])
    }

    /// The workloads present in the matrix, in first-seen order.
    pub(crate) fn workloads(&self) -> Vec<Workload> {
        let mut seen = Vec::new();
        for r in &self.results {
            if !seen.contains(&r.workload) {
                seen.push(r.workload);
            }
        }
        seen
    }

    /// Speedup of `technique` over the out-of-order baseline on `workload`
    /// (IPC ratio), if both runs are present.
    pub fn speedup(&self, workload: Workload, technique: Technique) -> Option<f64> {
        let base = self.get(workload, Technique::OutOfOrder)?.ipc();
        let this = self.get(workload, technique)?.ipc();
        if base > 0.0 {
            Some(this / base)
        } else {
            None
        }
    }

    /// Energy savings of `technique` relative to the baseline on `workload`
    /// (positive = less energy).
    pub fn energy_savings(&self, workload: Workload, technique: Technique) -> Option<f64> {
        let base = self.get(workload, Technique::OutOfOrder)?;
        let this = self.get(workload, technique)?;
        Some(this.energy.savings_vs(&base.energy))
    }

    /// Geometric-mean speedup of `technique` across every workload in the
    /// matrix.
    pub fn gmean_speedup(&self, technique: Technique) -> f64 {
        let speedups: Vec<f64> = self
            .workloads()
            .into_iter()
            .filter_map(|w| self.speedup(w, technique))
            .collect();
        geometric_mean(&speedups)
    }

    /// Arithmetic-mean energy savings of `technique` across every workload.
    pub(crate) fn mean_energy_savings(&self, technique: Technique) -> f64 {
        let savings: Vec<f64> = self
            .workloads()
            .into_iter()
            .filter_map(|w| self.energy_savings(w, technique))
            .collect();
        if savings.is_empty() {
            0.0
        } else {
            savings.iter().sum::<f64>() / savings.len() as f64
        }
    }

    /// Ratio of runahead invocations of `technique` to those of the
    /// traditional-runahead configuration, averaged across workloads
    /// (Stat D: the paper reports 1.62× for PRE and 1.95× for PRE+EMQ).
    pub(crate) fn invocation_ratio_vs_runahead(&self, technique: Technique) -> f64 {
        let ratios: Vec<f64> = self
            .workloads()
            .into_iter()
            .filter_map(|w| {
                let ra = self.get(w, Technique::Runahead)?.stats.runahead_entries;
                let this = self.get(w, technique)?.stats.runahead_entries;
                if ra > 0 {
                    Some(this as f64 / ra as f64)
                } else {
                    None
                }
            })
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }

    /// `true` if any run tripped the deadlock watchdog.
    pub fn any_deadlocked(&self) -> bool {
        self.results.iter().any(|r| r.deadlocked)
    }
}

/// Geometric mean of a slice (1.0 for an empty slice).
pub(crate) fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::stats::SimStats;

    fn fake_result(workload: Workload, technique: Technique, ipc: f64, entries: u64) -> RunResult {
        let mut stats = SimStats::new();
        stats.cycles = 1_000_000;
        stats.committed_uops = (ipc * 1_000_000.0) as u64;
        stats.runahead_entries = entries;
        let energy = pre_energy::EnergyModel::default()
            .evaluate(&stats, &pre_model::config::SimConfig::haswell_like());
        RunResult {
            workload,
            technique,
            stats,
            energy,
            deadlocked: false,
            cache_hit: false,
            watchdog: None,
            sample: None,
        }
    }

    #[test]
    fn get_returns_first_pushed_result_per_cell() {
        let mut m = EvaluationMatrix::new();
        m.push(fake_result(Workload::LbmLike, Technique::Pre, 0.5, 1));
        m.push(fake_result(Workload::LbmLike, Technique::Pre, 0.9, 2));
        let got = m.get(Workload::LbmLike, Technique::Pre).unwrap();
        assert_eq!(got.stats.runahead_entries, 1);
        assert_eq!(m.results().len(), 2);
        assert!(m.get(Workload::LbmLike, Technique::Runahead).is_none());
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 1.0);
    }

    #[test]
    fn speedup_and_means_from_synthetic_results() {
        let mut m = EvaluationMatrix::new();
        m.push(fake_result(
            Workload::LbmLike,
            Technique::OutOfOrder,
            0.5,
            0,
        ));
        m.push(fake_result(Workload::LbmLike, Technique::Pre, 0.75, 200));
        m.push(fake_result(
            Workload::LbmLike,
            Technique::Runahead,
            0.6,
            100,
        ));
        m.push(fake_result(
            Workload::McfLike,
            Technique::OutOfOrder,
            0.4,
            0,
        ));
        m.push(fake_result(Workload::McfLike, Technique::Pre, 0.5, 150));
        m.push(fake_result(
            Workload::McfLike,
            Technique::Runahead,
            0.44,
            100,
        ));
        assert!((m.speedup(Workload::LbmLike, Technique::Pre).unwrap() - 1.5).abs() < 1e-9);
        let gmean = m.gmean_speedup(Technique::Pre);
        assert!((gmean - (1.5f64 * 1.25).sqrt()).abs() < 1e-9);
        assert!((m.invocation_ratio_vs_runahead(Technique::Pre) - 1.75).abs() < 1e-9);
        assert_eq!(m.workloads().len(), 2);
        assert!(!m.any_deadlocked());
    }

    #[test]
    fn energy_savings_reflect_faster_runs() {
        let mut m = EvaluationMatrix::new();
        let slow = fake_result(Workload::LbmLike, Technique::OutOfOrder, 0.5, 0);
        let mut fast = fake_result(Workload::LbmLike, Technique::Pre, 0.5, 0);
        fast.stats.cycles = 700_000;
        fast.energy = pre_energy::EnergyModel::default()
            .evaluate(&fast.stats, &pre_model::config::SimConfig::haswell_like());
        m.push(slow);
        m.push(fast);
        assert!(m.energy_savings(Workload::LbmLike, Technique::Pre).unwrap() > 0.0);
    }

    #[test]
    fn matrix_run_into_result_surfaces_first_failure() {
        let complete = MatrixRun {
            matrix: EvaluationMatrix::new(),
            failures: Vec::new(),
            cells: 0,
        };
        assert!(complete.is_complete());
        assert!(complete.into_result().is_ok());

        let failed = MatrixRun {
            matrix: EvaluationMatrix::new(),
            failures: vec![CellFailure {
                index: 2,
                workload: Workload::LbmLike,
                technique: Technique::Pre,
                error: SimError::Panic {
                    detail: "boom".to_string(),
                },
            }],
            cells: 3,
        };
        assert!(!failed.is_complete());
        let failure = &failed.failures[0];
        assert!(failure.to_string().contains("lbm-like_pre"));
        assert!(matches!(
            failed.into_result(),
            Err(SimError::Panic { detail }) if detail == "boom"
        ));
    }
}
