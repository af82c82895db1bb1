//! Experiment runner for the PRE reproduction.
//!
//! This crate turns the simulator (`pre-core`), the workload suite
//! (`pre-workloads`) and the energy model (`pre-energy`) into the experiments
//! of the paper's evaluation section. Five binaries under `src/bin/`
//! regenerate every figure, table and headline text statistic (`full_eval`
//! the matrix-wide ones, `report <name>` the rest); the shared machinery
//! lives here:
//!
//! * [`runner`] — run one (workload, technique) pair and collect statistics
//!   plus energy ([`run_one`]), or a batch of independent specs
//!   ([`run_batch`]): the one executor, which owns the [`pre_par`] worker
//!   pool (`PRE_THREADS` caps it), per-attempt panic capture, retries,
//!   fail-fast and the `PRE_FAULT` cell hook. It schedules work items,
//!   not cells: every sampling plan first, then plain cells and sampled
//!   cells' representative slices on one pool call, then the SST-size
//!   siblings of plain cells, answered from their largest-SST sibling's
//!   run when its table never evicted.
//! * [`matrix`] — run the full evaluation matrix through [`run_batch`] and
//!   compute the normalized metrics the figures plot (speedup over the
//!   out-of-order baseline, energy savings, invocation ratios, …).
//! * [`experiments`] — the per-figure/per-stat experiment definitions,
//!   including the reduced default budgets that keep runs tractable on a
//!   laptop.
//! * [`stores`] — the one memo type (`Memo`: desc-verified, poison-safe,
//!   one build per key) behind every process-global store, warm-up
//!   snapshot sharing and the content-addressed result cache (in-memory
//!   always, on disk under `PRE_CACHE_DIR`).
//! * [`sample`] — SimPoint-style interval sampling: profile → cluster →
//!   simulate representatives → extrapolate, with sampling metadata on the
//!   result (`--sample` on the binaries).
//! * [`sweep`] — declarative parameter-grid sweeps run through
//!   [`run_batch`], cache-aware, with JSON/CSV emission (the `sweep` binary).
//! * [`report`] — plain-text table and CSV rendering.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod fault;
pub mod matrix;
pub mod report;
pub mod runner;
pub mod sample;
pub mod stores;
pub mod sweep;

pub use matrix::{CellFailure, EvaluationMatrix, MatrixRun};
pub use runner::{cell_name, run_batch, run_one, run_one_traced, RunResult, RunSpec};
pub use sample::{run_sampled, RepWeight, SampleMeta, SampleSpec};
pub use sweep::{Sweep, SweepFailure, SweepPoint, SweepRun};
