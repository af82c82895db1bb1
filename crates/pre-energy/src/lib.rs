//! Energy and area model for the PRE simulator.
//!
//! The paper reports energy with McPAT (22 nm) plus CACTI 6.5 for the SST,
//! PRDQ and EMQ. Neither tool can be embedded here, so this crate implements
//! the standard event-based substitution: total energy is the sum of
//!
//! * per-event dynamic energies (fetch, decode, rename, issue-queue, ROB,
//!   physical-register-file, LSQ and functional-unit activity, cache and
//!   DRAM accesses, and the runahead structures), scaled by the activity
//!   counters the simulator records in [`pre_model::stats::SimStats`], and
//! * static (leakage plus background) power integrated over the runtime.
//!
//! Per-event constants are representative of published McPAT/CACTI numbers
//! for a 22 nm, 4-wide core; absolute joules are not claimed, but the
//! *relative* behaviour the paper reports — runahead's extra dynamic work
//! versus the static/background energy saved by running faster, and the
//! re-fetch/re-dispatch energy that flush-style runahead pays but PRE
//! avoids — is captured because those terms are all driven by the measured
//! event counts.
//!
//! # Example
//!
//! ```
//! use pre_energy::EnergyModel;
//! use pre_model::{config::SimConfig, stats::SimStats};
//!
//! let model = EnergyModel::default();
//! let mut stats = SimStats::new();
//! stats.cycles = 1_000_000;
//! stats.committed_uops = 800_000;
//! let breakdown = model.evaluate(&stats, &SimConfig::haswell_like());
//! assert!(breakdown.total_mj() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod area;
mod model;

pub use area::HardwareOverhead;
pub use model::{EnergyBreakdown, EnergyModel};
