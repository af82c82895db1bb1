//! Front-end components for the PRE simulator.
//!
//! The out-of-order pipeline in `pre-core` drives these components:
//!
//! * [`predictor::BranchPredictorUnit`] — gshare direction predictor, branch
//!   target buffer and return address stack. Runahead execution checkpoints
//!   the global history at entry and restores it at exit (Section 2.2 of the
//!   paper).
//! * [`uop_queue::UopQueue`] — the bounded micro-op queue between decode and
//!   rename. The PRE + EMQ optimization extends this queue (Section 3.3) so
//!   micro-ops decoded in runahead mode can be dispatched after exit without
//!   re-fetching them.
//! * [`delay_pipe::DelayPipe`] — a fixed-latency delay line used to model the
//!   8-stage front-end depth: a micro-op fetched at cycle *c* reaches rename
//!   at *c + depth*.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod delay_pipe;
mod predictor;
pub mod uop_queue;

pub use delay_pipe::DelayPipe;
pub use predictor::{BranchPredictorUnit, Prediction};
pub use uop_queue::UopQueue;
