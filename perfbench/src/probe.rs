//! Instruments for the traced run: a `pre_trace::Tracer` that stamps host
//! time at runahead entry/exit and counts fast-forward jumps, per-layer time
//! accumulators filled by timing public calls from the benchmark side, and a
//! sampler of the process's live thread count.

use crate::measure::{live_threads, Span};
use pre_model::stats::RunaheadEvent;
use pre_trace::{FfMode, Tracer};
use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Host-time observer attached to every traced core.
#[derive(Debug, Default)]
pub struct HostTracer {
    entered: Option<Instant>,
    /// Host time spent between runahead entry and exit.
    pub runahead: Duration,
    /// Fast-forward jumps observed.
    pub ff_jumps: u64,
}

impl Tracer for HostTracer {
    fn runahead_entry(&mut self, _ev: &RunaheadEvent, _stalling_pc: u32) {
        self.entered = Some(Instant::now());
    }

    fn runahead_exit(&mut self, _ev: &RunaheadEvent, _entered_at: u64, _stalling_pc: u32) {
        if let Some(t) = self.entered.take() {
            self.runahead += t.elapsed();
        }
    }

    fn fast_forward(&mut self, _from: u64, _to: u64, _mode: FfMode) {
        self.ff_jumps += 1;
    }

    fn finish(&mut self, _cycle: u64) {
        // A run that stops inside an interval still spent that host time.
        if let Some(t) = self.entered.take() {
            self.runahead += t.elapsed();
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Host time per layer, summed over the calls the benchmark timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub build: Duration,
    pub content_hash: Duration,
    pub core_new: Duration,
    pub core_fork: Duration,
    pub core_run: Duration,
    pub snapshot: Duration,
    pub snapshot_write: Duration,
    pub warm: Duration,
    pub result_write: Duration,
    pub result_read: Duration,
    pub profile: Duration,
    pub cluster: Duration,
    pub plan: Duration,
    pub slice: Duration,
    pub runahead: Duration,
    pub profiled_uops: u64,
    pub ff_jumps: u64,
    pub result_lookups: u64,
    pub result_hits: u64,
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        self.build += o.build;
        self.content_hash += o.content_hash;
        self.core_new += o.core_new;
        self.core_fork += o.core_fork;
        self.core_run += o.core_run;
        self.snapshot += o.snapshot;
        self.snapshot_write += o.snapshot_write;
        self.warm += o.warm;
        self.result_write += o.result_write;
        self.result_read += o.result_read;
        self.profile += o.profile;
        self.cluster += o.cluster;
        self.plan += o.plan;
        self.slice += o.slice;
        self.runahead += o.runahead;
        self.profiled_uops += o.profiled_uops;
        self.ff_jumps += o.ff_jumps;
        self.result_lookups += o.result_lookups;
        self.result_hits += o.result_hits;
    }

    /// Folds a traced core's observations in.
    pub fn add_tracer(&mut self, t: &HostTracer) {
        self.runahead += t.runahead;
        self.ff_jumps += t.ff_jumps;
    }
}

/// Times `f`, adding its duration to `slot`.
pub fn timed<R>(slot: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *slot += t.elapsed();
    r
}

/// Runs `f` and records a [`Span`] for it on `origin`'s time line.
pub fn span<R>(origin: Instant, f: impl FnOnce() -> R) -> (R, Span) {
    let start = origin.elapsed();
    let r = f();
    let end = origin.elapsed();
    let thread = std::thread::current().id();
    (r, Span { start, end, thread })
}

/// Runs `f` while a sampler thread polls the live thread count every
/// 5 ms; returns `f`'s result and the largest count seen, not counting the
/// sampler itself.
pub fn with_thread_sampler<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut max = 0;
            loop {
                max = max.max(live_threads());
                if stop.load(Ordering::SeqCst) {
                    break max;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let result = f();
        stop.store(true, Ordering::SeqCst);
        let max = sampler.join().expect("thread sampler panicked");
        (result, max.saturating_sub(1))
    })
}
