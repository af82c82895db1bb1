//! Simulation statistics.
//!
//! A single [`SimStats`] instance accumulates everything a run produces:
//! cycle and instruction counts, pipeline-event counts (used by the energy
//! model in `pre-energy`), cache and DRAM activity, and runahead-specific
//! counters (invocations, interval lengths, prefetch coverage, resource
//! occupancy at runahead entry) that back the paper's figures and text
//! statistics.

use std::fmt;
use std::fmt::Write as _;

/// A fixed-bucket histogram over `u64` samples.
///
/// Used for runahead-interval lengths (Stat B: "27 % of runahead intervals
/// take less than 20 cycles").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    /// A final unbounded bucket is added automatically.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Default histogram for runahead-interval lengths (cycles).
    pub(crate) fn runahead_intervals() -> Self {
        Histogram::new(&[10, 20, 50, 100, 200, 500, 1000])
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value < b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fraction of samples strictly below `threshold`.
    ///
    /// `threshold` must be one of the configured bucket bounds for an exact
    /// answer; otherwise the closest not-exceeding bound is used.
    pub fn fraction_below(&self, threshold: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut below = 0;
        for (i, &b) in self.bounds.iter().enumerate() {
            if b <= threshold {
                below += self.counts[i];
            }
        }
        below as f64 / self.total as f64
    }

    /// Iterates over `(upper_bound, count)` pairs; the final pair uses
    /// `u64::MAX` as its bound.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
    }

    /// Folds `weight` copies of `other` into this histogram (bucket counts,
    /// totals and sums scale; the max is the max of maxes). When the bucket
    /// bounds differ — e.g. an empty default merged with a custom histogram —
    /// the non-empty side's bounds are adopted; merging two non-empty
    /// histograms with different bounds keeps `self`'s bounds and folds
    /// `other`'s samples through its aggregate counters only.
    pub(crate) fn merge_scaled(&mut self, other: &Histogram, weight: u64) {
        if self.total == 0 && self.bounds != other.bounds {
            self.bounds = other.bounds.clone();
            self.counts = vec![0; other.counts.len()];
        }
        if self.bounds == other.bounds {
            for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
                *c = c.wrapping_add(o.wrapping_mul(weight));
            }
        }
        self.total = self.total.wrapping_add(other.total.wrapping_mul(weight));
        self.sum = self.sum.wrapping_add(other.sum.wrapping_mul(weight));
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::runahead_intervals()
    }
}

/// A histogram over percentage samples (0–100), used for the per-class
/// free-physical-register occupancy observed at full-window stalls. The
/// buckets resolve the interesting low end ("&lt; 1 % free" is the pathology
/// the eager PRDQ drain exists to fix) as well as the paper's "~51 % free"
/// regime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PercentHistogram(Histogram);

impl PercentHistogram {
    /// Creates an empty percentage histogram.
    pub(crate) fn new() -> Self {
        PercentHistogram(Histogram::new(&[1, 5, 10, 25, 50, 75, 90]))
    }

    /// Records one sample, clamped to 0–100.
    pub(crate) fn record(&mut self, percent: u64) {
        self.0.record(percent.min(100));
    }

    /// Records a fraction in `[0, 1]` as a percentage.
    pub fn record_fraction(&mut self, fraction: f64) {
        self.record((fraction.clamp(0.0, 1.0) * 100.0).round() as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Mean percentage (0 when empty).
    pub fn mean(&self) -> f64 {
        self.0.mean()
    }

    /// Fraction of samples strictly below `threshold` percent (which should
    /// be one of the bucket bounds for an exact answer).
    pub fn fraction_below(&self, threshold: u64) -> f64 {
        self.0.fraction_below(threshold)
    }

    /// Iterates over `(upper_bound, count)` pairs.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.0.buckets()
    }

    /// Folds `weight` copies of `other` into this histogram (see
    /// [`Histogram::merge_scaled`]).
    pub(crate) fn merge_scaled(&mut self, other: &PercentHistogram, weight: u64) {
        self.0.merge_scaled(&other.0, weight);
    }
}

impl Default for PercentHistogram {
    fn default() -> Self {
        PercentHistogram::new()
    }
}

/// Cycles the core skipped in bulk (quiescent-cycle fast-forward) instead
/// of ticking one by one, split by pipeline mode.
///
/// This is *simulator performance* accounting, not an architectural
/// statistic: a fast-forwarded run models exactly the same machine as the
/// tick-every-cycle run (`CoreConfig::fast_forward = false`), it merely
/// spends less host time doing so. To keep that guarantee checkable —
/// [`SimStats`] equality between a fast-forwarded run and the
/// tick-every-cycle oracle — `PartialEq` deliberately treats any two values
/// as equal. (The kv text still carries the split, so a checked-in corpus
/// pins it.)
#[derive(Debug, Clone, Copy, Default)]
pub struct FfCycles {
    /// Normal-mode cycles skipped in bulk (full-window stalls).
    pub normal: u64,
    /// Runahead-mode cycles skipped in bulk (quiescent stretches of
    /// traditional-runahead and precise-runahead intervals).
    pub runahead: u64,
}

impl PartialEq for FfCycles {
    /// Always `true`: how many cycles were fast-forwarded is a property of
    /// the simulator's clock, not of the simulated machine (see the type
    /// docs).
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// How a simulation run ended.
///
/// Unlike [`FfCycles`] this participates in real [`SimStats`] equality: how a
/// run terminates is a property of the simulated machine and its budget, not
/// of fast-forward, so it must be bit-identical with fast-forward on and off
/// (and across cached vs recomputed results).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TerminationKind {
    /// The run finished its work: the program halted or the uop budget was
    /// reached.
    #[default]
    Completed,
    /// The run hit the `max_cycles` safety cap before finishing its work.
    MaxCycles,
    /// The deadlock watchdog fired: a full watchdog window elapsed with no
    /// commit, and the run was aborted.
    Watchdog,
}

impl TerminationKind {
    /// Stable text name used by the kv serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            TerminationKind::Completed => "completed",
            TerminationKind::MaxCycles => "max-cycles",
            TerminationKind::Watchdog => "watchdog",
        }
    }

    /// Parses a name written by [`TerminationKind::as_str`].
    pub(crate) fn parse(text: &str) -> Result<TerminationKind, String> {
        match text {
            "completed" => Ok(TerminationKind::Completed),
            "max-cycles" => Ok(TerminationKind::MaxCycles),
            "watchdog" => Ok(TerminationKind::Watchdog),
            other => Err(format!("unknown termination kind `{other}`")),
        }
    }

    /// The more severe of two termination kinds (`Completed` < `MaxCycles` <
    /// `Watchdog`); used when combining sampled slices into one result.
    pub(crate) fn worst(self, other: TerminationKind) -> TerminationKind {
        fn rank(k: TerminationKind) -> u8 {
            match k {
                TerminationKind::Completed => 0,
                TerminationKind::MaxCycles => 1,
                TerminationKind::Watchdog => 2,
            }
        }
        if rank(other) > rank(self) {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for TerminationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What kind of runahead event a [`RunaheadEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunaheadEventKind {
    /// The core entered runahead mode.
    Entry,
    /// The core left runahead mode.
    Exit,
}

/// One runahead entry or exit event with the rename-resource occupancy
/// observed at that moment. The pipeline reports these through the
/// `pre-trace` tracer hooks (tools like `debug_stats` attach an in-memory
/// collector); `SimStats` itself carries only aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunaheadEvent {
    /// Cycle at which the event occurred.
    pub cycle: u64,
    /// Entry or exit.
    pub kind: RunaheadEventKind,
    /// Free integer physical registers after the event was processed (for
    /// entries: after the eager PRDQ drain).
    pub int_free: usize,
    /// Free floating-point physical registers after the event.
    pub fp_free: usize,
    /// Integer registers released by the eager PRDQ drain (entry events).
    pub int_eager_freed: usize,
    /// Floating-point registers released by the eager drain (entry events).
    pub fp_eager_freed: usize,
    /// PRDQ entries allocated by runahead renaming during the interval
    /// (exit events; 0 on entries).
    pub prdq_allocated: u64,
}

/// Cap on the number of [`RunaheadEvent`]s kept per run by collectors (the
/// `pre-trace` interval log); long evaluations count the overflow instead of
/// growing without bound.
pub const MAX_RUNAHEAD_EVENTS: usize = 4096;

/// Running average of occupancy-style samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningAverage {
    sum: f64,
    samples: u64,
}

impl RunningAverage {
    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.sum += value;
        self.samples += 1;
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum / self.samples as f64
        }
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Folds `weight` copies of `other` into this average (the mean of the
    /// merged average is the weighted mean of the two inputs).
    pub(crate) fn merge_scaled(&mut self, other: &RunningAverage, weight: u64) {
        self.sum += other.sum * weight as f64;
        self.samples = self
            .samples
            .wrapping_add(other.samples.wrapping_mul(weight));
    }
}

/// All statistics produced by one simulation run.
///
/// Fields are public counters incremented directly by the pipeline and the
/// runahead engines; derived metrics are provided as methods.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    // ---- time -------------------------------------------------------------
    /// Total simulated core cycles.
    pub cycles: u64,
    /// Cycles the core fast-forwarded in bulk rather than ticking
    /// (simulator-performance accounting; excluded from equality — see
    /// [`FfCycles`]).
    pub ff_cycles: FfCycles,

    // ---- committed work ----------------------------------------------------
    /// Micro-ops committed (architecturally retired).
    pub committed_uops: u64,
    /// Committed loads.
    pub committed_loads: u64,
    /// Committed stores.
    pub committed_stores: u64,
    /// Committed conditional branches.
    pub committed_branches: u64,
    /// Committed conditional branches that were mispredicted.
    pub mispredicted_branches: u64,

    // ---- pipeline activity (energy events) ---------------------------------
    /// Micro-ops fetched (including wrong path and runahead mode).
    pub fetched_uops: u64,
    /// Micro-ops decoded.
    pub decoded_uops: u64,
    /// Micro-ops renamed.
    pub renamed_uops: u64,
    /// Micro-ops dispatched into the back-end.
    pub dispatched_uops: u64,
    /// Micro-ops issued to functional units.
    pub issued_uops: u64,
    /// Micro-ops that completed execution.
    pub executed_uops: u64,
    /// Micro-ops squashed (wrong path or runahead discard).
    pub squashed_uops: u64,
    /// Register-alias-table reads.
    pub rat_reads: u64,
    /// Register-alias-table writes.
    pub rat_writes: u64,
    /// Physical-register-file reads.
    pub prf_reads: u64,
    /// Physical-register-file writes.
    pub prf_writes: u64,
    /// Issue-queue writes (dispatch).
    pub iq_writes: u64,
    /// Issue-queue wakeup broadcasts.
    pub iq_wakeups: u64,
    /// Reorder-buffer writes.
    pub rob_writes: u64,
    /// Reorder-buffer reads (commit).
    pub rob_reads: u64,
    /// Load/store-queue associative searches.
    pub lsq_searches: u64,
    /// Loads satisfied by store-to-load forwarding (the forwarding store's
    /// byte range contained the load's).
    pub lsq_forwards: u64,
    /// Loads blocked because an older store's byte range only **partially**
    /// overlapped the load's (cannot forward, must wait for the store to
    /// commit and write memory).
    pub forward_blocked_partial: u64,
    /// Integer ALU operations executed.
    pub int_alu_ops: u64,
    /// Integer multiply operations executed.
    pub int_mul_ops: u64,
    /// Floating-point operations executed.
    pub fp_ops: u64,
    /// Branch unit operations executed.
    pub branch_ops: u64,

    // ---- stalls -------------------------------------------------------------
    /// Cycles during which the ROB was full with a long-latency load at its
    /// head (full-window stall cycles), in normal mode.
    pub full_window_stall_cycles: u64,
    /// Distinct full-window stalls observed.
    pub full_window_stalls: u64,
    /// Cycles the front-end delivered no micro-ops (fetch stalls).
    pub frontend_stall_cycles: u64,

    // ---- caches -------------------------------------------------------------
    /// L1 instruction-cache accesses / misses.
    pub l1i_accesses: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache accesses.
    pub l1d_accesses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 accesses.
    pub l3_accesses: u64,
    /// L3 misses (DRAM accesses).
    pub l3_misses: u64,
    /// DRAM read requests.
    pub dram_reads: u64,
    /// DRAM write requests.
    pub dram_writes: u64,
    /// DRAM accesses that hit an open row buffer.
    pub dram_row_hits: u64,
    /// DRAM accesses that required activating a row.
    pub dram_row_misses: u64,

    // ---- runahead -----------------------------------------------------------
    /// Runahead invocations (entries into runahead mode).
    pub runahead_entries: u64,
    /// Runahead exits (should equal entries at the end of a run).
    pub runahead_exits: u64,
    /// Cycles spent in runahead mode.
    pub runahead_cycles: u64,
    /// Micro-ops speculatively executed in runahead mode.
    pub runahead_uops_executed: u64,
    /// Loads speculatively executed in runahead mode.
    pub runahead_loads_executed: u64,
    /// Runahead loads whose source operands were invalid (INV) and therefore
    /// could not prefetch.
    pub runahead_inv_loads: u64,
    /// Prefetch requests issued from runahead mode.
    pub runahead_prefetches_issued: u64,
    /// Runahead prefetches later referenced by a committed load (useful).
    pub runahead_prefetches_useful: u64,
    /// Entries skipped because the expected interval was too short.
    pub runahead_entries_skipped_short: u64,
    /// Entries skipped because a runahead period for the same load already
    /// ran (overlap avoidance).
    pub runahead_entries_skipped_overlap: u64,
    /// Cycles spent flushing + refilling the pipeline on runahead exit
    /// (traditional runahead and runahead buffer only).
    pub flush_refill_cycles: u64,
    /// Cycles in runahead mode during which the EMQ was full and runahead
    /// execution had to stall (PRE+EMQ only).
    pub emq_full_stall_cycles: u64,
    /// Histogram of runahead-interval lengths in cycles.
    pub runahead_interval_hist: Histogram,
    /// Fraction of issue-queue entries free at runahead entry.
    pub iq_free_at_entry: RunningAverage,
    /// Fraction of integer physical registers free at runahead entry.
    pub int_regs_free_at_entry: RunningAverage,
    /// Fraction of floating-point physical registers free at runahead entry.
    pub fp_regs_free_at_entry: RunningAverage,
    /// Percent of integer physical registers free, sampled at each distinct
    /// full-window stall (all techniques, before any eager reclamation).
    pub int_free_at_stall_hist: PercentHistogram,
    /// Percent of floating-point physical registers free at each distinct
    /// full-window stall.
    pub fp_free_at_stall_hist: PercentHistogram,
    /// Runahead entries refused because the free-register entry gate
    /// (`min_free_int_regs`/`min_free_fp_regs`) was not met.
    pub runahead_entries_skipped_no_regs: u64,

    // ---- PRE structures ------------------------------------------------------
    /// SST lookups.
    pub sst_lookups: u64,
    /// SST hits.
    pub sst_hits: u64,
    /// SST insertions.
    pub sst_inserts: u64,
    /// SST evictions due to capacity.
    pub sst_evictions: u64,
    /// PRDQ entry allocations by runahead renaming.
    pub prdq_allocations: u64,
    /// Physical registers reclaimed through the PRDQ in runahead mode.
    pub prdq_reclaims: u64,
    /// Dead previous mappings of the stalled window seeded into the PRDQ by
    /// the eager drain (at runahead entry and at later issue boundaries).
    pub prdq_eager_seeds: u64,
    /// Registers freed by draining eager-seeded PRDQ entries.
    pub prdq_eager_reclaims: u64,
    /// EMQ writes (micro-ops buffered in runahead mode).
    pub emq_writes: u64,
    /// EMQ reads (micro-ops dispatched from the EMQ after exit).
    pub emq_reads: u64,
    /// Runahead-buffer backward dataflow walks (CAM searches in the ROB/SQ).
    pub runahead_buffer_walks: u64,
    /// Micro-ops replayed from the runahead buffer.
    pub runahead_buffer_replays: u64,

    // ---- store checksum (architectural correctness) --------------------------
    /// Order-sensitive checksum of committed stores (compare against the
    /// reference interpreter).
    pub store_checksum: u64,

    // ---- termination ---------------------------------------------------------
    /// How the run ended (completed / max-cycles cap / watchdog abort).
    pub terminated: TerminationKind,
}

impl SimStats {
    /// Creates an empty statistics block.
    pub fn new() -> Self {
        SimStats::default()
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_uops as f64 / self.cycles as f64
        }
    }

    /// Last-level-cache misses per kilo committed instructions.
    pub fn l3_mpki(&self) -> f64 {
        if self.committed_uops == 0 {
            0.0
        } else {
            self.l3_misses as f64 * 1000.0 / self.committed_uops as f64
        }
    }

    /// L1D misses per kilo committed instructions.
    pub(crate) fn l1d_mpki(&self) -> f64 {
        if self.committed_uops == 0 {
            0.0
        } else {
            self.l1d_misses as f64 * 1000.0 / self.committed_uops as f64
        }
    }

    /// Conditional-branch misprediction rate.
    pub(crate) fn branch_mpki(&self) -> f64 {
        if self.committed_uops == 0 {
            0.0
        } else {
            self.mispredicted_branches as f64 * 1000.0 / self.committed_uops as f64
        }
    }

    /// Fraction of cycles spent in full-window stalls.
    pub(crate) fn stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.full_window_stall_cycles as f64 / self.cycles as f64
        }
    }

    /// SST hit rate over lookups.
    pub fn sst_hit_rate(&self) -> f64 {
        if self.sst_lookups == 0 {
            0.0
        } else {
            self.sst_hits as f64 / self.sst_lookups as f64
        }
    }

    /// Useful-prefetch fraction of issued runahead prefetches.
    pub(crate) fn prefetch_accuracy(&self) -> f64 {
        if self.runahead_prefetches_issued == 0 {
            0.0
        } else {
            self.runahead_prefetches_useful as f64 / self.runahead_prefetches_issued as f64
        }
    }

    /// Normal-mode cycles the core actually ticked one by one (total
    /// normal-mode cycles minus the bulk fast-forwarded ones).
    pub fn normal_cycles_simulated(&self) -> u64 {
        self.cycles
            .saturating_sub(self.runahead_cycles)
            .saturating_sub(self.ff_cycles.normal)
    }

    /// Runahead-mode cycles the core actually ticked one by one.
    pub fn runahead_cycles_simulated(&self) -> u64 {
        self.runahead_cycles.saturating_sub(self.ff_cycles.runahead)
    }

    /// Fraction of all simulated cycles covered by the quiescent
    /// fast-forward (0 when the run had no cycles).
    pub fn ff_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.ff_cycles.normal + self.ff_cycles.runahead) as f64 / self.cycles as f64
        }
    }
}

/// Every plain `u64` counter of [`SimStats`], listed once; the kv
/// serialization below derives both directions from this list so a new
/// counter only has to be added here (forgetting it entirely still fails the
/// roundtrip test).
macro_rules! with_u64_stats_fields {
    ($mac:ident) => {
        $mac!(
            cycles,
            committed_uops,
            committed_loads,
            committed_stores,
            committed_branches,
            mispredicted_branches,
            fetched_uops,
            decoded_uops,
            renamed_uops,
            dispatched_uops,
            issued_uops,
            executed_uops,
            squashed_uops,
            rat_reads,
            rat_writes,
            prf_reads,
            prf_writes,
            iq_writes,
            iq_wakeups,
            rob_writes,
            rob_reads,
            lsq_searches,
            lsq_forwards,
            forward_blocked_partial,
            int_alu_ops,
            int_mul_ops,
            fp_ops,
            branch_ops,
            full_window_stall_cycles,
            full_window_stalls,
            frontend_stall_cycles,
            l1i_accesses,
            l1i_misses,
            l1d_accesses,
            l1d_misses,
            l2_accesses,
            l2_misses,
            l3_accesses,
            l3_misses,
            dram_reads,
            dram_writes,
            dram_row_hits,
            dram_row_misses,
            runahead_entries,
            runahead_exits,
            runahead_cycles,
            runahead_uops_executed,
            runahead_loads_executed,
            runahead_inv_loads,
            runahead_prefetches_issued,
            runahead_prefetches_useful,
            runahead_entries_skipped_short,
            runahead_entries_skipped_overlap,
            flush_refill_cycles,
            emq_full_stall_cycles,
            runahead_entries_skipped_no_regs,
            sst_lookups,
            sst_hits,
            sst_inserts,
            sst_evictions,
            prdq_allocations,
            prdq_reclaims,
            prdq_eager_seeds,
            prdq_eager_reclaims,
            emq_writes,
            emq_reads,
            runahead_buffer_walks,
            runahead_buffer_replays,
            store_checksum,
        )
    };
}

fn parse_kv_u64(name: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("bad u64 for `{name}`: {value}"))
}

fn parse_kv_u64_list(name: &str, value: &str) -> Result<Vec<u64>, String> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|v| v.parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad u64 list for `{name}`: {value}"))
}

fn write_kv_u64_list(out: &mut String, name: &str, values: &[u64]) {
    let _ = write!(out, "{name} ");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push('\n');
}

impl Histogram {
    /// Writes the histogram as `prefix.field value` lines.
    fn write_kv(&self, out: &mut String, prefix: &str) {
        write_kv_u64_list(out, &format!("{prefix}.bounds"), &self.bounds);
        write_kv_u64_list(out, &format!("{prefix}.counts"), &self.counts);
        let _ = writeln!(out, "{prefix}.total {}", self.total);
        let _ = writeln!(out, "{prefix}.sum {}", self.sum);
        let _ = writeln!(out, "{prefix}.max {}", self.max);
    }

    /// Applies one `field value` pair produced by [`Histogram::write_kv`];
    /// returns `false` when `field` is not a histogram field.
    fn apply_kv(&mut self, field: &str, value: &str) -> Result<bool, String> {
        match field {
            "bounds" => self.bounds = parse_kv_u64_list(field, value)?,
            "counts" => self.counts = parse_kv_u64_list(field, value)?,
            "total" => self.total = parse_kv_u64(field, value)?,
            "sum" => self.sum = parse_kv_u64(field, value)?,
            "max" => self.max = parse_kv_u64(field, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

impl RunningAverage {
    /// Writes the average as `prefix.field value` lines. The `f64` sum is
    /// written as raw IEEE-754 bits so the roundtrip is exact.
    fn write_kv(&self, out: &mut String, prefix: &str) {
        let _ = writeln!(out, "{prefix}.sum_bits {:016x}", self.sum.to_bits());
        let _ = writeln!(out, "{prefix}.samples {}", self.samples);
    }

    /// Applies one `field value` pair produced by [`RunningAverage::write_kv`].
    fn apply_kv(&mut self, field: &str, value: &str) -> Result<bool, String> {
        match field {
            "sum_bits" => {
                let bits = u64::from_str_radix(value, 16)
                    .map_err(|_| format!("bad f64 bits for `{field}`: {value}"))?;
                self.sum = f64::from_bits(bits);
            }
            "samples" => self.samples = parse_kv_u64(field, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

impl SimStats {
    /// Serializes every field (including the histograms, running averages
    /// and fast-forward accounting) as `name value` lines. The counterpart
    /// of [`SimStats::from_kv`]; the roundtrip is exact, which is what lets
    /// the on-disk result cache return bit-identical statistics.
    pub fn to_kv(&self) -> String {
        let mut out = String::new();
        macro_rules! emit {
            ($($field:ident),* $(,)?) => {
                $( let _ = writeln!(out, concat!(stringify!($field), " {}"), self.$field); )*
            };
        }
        with_u64_stats_fields!(emit);
        let _ = writeln!(out, "terminated {}", self.terminated.as_str());
        let _ = writeln!(out, "ff_cycles.normal {}", self.ff_cycles.normal);
        let _ = writeln!(out, "ff_cycles.runahead {}", self.ff_cycles.runahead);
        self.runahead_interval_hist
            .write_kv(&mut out, "runahead_interval_hist");
        self.iq_free_at_entry.write_kv(&mut out, "iq_free_at_entry");
        self.int_regs_free_at_entry
            .write_kv(&mut out, "int_regs_free_at_entry");
        self.fp_regs_free_at_entry
            .write_kv(&mut out, "fp_regs_free_at_entry");
        self.int_free_at_stall_hist
            .0
            .write_kv(&mut out, "int_free_at_stall_hist");
        self.fp_free_at_stall_hist
            .0
            .write_kv(&mut out, "fp_free_at_stall_hist");
        out
    }

    /// Parses the `name value` lines written by [`SimStats::to_kv`].
    /// Unknown names are an error (they indicate a version mismatch, and a
    /// stale cache entry must not half-apply).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or unknown line.
    pub fn from_kv(text: &str) -> Result<SimStats, String> {
        let mut stats = SimStats::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed stats line: {line}"))?;
            macro_rules! assign {
                ($($field:ident),* $(,)?) => {
                    match name {
                        $( stringify!($field) => {
                            stats.$field = parse_kv_u64(name, value)?;
                            continue;
                        } )*
                        _ => {}
                    }
                };
            }
            with_u64_stats_fields!(assign);
            if name == "terminated" {
                stats.terminated = TerminationKind::parse(value)?;
                continue;
            }
            let applied = match name.split_once('.') {
                Some(("ff_cycles", "normal")) => {
                    stats.ff_cycles.normal = parse_kv_u64(name, value)?;
                    true
                }
                Some(("ff_cycles", "runahead")) => {
                    stats.ff_cycles.runahead = parse_kv_u64(name, value)?;
                    true
                }
                Some(("runahead_interval_hist", field)) => {
                    stats.runahead_interval_hist.apply_kv(field, value)?
                }
                Some(("iq_free_at_entry", field)) => {
                    stats.iq_free_at_entry.apply_kv(field, value)?
                }
                Some(("int_regs_free_at_entry", field)) => {
                    stats.int_regs_free_at_entry.apply_kv(field, value)?
                }
                Some(("fp_regs_free_at_entry", field)) => {
                    stats.fp_regs_free_at_entry.apply_kv(field, value)?
                }
                Some(("int_free_at_stall_hist", field)) => {
                    stats.int_free_at_stall_hist.0.apply_kv(field, value)?
                }
                Some(("fp_free_at_stall_hist", field)) => {
                    stats.fp_free_at_stall_hist.0.apply_kv(field, value)?
                }
                _ => false,
            };
            if !applied {
                return Err(format!("unknown stats field `{name}`"));
            }
        }
        Ok(stats)
    }

    /// Folds `weight` copies of `other` into this block: every `u64` counter
    /// adds `weight × other` (wrapping, so checksum-style fields stay
    /// well-defined), histograms and running averages merge with the same
    /// weight, and the termination kind keeps the most severe value seen.
    ///
    /// This is the weighted extrapolation primitive for sampled simulation:
    /// summing each representative interval's stats scaled by its cluster
    /// weight yields an estimated full-run stats block whose integer
    /// counters are exact functions of the per-interval runs.
    pub fn merge_scaled(&mut self, other: &SimStats, weight: u64) {
        macro_rules! fold {
            ($($field:ident),* $(,)?) => {
                $( self.$field = self
                    .$field
                    .wrapping_add(other.$field.wrapping_mul(weight)); )*
            };
        }
        with_u64_stats_fields!(fold);
        self.ff_cycles.normal = self
            .ff_cycles
            .normal
            .wrapping_add(other.ff_cycles.normal.wrapping_mul(weight));
        self.ff_cycles.runahead = self
            .ff_cycles
            .runahead
            .wrapping_add(other.ff_cycles.runahead.wrapping_mul(weight));
        self.runahead_interval_hist
            .merge_scaled(&other.runahead_interval_hist, weight);
        self.iq_free_at_entry
            .merge_scaled(&other.iq_free_at_entry, weight);
        self.int_regs_free_at_entry
            .merge_scaled(&other.int_regs_free_at_entry, weight);
        self.fp_regs_free_at_entry
            .merge_scaled(&other.fp_regs_free_at_entry, weight);
        self.int_free_at_stall_hist
            .merge_scaled(&other.int_free_at_stall_hist, weight);
        self.fp_free_at_stall_hist
            .merge_scaled(&other.fp_free_at_stall_hist, weight);
        self.terminated = self.terminated.worst(other.terminated);
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles               : {}", self.cycles)?;
        writeln!(f, "committed uops       : {}", self.committed_uops)?;
        writeln!(f, "ipc                  : {:.3}", self.ipc())?;
        writeln!(f, "l1d mpki             : {:.2}", self.l1d_mpki())?;
        writeln!(f, "l3 mpki              : {:.2}", self.l3_mpki())?;
        writeln!(f, "branch mpki          : {:.2}", self.branch_mpki())?;
        writeln!(f, "full-window stalls   : {}", self.full_window_stalls)?;
        writeln!(f, "stall cycle fraction : {:.3}", self.stall_fraction())?;
        writeln!(f, "runahead entries     : {}", self.runahead_entries)?;
        writeln!(f, "runahead cycles      : {}", self.runahead_cycles)?;
        writeln!(
            f,
            "runahead prefetches  : {}",
            self.runahead_prefetches_issued
        )?;
        writeln!(f, "prefetch accuracy    : {:.3}", self.prefetch_accuracy())?;
        write!(f, "sst hit rate         : {:.3}", self.sst_hit_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_buckets() {
        let mut h = Histogram::new(&[10, 20, 50]);
        for v in [5, 15, 15, 30, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 33.0).abs() < 1e-9);
        assert!((h.fraction_below(20) - 3.0 / 5.0).abs() < 1e-9);
        assert!((h.fraction_below(10) - 1.0 / 5.0).abs() < 1e-9);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (10, 1));
        assert_eq!(buckets[3], (u64::MAX, 1));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 5]);
    }

    #[test]
    fn histogram_empty_fractions_are_zero() {
        let h = Histogram::runahead_intervals();
        assert_eq!(h.fraction_below(20), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn running_average() {
        let mut avg = RunningAverage::default();
        assert_eq!(avg.mean(), 0.0);
        avg.record(0.25);
        avg.record(0.75);
        assert!((avg.mean() - 0.5).abs() < 1e-12);
        assert_eq!(avg.samples(), 2);
    }

    #[test]
    fn derived_metrics() {
        let mut s = SimStats::new();
        s.cycles = 1000;
        s.committed_uops = 2000;
        s.l3_misses = 20;
        s.l1d_misses = 100;
        s.mispredicted_branches = 4;
        s.full_window_stall_cycles = 250;
        s.sst_lookups = 10;
        s.sst_hits = 9;
        s.runahead_prefetches_issued = 50;
        s.runahead_prefetches_useful = 40;
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.l3_mpki() - 10.0).abs() < 1e-12);
        assert!((s.l1d_mpki() - 50.0).abs() < 1e-12);
        assert!((s.branch_mpki() - 2.0).abs() < 1e-12);
        assert!((s.stall_fraction() - 0.25).abs() < 1e-12);
        assert!((s.sst_hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.prefetch_accuracy() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::new();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.l3_mpki(), 0.0);
        assert_eq!(s.prefetch_accuracy(), 0.0);
        assert_eq!(s.sst_hit_rate(), 0.0);
    }

    #[test]
    fn percent_histogram_clamps_and_buckets() {
        let mut h = PercentHistogram::new();
        h.record(0);
        h.record(3);
        h.record(250); // clamped to 100
        h.record_fraction(0.51);
        assert_eq!(h.count(), 4);
        assert!((h.fraction_below(1) - 0.25).abs() < 1e-9);
        assert!((h.fraction_below(5) - 0.5).abs() < 1e-9);
        assert!(h.mean() <= 100.0);
    }

    #[test]
    fn ff_cycles_never_break_equality() {
        let mut a = SimStats::new();
        let mut b = SimStats::new();
        a.cycles = 1000;
        b.cycles = 1000;
        a.ff_cycles.normal = 700;
        a.ff_cycles.runahead = 100;
        assert_eq!(a, b, "fast-forward accounting must not affect equality");
    }

    #[test]
    fn per_mode_cycle_split_is_consistent() {
        let mut s = SimStats::new();
        s.cycles = 1000;
        s.runahead_cycles = 400;
        s.ff_cycles.normal = 500;
        s.ff_cycles.runahead = 150;
        assert_eq!(s.normal_cycles_simulated(), 100);
        assert_eq!(s.runahead_cycles_simulated(), 250);
        assert!((s.ff_fraction() - 0.65).abs() < 1e-12);
        assert_eq!(
            s.normal_cycles_simulated()
                + s.runahead_cycles_simulated()
                + s.ff_cycles.normal
                + s.ff_cycles.runahead,
            s.cycles,
            "four-way split covers every cycle"
        );
    }

    #[test]
    fn kv_roundtrip_is_exact() {
        let mut s = SimStats::new();
        // Give every u64 counter a distinct value so a field dropped from
        // either direction of the kv serialization fails the comparison.
        let mut next = 1u64;
        macro_rules! fill {
            ($($field:ident),* $(,)?) => {
                $( s.$field = next; next += 7; )*
            };
        }
        with_u64_stats_fields!(fill);
        s.terminated = TerminationKind::Watchdog;
        s.ff_cycles.normal = next;
        s.ff_cycles.runahead = next + 1;
        s.runahead_interval_hist.record(15);
        s.runahead_interval_hist.record(480);
        s.iq_free_at_entry.record(0.37);
        s.int_regs_free_at_entry.record(0.5121);
        s.fp_regs_free_at_entry.record(0.999);
        s.int_free_at_stall_hist.record(3);
        s.fp_free_at_stall_hist.record(97);
        let kv = s.to_kv();
        let back = SimStats::from_kv(&kv).expect("parses");
        assert_eq!(back, s);
        // `PartialEq` ignores ff_cycles by design; the serialized text must
        // not, so compare it too for full bit-exactness.
        assert_eq!(back.to_kv(), kv);
        assert_eq!(back.ff_cycles.normal, s.ff_cycles.normal);
        assert_eq!(back.ff_cycles.runahead, s.ff_cycles.runahead);
        assert_eq!(
            back.runahead_interval_hist.mean(),
            s.runahead_interval_hist.mean()
        );
        assert_eq!(back.iq_free_at_entry.mean(), s.iq_free_at_entry.mean());
    }

    #[test]
    fn termination_kind_roundtrips_and_affects_equality() {
        for kind in [
            TerminationKind::Completed,
            TerminationKind::MaxCycles,
            TerminationKind::Watchdog,
        ] {
            assert_eq!(TerminationKind::parse(kind.as_str()).unwrap(), kind);
        }
        assert!(TerminationKind::parse("exploded").is_err());
        assert!(SimStats::from_kv("terminated exploded").is_err());

        let mut a = SimStats::new();
        let b = SimStats::new();
        a.terminated = TerminationKind::Watchdog;
        assert_ne!(a, b, "termination kind is a real, comparable statistic");
    }

    #[test]
    fn kv_rejects_unknown_and_malformed_fields() {
        assert!(SimStats::from_kv("not_a_field 3").is_err());
        assert!(SimStats::from_kv("cycles abc").is_err());
        assert!(SimStats::from_kv("cycles").is_err());
        // Empty input is a valid (default) stats block.
        assert_eq!(SimStats::from_kv("").unwrap(), SimStats::new());
    }

    #[test]
    fn merge_scaled_scales_every_counter_exactly() {
        let mut sample = SimStats::new();
        // Distinct value per counter so a field skipped by the fold macro
        // shows up as a mismatch.
        let mut next = 1u64;
        macro_rules! fill {
            ($($field:ident),* $(,)?) => {
                $( sample.$field = next; next += 3; )*
            };
        }
        with_u64_stats_fields!(fill);
        sample.runahead_interval_hist.record(30);
        sample.iq_free_at_entry.record(0.5);
        sample.int_free_at_stall_hist.record(40);
        sample.terminated = TerminationKind::MaxCycles;

        let mut total = SimStats::new();
        total.merge_scaled(&sample, 3);
        total.merge_scaled(&sample, 2);

        let mut expect = 1u64;
        macro_rules! check {
            ($($field:ident),* $(,)?) => {
                $( assert_eq!(total.$field, expect * 5, stringify!($field));
                   expect += 3; )*
            };
        }
        with_u64_stats_fields!(check);
        assert_eq!(total.runahead_interval_hist.count(), 5);
        assert_eq!(total.iq_free_at_entry.samples(), 5);
        assert!((total.iq_free_at_entry.mean() - 0.5).abs() < 1e-12);
        assert_eq!(total.int_free_at_stall_hist.count(), 5);
        assert_eq!(total.terminated, TerminationKind::MaxCycles);
        // IPC of the merged block is the weighted ratio, not a mean of
        // per-slice IPCs.
        assert!((total.ipc() - sample.ipc()).abs() < 1e-12);
    }

    #[test]
    fn termination_worst_orders_severity() {
        use TerminationKind::*;
        assert_eq!(Completed.worst(MaxCycles), MaxCycles);
        assert_eq!(Watchdog.worst(MaxCycles), Watchdog);
        assert_eq!(MaxCycles.worst(Completed), MaxCycles);
        assert_eq!(Completed.worst(Completed), Completed);
    }

    #[test]
    fn display_mentions_key_metrics() {
        let s = SimStats::new();
        let text = s.to_string();
        assert!(text.contains("ipc"));
        assert!(text.contains("runahead entries"));
    }
}
