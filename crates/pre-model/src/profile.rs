//! Interval profiling and clustering for SimPoint-style sampled simulation.
//!
//! Detailed simulation cost scales linearly with committed micro-ops, but
//! most programs spend their time repeating a small number of phases. The
//! SimPoint methodology exploits this: slice the functional execution into
//! fixed-size intervals, summarize each interval by a **Basic Block Vector**
//! (execution counts keyed by branch-to-branch PC spans, weighted by span
//! length), cluster the vectors, and simulate only one representative
//! interval per cluster. The full-run statistics are then extrapolated by
//! weighting each representative by its cluster population.
//!
//! This module provides the first two stages — [`profile_intervals`] runs
//! the functional [`Interpreter`] and collects one [`Bbv`] per interval, and
//! [`cluster_intervals`] is a fully deterministic in-tree k-means (random
//! projection to `PROJECTION_DIMS` (32) dimensions with per-span signs derived
//! from [`StableHasher`], centroid seeding via [`SmallRng`], fixed iteration
//! cap). Everything is serial and free of ambient randomness, so the same
//! program always yields byte-identical BBVs and identical cluster
//! assignments, independent of thread count or host.
//!
//! The simulation and extrapolation stages live in `pre-sim::sample`, which
//! forks each representative from a windowed
//! [`SimSnapshot`](crate::SimSnapshot) (see
//! [`SimSnapshot::capture_windowed`](crate::SimSnapshot::capture_windowed)).

use crate::hash::StableHasher;
use crate::program::{Interpreter, Program};
use crate::rng::SmallRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Dimensionality of the random projection used before k-means. SimPoint
/// projects its (huge, sparse) BBVs down to a small dense vector; 32
/// dimensions keeps distances meaningful for the span counts seen here while
/// making the clustering itself trivially cheap.
pub(crate) const PROJECTION_DIMS: usize = 32;

/// Iteration cap for the k-means loop. Lloyd's algorithm on a few hundred
/// 32-dimensional points converges in a handful of iterations; the cap only
/// bounds pathological oscillation.
const KMEANS_MAX_ITERS: usize = 50;

/// A Basic Block Vector: execution counts keyed by branch-to-branch PC
/// spans. A span is the run of consecutively-executed PCs between two
/// control-flow boundaries (a conditional branch, or any taken transfer);
/// its count accumulates the number of micro-ops executed inside the span,
/// so long straight-line blocks weigh proportionally more than short ones —
/// the standard SimPoint weighting.
///
/// The map is a `BTreeMap`, so iteration order (and [`Bbv::to_text`]) is a
/// pure function of the execution, which is what the determinism golden
/// tests byte-compare.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bbv {
    /// `(span_start_pc, span_end_pc) → executed micro-ops` counts.
    pub counts: BTreeMap<(u32, u32), u64>,
}

impl Bbv {
    /// Creates an empty vector.
    pub(crate) fn new() -> Self {
        Bbv::default()
    }

    /// Adds `uops` executed micro-ops to the span `[start, end]`.
    pub(crate) fn record_span(&mut self, start: u32, end: u32, uops: u64) {
        *self.counts.entry((start, end)).or_insert(0) += uops;
    }

    /// Canonical text rendering (`span <start> <end> <count>` lines in key
    /// order); two executions of the same program produce byte-identical
    /// text, which the determinism tests rely on.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (&(start, end), &count) in &self.counts {
            let _ = writeln!(out, "span {start} {end} {count}");
        }
        out
    }

    /// Projects the vector onto [`PROJECTION_DIMS`] dimensions and
    /// normalizes to unit L2 length (zero vector for an empty BBV). Each
    /// span key contributes its count along a ±1 direction derived from a
    /// [`StableHasher`]-seeded [`SmallRng`], so the projection of a given
    /// span is identical in every interval, every run and every process.
    pub(crate) fn project(&self) -> [f64; PROJECTION_DIMS] {
        let mut v = [0f64; PROJECTION_DIMS];
        for (&(start, end), &count) in &self.counts {
            let mut h = StableHasher::new();
            h.write_str("bbv-projection");
            h.write_u64(u64::from(start));
            h.write_u64(u64::from(end));
            let mut rng = SmallRng::seed_from_u64(h.finish());
            let mut bits = rng.next_u64();
            for (d, slot) in v.iter_mut().enumerate() {
                if d == 64 {
                    bits = rng.next_u64();
                }
                let sign = if bits & 1 == 1 { 1.0 } else { -1.0 };
                bits >>= 1;
                *slot += sign * count as f64;
            }
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }
}

/// One profiled interval: its position in the committed-uop stream and its
/// Basic Block Vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfiledInterval {
    /// Index of the interval in profiling order.
    pub index: usize,
    /// Committed-uop offset (from program start) at which the interval
    /// begins; forking a snapshot at this offset and running
    /// [`ProfiledInterval::len_uops`] micro-ops reproduces the interval.
    pub start_uop: u64,
    /// Committed micro-ops in the interval (the configured interval size,
    /// except for a shorter final interval when the program halts or the
    /// budget ends mid-interval).
    pub len_uops: u64,
    /// The interval's Basic Block Vector.
    pub bbv: Bbv,
}

/// The result of the profiling pass: every interval of the execution with
/// its BBV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalProfile {
    /// Interval size in committed micro-ops that was requested.
    pub interval_uops: u64,
    /// Committed-uop offset at which profiling started (outer functional
    /// warm-up that is excluded from the profile).
    pub start_uop: u64,
    /// The profiled intervals, in execution order.
    pub intervals: Vec<ProfiledInterval>,
    /// `true` when the program halted within the profiling budget.
    pub halted: bool,
}

impl IntervalProfile {
    /// Total committed micro-ops covered by the profile.
    pub fn total_uops(&self) -> u64 {
        self.intervals.iter().map(|iv| iv.len_uops).sum()
    }
}

/// Runs `program` on the functional interpreter and collects a [`Bbv`] per
/// interval of `interval_uops` committed micro-ops, covering at most
/// `max_uops` after skipping the first `skip_uops` (the outer warm-up).
///
/// The pass is purely functional and serial: its output depends only on
/// `(program, interval_uops, max_uops, skip_uops)`.
///
/// # Panics
///
/// Panics if `interval_uops` is zero.
pub fn profile_intervals(
    program: &Program,
    interval_uops: u64,
    max_uops: u64,
    skip_uops: u64,
) -> IntervalProfile {
    assert!(interval_uops > 0, "interval size must be positive");
    let mut interp = Interpreter::new(program);
    interp.run(skip_uops);
    let mut intervals = Vec::new();
    let mut done = 0u64;
    while done < max_uops && !interp.halted() {
        let target = interval_uops.min(max_uops - done);
        let mut bbv = Bbv::new();
        let mut executed = 0u64;
        let mut span_start = interp.pc();
        let mut span_uops = 0u64;
        let mut last_pc = span_start;
        while executed < target {
            let pc = interp.pc();
            let is_branch = program
                .inst_at(pc)
                .map(|inst| inst.opcode.is_cond_branch())
                .unwrap_or(false);
            if !interp.step() {
                break;
            }
            executed += 1;
            span_uops += 1;
            last_pc = pc;
            let next = interp.pc();
            if is_branch || next != pc.wrapping_add(1) {
                bbv.record_span(span_start, pc, span_uops);
                span_start = next;
                span_uops = 0;
            }
        }
        if span_uops > 0 {
            // Close the span left open at the interval boundary.
            bbv.record_span(span_start, last_pc, span_uops);
        }
        if executed == 0 {
            break;
        }
        intervals.push(ProfiledInterval {
            index: intervals.len(),
            start_uop: skip_uops + done,
            len_uops: executed,
            bbv,
        });
        done += executed;
    }
    IntervalProfile {
        interval_uops,
        start_uop: skip_uops,
        intervals,
        halted: interp.halted(),
    }
}

/// One representative interval chosen by the clusterer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Representative {
    /// Cluster this representative stands for.
    pub cluster: usize,
    /// Index (into [`IntervalProfile::intervals`]) of the chosen interval.
    pub interval: usize,
    /// Number of intervals in the cluster; the extrapolation weight.
    pub weight: u64,
}

/// The output of [`cluster_intervals`]: a cluster id per interval and one
/// weighted representative per non-empty cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// Cluster id assigned to each interval, in interval order.
    pub assignments: Vec<usize>,
    /// One representative per cluster, sorted by interval index. The
    /// weights sum to the number of intervals.
    pub representatives: Vec<Representative>,
}

/// Clusters the profiled intervals into at most `k` groups with a
/// deterministic k-means over the random-projected BBVs, and picks the
/// member closest to each centroid as the cluster's representative.
///
/// Determinism: the projection signs come from a stable hash of each span
/// key, centroid seeding uses [`SmallRng::seed_from_u64`]`(seed)`, the
/// iteration count is capped, and every tie (nearest centroid, closest
/// member) breaks toward the lowest index. The function is serial, so its
/// output is independent of `PRE_THREADS`.
///
/// A shorter final interval (the tail of a program that halts mid-interval)
/// scales differently from full intervals, so it is kept out of k-means and
/// returned as its own singleton cluster with weight 1.
pub fn cluster_intervals(profile: &IntervalProfile, k: usize, seed: u64) -> Clustering {
    let n = profile.intervals.len();
    if n == 0 {
        return Clustering {
            assignments: Vec::new(),
            representatives: Vec::new(),
        };
    }
    // Partition full intervals from the (at most one, but be general)
    // partial tail intervals.
    let full: Vec<usize> = (0..n)
        .filter(|&i| profile.intervals[i].len_uops == profile.interval_uops)
        .collect();
    let partial: Vec<usize> = (0..n)
        .filter(|&i| profile.intervals[i].len_uops != profile.interval_uops)
        .collect();

    let mut assignments = vec![usize::MAX; n];
    let mut representatives = Vec::new();

    if !full.is_empty() {
        let points: Vec<[f64; PROJECTION_DIMS]> = full
            .iter()
            .map(|&i| profile.intervals[i].bbv.project())
            .collect();
        let k_eff = k.max(1).min(full.len());

        // Seed centroids on a shuffled subset of the points.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..full.len()).collect();
        rng.shuffle(&mut order);
        let mut centroids: Vec<[f64; PROJECTION_DIMS]> =
            order[..k_eff].iter().map(|&p| points[p]).collect();

        let mut assign = vec![0usize; full.len()];
        for _ in 0..KMEANS_MAX_ITERS {
            // Assignment step; ties break toward the lower cluster index
            // because only a strictly smaller distance wins.
            let mut changed = false;
            for (p, point) in points.iter().enumerate() {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = sq_dist(point, centroid);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if assign[p] != best {
                    assign[p] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            // Update step; an empty cluster keeps its previous centroid.
            for (c, centroid) in centroids.iter_mut().enumerate() {
                let mut sum = [0f64; PROJECTION_DIMS];
                let mut count = 0u64;
                for (p, point) in points.iter().enumerate() {
                    if assign[p] == c {
                        for (s, x) in sum.iter_mut().zip(point.iter()) {
                            *s += x;
                        }
                        count += 1;
                    }
                }
                if count > 0 {
                    for s in &mut sum {
                        *s /= count as f64;
                    }
                    *centroid = sum;
                }
            }
        }

        // Compact away empty clusters and pick representatives: the member
        // closest to its centroid, ties toward the lowest interval index.
        for (c, centroid) in centroids.iter().enumerate().take(k_eff) {
            let members: Vec<usize> = (0..full.len()).filter(|&p| assign[p] == c).collect();
            if members.is_empty() {
                continue;
            }
            let mut best_p = members[0];
            let mut best_d = f64::INFINITY;
            for &p in &members {
                let d = sq_dist(&points[p], centroid);
                if d < best_d {
                    best_d = d;
                    best_p = p;
                }
            }
            let next_cluster = representatives.len();
            for &p in &members {
                assignments[full[p]] = next_cluster;
            }
            representatives.push(Representative {
                cluster: next_cluster,
                interval: full[best_p],
                weight: members.len() as u64,
            });
        }
    }

    // Partial tail intervals: singleton clusters with weight 1.
    for &i in &partial {
        let next_cluster = representatives.len();
        assignments[i] = next_cluster;
        representatives.push(Representative {
            cluster: next_cluster,
            interval: i,
            weight: 1,
        });
    }

    representatives.sort_by_key(|r| r.interval);
    Clustering {
        assignments,
        representatives,
    }
}

fn sq_dist(a: &[f64; PROJECTION_DIMS], b: &[f64; PROJECTION_DIMS]) -> f64 {
    let mut d = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let diff = x - y;
        d += diff * diff;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, BranchCond, StaticInst};
    use crate::reg::ArchReg;

    /// A program with two distinct phases: a store-heavy loop followed by a
    /// pure-ALU loop, so interval BBVs fall into two clear clusters.
    fn two_phase_program(iters_per_phase: u64) -> Program {
        let mut p = Program::new("profile-test");
        p.insts = vec![
            // Phase 1: store loop (pcs 0..=4).
            StaticInst::load_imm(ArchReg::int(1), 0),
            StaticInst::load_imm(ArchReg::int(2), 0x1000),
            StaticInst::store(ArchReg::int(1), ArchReg::int(2), 0),
            StaticInst::int_alu_imm(AluOp::Add, ArchReg::int(1), ArchReg::int(1), 1),
            StaticInst::branch(BranchCond::Lt, ArchReg::int(1), ArchReg::int(4), 2),
            // Phase 2: ALU loop (pcs 5..=8).
            StaticInst::load_imm(ArchReg::int(1), 0),
            StaticInst::int_alu_imm(AluOp::Add, ArchReg::int(3), ArchReg::int(3), 7),
            StaticInst::int_alu_imm(AluOp::Add, ArchReg::int(1), ArchReg::int(1), 1),
            StaticInst::branch(BranchCond::Lt, ArchReg::int(1), ArchReg::int(4), 6),
        ];
        p.initial_regs = vec![(ArchReg::int(4), iters_per_phase)];
        p
    }

    #[test]
    fn profiling_slices_exact_intervals() {
        let program = two_phase_program(500);
        let profile = profile_intervals(&program, 100, 1_000, 0);
        assert!(!profile.intervals.is_empty());
        for iv in &profile.intervals[..profile.intervals.len() - 1] {
            assert_eq!(iv.len_uops, 100);
        }
        assert_eq!(
            profile.total_uops(),
            profile
                .intervals
                .iter()
                .map(|iv| iv.bbv.counts.values().sum::<u64>())
                .sum::<u64>(),
            "BBV span counts account for every profiled uop"
        );
        // Offsets tile the stream.
        for (i, iv) in profile.intervals.iter().enumerate() {
            assert_eq!(iv.index, i);
            if i > 0 {
                let prev = &profile.intervals[i - 1];
                assert_eq!(iv.start_uop, prev.start_uop + prev.len_uops);
            }
        }
    }

    #[test]
    fn profiling_respects_skip_offset() {
        let program = two_phase_program(500);
        let a = profile_intervals(&program, 100, 400, 0);
        let b = profile_intervals(&program, 100, 300, 100);
        // Interval i+1 of the unskipped profile is interval i of the
        // profile that skipped one interval.
        assert_eq!(b.start_uop, 100);
        assert_eq!(a.intervals[1].bbv, b.intervals[0].bbv);
        assert_eq!(a.intervals[1].start_uop, b.intervals[0].start_uop);
    }

    #[test]
    fn bbvs_are_deterministic_and_textually_stable() {
        let program = two_phase_program(300);
        let a = profile_intervals(&program, 128, 2_000, 0);
        let b = profile_intervals(&program, 128, 2_000, 0);
        assert_eq!(a, b);
        for (x, y) in a.intervals.iter().zip(b.intervals.iter()) {
            assert_eq!(x.bbv.to_text(), y.bbv.to_text());
        }
        assert!(!a.intervals[0].bbv.counts.is_empty());
    }

    #[test]
    fn projection_is_stable_and_normalized() {
        let mut bbv = Bbv::new();
        bbv.record_span(0, 4, 500);
        bbv.record_span(6, 8, 120);
        let v = bbv.project();
        assert_eq!(v, bbv.project());
        let norm: f64 = v.iter().map(|x| x * x).sum();
        assert!((norm - 1.0).abs() < 1e-9);
        assert_eq!(Bbv::new().project(), [0.0; PROJECTION_DIMS]);
    }

    #[test]
    fn clustering_separates_phases_and_weights_sum() {
        let program = two_phase_program(2_000);
        let profile = profile_intervals(&program, 250, 10_000, 0);
        let clustering = cluster_intervals(&profile, 4, 42);
        assert_eq!(clustering.assignments.len(), profile.intervals.len());
        let weight_sum: u64 = clustering.representatives.iter().map(|r| r.weight).sum();
        assert_eq!(weight_sum, profile.intervals.len() as u64);
        // Every interval got a cluster.
        assert!(clustering.assignments.iter().all(|&c| c != usize::MAX));
        // The two program phases end up in different clusters: the first
        // and last full intervals must not share one.
        let last_full = profile
            .intervals
            .iter()
            .rev()
            .find(|iv| iv.len_uops == 250)
            .map(|iv| iv.index)
            .unwrap();
        assert_ne!(
            clustering.assignments[0], clustering.assignments[last_full],
            "store phase and ALU phase should cluster apart"
        );
        // Representatives are valid interval indices with the right cluster.
        for rep in &clustering.representatives {
            assert_eq!(clustering.assignments[rep.interval], rep.cluster);
            assert!(rep.weight >= 1);
        }
    }

    #[test]
    fn clustering_is_deterministic_across_repeats() {
        let program = two_phase_program(1_000);
        let profile = profile_intervals(&program, 200, 8_000, 0);
        let a = cluster_intervals(&profile, 5, 7);
        let b = cluster_intervals(&profile, 5, 7);
        assert_eq!(a, b);
        // Different seed may pick different clusters, but stays valid.
        let c = cluster_intervals(&profile, 5, 8);
        assert_eq!(
            c.representatives.iter().map(|r| r.weight).sum::<u64>(),
            profile.intervals.len() as u64
        );
    }

    #[test]
    fn partial_tail_interval_becomes_singleton_cluster() {
        let program = two_phase_program(100);
        // Program halts after ~2×(2 + 100×3 + ...) uops; pick an interval
        // size that cannot divide the run evenly.
        let profile = profile_intervals(&program, 128, 100_000, 0);
        assert!(profile.halted);
        let tail = profile.intervals.last().unwrap();
        assert!(tail.len_uops < 128);
        let clustering = cluster_intervals(&profile, 2, 1);
        let tail_cluster = clustering.assignments[tail.index];
        let tail_rep = clustering
            .representatives
            .iter()
            .find(|r| r.cluster == tail_cluster)
            .unwrap();
        assert_eq!(tail_rep.interval, tail.index);
        assert_eq!(tail_rep.weight, 1);
    }

    #[test]
    fn k_larger_than_intervals_is_fine() {
        let program = two_phase_program(50);
        let profile = profile_intervals(&program, 64, 100_000, 0);
        let clustering = cluster_intervals(&profile, 64, 3);
        assert_eq!(
            clustering.representatives.len(),
            profile.intervals.len(),
            "with k ≥ n every interval is its own cluster"
        );
        let empty = IntervalProfile {
            interval_uops: 64,
            start_uop: 0,
            intervals: Vec::new(),
            halted: true,
        };
        assert_eq!(cluster_intervals(&empty, 4, 0).representatives.len(), 0);
    }
}
