//! A small deterministic pseudo-random number generator.
//!
//! The workspace builds without crates.io access, so this module stands in
//! for `rand::rngs::SmallRng` everywhere the workloads and the randomized
//! tests need reproducible pseudo-randomness. The generator is
//! xoshiro256**, seeded from a single `u64` through SplitMix64 — the same
//! construction `rand`'s `SmallRng` has used — so streams are well mixed
//! even for adjacent seeds.
//!
//! Determinism is load-bearing: workload memory images are built from a
//! seed, and the parallel/serial equivalence tests in `pre-sim` rely on a
//! given seed always producing the same program.
//!
//! # Example
//!
//! ```
//! use pre_model::rng::SmallRng;
//!
//! let mut a = SmallRng::seed_from_u64(7);
//! let mut b = SmallRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.gen_range_usize(0..10) < 10);
//! ```

use std::ops::{Range, RangeInclusive};

/// Deterministic xoshiro256** generator seeded from a `u64`.
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state, as
        // recommended by the xoshiro authors (never all-zero).
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SmallRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)`. `bound` must be non-zero.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below bound must be non-zero");
        // Debiased multiply-shift (Lemire); the retry loop is vanishingly
        // rare for the small bounds the workloads use.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let hi = ((x as u128 * bound as u128) >> 64) as u64;
            let lo = (x as u128 * bound as u128) as u64;
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// A uniform `usize` in the half-open `range`.
    pub fn gen_range_usize(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        range.start + self.gen_below((range.end - range.start) as u64) as usize
    }

    /// A uniform `usize` in the inclusive `range`.
    pub(crate) fn gen_range_inclusive(&mut self, range: RangeInclusive<usize>) -> usize {
        let (lo, hi) = (*range.start(), *range.end());
        assert!(lo <= hi, "empty inclusive range");
        lo + self.gen_below((hi - lo) as u64 + 1) as usize
    }

    /// A uniform `u64` in the half-open `range`.
    pub fn gen_range_u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.gen_below(range.end - range.start)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Shuffles `slice` uniformly in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range_inclusive(0..=i);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        let mut c = SmallRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[rng.gen_range_usize(0..8)] = true;
            assert!(rng.gen_range_inclusive(3..=5) >= 3);
            assert!(rng.gen_range_inclusive(3..=5) <= 5);
            assert!(rng.gen_range_u64(10..20) >= 10);
            assert!(rng.gen_range_u64(10..20) < 20);
            // A degenerate inclusive range has a single value.
            assert_eq!(rng.gen_range_inclusive(4..=4), 4);
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_dependent() {
        let mut a = SmallRng::seed_from_u64(5);
        let mut b = SmallRng::seed_from_u64(6);
        let mut xs: Vec<u32> = (0..64).collect();
        let mut ys = xs.clone();
        a.shuffle(&mut xs);
        b.shuffle(&mut ys);
        assert_ne!(xs, ys, "different seeds should shuffle differently");
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
        // Single-element and empty slices are fine.
        a.shuffle(&mut [] as &mut [u32]);
        a.shuffle(&mut [1u32]);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(7);
        let hits = (0..4096).filter(|_| rng.gen_bool(0.25)).count();
        assert!((800..1250).contains(&hits), "hits = {hits}");
        assert!(!(0..64).any(|_| rng.gen_bool(0.0)));
        assert!((0..64).all(|_| rng.gen_bool(1.0)));
    }
}
