//! The bundled RISC-V assembly kernel suite.
//!
//! Nine small but real programs — written fresh for this reproduction in
//! the style of classic teaching-simulator kernels — covering the
//! control-flow and address-stream shapes the synthetic suite cannot
//! express: nested loops over 2-D indexing (matmul), data-dependent
//! recursion with a real stack (quicksort), a single serial dependence
//! chain (pointer-chase), streaming with a store stream (box-blur),
//! irregular inner-loop trip counts (prime sieve), unpredictable
//! data-dependent branching (binary search), an LLC-missing dependent
//! chase over a 4 MB working set (chase-large), and two kernels whose
//! semantics depend on byte-granular memory: a byte-histogram scan
//! (byte-histo) and a struct-of-bytes pointer chase (struct-chase).
//!
//! Every kernel follows the same loader convention: the **outer iteration
//! count arrives in `a0`** (set via [`AsmKernel::build`]), each round ends
//! by storing a live result into its `.data` section, and the program falls
//! off the end (halts) when the rounds are exhausted.

use crate::assembler::assemble;
use crate::error::AsmError;
use pre_model::program::Program;
use pre_model::reg::ArchReg;
use std::fmt;
use std::str::FromStr;

/// RISC-V register carrying the outer iteration count into a kernel (`a0`).
pub(crate) fn iter_reg() -> ArchReg {
    ArchReg::int(10)
}

/// The bundled assembly kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsmKernel {
    /// 8×8 integer matrix multiply (nested loops, 2-D indexing).
    Matmul,
    /// Recursive quicksort over 64 keys (call/return, stack traffic).
    Quicksort,
    /// Single pointer chase over a 4096-node scattered ring.
    PointerChase,
    /// 1-D three-tap box blur streaming a cold 16 MB arena.
    BoxBlur,
    /// Sieve of Eratosthenes over 1024 flags (irregular trip counts).
    PrimeSieve,
    /// 64 scrambled binary searches per round (data-dependent branches).
    BinarySearch,
    /// Pointer chase over a 4 MB ring (4× the LLC): every hop is an LLC
    /// miss, so runahead always has a stalling slice to chase.
    ChaseLarge,
    /// Byte-histogram / strlen-style scan: `lbu` walks a NUL-terminated
    /// pseudo-random string, the histogram address depends on the loaded
    /// byte value (sub-word semantics are load-bearing).
    ByteHisto,
    /// Struct-of-bytes pointer chase: each hop loads the next pointer, then
    /// byte/halfword/word fields (`lbu`/`lb`/`lhu`/`lw`) off the freshly
    /// loaded pointer.
    StructChase,
}

/// Number of nodes in the [`AsmKernel::ChaseLarge`] ring: 4 MB of 8-byte
/// links, four times the 1 MB LLC of the Table 1 configuration.
pub(crate) const CHASE_LARGE_NODES: u64 = 524_288;

// The working set must stay at least 4x the Table 1 LLC (1 MB) so the chase
// keeps missing off-chip, and a power of two so the stride mask is valid.
const _: () = assert!(CHASE_LARGE_NODES * 8 >= 4 * 1024 * 1024);
const _: () = assert!(CHASE_LARGE_NODES.is_power_of_two());

/// Chase hops per outer round of [`AsmKernel::ChaseLarge`]. Small enough
/// that one round stays within tier-1 test budgets even though every hop is
/// a serial LLC miss; the cursor carries across rounds, so longer runs keep
/// visiting fresh nodes.
#[cfg(test)]
pub(crate) const CHASE_LARGE_STEPS_PER_ROUND: u64 = 512;

/// Stride of the [`AsmKernel::ChaseLarge`] permutation. Odd, so
/// `i -> (i + STEP) mod NODES` is a full cycle over the power-of-two ring,
/// and large, so successive hops land ~1.5 MB apart.
pub(crate) const CHASE_LARGE_STEP: u64 = 196_613;

impl AsmKernel {
    /// Every bundled kernel.
    pub const ALL: [AsmKernel; 9] = [
        AsmKernel::Matmul,
        AsmKernel::Quicksort,
        AsmKernel::PointerChase,
        AsmKernel::BoxBlur,
        AsmKernel::PrimeSieve,
        AsmKernel::BinarySearch,
        AsmKernel::ChaseLarge,
        AsmKernel::ByteHisto,
        AsmKernel::StructChase,
    ];

    /// Short name (also the workload name with an `asm-` prefix).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            AsmKernel::Matmul => "matmul",
            AsmKernel::Quicksort => "quicksort",
            AsmKernel::PointerChase => "pointer-chase",
            AsmKernel::BoxBlur => "box-blur",
            AsmKernel::PrimeSieve => "prime-sieve",
            AsmKernel::BinarySearch => "binary-search",
            AsmKernel::ChaseLarge => "chase-large",
            AsmKernel::ByteHisto => "byte-histo",
            AsmKernel::StructChase => "struct-chase",
        }
    }

    /// One-line description.
    pub fn description(&self) -> &'static str {
        match self {
            AsmKernel::Matmul => "8x8 integer matmul, nested loops over 2-D indexing",
            AsmKernel::Quicksort => "recursive quicksort over 64 keys with a real stack",
            AsmKernel::PointerChase => "single dependent load chain over a scattered ring",
            AsmKernel::BoxBlur => "three-tap 1-D blur streaming a cold arena + store stream",
            AsmKernel::PrimeSieve => "sieve of Eratosthenes, irregular inner trip counts",
            AsmKernel::BinarySearch => "scrambled binary searches, unpredictable branches",
            AsmKernel::ChaseLarge => "LLC-missing pointer chase over a 4 MB scattered ring",
            AsmKernel::ByteHisto => "byte-histogram strlen-style scan, byte-indexed buckets",
            AsmKernel::StructChase => "struct-of-bytes pointer chase with sub-word field loads",
        }
    }

    /// The kernel's assembly source text.
    pub(crate) fn source(&self) -> &'static str {
        match self {
            AsmKernel::Matmul => include_str!("kernels/matmul.s"),
            AsmKernel::Quicksort => include_str!("kernels/quicksort.s"),
            AsmKernel::PointerChase => include_str!("kernels/pointer_chase.s"),
            AsmKernel::BoxBlur => include_str!("kernels/box_blur.s"),
            AsmKernel::PrimeSieve => include_str!("kernels/prime_sieve.s"),
            AsmKernel::BinarySearch => include_str!("kernels/binary_search.s"),
            AsmKernel::ChaseLarge => include_str!("kernels/chase_large.s"),
            AsmKernel::ByteHisto => include_str!("kernels/byte_histo.s"),
            AsmKernel::StructChase => include_str!("kernels/struct_chase.s"),
        }
    }

    /// Assembles the kernel and initializes `a0` with the outer iteration
    /// count.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] if the embedded source fails to assemble —
    /// which would be a packaging bug; [`AsmKernel::build`] is the
    /// infallible variant the workload suite uses.
    pub(crate) fn try_build(&self, iterations: u64) -> Result<Program, AsmError> {
        let mut program = assemble(&format!("asm-{}", self.name()), self.source())?;
        if let AsmKernel::ChaseLarge = self {
            // The ring links are installed by the loader: building them in
            // assembly would burn ~4 M instructions per simulation before
            // the chase even starts. `nodes` is the first `.data` symbol,
            // so it sits at the default data base; later `initial_mem`
            // entries override the `.fill` zeros.
            let base = crate::assembler::AsmOptions::default().data_base;
            for i in 0..CHASE_LARGE_NODES {
                let next = (i + CHASE_LARGE_STEP) & (CHASE_LARGE_NODES - 1);
                program.initial_mem.push((base + i * 8, base + next * 8));
            }
        }
        program.initial_regs.push((iter_reg(), iterations));
        Ok(program)
    }

    /// Assembles the kernel, panicking on error.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to assemble; the bundled sources
    /// are compiled into the crate and covered by tests, so this is
    /// unreachable in practice.
    pub fn build(&self, iterations: u64) -> Program {
        self.try_build(iterations)
            .expect("bundled kernel must assemble")
    }
}

impl fmt::Display for AsmKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown kernel name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmKernelError(String);

impl fmt::Display for ParseAsmKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown asm kernel `{}`", self.0)
    }
}

impl std::error::Error for ParseAsmKernelError {}

impl FromStr for AsmKernel {
    type Err = ParseAsmKernelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let wanted = s.to_ascii_lowercase();
        let wanted = wanted.strip_prefix("asm-").unwrap_or(&wanted);
        AsmKernel::ALL
            .iter()
            .copied()
            .find(|k| k.name() == wanted)
            .ok_or_else(|| ParseAsmKernelError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::AsmOptions;
    use pre_model::program::Interpreter;

    fn finish(kernel: AsmKernel, iterations: u64) -> Interpreter {
        let program = kernel.build(iterations);
        program.validate().expect("kernel validates");
        let mut interp = Interpreter::new(&program);
        interp.run(20_000_000);
        assert!(interp.halted(), "{kernel} did not halt");
        interp
    }

    #[test]
    fn all_kernels_assemble_and_halt() {
        for kernel in AsmKernel::ALL {
            let interp = finish(kernel, 2);
            assert!(interp.loads() > 0, "{kernel} issued no loads");
        }
    }

    #[test]
    fn zero_iterations_skip_the_body() {
        for kernel in AsmKernel::ALL {
            // Setup/init loops may run, but the program must still halt fast.
            let interp = finish(kernel, 0);
            assert!(interp.retired() < 200_000);
        }
    }

    #[test]
    fn prime_sieve_counts_172_primes_below_1024() {
        let interp = finish(AsmKernel::PrimeSieve, 1);
        let result_addr = AsmOptions::default().data_base + 1024 * 8;
        assert_eq!(interp.memory().load_u64(result_addr), 172);
    }

    #[test]
    fn quicksort_sorts_the_array() {
        let interp = finish(AsmKernel::Quicksort, 1);
        let base = AsmOptions::default().data_base;
        let mut prev = 0;
        for i in 0..64 {
            let v = interp.memory().load_u64(base + i * 8);
            assert!(v >= prev, "arr[{i}] = {v} < {prev}: not sorted");
            assert!(v < 1024, "keys are 10-bit");
            prev = v;
        }
    }

    #[test]
    fn matmul_computes_the_product() {
        let interp = finish(AsmKernel::Matmul, 1);
        let base = AsmOptions::default().data_base;
        let n = 8u64;
        let a = |i: u64, j: u64| i * n + j + 1;
        let b = |i: u64, j: u64| i.wrapping_sub(j).wrapping_add(3);
        // Spot-check two elements of C (third matrix in the data section).
        for (i, j) in [(0u64, 0u64), (7, 5)] {
            let expected: u64 = (0..n).fold(0u64, |acc, k| {
                acc.wrapping_add(a(i, k).wrapping_mul(b(k, j)))
            });
            let addr = base + (2 * n * n + i * n + j) * 8;
            assert_eq!(interp.memory().load_u64(addr), expected, "C[{i}][{j}]");
        }
    }

    #[test]
    fn binary_search_hit_count_matches_reference() {
        let interp = finish(AsmKernel::BinarySearch, 1);
        // Mirror the kernel: key = (q * 2654435761 + round) & 4095, table
        // holds 3*i + 1; the final round executes with round counter 1.
        let hits = (0..64u64)
            .filter(|q| {
                let key = (q.wrapping_mul(2_654_435_761).wrapping_add(1)) & 4095;
                key % 3 == 1 && key / 3 < 1024
            })
            .count() as u64;
        let result_addr = AsmOptions::default().data_base + 1024 * 8;
        assert_eq!(interp.memory().load_u64(result_addr), hits);
    }

    #[test]
    fn pointer_chase_ends_each_round_at_a_node_address() {
        let interp = finish(AsmKernel::PointerChase, 1);
        let base = AsmOptions::default().data_base;
        let result = interp.memory().load_u64(base + 4096 * 8);
        // After 4096 steps of a full-cycle permutation the cursor is back at
        // the ring entry.
        assert_eq!(result, base);
    }

    #[test]
    fn chase_large_ring_is_a_full_cycle_over_four_megabytes() {
        let program = AsmKernel::ChaseLarge.build(1);
        let mem = program.build_memory();
        let base = AsmOptions::default().data_base;
        let mut cursor = base;
        for step in 1..=CHASE_LARGE_NODES {
            cursor = mem.load_u64(cursor);
            let offset = cursor - base;
            assert_eq!(offset % 8, 0);
            assert!(offset / 8 < CHASE_LARGE_NODES, "link escaped the ring");
            if cursor == base {
                assert_eq!(step, CHASE_LARGE_NODES, "permutation is not a full cycle");
            }
        }
        assert_eq!(cursor, base, "ring does not close");
    }

    #[test]
    fn chase_large_cursor_advances_across_rounds() {
        let interp = finish(AsmKernel::ChaseLarge, 2);
        let base = AsmOptions::default().data_base;
        let mask = CHASE_LARGE_NODES - 1;
        // The cursor is not reset between rounds: after r rounds it sits at
        // index (r * steps_per_round * STEP) mod NODES.
        let index = (2 * CHASE_LARGE_STEPS_PER_ROUND * CHASE_LARGE_STEP) & mask;
        let result = interp.memory().load_u64(base + CHASE_LARGE_NODES * 8);
        assert_eq!(result, base + index * 8);
    }

    /// The byte string the `byte-histo` init loop generates.
    fn byte_histo_reference_string() -> Vec<u8> {
        let mut x = 0x9E37_79B9u64;
        let mut text: Vec<u8> = (0..2047u64)
            .map(|i| {
                x = x.wrapping_mul(2_654_435_761).wrapping_add(i);
                let b = ((x >> 16) & 255) as u8;
                if b == 0 {
                    170
                } else {
                    b
                }
            })
            .collect();
        text.push(0);
        text
    }

    #[test]
    fn byte_histo_matches_a_rust_reference() {
        let rounds = 3u64;
        let interp = finish(AsmKernel::ByteHisto, rounds);
        let text = byte_histo_reference_string();
        let checksum: u64 = text.iter().map(|&b| u64::from(b)).sum();
        let base = AsmOptions::default().data_base;
        let result = base + 2048 + 64 * 8;
        assert_eq!(interp.memory().load_u64(result), checksum);
        assert_eq!(interp.memory().load_u64(result + 8), 2047);
        // Histogram buckets accumulate across rounds.
        let mut per_round = [0u64; 64];
        for &b in text.iter().filter(|&&b| b != 0) {
            per_round[(b & 63) as usize] += 1;
        }
        for (k, &count) in per_round.iter().enumerate() {
            let addr = base + 2048 + k as u64 * 8;
            assert_eq!(
                interp.memory().load_u64(addr),
                count * rounds,
                "hist[{k}] after {rounds} rounds"
            );
        }
        // The generated string is byte-granular: the image stores it as
        // bytes, not words.
        assert_eq!(interp.memory().load_bytes(base, 1), u64::from(text[0]));
    }

    #[test]
    fn struct_chase_matches_a_rust_reference() {
        let rounds = 2u64;
        let interp = finish(AsmKernel::StructChase, rounds);
        let base = AsmOptions::default().data_base;
        // Replicate the init loop's fields and the chase.
        let key = |i: u64| i & 255;
        let sign = |i: u64| ((i.wrapping_mul(37) & 255) as u8) as i8 as i64 as u64;
        let weight = |i: u64| (i.wrapping_mul(2_654_435_761) >> 8) & 0xFFFF;
        let val = |i: u64| {
            let w = (i.wrapping_mul(2_654_435_761) >> 24) & 0xFFFF_FFFF;
            w as u32 as i32 as i64 as u64
        };
        let mut acc = 0u64;
        let mut node = 0u64;
        for _ in 0..rounds * 256 {
            node = (node + 101) & 255;
            acc = acc
                .wrapping_add(key(node))
                .wrapping_add(sign(node))
                .wrapping_add(weight(node));
            acc ^= val(node);
            // The tag write-then-read: the 8-byte read returns the freshly
            // stored low byte (bytes +17..+23 of the node are zero).
            acc = acc.wrapping_add(acc & 0xFF);
        }
        let result = base + 256 * 32;
        assert_eq!(interp.memory().load_u64(result), acc);
        // 256 hops per round is a full cycle (101 is odd), so the cursor is
        // back at node 0 at every round boundary.
        assert_eq!(interp.memory().load_u64(result + 8), base);
    }

    #[test]
    fn names_parse_and_roundtrip() {
        for kernel in AsmKernel::ALL {
            assert_eq!(kernel.name().parse::<AsmKernel>().unwrap(), kernel);
            let prefixed = format!("asm-{kernel}");
            assert_eq!(prefixed.parse::<AsmKernel>().unwrap(), kernel);
            assert!(!kernel.description().is_empty());
        }
        assert!("unknown".parse::<AsmKernel>().is_err());
    }

    #[test]
    fn more_iterations_do_more_work() {
        let one = finish(AsmKernel::BoxBlur, 1).retired();
        let three = finish(AsmKernel::BoxBlur, 3).retired();
        assert!(three > one * 2, "{three} vs {one}");
    }
}
