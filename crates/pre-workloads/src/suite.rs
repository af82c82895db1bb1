//! The SPEC-CPU2006-like workload suite, plus the assembled RISC-V kernels.

use crate::kernels::{
    compute_bound, gather, pointer_chase, streaming, GatherSpec, PointerChaseSpec, StreamingSpec,
};
use pre_asm::AsmKernel;
use pre_model::program::Program;
use std::fmt;
use std::str::FromStr;

/// Build-time parameters shared by all workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadParams {
    /// Loop trip count. The default is large enough that simulations bounded
    /// by a micro-op budget never reach the end of the program; tests that
    /// want a halting program pass a small value.
    pub iterations: u64,
    /// Seed for the randomized memory layouts (linked-list permutations).
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            iterations: 1_000_000_000,
            seed: 42,
        }
    }
}

impl WorkloadParams {
    /// Parameters for a short, halting run (used in tests).
    pub fn short(iterations: u64) -> Self {
        WorkloadParams {
            iterations,
            seed: 42,
        }
    }
}

/// The synthetic stand-ins for the paper's memory-intensive SPEC CPU2006
/// benchmarks, plus a compute-bound control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Pointer chasing over several independent linked structures with
    /// interleaved array scans (mcf).
    McfLike,
    /// Wide multi-array floating-point streaming with a store stream (lbm).
    LbmLike,
    /// Indexed gathers into a large lattice with FP compute (milc).
    MilcLike,
    /// A single, extremely regular integer stream — one dominant slice
    /// (libquantum).
    LibquantumLike,
    /// Pointer chasing with data-dependent branches and heap stores
    /// (omnetpp).
    OmnetppLike,
    /// Sparse two-level indirection with integer compute (soplex).
    SoplexLike,
    /// Gather-dominated signal processing with FP compute (sphinx3).
    Sphinx3Like,
    /// Many-stream FP stencil (bwaves).
    BwavesLike,
    /// Streaming FP stencil with higher compute density (leslie3d).
    Leslie3dLike,
    /// Large-stride streaming with poor locality (GemsFDTD).
    GemsLike,
    /// Moderate-intensity FP streaming (zeusmp).
    ZeusmpLike,
    /// Very wide multi-array FP streaming (cactusADM).
    CactusLike,
    /// Pointer-heavy integer code with a smaller working set and branchy
    /// control flow (gcc).
    GccLike,
    /// Compute-bound control kernel (not part of the paper's suite).
    ComputeBound,
    /// A real RISC-V assembly kernel from the bundled [`AsmKernel`] suite,
    /// assembled by `pre-asm` (real control flow and address streams rather
    /// than generated ones).
    Asm(AsmKernel),
}

impl Workload {
    /// The memory-intensive suite used for Figures 2 and 3.
    pub const MEMORY_INTENSIVE: [Workload; 13] = [
        Workload::McfLike,
        Workload::LbmLike,
        Workload::MilcLike,
        Workload::LibquantumLike,
        Workload::OmnetppLike,
        Workload::SoplexLike,
        Workload::Sphinx3Like,
        Workload::BwavesLike,
        Workload::Leslie3dLike,
        Workload::GemsLike,
        Workload::ZeusmpLike,
        Workload::CactusLike,
        Workload::GccLike,
    ];

    /// Every synthetic workload, including the compute-bound control.
    pub const SYNTHETIC: [Workload; 14] = [
        Workload::McfLike,
        Workload::LbmLike,
        Workload::MilcLike,
        Workload::LibquantumLike,
        Workload::OmnetppLike,
        Workload::SoplexLike,
        Workload::Sphinx3Like,
        Workload::BwavesLike,
        Workload::Leslie3dLike,
        Workload::GemsLike,
        Workload::ZeusmpLike,
        Workload::CactusLike,
        Workload::GccLike,
        Workload::ComputeBound,
    ];

    /// The assembled RISC-V kernel suite (real programs, `--suite asm`).
    pub const ASM_SUITE: [Workload; 9] = [
        Workload::Asm(AsmKernel::Matmul),
        Workload::Asm(AsmKernel::Quicksort),
        Workload::Asm(AsmKernel::PointerChase),
        Workload::Asm(AsmKernel::BoxBlur),
        Workload::Asm(AsmKernel::PrimeSieve),
        Workload::Asm(AsmKernel::BinarySearch),
        Workload::Asm(AsmKernel::ChaseLarge),
        Workload::Asm(AsmKernel::ByteHisto),
        Workload::Asm(AsmKernel::StructChase),
    ];

    /// Every workload: the synthetic suite followed by the asm suite.
    pub const ALL: [Workload; 23] = [
        Workload::McfLike,
        Workload::LbmLike,
        Workload::MilcLike,
        Workload::LibquantumLike,
        Workload::OmnetppLike,
        Workload::SoplexLike,
        Workload::Sphinx3Like,
        Workload::BwavesLike,
        Workload::Leslie3dLike,
        Workload::GemsLike,
        Workload::ZeusmpLike,
        Workload::CactusLike,
        Workload::GccLike,
        Workload::ComputeBound,
        Workload::Asm(AsmKernel::Matmul),
        Workload::Asm(AsmKernel::Quicksort),
        Workload::Asm(AsmKernel::PointerChase),
        Workload::Asm(AsmKernel::BoxBlur),
        Workload::Asm(AsmKernel::PrimeSieve),
        Workload::Asm(AsmKernel::BinarySearch),
        Workload::Asm(AsmKernel::ChaseLarge),
        Workload::Asm(AsmKernel::ByteHisto),
        Workload::Asm(AsmKernel::StructChase),
    ];

    /// Short name used in figures and on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::McfLike => "mcf-like",
            Workload::LbmLike => "lbm-like",
            Workload::MilcLike => "milc-like",
            Workload::LibquantumLike => "libquantum-like",
            Workload::OmnetppLike => "omnetpp-like",
            Workload::SoplexLike => "soplex-like",
            Workload::Sphinx3Like => "sphinx3-like",
            Workload::BwavesLike => "bwaves-like",
            Workload::Leslie3dLike => "leslie3d-like",
            Workload::GemsLike => "gems-like",
            Workload::ZeusmpLike => "zeusmp-like",
            Workload::CactusLike => "cactus-like",
            Workload::GccLike => "gcc-like",
            Workload::ComputeBound => "compute-bound",
            Workload::Asm(k) => match k {
                AsmKernel::Matmul => "asm-matmul",
                AsmKernel::Quicksort => "asm-quicksort",
                AsmKernel::PointerChase => "asm-pointer-chase",
                AsmKernel::BoxBlur => "asm-box-blur",
                AsmKernel::PrimeSieve => "asm-prime-sieve",
                AsmKernel::BinarySearch => "asm-binary-search",
                AsmKernel::ChaseLarge => "asm-chase-large",
                AsmKernel::ByteHisto => "asm-byte-histo",
                AsmKernel::StructChase => "asm-struct-chase",
            },
        }
    }

    /// One-line description of the modelled behaviour.
    pub fn description(&self) -> &'static str {
        match self {
            Workload::McfLike => "three independent pointer chases plus an array scan",
            Workload::LbmLike => "three-array FP streaming stencil with an output stream",
            Workload::MilcLike => "two indexed gathers per iteration into a 16 MB lattice",
            Workload::LibquantumLike => "single strided integer stream updated in place",
            Workload::OmnetppLike => "two pointer chases with data-dependent branches",
            Workload::SoplexLike => "sparse two-level indirection with integer compute",
            Workload::Sphinx3Like => "single gather stream with heavier FP compute",
            Workload::BwavesLike => "four-array FP streaming with moderate stride",
            Workload::Leslie3dLike => "three-array FP streaming, high compute density",
            Workload::GemsLike => "two-array full-line-stride streaming, poor locality",
            Workload::ZeusmpLike => "two-array FP streaming at half-line stride",
            Workload::CactusLike => "five-array FP streaming stencil",
            Workload::GccLike => "pointer-heavy integer code, smaller working set, branchy",
            Workload::ComputeBound => "cache-resident integer/FP arithmetic (control)",
            Workload::Asm(k) => k.description(),
        }
    }

    /// `true` for the assembled RISC-V kernels, `false` for the synthetic
    /// generators.
    pub fn is_asm(&self) -> bool {
        matches!(self, Workload::Asm(_))
    }

    /// Builds the workload's program.
    pub fn build(&self, params: &WorkloadParams) -> Program {
        let iters = params.iterations;
        match self {
            Workload::LibquantumLike => streaming(
                &StreamingSpec {
                    name: "libquantum-like",
                    arrays: 1,
                    stride: 8,
                    working_set: 1 << 25,
                    fp_compute: 0,
                    int_compute: 0,
                    store: true,
                    fp_loads: false,
                },
                iters,
            ),
            Workload::LbmLike => streaming(
                &StreamingSpec {
                    name: "lbm-like",
                    arrays: 3,
                    stride: 16,
                    working_set: 1 << 23,
                    fp_compute: 5,
                    int_compute: 0,
                    store: true,
                    fp_loads: true,
                },
                iters,
            ),
            Workload::BwavesLike => streaming(
                &StreamingSpec {
                    name: "bwaves-like",
                    arrays: 4,
                    stride: 16,
                    working_set: 1 << 23,
                    fp_compute: 6,
                    int_compute: 0,
                    store: true,
                    fp_loads: true,
                },
                iters,
            ),
            Workload::Leslie3dLike => streaming(
                &StreamingSpec {
                    name: "leslie3d-like",
                    arrays: 3,
                    stride: 16,
                    working_set: 1 << 23,
                    fp_compute: 9,
                    int_compute: 1,
                    store: true,
                    fp_loads: true,
                },
                iters,
            ),
            Workload::GemsLike => streaming(
                &StreamingSpec {
                    name: "gems-like",
                    arrays: 2,
                    stride: 16,
                    working_set: 1 << 24,
                    fp_compute: 6,
                    int_compute: 0,
                    store: true,
                    fp_loads: true,
                },
                iters,
            ),
            Workload::ZeusmpLike => streaming(
                &StreamingSpec {
                    name: "zeusmp-like",
                    arrays: 2,
                    stride: 16,
                    working_set: 1 << 23,
                    fp_compute: 7,
                    int_compute: 1,
                    store: true,
                    fp_loads: true,
                },
                iters,
            ),
            Workload::CactusLike => streaming(
                &StreamingSpec {
                    name: "cactus-like",
                    arrays: 5,
                    stride: 16,
                    working_set: 1 << 23,
                    fp_compute: 10,
                    int_compute: 0,
                    store: true,
                    fp_loads: true,
                },
                iters,
            ),
            Workload::MilcLike => gather(
                &GatherSpec {
                    name: "milc-like",
                    gathers: 2,
                    data_working_set: 1 << 24,
                    index_working_set: 1 << 22,
                    fp_compute: 8,
                    int_compute: 1,
                    store: true,
                },
                iters,
            ),
            Workload::Sphinx3Like => gather(
                &GatherSpec {
                    name: "sphinx3-like",
                    gathers: 1,
                    data_working_set: 1 << 23,
                    index_working_set: 1 << 22,
                    fp_compute: 7,
                    int_compute: 1,
                    store: true,
                },
                iters,
            ),
            Workload::SoplexLike => gather(
                &GatherSpec {
                    name: "soplex-like",
                    gathers: 2,
                    data_working_set: 1 << 24,
                    index_working_set: 1 << 23,
                    fp_compute: 6,
                    int_compute: 2,
                    store: true,
                },
                iters,
            ),
            Workload::McfLike => pointer_chase(
                &PointerChaseSpec {
                    name: "mcf-like",
                    lists: 3,
                    nodes_per_list: 1 << 16,
                    strided_arrays: 2,
                    int_compute: 1,
                    guarded_adds: 2,
                    guarded_store: true,
                    store: true,
                },
                iters,
                params.seed,
            ),
            Workload::OmnetppLike => pointer_chase(
                &PointerChaseSpec {
                    name: "omnetpp-like",
                    lists: 2,
                    nodes_per_list: 1 << 16,
                    strided_arrays: 1,
                    int_compute: 1,
                    guarded_adds: 2,
                    guarded_store: true,
                    store: true,
                },
                iters,
                params.seed,
            ),
            Workload::GccLike => pointer_chase(
                &PointerChaseSpec {
                    name: "gcc-like",
                    lists: 2,
                    nodes_per_list: 1 << 14,
                    strided_arrays: 0,
                    int_compute: 2,
                    guarded_adds: 3,
                    guarded_store: true,
                    store: true,
                },
                iters,
                params.seed,
            ),
            Workload::ComputeBound => compute_bound(iters),
            // Assembly kernels take the outer iteration count in `a0`; the
            // seed is irrelevant (their layouts are written in the source).
            Workload::Asm(k) => k.build(iters),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown workload name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError(String);

impl fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown workload `{}`", self.0)
    }
}

impl std::error::Error for ParseWorkloadError {}

impl FromStr for Workload {
    type Err = ParseWorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let wanted = s.to_ascii_lowercase();
        Workload::ALL
            .iter()
            .copied()
            .find(|w| {
                w.name() == wanted
                    || w.name().trim_end_matches("-like") == wanted
                    || w.name().strip_prefix("asm-") == Some(wanted.as_str())
            })
            .ok_or_else(|| ParseWorkloadError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::program::Interpreter;

    #[test]
    fn every_workload_builds_a_valid_program() {
        let params = WorkloadParams::short(100);
        for w in Workload::ALL {
            let p = w.build(&params);
            assert!(p.validate().is_ok(), "{w} failed validation");
            assert!(!p.name.is_empty());
        }
    }

    #[test]
    fn every_workload_halts_with_small_iteration_counts() {
        let params = WorkloadParams::short(20);
        for w in Workload::ALL {
            let p = w.build(&params);
            let mut interp = Interpreter::new(&p);
            interp.run(2_000_000);
            assert!(interp.halted(), "{w} did not halt");
        }
    }

    #[test]
    fn memory_intensive_workloads_issue_loads() {
        let params = WorkloadParams::short(50);
        for w in Workload::MEMORY_INTENSIVE {
            let p = w.build(&params);
            let mut interp = Interpreter::new(&p);
            interp.run(2_000_000);
            assert!(interp.loads() > 20, "{w} issued too few loads");
        }
    }

    #[test]
    fn names_are_unique_and_parseable() {
        let mut names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Workload::ALL.len());
        for w in Workload::ALL {
            assert_eq!(w.name().parse::<Workload>().unwrap(), w);
        }
        assert_eq!("mcf".parse::<Workload>().unwrap(), Workload::McfLike);
        assert!("unknown".parse::<Workload>().is_err());
    }

    #[test]
    fn default_params_are_effectively_non_halting() {
        assert!(WorkloadParams::default().iterations >= 1_000_000_000);
    }
}
