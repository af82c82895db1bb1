//! Architectural checks against the functional `Interpreter`: a detailed
//! run must leave the state the in-order reference reaches after the same
//! number of retired micro-ops, however much it speculated on the way.

use pre_model::program::{ArchSnapshot, Interpreter, Program};
use pre_model::reg::NUM_ARCH_REGS;
use pre_model::stats::SimStats;

/// The state one detailed run claims after `at` retired micro-ops (counted
/// from program start, warm-up included).
#[derive(Debug, Clone)]
pub struct Expect {
    pub label: String,
    pub at: u64,
    /// Architectural registers, when the benchmark held the core.
    pub regs: Option<[u64; NUM_ARCH_REGS]>,
    /// Committed store count and order-sensitive checksum. Only cold starts
    /// carry them: a forked core counts stores from the fork point.
    pub stores: Option<(u64, u64)>,
}

impl Expect {
    /// What a cold run's statistics alone pin down: retired count and the
    /// committed store stream.
    pub fn from_stats(label: String, stats: &SimStats) -> Self {
        Expect {
            label,
            at: stats.committed_uops,
            regs: None,
            stores: Some((stats.committed_stores, stats.store_checksum)),
        }
    }

    /// A core the benchmark drove itself, started cold (`offset == 0`) or
    /// forked from a snapshot `offset` micro-ops into the program.
    pub fn from_core(label: String, offset: u64, arch: &ArchSnapshot) -> Self {
        Expect {
            label,
            at: offset + arch.retired,
            regs: Some(arch.regs),
            stores: (offset == 0).then_some((arch.stores, arch.store_checksum)),
        }
    }
}

/// Replays `program` once on the interpreter, stopping at every expected
/// point in retired order, and returns a description of each mismatch.
pub fn verify(program: &Program, mut expects: Vec<Expect>) -> Vec<String> {
    expects.sort_by_key(|e| e.at);
    let mut interp = Interpreter::new(program);
    let mut problems = Vec::new();
    for e in expects {
        let need = e.at - interp.retired();
        if interp.run(need) != need {
            problems.push(format!(
                "{}: interpreter halted at {} of {} uops",
                e.label,
                interp.retired(),
                e.at
            ));
            continue;
        }
        let reference = interp.snapshot();
        if e.regs.is_some_and(|regs| regs != reference.regs) {
            problems.push(format!(
                "{}: registers differ from the interpreter after {} uops",
                e.label, e.at
            ));
        }
        if e.stores
            .is_some_and(|s| s != (reference.stores, reference.store_checksum))
        {
            problems.push(format!(
                "{}: committed store stream differs from the interpreter after {} uops",
                e.label, e.at
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::config::SimConfig;
    use pre_runahead::Technique;
    use pre_workloads::{Workload, WorkloadParams};

    #[test]
    fn detailed_runs_match_and_tampering_is_caught() {
        let program = Workload::LbmLike.build(&WorkloadParams::default());
        let mut core = pre_core::OooCore::new(&SimConfig::haswell_like(), &program, Technique::Pre)
            .expect("core builds");
        core.run(3_000, 1_000_000);
        let arch = core.arch_snapshot();
        let good = vec![
            Expect::from_core("core".into(), 0, &arch),
            Expect::from_stats("stats".into(), core.stats()),
        ];
        assert!(verify(&program, good).is_empty());

        let mut bad = Expect::from_core("bad".into(), 0, &arch);
        bad.stores = Some((arch.stores, arch.store_checksum ^ 1));
        let problems = verify(&program, vec![bad]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("store stream"));
    }
}
