//! Golden equivalence: the event-driven wakeup/select scheduler with
//! quiescent-cycle fast-forward must produce **bit-identical** `SimStats` to
//! the reference (scan-based, cycle-by-cycle) scheduler on every
//! (workload, technique) cell of the mixed matrix — including `iq_wakeups`
//! and the PRDQ/eager-drain counters. The event path may only change how
//! fast the simulator runs, never what it simulates. (The per-interval
//! runahead event log is tracer-routed and covered by `trace_golden`, which
//! re-checks stats identity traced-vs-untraced on both scheduler paths.)

use pre_model::config::SimConfig;
use pre_runahead::Technique;
use pre_sim::experiments::Suite;
use pre_sim::matrix::EvaluationMatrix;
use pre_workloads::WorkloadParams;

fn run_matrix(
    workloads: &[pre_workloads::Workload],
    reference: bool,
    uops: u64,
) -> EvaluationMatrix {
    let mut config = SimConfig::haswell_like();
    config.core.reference_scheduler = reference;
    let specs = EvaluationMatrix::specs(
        workloads,
        &Technique::ALL,
        &config,
        &WorkloadParams::default(),
        uops,
    );
    EvaluationMatrix::run_specs_isolated(&specs, |_| {})
        .into_result()
        .expect("matrix runs")
}

/// Every cell of the mixed (synthetic + asm) matrix, every technique: the
/// event scheduler and the reference scheduler agree on every statistic,
/// bit for bit.
#[test]
fn event_scheduler_matches_reference_bit_for_bit_on_mixed_matrix() {
    let workloads = Suite::Mixed.workloads();
    let uops = 6_000;
    let event = run_matrix(&workloads, false, uops);
    let reference = run_matrix(&workloads, true, uops);

    assert_eq!(event.results().len(), reference.results().len());
    for (e, r) in event.results().iter().zip(reference.results()) {
        assert_eq!(e.workload, r.workload, "cell order must match");
        assert_eq!(e.technique, r.technique, "cell order must match");
        assert_eq!(
            e.deadlocked, r.deadlocked,
            "{}/{:?}",
            e.workload, e.technique
        );
        assert_eq!(
            e.stats, r.stats,
            "{}/{:?}: event scheduler diverged from reference",
            e.workload, e.technique
        );
        assert_eq!(
            e.energy.total_mj().to_bits(),
            r.energy.total_mj().to_bits(),
            "{}/{:?}: energy must be bit-identical",
            e.workload,
            e.technique
        );
    }
}

/// Longer single-cell runs across contrasting behaviours (LLC-missing
/// dependent chase, branchy integer code, flush-style runahead, and the
/// fast-forward-heavy out-of-order baseline on a permanently LLC-missing
/// kernel) keep the schedulers in lockstep well past the short-budget
/// horizon.
#[test]
fn long_runs_stay_in_lockstep() {
    use pre_sim::runner::{run_one, RunSpec};
    use pre_workloads::Workload;
    let asm_chase_large = *Workload::ASM_SUITE
        .iter()
        .find(|w| w.name() == "asm-chase-large")
        .expect("chase-large kernel present");
    let asm_box_blur = *Workload::ASM_SUITE
        .iter()
        .find(|w| w.name() == "asm-box-blur")
        .expect("box-blur kernel present");
    let asm_struct_chase = *Workload::ASM_SUITE
        .iter()
        .find(|w| w.name() == "asm-struct-chase")
        .expect("struct-chase kernel present");
    let cells = [
        (Workload::McfLike, Technique::Pre),
        (Workload::LbmLike, Technique::Runahead),
        (Workload::GccLike, Technique::RunaheadBuffer),
        (Workload::LibquantumLike, Technique::PreEmq),
        (Workload::ComputeBound, Technique::OutOfOrder),
        (asm_chase_large, Technique::OutOfOrder),
        (asm_box_blur, Technique::Pre),
        // Sub-word dependent chains (byte-granular LSQ + FuncMem path).
        (asm_struct_chase, Technique::Pre),
    ];
    for (workload, technique) in cells {
        let run_with = |reference: bool| {
            let mut config = SimConfig::haswell_like();
            config.core.reference_scheduler = reference;
            run_one(
                &RunSpec::new(workload, technique)
                    .with_budget(40_000)
                    .with_config(config),
            )
            .expect("cell runs")
        };
        let e = run_with(false);
        let r = run_with(true);
        assert_eq!(
            e.stats, r.stats,
            "{workload}/{technique:?} diverged on a long run"
        );
    }
}

/// Runahead-mode fast-forward: a long-horizon `asm-chase-large` run under
/// every runahead technique produces bit-identical stats with the reference
/// scheduler, and the per-mode cycle split proves where fast-forward
/// engaged. PRE intervals go quiescent once the decode filter blocks on an
/// SST hit (and, with the EMQ, once the queue fills), so their runahead
/// fast-forward counters must be non-zero. Traditional runahead on a
/// pointer chase executes an INV load every single runahead cycle and the
/// buffer variant replays its chain every cycle, so both are legitimately
/// never quiescent — their runahead cycles must all be simulated.
#[test]
fn runahead_fastforward_equivalence() {
    use pre_sim::runner::{run_one, RunSpec};
    use pre_workloads::Workload;
    let chase_large = *Workload::ASM_SUITE
        .iter()
        .find(|w| w.name() == "asm-chase-large")
        .expect("chase-large kernel present");
    let cells = [
        (Technique::Runahead, false),
        (Technique::RunaheadBuffer, false),
        (Technique::Pre, true),
        (Technique::PreEmq, true),
    ];
    for (technique, expect_runahead_ff) in cells {
        let run_with = |reference: bool| {
            let mut config = SimConfig::haswell_like();
            config.core.reference_scheduler = reference;
            run_one(
                &RunSpec::new(chase_large, technique)
                    .with_budget(20_000)
                    .with_config(config),
            )
            .expect("cell runs")
        };
        let e = run_with(false);
        let r = run_with(true);
        assert_eq!(
            e.stats, r.stats,
            "asm-chase-large/{technique:?} diverged with runahead fast-forward"
        );
        // The reference scheduler never fast-forwards; the equality above
        // deliberately ignores `ff_cycles`, so pin the split down explicitly.
        assert_eq!(r.stats.ff_cycles.normal, 0, "reference never fast-forwards");
        assert_eq!(
            r.stats.ff_cycles.runahead, 0,
            "reference never fast-forwards"
        );
        let s = &e.stats;
        assert_eq!(
            s.normal_cycles_simulated()
                + s.ff_cycles.normal
                + s.runahead_cycles_simulated()
                + s.ff_cycles.runahead,
            s.cycles,
            "asm-chase-large/{technique:?}: per-mode cycle split must cover the run"
        );
        if expect_runahead_ff {
            assert!(
                s.ff_cycles.runahead > 0,
                "asm-chase-large/{technique:?}: PRE intervals must reach a quiescent state"
            );
        } else {
            assert_eq!(
                s.ff_cycles.runahead, 0,
                "asm-chase-large/{technique:?}: every runahead cycle does work, none may be skipped"
            );
        }
    }
}
