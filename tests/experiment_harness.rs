//! End-to-end tests of the experiment harness (`pre-sim`): the machinery that
//! regenerates the paper's figures must itself be trustworthy.

use precise_runahead::model::SimConfig;
use precise_runahead::runahead::Technique;
use precise_runahead::sim::experiments::{fig2_table, fig3_table, table1};
use precise_runahead::sim::matrix::EvaluationMatrix;
use precise_runahead::sim::runner::{run_one, RunSpec};
use precise_runahead::workloads::{Workload, WorkloadParams};

#[test]
fn a_small_evaluation_matrix_produces_all_figures() {
    let workloads = [Workload::LbmLike, Workload::LibquantumLike];
    let config = SimConfig::haswell_like();
    let specs = EvaluationMatrix::specs(
        &workloads,
        &Technique::ALL,
        &config,
        &WorkloadParams::default(),
        8_000,
    );
    let matrix = EvaluationMatrix::run_specs_isolated(&specs, |_| {})
        .into_result()
        .expect("matrix runs");
    assert!(!matrix.any_deadlocked());
    assert_eq!(
        matrix.results().len(),
        workloads.len() * Technique::ALL.len()
    );

    // Speedups exist and are positive for every cell.
    for workload in workloads {
        for technique in Technique::RUNAHEAD {
            let s = matrix.speedup(workload, technique).expect("cell present");
            assert!(s > 0.3 && s < 10.0, "implausible speedup {s}");
            let e = matrix
                .energy_savings(workload, technique)
                .expect("cell present");
            assert!(e.abs() < 0.9, "implausible energy delta {e}");
        }
    }
    assert!(matrix.gmean_speedup(Technique::Pre) > 0.5);

    let fig2 = fig2_table(&matrix);
    assert_eq!(
        fig2.len(),
        workloads.len() + 1,
        "per-workload rows plus gmean"
    );
    let fig3 = fig3_table(&matrix);
    assert_eq!(fig3.len(), workloads.len() + 1);
    assert!(fig2.render().contains("gmean"));
    assert!(fig3.to_csv().lines().count() == workloads.len() + 2);
}

#[test]
fn table1_reflects_the_live_configuration() {
    let rendered = table1().render();
    for needle in [
        "192",
        "92/64/64",
        "168 int, 168 fp",
        "256 entry",
        "DDR3-1600",
    ] {
        assert!(rendered.contains(needle), "Table 1 is missing `{needle}`");
    }
}

#[test]
fn run_one_honours_configuration_overrides() {
    let mut small_sst = SimConfig::haswell_like();
    small_sst.runahead.sst_entries = 8;
    small_sst.validate().unwrap();
    let spec = RunSpec::new(Workload::CactusLike, Technique::Pre)
        .with_budget(6_000)
        .with_config(small_sst);
    let result = run_one(&spec).expect("run succeeds");
    assert!(result.stats.committed_uops >= 6_000);
    // An 8-entry SST under a many-slice workload must show capacity pressure.
    assert!(
        result.stats.sst_evictions > 0,
        "expected SST evictions with 8 entries"
    );
    assert!(result.energy_mj() > 0.0);
}

#[test]
fn deterministic_runs_produce_identical_statistics() {
    let spec = RunSpec::new(Workload::MilcLike, Technique::Pre).with_budget(5_000);
    let a = run_one(&spec).expect("first run");
    let b = run_one(&spec).expect("second run");
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.committed_uops, b.stats.committed_uops);
    assert_eq!(a.stats.runahead_entries, b.stats.runahead_entries);
    assert_eq!(a.stats.store_checksum, b.stats.store_checksum);
}
