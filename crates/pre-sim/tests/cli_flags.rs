//! Command-line wiring of the experiment binaries: the matrix binaries must
//! honour every flag `cli_from_args` accepts, and the budget-only binaries
//! must refuse flags instead of misreading a flag's value as the budget.

use std::process::Command;

#[test]
fn fig2_performance_honours_sample() {
    // The binary writes its CSV into the working directory.
    let dir = std::env::temp_dir().join(format!("pre-cli-fig2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_fig2_performance"))
        .args(["--suite", "asm", "--sample", "n=2,interval=500", "2000"])
        .current_dir(&dir)
        .env_remove("PRE_CACHE_DIR")
        .env_remove("PRE_FAULT")
        .output()
        .expect("fig2_performance runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "fig2_performance exits 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sampled_rows = stdout
        .lines()
        .filter(|l| l.starts_with("asm-") && l.contains('~'))
        .count();
    assert!(
        sampled_rows > 0,
        "--sample marks the extrapolated rows with `~`:\n{stdout}"
    );
}

#[test]
fn budget_only_binaries_reject_flags() {
    for exe in [
        env!("CARGO_BIN_EXE_stat_intervals"),
        env!("CARGO_BIN_EXE_stat_flush_overhead"),
        env!("CARGO_BIN_EXE_sst_sensitivity"),
        env!("CARGO_BIN_EXE_emq_sensitivity"),
    ] {
        for args in [["--warmup", "5000"], ["--suite", "asm"]] {
            let out = Command::new(exe).args(args).output().expect("binary runs");
            assert_eq!(
                out.status.code(),
                Some(2),
                "{exe} {args:?} is a usage error, not a budget"
            );
            assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
        }
    }
}

#[test]
fn stat_free_resources_rejects_flags_it_cannot_honour() {
    let out = Command::new(env!("CARGO_BIN_EXE_stat_free_resources"))
        .args(["--warmup", "5000"])
        .output()
        .expect("stat_free_resources runs");
    assert_eq!(out.status.code(), Some(2), "--warmup is a usage error");
}
