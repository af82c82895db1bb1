//! Command-line wiring of the experiment binaries: `full_eval` must honour
//! every flag of the shared parser, and `report`, `debug_stats` and `sweep`
//! must refuse what they cannot honour — a flag, a surplus or malformed
//! positional — with exit 2 and a usage message instead of misreading it,
//! panicking or ignoring it.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh scratch directory for one test (binaries write CSVs and traces
/// into their working directory).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pre-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .env_remove("PRE_CACHE_DIR")
        .env_remove("PRE_FAULT")
        .output()
        .expect("binary runs")
}

fn assert_usage_error(exe: &str, args: &[&str]) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{exe} {args:?} is a usage error: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{exe} {args:?}: {stderr}");
}

#[test]
fn full_eval_honours_sample_and_prints_every_table() {
    let dir = scratch("full-eval");
    let out = Command::new(env!("CARGO_BIN_EXE_full_eval"))
        .args(["--suite", "asm", "--sample", "n=2,interval=500", "2000"])
        .current_dir(&dir)
        .env_remove("PRE_CACHE_DIR")
        .env_remove("PRE_FAULT")
        .output()
        .expect("full_eval runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "full_eval exits 0: {}",
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
    for table in ["Figure 2", "Figure 3", "Stat D"] {
        assert!(stdout.contains(table), "stdout carries {table}:\n{stdout}");
    }
}

#[test]
fn budget_only_reports_reject_flags() {
    let exe = env!("CARGO_BIN_EXE_report");
    for name in ["table1", "intervals", "flush-overhead", "sst", "emq"] {
        for flags in [["--warmup", "5000"], ["--suite", "asm"]] {
            assert_usage_error(exe, &[name, flags[0], flags[1]]);
        }
    }
}

#[test]
fn free_resources_report_rejects_flags_it_cannot_honour() {
    let exe = env!("CARGO_BIN_EXE_report");
    assert_usage_error(exe, &["free-resources", "--warmup", "5000"]);
    assert_usage_error(exe, &["free-resources", "--trace", "all"]);
    assert_usage_error(exe, &["free-resources", "--sample"]);
}

#[test]
fn report_needs_one_known_name() {
    let exe = env!("CARGO_BIN_EXE_report");
    assert_usage_error(exe, &[]);
    assert_usage_error(exe, &["fig2"]);
    assert_usage_error(exe, &["table1", "intervals"]);
    assert_usage_error(exe, &["intervals", "2k"]);
}

#[test]
fn debug_stats_refuses_malformed_command_lines() {
    let exe = env!("CARGO_BIN_EXE_debug_stats");
    assert_usage_error(exe, &["--trace", "bogus", "mcf-like", "pre", "2000"]);
    assert_usage_error(exe, &["2k"]);
    assert_usage_error(exe, &["mcf-like", "pre", "20x"]);
    assert_usage_error(exe, &["mcf-like", "pre", "2000", "extra"]);
    assert_usage_error(exe, &["no-such-workload", "pre", "2000"]);
    assert_usage_error(exe, &["mcf-like", "no-such-technique", "2000"]);
    assert_usage_error(exe, &["--warmup", "5000", "mcf-like", "pre", "2000"]);
    // A bare `--sample` leaves the next flag to be read as a flag.
    assert_usage_error(exe, &["--sample", "--trace=dir=x", "mcf-like", "pre"]);
}

#[test]
fn bare_sample_keeps_the_next_flag() {
    let out = run(
        env!("CARGO_BIN_EXE_quick_check"),
        &["--sample", "--warmup=1000", "2000"],
    );
    assert!(
        out.status.success(),
        "quick_check exits 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("sampling metadata"));
}

#[test]
fn debug_stats_trace_writes_files_or_exits_1() {
    let dir = scratch("debug-trace");
    let spec = format!("dir={},all", dir.join("traces").display());
    let out = run(
        env!("CARGO_BIN_EXE_debug_stats"),
        &["--trace", &spec, "asm-chase-large", "pre-emq", "2000"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let pipeview = dir.join("traces/asm-chase-large_pre-emq.pipeview");
    let written = std::fs::read_to_string(&pipeview);

    // A trace directory that cannot be created is a run failure, not a
    // usage error.
    let blocker = dir.join("file");
    std::fs::write(&blocker, "").expect("create a plain file");
    let spec = format!("dir={},all", blocker.join("traces").display());
    let blocked = run(
        env!("CARGO_BIN_EXE_debug_stats"),
        &["--trace", &spec, "asm-chase-large", "pre-emq", "2000"],
    );
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        out.status.success(),
        "debug_stats --trace exits 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("--- trace files ---"), "{stdout}");
    assert!(
        written.is_ok_and(|text| text.starts_with("O3PipeView:fetch:")),
        "{} holds a pipeview stream",
        pipeview.display()
    );
    assert_eq!(
        blocked.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&blocked.stderr)
    );
}

#[test]
fn sweep_refuses_hit_rate_gates_it_cannot_check() {
    let exe = env!("CARGO_BIN_EXE_sweep");
    for pct in ["nan", "inf", "-1", "150"] {
        assert_usage_error(exe, &["--expect-min-hit-rate", pct]);
    }
}

#[test]
fn sweep_help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = run(env!("CARGO_BIN_EXE_sweep"), &[flag]);
        assert_eq!(out.status.code(), Some(0), "sweep {flag}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: sweep"));
    }
}

#[test]
fn sweep_refuses_a_repeated_dimension_or_value() {
    let exe = env!("CARGO_BIN_EXE_sweep");
    let base = [
        "--workload",
        "lbm-like",
        "--technique",
        "pre",
        "--budget",
        "2000",
    ];
    for grid in [
        &["--grid", "sst=16", "--grid", "sst=64"][..],
        &["--grid", "sst=16,16"][..],
        &["--grid", "rob=128", "--grid", "sst=8", "--grid", "rob=192"][..],
    ] {
        let args: Vec<&str> = base.iter().chain(grid).copied().collect();
        assert_usage_error(exe, &args);
    }
}
