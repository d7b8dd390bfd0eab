//! The `reproduce` command line rejects what it does not know before
//! running anything.

use std::process::{Command, Output};

/// Runs `reproduce` in a scratch directory, so an experiment that writes
/// a `BENCH_*.json` never overwrites a committed copy.
fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("reproduce runs")
}

#[test]
fn unknown_experiment_exits_2_and_lists_the_known_ones() {
    let out = reproduce(&["nosuchexperiment"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("table1"));
    assert!(out.stdout.is_empty(), "ran something before rejecting");
}

#[test]
fn retired_throughput_experiment_exits_2() {
    assert_eq!(reproduce(&["throughput"]).status.code(), Some(2));
}

#[test]
fn unknown_flag_exits_2() {
    let out = reproduce(&["--bogus", "table2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran table2 before rejecting");
}

#[test]
fn known_experiments_run() {
    let out = reproduce(&["--quick", "table2", "table3"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table II") && stdout.contains("Table III"));
}
