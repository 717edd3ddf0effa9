//! `rcc-node` must refuse a flag it does not define. Its flag lookups only
//! search for the names they are asked for, so an unknown flag — misspelt,
//! or removed since the command line was written — used to be dropped
//! without a word: a CI gate invoked with a stale flag ran with the
//! defaults and tested something else.
//!
//! The last test is the one place a `cluster` run's summary is read from
//! outside the process: it must name the SHA-256 kernel the run used.

use std::process::{Command, Output};

fn rcc_node(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rcc-node"))
        .args(args)
        .output()
        .expect("run rcc-node")
}

fn assert_usage_error(args: &[&str], culprit: &str) {
    let output = rcc_node(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "`rcc-node {}` should be a usage error; stderr:\n{stderr}",
        args.join(" ")
    );
    assert!(
        stderr.contains(&format!("unknown flag `{culprit}`")) && stderr.contains("usage:"),
        "stderr should name {culprit} and print the usage:\n{stderr}"
    );
    assert!(output.stdout.is_empty(), "nothing may have run");
}

#[test]
fn removed_flags_are_rejected() {
    // `client --instance I` went when every client became a fleet session
    // homed on `stream mod m`.
    assert_usage_error(
        &["client", "--config", "deployment.toml", "--instance", "1"],
        "--instance",
    );
    // `cluster --execution-workers W` went when execution stopped using
    // the pool it sized.
    assert_usage_error(
        &["cluster", "--in-process", "--execution-workers", "4"],
        "--execution-workers",
    );
    // `cluster --chaos` went: its two values spelt `--kill 1` and `--mangle-ppm`.
    assert_usage_error(
        &["cluster", "--in-process", "--chaos", "wire-mangle"],
        "--chaos",
    );
}

#[test]
fn misspelt_flags_are_rejected() {
    assert_usage_error(&["cluster", "--cliens", "4"], "--cliens");
    assert_usage_error(
        &["replica", "--config", "deployment.toml", "--dump-event"],
        "--dump-event",
    );
    // A flag another subcommand defines is still unknown to this one.
    assert_usage_error(
        &["replica", "--config", "deployment.toml", "--clients", "4"],
        "--clients",
    );
}

#[test]
fn defined_flags_get_past_the_check() {
    // Every flag here is the subcommand's own, so the failure is the
    // missing config file (exit status 1), not the command line.
    let output = rcc_node(&[
        "replica",
        "--config",
        "/nonexistent/deployment.toml",
        "--duration-ms",
        "10",
        "--dump-events",
    ]);
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot read config"));
    // A valued flag at the end of the line is missing its value.
    let output = rcc_node(&["cluster", "--clients"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--clients expects a value"));
}

#[test]
fn a_cluster_run_says_which_hash_kernel_it_ran_on() {
    // Wall-clock numbers depend on the host's SHA extensions, so the
    // summary must carry the backend line CI greps for.
    let output = rcc_node(&[
        "cluster",
        "--in-process",
        "--replicas",
        "4",
        "--instances",
        "2",
        "--clients",
        "2",
        "--duration-ms",
        "300",
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout:\n{stdout}");
    let backend = rcc_crypto::hash_backend();
    assert!(["x86-sha", "portable"].contains(&backend), "{backend}");
    assert_eq!(
        stdout
            .lines()
            .filter(|line| *line == format!("hash backend: {backend}"))
            .count(),
        1,
        "stdout:\n{stdout}"
    );
}
