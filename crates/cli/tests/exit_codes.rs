//! Exit codes of the `relogic-cli` binary on the commands that read their
//! analysis state through a serve `Artifact`: estimator failures exit 8,
//! an expired `--deadline-ms` exits 9 with nothing on stdout, and a
//! malformed netlist exits 4 with a `file:line:` message. A closed stdout
//! is not a crash, and `--json`/`--deadline-ms` on a command that does not
//! honour them is a usage error (exit 2).

// Test helpers may unwrap: a panic here is a test failure, not a crash path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const SMALL: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = NAND(a, b)\ny = NOT(t)\n";

/// Writes `text` to a fresh file named `name` and returns its path.
fn netlist(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relogic-cli-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_relogic-cli"))
        .args(args)
        .output()
        .unwrap()
}

fn c499() -> String {
    let path = netlist(
        "c499.bench",
        &relogic_netlist::bench::write(&relogic_gen::suite::build("c499").unwrap()),
    );
    path.display().to_string()
}

#[test]
fn estimator_failure_exits_8() {
    // Budget 0 skips the exact tier, ε 0.3 saturates the propagation
    // answer, and the Monte Carlo refinement then rejects zero patterns.
    let p = netlist("est-fail.bench", SMALL).display().to_string();
    let out = cli(&[
        "estimate",
        &p,
        "--eps",
        "0.3",
        "--bdd-node-budget",
        "0",
        "--patterns",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(8), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("estimator error"), "{stderr}");
}

#[test]
fn expired_deadline_exits_9_with_empty_stdout() {
    let p = c499();
    for command in ["observability", "estimate"] {
        let out = cli(&[command, &p, "--deadline-ms", "1"]);
        assert_eq!(out.status.code(), Some(9), "{command}: {out:?}");
        assert!(out.stdout.is_empty(), "{command}: partial output {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("deadline exceeded"), "{command}: {stderr}");
    }
}

#[test]
fn observability_honours_the_deadline() {
    // A million sampled patterns take seconds on c1908; the simulation
    // backend checks the token once per 64-pattern block in every worker.
    // The exact backend's base BDD build alone runs for seconds there; it
    // checks the token after every gate of every worker's build. Either
    // way both commands stop within the deadline plus 250 ms.
    let p = netlist(
        "c1908.bench",
        &relogic_netlist::bench::write(&relogic_gen::suite::build("c1908").unwrap()),
    )
    .display()
    .to_string();
    let inputs: [&[&str]; 3] = [
        &[
            "--backend",
            "sim",
            "--patterns",
            "1048576",
            "--threads",
            "2",
        ],
        &["--backend", "bdd", "--threads", "1"],
        &["--backend", "bdd", "--threads", "2"],
    ];
    for input in inputs {
        for command in ["observability", "rank"] {
            let mut args = vec![command, &p, "--deadline-ms", "500"];
            args.extend_from_slice(input);
            let started = std::time::Instant::now();
            let out = cli(&args);
            let elapsed = started.elapsed();
            assert_eq!(out.status.code(), Some(9), "{args:?}: {out:?}");
            assert!(out.stdout.is_empty(), "{args:?}: partial output {out:?}");
            assert!(
                elapsed < std::time::Duration::from_millis(750),
                "{args:?}: exited after {elapsed:?}"
            );
        }
    }
}

#[test]
fn malformed_netlist_exits_4_with_file_and_line() {
    let p = netlist("broken.bench", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")
        .display()
        .to_string();
    for command in ["analyze", "observability", "estimate"] {
        let out = cli(&[command, &p]);
        assert_eq!(out.status.code(), Some(4), "{command}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("broken.bench:3:"), "{command}: {stderr}");
    }
}

#[test]
fn closed_stdout_exits_quietly_without_a_panic() {
    // The reader goes away before the child prints (`relogic-cli … | head`
    // with a reader that exits early): the write fails with a broken pipe,
    // which is the reader's choice, not a crash.
    let p = netlist("pipe.bench", SMALL).display().to_string();
    for args in [
        &["sweep", &p, "--points", "4000", "--no-correlations"][..],
        &["analyze", &p, "--per-node"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_relogic-cli"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
    }
}

#[test]
fn json_and_deadline_flags_are_usage_errors_where_not_honoured() {
    let p = netlist("flags.bench", SMALL).display().to_string();
    let p = p.as_str();
    for (args, flag) in [
        (&["sweep", p, "--json"][..], "--json"),
        (&["rank", p, "--json"], "--json"),
        (&["stats", p, "--json"], "--json"),
        (&["sweep", p, "--deadline-ms", "600000"], "--deadline-ms"),
        (&["stats", p, "--deadline-ms", "600000"], "--deadline-ms"),
        (&["convert", p, "--deadline-ms", "600000"], "--deadline-ms"),
        (&["gen", "x2", "--deadline-ms", "600000"], "--deadline-ms"),
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
    // The commands that honour the flags still take them.
    for args in [
        &[
            "mc",
            p,
            "--patterns",
            "64",
            "--json",
            "--deadline-ms",
            "600000",
        ][..],
        &["rank", p, "--deadline-ms", "600000"],
        &["critical-eps", p, "--threshold", "0.18", "--json"],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    }
}
