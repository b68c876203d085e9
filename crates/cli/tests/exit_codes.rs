//! Exit codes of the `relogic-cli` binary on the commands that read their
//! analysis state through a serve `Artifact`: estimator failures exit 8,
//! an expired `--deadline-ms` exits 9 with nothing on stdout, and a
//! malformed netlist exits 4 with a `file:line:` message.

// Test helpers may unwrap: a panic here is a test failure, not a crash path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::{Command, Output};

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
