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
use std::sync::atomic::{AtomicUsize, Ordering};

const SMALL: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = NAND(a, b)\ny = NOT(t)\n";

/// A netlist file in a directory of its own, removed when this drops.
struct TempNetlist {
    dir: PathBuf,
    path: String,
}

impl Drop for TempNetlist {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Writes `text` to a file named `name` in a fresh directory.
fn netlist(name: &str, text: &str) -> TempNetlist {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "relogic-cli-exit-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    TempNetlist {
        path: path.display().to_string(),
        dir,
    }
}

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_relogic-cli"))
        .args(args)
        .output()
        .unwrap()
}

fn c499() -> TempNetlist {
    netlist(
        "c499.bench",
        &relogic_netlist::bench::write(&relogic_gen::suite::build("c499").unwrap()),
    )
}

#[test]
fn estimator_failure_exits_8() {
    // Budget 0 skips the exact tier, ε 0.3 saturates the propagation
    // answer, and the Monte Carlo refinement then rejects zero patterns.
    let file = netlist("est-fail.bench", SMALL);
    let p = &file.path;
    let out = cli(&[
        "estimate",
        p,
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
fn out_of_range_parameters_exit_8_naming_the_allowed_range() {
    let file = netlist("range.bench", SMALL);
    let p = &file.path;
    let cases = [
        (
            vec!["critical-eps", &p, "--threshold", "0"],
            "critical-eps threshold = 0 outside (0, 0.5)",
        ),
        (
            vec!["critical-eps", &p, "--threshold", "0.5"],
            "critical-eps threshold = 0.5 outside (0, 0.5)",
        ),
        (
            vec!["harden", &p, "--area-budget", "0"],
            "harden area budget = 0 outside [1, inf)",
        ),
    ];
    for (args, message) in cases {
        let out = cli(&args);
        assert_eq!(out.status.code(), Some(8), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("estimator error: {message}")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("strict"), "{args:?}: {stderr}");
    }
}

#[test]
fn expired_deadline_exits_9_with_empty_stdout() {
    let file = c499();
    let p = &file.path;
    for command in ["observability", "estimate"] {
        let out = cli(&[command, p, "--deadline-ms", "1"]);
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
    let file = netlist(
        "c1908.bench",
        &relogic_netlist::bench::write(&relogic_gen::suite::build("c1908").unwrap()),
    );
    let p = &file.path;
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
fn analyze_honours_the_deadline_while_its_weights_build() {
    // The weight build is where `analyze` spends its time on c1908: 64M
    // sampled patterns take seconds, and so does the exact backend's BDD
    // build. The sampled pass checks the token at every hand-out of 16
    // blocks of 64 patterns, the BDD build after every gate.
    let file = netlist(
        "c1908-analyze.bench",
        &relogic_netlist::bench::write(&relogic_gen::suite::build("c1908").unwrap()),
    );
    let p = &file.path;
    let inputs: [&[&str]; 2] = [
        &["--backend", "sim", "--patterns", "67108864"],
        &["--backend", "bdd"],
    ];
    for input in inputs {
        for threads in ["1", "2"] {
            let mut args = vec!["analyze", &p, "--deadline-ms", "500", "--threads", threads];
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
    let file = netlist("broken.bench", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
    let p = &file.path;
    for command in ["analyze", "observability", "estimate"] {
        let out = cli(&[command, p]);
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
    let file = netlist("pipe.bench", SMALL);
    let p = &file.path;
    for args in [
        &["sweep", p, "--points", "4000", "--no-correlations"][..],
        &["analyze", p, "--per-node"],
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
    let file = netlist("flags.bench", SMALL);
    let p = &file.path;
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
