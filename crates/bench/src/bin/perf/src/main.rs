//! `perf`: the benchmark of record for relogic.
//!
//! One process runs one named workload against the program's real entry
//! points — `relogic-cli` child processes found next to this executable,
//! or an in-process `relogic-serve` daemon driven over a Unix socket —
//! checks every output, and prints its metrics as `name value unit`
//! lines followed by one JSON line. `--trace 1` is a separate run that
//! prints the per-layer metrics instead. `perf compare` judges a change
//! against its parent from saved runs; `perf summary` condenses saved
//! runs into a baseline. See README.md.

mod cli_work;
mod compare;
mod gate;
mod layers;
mod serve_work;
mod stats;
mod sys;
mod trace;

use gate::Gate;
use relogic_serve::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: perf --workload <cli|serve-warm> --seed <n>
            [--seconds <s>] [--trace <0|1>] [--out <file>]
       perf compare <parent-run.json>... -- <change-run.json>... [--bench <BENCHMARK.json>]
       perf summary --rev <git-rev> <run.json>...";

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 2] = ["cli", "serve-warm"];

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Whether a run times one more set-up: at least three, and more, up to
/// fifteen, while they took under a second in all. A set-up of a few
/// process starts (`cli`, ~70 ms) varies by tens of percent from one to
/// the next, so its median needs more samples than a set-up of seconds.
pub fn more_setups(times: &[f64]) -> bool {
    times.len() < 3 || (times.iter().sum::<f64>() < 1.0 && times.len() < 15)
}

/// One named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    pub gate: Gate,
}

/// Settings shared by every workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: PathBuf,
    /// The `relogic-cli` binary built beside this executable.
    pub cli: PathBuf,
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::compare_main(&args[1..]),
        Some("summary") => compare::summary_main(&args[1..]),
        _ => run_main(&args),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("perf: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_main(args: &[String]) -> Result<u8, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut traced = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = value()?.parse::<f64>().map_err(|e| e.to_string())?,
            "--trace" => traced = value()? != "0",
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = seed.ok_or("missing --seed")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?;
    let cli = bin_dir.join("relogic-cli");
    if !cli.is_file() {
        return Err(format!(
            "{} not found; build it with `cargo build --release -p relogic-cli`",
            cli.display()
        ));
    }
    let work = WorkDir(bin_dir.join(format!("perf-work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let run = Run {
        seed,
        seconds,
        traced,
        work: work.0.clone(),
        cli,
    };
    let outcome = match workload.as_str() {
        "cli" => cli_work::cli(&run),
        _ => serve_work::warm(&run)?,
    };
    drop(work);
    report(&workload, &run, &outcome, out.as_deref())?;
    Ok(outcome.gate.exit_code())
}

/// Prints notes, `name value unit` lines and the closing JSON line, and
/// writes the JSON (with workload and seed) to `out` when asked.
fn report(workload: &str, run: &Run, outcome: &Outcome, out: Option<&Path>) -> Result<(), String> {
    let gate = &outcome.gate;
    for note in &outcome.notes {
        println!("# {note}");
    }
    for message in gate.messages() {
        println!("# FAILED {message}");
        eprintln!("perf: FAILED {message}");
    }
    println!(
        "# workload {workload} seed {} nproc {} attempted {} failed {}",
        run.seed,
        sys::nproc(),
        gate.attempted(),
        gate.failed()
    );
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                let value =
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]);
                (m.name.clone(), value)
            })
            .collect(),
    );
    let mut doc = Json::obj([
        ("correct", Json::from(gate.failed() == 0)),
        ("attempted", Json::from(gate.attempted())),
        ("failed", Json::from(gate.failed())),
        ("metrics", metrics),
    ]);
    println!("{}", doc.encode());
    if let Some(path) = out {
        doc.push("workload", Json::from(workload));
        doc.push("seed", Json::from(run.seed));
        doc.push("trace", Json::from(run.traced));
        std::fs::write(path, doc.encode() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// The end-to-end metrics of an untraced run: median set-up time, median
/// and tail operation latency, operations per second over the measured
/// span, and peak resident memory. The tail is the workload's `tail_q`
/// quantile, or the slowest operation when fewer than ten lie beyond it;
/// `notes` records which.
pub fn end_to_end(
    setup_s: &[f64],
    latencies_ms: &[f64],
    tail_q: f64,
    measured: Duration,
    peak_rss_mb: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (tail, label) = stats::tail(&sorted, tail_q);
    notes.push(format!(
        "{n} operations in {:.3} s; tail_ms is {label}; setup_s is the median of {} set-ups",
        measured.as_secs_f64(),
        setup_s.len()
    ));
    #[allow(clippy::cast_precision_loss)]
    let ops_per_s = n as f64 / measured.as_secs_f64();
    vec![
        Metric::new("setup_s", stats::median(setup_s), "s"),
        Metric::new("p50_ms", stats::percentile(&sorted, 0.5), "ms"),
        Metric::new("tail_ms", tail, "ms"),
        Metric::new("ops_per_s", ops_per_s, "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// Ends a traced run: reduces the spans to the per-layer metrics, adds
/// the tracing overhead (spans × measured cost of one span), and writes
/// the spans to `results/bench/trace-<workload>.json`.
pub fn finish_trace(
    run: &Run,
    workload: &str,
    spans: Vec<trace::Span>,
    mut counters: BTreeMap<&'static str, f64>,
    mut notes: Vec<String>,
    gate: Gate,
    replay_s: f64,
) -> Outcome {
    let cost = trace::span_cost();
    #[allow(clippy::cast_precision_loss)]
    {
        counters.insert("trace.spans", spans.len() as f64);
        counters.insert(
            "trace.failed_spans",
            spans.iter().filter(|s| s.failed).count() as f64,
        );
        counters.insert(
            "trace.overhead_ms",
            spans.len() as f64 * cost.as_secs_f64() * 1e3,
        );
    }
    notes.push(format!(
        "tracing overhead {:.3} ms ({} spans x {} ns) over a {replay_s:.3} s replay",
        counters["trace.overhead_ms"],
        spans.len(),
        cost.as_nanos()
    ));
    let metrics = layers::metrics(&spans, &counters);
    let header = vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(run.seed)),
        ("nproc", Json::from(sys::nproc())),
        (
            "per_layer",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), Json::Num(m.value)))
                    .collect(),
            ),
        ),
    ];
    let path = PathBuf::from("results/bench").join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all("results/bench")
        .and_then(|()| std::fs::write(&path, trace::to_json(&spans, header).encode() + "\n"));
    match written {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
    Outcome {
        metrics,
        notes,
        gate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relogic_serve::json;

    fn names(list: &Json) -> Vec<(String, String)> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_runs_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads: Vec<String> = names(doc.get("workloads").unwrap())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(names(doc.get("end_to_end").unwrap()), e2e);
        let per_layer: Vec<(String, String)> = layers::names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(names(doc.get("per_layer").unwrap()), per_layer);
    }

    #[test]
    fn cheap_setups_are_repeated_more() {
        assert!(more_setups(&[5.0, 5.0]));
        assert!(!more_setups(&[5.0, 5.0, 5.0]));
        assert!(more_setups(&[0.05; 3]));
        assert!(!more_setups(&[0.05; 15]));
        assert!(!more_setups(&[0.3; 4]));
    }

    #[test]
    fn end_to_end_prints_every_listed_metric() {
        let mut notes = Vec::new();
        let latencies: Vec<f64> = (1..=200).map(f64::from).collect();
        let metrics = end_to_end(
            &[0.2, 0.1, 0.3],
            &latencies,
            0.95,
            Duration::from_secs(4),
            9.0,
            &mut notes,
        );
        let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
        assert_eq!(got, END_TO_END);
        assert_eq!(metrics[0].value, 0.2);
        assert_eq!(metrics[3].value, 50.0);
        // 200 samples: p95 has exactly ten beyond it.
        assert!((metrics[2].value - stats::percentile(&latencies, 0.95)).abs() < 1e-12);
        assert!(notes[0].contains("p95"), "{notes:?}");
    }
}
