//! The `cli` workload. Every operation is one cold `relogic-cli` child
//! process, as a script would run it. A pass runs every job once:
//!
//! * the paper's experiment (Table 2): one correlated `sweep` per suite
//!   circuit plus one tape `mc --json` per nonzero grid ε — the §4.1
//!   single pass and tape Monte Carlo;
//! * one `estimate --json` per estimate circuit — the BDD exact tier
//!   under the default live-node budget, its budget trips, the
//!   propagation tier and the graph Monte Carlo refinement.
//!
//! A run measures whole passes, so every run times the same jobs in the
//! same proportions. The traced run times one pass of children, then
//! replays each job in-process through the same public layer calls with
//! a span around each, and checks that the replay reproduces the child's
//! output.

use crate::gate::{check_delta, check_result_deltas, Gate};
use crate::trace::{covered_under, Scope, Tracer};
use crate::{end_to_end, finish_trace, more_setups, Outcome, Run};
use relogic::{GateEps, InputDistribution, SinglePass, SinglePassOptions, Weights};
use relogic_estimate::{EstimatorPolicy, PropagationEstimate};
use relogic_netlist::{bench, Circuit};
use relogic_serve::json::{self, Json};
use relogic_sim::{CircuitTape, MonteCarloConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// All ten Table 2 circuits, in the paper's row order.
const SUITE: [&str; 10] = [
    "x2", "cu", "b9", "c499", "c1355", "c1908", "c2670", "frg2", "c3540", "i10",
];

/// The estimate circuits. c499 and c1355 are left out: at `--threads 2`
/// one c499 estimate alone takes ~15 s, as long as the rest of a pass.
/// c2670 does not finish its exact build under the default budget.
const ESTIMATE_CIRCUITS: [&str; 7] = ["x2", "cu", "b9", "c1908", "frg2", "c3540", "i10"];

/// The `sweep` grid: 11 points on [0, 0.5], as `--points 11 --max-eps 0.5`.
const SWEEP_POINTS: usize = 11;
const MAX_EPS: f64 = 0.5;
/// Patterns of each Table 2 `mc` call.
const MC_PATTERNS: u64 = 262_144;
/// Grid indices of ε = 0.05 … 0.30, where Table 2 reports its error.
const ERR_POINTS: std::ops::RangeInclusive<usize> = 1..=6;
/// The Table 2 error a correct engine stays under (today ~2.3 %).
const ERR_PCT_CEILING: f64 = 10.0;
/// Worker threads of every child and of the in-process replay.
const THREADS: usize = 2;
/// The tail percentile. A pass has 117 children; its 17 sweeps and
/// estimates are the slow ones. p90 has eleven children beyond it in a
/// single pass and lies among those, at the same rank in every run.
const TAIL_Q: f64 = 0.90;
/// The estimate command's ε, pattern budget and live-node budget.
const ESTIMATE_EPS: f64 = 0.1;
const ESTIMATE_PATTERNS: u64 = 65_536;
const ESTIMATE_BUDGET: usize = relogic_estimate::DEFAULT_BDD_NODE_BUDGET;
/// The sweep CSV prints six decimals: a replayed δ within half a unit of
/// the last printed place agrees at the printed precision.
const PRINTED_HALF_UNIT: f64 = 5.000_001e-7;
/// How far a replayed sweep δ may lie from the child's printed one. The
/// correlated single pass differs from one process to the next on frg2
/// (its partner cap breaks ties in `HashMap` order): by up to 6.9e-7 over
/// 100 repeats. Such sweeps pass and are counted in
/// `core.nondeterministic`; anything beyond this bound fails.
const SWEEP_TOLERANCE: f64 = 1e-5;

struct SuiteCircuit {
    name: &'static str,
    circuit: Circuit,
    path: PathBuf,
    backend: relogic::Backend,
}

#[derive(Clone, Copy)]
enum Job {
    Sweep(usize),
    /// Circuit and grid index of ε.
    Mc(usize, usize),
    Estimate(usize),
}

/// One job's first-pass wall time and checked output (`None` when the
/// child failed its check).
type FirstRun = (Duration, Option<Output>);

/// What a checked child printed, kept from the first pass.
enum Output {
    Sweep(Vec<Vec<f64>>),
    Mc(Vec<f64>, String),
    Estimate(String, String),
}

fn grid() -> Vec<f64> {
    relogic::sweep::try_epsilon_grid(SWEEP_POINTS, 0.0, MAX_EPS).expect("the sweep grid is valid")
}

impl Job {
    fn args(self, suite: &[SuiteCircuit], seed: u64) -> Vec<String> {
        let path = |c: usize| suite[c].path.display().to_string();
        let mut args: Vec<String> = match self {
            Job::Sweep(c) => {
                let mut a = vec!["sweep".into(), path(c)];
                a.extend(["--points", "11", "--max-eps", "0.5"].map(String::from));
                if let relogic::Backend::Simulation { patterns, seed } = suite[c].backend {
                    a.extend(["--backend".into(), "sim".into(), "--patterns".into()]);
                    a.extend([patterns.to_string(), "--seed".into(), seed.to_string()]);
                }
                a
            }
            Job::Mc(c, k) => vec![
                "mc".into(),
                path(c),
                "--patterns".into(),
                MC_PATTERNS.to_string(),
                "--eps".into(),
                grid()[k].to_string(),
                "--json".into(),
                "--seed".into(),
                seed.to_string(),
            ],
            Job::Estimate(c) => vec![
                "estimate".into(),
                path(c),
                "--eps".into(),
                ESTIMATE_EPS.to_string(),
                "--patterns".into(),
                ESTIMATE_PATTERNS.to_string(),
                "--bdd-node-budget".into(),
                ESTIMATE_BUDGET.to_string(),
                "--json".into(),
                "--seed".into(),
                seed.to_string(),
            ],
        };
        args.extend(["--threads".into(), THREADS.to_string()]);
        args
    }

    fn label(self, suite: &[SuiteCircuit]) -> String {
        match self {
            Job::Sweep(c) => format!("sweep {}", suite[c].name),
            Job::Mc(c, k) => format!("mc {} eps {}", suite[c].name, grid()[k]),
            Job::Estimate(c) => format!("estimate {}", suite[c].name),
        }
    }

    /// Validates a child's stdout.
    fn check(self, out: &str, suite: &[SuiteCircuit]) -> Result<Output, String> {
        match self {
            Job::Sweep(c) => parse_sweep(out, &suite[c].circuit).map(Output::Sweep),
            Job::Mc(_, _) => {
                let result = json_line(out)?;
                check_result_deltas(&result)?;
                if result.get("patterns").and_then(Json::as_u64) != Some(MC_PATTERNS) {
                    return Err("wrong pattern count".into());
                }
                Ok(Output::Mc(deltas(&result)?, out.trim_end().to_owned()))
            }
            Job::Estimate(_) => {
                let result = json_line(out)?;
                check_result_deltas(&result)?;
                let tier = result.get("tier").and_then(Json::as_str).unwrap_or("");
                if !["exact", "propagation", "mc"].contains(&tier) {
                    return Err(format!("unknown tier `{tier}`"));
                }
                Ok(Output::Estimate(tier.to_owned(), out.trim_end().to_owned()))
            }
        }
    }
}

fn json_line(out: &str) -> Result<Json, String> {
    json::parse(out.trim()).map_err(|e| format!("unparsable JSON: {e}"))
}

fn deltas(result: &Json) -> Result<Vec<f64>, String> {
    result
        .get("delta")
        .and_then(Json::as_array)
        .ok_or("no delta array")?
        .iter()
        .map(|d| d.as_f64().ok_or_else(|| "non-numeric delta".to_owned()))
        .collect()
}

/// Parses `sweep` CSV: a header naming every output, then one row per
/// grid point with an in-range δ per output.
fn parse_sweep(out: &str, circuit: &Circuit) -> Result<Vec<Vec<f64>>, String> {
    let mut lines = out.lines();
    let header: Vec<&str> = lines.next().ok_or("empty output")?.split(',').collect();
    let names: Vec<&str> = circuit.outputs().iter().map(|o| o.name()).collect();
    if header.first() != Some(&"eps") || header[1..] != names[..] {
        return Err("CSV header does not name the circuit's outputs".into());
    }
    let grid = grid();
    let mut rows = Vec::with_capacity(grid.len());
    for (line, &eps) in lines.zip(&grid) {
        let cells: Vec<f64> = line
            .split(',')
            .map(|c| {
                c.parse::<f64>()
                    .map_err(|e| format!("bad CSV cell `{c}`: {e}"))
            })
            .collect::<Result<_, _>>()?;
        if cells.len() != names.len() + 1 || (cells[0] - eps).abs() > 1e-5 {
            return Err(format!("malformed CSV row `{line}`"));
        }
        for &d in &cells[1..] {
            check_delta(d)?;
        }
        rows.push(cells[1..].to_vec());
    }
    if rows.len() != grid.len() {
        return Err(format!("{} CSV rows, expected {}", rows.len(), grid.len()));
    }
    Ok(rows)
}

/// Runs one child and returns its wall time and stdout.
fn run_child(run: &Run, args: &[String]) -> (Duration, Result<String, String>) {
    let started = Instant::now();
    let output = Command::new(&run.cli)
        .args(args)
        .stdin(Stdio::null())
        .output();
    let wall = started.elapsed();
    let result = match output {
        Ok(out) if out.status.success() => {
            String::from_utf8(out.stdout).map_err(|_| "stdout is not UTF-8".to_owned())
        }
        Ok(out) => Err(format!(
            "exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .next()
                .unwrap_or("")
        )),
        Err(e) => Err(format!("cannot start {}: {e}", run.cli.display())),
    };
    (wall, result)
}

/// Set-up: generate the suite circuits, write them as .bench files, and
/// check each parses through the CLI (`stats`). Repeated as
/// [`crate::more_setups`] asks; every repeat is timed.
fn setup(run: &Run, gate: &mut Gate) -> (Vec<SuiteCircuit>, Vec<f64>) {
    let mut times = Vec::new();
    let mut suite = Vec::new();
    while more_setups(&times) {
        let started = Instant::now();
        suite.clear();
        for name in SUITE {
            let circuit = relogic_gen::suite::build(name).expect("suite circuit exists");
            let path = run.work.join(format!("{name}.bench"));
            let written = std::fs::write(&path, bench::write(&circuit)).map_err(|e| e.to_string());
            let (_, stats) = run_child(run, &["stats".into(), path.display().to_string()]);
            gate.op(&format!("setup {name}"), written.and(stats.map(drop)));
            suite.push(SuiteCircuit {
                name,
                circuit,
                path,
                backend: relogic_bench::backend_for(name),
            });
        }
        times.push(started.elapsed().as_secs_f64());
    }
    (suite, times)
}

/// One pass: per suite circuit, its sweep, its `mc` calls and (for the
/// estimate circuits) its estimate.
fn jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for (c, name) in SUITE.iter().enumerate() {
        jobs.push(Job::Sweep(c));
        jobs.extend((1..SWEEP_POINTS).map(|k| Job::Mc(c, k)));
        if ESTIMATE_CIRCUITS.contains(name) {
            jobs.push(Job::Estimate(c));
        }
    }
    jobs
}

/// Runs whole passes of `jobs`: one, then more while the next is expected
/// to end within `run.seconds` (one pass when traced). Returns each
/// child's wall time in ms, the first pass's checked outputs and wall
/// times, and the measured span.
fn passes(
    run: &Run,
    suite: &[SuiteCircuit],
    jobs: &[Job],
    gate: &mut Gate,
) -> (Vec<f64>, Vec<FirstRun>, Duration) {
    let started = Instant::now();
    let mut latencies = Vec::new();
    let mut first = Vec::with_capacity(jobs.len());
    let mut pass = 0u32;
    let another = |pass: u32| {
        let spent = started.elapsed().as_secs_f64();
        pass == 0 || (!run.traced && spent + spent / f64::from(pass) <= run.seconds)
    };
    while another(pass) {
        for &job in jobs {
            let (wall, out) = run_child(run, &job.args(suite, run.seed));
            latencies.push(wall.as_secs_f64() * 1e3);
            let checked = out.and_then(|o| job.check(&o, suite));
            let verdict = checked.as_ref().map(drop).map_err(Clone::clone);
            gate.op(&job.label(suite), verdict);
            if pass == 0 {
                first.push((wall, checked.ok()));
            }
        }
        pass += 1;
    }
    (latencies, first, started.elapsed())
}

/// Table 2's average % error of the sweep against Monte Carlo at
/// ε = 0.05 … 0.30, averaged over circuits.
fn err_pct(jobs: &[Job], first: &[FirstRun]) -> Option<f64> {
    let mut sweeps: BTreeMap<usize, &Vec<Vec<f64>>> = BTreeMap::new();
    for (job, (_, out)) in jobs.iter().zip(first) {
        if let (Job::Sweep(c), Some(Output::Sweep(rows))) = (job, out) {
            sweeps.insert(*c, rows);
        }
    }
    let mut per_circuit: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (job, (_, out)) in jobs.iter().zip(first) {
        if let (Job::Mc(c, k), Some(Output::Mc(mc, _))) = (job, out) {
            if ERR_POINTS.contains(k) {
                let sweep = sweeps.get(c)?;
                per_circuit
                    .entry(*c)
                    .or_default()
                    .push(relogic::metrics::average_percent_error(&sweep[*k], mc));
            }
        }
    }
    if per_circuit.len() != SUITE.len() {
        return None;
    }
    #[allow(clippy::cast_precision_loss)]
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let circuit_means: Vec<f64> = per_circuit.values().map(|v| mean(v)).collect();
    Some(mean(&circuit_means))
}

pub fn cli(run: &Run) -> Outcome {
    let mut gate = Gate::default();
    let (suite, setup_s) = setup(run, &mut gate);
    let jobs = jobs();
    let (latencies, first, measured) = passes(run, &suite, &jobs, &mut gate);
    let err = err_pct(&jobs, &first);
    gate.op(
        "table2 error vs Monte Carlo",
        match err {
            Some(e) if e.is_finite() && e < ERR_PCT_CEILING => Ok(()),
            Some(e) => Err(format!("err_pct {e:.3} not under {ERR_PCT_CEILING}")),
            None => Err("missing sweep or mc outputs".into()),
        },
    );
    let exact = first
        .iter()
        .filter(|(_, out)| matches!(out, Some(Output::Estimate(tier, _)) if tier == "exact"))
        .count();
    #[allow(clippy::cast_precision_loss)]
    let exact_frac = exact as f64 / ESTIMATE_CIRCUITS.len() as f64;
    let mut notes = vec![
        format!(
            "err_pct {:.4} % (sweep vs {MC_PATTERNS}-pattern MC, eps 0.05..0.30, mean over circuits)",
            err.unwrap_or(f64::NAN)
        ),
        format!(
            "exact_frac {exact_frac:.4} ({exact} of {} estimate circuits answered by the exact tier)",
            ESTIMATE_CIRCUITS.len()
        ),
    ];
    if !run.traced {
        let metrics = end_to_end(
            &setup_s,
            &latencies,
            TAIL_Q,
            measured,
            crate::sys::peak_rss_children_mb(),
            &mut notes,
        );
        return Outcome {
            metrics,
            notes,
            gate,
        };
    }
    let mut counters = BTreeMap::new();
    counters.insert("core.err_pct", err.unwrap_or(0.0));
    counters.insert("estimate.exact_frac", exact_frac);
    // The exact tier's thread scaling on b9: time at one thread over
    // twice the time at two (1.0 = perfect scaling).
    let b9 = &suite
        .iter()
        .find(|c| c.name == "b9")
        .expect("b9 is a suite circuit")
        .circuit;
    let mut exact_time = |threads: usize| {
        let started = Instant::now();
        let built = relogic::ObservabilityMatrix::try_compute_budgeted(
            b9,
            &InputDistribution::Uniform,
            threads,
            ESTIMATE_BUDGET,
        );
        gate.op(
            &format!("b9 exact tier at {threads} threads"),
            built.map(drop).map_err(|e| e.to_string()),
        );
        started.elapsed().as_secs_f64()
    };
    let one = exact_time(1);
    let two = exact_time(THREADS);
    counters.insert("bdd.parallel_efficiency", one / (2.0 * two));
    replay(run, &suite, &jobs, &first, gate, counters, notes)
}

/// Counters the replay reads from the layers' own diagnostics.
#[derive(Default)]
struct Tally {
    coeff_saturations: u64,
    correlation_fallbacks: u64,
    patterns: u64,
    peak_live_nodes: usize,
    op_cache_hits: u64,
    op_cache_misses: u64,
    gc_runs: u64,
    reorders: u64,
    budget_trips: u64,
    tiers: [u64; 3],
    fallbacks: u64,
}

/// Replays every job once in-process, under a `cli.job` root span each,
/// and checks the replay against the child's output.
fn replay(
    run: &Run,
    suite: &[SuiteCircuit],
    jobs: &[Job],
    first: &[FirstRun],
    mut gate: Gate,
    mut counters: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
) -> Outcome {
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut nondeterministic = 0u32;
    let mut child_wall = Duration::ZERO;
    let mut replay_wall = Duration::ZERO;
    let started = Instant::now();
    for (i, (&job, (wall, out))) in jobs.iter().zip(first).enumerate() {
        let root = tracer.root("cli.job", i as u64);
        let t0 = Instant::now();
        let verdict =
            replay_job(run, job, suite, root, &mut tally).and_then(|replayed| match out {
                Some(out) => same_output(out, &replayed),
                None => Err("the child's output failed its own check".into()),
            });
        replay_wall += t0.elapsed();
        root.finish(verdict.is_err());
        nondeterministic += u32::from(verdict == Ok(true));
        gate.op(&format!("replay {}", job.label(suite)), verdict.map(drop));
        child_wall += *wall;
    }
    counters.insert("core.nondeterministic", f64::from(nondeterministic));
    let replay_s = started.elapsed().as_secs_f64();
    let spans = tracer.into_spans();
    let layer_time = covered_under(&spans, "cli.job");
    #[allow(clippy::cast_precision_loss)]
    {
        counters.insert(
            "cli.overhead_ms",
            (child_wall.as_secs_f64() - replay_wall.as_secs_f64()) * 1e3,
        );
        counters.insert(
            "trace.coverage",
            layer_time.as_secs_f64() / child_wall.as_secs_f64(),
        );
        counters.insert("core.coeff_saturations", tally.coeff_saturations as f64);
        counters.insert(
            "core.correlation_fallbacks",
            tally.correlation_fallbacks as f64,
        );
        let mc_s = crate::trace::reduce(&spans)
            .get("sim.mc_tape")
            .map_or(0.0, |t| t.self_time.as_secs_f64());
        if mc_s > 0.0 {
            counters.insert("sim.mc_mpatterns_per_s", tally.patterns as f64 / mc_s / 1e6);
        }
        let lookups = tally.op_cache_hits + tally.op_cache_misses;
        counters.insert("bdd.peak_live_nodes", tally.peak_live_nodes as f64);
        counters.insert(
            "bdd.op_cache_hit_rate",
            if lookups == 0 {
                0.0
            } else {
                tally.op_cache_hits as f64 / lookups as f64
            },
        );
        counters.insert("bdd.gc_runs", tally.gc_runs as f64);
        counters.insert("bdd.reorders", tally.reorders as f64);
        counters.insert("bdd.budget_trips", tally.budget_trips as f64);
        counters.insert("estimate.tier_exact", tally.tiers[0] as f64);
        counters.insert("estimate.tier_propagation", tally.tiers[1] as f64);
        counters.insert("estimate.tier_mc", tally.tiers[2] as f64);
        counters.insert("estimate.fallbacks", tally.fallbacks as f64);
    }
    finish_trace(run, "cli", spans, counters, notes, gate, replay_s)
}

/// The replay's answer for one job.
enum Replayed {
    Sweep(Vec<Vec<f64>>),
    Line(String),
}

/// Checks the replay against the child's output. `Ok(true)` when they
/// agree only within the program's own process-to-process variation
/// ([`SWEEP_TOLERANCE`]), not at the printed precision.
fn same_output(out: &Output, replayed: &Replayed) -> Result<bool, String> {
    match (out, replayed) {
        (Output::Sweep(cli), Replayed::Sweep(ours)) => {
            let worst = cli
                .iter()
                .flatten()
                .zip(ours.iter().flatten())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            if worst <= PRINTED_HALF_UNIT + SWEEP_TOLERANCE && cli.len() == ours.len() {
                Ok(worst > PRINTED_HALF_UNIT)
            } else {
                Err(format!("sweep differs from the replay by {worst:e}"))
            }
        }
        (Output::Mc(_, line) | Output::Estimate(_, line), Replayed::Line(ours)) if line == ours => {
            Ok(false)
        }
        (Output::Mc(_, line) | Output::Estimate(_, line), Replayed::Line(ours)) => Err(format!(
            "child printed {line:.120} but the replay gives {ours:.120}"
        )),
        _ => Err("replay produced a different kind of output".into()),
    }
}

/// Replays one job through the layers the CLI calls for it.
fn replay_job(
    run: &Run,
    job: Job,
    suite: &[SuiteCircuit],
    root: Scope,
    tally: &mut Tally,
) -> Result<Replayed, String> {
    let s = |e: &dyn std::fmt::Display| e.to_string();
    let sc = match job {
        Job::Sweep(c) | Job::Mc(c, _) | Job::Estimate(c) => &suite[c],
    };
    let text = std::fs::read_to_string(&sc.path).map_err(|e| s(&e))?;
    let circuit = root
        .call("netlist.parse", || bench::parse(&text))
        .map_err(|e| s(&e))?;
    match job {
        Job::Sweep(_) => {
            let layer = match sc.backend {
                relogic::Backend::Bdd => "bdd.weights",
                relogic::Backend::Simulation { .. } => "core.weights_sim",
            };
            let weights = root
                .call(layer, || {
                    Weights::try_compute(&circuit, &InputDistribution::Uniform, sc.backend)
                })
                .map_err(|e| s(&e))?;
            let engine = root
                .call("core.single_pass_new", || {
                    SinglePass::try_new(&circuit, &weights, SinglePassOptions::default())
                })
                .map_err(|e| s(&e))?;
            let grid = grid();
            let rows = Mutex::new(vec![(Vec::new(), relogic::Diagnostics::new()); grid.len()]);
            let next = AtomicUsize::new(0);
            let failure = Mutex::new(None);
            std::thread::scope(|threads| {
                for _ in 0..THREADS {
                    threads.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= grid.len() {
                            break;
                        }
                        let point = root.call("core.single_pass_run", || {
                            engine.try_run(&GateEps::try_uniform(&circuit, grid[i])?)
                        });
                        match point {
                            Ok(r) => {
                                rows.lock().expect("rows lock poisoned")[i] =
                                    (r.per_output().to_vec(), r.diagnostics().clone());
                            }
                            Err(e) => {
                                *failure.lock().expect("failure lock poisoned") = Some(s(&e));
                            }
                        }
                    });
                }
            });
            if let Some(e) = failure.into_inner().expect("failure lock poisoned") {
                return Err(e);
            }
            let rows = rows.into_inner().expect("rows lock poisoned");
            let mut diagnostics = relogic::Diagnostics::new();
            for (_, d) in &rows {
                diagnostics.merge(d);
            }
            tally.coeff_saturations += diagnostics.coeff_saturations();
            tally.correlation_fallbacks += diagnostics.correlation_fallbacks();
            Ok(Replayed::Sweep(rows.into_iter().map(|(d, _)| d).collect()))
        }
        Job::Mc(_, k) => {
            let tape = root.time("sim.tape_compile", || CircuitTape::compile(&circuit));
            let config = MonteCarloConfig {
                patterns: MC_PATTERNS,
                seed: run.seed,
                threads: THREADS,
                ..MonteCarloConfig::default()
            };
            let mut result = root
                .call("sim.mc_tape", || {
                    relogic_serve::api::monte_carlo_result_tape(&circuit, &tape, grid()[k], &config)
                })
                .map_err(|e| s(&e))?;
            tally.patterns += MC_PATTERNS;
            result.push("cache", Json::from("bypass"));
            Ok(Replayed::Line(result.encode()))
        }
        Job::Estimate(_) => {
            let gate_eps = GateEps::try_uniform(&circuit, ESTIMATE_EPS).map_err(|e| s(&e))?;
            let policy = EstimatorPolicy {
                bdd_node_budget: ESTIMATE_BUDGET,
                mc_patterns: ESTIMATE_PATTERNS,
                mc_seed: run.seed,
                ..EstimatorPolicy::default()
            };
            let tiers = root.open("estimate.run");
            let report = relogic_estimate::run_estimate(
                &policy,
                |budget| {
                    let built = tiers.call("bdd.observability", || {
                        relogic::ObservabilityMatrix::try_compute_budgeted(
                            &circuit,
                            &InputDistribution::Uniform,
                            THREADS,
                            budget,
                        )
                    });
                    match &built {
                        Ok(m) => {
                            if let Some(stats) = m.diagnostics().bdd_stats() {
                                tally.peak_live_nodes =
                                    tally.peak_live_nodes.max(stats.peak_live_nodes);
                                tally.op_cache_hits += stats.cache_hits;
                                tally.op_cache_misses += stats.cache_misses;
                                tally.gc_runs += stats.gc_runs;
                                tally.reorders += stats.reorders;
                            }
                        }
                        Err(relogic::RelogicError::BddBudgetExceeded { live_nodes, .. }) => {
                            tally.budget_trips += 1;
                            tally.peak_live_nodes = tally.peak_live_nodes.max(*live_nodes);
                        }
                        Err(_) => {}
                    }
                    let matrix = built?;
                    Ok(tiers.time("core.closed_form", || matrix.closed_form(&gate_eps)))
                },
                || {
                    tiers.call("estimate.propagation", || {
                        PropagationEstimate::try_compute(&circuit, &InputDistribution::Uniform)
                            .map(|est| est.closed_form(&gate_eps))
                    })
                },
                |patterns, seed| {
                    let config = MonteCarloConfig {
                        patterns,
                        seed,
                        threads: THREADS,
                        ..MonteCarloConfig::default()
                    };
                    tiers.call("sim.mc_graph", || {
                        relogic_sim::try_estimate(&circuit, gate_eps.as_slice(), &config)
                            .map(|r| r.per_output().to_vec())
                            .map_err(relogic::RelogicError::from)
                    })
                },
            );
            tiers.finish(report.is_err());
            let report = report.map_err(|e| s(&e))?;
            let d = &report.diagnostics;
            tally.tiers[0] += d.tier_exact();
            tally.tiers[1] += d.tier_propagation();
            tally.tiers[2] += d.tier_mc();
            tally.fallbacks += d.estimator_fallbacks();
            let mut result = relogic_serve::api::estimate_result(&circuit, ESTIMATE_EPS, &report);
            result.push("cache", Json::from("bypass"));
            Ok(Replayed::Line(result.encode()))
        }
    }
}
