//! Estimator-tier accuracy and cost on the generated ISCAS-85 analogue
//! suite: per-circuit |estimate − MC| and wall time for each tier of the
//! hybrid estimator (exact BDD under the default live-node budget, the
//! propagation-probability closed form, and the Monte Carlo reference
//! itself). Archives to `results/estimator_accuracy.json`.
//!
//! The methodology matches the pinned oracle test in
//! `crates/estimate/tests/oracle.rs`: ε = `PROPAGATION_VS_MC_BOUND_EPS`,
//! a 2^16-pattern seed-7 Monte Carlo reference, and the mean-|Δδ| summary
//! checked against `PROPAGATION_VS_MC_MEAN_ABS_BOUND` — so the archived
//! numbers are the bound's provenance, not a second contract.
//!
//! ```text
//! cargo run -p relogic-bench --release --bin estimator_accuracy \
//!     [-- --out results/estimator_accuracy.json --patterns N --only NAME]
//! ```

use relogic::{GateEps, InputDistribution, ObservabilityMatrix};
use relogic_estimate::{
    PropagationEstimate, DEFAULT_BDD_NODE_BUDGET, PROPAGATION_VS_MC_BOUND_EPS,
    PROPAGATION_VS_MC_MEAN_ABS_BOUND,
};
use relogic_sim::MonteCarloConfig;
use std::fmt::Write as _;
use std::time::Instant;

fn mean_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().max(1);
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / n as f64
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

struct Row {
    name: &'static str,
    outputs: usize,
    gates: usize,
    mc_ms: f64,
    prop_ms: f64,
    prop_mean_err: f64,
    prop_max_err: f64,
    /// `None` when the exact tier tripped the live-node budget.
    exact: Option<(f64, f64, f64)>, // (wall_ms, mean_err, max_err)
    exact_note: String,
}

fn main() {
    let out_path = {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        while let Some(a) = args.next() {
            if a == "--out" {
                path = args.next();
            }
        }
        path
    };
    let cli = relogic_bench::Cli::parse();
    let patterns = cli.patterns.unwrap_or(1 << 16);
    let eps_value = PROPAGATION_VS_MC_BOUND_EPS;

    println!(
        "estimator tier accuracy vs {patterns}-pattern MC at eps = {eps_value} \
         (pinned mean-|d| bound: {PROPAGATION_VS_MC_MEAN_ABS_BOUND})\n"
    );
    let mut rows = Vec::new();
    for entry in relogic_gen::suite::entries() {
        if cli.only.as_deref().is_some_and(|only| only != entry.name) {
            continue;
        }
        let circuit = (entry.build)();
        let eps = GateEps::try_uniform(&circuit, eps_value).unwrap();

        let started = Instant::now();
        let mc = relogic_sim::try_estimate(
            &circuit,
            eps.as_slice(),
            &MonteCarloConfig {
                patterns,
                seed: 7,
                ..MonteCarloConfig::default()
            },
        )
        .expect("suite circuits simulate")
        .per_output()
        .to_vec();
        let mc_ms = started.elapsed().as_secs_f64() * 1e3;

        let started = Instant::now();
        let prop = PropagationEstimate::try_compute(&circuit, &InputDistribution::Uniform)
            .expect("suite circuits fit the estimator")
            .closed_form(&eps);
        let prop_ms = started.elapsed().as_secs_f64() * 1e3;

        let started = Instant::now();
        let (exact, exact_note) = match ObservabilityMatrix::try_compute_budgeted(
            &circuit,
            &InputDistribution::Uniform,
            1,
            DEFAULT_BDD_NODE_BUDGET,
        ) {
            Ok(matrix) => {
                let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                let deltas = matrix.closed_form(&eps);
                (
                    Some((
                        wall_ms,
                        mean_abs_diff(&deltas, &mc),
                        max_abs_diff(&deltas, &mc),
                    )),
                    "ok".to_owned(),
                )
            }
            Err(e) => (None, e.to_string()),
        };

        let row = Row {
            name: entry.name,
            outputs: circuit.output_count(),
            gates: circuit.gate_count(),
            mc_ms,
            prop_ms,
            prop_mean_err: mean_abs_diff(&prop, &mc),
            prop_max_err: max_abs_diff(&prop, &mc),
            exact,
            exact_note,
        };
        let exact_col = match row.exact {
            Some((wall_ms, mean_err, _)) => {
                format!("exact {wall_ms:>8.1} ms  |d| {mean_err:.4}")
            }
            None => format!("exact escalated ({})", row.exact_note),
        };
        println!(
            "{:>6}: {:>5} gates  mc {:>8.1} ms  prop {:>7.2} ms  \
             prop |d| mean {:.4} max {:.4}  {exact_col}",
            row.name, row.gates, row.mc_ms, row.prop_ms, row.prop_mean_err, row.prop_max_err,
        );
        assert!(
            row.prop_mean_err < PROPAGATION_VS_MC_MEAN_ABS_BOUND,
            "{}: propagation error {:.4} breaches the pinned bound",
            row.name,
            row.prop_mean_err
        );
        rows.push(row);
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"estimator_accuracy\",");
    let _ = writeln!(json, "  \"eps\": {eps_value},");
    let _ = writeln!(json, "  \"mc_patterns\": {patterns},");
    let _ = writeln!(json, "  \"mc_seed\": 7,");
    let _ = writeln!(json, "  \"bdd_node_budget\": {DEFAULT_BDD_NODE_BUDGET},");
    let _ = writeln!(
        json,
        "  \"pinned_mean_abs_bound\": {PROPAGATION_VS_MC_MEAN_ABS_BOUND},"
    );
    let _ = writeln!(json, "  \"circuits\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", row.name);
        let _ = writeln!(json, "      \"gates\": {},", row.gates);
        let _ = writeln!(json, "      \"outputs\": {},", row.outputs);
        let _ = writeln!(json, "      \"mc_wall_ms\": {:.1},", row.mc_ms);
        let _ = writeln!(json, "      \"propagation_wall_ms\": {:.2},", row.prop_ms);
        let _ = writeln!(
            json,
            "      \"propagation_mean_abs_err\": {:.6},",
            row.prop_mean_err
        );
        let _ = writeln!(
            json,
            "      \"propagation_max_abs_err\": {:.6},",
            row.prop_max_err
        );
        match row.exact {
            Some((wall_ms, mean_err, max_err)) => {
                let _ = writeln!(json, "      \"exact_wall_ms\": {wall_ms:.1},");
                let _ = writeln!(json, "      \"exact_mean_abs_err\": {mean_err:.6},");
                let _ = writeln!(json, "      \"exact_max_abs_err\": {max_err:.6}");
            }
            None => {
                let _ = writeln!(json, "      \"exact_wall_ms\": null,");
                let _ = writeln!(
                    json,
                    "      \"exact_escalation\": \"{}\"",
                    row.exact_note.replace('"', "'")
                );
            }
        }
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let path = out_path.unwrap_or_else(|| "results/estimator_accuracy.json".to_owned());
    if let Some(parent) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(parent).expect("create results dir");
    }
    std::fs::write(&path, &json).expect("write results JSON");
    println!("\nwrote {path}");
}
