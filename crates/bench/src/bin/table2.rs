//! Regenerates **Table 2**: single-pass accuracy vs Monte Carlo at
//! ε ∈ {0.05, 0.10, 0.15, 0.20, 0.25, 0.30} (average % error over all
//! outputs) plus cumulative runtimes for 50-point ε sweeps.
//!
//! ```text
//! cargo run -p relogic-bench --release --bin table2 [-- --full] [--only b9]
//! ```
//!
//! By default the Monte Carlo reference uses 65 536 patterns per point;
//! `--full` restores the paper's 6.4 M patterns (slow).

use relogic::{metrics, sweep, GateEps, InputDistribution, SinglePass, SinglePassOptions, Weights};
use relogic_bench::{backend_for, fmt_duration, render_table, Cli};
use relogic_sim::MonteCarloConfig;
use std::time::Instant;

fn main() {
    let cli = Cli::parse();
    let eps_points = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3];
    let sweep_points = sweep::try_epsilon_grid(cli.points.unwrap_or(50), 0.0, 0.5).unwrap();
    let mut rows = Vec::new();

    println!(
        "Table 2 analogue: average % error of single-pass analysis vs Monte Carlo\n\
         (MC reference: {} patterns/point; paper used 6.4M on a 2.4 GHz Opteron)\n",
        cli.mc_patterns()
    );

    for entry in relogic_gen::suite::entries() {
        if let Some(only) = &cli.only {
            if only != entry.name {
                continue;
            }
        }
        let circuit = (entry.build)();
        let backend = backend_for(entry.name);

        let t_w = Instant::now();
        let weights = Weights::try_compute(&circuit, &InputDistribution::Uniform, backend).unwrap();
        let weights_time = t_w.elapsed();
        let engine = SinglePass::try_new(&circuit, &weights, SinglePassOptions::default()).unwrap();

        // Accuracy at the paper's six ε values.
        let mut errs = Vec::with_capacity(eps_points.len());
        for (i, &e) in eps_points.iter().enumerate() {
            let eps = GateEps::try_uniform(&circuit, e).unwrap();
            let sp = engine.try_run(&eps).unwrap();
            let mc = relogic_sim::try_estimate(
                &circuit,
                eps.as_slice(),
                &MonteCarloConfig {
                    seed: 0x7AB1_E000 + i as u64,
                    ..cli.mc_config()
                },
            )
            .unwrap();
            errs.push(metrics::average_percent_error(
                sp.per_output(),
                mc.per_output(),
            ));
        }

        // Runtime: cumulative 50-run sweeps, as the paper reports.
        let t_mc = Instant::now();
        sweep::sweep_monte_carlo(&circuit, &cli.mc_config(), &sweep_points, 1).expect("MC sweep");
        let mc_time = t_mc.elapsed();
        let t_sp = Instant::now();
        for &e in &sweep_points {
            let _ = engine
                .try_run(&GateEps::try_uniform(&circuit, e).unwrap())
                .unwrap();
        }
        let sp_time = t_sp.elapsed();

        let mut row = vec![entry.name.to_owned(), circuit.gate_count().to_string()];
        row.extend(errs.iter().map(|e| format!("{e:.2}")));
        row.push(fmt_duration(mc_time));
        row.push(fmt_duration(sp_time));
        row.push(fmt_duration(weights_time));
        rows.push(row);
        eprintln!("  finished {}", entry.name);
    }

    let headers = [
        "bench", "gates", "e=.05", "e=.10", "e=.15", "e=.20", "e=.25", "e=.30", "MC 50r", "SP 50r",
        "weights",
    ];
    println!("{}", render_table(&headers, &rows));
    println!(
        "Columns e=.xx: average % error over all outputs vs Monte Carlo.\n\
         MC/SP 50r: cumulative runtime of 50 reliability evaluations over ε ∈ [0, 0.5].\n\
         weights: one-time ε-independent precomputation (reused across all 50 runs)."
    );
}
