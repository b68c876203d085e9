//! Regenerates **Figure 7**: per-output average % error of single-pass
//! analysis on c499 over many runs with *independent random per-gate ε*
//! drawn from Uniform(0, 0.5).
//!
//! The paper reports 1.5–3.5% per output over 1000 runs; the default here
//! is 50 runs (`--runs N` / `--full` for 1000).
//!
//! ```text
//! cargo run -p relogic-bench --release --bin fig7 [-- --runs 100]
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use relogic::{metrics, GateEps, InputDistribution, SinglePass, SinglePassOptions, Weights};
use relogic_bench::{backend_for, render_table, Cli};
use relogic_sim::MonteCarloConfig;

fn main() {
    let cli = Cli::parse();
    let runs = cli.runs.unwrap_or(if cli.full { 1000 } else { 50 });

    let circuit = relogic_gen::suite::c499();
    let weights =
        Weights::try_compute(&circuit, &InputDistribution::Uniform, backend_for("c499")).unwrap();
    let engine = SinglePass::try_new(&circuit, &weights, SinglePassOptions::default()).unwrap();
    let m = circuit.output_count();
    let mut sums = vec![0.0f64; m];
    let mut rng = SmallRng::seed_from_u64(0xF170_0007);

    println!(
        "Fig. 7 analogue: per-output avg % error on c499, {runs} runs, \
         per-gate eps ~ U(0, 0.5), MC reference {} patterns\n",
        cli.mc_patterns()
    );
    for run in 0..runs {
        let eps = GateEps::try_random_uniform(&circuit, 0.0, 0.5, &mut rng).unwrap();
        let sp = engine.try_run(&eps).unwrap();
        let mc = relogic_sim::try_estimate(
            &circuit,
            eps.as_slice(),
            &MonteCarloConfig {
                seed: 0xF170_0000 + run as u64,
                ..cli.mc_config()
            },
        )
        .unwrap();
        let errs = metrics::percent_errors(sp.per_output(), mc.per_output());
        for (s, e) in sums.iter_mut().zip(&errs) {
            *s += e;
        }
        if (run + 1) % 10 == 0 {
            eprintln!("  {} / {runs} runs", run + 1);
        }
    }

    #[allow(clippy::cast_precision_loss)]
    let rows: Vec<Vec<String>> = sums
        .iter()
        .enumerate()
        .map(|(k, &s)| {
            let avg = s / runs as f64;
            let bar = "#".repeat((avg * 4.0).round().clamp(0.0, 60.0) as usize);
            vec![format!("q{k}"), format!("{avg:.2}"), bar]
        })
        .collect();
    println!(
        "{}",
        render_table(&["output", "avg %err", "profile"], &rows)
    );
    #[allow(clippy::cast_precision_loss)]
    let overall = sums.iter().sum::<f64>() / (runs as f64 * m as f64);
    println!("overall average error: {overall:.2}% (paper: 1.5-3.5% per output)");
}
