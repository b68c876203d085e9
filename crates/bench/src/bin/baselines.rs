//! Measured comparison against the §2 baselines the paper only cites:
//!
//! 1. **Accuracy**: von Neumann-style compositional analysis vs the
//!    single-pass engine on the small suite circuits (vs Monte Carlo).
//! 2. **Scalability**: runtime of the PTM-equivalent exact engine vs the
//!    single-pass engine on growing random circuits — the exponential
//!    blow-up that, in the paper's words, "suggests their inapplicability
//!    to large circuits".
//!
//! ```text
//! cargo run -p relogic-bench --release --bin baselines
//! ```

use relogic::baselines::{compositional, ptm_exact};
use relogic::{
    metrics, Backend, GateEps, InputDistribution, SinglePass, SinglePassOptions, Weights,
};
use relogic_bench::{backend_for, fmt_duration, render_table, Cli};
use relogic_gen::{generate, RandomCircuitConfig};
use std::time::Instant;

fn main() {
    let cli = Cli::parse();
    accuracy(&cli);
    scalability();
}

fn accuracy(cli: &Cli) {
    println!("Baseline accuracy: avg % error vs Monte Carlo at eps = 0.1\n");
    let mut rows = Vec::new();
    for name in ["x2", "cu", "b9", "c1908"] {
        let c = relogic_gen::suite::build(name).expect("suite circuit");
        let eps = GateEps::try_uniform(&c, 0.1).unwrap();
        let mc = relogic_sim::try_estimate(&c, eps.as_slice(), &cli.mc_config()).unwrap();
        let comp = compositional(&c, &eps);
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, backend_for(name)).unwrap();
        let sp = SinglePass::try_new(&c, &w, SinglePassOptions::default())
            .unwrap()
            .try_run(&eps)
            .unwrap();
        rows.push(vec![
            name.to_owned(),
            format!(
                "{:.2}",
                metrics::average_percent_error(&comp, mc.per_output())
            ),
            format!(
                "{:.2}",
                metrics::average_percent_error(sp.per_output(), mc.per_output())
            ),
        ]);
    }
    println!(
        "{}",
        render_table(&["circuit", "compositional", "single-pass"], &rows)
    );
    println!(
        "The compositional rules (uniform, independent inputs; refs [3,4]) pay the\n\
         accuracy penalty the paper describes; the weight-vector single pass does not.\n"
    );
}

fn scalability() {
    println!("Baseline scalability: PTM-equivalent exact engine vs single-pass\n");
    let mut rows = Vec::new();
    for gates in [8usize, 12, 16, 20, 24, 28] {
        // Uniformly random fanins keep many signals live simultaneously,
        // which is exactly what makes PTM-style state propagation explode.
        let c = generate(&RandomCircuitConfig {
            name: format!("ptm{gates}"),
            inputs: 8,
            gates,
            outputs: 2,
            seed: 0xBA5E + gates as u64,
            max_arity: 2,
            xor_fraction: 0.2,
            locality: 1000,
            global_edge_fraction: 1.0,
        });
        let eps = GateEps::try_uniform(&c, 0.1).unwrap();

        let t0 = Instant::now();
        let ptm = ptm_exact(&c, &eps, 26);
        let ptm_time = t0.elapsed();

        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let engine = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap();
        let t1 = Instant::now();
        let sp = engine.try_run(&eps).unwrap();
        let sp_time = t1.elapsed();

        let (ptm_cell, err_cell) = match &ptm {
            Ok(v) => (
                fmt_duration(ptm_time),
                format!("{:.2}", metrics::average_percent_error(sp.per_output(), v)),
            ),
            Err(e) => (format!("gave up ({e})"), "-".to_owned()),
        };
        rows.push(vec![
            gates.to_string(),
            ptm_cell,
            fmt_duration(sp_time),
            err_cell,
        ]);
        eprintln!("  finished {gates} gates");
    }
    println!(
        "{}",
        render_table(
            &["gates", "PTM exact", "single-pass", "SP avg %err vs exact"],
            &rows
        )
    );
    println!(
        "PTM cost grows exponentially with the live-cut width while the single pass\n\
         stays linear — the scalability gap that motivates the paper."
    );
}
