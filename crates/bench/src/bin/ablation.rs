//! Ablation studies for the implementation's design knobs:
//!
//! 1. **Correlation partner cap** — accuracy of the single-pass engine on
//!    the reconvergence-heavy c499 analogue as the per-signal partner
//!    budget shrinks (`None` = track everything … 0 = plain §4 algorithm).
//! 2. **Biased-bit resolution** — quantization error of the Monte Carlo
//!    fault masks vs the binary digits spent per ε.
//! 3. **Weight-vector sampling budget** — single-pass accuracy as the
//!    simulation backend's pattern count grows (vs exact BDD weights).
//!
//! ```text
//! cargo run -p relogic-bench --release --bin ablation
//! ```

use relogic::{
    metrics, Backend, GateEps, InputDistribution, SinglePass, SinglePassOptions, Weights,
};
use relogic_bench::{render_table, Cli};
use relogic_sim::MonteCarloConfig;

fn main() {
    let cli = Cli::parse();
    partner_cap_ablation(&cli);
    bit_resolution_ablation();
    weight_budget_ablation(&cli);
}

fn partner_cap_ablation(cli: &Cli) {
    println!("Ablation 1: correlation partner cap on c499 (avg % error vs MC)\n");
    let circuit = relogic_gen::suite::c499();
    let weights =
        Weights::try_compute(&circuit, &InputDistribution::Uniform, Backend::Bdd).unwrap();
    let eps_points = [0.05, 0.15, 0.3];
    // Reference Monte Carlo per ε.
    let refs: Vec<Vec<f64>> = eps_points
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            let eps = GateEps::try_uniform(&circuit, e).unwrap();
            relogic_sim::try_estimate(
                &circuit,
                eps.as_slice(),
                &MonteCarloConfig {
                    seed: 0xAB1A_0000 + i as u64,
                    ..cli.mc_config()
                },
            )
            .unwrap()
            .per_output()
            .to_vec()
        })
        .collect();

    let mut rows = Vec::new();
    let configs: Vec<(String, SinglePassOptions)> = vec![
        (
            "off (plain §4)".into(),
            SinglePassOptions::without_correlations(),
        ),
        (
            "cap 4".into(),
            SinglePassOptions {
                partner_cap: Some(4),
                ..SinglePassOptions::default()
            },
        ),
        (
            "cap 16".into(),
            SinglePassOptions {
                partner_cap: Some(16),
                ..SinglePassOptions::default()
            },
        ),
        ("cap 64 (default)".into(), SinglePassOptions::default()),
        (
            "unbounded".into(),
            SinglePassOptions {
                partner_cap: None,
                ..SinglePassOptions::default()
            },
        ),
    ];
    for (label, opts) in configs {
        let engine = SinglePass::try_new(&circuit, &weights, opts).unwrap();
        let t0 = std::time::Instant::now();
        let mut row = vec![label];
        for (i, &e) in eps_points.iter().enumerate() {
            let r = engine
                .try_run(&GateEps::try_uniform(&circuit, e).unwrap())
                .unwrap();
            row.push(format!(
                "{:.2}",
                metrics::average_percent_error(r.per_output(), &refs[i])
            ));
        }
        row.push(format!("{:.0}ms", t0.elapsed().as_secs_f64() * 1e3 / 3.0));
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &["partner cap", "e=.05", "e=.15", "e=.30", "per run"],
            &rows
        )
    );
}

fn bit_resolution_ablation() {
    println!("Ablation 2: biased-bit resolution (inverter, δ must equal ε = 0.3)\n");
    let mut c = relogic_netlist::Circuit::new("inv");
    let a = c.add_input("a");
    let g = c.not(a);
    c.add_output("y", g);
    let mut eps = GateEps::zero(&c);
    eps.try_set(g, 0.3).unwrap();
    let mut rows = Vec::new();
    for resolution in [2, 4, 8, 16, 24] {
        let r = relogic_sim::try_estimate(
            &c,
            eps.as_slice(),
            &MonteCarloConfig {
                patterns: 1 << 20,
                bit_resolution: resolution,
                ..MonteCarloConfig::default()
            },
        )
        .unwrap();
        let effective = relogic_sim::BiasedBits::new(0.3, resolution).effective_probability();
        rows.push(vec![
            resolution.to_string(),
            format!("{effective:.6}"),
            format!("{:.6}", r.per_output()[0]),
            format!("{:+.6}", r.per_output()[0] - 0.3),
        ]);
    }
    println!(
        "{}",
        render_table(&["bits", "quantized ε", "measured δ", "bias"], &rows)
    );
}

fn weight_budget_ablation(cli: &Cli) {
    println!("Ablation 3: weight-vector sampling budget on b9 (avg % error vs MC at ε = 0.1)\n");
    let circuit = relogic_gen::suite::b9();
    let eps = GateEps::try_uniform(&circuit, 0.1).unwrap();
    let mc = relogic_sim::try_estimate(&circuit, eps.as_slice(), &cli.mc_config()).unwrap();
    let mut rows = Vec::new();
    for patterns in [1u64 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16] {
        let w = Weights::try_compute(
            &circuit,
            &InputDistribution::Uniform,
            Backend::Simulation { patterns, seed: 5 },
        )
        .unwrap();
        let r = SinglePass::try_new(&circuit, &w, SinglePassOptions::default())
            .unwrap()
            .try_run(&eps)
            .unwrap();
        rows.push(vec![
            patterns.to_string(),
            format!(
                "{:.2}",
                metrics::average_percent_error(r.per_output(), mc.per_output())
            ),
        ]);
    }
    let exact = Weights::try_compute(&circuit, &InputDistribution::Uniform, Backend::Bdd).unwrap();
    let r = SinglePass::try_new(&circuit, &exact, SinglePassOptions::default())
        .unwrap()
        .try_run(&eps)
        .unwrap();
    rows.push(vec![
        "exact (BDD)".into(),
        format!(
            "{:.2}",
            metrics::average_percent_error(r.per_output(), mc.per_output())
        ),
    ]);
    println!("{}", render_table(&["weight patterns", "avg %err"], &rows));
}
