//! Regenerates **Figure 6**: δ(ε) curves for two outputs of i10 (the
//! paper picks cones of 662 and 1034 gates), Monte Carlo vs single-pass —
//! the curves should be nearly indistinguishable.
//!
//! ```text
//! cargo run -p relogic-bench --release --bin fig6 [-- --points 25]
//! ```

use relogic::{metrics, sweep, GateEps, InputDistribution, SinglePass, SinglePassOptions, Weights};
use relogic_bench::{backend_for, render_table, Cli};
use relogic_netlist::structure::output_cone_sizes;
use relogic_sim::MonteCarloConfig;

fn main() {
    let cli = Cli::parse();
    let points = cli.points.unwrap_or(25);
    let grid = sweep::try_epsilon_grid(points, 0.0, 0.5).unwrap();

    let circuit = relogic_gen::suite::i10();
    let cones = output_cone_sizes(&circuit);
    // Pick the two outputs whose cone sizes are closest to the paper's 662
    // and 1034.
    let pick = |target: usize, exclude: Option<usize>| -> usize {
        cones
            .iter()
            .enumerate()
            .filter(|(k, _)| Some(*k) != exclude)
            .min_by_key(|(_, &c)| c.abs_diff(target))
            .map(|(k, _)| k)
            .expect("i10 has outputs")
    };
    let o1 = pick(662, None);
    let o2 = pick(1034, Some(o1));
    println!(
        "Fig. 6 analogue: i10 outputs {o1} (cone {} gates) and {o2} (cone {} gates)\n",
        cones[o1], cones[o2]
    );

    let weights =
        Weights::try_compute(&circuit, &InputDistribution::Uniform, backend_for("i10")).unwrap();
    let engine = SinglePass::try_new(&circuit, &weights, SinglePassOptions::default()).unwrap();

    let mut rows = Vec::with_capacity(points);
    let mut sp1 = Vec::new();
    let mut mc1 = Vec::new();
    let mut sp2 = Vec::new();
    let mut mc2 = Vec::new();
    for (i, &e) in grid.iter().enumerate() {
        let eps = GateEps::try_uniform(&circuit, e).unwrap();
        let sp = engine.try_run(&eps).unwrap();
        let mc = relogic_sim::try_estimate(
            &circuit,
            eps.as_slice(),
            &MonteCarloConfig {
                seed: 0xF160_0000 + i as u64,
                ..cli.mc_config()
            },
        )
        .unwrap();
        sp1.push(sp.per_output()[o1]);
        mc1.push(mc.per_output()[o1]);
        sp2.push(sp.per_output()[o2]);
        mc2.push(mc.per_output()[o2]);
        rows.push(vec![
            format!("{e:.3}"),
            format!("{:.5}", mc.per_output()[o1]),
            format!("{:.5}", sp.per_output()[o1]),
            format!("{:.5}", mc.per_output()[o2]),
            format!("{:.5}", sp.per_output()[o2]),
        ]);
    }
    println!(
        "{}",
        render_table(&["eps", "MC out1", "SP out1", "MC out2", "SP out2"], &rows)
    );
    println!(
        "max |SP - MC|: out1 = {:.4}, out2 = {:.4} (curves should be nearly indistinguishable)",
        metrics::max_abs_error(&sp1, &mc1),
        metrics::max_abs_error(&sp2, &mc2)
    );
}
