//! Regenerates **Figure 5**: consolidated error probability of two
//! correlated outputs of b9 — Monte Carlo vs single-pass, with and without
//! correlation coefficients.
//!
//! ```text
//! cargo run -p relogic-bench --release --bin fig5 [-- --points 25]
//! ```

use relogic::{
    consolidate::Consolidator, sweep, Diagnostics, GateEps, InputDistribution, SinglePass,
    SinglePassOptions, Weights,
};
use relogic_bench::{backend_for, render_table, Cli};
use relogic_sim::MonteCarloConfig;

fn main() {
    let cli = Cli::parse();
    let points = cli.points.unwrap_or(25);
    let grid = sweep::try_epsilon_grid(points, 0.0, 0.5).unwrap();

    let circuit = relogic_gen::suite::b9();
    let backend = backend_for("b9");
    let weights = Weights::try_compute(&circuit, &InputDistribution::Uniform, backend).unwrap();
    let corr_engine =
        SinglePass::try_new(&circuit, &weights, SinglePassOptions::default()).unwrap();
    let plain_engine = SinglePass::try_new(
        &circuit,
        &weights,
        SinglePassOptions::without_correlations(),
    )
    .unwrap();

    // Pick the most error-correlated output pair at a probe ε.
    let probe = corr_engine
        .try_run(&GateEps::try_uniform(&circuit, 0.1).unwrap())
        .unwrap();
    let outs: Vec<_> = circuit.outputs().iter().map(|o| o.node()).collect();
    let mut best = (0usize, 1usize, 0.0f64);
    for a in 0..outs.len() {
        for b in (a + 1)..outs.len() {
            if let Some(c) = probe.correlation(outs[a], outs[b]) {
                let strength = c
                    .iter()
                    .flatten()
                    .map(|&x| (x - 1.0).abs())
                    .fold(0.0, f64::max);
                if strength > best.2 {
                    best = (a, b, strength);
                }
            }
        }
    }
    let (a, b, strength) = best;
    println!(
        "Fig. 5 analogue: consolidated error of b9 outputs {a} and {b} \
         (correlation strength {strength:.2})\n"
    );

    let consolidator =
        Consolidator::try_for_pairs(&circuit, &[(a, b)], &InputDistribution::Uniform, backend, 0)
            .unwrap();
    let mut rows = Vec::with_capacity(points);
    let mut diag = Diagnostics::new();
    for (i, &e) in grid.iter().enumerate() {
        let eps = GateEps::try_uniform(&circuit, e).unwrap();
        let rc = corr_engine.try_run(&eps).unwrap();
        let rp = plain_engine.try_run(&eps).unwrap();
        let with_corr = consolidator.try_pair_error(&rc, a, b, &mut diag).unwrap();
        // Independence assumption: P(e_a ∪ e_b) = δa + δb − δa·δb.
        let da = rp.per_output()[a];
        let db = rp.per_output()[b];
        let without = da + db - da * db;
        let mc = relogic_sim::try_estimate(
            &circuit,
            eps.as_slice(),
            &MonteCarloConfig {
                seed: 0xF150_0000 + i as u64,
                joint_pairs: vec![(a, b)],
                ..cli.mc_config()
            },
        )
        .unwrap();
        let mc_pair =
            mc.per_output()[a] + mc.per_output()[b] - mc.joint(a, b).expect("pair tracked");
        rows.push(vec![
            format!("{e:.3}"),
            format!("{mc_pair:.5}"),
            format!("{with_corr:.5}"),
            format!("{without:.5}"),
        ]);
    }
    println!(
        "{}",
        render_table(&["eps", "MonteCarlo", "SP+corr", "SP indep"], &rows)
    );
    println!(
        "SP+corr uses the S4.1 correlation coefficients at the two outputs;\n\
         SP indep assumes the output error events are independent."
    );
    println!(
        "SP+corr joint-term clamps over the grid: {} coefficient saturations, \
         {} probability clamps",
        diag.coeff_saturations(),
        diag.prob_clamps()
    );
}
