//! Regenerates **Figure 8**: redundancy-free design-space exploration —
//! consolidated output error of a low-fanout vs a high-fanout
//! implementation of the same function (b9), for ε ∈ [0, 0.15].
//!
//! The two versions come from `relogic_gen::suite::b9_variants`: the same
//! random specification of associative-operator trees instantiated once
//! with shared chain-form subexpressions (high fanout, more levels) and
//! once with duplicated balanced trees (fanout ≤ 2, fewer levels).
//!
//! ```text
//! cargo run -p relogic-bench --release --bin fig8 [-- --points 16]
//! ```

use relogic::{
    consolidate::Consolidator, sweep, Backend, Diagnostics, GateEps, InputDistribution, SinglePass,
    SinglePassOptions, Weights,
};
use relogic_bench::{render_table, Cli};
use relogic_netlist::structure::{depth, total_output_levels, CircuitStats, FanoutMap};
use relogic_netlist::Circuit;
use relogic_sim::MonteCarloConfig;

fn describe(name: &str, c: &Circuit) {
    let s = CircuitStats::of(c);
    let fan = FanoutMap::build(c);
    let gate_fanout = c
        .node_ids()
        .filter(|&id| c.node(id).kind().is_gate())
        .map(|id| fan.logic_fanout(id))
        .max()
        .unwrap_or(0);
    println!(
        "  {name}: {} gates, max gate fanout {}, {} levels (max), {} total output levels",
        s.gates,
        gate_fanout,
        depth(c),
        total_output_levels(c)
    );
}

fn main() {
    let cli = Cli::parse();
    let points = cli.points.unwrap_or(16);
    let grid = sweep::try_epsilon_grid(points, 0.0, 0.15).unwrap();

    let (low, high) = relogic_gen::suite::b9_variants();
    println!("Fig. 8 analogue: two functionally equivalent versions of b9\n");
    describe("high-fanout", &high);
    describe("low-fanout ", &low);
    println!();

    // Consolidated error needs output-pair joints; simulation backend keeps
    // this affordable for 21 outputs on both variants.
    let backend = Backend::Simulation {
        patterns: 1 << 16,
        seed: 0xF180,
    };
    let analyze = |c: &Circuit| -> (Vec<f64>, Vec<f64>) {
        let weights = Weights::try_compute(c, &InputDistribution::Uniform, backend).unwrap();
        let engine = SinglePass::try_new(c, &weights, SinglePassOptions::default()).unwrap();
        let cons = Consolidator::try_new(c, &InputDistribution::Uniform, backend).unwrap();
        let mut sp = Vec::with_capacity(grid.len());
        let mut mc = Vec::with_capacity(grid.len());
        for (i, &e) in grid.iter().enumerate() {
            let eps = GateEps::try_uniform(c, e).unwrap();
            let r = engine.try_run(&eps).unwrap();
            sp.push(
                cons.try_any_output_error(&r, &mut Diagnostics::new())
                    .unwrap(),
            );
            mc.push(
                relogic_sim::try_estimate(
                    c,
                    eps.as_slice(),
                    &MonteCarloConfig {
                        seed: 0xF180_0000 + i as u64,
                        ..cli.mc_config()
                    },
                )
                .unwrap()
                .any_output(),
            );
        }
        (sp, mc)
    };
    let (low_sp, low_mc) = analyze(&low);
    let (high_sp, high_mc) = analyze(&high);

    let rows: Vec<Vec<String>> = grid
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            vec![
                format!("{e:.3}"),
                format!("{:.5}", low_sp[i]),
                format!("{:.5}", high_sp[i]),
                format!("{:.5}", low_mc[i]),
                format!("{:.5}", high_mc[i]),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["eps", "low SP", "high SP", "low MC", "high MC"], &rows)
    );
    let wins = grid
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(i, _)| low_mc[*i] <= high_mc[*i])
        .count();
    println!(
        "low-fanout beats high-fanout at {wins}/{} nonzero eps points (Monte Carlo);\n\
         the paper attributes this to fewer levels of noisy logic between inputs and outputs.",
        grid.len() - 1
    );
}
