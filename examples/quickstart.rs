//! Quickstart: estimate the reliability of a small circuit three ways.
//!
//! Builds a 1-bit full adder in which every gate is a binary symmetric
//! channel with crossover probability ε = 0.05, then computes the
//! probability that each output is wrong using:
//!
//! 1. the single-pass analytical engine (the paper's §4 algorithm),
//! 2. the observability closed form (§3, Eq. 3), and
//! 3. Monte Carlo fault injection (the reference the paper validates
//!    against).
//!
//! Run with: `cargo run --release --example quickstart`

use relogic::{
    Backend, GateEps, InputDistribution, ObservabilityMatrix, SinglePass, SinglePassOptions,
    Weights,
};
use relogic_netlist::Circuit;
use relogic_sim::{try_estimate, MonteCarloConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the circuit: a full adder.
    let mut c = Circuit::new("full_adder");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let cin = c.add_input("cin");
    let axb = c.xor([a, b]);
    let sum = c.xor([axb, cin]);
    let g1 = c.and([a, b]);
    let g2 = c.and([axb, cin]);
    let cout = c.or([g1, g2]);
    c.add_output("sum", sum);
    c.add_output("cout", cout);

    // 2. Assign gate failure probabilities (inputs stay noise-free).
    let eps = GateEps::try_uniform(&c, 0.05)?;

    // 3. Single-pass analysis: exact weight vectors via BDDs, one
    //    topological sweep with reconvergent-fanout correlation handling.
    let weights = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd)?;
    let engine = SinglePass::try_new(&c, &weights, SinglePassOptions::default())?;
    let analytical = engine.try_run(&eps)?;

    // 4. Observability closed form — exact when at most one gate fails.
    let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
    let closed_form = obs.closed_form(&eps);

    // 5. Monte Carlo reference.
    let mc = try_estimate(
        &c,
        eps.as_slice(),
        &MonteCarloConfig {
            patterns: 1 << 18,
            ..MonteCarloConfig::default()
        },
    )?;

    println!(
        "output   single-pass   closed-form   monte-carlo (n={})",
        mc.patterns()
    );
    for (k, out) in c.outputs().iter().enumerate() {
        println!(
            "{:6}   {:>11.5}   {:>11.5}   {:>11.5}",
            out.name(),
            analytical.per_output()[k],
            closed_form[k],
            mc.per_output()[k],
        );
    }
    println!(
        "\nper-node detail (sum output): Pr(0->1) = {:.5}, Pr(1->0) = {:.5}",
        analytical.p01(sum),
        analytical.p10(sum)
    );
    Ok(())
}
