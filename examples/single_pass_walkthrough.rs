//! A gate-by-gate walkthrough of single-pass reliability analysis on the
//! paper's Fig. 2 example circuit.
//!
//! For every gate this prints what the paper's Fig. 2 annotates: the weight
//! vector (joint error-free fanin distribution), the gate's ε, and the
//! propagated `Pr(0→1)` / `Pr(1→0)` error probabilities. The fanout of
//! gate `g2` reconverges at `g6`, so the run also shows the correlation
//! coefficients tracked between the reconverging signals `g4` and `g5`.
//!
//! Run with: `cargo run --release --example single_pass_walkthrough`

use relogic::{Backend, GateEps, InputDistribution, SinglePass, SinglePassOptions, Weights};
use relogic_gen::suite;
use relogic_sim::exact_reliability;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let c = suite::fig2_example();
    let eps_value = 0.05;
    let eps = GateEps::try_uniform(&c, eps_value)?;
    let weights = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd)?;
    let engine = SinglePass::try_new(&c, &weights, SinglePassOptions::default())?;
    let result = engine.try_run(&eps)?;

    println!("single-pass walkthrough of the Fig. 2 circuit (uniform gate ε = {eps_value})\n");
    for (id, node) in c.iter() {
        if !node.kind().is_gate() {
            continue;
        }
        let w = weights.vector(id);
        let wtext: Vec<String> = w.iter().map(|x| format!("{x:.3}")).collect();
        println!(
            "{:>3} {:5} fanins {:?}",
            c.display_name(id),
            node.kind().to_string(),
            node.fanins()
                .iter()
                .map(|&f| c.display_name(f))
                .collect::<Vec<_>>()
        );
        println!("      weight vector  [{}]", wtext.join(", "));
        println!(
            "      Pr(0->1) = {:.5}   Pr(1->0) = {:.5}   delta = {:.5}",
            result.p01(id),
            result.p10(id),
            result.node_delta(id)
        );
    }

    let g4 = c.find("g4").expect("g4 named");
    let g5 = c.find("g5").expect("g5 named");
    match result.correlation(g4, g5) {
        Some(coeffs) => {
            println!("\ncorrelation coefficients between g4 and g5 (reconverging at g6):");
            println!(
                "  C[0->1][0->1] = {:.4}   C[0->1][1->0] = {:.4}",
                coeffs[0][0], coeffs[0][1]
            );
            println!(
                "  C[1->0][0->1] = {:.4}   C[1->0][1->0] = {:.4}",
                coeffs[1][0], coeffs[1][1]
            );
        }
        None => println!("\ng4 and g5 are treated as independent (no coefficients tracked)"),
    }

    let exact = exact_reliability(&c, eps.as_slice());
    println!(
        "\noutput reliability: single-pass delta = {:.6}, exhaustive exact = {:.6}",
        result.per_output()[0],
        exact.per_output[0]
    );
    Ok(())
}
