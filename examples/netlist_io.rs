//! Netlist interchange: parse an ISCAS-85 `.bench` description, analyze
//! its reliability, and export it as BLIF and Graphviz DOT.
//!
//! Run with: `cargo run --release --example netlist_io`

use relogic::{Backend, GateEps, InputDistribution, SinglePass, SinglePassOptions, Weights};
use relogic_netlist::structure::CircuitStats;
use relogic_netlist::{bench, blif, dot};

const BENCH_TEXT: &str = "\
# 2-bit priority arbiter
INPUT(req0)
INPUT(req1)
INPUT(lock)
OUTPUT(grant0)
OUTPUT(grant1)
OUTPUT(busy)
nreq0   = NOT(req0)
grant0  = AND(req0, unlock)
grant1  = AND(req1, nreq0, unlock)
unlock  = NOT(lock)
anyreq  = OR(req0, req1)
busy    = AND(anyreq, lock)
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Parse (note the forward reference to `unlock` — the parser resolves
    // definition order itself, as distributed benchmark files require).
    let circuit = bench::parse(BENCH_TEXT)?;
    let stats = CircuitStats::of(&circuit);
    println!(
        "parsed `{}`: {} inputs, {} gates, {} outputs, depth {}",
        circuit.name(),
        stats.inputs,
        stats.gates,
        stats.outputs,
        stats.depth
    );

    // Analyze.
    let weights =
        Weights::try_compute(&circuit, &InputDistribution::Uniform, Backend::Bdd).unwrap();
    let engine = SinglePass::try_new(&circuit, &weights, SinglePassOptions::default()).unwrap();
    let result = engine
        .try_run(&GateEps::try_uniform(&circuit, 0.02).unwrap())
        .unwrap();
    for (k, out) in circuit.outputs().iter().enumerate() {
        println!("  δ({}) = {:.5}", out.name(), result.per_output()[k]);
    }

    // Export.
    println!("\n--- BLIF ---\n{}", blif::write(&circuit));
    println!(
        "--- DOT (render with `dot -Tsvg`) ---\n{}",
        dot::to_dot(&circuit)
    );
    Ok(())
}
