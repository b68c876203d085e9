//! Redundancy-free design-space exploration (§5.1 / Fig. 8, abridged).
//!
//! Compares four functionally equivalent implementations of the same
//! function — the two `b9_variants` synthesis styles plus buffered and
//! XOR-expanded rewrites — on consolidated output error at a few ε points.
//! No redundancy is added anywhere; reliability differences come purely
//! from structure (levels of noisy logic, fanout, gate count).
//!
//! Run with: `cargo run --release --example design_space`

use relogic::{
    consolidate::Consolidator, Backend, Diagnostics, GateEps, InputDistribution, SinglePass,
    SinglePassOptions, Weights,
};
use relogic_netlist::structure::{depth, total_output_levels, CircuitStats};
use relogic_netlist::Circuit;

fn consolidated(c: &Circuit, eps_value: f64, backend: Backend) -> f64 {
    let weights = Weights::try_compute(c, &InputDistribution::Uniform, backend).unwrap();
    let engine = SinglePass::try_new(c, &weights, SinglePassOptions::default()).unwrap();
    let cons = Consolidator::try_new(c, &InputDistribution::Uniform, backend, 0).unwrap();
    let result = engine
        .try_run(&GateEps::try_uniform(c, eps_value).unwrap())
        .unwrap();
    cons.try_any_output_error(&result, &mut Diagnostics::new())
        .unwrap()
}

fn main() {
    let (low, high) = relogic_gen::suite::b9_variants();
    let buffered = relogic_gen::buffer_fanout(&high, 2);
    let balanced = relogic_gen::balance(&high);

    let variants: Vec<(&str, &Circuit)> = vec![
        ("low-fanout (dup+balanced)", &low),
        ("high-fanout (shared chains)", &high),
        ("high + fanout-2 buffer trees", &buffered),
        ("high + tree balancing", &balanced),
    ];

    println!("variant                          gates  depth  total-levels");
    for (name, c) in &variants {
        let s = CircuitStats::of(c);
        println!(
            "{name:32} {:5}  {:5}  {:12}",
            s.gates,
            depth(c),
            total_output_levels(c)
        );
    }

    let backend = Backend::Simulation {
        patterns: 1 << 15,
        seed: 11,
    };
    println!("\nconsolidated P(any output wrong):");
    println!("variant                          eps=0.01   eps=0.03   eps=0.10");
    for (name, c) in &variants {
        let d1 = consolidated(c, 0.01, backend);
        let d3 = consolidated(c, 0.03, backend);
        let d10 = consolidated(c, 0.10, backend);
        println!("{name:32} {d1:8.4}   {d3:8.4}   {d10:8.4}");
    }
    println!(
        "\nFewer levels of noisy logic between inputs and outputs → lower consolidated\n\
         error (the paper's Fig. 8 conclusion). Buffer trees *add* noisy levels, so\n\
         naive fanout buffering can hurt reliability even as it caps fanout."
    );
}
