//! End-to-end integration: textual netlist → structural analysis →
//! reliability engines → Monte Carlo cross-check, spanning every crate in
//! the workspace.

use relogic::{
    metrics, Backend, GateEps, InputDistribution, ObservabilityMatrix, SinglePass,
    SinglePassOptions, Weights,
};
use relogic_netlist::structure::CircuitStats;
use relogic_netlist::{bench, blif};
use relogic_sim::{exact_reliability, try_estimate, MonteCarloConfig};

const ARBITER: &str = "\
INPUT(r0)
INPUT(r1)
INPUT(r2)
INPUT(en)
OUTPUT(g0)
OUTPUT(g1)
OUTPUT(g2)
n0 = NOT(r0)
n1 = NOT(r1)
g0 = AND(r0, en)
p1 = AND(r1, n0)
g1 = AND(p1, en)
p2 = AND(r2, n0, n1)
g2 = AND(p2, en)
";

#[test]
fn parse_analyze_crosscheck() {
    let circuit = bench::parse(ARBITER).expect("parses");
    let stats = CircuitStats::of(&circuit);
    assert_eq!(stats.inputs, 4);
    assert_eq!(stats.outputs, 3);

    let eps = GateEps::try_uniform(&circuit, 0.08).unwrap();
    let weights =
        Weights::try_compute(&circuit, &InputDistribution::Uniform, Backend::Bdd).unwrap();
    let engine = SinglePass::try_new(&circuit, &weights, SinglePassOptions::default()).unwrap();
    let sp = engine.try_run(&eps).unwrap();
    let exact = exact_reliability(&circuit, eps.as_slice());
    for k in 0..3 {
        assert!(
            (sp.per_output()[k] - exact.per_output[k]).abs() < 0.01,
            "output {k}: sp {} vs exact {}",
            sp.per_output()[k],
            exact.per_output[k]
        );
    }
}

#[test]
fn blif_and_bench_roundtrips_preserve_analysis() {
    let original = bench::parse(ARBITER).expect("parses");
    let via_blif = blif::parse(&blif::write(&original)).expect("blif roundtrip");
    let via_bench = bench::parse(&bench::write(&original)).expect("bench roundtrip");

    // The roundtripped circuits may differ structurally (BLIF covers expand
    // to AND/OR/NOT), but must compute the same function.
    for v in 0..16u32 {
        let bits: Vec<bool> = (0..4).map(|j| v >> j & 1 != 0).collect();
        assert_eq!(original.eval(&bits), via_blif.eval(&bits), "blif v={v:04b}");
        assert_eq!(
            original.eval(&bits),
            via_bench.eval(&bits),
            "bench v={v:04b}"
        );
    }
}

#[test]
fn suite_circuit_single_pass_tracks_monte_carlo() {
    let circuit = relogic_gen::suite::x2();
    let weights =
        Weights::try_compute(&circuit, &InputDistribution::Uniform, Backend::Bdd).unwrap();
    let engine = SinglePass::try_new(&circuit, &weights, SinglePassOptions::default()).unwrap();
    for &e in &[0.05, 0.2] {
        let eps = GateEps::try_uniform(&circuit, e).unwrap();
        let sp = engine.try_run(&eps).unwrap();
        let mc = try_estimate(
            &circuit,
            eps.as_slice(),
            &MonteCarloConfig {
                patterns: 1 << 17,
                ..MonteCarloConfig::default()
            },
        )
        .unwrap();
        let err = metrics::average_percent_error(sp.per_output(), mc.per_output());
        assert!(err < 6.0, "ε={e}: avg error {err}%");
    }
}

#[test]
fn observability_closed_form_is_exact_in_single_failure_regime() {
    let circuit = relogic_gen::suite::fig1_example();
    let obs = ObservabilityMatrix::compute(&circuit, &InputDistribution::Uniform, Backend::Bdd);
    // One noisy gate at a time: closed form must equal exhaustive exactly.
    for id in circuit.node_ids() {
        if !circuit.node(id).kind().is_gate() {
            continue;
        }
        let mut eps = GateEps::zero(&circuit);
        eps.try_set(id, 0.3).unwrap();
        let cf = obs.closed_form(&eps);
        let exact = exact_reliability(&circuit, eps.as_slice());
        assert!(
            (cf[0] - exact.per_output[0]).abs() < 1e-12,
            "gate {id}: {} vs {}",
            cf[0],
            exact.per_output[0]
        );
    }
}

#[test]
fn transforms_preserve_reliability_characteristics() {
    // A function-preserving rewrite must leave the *fault-free* outputs
    // identical, even though reliability (with noisy gates) changes.
    let c = relogic_gen::suite::fig2_example();
    let nand_version = relogic_gen::expand_xor_to_nand(&c);
    let buffered = relogic_gen::buffer_fanout(&c, 2);
    for v in 0..8u32 {
        let bits: Vec<bool> = (0..3).map(|j| v >> j & 1 != 0).collect();
        let expect = c.eval(&bits);
        assert_eq!(expect, nand_version.eval(&bits));
        assert_eq!(expect, buffered.eval(&bits));
    }
    // And the analysis still runs on the rewrites.
    for variant in [&nand_version, &buffered] {
        let w = Weights::try_compute(variant, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let r = SinglePass::try_new(variant, &w, SinglePassOptions::default())
            .unwrap()
            .try_run(&GateEps::try_uniform(variant, 0.1).unwrap())
            .unwrap();
        assert!(r.per_output()[0] > 0.0 && r.per_output()[0] <= 0.5 + 1e-9);
    }
}

#[test]
fn umbrella_reexports_are_usable() {
    // The root crate re-exports each member for examples/tests.
    let mut c = relogic_suite::netlist::Circuit::new("t");
    let a = c.add_input("a");
    let g = c.not(a);
    c.add_output("y", g);
    let w = relogic_suite::core::Weights::try_compute(
        &c,
        &relogic_suite::core::InputDistribution::Uniform,
        relogic_suite::core::Backend::Bdd,
    )
    .unwrap();
    assert_eq!(w.signal_prob(g), 0.5);
}
