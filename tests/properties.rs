//! Property-based tests over randomly generated circuits and ε vectors.
//!
//! These exercise the cross-crate invariants that hold for *every* circuit:
//! probability ranges, noise-free behaviour, exactness on fanout-free
//! logic, backend agreement, and function preservation under the synthesis
//! transforms.

use proptest::prelude::*;
use relogic::{
    Backend, GateEps, InputDistribution, ObservabilityMatrix, SinglePass, SinglePassOptions,
    Weights,
};
use relogic_gen::{generate, RandomCircuitConfig};
use relogic_netlist::Circuit;
use relogic_sim::exact_reliability;

/// Strategy: a small random circuit plus a uniform ε.
fn small_circuit() -> impl Strategy<Value = (Circuit, f64)> {
    (
        2usize..6,    // inputs
        3usize..18,   // gates
        1usize..4,    // outputs
        any::<u64>(), // seed
        0.0f64..=0.5, // eps
        0.0f64..=0.4, // xor fraction
    )
        .prop_map(|(inputs, gates, outputs, seed, eps, xor)| {
            let c = generate(&RandomCircuitConfig {
                name: "prop".into(),
                inputs,
                gates,
                outputs: outputs.min(gates),
                seed,
                max_arity: 3,
                xor_fraction: xor,
                locality: 8,
                global_edge_fraction: 0.3,
            });
            (c, eps)
        })
}

/// Strategy: a fanout-free (tree) circuit built by consuming each signal at
/// most once, plus a uniform ε.
fn tree_circuit() -> impl Strategy<Value = (Circuit, f64)> {
    (
        proptest::collection::vec(0u8..6, 1..10),
        2usize..5,
        0.0f64..=0.5,
    )
        .prop_map(|(kinds, inputs, eps)| {
            use relogic_netlist::GateKind;
            let mut c = Circuit::new("tree");
            let mut avail: Vec<_> = (0..inputs).map(|i| c.add_input(format!("x{i}"))).collect();
            for k in kinds {
                if avail.len() < 2 {
                    break;
                }
                let a = avail.remove(0);
                let b = avail.remove(0);
                let kind = [
                    GateKind::And,
                    GateKind::Or,
                    GateKind::Nand,
                    GateKind::Nor,
                    GateKind::Xor,
                    GateKind::Xnor,
                ][k as usize];
                let g = c.add_gate(kind, [a, b]).expect("valid");
                avail.push(g);
            }
            let last = *avail.last().expect("nonempty");
            c.add_output("y", last);
            (c, eps)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_pass_probabilities_stay_in_unit_interval((c, e) in small_circuit()) {
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let r = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap()
            .try_run(&GateEps::try_uniform(&c, e).unwrap()).unwrap();
        for id in c.node_ids() {
            prop_assert!((0.0..=1.0).contains(&r.p01(id)), "p01({id}) = {}", r.p01(id));
            prop_assert!((0.0..=1.0).contains(&r.p10(id)), "p10({id}) = {}", r.p10(id));
            prop_assert!((0.0..=1.0).contains(&r.node_delta(id)));
        }
        for &d in r.per_output() {
            prop_assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn zero_noise_means_zero_delta((c, _e) in small_circuit()) {
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let r = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap()
            .try_run(&GateEps::zero(&c)).unwrap();
        for &d in r.per_output() {
            prop_assert_eq!(d, 0.0);
        }
    }

    #[test]
    fn trees_are_exact((c, e) in tree_circuit()) {
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let eps = GateEps::try_uniform(&c, e).unwrap();
        let r = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap().try_run(&eps).unwrap();
        let exact = exact_reliability(&c, eps.as_slice());
        prop_assert!(
            (r.per_output()[0] - exact.per_output[0]).abs() < 1e-9,
            "tree: sp {} vs exact {}",
            r.per_output()[0],
            exact.per_output[0]
        );
    }

    #[test]
    fn weight_vectors_are_distributions((c, _e) in small_circuit()) {
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        for (id, node) in c.iter() {
            if !node.kind().is_gate() { continue; }
            let v = w.vector(id);
            prop_assert_eq!(v.len(), 1 << node.arity());
            let sum: f64 = v.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
            prop_assert!(v.iter().all(|&x| (-1e-12..=1.0 + 1e-12).contains(&x)));
        }
    }

    #[test]
    fn sim_and_bdd_weights_agree((c, _e) in small_circuit()) {
        let exact = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let approx = Weights::try_compute(
            &c,
            &InputDistribution::Uniform,
            Backend::Simulation { patterns: 1 << 14, seed: 42 },
        ).unwrap();
        for id in c.node_ids() {
            prop_assert!(
                (exact.signal_prob(id) - approx.signal_prob(id)).abs() < 0.05,
                "signal prob of {id}: {} vs {}",
                exact.signal_prob(id),
                approx.signal_prob(id)
            );
        }
    }

    #[test]
    fn observabilities_are_probabilities((c, _e) in small_circuit()) {
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        for id in c.node_ids() {
            for k in 0..c.output_count() {
                let o = obs.at_output(id, k);
                prop_assert!((0.0..=1.0).contains(&o), "o({id},{k}) = {o}");
                prop_assert!(obs.any(id) >= o - 1e-12, "any-output obs dominates");
            }
        }
    }

    #[test]
    fn closed_form_matches_exact_for_single_noisy_gate((c, e) in small_circuit()) {
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        // pick the last gate (always exists: generators guarantee ≥1 gate)
        let gate = c.node_ids().rev().find(|&id| c.node(id).kind().is_gate()).expect("gate");
        let mut eps = GateEps::zero(&c);
        eps.try_set(gate, e).unwrap();
        let cf = obs.closed_form(&eps);
        let exact = exact_reliability(&c, eps.as_slice());
        for (k, (&a, &b)) in cf.iter().zip(&exact.per_output).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "output {k}: {a} vs {b}");
        }
    }

    #[test]
    fn transforms_preserve_function((c, _e) in small_circuit()) {
        let variants = [
            relogic_gen::buffer_fanout(&c, 2),
            relogic_gen::duplicate_fanout(&c, 2),
            relogic_gen::balance(&c),
            relogic_gen::expand_xor_to_nand(&c),
            relogic_gen::expand_xor_to_and_or(&c),
        ];
        for v in 0..1u32 << c.input_count() {
            let bits: Vec<bool> = (0..c.input_count()).map(|j| v >> j & 1 != 0).collect();
            let expect = c.eval(&bits);
            for (i, variant) in variants.iter().enumerate() {
                prop_assert_eq!(&expect, &variant.eval(&bits), "variant {} v={:b}", i, v);
            }
        }
    }

    #[test]
    fn both_modes_stay_within_absolute_error_envelope((c, e) in small_circuit()) {
        // Neither mode is uniformly better pointwise (plain-mode errors can
        // cancel on XOR-heavy reconvergence, see the c499 discussion in
        // EXPERIMENTS.md), but on small random circuits both must stay
        // within a modest absolute envelope of the exact value.
        let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let eps = GateEps::try_uniform(&c, e).unwrap();
        let exact = exact_reliability(&c, eps.as_slice());
        let plain = SinglePass::try_new(&c, &w, SinglePassOptions::without_correlations()).unwrap().try_run(&eps).unwrap();
        let corr = SinglePass::try_new(&c, &w, SinglePassOptions::default()).unwrap().try_run(&eps).unwrap();
        for k in 0..c.output_count() {
            let pe = (plain.per_output()[k] - exact.per_output[k]).abs();
            let ce = (corr.per_output()[k] - exact.per_output[k]).abs();
            prop_assert!(ce <= 0.12, "output {k}: corrected error {ce}");
            // Plain mode carries no accuracy guarantee under reconvergence
            // (that is the paper's motivation); only guard against
            // catastrophic breakage.
            prop_assert!(pe <= 0.35, "output {k}: plain error {pe}");
        }
    }

    #[test]
    fn monte_carlo_is_unbiased_on_single_gate(e in 0.0f64..=0.5) {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y", g);
        let mut eps = GateEps::zero(&c);
        eps.try_set(g, e).unwrap();
        let r = relogic_sim::try_estimate(&c, eps.as_slice(), &relogic_sim::MonteCarloConfig {
            patterns: 1 << 15,
            ..Default::default()
        }).unwrap();
        prop_assert!((r.per_output()[0] - e).abs() < 0.02);
    }
}
