//! Property tests: Monte Carlo and the sampling estimators agree with
//! exhaustive ground truth on small random circuits.

// Test-only code: the library's unwrap ban does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use relogic_netlist::{Circuit, GateKind, NodeId};
use relogic_sim::{
    exact_reliability, flip_influence, try_estimate, weight_samples_biased, InputSampler,
    MonteCarloConfig,
};

fn random_circuit(ops: &[(u8, u8, u8)], inputs: usize) -> Circuit {
    let mut c = Circuit::new("prop");
    for i in 0..inputs {
        c.add_input(format!("x{i}"));
    }
    for &(kind, a, b) in ops {
        let len = c.len();
        let fa = NodeId::from_index(a as usize % len);
        let fb = NodeId::from_index(b as usize % len);
        let kind = GateKind::LOGIC_KINDS[kind as usize % GateKind::LOGIC_KINDS.len()];
        match kind {
            GateKind::Buf | GateKind::Not => {
                c.add_gate(kind, [fa]).unwrap();
            }
            _ => {
                c.add_gate(kind, [fa, fb]).unwrap();
            }
        }
    }
    let last = NodeId::from_index(c.len() - 1);
    c.add_output("y", last);
    c
}

fn arb_case() -> impl Strategy<Value = (Circuit, f64)> {
    (
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..10),
        2usize..5,
        0.0f64..=0.5,
    )
        .prop_map(|(ops, inputs, eps)| (random_circuit(&ops, inputs), eps))
}

fn uniform_eps(c: &Circuit, e: f64) -> Vec<f64> {
    c.iter()
        .map(|(_, n)| if n.kind().is_gate() { e } else { 0.0 })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn monte_carlo_converges_to_exact((c, e) in arb_case()) {
        let eps = uniform_eps(&c, e);
        let exact = exact_reliability(&c, &eps);
        let mc = try_estimate(&c, &eps, &MonteCarloConfig {
            patterns: 1 << 15,
            ..MonteCarloConfig::default()
        }).unwrap();
        // 4-sigma bound with se <= 0.5/sqrt(n).
        let bound = 4.0 * 0.5 / f64::sqrt(mc.patterns() as f64) + 1e-9;
        prop_assert!(
            (mc.per_output()[0] - exact.per_output[0]).abs() < bound.max(0.02),
            "mc {} vs exact {}",
            mc.per_output()[0],
            exact.per_output[0]
        );
        prop_assert!((mc.any_output() - exact.any_output).abs() < bound.max(0.02));
    }

    #[test]
    fn signal_probabilities_match_truth_table((c, _e) in arb_case()) {
        let (_, probs) =
            weight_samples_biased(&c, &InputSampler::uniform(c.input_count()), 1 << 14, 3);
        // Brute-force count per node.
        let m = c.input_count();
        let mut ones = vec![0usize; c.len()];
        for v in 0..1usize << m {
            let bits: Vec<bool> = (0..m).map(|j| v >> j & 1 != 0).collect();
            for (i, &val) in c.eval_all(&bits).iter().enumerate() {
                ones[i] += usize::from(val);
            }
        }
        for i in 0..c.len() {
            let expect = ones[i] as f64 / (1usize << m) as f64;
            prop_assert!(
                (probs[i] - expect).abs() < 0.03,
                "node {i}: {} vs {expect}",
                probs[i]
            );
        }
    }

    #[test]
    fn flip_influence_bounded_and_zero_for_dead_nodes((c, _e) in arb_case()) {
        for id in 0..c.len() {
            let node = NodeId::from_index(id);
            let inf = flip_influence(&c, &[node]);
            prop_assert!((0.0..=1.0).contains(&inf[0]));
        }
        // Flipping the output node itself is always observable.
        let out_node = c.outputs()[0].node();
        prop_assert_eq!(flip_influence(&c, &[out_node])[0], 1.0);
    }

    #[test]
    fn estimate_is_bit_identical_for_every_thread_count(
        (c, e) in arb_case(),
        patterns in 1u64..6000,
        threads in 2usize..8,
    ) {
        // `patterns` deliberately covers budgets that are not multiples of
        // the 1024-pattern chunk width (nor of the 64-pattern block).
        let eps = uniform_eps(&c, e);
        let cfg = MonteCarloConfig {
            patterns,
            track_nodes: true,
            ..MonteCarloConfig::default()
        };
        let serial = try_estimate(&c, &eps, &MonteCarloConfig { threads: 1, ..cfg.clone() }).unwrap();
        let parallel = try_estimate(&c, &eps, &MonteCarloConfig { threads, ..cfg }).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn exact_reliability_is_monotone_at_zero((c, _e) in arb_case()) {
        let zero = exact_reliability(&c, &uniform_eps(&c, 0.0));
        prop_assert_eq!(zero.per_output[0], 0.0);
        let small = exact_reliability(&c, &uniform_eps(&c, 0.01));
        prop_assert!(small.per_output[0] >= 0.0);
    }
}
