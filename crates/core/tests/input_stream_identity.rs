//! Monte Carlo and the sampled passes share one input stream: at equal
//! `(patterns, seed)` the signal probabilities of `sample_joint_probs`
//! equal, bit for bit, the fault-free signal probabilities a tape Monte
//! Carlo run tallies at ε = 0, on every node, under uniform and biased
//! inputs and at every thread count.

// Test-only code: the library's unwrap ban does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use relogic_netlist::NodeId;
use relogic_sim::{
    sample_joint_probs, try_estimate_tape, CancelToken, CircuitTape, MonteCarloConfig,
};

#[test]
fn sampled_signal_probabilities_equal_monte_carlo_fault_free_ones() {
    for name in ["b9", "c1908"] {
        let c = relogic_gen::suite::build(name).unwrap();
        let tape = CircuitTape::compile(&c);
        let uniform = vec![0.5; c.input_count()];
        let biased: Vec<f64> = (0..c.input_count())
            .map(|i| [0.2, 0.7, 0.9, 0.35][i % 4])
            .collect();
        // Uniform inputs reach Monte Carlo as its default (no input
        // probabilities), biased ones explicitly.
        for (probs, mc_probs) in [(&uniform, None), (&biased, Some(biased.clone()))] {
            // A ragged budget: 313 blocks, a partial chunk and lane group.
            for (patterns, seed) in [(20_000, 3), (4096, 0xBEEF)] {
                for threads in [1, 2, 7] {
                    let never = CancelToken::new();
                    let no_tuples: &[Vec<NodeId>] = &[];
                    let (_, sampled) =
                        sample_joint_probs(&c, probs, patterns, seed, no_tuples, threads, &never)
                            .unwrap();
                    let config = MonteCarloConfig {
                        patterns,
                        seed,
                        track_nodes: true,
                        input_probs: mc_probs.clone(),
                        threads,
                        ..MonteCarloConfig::default()
                    };
                    let mc =
                        try_estimate_tape(&c, &tape, &vec![0.0; c.len()], &config, &never).unwrap();
                    let stats = mc.node_stats().unwrap();
                    for (i, &p) in sampled.iter().enumerate() {
                        assert_eq!(
                            p.to_bits(),
                            stats.signal_probability(i).to_bits(),
                            "{name} node {i}: patterns {patterns}, seed {seed}, \
                             threads {threads}, biased {}",
                            mc_probs.is_some()
                        );
                    }
                    assert_eq!(sampled.len(), c.len());
                }
            }
        }
    }
}
