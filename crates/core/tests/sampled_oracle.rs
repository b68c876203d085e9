//! The sampled backend against the exact one: every sampled quantity the
//! analytical engines read is a binomial proportion over Table 2's
//! sampling setting (131072 patterns, seed 0xBEEF), so each value must lie
//! within a fixed number of binomial standard errors of its exact BDD
//! value.
//!
//! * `sampled_weights_match_the_exact_weights`: every weight vector entry
//!   and signal probability on x2, cu, b9, c499 and c1355;
//! * `sampled_pair_values_match_the_exact_pair_values`: the joint value
//!   distribution of every b9 output pair, from the call the consolidator
//!   makes;
//! * `sampled_observabilities_match_the_exact_observabilities`: every
//!   per-output and any-output entry of the observability matrix on x2
//!   and b9.
//!
//! Each runs under uniform inputs and under `sampled_golden`'s biased
//! inputs (0.2, 0.7, 0.9, 0.35 by input position mod 4).
//!
//! The bound, fixed before the first run: a sampled value `s` with exact
//! value `p` passes when `|s − p| ≤ 6 · max(√(p(1−p)/N), 1/N)` for
//! `N = 131072`. The `1/N` floor is one pattern's share: below it the
//! count is Poisson with mean under one, and a single stray pattern must
//! not fail a cell whose exact value is, say, 10⁻⁷. Input biases are
//! quantized to 24 binary digits, which moves a joint probability by far
//! less than that floor.

// Test-only code: the library's unwrap ban does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use relogic::{Backend, CancelToken, InputDistribution, ObservabilityMatrix, Weights};
use relogic_netlist::{Circuit, NodeId};

const PATTERNS: u64 = 131_072;
const SEED: u64 = 0xBEEF;
const SAMPLED: Backend = Backend::Simulation {
    patterns: PATTERNS,
    seed: SEED,
};
/// Standard errors a sampled value may sit from its exact value.
const MAX_STD_ERRORS: f64 = 6.0;

/// Input `i` is 1 with probability 0.2, 0.7, 0.9 or 0.35 (by `i mod 4`),
/// as in `sampled_golden`.
fn biased(c: &Circuit) -> InputDistribution {
    let probs = [0.2, 0.7, 0.9, 0.35];
    InputDistribution::Independent((0..c.input_count()).map(|i| probs[i % 4]).collect())
}

fn distributions(c: &Circuit) -> [(&'static str, InputDistribution); 2] {
    [
        ("uniform", InputDistribution::Uniform),
        ("biased", biased(c)),
    ]
}

/// Asserts every sampled value lies within the bound of the module docs
/// and returns the largest deviation in standard errors.
fn assert_within_bound(label: &str, sampled: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(sampled.len(), exact.len(), "{label}: lengths differ");
    #[allow(clippy::cast_precision_loss)]
    let n = PATTERNS as f64;
    let mut worst: f64 = 0.0;
    for (i, (&s, &p)) in sampled.iter().zip(exact).enumerate() {
        let se = (p * (1.0 - p) / n).sqrt().max(1.0 / n);
        let z = (s - p).abs() / se;
        assert!(
            z <= MAX_STD_ERRORS,
            "{label}: value {i} sampled {s}, exact {p}: {z:.2} standard errors"
        );
        worst = worst.max(z);
    }
    worst
}

#[test]
fn sampled_weights_match_the_exact_weights() {
    for name in ["x2", "cu", "b9", "c499", "c1355"] {
        let c = relogic_gen::suite::build(name).unwrap();
        for (dist_name, dist) in distributions(&c) {
            let sampled = Weights::try_compute(&c, &dist, SAMPLED).unwrap();
            let exact = Weights::try_compute(&c, &dist, Backend::Bdd).unwrap();
            let flat = |w: &Weights| -> Vec<f64> {
                w.vectors()
                    .iter()
                    .flatten()
                    .chain(w.signal_probs())
                    .copied()
                    .collect()
            };
            let worst = assert_within_bound(
                &format!("weights {name} {dist_name}"),
                &flat(&sampled),
                &flat(&exact),
            );
            println!("weights {name} {dist_name}: worst {worst:.2} standard errors");
        }
    }
}

#[test]
fn sampled_pair_values_match_the_exact_pair_values() {
    let c = relogic_gen::suite::b9();
    let outputs: Vec<NodeId> = c.outputs().iter().map(|o| o.node()).collect();
    let pairs: Vec<[NodeId; 2]> = (0..outputs.len())
        .flat_map(|a| ((a + 1)..outputs.len()).map(move |b| (a, b)))
        .map(|(a, b)| [outputs[a], outputs[b]])
        .collect();
    // The exact pair values are the BDD weight vectors of one extra AND
    // gate per pair, whose fanins are the pair's two outputs.
    let mut with_pair_gates = c.clone();
    let gates: Vec<NodeId> = pairs.iter().map(|&p| with_pair_gates.and(p)).collect();
    for (dist_name, dist) in distributions(&c) {
        let probs = dist.position_probs(&c);
        let (sampled, _) = relogic_sim::sample_joint_probs(
            &c,
            &probs,
            PATTERNS,
            SEED,
            &pairs,
            1,
            &CancelToken::new(),
        )
        .unwrap();
        let exact = Weights::try_compute(&with_pair_gates, &dist, Backend::Bdd).unwrap();
        let exact: Vec<f64> = gates
            .iter()
            .flat_map(|&g| exact.vector(g).to_vec())
            .collect();
        let worst =
            assert_within_bound(&format!("pairs b9 {dist_name}"), &sampled.concat(), &exact);
        println!("pairs b9 {dist_name}: worst {worst:.2} standard errors");
    }
}

#[test]
fn sampled_observabilities_match_the_exact_observabilities() {
    for name in ["x2", "b9"] {
        let c = relogic_gen::suite::build(name).unwrap();
        for (dist_name, dist) in distributions(&c) {
            let matrix = |backend| {
                let m = ObservabilityMatrix::try_compute_threads_cancellable(
                    &c,
                    &dist,
                    backend,
                    1,
                    &CancelToken::new(),
                )
                .unwrap();
                let values: Vec<f64> = m
                    .per_output_rows()
                    .iter()
                    .flatten()
                    .chain(m.any_output_values())
                    .copied()
                    .collect();
                values
            };
            let worst = assert_within_bound(
                &format!("observability {name} {dist_name}"),
                &matrix(SAMPLED),
                &matrix(Backend::Bdd),
            );
            println!("observability {name} {dist_name}: worst {worst:.2} standard errors");
        }
    }
}
