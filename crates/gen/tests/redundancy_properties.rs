//! Property test: selective TMR never hurts in its design regime.
//!
//! `tmr_selected(protect)` exists to shield *weak* gates (high ε) with
//! redundancy built from *reliable* hardware (low ε) — the §5.1
//! asymmetric-reliability scenario that motivates analysis-directed
//! insertion. In that regime the transform must never decrease any
//! per-output reliability: the voter masks single-replica failures
//! (double failures cost ~3ε² ≪ ε) and the added voter gates carry the
//! cheap ε. The oracle is Monte Carlo with a fixed seed; the tolerance is
//! a multiple of both runs' standard errors, so the assertion only fires
//! on a real regression, not sampling noise.
//!
//! The blanket-TMR counterexample (voters as noisy as the logic, where
//! redundancy *adds* error) is covered by the unit tests in
//! `src/redundancy.rs`; this property pins the regime the `harden`
//! optimizer actually uses.

// Test-only code: the library's unwrap ban does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use relogic_gen::tmr_selected;
use relogic_netlist::{Circuit, GateKind, NodeId};
use relogic_sim::{try_estimate, MonteCarloConfig};

/// Gate error rate of the weak (protected) gates.
const EPS_WEAK: f64 = 0.2;
/// Gate error rate of everything else, including replicas' voters.
const EPS_GOOD: f64 = 0.002;

fn random_circuit(ops: &[(u8, u8, u8)], inputs: usize, outputs: usize) -> Circuit {
    let mut c = Circuit::new("prop");
    for i in 0..inputs {
        c.add_input(format!("x{i}"));
    }
    for &(kind, a, b) in ops {
        let len = c.len();
        let fa = NodeId::from_index(a as usize % len);
        let fb = NodeId::from_index(b as usize % len);
        let kind = GateKind::LOGIC_KINDS[kind as usize % GateKind::LOGIC_KINDS.len()];
        if kind.accepts_arity(2) {
            c.add_gate(kind, [fa, fb]).unwrap();
        } else {
            c.add_gate(kind, [fa]).unwrap();
        }
    }
    let n = c.len();
    for k in 0..outputs {
        // Spread outputs over the latest nodes so most gates stay live.
        c.add_output(format!("y{k}"), NodeId::from_index(n - 1 - k % n.min(3)));
    }
    c
}

/// Picks every `stride`-th gate as the protected set.
fn protect_set(c: &Circuit, stride: usize) -> Vec<NodeId> {
    c.iter()
        .filter(|(_, n)| n.kind().is_gate())
        .map(|(id, _)| id)
        .step_by(stride.max(1))
        .collect()
}

/// Per-node ε for the base circuit: weak where protected, good elsewhere.
fn base_eps(c: &Circuit, protect: &[NodeId]) -> Vec<f64> {
    c.iter()
        .map(|(id, n)| {
            if !n.kind().is_gate() {
                0.0
            } else if protect.contains(&id) {
                EPS_WEAK
            } else {
                EPS_GOOD
            }
        })
        .collect()
}

/// Per-node ε for the transformed circuit, reconstructed by replaying
/// `tmr_selected`'s deterministic construction order: each original node
/// in iteration order, protected gates expanding to three replicas (which
/// keep the weak ε — redundancy does not fix the device, it masks it)
/// followed by the voter's gates at the good ε.
fn tmr_eps(c: &Circuit, t: &Circuit, protect: &[NodeId]) -> Vec<f64> {
    let protected_gates = protect
        .iter()
        .filter(|id| c.node(**id).kind().is_gate())
        .count();
    assert!(protected_gates > 0, "caller guarantees a non-empty set");
    let grown = t.gate_count() - c.gate_count();
    assert_eq!(grown % protected_gates, 0, "uniform per-gate voter cost");
    let voter_gates = grown / protected_gates - 2;
    let mut eps = Vec::with_capacity(t.len());
    for (id, node) in c.iter() {
        if !node.kind().is_gate() {
            eps.push(0.0);
        } else if protect.contains(&id) {
            eps.extend([EPS_WEAK; 3]);
            eps.extend(std::iter::repeat_n(EPS_GOOD, voter_gates));
        } else {
            eps.push(EPS_GOOD);
        }
    }
    assert_eq!(eps.len(), t.len(), "replay must cover the whole transform");
    eps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn protecting_weak_gates_never_decreases_reliability(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 2..14),
        inputs in 2usize..6,
        outputs in 1usize..3,
        stride in 1usize..4,
    ) {
        let c = random_circuit(&ops, inputs, outputs);
        let protect = protect_set(&c, stride);
        prop_assume!(!protect.is_empty());
        let t = tmr_selected(&c, &protect);

        let cfg = MonteCarloConfig {
            patterns: 1 << 15,
            seed: 42,
            ..MonteCarloConfig::default()
        };
        let plain = try_estimate(&c, &base_eps(&c, &protect), &cfg).unwrap();
        let tmr = try_estimate(&t, &tmr_eps(&c, &t, &protect), &cfg).unwrap();

        for k in 0..c.output_count() {
            let margin = 4.0 * (plain.std_error(k) + tmr.std_error(k)) + 1e-9;
            prop_assert!(
                tmr.per_output()[k] <= plain.per_output()[k] + margin,
                "output {k}: protected delta {} vs plain {} (margin {margin})",
                tmr.per_output()[k],
                plain.per_output()[k],
            );
        }
    }
}
