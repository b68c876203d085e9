//! Property tests for the compiled-tape execution layer.
//!
//! Three contracts, each pitted against randomized circuits:
//!
//! 1. **Functional equivalence** — the instruction tape computes the same
//!    Boolean function as the graph simulator, checked by exhaustive
//!    enumeration of every input assignment (circuits are capped at 12
//!    inputs so 2^n enumeration stays cheap).
//! 2. **Monte Carlo bit-identity** — `try_estimate_tape` returns the same
//!    bits for every worker-thread count: the position-based RNG makes the
//!    sample set a pure function of (seed, pattern index), not of the
//!    execution schedule.
//! 3. **Sweep equivalence** — the ε-grid tape kernel matches the
//!    per-point single-pass engine within 1e-12 at every grid point.

// Test-only code: the library's unwrap ban does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::cast_precision_loss)]

use proptest::collection;
use proptest::prelude::*;
use relogic::{
    Backend, CancelToken, GateEps, InputDistribution, SinglePass, SinglePassOptions, SweepTape,
    Weights,
};
use relogic_netlist::{Circuit, GateKind, NodeId};
use relogic_sim::{
    exhaustive_block_count, exhaustive_lane_mask, exhaustive_word, try_estimate_tape, CircuitTape,
    MonteCarloConfig, PackedSim,
};

/// Recipe for one random gate: a kind selector plus two fanin selectors
/// (reduced modulo the number of already-built nodes).
#[derive(Clone, Debug)]
struct CircuitSeed {
    inputs: usize,
    gates: Vec<(u8, u32, u32)>,
    outputs: Vec<u32>,
}

fn arb_circuit() -> impl Strategy<Value = CircuitSeed> {
    (
        2usize..=12,
        collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..32),
        collection::vec(any::<u32>(), 1..5),
    )
        .prop_map(|(inputs, gates, outputs)| CircuitSeed {
            inputs,
            gates,
            outputs,
        })
}

fn build_circuit(seed: &CircuitSeed) -> Circuit {
    let mut c = Circuit::new("prop");
    for i in 0..seed.inputs {
        c.add_input(format!("x{i}"));
    }
    for &(kind_sel, a, b) in &seed.gates {
        let kinds = GateKind::LOGIC_KINDS;
        let kind = kinds[kind_sel as usize % kinds.len()];
        let n = u32::try_from(c.len()).unwrap();
        let fa = NodeId::from_index((a % n) as usize);
        let fb = NodeId::from_index((b % n) as usize);
        let fanins: Vec<NodeId> = if kind.accepts_arity(2) {
            vec![fa, fb]
        } else {
            vec![fa]
        };
        c.add_gate(kind, fanins).unwrap();
    }
    let n = u32::try_from(c.len()).unwrap();
    for (k, &sel) in seed.outputs.iter().enumerate() {
        c.add_output(format!("y{k}"), NodeId::from_index((sel % n) as usize));
    }
    c
}

/// Evaluates 64 packed assignments through the tape's own instruction
/// stream (slot order, slot-space fanins), independent of the graph.
fn tape_words(tape: &CircuitTape, block: u64) -> Vec<u64> {
    let mut words = vec![0u64; tape.n_slots()];
    for (position, &slot) in tape.input_slots().iter().enumerate() {
        words[slot as usize] = exhaustive_word(position, block);
    }
    for slot in 0..tape.n_slots() {
        let fold = |init: u64, f: fn(u64, u64) -> u64| {
            tape.fanins(slot)
                .iter()
                .fold(init, |acc, &x| f(acc, words[x as usize]))
        };
        words[slot] = match tape.kind(slot) {
            GateKind::Input => continue,
            GateKind::Const(b) => {
                if b {
                    u64::MAX
                } else {
                    0
                }
            }
            GateKind::Buf => fold(0, |a, b| a | b),
            GateKind::Not => !fold(0, |a, b| a | b),
            GateKind::And => fold(u64::MAX, |a, b| a & b),
            GateKind::Nand => !fold(u64::MAX, |a, b| a & b),
            GateKind::Or => fold(0, |a, b| a | b),
            GateKind::Nor => !fold(0, |a, b| a | b),
            GateKind::Xor => fold(0, |a, b| a ^ b),
            GateKind::Xnor => !fold(0, |a, b| a ^ b),
        };
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exhaustive equivalence: for every input assignment, every node's
    /// value computed through the compiled tape equals the graph
    /// simulator's. Catches any slot-mapping, fanin-rewiring, or
    /// level-ordering bug in tape compilation.
    #[test]
    fn tape_matches_graph_on_every_input_assignment(seed in arb_circuit()) {
        let c = build_circuit(&seed);
        let tape = CircuitTape::compile(&c);
        let mut sim = PackedSim::new(&c);
        for block in 0..exhaustive_block_count(c.input_count()) {
            let mask = exhaustive_lane_mask(c.input_count());
            sim.exhaustive_inputs(block);
            sim.propagate(&c);
            let words = tape_words(&tape, block);
            for i in 0..c.len() {
                let graph = sim.node_word(NodeId::from_index(i)) & mask;
                let tape_w = words[tape.slot_of_node(i)] & mask;
                prop_assert_eq!(
                    graph, tape_w,
                    "node {} disagrees in block {}", i, block
                );
            }
        }
    }

    /// Monte Carlo estimates are a pure function of (seed, patterns):
    /// identical bits for every thread count.
    #[test]
    fn mc_estimate_is_thread_invariant(seed in arb_circuit()) {
        let c = build_circuit(&seed);
        let tape = CircuitTape::compile(&c);
        let eps = GateEps::try_uniform(&c, 0.05).unwrap();
        // 5000 patterns: a ragged final chunk, so partial-block masking
        // is exercised too.
        let mut reference = None;
        for threads in [1usize, 2, 8] {
            let cfg = MonteCarloConfig {
                patterns: 5000,
                seed: 99,
                threads,
                ..MonteCarloConfig::default()
            };
            let r = try_estimate_tape(&c, &tape, eps.as_slice(), &cfg, &CancelToken::new())
                .unwrap();
            match &reference {
                None => reference = Some(r),
                Some(base) => prop_assert_eq!(
                    base, &r,
                    "threads={} diverged", threads
                ),
            }
        }
    }

    /// The single-traversal ε-grid kernel agrees with the per-point
    /// single-pass engine at every grid point and output.
    #[test]
    fn sweep_grid_matches_per_point_engine(seed in arb_circuit()) {
        let c = build_circuit(&seed);
        let weights = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
        let grid = relogic::sweep::try_epsilon_grid(9, 0.0, 0.4).unwrap();
        let tape = SweepTape::try_new(&c, &weights).unwrap();
        let curves = tape.try_run_grid(&grid, 2, &CancelToken::new()).unwrap();
        let engine = SinglePass::try_new(&c, &weights, SinglePassOptions::without_correlations()).unwrap();
        for (i, &e) in grid.iter().enumerate() {
            let point = engine.try_run(&GateEps::try_uniform(&c, e).unwrap()).unwrap();
            for (k, &d) in point.per_output().iter().enumerate() {
                prop_assert!(
                    (curves.delta[i][k] - d).abs() <= 1e-12,
                    "eps={} output {}: grid {} vs per-point {}",
                    e, k, curves.delta[i][k], d
                );
            }
        }
    }
}
