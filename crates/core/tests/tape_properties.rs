//! Property tests for the compiled-tape execution layer.
//!
//! Three contracts, each pitted against randomized circuits:
//!
//! 1. **Functional equivalence** — the tape's evaluator computes the same
//!    value at every node as the scalar `Circuit::eval_all`, at one word
//!    per slot and at `DEFAULT_LANES`, checked on every input assignment
//!    (circuits are capped at 12 inputs so 2^n enumeration stays cheap).
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
use relogic_sim::{try_estimate_tape, CircuitTape, MonteCarloConfig, DEFAULT_LANES};

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

/// Evaluates every input assignment of `c` on `tape` in groups of `W`
/// words per slot and checks every node against `Circuit::eval_all`.
/// Pattern `p` of a group sits in lane `p / 64`, bit `p % 64`, so lane
/// `l` carries assignments `first + 64·l …`; input `j` takes bit `j` of
/// the assignment index.
fn assert_every_assignment<const W: usize>(c: &Circuit, tape: &CircuitTape) {
    let m = c.input_count();
    let total = 1usize << m;
    let mut words = vec![[0u64; W]; tape.n_slots()];
    for first in (0..total).step_by(64 * W) {
        let patterns = total.min(first + 64 * W) - first;
        for (j, &slot) in tape.input_slots().iter().enumerate() {
            let row = &mut words[slot as usize];
            *row = [0; W];
            for p in (0..patterns).filter(|p| (first + p) >> j & 1 == 1) {
                row[p / 64] |= 1 << (p % 64);
            }
        }
        tape.eval_group(&mut words, None);
        for p in 0..patterns {
            let bits: Vec<bool> = (0..m).map(|j| (first + p) >> j & 1 == 1).collect();
            for (i, &v) in c.eval_all(&bits).iter().enumerate() {
                assert_eq!(
                    words[tape.slot_of_node(i)][p / 64] >> (p % 64) & 1 == 1,
                    v,
                    "W = {W}: node {i} disagrees at assignment {}",
                    first + p
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exhaustive equivalence: for every input assignment, every node's
    /// value from the tape's evaluator, one word per slot and
    /// `DEFAULT_LANES` words per slot, equals the scalar
    /// `Circuit::eval_all`. Catches any slot-mapping, fanin-rewiring,
    /// level-ordering, lane-indexing or gate-rule bug in the tape.
    #[test]
    fn tape_matches_graph_on_every_input_assignment(seed in arb_circuit()) {
        let c = build_circuit(&seed);
        let tape = CircuitTape::compile(&c);
        assert_every_assignment::<1>(&c, &tape);
        assert_every_assignment::<DEFAULT_LANES>(&c, &tape);
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
