//! The exact observability backend against brute force.
//!
//! `ObservabilityMatrix` with [`Backend::Bdd`] routes every node through
//! the post-dominator sweep (dead / ports-only / region chain-rule / full
//! splice). These tests pit that decomposition against exhaustive
//! enumeration on random reconvergent circuits, and pin the thread-count
//! invariance the executor promises.

// Test-only code: the library's unwrap ban does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::cast_precision_loss)]

use proptest::collection;
use proptest::prelude::*;
use relogic::{Backend, CancelToken, GateEps, InputDistribution, ObservabilityMatrix};
use relogic_netlist::{Circuit, GateKind, NodeId};
use relogic_sim::flip_influence;

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
        2usize..=10,
        collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..28),
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

/// Exhaustive any-output observability of `flip`: the fraction of input
/// assignments on which inverting the node changes at least one output.
fn exhaustive_any(c: &Circuit, flip: NodeId) -> f64 {
    let n_asg = 1usize << c.input_count();
    let mut hits = 0usize;
    for v in 0..n_asg {
        let bits: Vec<bool> = (0..c.input_count()).map(|j| v >> j & 1 != 0).collect();
        let mut vals = vec![false; c.len()];
        let mut flipped = vec![false; c.len()];
        for (id, node) in c.iter() {
            let (base, alt) = match node.kind() {
                GateKind::Input => {
                    let b = bits[c.input_position(id).unwrap()];
                    (b, b)
                }
                GateKind::Const(b) => (b, b),
                k => {
                    let fan: Vec<bool> = node.fanins().iter().map(|f| vals[f.index()]).collect();
                    let fan_alt: Vec<bool> =
                        node.fanins().iter().map(|f| flipped[f.index()]).collect();
                    (k.eval(&fan), k.eval(&fan_alt))
                }
            };
            vals[id.index()] = base;
            flipped[id.index()] = if id == flip { !alt } else { alt };
        }
        if c.outputs()
            .iter()
            .any(|o| vals[o.node().index()] != flipped[o.node().index()])
        {
            hits += 1;
        }
    }
    hits as f64 / n_asg as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-output columns match the exhaustive single-flip influence and
    /// the any column matches exhaustive any-output enumeration, for every
    /// node — so the region/stem classification can never mislabel one.
    #[test]
    fn bdd_matrix_matches_exhaustive(seed in arb_circuit()) {
        let c = build_circuit(&seed);
        let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
        for id in c.node_ids() {
            let inf = flip_influence(&c, &[id]);
            for (k, &exact) in inf.iter().enumerate().take(c.output_count()) {
                prop_assert!(
                    (obs.at_output(id, k) - exact).abs() < 1e-12,
                    "node {id}, output {k}: bdd {} vs exhaustive {exact}",
                    obs.at_output(id, k)
                );
            }
            let any = exhaustive_any(&c, id);
            prop_assert!(
                (obs.any(id) - any).abs() < 1e-12,
                "node {id} any: bdd {} vs exhaustive {any}",
                obs.any(id)
            );
        }
    }

    /// The executor's determinism contract: the matrix is bit-identical
    /// for every worker thread count, however the post-dominator trees
    /// fall to workers.
    #[test]
    fn thread_count_never_changes_results(seed in arb_circuit()) {
        let c = build_circuit(&seed);
        let never = CancelToken::new();
        let one = ObservabilityMatrix::try_compute_threads_cancellable(
            &c, &InputDistribution::Uniform, Backend::Bdd, 1, &never,
        )
        .unwrap();
        for threads in [2usize, 3, 4] {
            let many = ObservabilityMatrix::try_compute_threads_cancellable(
                &c, &InputDistribution::Uniform, Backend::Bdd, threads, &never,
            )
            .unwrap();
            for id in c.node_ids() {
                for k in 0..c.output_count() {
                    prop_assert_eq!(
                        one.at_output(id, k).to_bits(),
                        many.at_output(id, k).to_bits()
                    );
                }
                prop_assert_eq!(one.any(id).to_bits(), many.any(id).to_bits());
            }
        }
    }
}

fn matrix_bits(obs: &ObservabilityMatrix) -> (Vec<Vec<u64>>, Vec<u64>) {
    (
        obs.per_output_rows()
            .iter()
            .map(|row| row.iter().map(|x| x.to_bits()).collect())
            .collect(),
        obs.any_output_values()
            .iter()
            .map(|x| x.to_bits())
            .collect(),
    )
}

/// On suite circuits with real post-dominator trees and stems, every
/// thread count gives one thread's bits, and the budgeted entry point
/// (whose probe manager becomes the first worker's) gives the
/// unbudgeted one's.
#[test]
fn suite_matrices_are_bit_identical_across_threads_and_entry_points() {
    let never = CancelToken::new();
    let dist = InputDistribution::Uniform;
    for name in ["x2", "cu", "b9"] {
        let c = relogic_gen::suite::build(name).unwrap();
        let one = matrix_bits(
            &ObservabilityMatrix::try_compute_threads_cancellable(
                &c,
                &dist,
                Backend::Bdd,
                1,
                &never,
            )
            .unwrap(),
        );
        for threads in [2usize, 3, 7] {
            let many = ObservabilityMatrix::try_compute_threads_cancellable(
                &c,
                &dist,
                Backend::Bdd,
                threads,
                &never,
            )
            .unwrap();
            assert!(matrix_bits(&many) == one, "{name}: {threads} threads");
        }
        for threads in [1usize, 2] {
            let budgeted =
                ObservabilityMatrix::try_compute_budgeted(&c, &dist, threads, 1 << 24).unwrap();
            assert!(
                matrix_bits(&budgeted) == one,
                "{name}: budgeted at {threads} threads"
            );
        }
    }
}

/// `criticality` is the ranking `relogic-cli rank` prints: on b9, as the
/// CLI parses it from `gen b9`, the gate order at the CLI's default
/// ε = 0.05 matches `data/b9_rank_order.txt`, recorded with
/// `relogic-cli rank b9.bench --top 1000` from the CLI's own sort, before
/// the ranking moved onto the matrix. Ties (90 of b9's 210 gates
/// share ε·o = 0.05 or 0) fall in ascending node order.
#[test]
fn criticality_reproduces_the_rank_order_on_b9() {
    let text = relogic_netlist::bench::write(&relogic_gen::suite::build("b9").unwrap());
    let c = relogic_netlist::bench::parse(&text).unwrap();
    let obs = ObservabilityMatrix::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
    let ranked: Vec<String> = obs
        .criticality(&c, &GateEps::try_uniform(&c, 0.05).unwrap())
        .into_iter()
        .map(|(id, _)| c.display_name(id))
        .collect();
    let want: Vec<&str> = include_str!("data/b9_rank_order.txt").lines().collect();
    assert_eq!(ranked, want);
}
