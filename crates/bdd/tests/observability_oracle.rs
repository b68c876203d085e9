//! Property tests: BDD-backed exact observability (auxiliary-variable
//! splice + Boolean difference) agrees with exhaustive enumeration on
//! random ≤12-input circuits, and the complement-edge canonical form holds
//! under everything those computations throw at the manager.

use proptest::collection;
use proptest::prelude::*;
use relogic_bdd::{BddManager, BddRef, CircuitBdds, Var, VarOrder};
use relogic_netlist::{Circuit, GateKind, NodeId};

/// Recipe for one random gate: a kind selector plus two fanin selectors
/// (reduced modulo the number of already-built nodes, so every recipe is
/// valid for any prefix).
type GateSeed = (u8, u32, u32);

#[derive(Clone, Debug)]
struct CircuitSeed {
    inputs: usize,
    gates: Vec<GateSeed>,
    outputs: Vec<u32>,
}

fn arb_circuit() -> impl Strategy<Value = CircuitSeed> {
    (
        2usize..=12,
        collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..24),
        collection::vec(any::<u32>(), 1..4),
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
        let n = u32::try_from(c.len()).expect("node count fits");
        let fa = NodeId::from_index((a % n) as usize);
        let fb = NodeId::from_index((b % n) as usize);
        let fanins: Vec<NodeId> = if kind.accepts_arity(2) {
            vec![fa, fb]
        } else {
            vec![fa]
        };
        c.add_gate(kind, fanins).expect("arity checked");
    }
    let n = u32::try_from(c.len()).expect("node count fits");
    for (k, &sel) in seed.outputs.iter().enumerate() {
        c.add_output(format!("y{k}"), NodeId::from_index((sel % n) as usize));
    }
    c
}

/// Evaluates the circuit on `inputs` with the value at `flip` inverted,
/// returning the output vector.
fn eval_with_flip(c: &Circuit, inputs: &[bool], flip: NodeId) -> Vec<bool> {
    let mut vals = vec![false; c.len()];
    for (id, node) in c.iter() {
        let v = match node.kind() {
            GateKind::Input => inputs[c.input_position(id).expect("input has a position")],
            GateKind::Const(b) => b,
            k => {
                let fan: Vec<bool> = node.fanins().iter().map(|f| vals[f.index()]).collect();
                k.eval(&fan)
            }
        };
        vals[id.index()] = if id == flip { !v } else { v };
    }
    c.outputs().iter().map(|o| vals[o.node().index()]).collect()
}

fn eval_plain(c: &Circuit, inputs: &[bool]) -> Vec<bool> {
    c.eval(inputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every node and every output of a random circuit, the spliced
    /// Boolean-difference observability equals the exhaustive fraction of
    /// input assignments on which flipping the node flips the output.
    #[test]
    fn splice_observability_matches_exhaustive(seed in arb_circuit()) {
        let c = build_circuit(&seed);
        let order = VarOrder::dfs(&c);
        let mut m = BddManager::new(order.len() + 1);
        let aux = Var::try_from(order.len()).expect("≤ 12 inputs");
        m.place_var_at_top(aux);
        let bdds = CircuitBdds::try_build(&mut m, &c, &order, usize::MAX, &mut || false).expect("unbounded build");
        let n_asg = 1usize << c.input_count();
        for target in c.node_ids() {
            let funcs = bdds.with_aux_at(&mut m, &c, target, aux);
            for (k, out) in c.outputs().iter().enumerate() {
                let pred = m.boolean_difference(funcs[out.node().index()], aux);
                let got = m.probability_uniform(pred);
                let mut flips = 0usize;
                for v in 0..n_asg {
                    let bits: Vec<bool> =
                        (0..c.input_count()).map(|j| v >> j & 1 != 0).collect();
                    if eval_plain(&c, &bits)[k] != eval_with_flip(&c, &bits, target)[k] {
                        flips += 1;
                    }
                }
                #[allow(clippy::cast_precision_loss)]
                let expect = flips as f64 / n_asg as f64;
                prop_assert!(
                    (got - expect).abs() < 1e-12,
                    "node {target}, output {k}: bdd {got} vs exhaustive {expect}"
                );
            }
        }
        // Everything above ran through complement-edge ite: the store must
        // still be in canonical low-edge-regular form.
        m.check_canonical().expect("canonical after splices");
    }

    /// Complement-edge canonicity: the node store never holds a
    /// complemented low edge, and double negation is the identity at the
    /// pointer level (no new nodes, same tagged ref).
    #[test]
    fn complement_edges_stay_canonical(seed in arb_circuit()) {
        let c = build_circuit(&seed);
        let order = VarOrder::dfs(&c);
        let mut m = BddManager::new(order.len().max(1));
        let bdds = CircuitBdds::try_build(&mut m, &c, &order, usize::MAX, &mut || false).expect("unbounded build");
        m.check_canonical().expect("canonical after circuit build");
        for &f in bdds.funcs() {
            let nf = m.not(f);
            let nnf = m.not(nf);
            prop_assert_eq!(nnf, f, "not(not(f)) must be pointer-identical");
            prop_assert!(f != nf, "f and ¬f must differ");
        }
        // NOT is a tag flip: negating every function allocates nothing.
        let before = m.live_node_count();
        for &f in bdds.funcs() {
            let _ = m.not(f);
        }
        prop_assert_eq!(m.live_node_count(), before);
        m.check_canonical().expect("canonical after negations");
    }

    /// Constants are canonical complements of each other.
    #[test]
    fn constant_complement_identity(_x in 0u8..1) {
        let m = BddManager::new(1);
        prop_assert_eq!(m.not(BddRef::TRUE), BddRef::FALSE);
        prop_assert_eq!(m.not(BddRef::FALSE), BddRef::TRUE);
    }
}
