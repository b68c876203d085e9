//! Classic redundancy-insertion schemes: triple modular redundancy at the
//! output and gate level.
//!
//! The paper positions its analysis as the tool that *directs* redundancy
//! insertion (§5.1: "introduce redundancy at selected gates, instead of
//! introducing redundancy at every gate"). These transforms provide the
//! redundancy side of that loop, in the tradition of von Neumann's
//! multiplexing/majority constructions (the paper's reference [3]): apply a
//! scheme, then quantify it with the `relogic` analysis or Monte Carlo.
//!
//! Note the classic threshold behaviour these enable you to observe: TMR
//! *improves* reliability when ε is small (double faults are rare) and
//! *degrades* it beyond the crossover where the extra noisy gates — voters
//! included — dominate.

use relogic_netlist::{Circuit, GateKind, NodeId};

/// Adds a 2-level AND-OR majority voter `maj(a, b, c)` to `circuit`.
///
/// # Examples
///
/// ```
/// use relogic_gen::majority_voter;
/// use relogic_netlist::Circuit;
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let x = c.add_input("x");
/// let m = majority_voter(&mut c, a, b, x);
/// c.add_output("m", m);
/// assert_eq!(c.eval(&[true, true, false]), vec![true]);
/// assert_eq!(c.eval(&[false, true, false]), vec![false]);
/// ```
pub fn majority_voter(circuit: &mut Circuit, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
    let ab = circuit.and([a, b]);
    let ac = circuit.and([a, c]);
    let bc = circuit.and([b, c]);
    let t = circuit.or([ab, ac]);
    circuit.or([t, bc])
}

/// Output-level triple modular redundancy: the whole logic network is
/// instantiated three times (sharing the primary inputs) and each primary
/// output is produced by a majority voter over the three copies.
///
/// The result has `3·gates + 5·outputs` gates and computes the same
/// function.
#[must_use]
pub fn tmr_outputs(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(format!("{}_tmr", circuit.name()));
    let inputs: Vec<NodeId> = circuit
        .inputs()
        .iter()
        .map(|&i| {
            out.try_add_input(circuit.display_name(i))
                .expect("unique input names")
        })
        .collect();
    let mut replicas: Vec<Vec<NodeId>> = Vec::with_capacity(3);
    for _ in 0..3 {
        let mut map: Vec<NodeId> = Vec::with_capacity(circuit.len());
        let mut next_input = 0usize;
        for (_, node) in circuit.iter() {
            let new_id = match node.kind() {
                GateKind::Input => {
                    let id = inputs[next_input];
                    next_input += 1;
                    id
                }
                GateKind::Const(v) => out.add_const(v),
                kind => {
                    let fanins: Vec<NodeId> =
                        node.fanins().iter().map(|f| map[f.index()]).collect();
                    out.add_gate(kind, fanins).expect("valid gate")
                }
            };
            map.push(new_id);
        }
        replicas.push(map);
    }
    for o in circuit.outputs() {
        let i = o.node().index();
        let m = majority_voter(&mut out, replicas[0][i], replicas[1][i], replicas[2][i]);
        out.add_output(o.name(), m);
    }
    out
}

/// Gate-level triple modular redundancy: every gate is triplicated and
/// immediately followed by a majority voter; downstream gates read the
/// voted value. Much larger (`≈ 8×` the gates) but corrects errors locally
/// before they propagate.
#[must_use]
pub fn tmr_gates(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(format!("{}_gtmr", circuit.name()));
    let mut map: Vec<NodeId> = Vec::with_capacity(circuit.len());
    for (id, node) in circuit.iter() {
        let new_id = match node.kind() {
            GateKind::Input => out
                .try_add_input(circuit.display_name(id))
                .expect("unique input names"),
            GateKind::Const(v) => out.add_const(v),
            kind => {
                let fanins: Vec<NodeId> = node.fanins().iter().map(|f| map[f.index()]).collect();
                let c1 = out.add_gate(kind, fanins.iter().copied()).expect("valid");
                let c2 = out.add_gate(kind, fanins.iter().copied()).expect("valid");
                let c3 = out.add_gate(kind, fanins).expect("valid");
                majority_voter(&mut out, c1, c2, c3)
            }
        };
        map.push(new_id);
    }
    for o in circuit.outputs() {
        out.add_output(o.name(), map[o.node().index()]);
    }
    out
}

/// Selective gate-level TMR: only the listed gates are triplicated and
/// voted; everything else is copied unchanged. Combine with
/// `relogic::applications::selective_hardening`-style rankings to protect
/// the most critical gates first (§5.1's "fine-grained insertion").
///
/// Node ids in `protect` refer to the *original* circuit; non-gate ids are
/// ignored.
#[must_use]
pub fn tmr_selected(circuit: &Circuit, protect: &[NodeId]) -> Circuit {
    let mut out = Circuit::new(format!("{}_stmr", circuit.name()));
    let mut map: Vec<NodeId> = Vec::with_capacity(circuit.len());
    for (id, node) in circuit.iter() {
        let new_id = match node.kind() {
            GateKind::Input => out
                .try_add_input(circuit.display_name(id))
                .expect("unique input names"),
            GateKind::Const(v) => out.add_const(v),
            kind => {
                let fanins: Vec<NodeId> = node.fanins().iter().map(|f| map[f.index()]).collect();
                if protect.contains(&id) {
                    let c1 = out.add_gate(kind, fanins.iter().copied()).expect("valid");
                    let c2 = out.add_gate(kind, fanins.iter().copied()).expect("valid");
                    let c3 = out.add_gate(kind, fanins).expect("valid");
                    majority_voter(&mut out, c1, c2, c3)
                } else {
                    out.add_gate(kind, fanins).expect("valid")
                }
            }
        };
        map.push(new_id);
    }
    for o in circuit.outputs() {
        out.add_output(o.name(), map[o.node().index()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relogic_sim::exact_reliability;

    fn sample() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("x");
        let g1 = c.nand([a, b]);
        let g2 = c.xor([g1, x]);
        c.add_output("y", g2);
        c
    }

    fn uniform_eps(c: &Circuit, e: f64) -> Vec<f64> {
        c.iter()
            .map(|(_, n)| if n.kind().is_gate() { e } else { 0.0 })
            .collect()
    }

    fn equivalent(a: &Circuit, b: &Circuit) -> bool {
        (0..1usize << a.input_count()).all(|v| {
            let bits: Vec<bool> = (0..a.input_count()).map(|j| v >> j & 1 != 0).collect();
            a.eval(&bits) == b.eval(&bits)
        })
    }

    #[test]
    fn majority_truth_table() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("x");
        let m = majority_voter(&mut c, a, b, x);
        c.add_output("m", m);
        for v in 0..8usize {
            let bits: Vec<bool> = (0..3).map(|j| v >> j & 1 != 0).collect();
            let expect = bits.iter().filter(|&&q| q).count() >= 2;
            assert_eq!(c.eval(&bits), vec![expect], "{v:03b}");
        }
    }

    #[test]
    fn tmr_variants_preserve_function() {
        let c = sample();
        assert!(equivalent(&c, &tmr_outputs(&c)));
        assert!(equivalent(&c, &tmr_gates(&c)));
        let some = vec![relogic_netlist::NodeId::from_index(3)];
        assert!(equivalent(&c, &tmr_selected(&c, &some)));
    }

    #[test]
    fn tmr_sizes() {
        let c = sample();
        assert_eq!(tmr_outputs(&c).gate_count(), 3 * c.gate_count() + 5);
        assert_eq!(tmr_gates(&c).gate_count(), 8 * c.gate_count());
        let none = tmr_selected(&c, &[]);
        assert_eq!(none.gate_count(), c.gate_count());
    }

    #[test]
    fn tmr_on_tiny_circuits_is_counterproductive() {
        // With voters as noisy as the logic, protecting a 2-gate circuit
        // only *adds* noisy gates at the output — the analysis must show
        // TMR losing here. (This is the §5.1 motivation for *selective*,
        // analysis-directed insertion instead of blanket redundancy.)
        let c = sample();
        let t = tmr_outputs(&c);
        let e = 0.005;
        let plain = exact_reliability(&c, &uniform_eps(&c, e)).per_output[0];
        let tmr = exact_reliability(&t, &uniform_eps(&t, e)).per_output[0];
        assert!(tmr > plain, "tmr {tmr} vs plain {plain}");
    }

    #[test]
    fn tmr_helps_when_logic_dominates_voters() {
        // A 12-gate XOR chain accumulates δ ≈ 12ε; triplicating it and
        // paying ~5 voter gates is a large net win at small ε.
        let mut c = Circuit::new("chain");
        let ins: Vec<_> = (0..13).map(|i| c.add_input(format!("x{i}"))).collect();
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = c.xor([acc, i]);
        }
        c.add_output("y", acc);
        let t = tmr_outputs(&c);
        let e = 0.003;
        let cfg = relogic_sim::MonteCarloConfig {
            patterns: 1 << 19,
            ..Default::default()
        };
        let plain = relogic_sim::try_estimate(&c, &uniform_eps(&c, e), &cfg)
            .unwrap()
            .per_output()[0];
        let tmr = relogic_sim::try_estimate(&t, &uniform_eps(&t, e), &cfg)
            .unwrap()
            .per_output()[0];
        assert!(
            tmr < 0.5 * plain,
            "at ε={e}: tmr {tmr} should be well under plain {plain}"
        );
    }

    #[test]
    fn selective_tmr_protects_weak_gates() {
        // One gate is 15× noisier than the rest; protecting just that gate
        // with TMR (noisy voters included) must beat the unprotected
        // circuit.
        let c = sample();
        let weak = relogic_netlist::NodeId::from_index(3); // the NAND
        let eps_of = |circ: &Circuit, weak_ids: &[relogic_netlist::NodeId]| -> Vec<f64> {
            circ.iter()
                .map(|(id, n)| {
                    if !n.kind().is_gate() {
                        0.0
                    } else if weak_ids.contains(&id) {
                        0.15
                    } else {
                        0.01
                    }
                })
                .collect()
        };
        let plain = exact_reliability(&c, &eps_of(&c, &[weak])).per_output[0];
        let sel = tmr_selected(&c, &[weak]);
        // In the selected circuit the three replicas of the weak gate are
        // nodes 3, 4, 5 (same construction order).
        let weak_copies = [
            relogic_netlist::NodeId::from_index(3),
            relogic_netlist::NodeId::from_index(4),
            relogic_netlist::NodeId::from_index(5),
        ];
        let sel_delta = exact_reliability(&sel, &eps_of(&sel, &weak_copies)).per_output[0];
        assert!(sel_delta < plain, "selective {sel_delta} vs plain {plain}");
    }
}
