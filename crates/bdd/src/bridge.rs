//! Bridge between [`relogic_netlist::Circuit`] and the BDD manager:
//! variable ordering, whole-circuit symbolic construction, and targeted
//! cone rebuilds with an auxiliary variable (the primitive behind exact
//! observability analysis).

use crate::{BddManager, BddRef, Var};
use relogic_netlist::{Circuit, GateKind, NodeId};

/// A mapping from primary-input position to BDD variable index.
///
/// # Examples
///
/// ```
/// use relogic_bdd::VarOrder;
/// use relogic_netlist::Circuit;
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let g = c.and([b, a]);
/// c.add_output("y", g);
///
/// let natural = VarOrder::natural(&c);
/// assert_eq!(natural.var_of_position(0), 0);
/// let dfs = VarOrder::dfs(&c);
/// assert_eq!(dfs.len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarOrder {
    /// `var_of[pos]` is the BDD variable assigned to input position `pos`.
    var_of: Vec<Var>,
}

impl VarOrder {
    /// Declaration order: input position `i` becomes variable `i`.
    #[must_use]
    pub fn natural(circuit: &Circuit) -> Self {
        VarOrder {
            var_of: (0..circuit.input_count())
                .map(|i| Var::try_from(i).expect("input count overflow"))
                .collect(),
        }
    }

    /// Depth-first order: inputs are numbered by first appearance in a DFS
    /// from the outputs, which keeps related inputs adjacent and usually
    /// yields far smaller BDDs on structured logic than declaration order.
    #[must_use]
    pub fn dfs(circuit: &Circuit) -> Self {
        let mut var_of = vec![Var::MAX; circuit.input_count()];
        let mut next: Var = 0;
        let mut visited = vec![false; circuit.len()];
        let mut stack: Vec<NodeId> = circuit.outputs().iter().rev().map(|o| o.node()).collect();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut visited[id.index()], true) {
                continue;
            }
            let node = circuit.node(id);
            if node.kind() == GateKind::Input {
                let pos = circuit
                    .input_position(id)
                    .expect("input node has a position");
                if var_of[pos] == Var::MAX {
                    var_of[pos] = next;
                    next += 1;
                }
            }
            for &f in node.fanins().iter().rev() {
                stack.push(f);
            }
        }
        // Inputs unreachable from any output get the remaining variables.
        for slot in &mut var_of {
            if *slot == Var::MAX {
                *slot = next;
                next += 1;
            }
        }
        VarOrder { var_of }
    }

    /// Number of inputs covered by this order.
    #[must_use]
    pub fn len(&self) -> usize {
        self.var_of.len()
    }

    /// Returns `true` if the order covers no inputs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.var_of.is_empty()
    }

    /// The BDD variable assigned to input position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[must_use]
    pub fn var_of_position(&self, pos: usize) -> Var {
        self.var_of[pos]
    }

    /// Translates a probability vector indexed by input position into one
    /// indexed by BDD variable (padding extra variables with `pad`).
    #[must_use]
    pub fn permute_probs(&self, by_position: &[f64], var_count: usize, pad: f64) -> Vec<f64> {
        assert_eq!(by_position.len(), self.var_of.len());
        let mut by_var = vec![pad; var_count];
        for (pos, &v) in self.var_of.iter().enumerate() {
            by_var[v as usize] = by_position[pos];
        }
        by_var
    }
}

/// Carried by [`BuildInterrupt::Budget`] when the base circuit
/// construction exceeds its live-node budget.
///
/// The construction sequence is deterministic (node order, operand order,
/// and manager state are pure functions of the circuit and variable
/// order), so for a given `(circuit, order, budget)` either every build
/// exceeds the budget at the same gate or none does — the error is
/// reproducible and independent of thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildBudgetExceeded {
    /// Live decision nodes the build asked for: the manager refused the
    /// allocation that would have made this count, so on a fresh
    /// manager it is `budget + 1`.
    pub live_nodes: usize,
    /// The configured budget.
    pub budget: usize,
}

impl std::fmt::Display for BuildBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BDD build exceeded its live-node budget ({} live nodes > {})",
            self.live_nodes, self.budget
        )
    }
}

impl std::error::Error for BuildBudgetExceeded {}

/// Why a circuit build stopped early.
///
/// The crate stays dependency-free of the cancellation layer: callers hand
/// [`CircuitBdds::try_build`] a polling closure and get this back, mapping
/// `Interrupted` onto their own typed cancellation error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildInterrupt {
    /// The live-node budget tripped (deterministic per circuit/order).
    Budget(BuildBudgetExceeded),
    /// The caller's interrupt poll returned `true` (deadline, disconnect,
    /// drain — whatever the caller's token encodes).
    Interrupted,
}

impl std::fmt::Display for BuildInterrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildInterrupt::Budget(e) => write!(f, "{e}"),
            BuildInterrupt::Interrupted => write!(f, "BDD build interrupted by caller"),
        }
    }
}

impl std::error::Error for BuildInterrupt {}

/// Symbolic representation of a circuit: one BDD per node, over the
/// primary-input variables.
#[derive(Clone, Debug)]
pub struct CircuitBdds {
    funcs: Vec<BddRef>,
    order: VarOrder,
}

impl CircuitBdds {
    /// Builds BDDs for every node of `circuit` in topological order under
    /// a live-node `budget`, consulting a caller-supplied interrupt poll
    /// after every gate.
    ///
    /// The manager enforces the budget at node allocation
    /// ([`BddManager::set_live_node_limit`]): the build stops at the first
    /// allocation that would take the live count past `budget`, so the
    /// manager's peak never passes it. This build never collects garbage,
    /// so the live count only grows, and a build trips exactly when, and
    /// at the gate where, a check after every gate would have found more
    /// than `budget` live nodes.
    ///
    /// The manager must have at least `order.len()` variables; extra
    /// variables (e.g. a pre-allocated observability auxiliary) are fine.
    ///
    /// The *base* construction is the deterministic part of exact analysis
    /// (it runs once, before any parallel sweep), so a budget enforced
    /// here trips identically for every thread count — and it is where
    /// multiplier-class circuits (c6288) blow up in the first place.
    ///
    /// The poll must be cheap (the cancellation layer's `is_cancelled()`
    /// is a couple of relaxed atomic loads) and *read-only*: interrupting
    /// never changes what a completed build produces, only whether it
    /// completes. Pass `usize::MAX` and `&mut || false` for an unbounded,
    /// uninterruptible build.
    ///
    /// # Errors
    ///
    /// [`BuildInterrupt::Budget`] as soon as an allocation would pass
    /// `budget`, [`BuildInterrupt::Interrupted`] as soon as `interrupt`
    /// returns `true`; the partially-built functions are dropped either
    /// way, every node the manager holds stays valid, and the manager is
    /// left without a limit.
    ///
    /// # Panics
    ///
    /// Panics if the manager has fewer variables than the order requires.
    pub fn try_build(
        manager: &mut BddManager,
        circuit: &Circuit,
        order: &VarOrder,
        budget: usize,
        interrupt: &mut dyn FnMut() -> bool,
    ) -> Result<Self, BuildInterrupt> {
        assert!(manager.var_count() >= order.len());
        manager.set_live_node_limit(budget);
        let funcs = Self::build_gates(manager, circuit, order, budget, interrupt);
        manager.set_live_node_limit(usize::MAX);
        Ok(CircuitBdds {
            funcs: funcs?,
            order: order.clone(),
        })
    }

    /// The gate loop of [`CircuitBdds::try_build`], run while the manager
    /// enforces `budget`.
    fn build_gates(
        manager: &mut BddManager,
        circuit: &Circuit,
        order: &VarOrder,
        budget: usize,
        interrupt: &mut dyn FnMut() -> bool,
    ) -> Result<Vec<BddRef>, BuildInterrupt> {
        let mut funcs: Vec<BddRef> = Vec::with_capacity(circuit.len());
        for (id, node) in circuit.iter() {
            let f = match node.kind() {
                GateKind::Input => {
                    let pos = circuit
                        .input_position(id)
                        .expect("input node has a position");
                    manager.var(order.var_of_position(pos))
                }
                kind => build_gate(manager, kind, node.fanins(), &funcs),
            };
            if manager.limit_exceeded() {
                return Err(BuildInterrupt::Budget(BuildBudgetExceeded {
                    live_nodes: manager.live_node_count() + 1,
                    budget,
                }));
            }
            funcs.push(f);
            if interrupt() {
                return Err(BuildInterrupt::Interrupted);
            }
        }
        Ok(funcs)
    }

    /// The function computed by `node`.
    #[must_use]
    pub fn func(&self, node: NodeId) -> BddRef {
        self.funcs[node.index()]
    }

    /// Functions for all nodes, indexed by [`NodeId::index`].
    #[must_use]
    pub fn funcs(&self) -> &[BddRef] {
        &self.funcs
    }

    /// Rebuilds the functions in the fanout cone of `target`, with the
    /// target node's function replaced by the variable `aux`.
    ///
    /// Returns a full function vector: nodes outside the cone keep their
    /// original function. This is the workhorse of exact observability —
    /// the output functions become functions of the PIs *and* the value at
    /// `target`, so `∂y/∂aux` is the observability predicate of `target`.
    ///
    /// # Panics
    ///
    /// Panics if `aux` is not a valid variable of `manager`, or if `aux`
    /// collides with a primary-input variable.
    #[must_use]
    pub fn with_aux_at(
        &self,
        manager: &mut BddManager,
        circuit: &Circuit,
        target: NodeId,
        aux: Var,
    ) -> Vec<BddRef> {
        assert!(
            (aux as usize) < manager.var_count(),
            "auxiliary variable out of range"
        );
        assert!(
            (0..self.order.len()).all(|p| self.order.var_of_position(p) != aux),
            "auxiliary variable collides with a primary input"
        );
        let mut funcs = self.funcs.clone();
        let mut dirty = vec![false; circuit.len()];
        funcs[target.index()] = manager.var(aux);
        dirty[target.index()] = true;
        for (id, node) in circuit.iter() {
            if id == target || !node.kind().is_gate() {
                continue;
            }
            if node.fanins().iter().any(|f| dirty[f.index()]) {
                funcs[id.index()] = build_gate(manager, node.kind(), node.fanins(), &funcs);
                dirty[id.index()] = true;
            }
        }
        funcs
    }

    /// Boolean difference of `dom`'s function with respect to the value at
    /// `target`, where `dom` post-dominates `target` in the circuit DAG
    /// (every path from `target` to any output runs through `dom`).
    ///
    /// Splices `aux` in at `target` and rebuilds **only** the nodes inside
    /// the reconvergence region — the intersection of `target`'s fanout
    /// cone with `dom`'s fanin cone — then reads `∂f_dom/∂aux`. Because
    /// reconvergent fanout in real netlists is local, the region is
    /// typically a handful of gates, which makes this far cheaper than a
    /// full-cone splice ([`CircuitBdds::with_aux_at`], for nodes with no
    /// post-dominator short of the outputs). A node read by a single gate
    /// is the degenerate case: the region is that gate.
    ///
    /// This is the generalized chain-rule factor: if `dom` post-dominates
    /// `target`, then `∂y/∂target = region_difference(target, dom) ∧
    /// ∂y/∂dom` for every output `y`.
    ///
    /// # Panics
    ///
    /// Panics if `aux` collides with a primary-input variable or is out of
    /// range, or if `dom` does not come after `target` in topological
    /// order.
    #[must_use]
    pub fn region_difference(
        &self,
        manager: &mut BddManager,
        circuit: &Circuit,
        target: NodeId,
        dom: NodeId,
        aux: Var,
    ) -> BddRef {
        assert!(
            (aux as usize) < manager.var_count(),
            "auxiliary variable out of range"
        );
        assert!(target.index() < dom.index(), "dominator must follow target");
        // Fanin cone of `dom`, truncated at `target` (nothing below the
        // splice point can become dirty).
        let mut in_cone = vec![false; dom.index() + 1];
        in_cone[dom.index()] = true;
        let mut stack = vec![dom];
        while let Some(id) = stack.pop() {
            for &f in circuit.node(id).fanins() {
                if f.index() >= target.index() && !std::mem::replace(&mut in_cone[f.index()], true)
                {
                    stack.push(f);
                }
            }
        }
        let mut funcs = self.funcs.clone();
        let mut dirty = vec![false; dom.index() + 1];
        funcs[target.index()] = manager.var(aux);
        dirty[target.index()] = true;
        for idx in target.index() + 1..=dom.index() {
            if !in_cone[idx] {
                continue;
            }
            let id = NodeId::from_index(idx);
            let node = circuit.node(id);
            if node.kind().is_gate() && node.fanins().iter().any(|f| dirty[f.index()]) {
                funcs[idx] = build_gate(manager, node.kind(), node.fanins(), &funcs);
                dirty[idx] = true;
            }
        }
        manager.boolean_difference(funcs[dom.index()], aux)
    }
}

fn build_gate(
    manager: &mut BddManager,
    kind: GateKind,
    fanins: &[NodeId],
    funcs: &[BddRef],
) -> BddRef {
    let f = |i: usize| funcs[fanins[i].index()];
    match kind {
        GateKind::Input => unreachable!("inputs handled by caller"),
        GateKind::Const(v) => BddManager::constant(v),
        GateKind::Buf => f(0),
        GateKind::Not => manager.not(f(0)),
        GateKind::And => {
            let all = (0..fanins.len()).map(f).collect::<Vec<_>>();
            manager.and_all(all)
        }
        GateKind::Nand => {
            let all = (0..fanins.len()).map(f).collect::<Vec<_>>();
            let a = manager.and_all(all);
            manager.not(a)
        }
        GateKind::Or => {
            let all = (0..fanins.len()).map(f).collect::<Vec<_>>();
            manager.or_all(all)
        }
        GateKind::Nor => {
            let all = (0..fanins.len()).map(f).collect::<Vec<_>>();
            let a = manager.or_all(all);
            manager.not(a)
        }
        GateKind::Xor => (0..fanins.len())
            .map(f)
            .collect::<Vec<_>>()
            .into_iter()
            .fold(BddRef::FALSE, |acc, g| manager.xor(acc, g)),
        GateKind::Xnor => {
            let x = (0..fanins.len())
                .map(f)
                .collect::<Vec<_>>()
                .into_iter()
                .fold(BddRef::FALSE, |acc, g| manager.xor(acc, g));
            manager.not(x)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(manager: &mut BddManager, circuit: &Circuit, order: &VarOrder) -> CircuitBdds {
        CircuitBdds::try_build(manager, circuit, order, usize::MAX, &mut || false).unwrap()
    }

    fn full_adder() -> Circuit {
        let mut c = Circuit::new("fa");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let cin = c.add_input("cin");
        let s1 = c.xor([a, b]);
        let sum = c.xor([s1, cin]);
        let c1 = c.and([a, b]);
        let c2 = c.and([s1, cin]);
        let cout = c.or([c1, c2]);
        c.add_output("sum", sum);
        c.add_output("cout", cout);
        c
    }

    #[test]
    fn build_stops_on_interrupt_and_on_the_budget() {
        let c = full_adder();
        let order = VarOrder::natural(&c);
        // Interrupt poll fires on the very first gate check.
        let mut m = BddManager::new(order.len());
        let err = CircuitBdds::try_build(&mut m, &c, &order, usize::MAX, &mut || true).unwrap_err();
        assert_eq!(err, BuildInterrupt::Interrupted);
        // The budget trips with its own error type.
        let mut m = BddManager::new(order.len());
        let err = CircuitBdds::try_build(&mut m, &c, &order, 0, &mut || false).unwrap_err();
        assert!(matches!(err, BuildInterrupt::Budget(_)), "{err:?}");
    }

    #[test]
    fn circuit_bdds_match_scalar_eval() {
        let c = full_adder();
        let order = VarOrder::natural(&c);
        let mut m = BddManager::new(order.len());
        let bdds = build(&mut m, &c, &order);
        for p in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|j| p >> j & 1 != 0).collect();
            let expect = c.eval(&bits);
            for (k, out) in c.outputs().iter().enumerate() {
                assert_eq!(
                    m.eval(bdds.func(out.node()), &bits),
                    expect[k],
                    "pattern {p:03b} output {k}"
                );
            }
        }
    }

    #[test]
    fn dfs_order_matches_semantics_too() {
        let c = full_adder();
        let order = VarOrder::dfs(&c);
        let mut m = BddManager::new(order.len());
        let bdds = build(&mut m, &c, &order);
        for p in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|j| p >> j & 1 != 0).collect();
            // Permute the assignment into variable space.
            let mut asg = vec![false; 3];
            for (pos, &bit) in bits.iter().enumerate() {
                asg[order.var_of_position(pos) as usize] = bit;
            }
            let expect = c.eval(&bits);
            for (k, out) in c.outputs().iter().enumerate() {
                assert_eq!(m.eval(bdds.func(out.node()), &asg), expect[k]);
            }
        }
    }

    #[test]
    fn signal_probabilities_from_bdds() {
        let c = full_adder();
        let order = VarOrder::natural(&c);
        let mut m = BddManager::new(order.len());
        let bdds = build(&mut m, &c, &order);
        // sum = a^b^cin has probability 1/2; cout = majority has 1/2.
        let sum = bdds.func(c.outputs()[0].node());
        let cout = bdds.func(c.outputs()[1].node());
        assert!((m.probability_uniform(sum) - 0.5).abs() < 1e-12);
        assert!((m.probability_uniform(cout) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aux_rebuild_gives_observability() {
        // y = (a & b) | c ; the AND gate is observable iff c = 0.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("c");
        let g = c.and([a, b]);
        let y = c.or([g, x]);
        c.add_output("y", y);
        let order = VarOrder::natural(&c);
        let mut m = BddManager::new(order.len() + 1);
        let bdds = build(&mut m, &c, &order);
        let aux = 3;
        let funcs = bdds.with_aux_at(&mut m, &c, g, aux);
        let oy = funcs[y.index()];
        let diff = m.boolean_difference(oy, aux);
        // observability predicate = !c, probability 1/2
        let nc = {
            let cv = m.var(2);
            m.not(cv)
        };
        assert_eq!(diff, nc);
        let probs = vec![0.5, 0.5, 0.5, 0.5];
        assert!((m.probability(diff, &probs) - 0.5).abs() < 1e-12);
        // nodes outside the cone are untouched
        assert_eq!(funcs[a.index()], bdds.func(a));
    }

    #[test]
    fn aux_rebuild_handles_multiple_outputs() {
        let c = full_adder();
        let order = VarOrder::natural(&c);
        let mut m = BddManager::new(order.len() + 1);
        let bdds = build(&mut m, &c, &order);
        let s1 = relogic_netlist::NodeId::from_index(3); // a ^ b
        let funcs = bdds.with_aux_at(&mut m, &c, s1, 3);
        // s1 feeds sum (xor: always observable) and c2->cout.
        let sum_f = funcs[c.outputs()[0].node().index()];
        let d = m.boolean_difference(sum_f, 3);
        assert_eq!(d, BddRef::TRUE);
    }

    #[test]
    fn permute_probs_places_positions() {
        let mut c = Circuit::new("t");
        let _a = c.add_input("a");
        let _b = c.add_input("b");
        let order = VarOrder { var_of: vec![1, 0] };
        let probs = order.permute_probs(&[0.25, 0.75], 3, 0.5);
        assert_eq!(probs, vec![0.75, 0.25, 0.5]);
    }

    #[test]
    fn constants_become_terminals() {
        let mut c = Circuit::new("t");
        let k1 = c.add_const(true);
        let a = c.add_input("a");
        let g = c.and([k1, a]);
        c.add_output("y", g);
        let order = VarOrder::natural(&c);
        let mut m = BddManager::new(order.len());
        let bdds = build(&mut m, &c, &order);
        assert_eq!(bdds.func(k1), BddRef::TRUE);
        assert_eq!(bdds.func(g), bdds.func(a));
    }
}
