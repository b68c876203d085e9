//! The [`Circuit`] container: an append-only, topologically ordered
//! gate-level netlist.
//!
//! Nodes can only reference fanins that already exist, so a `Circuit` is
//! *topologically sorted by construction* and can never contain a
//! combinational cycle. Analyses exploit this: iterating nodes in id order
//! always visits fanins before fanouts.

use crate::{GateKind, NetlistError, NodeId, OutputId};
use std::collections::HashMap;
use std::fmt;

/// A single node: a primary input, constant, or logic gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    kind: GateKind,
    fanins: Vec<NodeId>,
}

impl Node {
    /// The Boolean function this node computes.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The node's fanins, in positional order.
    #[must_use]
    pub fn fanins(&self) -> &[NodeId] {
        &self.fanins
    }

    /// Number of fanins.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.fanins.len()
    }
}

/// A primary-output slot: a name observing a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    name: String,
    node: NodeId,
}

impl Output {
    /// The output's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node this output observes.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }
}

/// An append-only gate-level combinational netlist.
///
/// # Examples
///
/// Build a 2-input multiplexer `y = (s & a) | (!s & b)` and evaluate it:
///
/// ```
/// use relogic_netlist::Circuit;
///
/// let mut c = Circuit::new("mux2");
/// let s = c.add_input("s");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let ns = c.not(s);
/// let t0 = c.and([s, a]);
/// let t1 = c.and([ns, b]);
/// let y = c.or([t0, t1]);
/// c.add_output("y", y);
///
/// assert_eq!(c.eval(&[true, true, false]), vec![true]); // s=1 selects a
/// assert_eq!(c.eval(&[false, true, false]), vec![false]); // s=0 selects b
/// ```
#[derive(Clone, Default)]
pub struct Circuit {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<Output>,
    node_names: Vec<Option<String>>,
    by_name: HashMap<String, NodeId>,
}

impl Circuit {
    /// Creates an empty circuit with the given model name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Circuit {
            name: name.into(),
            ..Circuit::default()
        }
    }

    /// The model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the model.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a primary input with the given name.
    ///
    /// # Panics
    ///
    /// Panics if the name is already bound; use [`Circuit::try_add_input`]
    /// to handle that case gracefully (parsers do).
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        self.try_add_input(name).expect("duplicate input name")
    }

    /// Adds a primary input, failing if the name is already bound.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if `name` is taken.
    pub fn try_add_input(&mut self, name: impl Into<String>) -> Result<NodeId, NetlistError> {
        let id = self.push_node(GateKind::Input, Vec::new());
        self.inputs.push(id);
        self.bind_name(id, name.into())?;
        Ok(id)
    }

    /// Adds a constant source node.
    pub fn add_const(&mut self, value: bool) -> NodeId {
        self.push_node(GateKind::Const(value), Vec::new())
    }

    /// Adds a gate of the given kind, validating arity and fanin existence.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Arity`] if the fanin count is not acceptable
    /// for `kind`, and [`NetlistError::DanglingFanin`] if a fanin id does not
    /// exist yet (fanins must be created before the gates that read them).
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        fanins: impl IntoIterator<Item = NodeId>,
    ) -> Result<NodeId, NetlistError> {
        let fanins: Vec<NodeId> = fanins.into_iter().collect();
        if kind.is_source() && !fanins.is_empty() || !kind.accepts_arity(fanins.len()) {
            return Err(NetlistError::Arity {
                kind,
                arity: fanins.len(),
            });
        }
        if kind.is_source() {
            return Err(NetlistError::Arity { kind, arity: 0 });
        }
        let next = NodeId::from_index(self.nodes.len());
        for &f in &fanins {
            if f.index() >= self.nodes.len() {
                return Err(NetlistError::DanglingFanin {
                    gate: next,
                    fanin: f,
                });
            }
        }
        Ok(self.push_node(kind, fanins))
    }

    /// Declares `node` as a primary output named `name`.
    ///
    /// Output names are not required to be unique against node names, but
    /// duplicate output names are rejected by [`Circuit::validate`].
    pub fn add_output(&mut self, name: impl Into<String>, node: NodeId) -> OutputId {
        assert!(
            node.index() < self.nodes.len(),
            "output references nonexistent node {node:?}"
        );
        let id = OutputId::from_index(self.outputs.len());
        self.outputs.push(Output {
            name: name.into(),
            node,
        });
        id
    }

    /// Re-points output slot `output` at a different node.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn set_output_node(&mut self, output: OutputId, node: NodeId) {
        assert!(node.index() < self.nodes.len());
        self.outputs[output.index()].node = node;
    }

    /// Binds `name` to `node` (for netlist interchange and debugging).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is bound to a
    /// different node.
    pub fn set_node_name(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
    ) -> Result<(), NetlistError> {
        self.bind_name(node, name.into())
    }

    fn bind_name(&mut self, node: NodeId, name: String) -> Result<(), NetlistError> {
        match self.by_name.get(&name) {
            Some(&existing) if existing != node => Err(NetlistError::DuplicateName { name }),
            _ => {
                self.by_name.insert(name.clone(), node);
                self.node_names[node.index()] = Some(name);
                Ok(())
            }
        }
    }

    fn push_node(&mut self, kind: GateKind, fanins: Vec<NodeId>) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node { kind, fanins });
        self.node_names.push(None);
        id
    }

    // Convenience gate constructors. These panic on arity violations, which
    // cannot occur when the argument lists are non-empty literals; parsers
    // and generic code should use `add_gate`.

    /// Adds an AND gate. Panics if `fanins` is empty.
    pub fn and(&mut self, fanins: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.add_gate(GateKind::And, fanins).expect("invalid and")
    }

    /// Adds a NAND gate. Panics if `fanins` is empty.
    pub fn nand(&mut self, fanins: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.add_gate(GateKind::Nand, fanins).expect("invalid nand")
    }

    /// Adds an OR gate. Panics if `fanins` is empty.
    pub fn or(&mut self, fanins: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.add_gate(GateKind::Or, fanins).expect("invalid or")
    }

    /// Adds a NOR gate. Panics if `fanins` is empty.
    pub fn nor(&mut self, fanins: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.add_gate(GateKind::Nor, fanins).expect("invalid nor")
    }

    /// Adds an XOR (odd parity) gate. Panics if `fanins` is empty.
    pub fn xor(&mut self, fanins: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.add_gate(GateKind::Xor, fanins).expect("invalid xor")
    }

    /// Adds an XNOR (even parity) gate. Panics if `fanins` is empty.
    pub fn xnor(&mut self, fanins: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.add_gate(GateKind::Xnor, fanins).expect("invalid xnor")
    }

    /// Adds an inverter.
    pub fn not(&mut self, fanin: NodeId) -> NodeId {
        self.add_gate(GateKind::Not, [fanin]).expect("invalid not")
    }

    /// Adds a buffer.
    pub fn buf(&mut self, fanin: NodeId) -> NodeId {
        self.add_gate(GateKind::Buf, [fanin]).expect("invalid buf")
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Total number of nodes (inputs + constants + gates).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the circuit has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of logic gates (nodes that are neither inputs nor constants).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_gate()).count()
    }

    /// The node behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this circuit.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterates over all node ids in topological (construction) order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterates `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeId, &Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Primary inputs in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Primary output slots in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The output slot behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this circuit.
    #[must_use]
    pub fn output(&self, id: OutputId) -> &Output {
        &self.outputs[id.index()]
    }

    /// The name bound to `node`, if any.
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.node_names[node.index()].as_deref()
    }

    /// Looks up a node by bound name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// A display name for `node`: the bound name if present, else `n<i>`.
    #[must_use]
    pub fn display_name(&self, node: NodeId) -> String {
        self.node_name(node)
            .map_or_else(|| node.to_string(), str::to_owned)
    }

    /// Position of `node` in the primary-input list, if it is an input.
    #[must_use]
    pub fn input_position(&self, node: NodeId) -> Option<usize> {
        self.inputs.iter().position(|&i| i == node)
    }

    // ------------------------------------------------------------------
    // Validation and evaluation
    // ------------------------------------------------------------------

    /// Checks structural invariants not already enforced by construction:
    /// every output observes an existing node and output names are unique.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut seen = HashMap::new();
        for out in &self.outputs {
            if out.node.index() >= self.nodes.len() {
                return Err(NetlistError::DanglingFanin {
                    gate: out.node,
                    fanin: out.node,
                });
            }
            if seen.insert(out.name.clone(), out.node).is_some() {
                return Err(NetlistError::DuplicateName {
                    name: out.name.clone(),
                });
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for &f in &node.fanins {
                if f.index() >= i {
                    return Err(NetlistError::Cycle {
                        node: NodeId::from_index(i),
                    });
                }
            }
        }
        Ok(())
    }

    /// Evaluates every node for one input assignment; element `i` of the
    /// result is the value of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len() != self.input_count()`.
    #[must_use]
    pub fn eval_all(&self, input_values: &[bool]) -> Vec<bool> {
        assert_eq!(
            input_values.len(),
            self.inputs.len(),
            "expected {} input values",
            self.inputs.len()
        );
        let mut values = vec![false; self.nodes.len()];
        let mut next_input = 0;
        let mut scratch = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node.kind {
                GateKind::Input => {
                    let v = input_values[next_input];
                    next_input += 1;
                    v
                }
                GateKind::Const(v) => v,
                kind => {
                    scratch.clear();
                    scratch.extend(node.fanins.iter().map(|f| values[f.index()]));
                    kind.eval(&scratch)
                }
            };
        }
        values
    }

    /// Evaluates the circuit for one input assignment, returning one value
    /// per primary output (in declaration order).
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len() != self.input_count()`.
    #[must_use]
    pub fn eval(&self, input_values: &[bool]) -> Vec<bool> {
        let values = self.eval_all(input_values);
        self.outputs
            .iter()
            .map(|o| values[o.node.index()])
            .collect()
    }
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Circuit")
            .field("name", &self.name)
            .field("nodes", &self.nodes.len())
            .field("inputs", &self.inputs.len())
            .field("gates", &self.gate_count())
            .field("outputs", &self.outputs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mux() -> Circuit {
        let mut c = Circuit::new("mux2");
        let s = c.add_input("s");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let ns = c.not(s);
        let t0 = c.and([s, a]);
        let t1 = c.and([ns, b]);
        let y = c.or([t0, t1]);
        c.add_output("y", y);
        c
    }

    #[test]
    fn construction_and_access() {
        let c = mux();
        assert_eq!(c.len(), 7);
        assert_eq!(c.input_count(), 3);
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.output_count(), 1);
        assert_eq!(c.find("a"), Some(NodeId::from_index(1)));
        assert_eq!(c.node_name(NodeId::from_index(1)), Some("a"));
        assert_eq!(c.display_name(NodeId::from_index(4)), "n4");
        assert_eq!(c.input_position(NodeId::from_index(2)), Some(2));
        assert_eq!(c.input_position(NodeId::from_index(4)), None);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn eval_mux_truth_table() {
        let c = mux();
        for s in [false, true] {
            for a in [false, true] {
                for b in [false, true] {
                    let expect = if s { a } else { b };
                    assert_eq!(c.eval(&[s, a, b]), vec![expect], "s={s} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn duplicate_input_name_rejected() {
        let mut c = Circuit::new("t");
        c.add_input("x");
        assert!(matches!(
            c.try_add_input("x"),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn arity_violations_rejected() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        assert!(matches!(
            c.add_gate(GateKind::Not, [a, a]),
            Err(NetlistError::Arity { .. })
        ));
        assert!(matches!(
            c.add_gate(GateKind::And, []),
            Err(NetlistError::Arity { .. })
        ));
        assert!(matches!(
            c.add_gate(GateKind::Input, []),
            Err(NetlistError::Arity { .. })
        ));
    }

    #[test]
    fn dangling_fanin_rejected() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let ghost = NodeId::from_index(10);
        assert!(matches!(
            c.add_gate(GateKind::And, [a, ghost]),
            Err(NetlistError::DanglingFanin { .. })
        ));
    }

    #[test]
    fn outputs_can_share_and_repoint() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        let o1 = c.add_output("y1", g);
        let _o2 = c.add_output("y2", g);
        assert_eq!(c.eval(&[true, true]), vec![true, true]);
        c.set_output_node(o1, a);
        assert_eq!(c.eval(&[false, true]), vec![false, false]);
        assert_eq!(c.output(o1).name(), "y1");
    }

    #[test]
    fn duplicate_output_names_fail_validation() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        c.add_output("y", a);
        c.add_output("y", a);
        assert!(matches!(
            c.validate(),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn const_sources_evaluate() {
        let mut c = Circuit::new("t");
        let one = c.add_const(true);
        let zero = c.add_const(false);
        let g = c.and([one, zero]);
        c.add_output("y", g);
        c.add_output("k1", one);
        assert_eq!(c.eval(&[]), vec![false, true]);
    }

    #[test]
    fn eval_all_exposes_internal_nodes() {
        let c = mux();
        let vals = c.eval_all(&[true, true, false]);
        assert_eq!(vals.len(), 7);
        assert!(!vals[3]); // ns = !s
        assert!(vals[4]); // s & a
        assert!(!vals[5]); // ns & b
    }

    #[test]
    fn debug_is_nonempty_and_informative() {
        let c = mux();
        let s = format!("{c:?}");
        assert!(s.contains("mux2"));
        assert!(s.contains("gates"));
    }

    #[test]
    fn circuit_is_send_sync_clone() {
        fn assert_traits<T: Send + Sync + Clone>() {}
        assert_traits::<Circuit>();
    }
}
