//! Compilation of a levelized [`Circuit`] into a flat instruction tape, and
//! the one bit-parallel evaluator every simulation pass runs on.
//!
//! [`CircuitTape`] lowers the circuit once into a structure-of-arrays form
//! the execution kernels can stream, instead of chasing `NodeId` pointers
//! through the node table for every pattern block:
//!
//! * **Slots** — every node gets a dense *slot* index; slots are ordered by
//!   `(level, NodeId)`, so a single forward pass over the slot axis visits
//!   nodes in topological order and every fanin slot precedes its reader.
//! * **Ops** — one contiguous `GateKind` array, one flattened fanin-slot
//!   array with CSR-style offsets. No per-node heap indirection remains at
//!   execution time.
//! * **Levels** — `level_starts` records where each level's slot range
//!   begins, so kernels that want to process level-by-level (the ε-grid
//!   sweep engine) can do so without re-deriving structure.
//!
//! [`CircuitTape::eval_group`] evaluates a slot-major `[[u64; W]]` group,
//! `W` 64-pattern words per slot, with optional per-slot XOR flip masks.
//! Monte Carlo runs it at `W = 2·DEFAULT_LANES` (clean and noisy blocks
//! side by side), the sampled passes at `W = DEFAULT_LANES` and the
//! exhaustive driver at `W = 1`. Its per-slot step, `eval_slot`, is the
//! crate's one gate rule.
//!
//! The tape is pure structure: it carries no ε values and no RNG state, so
//! one compiled tape serves every Monte Carlo configuration and every
//! sweep grid over the same netlist. That makes it the natural unit for
//! the serve artifact cache (see `projected_heap_bytes`).

use relogic_netlist::{Circuit, GateKind};

/// One gate over `W` lanes: `dst = op(rows[f₀], rows[f₁], …)` folded over
/// the fanin rows, complemented when `invert`. Every call site in
/// [`CircuitTape::eval_slot`] passes a constant `op` and `invert`, so the
/// gate kind is matched once per slot and each kind compiles to its own
/// loop over whole `W`-word rows.
#[inline(always)]
fn fold_rows<const W: usize>(
    dst: &mut [u64; W],
    rows: &[[u64; W]],
    fanins: &[u32],
    invert: bool,
    op: impl Fn(u64, u64) -> u64,
) {
    let mut acc = rows[fanins[0] as usize];
    for &f in &fanins[1..] {
        for (a, &x) in acc.iter_mut().zip(&rows[f as usize]) {
            *a = op(*a, x);
        }
    }
    for (d, a) in dst.iter_mut().zip(acc) {
        *d = if invert { !a } else { a };
    }
}

/// A circuit lowered to a flat, slot-indexed instruction tape.
///
/// # Examples
///
/// ```
/// use relogic_netlist::Circuit;
/// use relogic_sim::CircuitTape;
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let g = c.xor([a, b]);
/// c.add_output("y", g);
///
/// let tape = CircuitTape::compile(&c);
/// assert_eq!(tape.n_slots(), 3);
/// assert_eq!(tape.levels(), 2); // sources, then the XOR
/// ```
#[derive(Clone, Debug)]
pub struct CircuitTape {
    /// Slot of each node, indexed by `NodeId::index`.
    slot_of_node: Vec<u32>,
    /// Node index of each slot (the inverse permutation).
    node_of_slot: Vec<u32>,
    /// Op of each slot.
    kinds: Vec<GateKind>,
    /// CSR offsets into `fanin_slots`, length `n_slots + 1`.
    fanin_start: Vec<u32>,
    /// Flattened fanin slots; every entry is `<` the slot that reads it.
    fanin_slots: Vec<u32>,
    /// First slot of each level, length `levels + 1`.
    level_starts: Vec<u32>,
    /// Slot of each primary input, in input-position order.
    input_slots: Vec<u32>,
    /// Slot of each primary output, in declaration order.
    output_slots: Vec<u32>,
}

impl CircuitTape {
    /// Lowers `circuit` into a tape.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than `u32::MAX` nodes or fanin edges
    /// (far beyond any netlist this crate targets).
    #[must_use]
    pub fn compile(circuit: &Circuit) -> CircuitTape {
        let n = circuit.len();
        assert!(
            u32::try_from(n).is_ok(),
            "circuit has more than u32::MAX nodes"
        );
        let lv = relogic_netlist::structure::levels(circuit);
        let max_level = lv.iter().copied().max().unwrap_or(0);

        // Counting sort by level keeps slot order stable in NodeId within a
        // level, which makes the layout deterministic for a given netlist.
        let levels = max_level as usize + 1;
        let mut counts = vec![0u32; levels + 1];
        for &l in &lv {
            counts[l as usize + 1] += 1;
        }
        for i in 0..levels {
            counts[i + 1] += counts[i];
        }
        let level_starts = counts.clone();
        let mut slot_of_node = vec![0u32; n];
        let mut node_of_slot = vec![0u32; n];
        for (i, &l) in lv.iter().enumerate() {
            let slot = counts[l as usize];
            counts[l as usize] += 1;
            slot_of_node[i] = slot;
            node_of_slot[slot as usize] = i as u32;
        }

        let mut kinds = Vec::with_capacity(n);
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanin_slots = Vec::new();
        fanin_start.push(0);
        for &node_idx in &node_of_slot {
            let node = circuit.node(relogic_netlist::NodeId::from_index(node_idx as usize));
            kinds.push(node.kind());
            for f in node.fanins() {
                fanin_slots.push(slot_of_node[f.index()]);
            }
            assert!(
                u32::try_from(fanin_slots.len()).is_ok(),
                "circuit has more than u32::MAX fanin edges"
            );
            fanin_start.push(fanin_slots.len() as u32);
        }

        let input_slots = circuit
            .inputs()
            .iter()
            .map(|id| slot_of_node[id.index()])
            .collect();
        let output_slots = circuit
            .outputs()
            .iter()
            .map(|o| slot_of_node[o.node().index()])
            .collect();

        CircuitTape {
            slot_of_node,
            node_of_slot,
            kinds,
            fanin_start,
            fanin_slots,
            level_starts,
            input_slots,
            output_slots,
        }
    }

    /// Number of slots (= nodes in the source circuit).
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.kinds.len()
    }

    /// Number of levels (sources are level 0).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.level_starts.len() - 1
    }

    /// The slot holding node `i` (by `NodeId::index`).
    #[must_use]
    pub fn slot_of_node(&self, i: usize) -> usize {
        self.slot_of_node[i] as usize
    }

    /// The node index stored in `slot`.
    #[must_use]
    pub fn node_of_slot(&self, slot: usize) -> usize {
        self.node_of_slot[slot] as usize
    }

    /// The op executed by `slot`.
    #[must_use]
    pub fn kind(&self, slot: usize) -> GateKind {
        self.kinds[slot]
    }

    /// The fanin slots read by `slot` (all strictly less than `slot`).
    #[must_use]
    pub fn fanins(&self, slot: usize) -> &[u32] {
        &self.fanin_slots[self.fanin_start[slot] as usize..self.fanin_start[slot + 1] as usize]
    }

    /// First slot of each level, with a final sentinel equal to
    /// [`CircuitTape::n_slots`].
    #[must_use]
    pub fn level_starts(&self) -> &[u32] {
        &self.level_starts
    }

    /// Slot of each primary input, in input-position order.
    #[must_use]
    pub fn input_slots(&self) -> &[u32] {
        &self.input_slots
    }

    /// Slot of each primary output, in declaration order.
    #[must_use]
    pub fn output_slots(&self) -> &[u32] {
        &self.output_slots
    }

    /// Evaluates every gate slot of a slot-major group: `words[slot]`
    /// holds the slot's `W` 64-pattern words, lane `l` its `l`-th block.
    /// Input slots must already hold their input words; every other slot
    /// is overwritten. With `flips`, each slot's words are XOR-ed with
    /// `flips[slot]` right after they are computed (inputs included), so
    /// every reader sees the flipped value: Bernoulli(ε) masks are the von
    /// Neumann gate-noise model, all-ones masks deterministic fault
    /// injection.
    ///
    /// # Panics
    ///
    /// Panics if `words` or `flips` holds fewer rows than there are slots.
    pub fn eval_group<const W: usize>(&self, words: &mut [[u64; W]], flips: Option<&[[u64; W]]>) {
        for s in 0..self.n_slots() {
            self.eval_slot(s, words);
            if let Some(flips) = flips {
                for (w, &f) in words[s].iter_mut().zip(&flips[s]) {
                    *w ^= f;
                }
            }
        }
    }

    /// Computes gate `slot`'s `W` words from the rows of its fanins in
    /// the slot-major `words`; an input slot is left as it is. This is the
    /// crate's one gate rule: Monte Carlo, the sampled passes and the
    /// exhaustive driver all evaluate through it. The kind is matched once
    /// per slot, outside the lane loop.
    #[inline(always)]
    pub(crate) fn eval_slot<const W: usize>(&self, slot: usize, words: &mut [[u64; W]]) {
        let (rows, rest) = words.split_at_mut(slot);
        let dst = &mut rest[0];
        let fanins = self.fanins(slot);
        // A one-fanin AND is a buffer and a one-fanin NAND an inverter.
        match self.kinds[slot] {
            GateKind::Input => {}
            GateKind::Const(v) => *dst = [0u64.wrapping_sub(u64::from(v)); W],
            GateKind::Buf | GateKind::And => fold_rows(dst, rows, fanins, false, |a, b| a & b),
            GateKind::Not | GateKind::Nand => fold_rows(dst, rows, fanins, true, |a, b| a & b),
            GateKind::Or => fold_rows(dst, rows, fanins, false, |a, b| a | b),
            GateKind::Nor => fold_rows(dst, rows, fanins, true, |a, b| a | b),
            GateKind::Xor => fold_rows(dst, rows, fanins, false, |a, b| a ^ b),
            GateKind::Xnor => fold_rows(dst, rows, fanins, true, |a, b| a ^ b),
        }
    }

    /// Projected heap footprint of the tape compiled from `circuit`,
    /// computable without compiling. Used by the serve artifact cache to
    /// charge entries up front.
    #[must_use]
    pub fn projected_heap_bytes(circuit: &Circuit) -> usize {
        let n = circuit.len();
        let edges: usize = circuit.iter().map(|(_, node)| node.fanins().len()).sum();
        let lv = relogic_netlist::structure::levels(circuit);
        let levels = lv.iter().copied().max().unwrap_or(0) as usize + 1;
        // slot_of_node + node_of_slot + fanin_start + level_starts + edges
        // + I/O slot maps, all u32-sized, plus the op array.
        let index_words = 2 * n
            + (n + 1)
            + (levels + 1)
            + edges
            + circuit.input_count()
            + circuit.outputs().len();
        index_words * 4 + n * std::mem::size_of::<GateKind>()
    }

    /// Measured heap footprint of this tape (cross-checks the projection).
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        (self.slot_of_node.len()
            + self.node_of_slot.len()
            + self.fanin_start.len()
            + self.fanin_slots.len()
            + self.level_starts.len()
            + self.input_slots.len()
            + self.output_slots.len())
            * 4
            + self.kinds.len() * std::mem::size_of::<GateKind>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn slots_are_topologically_ordered() {
        let c = full_adder();
        let tape = CircuitTape::compile(&c);
        assert_eq!(tape.n_slots(), c.len());
        for slot in 0..tape.n_slots() {
            for &f in tape.fanins(slot) {
                assert!((f as usize) < slot, "fanin slot {f} >= reader {slot}");
            }
        }
    }

    #[test]
    fn slot_and_node_maps_are_inverse() {
        let c = full_adder();
        let tape = CircuitTape::compile(&c);
        for i in 0..c.len() {
            assert_eq!(tape.node_of_slot(tape.slot_of_node(i)), i);
        }
    }

    #[test]
    fn levels_group_contiguously() {
        let c = full_adder();
        let tape = CircuitTape::compile(&c);
        let starts = tape.level_starts();
        assert_eq!(starts[0], 0);
        assert_eq!(*starts.last().unwrap() as usize, tape.n_slots());
        // Sources fill level 0.
        assert_eq!(starts[1], 3);
        for w in starts.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn io_slots_match_circuit_declarations() {
        let c = full_adder();
        let tape = CircuitTape::compile(&c);
        assert_eq!(tape.input_slots().len(), 3);
        assert_eq!(tape.output_slots().len(), 2);
        for (pos, &id) in c.inputs().iter().enumerate() {
            assert_eq!(
                tape.input_slots()[pos] as usize,
                tape.slot_of_node(id.index())
            );
            assert_eq!(tape.kind(tape.input_slots()[pos] as usize), GateKind::Input);
        }
        for (k, o) in c.outputs().iter().enumerate() {
            assert_eq!(
                tape.output_slots()[k] as usize,
                tape.slot_of_node(o.node().index())
            );
        }
    }

    /// Words of `tape` for one block whose input words are `inputs` (in
    /// input-position order), evaluated at `W = 1`.
    fn block(tape: &CircuitTape, inputs: &[u64], flips: Option<&[u64]>) -> Vec<u64> {
        let mut words = vec![[0u64]; tape.n_slots()];
        for (&slot, &w) in tape.input_slots().iter().zip(inputs) {
            words[slot as usize] = [w];
        }
        let flips: Option<Vec<[u64; 1]>> = flips.map(|f| f.iter().map(|&w| [w]).collect());
        tape.eval_group(&mut words, flips.as_deref());
        words.as_flattened().to_vec()
    }

    #[test]
    fn eval_group_matches_scalar_on_random_patterns() {
        use rand::rngs::SmallRng;
        use rand::{RngCore, SeedableRng};
        let c = full_adder();
        let tape = CircuitTape::compile(&c);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut words = vec![[0u64; 4]; tape.n_slots()];
        for &s in tape.input_slots() {
            words[s as usize] = std::array::from_fn(|_| rng.next_u64());
        }
        tape.eval_group(&mut words, None);
        for pattern in 0..4 * 64 {
            let (word, lane) = (pattern / 64, pattern % 64);
            let bit = |s: usize| words[s][word] >> lane & 1 != 0;
            let inputs: Vec<bool> = tape
                .input_slots()
                .iter()
                .map(|&s| bit(s as usize))
                .collect();
            for (i, &v) in c.eval_all(&inputs).iter().enumerate() {
                assert_eq!(bit(tape.slot_of_node(i)), v, "pattern {pattern} node {i}");
            }
        }
    }

    #[test]
    fn deterministic_flip_injection() {
        // y = a AND b; flipping the AND output inverts y everywhere.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.and([a, b]);
        c.add_output("y", g);
        let tape = CircuitTape::compile(&c);
        let clean = block(&tape, &[0b1100, 0b1010], None);
        let mut flips = vec![0u64; tape.n_slots()];
        let gs = tape.slot_of_node(g.index());
        flips[gs] = u64::MAX;
        let faulty = block(&tape, &[0b1100, 0b1010], Some(&flips));
        assert_eq!(clean[gs] ^ faulty[gs], u64::MAX);
    }

    #[test]
    fn input_flips_propagate() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.not(a);
        c.add_output("y", g);
        let tape = CircuitTape::compile(&c);
        let mut flips = vec![0u64; tape.n_slots()];
        flips[tape.slot_of_node(a.index())] = 0b1;
        let words = block(&tape, &[0], Some(&flips));
        assert_eq!(words[tape.slot_of_node(g.index())] & 0b11, 0b10);
    }

    #[test]
    fn eval_slot_matches_scalar_eval() {
        // One gate of every kind over four inputs whose 16 combinations
        // fill the low 16 lanes.
        let mut c = Circuit::new("kinds");
        let x: Vec<_> = (0..4).map(|i| c.add_input(format!("x{i}"))).collect();
        let gates = [
            c.and(x.clone()),
            c.nand(x.clone()),
            c.or(x.clone()),
            c.nor(x.clone()),
            c.xor(x.clone()),
            c.xnor(x.clone()),
            c.not(x[1]),
            c.buf(x[2]),
            c.add_const(true),
            c.add_const(false),
        ];
        for (k, &g) in gates.iter().enumerate() {
            c.add_output(format!("y{k}"), g);
        }
        let tape = CircuitTape::compile(&c);
        let inputs: Vec<u64> = (0..4)
            .map(|j| {
                (0..16)
                    .filter(|combo| combo >> j & 1 != 0)
                    .map(|combo| 1 << combo)
                    .sum()
            })
            .collect();
        let words = block(&tape, &inputs, None);
        for combo in 0..16 {
            let bits: Vec<bool> = (0..4).map(|j| combo >> j & 1 != 0).collect();
            let expect = c.eval_all(&bits);
            for &g in &gates {
                assert_eq!(
                    words[tape.slot_of_node(g.index())] >> combo & 1 != 0,
                    expect[g.index()],
                    "{:?} combo {combo:04b}",
                    tape.kind(tape.slot_of_node(g.index()))
                );
            }
        }
    }

    #[test]
    fn projection_matches_measured_footprint() {
        let c = full_adder();
        let tape = CircuitTape::compile(&c);
        assert_eq!(
            CircuitTape::projected_heap_bytes(&c),
            tape.approx_heap_bytes()
        );
    }
}
