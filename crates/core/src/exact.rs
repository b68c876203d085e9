//! The exact model: one BDD build behind every exact quantity.
//!
//! The paper gets three quantities from BDDs: signal probabilities and
//! weight vectors (§4(i)), the joint output-pair distributions of the
//! §4.1 consolidation, and observabilities (§3). All three start from
//! [`ExactModel::try_build`]; weights and pair distributions then read
//! [`exact_joint_probs`], the exact twin of
//! [`relogic_sim::sample_joint_probs`], and the observability sweep
//! splices the auxiliary variable into the model's base functions.

use crate::{CancelToken, Cancelled, RelogicError};
use relogic_bdd::{BddManager, BddRef, BuildInterrupt, CircuitBdds, Var, VarOrder};
use relogic_netlist::{Circuit, NodeId};
use std::collections::HashMap;

/// A manager holding the base function of every node of a circuit, plus
/// what reading probabilities off it needs.
pub(crate) struct ExactModel {
    pub(crate) manager: BddManager,
    pub(crate) bdds: CircuitBdds,
    /// Input probabilities indexed by BDD variable.
    pub(crate) var_probs: Vec<f64>,
    /// The observability splice variable, pinned at the top of the order.
    pub(crate) aux: Var,
}

impl ExactModel {
    /// Builds every node's function under the DFS variable order, checking
    /// the live-node `budget` and `cancel` after every gate, and permutes
    /// `input_probs` (one probability per input position) into variable
    /// order.
    ///
    /// The manager has one variable beyond the inputs, the observability
    /// auxiliary, placed at the TOP of the order: spliced cones then cost
    /// one node per gate above the splice point, and the Boolean
    /// difference reads the root's two cofactors instead of dragging the
    /// auxiliary through every path of the diagram. No base function reads
    /// it, so their nodes, and the probabilities read off them, are those
    /// of a manager without it.
    ///
    /// The construction sequence is a pure function of the circuit, so a
    /// build that fits `budget` once fits it every time, on every thread.
    ///
    /// # Errors
    ///
    /// [`RelogicError::CircuitTooLarge`] if the inputs leave no variable
    /// for the auxiliary,
    /// [`RelogicError::BddBudgetExceeded`] once the live-node count passes
    /// `budget`, or [`RelogicError::Cancelled`] (site `bdd_gate`) once the
    /// token fires.
    pub(crate) fn try_build(
        circuit: &Circuit,
        input_probs: &[f64],
        budget: usize,
        cancel: &CancelToken,
    ) -> Result<Self, RelogicError> {
        let aux =
            Var::try_from(circuit.input_count()).map_err(|_| RelogicError::CircuitTooLarge {
                nodes: circuit.len(),
            })?;
        let order = VarOrder::dfs(circuit);
        let mut manager = BddManager::new(order.len() + 1);
        manager.place_var_at_top(aux);
        let mut poll = || cancel.is_cancelled();
        let bdds = CircuitBdds::try_build(&mut manager, circuit, &order, budget, &mut poll)
            .map_err(|e| match e {
                BuildInterrupt::Budget(b) => RelogicError::BddBudgetExceeded {
                    live_nodes: b.live_nodes,
                    budget: b.budget,
                },
                BuildInterrupt::Interrupted => RelogicError::Cancelled(Cancelled {
                    after: cancel.elapsed(),
                    checked_at: "bdd_gate",
                }),
            })?;
        let var_probs = order.permute_probs(input_probs, order.len() + 1, 0.5);
        Ok(ExactModel {
            manager,
            bdds,
            var_probs,
            aux,
        })
    }
}

/// Exact joint value distributions of node tuples, plus every node's
/// signal probability: the BDD twin of [`relogic_sim::sample_joint_probs`],
/// with the same layout.
///
/// `[t][combo]` is the probability that the nodes of `tuples[t]` take the
/// values encoded by `combo` (bit `j` = value of node `j` of the tuple),
/// the weighted model count of the conjunction of their literals; an
/// empty tuple gets an empty vector. The second half is `Pr(node = 1)`
/// for every node.
///
/// # Errors
///
/// [`RelogicError::CircuitTooLarge`] if the inputs leave no variable for
/// the model's auxiliary.
pub(crate) fn exact_joint_probs<T: AsRef<[NodeId]>>(
    circuit: &Circuit,
    input_probs: &[f64],
    tuples: &[T],
) -> Result<(Vec<Vec<f64>>, Vec<f64>), RelogicError> {
    let ExactModel {
        mut manager,
        bdds,
        var_probs,
        ..
    } = ExactModel::try_build(circuit, input_probs, usize::MAX, &CancelToken::new())?;
    let mut memo: HashMap<BddRef, f64> = HashMap::new();
    let signal_probs = bdds
        .funcs()
        .iter()
        .map(|&f| manager.probability_memo(f, &var_probs, &mut memo))
        .collect();
    let joint = tuples
        .iter()
        .map(|t| {
            let t = t.as_ref();
            let combos = if t.is_empty() { 0 } else { 1usize << t.len() };
            (0..combos)
                .map(|combo| {
                    let mut conj = BddRef::TRUE;
                    for (j, &node) in t.iter().enumerate() {
                        let f = bdds.func(node);
                        let lit = if combo >> j & 1 == 1 {
                            f
                        } else {
                            manager.not(f)
                        };
                        conj = manager.and(conj, lit);
                        if conj.is_false() {
                            break;
                        }
                    }
                    manager.probability_memo(conj, &var_probs, &mut memo)
                })
                .collect()
        })
        .collect();
    Ok((joint, signal_probs))
}
