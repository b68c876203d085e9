//! Oracle for the live-node budget: enforced at node allocation, it trips
//! exactly where a check of the live count after every gate would, the
//! manager's peak never passes it, and a tripped manager stays canonical.
//!
//! The per-gate view comes from replaying the build gate by gate through
//! the manager's public operations and recording the live count after
//! each gate; the replay is checked to produce the very refs
//! [`CircuitBdds::try_build`] does, so its counts are the build's.

use relogic_bdd::{BddManager, BddRef, BuildInterrupt, CircuitBdds, VarOrder};
use relogic_gen::RandomCircuitConfig;
use relogic_netlist::{Circuit, GateKind};
use std::collections::BTreeSet;

/// Every node's function and the live count after each node, from an
/// unbudgeted gate-by-gate replay of the build.
fn replay(circuit: &Circuit, order: &VarOrder) -> (Vec<BddRef>, Vec<usize>) {
    let mut m = BddManager::new(order.len());
    let mut funcs: Vec<BddRef> = Vec::with_capacity(circuit.len());
    let mut counts = Vec::with_capacity(circuit.len());
    for (id, node) in circuit.iter() {
        let fanins: Vec<BddRef> = node.fanins().iter().map(|f| funcs[f.index()]).collect();
        let xor_all =
            |m: &mut BddManager| fanins.iter().fold(BddRef::FALSE, |acc, &g| m.xor(acc, g));
        let f = match node.kind() {
            GateKind::Input => {
                let pos = circuit.input_position(id).expect("input has a position");
                m.var(order.var_of_position(pos))
            }
            GateKind::Const(v) => BddManager::constant(v),
            GateKind::Buf => fanins[0],
            GateKind::Not => m.not(fanins[0]),
            GateKind::And => m.and_all(fanins.iter().copied()),
            GateKind::Nand => {
                let a = m.and_all(fanins.iter().copied());
                m.not(a)
            }
            GateKind::Or => m.or_all(fanins.iter().copied()),
            GateKind::Nor => {
                let o = m.or_all(fanins.iter().copied());
                m.not(o)
            }
            GateKind::Xor => xor_all(&mut m),
            GateKind::Xnor => {
                let x = xor_all(&mut m);
                m.not(x)
            }
        };
        funcs.push(f);
        counts.push(m.live_node_count());
    }
    (funcs, counts)
}

/// One budgeted build against the per-gate rule: it fits exactly when no
/// gate ends past `budget`, and otherwise trips at the first gate that
/// does, having completed the gates before it, with `budget` live nodes,
/// a peak no higher, a report of `budget + 1`, and a canonical manager.
/// Returns the gate it tripped at.
fn check_budget(
    name: &str,
    m: &mut BddManager,
    circuit: &Circuit,
    order: &VarOrder,
    (funcs, counts): (&[BddRef], &[usize]),
    budget: usize,
    check_canonical: bool,
) -> Option<usize> {
    let expected = counts.iter().position(|&c| c > budget);
    let mut gates_done = 0usize;
    let built = CircuitBdds::try_build(m, circuit, order, budget, &mut || {
        gates_done += 1;
        false
    });
    let peak = m.stats().peak_live_nodes;
    assert!(peak <= budget, "{name} budget {budget}: peak {peak}");
    match (built, expected) {
        (Ok(bdds), None) => assert_eq!(bdds.funcs(), funcs, "{name} budget {budget}"),
        (Err(BuildInterrupt::Budget(e)), Some(gate)) => {
            assert_eq!(
                gates_done, gate,
                "{name} budget {budget}: tripped at another gate"
            );
            assert_eq!((e.live_nodes, e.budget), (budget + 1, budget), "{name}");
            assert_eq!(m.live_node_count(), budget, "{name} budget {budget}");
            if check_canonical {
                m.check_canonical()
                    .unwrap_or_else(|err| panic!("{name} budget {budget}: {err}"));
            }
        }
        (got, want) => panic!(
            "{name} budget {budget}: the per-gate rule says {want:?}, the build gave {:?}",
            got.map(|_| ())
        ),
    }
    // Either way the manager is left without a limit.
    assert!(!m.limit_exceeded());
    expected
}

/// Checks every budget at, one below and one above each gate's
/// end-of-gate live count against the per-gate rule.
///
/// A fresh manager per budget would rebuild the circuit's prefix once per
/// budget, so the budgets run in ascending order on one manager: a build
/// that trips leaves exactly the nodes a fresh build holds at that point,
/// and the next build replays the finished gates from the unique table
/// and op cache. Fresh managers check one budget per `fresh_stride`, and
/// `check_canonical` runs after one trip per `fresh_stride` as well.
fn check_trips(name: &str, circuit: &Circuit, fresh_stride: usize) {
    let order = VarOrder::dfs(circuit);
    let (funcs, counts) = replay(circuit, &order);
    let mut m = BddManager::new(order.len());
    let unbounded = CircuitBdds::try_build(&mut m, circuit, &order, usize::MAX, &mut || false)
        .expect("unbounded build");
    assert_eq!(unbounded.funcs(), &funcs[..], "{name}: replay diverged");
    assert_eq!(m.live_node_count(), *counts.last().expect("nodes"));

    let budgets: BTreeSet<usize> = counts
        .iter()
        .flat_map(|&c| [c.saturating_sub(1), c, c + 1])
        .collect();
    let mut reused = BddManager::new(order.len());
    let mut trip_gates = BTreeSet::new();
    for (k, &budget) in budgets.iter().enumerate() {
        let sampled = k % fresh_stride == 0;
        let run = (&funcs[..], &counts[..]);
        let gate = check_budget(name, &mut reused, circuit, &order, run, budget, sampled);
        trip_gates.insert(gate);
        if sampled {
            let mut fresh = BddManager::new(order.len());
            check_budget(name, &mut fresh, circuit, &order, run, budget, true);
        }
    }
    // Every gate that allocates is some budget's trip point.
    let allocating = (0..counts.len())
        .filter(|&g| counts[g] > if g == 0 { 0 } else { counts[g - 1] })
        .count();
    assert_eq!(
        trip_gates.len(),
        allocating + 1,
        "{name}: the fit counts too"
    );
}

#[test]
fn suite_circuits_trip_where_the_per_gate_rule_does() {
    for (name, fresh_stride) in [("x2", 1), ("cu", 1), ("b9", 7), ("c499", 97), ("c1355", 97)] {
        let circuit = relogic_gen::suite::build(name).expect("suite circuit");
        check_trips(name, &circuit, fresh_stride);
    }
}

#[test]
fn random_circuits_trip_where_the_per_gate_rule_does() {
    for seed in 1..=8 {
        let circuit = relogic_gen::generate(&RandomCircuitConfig {
            name: format!("random{seed}"),
            inputs: 10 + seed as usize,
            gates: 80,
            outputs: 6,
            seed,
            xor_fraction: 0.3,
            ..RandomCircuitConfig::default()
        });
        check_trips(&format!("random seed {seed}"), &circuit, 1);
    }
}

#[test]
fn a_tripped_manager_keeps_working_once_the_limit_is_lifted() {
    let circuit = relogic_gen::suite::build("b9").expect("suite circuit");
    let order = VarOrder::dfs(&circuit);
    let mut reference = BddManager::new(order.len());
    let full = CircuitBdds::try_build(&mut reference, &circuit, &order, usize::MAX, &mut || false)
        .expect("unbounded build");
    let half = reference.live_node_count() / 2;
    let mut m = BddManager::new(order.len());
    let err = CircuitBdds::try_build(&mut m, &circuit, &order, half, &mut || false)
        .expect_err("half the nodes cannot fit");
    assert!(matches!(err, BuildInterrupt::Budget(_)), "{err:?}");
    // The nodes and cache entries stored before the trip are valid: the
    // rebuild reuses them and ends with exactly the unbudgeted manager.
    let again = CircuitBdds::try_build(&mut m, &circuit, &order, usize::MAX, &mut || false)
        .expect("unbounded build");
    m.check_canonical().expect("canonical");
    assert_eq!(m.live_node_count(), reference.live_node_count());
    assert_eq!(again.funcs(), full.funcs());
}
