//! Pins the node-allocation sequence of the exact model's build.
//!
//! The manager's op cache is lossy: how large it is, and when it is
//! flushed, decides only which results are re-derived. A base build never
//! collects garbage, so a re-derivation finds every node it needs already
//! allocated, and the node indices, live counts, trip gates and functions
//! are the same for any cache schedule. These figures were recorded before
//! the op cache was halved and the unique table made to double in place; a
//! cache change that moved one of them would change results.
//!
//! Each build runs as `relogic::ExactModel::try_build` does: the DFS
//! order, plus the observability auxiliary pinned at the top.

use relogic_bdd::{BddManager, BuildInterrupt, CircuitBdds, Var, VarOrder};

/// Budget of the tripping builds: 2M / 16, so the tables stand to it as
/// they do to the estimate tier's 2M budget.
const TRIP_BUDGET: usize = 125_000;

/// FNV-1a over the rendered refs: a ref names its node index, so equal
/// hashes mean every function landed on the same nodes.
fn refs_hash(refs: &[relogic_bdd::BddRef]) -> u64 {
    refs.iter()
        .flat_map(|f| format!("{f:?};").into_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// Builds `name`'s analogue under `budget`; returns the manager, how many
/// nodes (inputs and gates, in node order) were completed, and the
/// build's outcome.
fn build(name: &str, budget: usize) -> (BddManager, usize, Result<CircuitBdds, BuildInterrupt>) {
    let circuit = relogic_gen::suite::build(name).expect("suite circuit");
    let order = VarOrder::dfs(&circuit);
    let mut m = BddManager::new(order.len() + 1);
    m.place_var_at_top(Var::try_from(circuit.input_count()).expect("aux fits"));
    let mut done = 0usize;
    let built = CircuitBdds::try_build(&mut m, &circuit, &order, budget, &mut || {
        done += 1;
        false
    });
    (m, done, built)
}

#[test]
fn trips_stop_after_the_recorded_nodes() {
    // (circuit, nodes completed before the trip)
    for (name, at) in [("c1908", 191), ("frg2", 418), ("c3540", 464), ("i10", 570)] {
        let (m, done, built) = build(name, TRIP_BUDGET);
        let Err(BuildInterrupt::Budget(e)) = built else {
            panic!("{name} should trip at {TRIP_BUDGET} live nodes");
        };
        assert_eq!(done, at, "{name}: tripped at another node");
        assert_eq!(e.live_nodes, TRIP_BUDGET + 1, "{name}");
        assert_eq!(m.live_node_count(), TRIP_BUDGET, "{name}");
        assert_eq!(
            m.node_count(),
            TRIP_BUDGET + 1,
            "{name}: terminal plus live"
        );
    }
}

#[test]
fn fitting_builds_end_on_the_recorded_nodes() {
    // (circuit, final live nodes, hash of every node's function)
    for (name, live, hash) in [
        ("b9", 16_692, 0x7a97_2a53_c3e9_9882),
        ("c499", 225_725, 0x748c_c9bc_b8ff_6271),
        ("c1355", 294_570, 0x2cfe_04e4_05d6_f364),
    ] {
        let (m, _, built) = build(name, usize::MAX);
        let bdds = built.expect("unbudgeted build");
        assert_eq!(m.live_node_count(), live, "{name}");
        assert_eq!(refs_hash(bdds.funcs()), hash, "{name}");
    }
}
