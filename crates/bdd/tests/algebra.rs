//! Property tests: BDD operations obey Boolean algebra and agree with a
//! brute-force truth-table oracle on random expressions and random
//! circuits.

use proptest::prelude::*;
use relogic_bdd::{BddManager, BddRef, CircuitBdds, VarOrder};
use relogic_gen::RandomCircuitConfig;

const VARS: usize = 5;

/// A random Boolean expression over `VARS` variables.
#[derive(Clone, Debug)]
enum Expr {
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0..VARS).prop_map(Expr::Var);
    leaf.prop_recursive(5, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

fn build(m: &mut BddManager, e: &Expr) -> BddRef {
    match e {
        Expr::Var(v) => m.var(*v as u32),
        Expr::Not(a) => {
            let fa = build(m, a);
            m.not(fa)
        }
        Expr::And(a, b) => {
            let fa = build(m, a);
            let fb = build(m, b);
            m.and(fa, fb)
        }
        Expr::Or(a, b) => {
            let fa = build(m, a);
            let fb = build(m, b);
            m.or(fa, fb)
        }
        Expr::Xor(a, b) => {
            let fa = build(m, a);
            let fb = build(m, b);
            m.xor(fa, fb)
        }
    }
}

fn eval(e: &Expr, asg: &[bool]) -> bool {
    match e {
        Expr::Var(v) => asg[*v],
        Expr::Not(a) => !eval(a, asg),
        Expr::And(a, b) => eval(a, asg) && eval(b, asg),
        Expr::Or(a, b) => eval(a, asg) || eval(b, asg),
        Expr::Xor(a, b) => eval(a, asg) ^ eval(b, asg),
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..1usize << VARS).map(|v| (0..VARS).map(|j| v >> j & 1 != 0).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bdd_matches_truth_table(e in arb_expr()) {
        let mut m = BddManager::new(VARS);
        let f = build(&mut m, &e);
        for asg in assignments() {
            prop_assert_eq!(m.eval(f, &asg), eval(&e, &asg));
        }
    }

    #[test]
    fn equality_is_functional_equivalence(a in arb_expr(), b in arb_expr()) {
        let mut m = BddManager::new(VARS);
        let fa = build(&mut m, &a);
        let fb = build(&mut m, &b);
        let same_fn = assignments().all(|asg| eval(&a, &asg) == eval(&b, &asg));
        prop_assert_eq!(fa == fb, same_fn, "hash consing must be canonical");
    }

    #[test]
    fn shannon_expansion_holds(e in arb_expr(), v in 0..VARS) {
        let mut m = BddManager::new(VARS);
        let f = build(&mut m, &e);
        let v = v as u32;
        let f0 = m.restrict(f, v, false);
        let f1 = m.restrict(f, v, true);
        let x = m.var(v);
        let nx = m.not(x);
        let hi = m.and(x, f1);
        let lo = m.and(nx, f0);
        let rebuilt = m.or(hi, lo);
        prop_assert_eq!(rebuilt, f);
    }

    #[test]
    fn de_morgan_and_involution(a in arb_expr(), b in arb_expr()) {
        let mut m = BddManager::new(VARS);
        let fa = build(&mut m, &a);
        let fb = build(&mut m, &b);
        let and = m.and(fa, fb);
        let nand = m.not(and);
        let na = m.not(fa);
        let nb = m.not(fb);
        let or_of_nots = m.or(na, nb);
        prop_assert_eq!(nand, or_of_nots);
        prop_assert_eq!(m.not(nand), and);
    }

    #[test]
    fn probability_equals_model_fraction(e in arb_expr()) {
        let mut m = BddManager::new(VARS);
        let f = build(&mut m, &e);
        let models = assignments().filter(|asg| eval(&e, asg)).count();
        let expect = models as f64 / (1usize << VARS) as f64;
        prop_assert!((m.probability_uniform(f) - expect).abs() < 1e-12);
        prop_assert!((m.sat_count(f) - models as f64).abs() < 1e-9);
    }

    #[test]
    fn boolean_difference_marks_sensitivity(e in arb_expr(), v in 0..VARS) {
        let mut m = BddManager::new(VARS);
        let f = build(&mut m, &e);
        let diff = m.boolean_difference(f, v as u32);
        for asg in assignments() {
            let mut flipped = asg.clone();
            flipped[v] = !flipped[v];
            let sensitive = eval(&e, &asg) != eval(&e, &flipped);
            prop_assert_eq!(m.eval(diff, &asg), sensitive);
        }
    }
}

/// Inputs of the random circuits: few enough to enumerate.
const CIRCUIT_INPUTS: usize = 6;

/// A random circuit's node functions, built in the natural order (input
/// position `i` is variable `i`), and every node's truth table: bit `k`
/// is the node's value under the assignment whose bits are `k`'s.
fn random_circuit(seed: u64) -> (BddManager, Vec<BddRef>, Vec<u64>) {
    let circuit = relogic_gen::generate(&RandomCircuitConfig {
        inputs: CIRCUIT_INPUTS,
        gates: 28,
        outputs: 4,
        seed,
        xor_fraction: 0.3,
        ..RandomCircuitConfig::default()
    });
    let order = VarOrder::natural(&circuit);
    let mut m = BddManager::new(CIRCUIT_INPUTS);
    let bdds = CircuitBdds::try_build(&mut m, &circuit, &order, usize::MAX, &mut || false)
        .expect("unbudgeted build");
    let mut tables = vec![0u64; circuit.len()];
    for k in 0..1usize << CIRCUIT_INPUTS {
        let asg: Vec<bool> = (0..CIRCUIT_INPUTS).map(|j| k >> j & 1 != 0).collect();
        for (t, v) in tables.iter_mut().zip(circuit.eval_all(&asg)) {
            *t |= u64::from(v) << k;
        }
    }
    (m, bdds.funcs().to_vec(), tables)
}

/// The truth table of `f`, in [`random_circuit`]'s layout.
fn table(m: &BddManager, f: BddRef) -> u64 {
    (0..1usize << CIRCUIT_INPUTS).fold(0, |t, k| {
        let asg: Vec<bool> = (0..CIRCUIT_INPUTS).map(|j| k >> j & 1 != 0).collect();
        t | u64::from(m.eval(f, &asg)) << k
    })
}

/// The truth table of `t` with variable `v` fixed to `value`.
fn restrict_table(t: u64, v: usize, value: bool) -> u64 {
    (0..1usize << CIRCUIT_INPUTS).fold(0, |r, k| {
        let src = if value { k | 1 << v } else { k & !(1 << v) };
        r | (t >> src & 1) << k
    })
}

/// A drawn operand: node `pick` (modulo the node count), negated when
/// `negate` is set, with its truth table.
fn operand(
    m: &BddManager,
    nodes: &(Vec<BddRef>, Vec<u64>),
    pick: usize,
    negate: bool,
) -> (BddRef, u64) {
    let i = pick % nodes.0.len();
    if negate {
        (m.not(nodes.0[i]), !nodes.1[i])
    } else {
        (nodes.0[i], nodes.1[i])
    }
}

/// One step of the interleaving test: `And`, `Xor` or `Restrict` (by
/// `kind` modulo 3) on two drawn operands, or on the first one and a
/// drawn variable and value.
type Step = (u8, (usize, bool), (usize, bool), (usize, bool));

/// Runs `step` on `m`; returns the result and its expected truth table.
fn run_step(m: &mut BddManager, nodes: &(Vec<BddRef>, Vec<u64>), step: Step) -> (BddRef, u64) {
    let (kind, (pa, na), (pb, nb), (v, value)) = step;
    let (a, ta) = operand(m, nodes, pa, na);
    let (b, tb) = operand(m, nodes, pb, nb);
    match kind % 3 {
        0 => (m.and(a, b), ta & tb),
        1 => (m.xor(a, b), ta ^ tb),
        _ => {
            let v = v % CIRCUIT_INPUTS;
            (m.restrict(a, v as u32, value), restrict_table(ta, v, value))
        }
    }
}

/// A node pick and a polarity, or a variable pick and a value.
fn arb_pick() -> impl Strategy<Value = (usize, bool)> {
    (any::<usize>(), any::<bool>())
}

fn arb_step() -> impl Strategy<Value = Step> {
    (any::<u8>(), arb_pick(), arb_pick(), arb_pick())
}

/// Every AND and XOR of two input literals and every restriction of one:
/// the small refs whose keys lie closest together. (The generator adds
/// the inputs first, so node `i < CIRCUIT_INPUTS` is input `i`.)
fn literal_steps() -> Vec<Step> {
    let literals = || (0..CIRCUIT_INPUTS).flat_map(|i| [(i, false), (i, true)]);
    let mut steps = Vec::new();
    for a in literals() {
        for b in literals() {
            steps.push((0, a, b, (0, false)));
            steps.push((1, a, b, (0, false)));
        }
        for fix in literals() {
            steps.push((2, a, a, fix));
        }
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn apply_kernels_match_truth_tables_on_random_circuits(
        seed in any::<u64>(),
        pairs in proptest::collection::vec((arb_pick(), arb_pick()), 1..24),
    ) {
        let (mut m, funcs, tables) = random_circuit(seed);
        let nodes = (funcs, tables);
        for ((pa, na), (pb, nb)) in pairs {
            let (a, ta) = operand(&m, &nodes, pa, na);
            let (b, tb) = operand(&m, &nodes, pb, nb);
            let and = m.and(a, b);
            let or = m.or(a, b);
            let xor = m.xor(a, b);
            prop_assert_eq!(table(&m, and), ta & tb);
            prop_assert_eq!(table(&m, or), ta | tb);
            prop_assert_eq!(table(&m, xor), ta ^ tb);
            // Commuted operands meet the same sorted cache key.
            prop_assert_eq!(m.and(b, a), and);
            prop_assert_eq!(m.or(b, a), or);
            prop_assert_eq!(m.xor(b, a), xor);
            // The XOR kernel agrees with its AND/OR expansion.
            let (na_, nb_) = (m.not(a), m.not(b));
            let left = m.and(a, nb_);
            let right = m.and(na_, b);
            prop_assert_eq!(m.or(left, right), xor);
        }
    }
}

proptest! {
    // Each case runs a few hundred steps, each also on a fresh manager.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn interleaved_operations_match_fresh_managers(
        seed in any::<u64>(),
        steps in proptest::collection::vec(arb_step(), 1..32),
    ) {
        // AND, XOR and restriction share one op cache under disjoint key
        // tags: run interleaved on one manager, in an order drawn from the
        // seed, each step must give what it gives alone on a fresh manager.
        let (mut shared, funcs, tables) = random_circuit(seed);
        let nodes = (funcs, tables);
        let mut steps: Vec<(u64, Step)> = literal_steps()
            .into_iter()
            .chain(steps)
            .enumerate()
            .map(|(i, step)| ((i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15), step))
            .collect();
        steps.sort_unstable_by_key(|&(key, _)| key);
        let steps: Vec<Step> = steps.into_iter().map(|(_, step)| step).collect();
        let mut results = Vec::new();
        for &step in &steps {
            let (r, t) = run_step(&mut shared, &nodes, step);
            prop_assert_eq!(table(&shared, r), t);
            let (mut fresh, fresh_funcs, _) = random_circuit(seed);
            prop_assert_eq!(&fresh_funcs, &nodes.0);
            let (alone, _) = run_step(&mut fresh, &nodes, step);
            prop_assert_eq!(table(&fresh, alone), t);
            prop_assert_eq!(shared.size(r), fresh.size(alone));
            results.push(r);
        }
        // Every result node now exists, so a re-run, whatever the cache
        // holds, lands on the same refs.
        for (&step, &r) in steps.iter().zip(&results) {
            prop_assert_eq!(run_step(&mut shared, &nodes, step).0, r);
        }
    }
}
