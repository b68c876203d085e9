//! Property tests: BDD operations obey Boolean algebra and agree with a
//! brute-force truth-table oracle on random expressions.

use proptest::prelude::*;
use relogic_bdd::{BddManager, BddRef};

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
        let rebuilt = m.ite(x, f1, f0);
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
