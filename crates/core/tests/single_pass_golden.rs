//! Bit-identity and determinism pins for the correlated single pass (§4.1).
//!
//! 1. **Golden bits.** `suite_circuits_match_golden_bits` runs the default
//!    correlated engine on six suite circuits at the 11-point grid
//!    `try_epsilon_grid(11, 0.0, 0.5)` and compares, per grid point, every
//!    output's δ bits, an FNV-1a hash of every node's `p01`/`p10` bits, the
//!    coefficient-saturation, probability-clamp and correlation-fallback
//!    counts and the bits of the worst excursion against
//!    `data/single_pass_golden.txt`. b9 and c499 also run at `partner_cap`
//!    `Some(1)` and `None` (lines `b9/cap1`, `b9/uncapped`, …), so the
//!    cap's selection and every clamp the kernel counts are pinned too.
//!    The file was recorded from the `HashMap`-based engine that preceded
//!    the flattened kernel (sorted partner lists, per-gate pair tables,
//!    compiled flip lists), so any change to the arithmetic or to its
//!    order shows up as a bit difference. Rewrite the file only for an
//!    intended change to the numbers:
//!
//!    ```text
//!    cargo test --release -p relogic --test single_pass_golden -- --ignored --nocapture \
//!        | grep '^golden ' | cut -d' ' -f2- > crates/core/tests/data/single_pass_golden.txt
//!    ```
//!
//!    Five circuits use exact BDD weights. frg2, the suite circuit whose
//!    partner-cap choices meet ties, uses Table 2's sampled weights
//!    (131072 patterns, seed 0xBEEF) and pins the ascending-id tie rule.
//!    Its lines were recorded later than the others, from the flattened
//!    kernel: the `HashMap` engine broke those ties in iteration order, so
//!    its frg2 values were not reproducible from one run to the next. They
//!    were re-recorded once more, with the engine unchanged, when sampled
//!    weights moved onto Monte Carlo's position-addressed input stream. The
//!    same happened once in the set it recorded: c1355 at ε = 0.05
//!    (`c1355 1`) gave saturation counts of 1886, 1887 or 1888 from run to
//!    run, with stable δ and node hash. The file holds 1886, the count
//!    under the ascending-id tie rule. The wider lines (the three extra
//!    diagnostics and the two cap settings) were added later, recorded from
//!    the scalar kernel that preceded the eight-lane one.
//! 2. **Determinism.** `correlated_pass_is_deterministic` runs 32 seeded
//!    random 200–400-gate circuits through two separately constructed
//!    engines; `p01`/`p10`, `per_output` and the diagnostics must agree
//!    bit for bit. Cap ties are broken by ascending partner id.

// Test-only code: the library's unwrap ban does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use relogic::sweep::try_epsilon_grid;
use relogic::{
    Backend, GateEps, InputDistribution, SinglePass, SinglePassOptions, SinglePassResult, Weights,
};
use relogic_gen::{generate, RandomCircuitConfig};
use relogic_netlist::Circuit;

const GOLDEN: &str = include_str!("data/single_pass_golden.txt");
const TABLE2_SAMPLED: Backend = Backend::Simulation {
    patterns: 131_072,
    seed: 0xBEEF,
};
const DEFAULT_CAP: Option<usize> = Some(64);
/// `(label, circuit, weights backend, partner cap)`.
const GOLDEN_RUNS: [(&str, &str, Backend, Option<usize>); 10] = [
    ("x2", "x2", Backend::Bdd, DEFAULT_CAP),
    ("cu", "cu", Backend::Bdd, DEFAULT_CAP),
    ("b9", "b9", Backend::Bdd, DEFAULT_CAP),
    ("c499", "c499", Backend::Bdd, DEFAULT_CAP),
    ("c1355", "c1355", Backend::Bdd, DEFAULT_CAP),
    ("frg2", "frg2", TABLE2_SAMPLED, DEFAULT_CAP),
    ("b9/cap1", "b9", Backend::Bdd, Some(1)),
    ("b9/uncapped", "b9", Backend::Bdd, None),
    ("c499/cap1", "c499", Backend::Bdd, Some(1)),
    ("c499/uncapped", "c499", Backend::Bdd, None),
];

/// FNV-1a over the bits of every node's `p01`, then every node's `p10`.
fn node_hash(c: &Circuit, r: &SinglePassResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let bits = c
        .node_ids()
        .map(|id| r.p01(id).to_bits())
        .chain(c.node_ids().map(|id| r.p10(id).to_bits()));
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One golden line per grid point: `<label> <point> <coeff_saturations>
/// <prob_clamps> <correlation_fallbacks> <worst excursion bits> <node hash>
/// <δ bits per output…>`.
fn golden_lines(
    label: &str,
    name: &str,
    backend: Backend,
    partner_cap: Option<usize>,
) -> Vec<String> {
    let c = relogic_gen::suite::build(name).expect("suite circuit");
    let w = Weights::try_compute(&c, &InputDistribution::Uniform, backend).unwrap();
    let options = SinglePassOptions {
        partner_cap,
        ..SinglePassOptions::default()
    };
    let engine = SinglePass::try_new(&c, &w, options).unwrap();
    try_epsilon_grid(11, 0.0, 0.5)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(point, e)| {
            let r = engine
                .try_run(&GateEps::try_uniform(&c, e).unwrap())
                .unwrap();
            let d = r.diagnostics();
            let mut line = format!(
                "{label} {point} {} {} {} {:016x} {:016x}",
                d.coeff_saturations(),
                d.prob_clamps(),
                d.correlation_fallbacks(),
                d.worst_excursion().to_bits(),
                node_hash(&c, &r)
            );
            for d in r.per_output() {
                line.push_str(&format!(" {:016x}", d.to_bits()));
            }
            line
        })
        .collect()
}

#[test]
fn suite_circuits_match_golden_bits() {
    for (label, name, backend, cap) in GOLDEN_RUNS {
        let expected: Vec<&str> = GOLDEN
            .lines()
            .filter(|l| l.split(' ').next() == Some(label))
            .collect();
        assert_eq!(
            expected.len(),
            11,
            "{label}: golden file has no 11-point record"
        );
        for (got, want) in golden_lines(label, name, backend, cap).iter().zip(expected) {
            assert_eq!(
                got, want,
                "{label}: single pass differs from the golden bits"
            );
        }
    }
}

/// Prints the golden file's lines; see the module docs for the command.
#[test]
#[ignore = "regenerates the golden data"]
fn print_golden_lines() {
    for (label, name, backend, cap) in GOLDEN_RUNS {
        for line in golden_lines(label, name, backend, cap) {
            println!("golden {line}");
        }
    }
}

fn assert_bit_identical(c: &Circuit, a: &SinglePassResult, b: &SinglePassResult, what: &str) {
    for id in c.node_ids() {
        assert_eq!(
            a.p01(id).to_bits(),
            b.p01(id).to_bits(),
            "{what}: p01({id})"
        );
        assert_eq!(
            a.p10(id).to_bits(),
            b.p10(id).to_bits(),
            "{what}: p10({id})"
        );
    }
    let bits =
        |r: &SinglePassResult| -> Vec<u64> { r.per_output().iter().map(|d| d.to_bits()).collect() };
    assert_eq!(bits(a), bits(b), "{what}: per_output");
    assert_eq!(a.diagnostics(), b.diagnostics(), "{what}: diagnostics");
}

#[test]
fn correlated_pass_is_deterministic() {
    for seed in 0..32u64 {
        let c = generate(&RandomCircuitConfig {
            name: format!("det{seed}"),
            inputs: 24,
            gates: 200 + 200 * usize::try_from(seed).unwrap() / 31,
            outputs: 12,
            seed,
            max_arity: 4,
            xor_fraction: 0.3,
            locality: 12,
            global_edge_fraction: 0.3,
        });
        let w = Weights::try_compute(
            &c,
            &InputDistribution::Uniform,
            Backend::Simulation {
                patterns: 1 << 12,
                seed: 0xBEEF,
            },
        )
        .unwrap();
        for e in [0.05, 0.2, 0.4] {
            let eps = GateEps::try_uniform(&c, e).unwrap();
            let a = SinglePass::try_new(&c, &w, SinglePassOptions::default())
                .unwrap()
                .try_run(&eps)
                .unwrap();
            let b = SinglePass::try_new(&c, &w, SinglePassOptions::default())
                .unwrap()
                .try_run(&eps)
                .unwrap();
            assert_bit_identical(&c, &a, &b, &format!("seed {seed}, ε={e}"));
        }
    }
}
