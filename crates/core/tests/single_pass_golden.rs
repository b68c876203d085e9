//! Bit-identity and determinism pins for the correlated single pass (§4.1).
//!
//! 1. **Golden bits.** `suite_circuits_match_golden_bits` runs the default
//!    correlated engine on five suite circuits at the 11-point grid
//!    `epsilon_grid(11, 0.0, 0.5)` and compares, per grid point, every
//!    output's δ bits, an FNV-1a hash of every node's `p01`/`p10` bits, and
//!    the coefficient-saturation count against `data/single_pass_golden.txt`.
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
//!    frg2 is left out on purpose: the recording engine broke partner-cap
//!    ties in `HashMap` iteration order, and frg2 has such ties, so its
//!    values were not reproducible from one run to the next. The same
//!    happens once in the recorded set: c1355 at ε = 0.05 (`c1355 1`)
//!    gave saturation counts of 1886, 1887 or 1888 from run to run, with
//!    stable δ and node hash. The file holds 1886, the count under the
//!    ascending-id tie rule.
//! 2. **Determinism.** `correlated_pass_is_deterministic` runs 32 seeded
//!    random 200–400-gate circuits through two separately constructed
//!    engines; `p01`/`p10`, `per_output` and the diagnostics must agree
//!    bit for bit. Cap ties are broken by ascending partner id.

// Test-only code: the library's unwrap ban does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use relogic::sweep::epsilon_grid;
use relogic::{
    Backend, GateEps, InputDistribution, SinglePass, SinglePassOptions, SinglePassResult, Weights,
};
use relogic_gen::{generate, RandomCircuitConfig};
use relogic_netlist::Circuit;

const GOLDEN: &str = include_str!("data/single_pass_golden.txt");
const GOLDEN_CIRCUITS: [&str; 5] = ["x2", "cu", "b9", "c499", "c1355"];

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

/// One golden line per grid point:
/// `<circuit> <point> <coeff_saturations> <node hash> <δ bits per output…>`.
fn golden_lines(name: &str) -> Vec<String> {
    let c = relogic_gen::suite::build(name).expect("suite circuit");
    let w = Weights::compute(&c, &InputDistribution::Uniform, Backend::Bdd);
    let engine = SinglePass::new(&c, &w, SinglePassOptions::default());
    epsilon_grid(11, 0.0, 0.5)
        .into_iter()
        .enumerate()
        .map(|(point, e)| {
            let r = engine.run(&GateEps::uniform(&c, e));
            let mut line = format!(
                "{name} {point} {} {:016x}",
                r.diagnostics().coeff_saturations(),
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
    for name in GOLDEN_CIRCUITS {
        let expected: Vec<&str> = GOLDEN
            .lines()
            .filter(|l| l.split(' ').next() == Some(name))
            .collect();
        assert_eq!(
            expected.len(),
            11,
            "{name}: golden file has no 11-point record"
        );
        for (got, want) in golden_lines(name).iter().zip(expected) {
            assert_eq!(
                got, want,
                "{name}: single pass differs from the golden bits"
            );
        }
    }
}

/// Prints the golden file's lines; see the module docs for the command.
#[test]
#[ignore = "regenerates the golden data"]
fn print_golden_lines() {
    for name in GOLDEN_CIRCUITS {
        for line in golden_lines(name) {
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
        let w = Weights::compute(
            &c,
            &InputDistribution::Uniform,
            Backend::Simulation {
                patterns: 1 << 12,
                seed: 0xBEEF,
            },
        );
        for e in [0.05, 0.2, 0.4] {
            let eps = GateEps::uniform(&c, e);
            let a = SinglePass::new(&c, &w, SinglePassOptions::default()).run(&eps);
            let b = SinglePass::new(&c, &w, SinglePassOptions::default()).run(&eps);
            assert_bit_identical(&c, &a, &b, &format!("seed {seed}, ε={e}"));
        }
    }
}
