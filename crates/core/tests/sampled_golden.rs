//! Bit pins for the three sampled quantities of the simulation backend.
//!
//! Each test hashes (FNV-1a over the `f64` bits) one sampled result at
//! Table 2's sampling setting (131072 patterns, seed 0xBEEF) and compares
//! it with `data/sampled_golden.txt`:
//!
//! * `sampled_observability_matches_golden_bits`: every per-output and
//!   any-output entry of the sampled `ObservabilityMatrix` on b9 and c1908;
//! * `sampled_pair_values_match_golden_bits`: the joint output-error term
//!   of every b9 output pair, which reads the consolidator's sampled joint
//!   value distribution of that pair (single pass with exact BDD weights at
//!   ε = 0.1, itself pinned by `single_pass_golden`);
//! * `sampled_weights_match_golden_bits`: every weight vector and signal
//!   probability of the sampled `Weights` on i10.
//!
//! The input stream (one `SmallRng(seed)` word per input position and
//! block, through `BiasedBits` for biased inputs) fixes every sampled
//! count, so any change to the simulator that keeps its arithmetic shows
//! no bit difference here. Rewrite the file only for an intended change
//! to the numbers:
//!
//! ```text
//! cargo test --release -p relogic --test sampled_golden -- --ignored --nocapture \
//!     | grep '^golden ' | cut -d' ' -f2- > crates/core/tests/data/sampled_golden.txt
//! ```

// Test-only code: the library's unwrap ban does not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use relogic::consolidate::Consolidator;
use relogic::{
    Backend, CancelToken, Diagnostics, GateEps, InputDistribution, ObservabilityMatrix, SinglePass,
    SinglePassOptions, Weights,
};

const GOLDEN: &str = include_str!("data/sampled_golden.txt");
const TABLE2_SAMPLED: Backend = Backend::Simulation {
    patterns: 131_072,
    seed: 0xBEEF,
};

/// FNV-1a over the little-endian bytes of every value's bits.
fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn observability_line(name: &str) -> String {
    let c = relogic_gen::suite::build(name).expect("suite circuit");
    let m = ObservabilityMatrix::try_compute_threads_cancellable(
        &c,
        &InputDistribution::Uniform,
        TABLE2_SAMPLED,
        1,
        &CancelToken::new(),
    )
    .unwrap();
    let values = m
        .per_output_rows()
        .iter()
        .flatten()
        .chain(m.any_output_values())
        .copied();
    format!("observability {name} {:016x}", fnv(values))
}

fn pair_line() -> String {
    let c = relogic_gen::suite::b9();
    let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
    let r = SinglePass::try_new(&c, &w, SinglePassOptions::default())
        .unwrap()
        .try_run(&GateEps::try_uniform(&c, 0.1).unwrap())
        .unwrap();
    let cons = Consolidator::try_new(&c, &InputDistribution::Uniform, TABLE2_SAMPLED).unwrap();
    let m = c.output_count();
    let mut diag = Diagnostics::new();
    let joints: Vec<f64> = (0..m)
        .flat_map(|a| ((a + 1)..m).map(move |b| (a, b)))
        .map(|(a, b)| cons.try_joint_error(&r, a, b, &mut diag).unwrap())
        .collect();
    format!("pairs b9 {:016x}", fnv(joints))
}

fn weights_line() -> String {
    let c = relogic_gen::suite::i10();
    let w = Weights::try_compute(&c, &InputDistribution::Uniform, TABLE2_SAMPLED).unwrap();
    let values = w
        .vectors()
        .iter()
        .flatten()
        .chain(w.signal_probs())
        .copied();
    format!("weights i10 {:016x}", fnv(values))
}

fn assert_golden(line: &str) {
    let key: Vec<&str> = line.split(' ').take(2).collect();
    let want = GOLDEN
        .lines()
        .find(|l| l.split(' ').take(2).eq(key.iter().copied()))
        .unwrap_or_else(|| panic!("golden file has no `{}` line", key.join(" ")));
    assert_eq!(line, want, "sampled values differ from the golden bits");
}

#[test]
fn sampled_observability_matches_golden_bits() {
    for name in ["b9", "c1908"] {
        assert_golden(&observability_line(name));
    }
}

#[test]
fn sampled_pair_values_match_golden_bits() {
    assert_golden(&pair_line());
}

#[test]
fn sampled_weights_match_golden_bits() {
    assert_golden(&weights_line());
}

/// Prints the golden file's lines; see the module docs for the command.
#[test]
#[ignore = "regenerates the golden data"]
fn print_golden_lines() {
    for line in [
        observability_line("b9"),
        observability_line("c1908"),
        pair_line(),
        weights_line(),
    ] {
        println!("golden {line}");
    }
}
