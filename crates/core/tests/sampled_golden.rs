//! Bit pins for the three quantities both backends compute: the
//! observability matrix, the consolidator's joint output-pair values and
//! the weight vectors.
//!
//! Each test hashes (FNV-1a over the `f64` bits) one result per backend,
//! the sampled one at Table 2's sampling setting (131072 patterns, seed
//! 0xBEEF) and the exact one with BDDs, and compares it with
//! `data/sampled_golden.txt` (exact lines carry a `-bdd` suffix on their
//! kind):
//!
//! * `sampled_observability_matches_golden_bits`: every per-output and
//!   any-output entry of the `ObservabilityMatrix`, sampled on b9 and
//!   c1908, exact on x2 and b9;
//! * `sampled_pair_values_match_golden_bits`: the joint output-error term
//!   of every b9 output pair, which reads the consolidator's joint value
//!   distribution of that pair (single pass with exact BDD weights at
//!   ε = 0.1, itself pinned by `single_pass_golden`), sampled and exact;
//! * `sampled_weights_match_golden_bits`: every weight vector and signal
//!   probability of the `Weights`, sampled on i10 and exact on b9.
//!
//! The input stream (one `SmallRng(seed)` word per input position and
//! block, through `BiasedBits` for biased inputs) fixes every sampled
//! count, so any change to the simulator that keeps its arithmetic shows
//! no bit difference here; the exact values are weighted model counts of
//! canonical BDDs under the DFS variable order, so they change only with
//! that order or the probability arithmetic. Rewrite the file only for an
//! intended change to the numbers:
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

/// The line kind for `backend`: exact results carry a `-bdd` suffix.
fn kind(name: &str, backend: Backend) -> String {
    match backend {
        Backend::Bdd => format!("{name}-bdd"),
        Backend::Simulation { .. } => name.to_owned(),
    }
}

fn observability_line(name: &str, backend: Backend) -> String {
    let c = relogic_gen::suite::build(name).expect("suite circuit");
    let m = ObservabilityMatrix::try_compute_threads_cancellable(
        &c,
        &InputDistribution::Uniform,
        backend,
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
    format!(
        "{} {name} {:016x}",
        kind("observability", backend),
        fnv(values)
    )
}

fn pair_line(backend: Backend) -> String {
    let c = relogic_gen::suite::b9();
    let w = Weights::try_compute(&c, &InputDistribution::Uniform, Backend::Bdd).unwrap();
    let r = SinglePass::try_new(&c, &w, SinglePassOptions::default())
        .unwrap()
        .try_run(&GateEps::try_uniform(&c, 0.1).unwrap())
        .unwrap();
    let cons = Consolidator::try_new(&c, &InputDistribution::Uniform, backend).unwrap();
    let m = c.output_count();
    let mut diag = Diagnostics::new();
    let joints: Vec<f64> = (0..m)
        .flat_map(|a| ((a + 1)..m).map(move |b| (a, b)))
        .map(|(a, b)| cons.try_joint_error(&r, a, b, &mut diag).unwrap())
        .collect();
    format!("{} b9 {:016x}", kind("pairs", backend), fnv(joints))
}

fn weights_line(name: &str, backend: Backend) -> String {
    let c = relogic_gen::suite::build(name).expect("suite circuit");
    let w = Weights::try_compute(&c, &InputDistribution::Uniform, backend).unwrap();
    let values = w
        .vectors()
        .iter()
        .flatten()
        .chain(w.signal_probs())
        .copied();
    format!("{} {name} {:016x}", kind("weights", backend), fnv(values))
}

fn assert_golden(line: &str) {
    let key: Vec<&str> = line.split(' ').take(2).collect();
    let want = GOLDEN
        .lines()
        .find(|l| l.split(' ').take(2).eq(key.iter().copied()))
        .unwrap_or_else(|| panic!("golden file has no `{}` line", key.join(" ")));
    assert_eq!(line, want, "sampled values differ from the golden bits");
}

const OBSERVABILITY_INPUTS: [(&str, Backend); 4] = [
    ("b9", TABLE2_SAMPLED),
    ("c1908", TABLE2_SAMPLED),
    ("x2", Backend::Bdd),
    ("b9", Backend::Bdd),
];
const PAIR_INPUTS: [Backend; 2] = [TABLE2_SAMPLED, Backend::Bdd];
const WEIGHT_INPUTS: [(&str, Backend); 2] = [("i10", TABLE2_SAMPLED), ("b9", Backend::Bdd)];

#[test]
fn sampled_observability_matches_golden_bits() {
    for (name, backend) in OBSERVABILITY_INPUTS {
        assert_golden(&observability_line(name, backend));
    }
}

#[test]
fn sampled_pair_values_match_golden_bits() {
    for backend in PAIR_INPUTS {
        assert_golden(&pair_line(backend));
    }
}

#[test]
fn sampled_weights_match_golden_bits() {
    for (name, backend) in WEIGHT_INPUTS {
        assert_golden(&weights_line(name, backend));
    }
}

/// Prints the golden file's lines; see the module docs for the command.
#[test]
#[ignore = "regenerates the golden data"]
fn print_golden_lines() {
    let lines = OBSERVABILITY_INPUTS
        .iter()
        .map(|&(name, backend)| observability_line(name, backend))
        .chain(PAIR_INPUTS.iter().map(|&backend| pair_line(backend)))
        .chain(
            WEIGHT_INPUTS
                .iter()
                .map(|&(name, backend)| weights_line(name, backend)),
        );
    for line in lines {
        println!("golden {line}");
    }
}
