//! The tentpole guarantee of the parallel execution layer: Monte Carlo
//! fault injection is **bit-identical for every thread count**. These
//! tests pin that guarantee on a multi-output circuit with reconvergent
//! fanout, exercising every tallied quantity — per-output error counts,
//! any-output consolidation, joint output pairs, and per-node conditional
//! error statistics — at pattern budgets both aligned and misaligned with
//! the chunk width.

use relogic_netlist::Circuit;
use relogic_sim::{
    try_estimate, try_estimate_tape, CancelToken, CircuitTape, MonteCarloConfig, CHUNK_BLOCKS,
};

/// A 3-output circuit with shared logic and reconvergent fanout, big
/// enough that every chunk tallies nonzero error counts at ε = 0.05.
fn circuit() -> Circuit {
    let mut c = Circuit::new("det");
    let inputs: Vec<_> = (0..6).map(|i| c.add_input(format!("x{i}"))).collect();
    let g0 = c.and([inputs[0], inputs[1]]);
    let g1 = c.or([inputs[2], inputs[3]]);
    let g2 = c.xor([inputs[4], inputs[5]]);
    let h0 = c.nand([g0, g1]);
    let h1 = c.nor([g1, g2]);
    let h2 = c.xor([g0, g2]);
    let y0 = c.or([h0, h1]);
    let y1 = c.and([h1, h2]);
    let y2 = c.xor([h0, h2]);
    c.add_output("y0", y0);
    c.add_output("y1", y1);
    c.add_output("y2", y2);
    c
}

fn uniform_eps(c: &Circuit, e: f64) -> Vec<f64> {
    c.iter()
        .map(|(_, n)| if n.kind().is_gate() { e } else { 0.0 })
        .collect()
}

fn config(patterns: u64, threads: usize) -> MonteCarloConfig {
    MonteCarloConfig {
        patterns,
        seed: 42,
        joint_pairs: vec![(0, 1), (0, 2), (1, 2)],
        track_nodes: true,
        threads,
        ..MonteCarloConfig::default()
    }
}

#[test]
fn estimate_is_bit_identical_at_1_2_and_7_threads() {
    let c = circuit();
    let eps = uniform_eps(&c, 0.05);
    // 20 000 patterns: rounds to 20 032, spanning 20 chunks with a ragged
    // final chunk — every merge path is exercised.
    let base = try_estimate(&c, &eps, &config(20_000, 1)).unwrap();
    assert!(base.per_output().iter().any(|&d| d > 0.0));
    for threads in [2, 7] {
        let parallel = try_estimate(&c, &eps, &config(20_000, threads)).unwrap();
        assert_eq!(base, parallel, "threads = {threads}");
    }
}

#[test]
fn joint_pairs_and_node_statistics_survive_the_parallel_merge_exactly() {
    let c = circuit();
    let eps = uniform_eps(&c, 0.08);
    let serial = try_estimate(&c, &eps, &config(30_000, 1)).unwrap();
    let parallel = try_estimate(&c, &eps, &config(30_000, 5)).unwrap();
    for &(a, b) in &[(0, 1), (0, 2), (1, 2)] {
        let s = serial.joint(a, b).expect("pair tracked");
        let p = parallel.joint(a, b).expect("pair tracked");
        assert_eq!(s.to_bits(), p.to_bits(), "joint ({a}, {b})");
    }
    let sn = serial.node_stats().expect("node stats tracked");
    let pn = parallel.node_stats().expect("node stats tracked");
    assert_eq!(sn, pn);
    for i in 0..c.len() {
        assert_eq!(sn.p01(i).to_bits(), pn.p01(i).to_bits(), "p01 of node {i}");
        assert_eq!(sn.p10(i).to_bits(), pn.p10(i).to_bits(), "p10 of node {i}");
    }
}

#[test]
fn budgets_misaligned_with_the_chunk_width_stay_deterministic() {
    let c = circuit();
    let eps = uniform_eps(&c, 0.1);
    // One pattern, exactly one chunk, chunk+1 patterns, and a prime budget.
    for patterns in [1, CHUNK_BLOCKS * 64, CHUNK_BLOCKS * 64 + 1, 7919] {
        let serial = try_estimate(&c, &eps, &config(patterns, 1)).unwrap();
        let parallel = try_estimate(&c, &eps, &config(patterns, 4)).unwrap();
        assert_eq!(serial, parallel, "patterns = {patterns}");
    }
}

#[test]
fn auto_detect_matches_explicit_thread_counts() {
    let c = circuit();
    let eps = uniform_eps(&c, 0.05);
    let auto = try_estimate(&c, &eps, &config(4096, 0)).unwrap();
    let one = try_estimate(&c, &eps, &config(4096, 1)).unwrap();
    assert_eq!(auto, one);
}

#[test]
fn different_seeds_give_different_streams() {
    let c = circuit();
    let eps = uniform_eps(&c, 0.1);
    let a = try_estimate(
        &c,
        &eps,
        &MonteCarloConfig {
            seed: 1,
            ..config(8192, 2)
        },
    )
    .unwrap();
    let b = try_estimate(
        &c,
        &eps,
        &MonteCarloConfig {
            seed: 2,
            ..config(8192, 2)
        },
    )
    .unwrap();
    assert_ne!(a, b, "distinct seeds must not collide");
}

#[test]
fn try_estimate_is_the_tape_kernel_bit_for_bit() {
    let c = circuit();
    let tape = CircuitTape::compile(&c);
    let eps = uniform_eps(&c, 0.05);
    for threads in [1, 2, 7] {
        let cfg = config(20_000, threads);
        let compiled_per_call = try_estimate(&c, &eps, &cfg).expect("valid run");
        let precompiled =
            try_estimate_tape(&c, &tape, &eps, &cfg, &CancelToken::new()).expect("valid run");
        assert_eq!(compiled_per_call, precompiled, "threads = {threads}");
    }
}
