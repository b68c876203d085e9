//! Criterion bench: Monte Carlo fault-injection throughput of the
//! deterministic parallel execution layer at 1/2/4/8 worker threads, on
//! the i10 analogue (the suite's largest circuit, c6288-class at 2643
//! gates) and on an ε-sweep of the single-pass engine.
//!
//! All thread counts compute the bit-identical estimate, so any spread
//! between the `threads/N` rows is pure execution-layer speedup.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use relogic::sweep::{sweep_single_pass, try_epsilon_grid};
use relogic::{Backend, GateEps, InputDistribution, SinglePassOptions, Weights};
use relogic_sim::{try_estimate, MonteCarloConfig};
use std::hint::black_box;

const PATTERNS: u64 = 1 << 15;

fn bench_mc_threads(c: &mut Criterion) {
    let circuit = relogic_gen::suite::i10();
    let eps = GateEps::try_uniform(&circuit, 0.1).unwrap();
    let mut group = c.benchmark_group("monte_carlo_threads");
    group.sample_size(10);
    group.throughput(Throughput::Elements(PATTERNS));
    for threads in [1usize, 2, 4, 8] {
        let cfg = MonteCarloConfig {
            patterns: PATTERNS,
            threads,
            ..MonteCarloConfig::default()
        };
        group.bench_function(format!("i10/threads{threads}"), |b| {
            b.iter(|| black_box(try_estimate(&circuit, eps.as_slice(), &cfg).unwrap()));
        });
    }
    group.finish();
}

fn bench_sweep_threads(c: &mut Criterion) {
    let circuit = relogic_gen::suite::build("c499").expect("suite circuit");
    let weights =
        Weights::try_compute(&circuit, &InputDistribution::Uniform, Backend::Bdd).unwrap();
    let grid = try_epsilon_grid(50, 0.0, 0.5).unwrap();
    let mut group = c.benchmark_group("sweep_threads");
    group.sample_size(10);
    group.throughput(Throughput::Elements(grid.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("c499x50/threads{threads}"), |b| {
            b.iter(|| {
                black_box(sweep_single_pass(
                    &circuit,
                    &weights,
                    SinglePassOptions::default(),
                    &grid,
                    threads,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mc_threads, bench_sweep_threads);
criterion_main!(benches);
