//! Criterion bench: Monte Carlo fault-injection throughput — the "Monte
//! Carlo" runtime column of Table 2 (per evaluation, scaled pattern count)
//! plus the raw packed-simulator and biased-bit kernels it is built from.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use relogic::GateEps;
use relogic_sim::{try_estimate, BiasedBits, MonteCarloConfig, PackedSim};
use std::hint::black_box;

fn bench_monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte_carlo_estimate");
    group.sample_size(10);
    for name in ["x2", "b9", "c499", "i10"] {
        let circuit = relogic_gen::suite::build(name).expect("suite circuit");
        let eps = GateEps::try_uniform(&circuit, 0.1).unwrap();
        let cfg = MonteCarloConfig {
            patterns: 1 << 14,
            ..MonteCarloConfig::default()
        };
        group.throughput(Throughput::Elements(1 << 14));
        group.bench_function(name, |b| {
            b.iter(|| black_box(try_estimate(&circuit, eps.as_slice(), &cfg).unwrap()));
        });
    }
    group.finish();
}

fn bench_packed_sim(c: &mut Criterion) {
    let circuit = relogic_gen::suite::i10();
    let mut sim = PackedSim::new(&circuit);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut group = c.benchmark_group("packed_sim_block");
    group.throughput(Throughput::Elements(64));
    group.bench_function("i10_propagate", |b| {
        b.iter(|| {
            sim.randomize_inputs(&mut rng);
            sim.propagate(&circuit);
            black_box(sim.words()[circuit.len() - 1])
        });
    });
    group.finish();
}

fn bench_biased_bits(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(5);
    let gen24 = BiasedBits::new(0.1, 24);
    let gen8 = BiasedBits::new(0.1, 8);
    let mut group = c.benchmark_group("biased_bits_word");
    group.throughput(Throughput::Elements(64));
    group.bench_function("resolution24", |b| {
        b.iter(|| black_box(gen24.next_word(&mut rng)));
    });
    group.bench_function("resolution8", |b| {
        b.iter(|| black_box(gen8.next_word(&mut rng)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_monte_carlo,
    bench_packed_sim,
    bench_biased_bits
);
criterion_main!(benches);
