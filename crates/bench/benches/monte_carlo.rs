//! Criterion bench: Monte Carlo fault-injection throughput — the "Monte
//! Carlo" runtime column of Table 2 (per evaluation, scaled pattern count)
//! plus the tape block evaluator and the biased-bit kernel the sampled
//! passes are built from.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use relogic::GateEps;
use relogic_sim::{try_estimate, BiasedBits, CircuitTape, MonteCarloConfig};
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

fn bench_tape_block(c: &mut Criterion) {
    let circuit = relogic_gen::suite::i10();
    let tape = CircuitTape::compile(&circuit);
    let mut words = vec![0u64; tape.n_slots()];
    let mut rng = SmallRng::seed_from_u64(3);
    let out = tape.output_slots()[0] as usize;
    let mut group = c.benchmark_group("tape_eval_block");
    group.throughput(Throughput::Elements(64));
    group.bench_function("i10", |b| {
        b.iter(|| {
            for &slot in tape.input_slots() {
                words[slot as usize] = rng.next_u64();
            }
            tape.eval_block(&mut words, None);
            black_box(words[out])
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
    bench_tape_block,
    bench_biased_bits
);
criterion_main!(benches);
