//! Criterion bench: single-pass reliability analysis runtime per circuit —
//! the "Single-pass analysis" runtime column of Table 2.
//!
//! Weight vectors are precomputed outside the measured region, exactly as
//! the paper amortizes them across a 50-run sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use relogic::{Backend, GateEps, InputDistribution, SinglePass, SinglePassOptions, Weights};
use std::hint::black_box;

fn bench_single_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_pass_run");
    group.sample_size(10);
    for name in ["x2", "b9", "c499", "i10"] {
        let circuit = relogic_gen::suite::build(name).expect("suite circuit");
        let backend = relogic_bench::backend_for(name);
        let weights = Weights::try_compute(&circuit, &InputDistribution::Uniform, backend).unwrap();
        let engine = SinglePass::try_new(&circuit, &weights, SinglePassOptions::default()).unwrap();
        let eps = GateEps::try_uniform(&circuit, 0.1).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(engine.try_run(black_box(&eps)).unwrap()));
        });
    }
    group.finish();
}

fn bench_single_pass_no_correlation(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_pass_plain");
    group.sample_size(10);
    for name in ["b9", "c499"] {
        let circuit = relogic_gen::suite::build(name).expect("suite circuit");
        let weights = Weights::try_compute(
            &circuit,
            &InputDistribution::Uniform,
            relogic_bench::backend_for(name),
        )
        .unwrap();
        let engine = SinglePass::try_new(
            &circuit,
            &weights,
            SinglePassOptions::without_correlations(),
        )
        .unwrap();
        let eps = GateEps::try_uniform(&circuit, 0.1).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(engine.try_run(black_box(&eps)).unwrap()));
        });
    }
    group.finish();
}

fn bench_weights(c: &mut Criterion) {
    let mut group = c.benchmark_group("weights_precompute");
    group.sample_size(10);
    let b9 = relogic_gen::suite::b9();
    group.bench_function("b9_bdd", |b| {
        b.iter(|| {
            black_box(Weights::try_compute(&b9, &InputDistribution::Uniform, Backend::Bdd).unwrap())
        });
    });
    let i10 = relogic_gen::suite::i10();
    group.bench_function("i10_sim", |b| {
        b.iter(|| {
            black_box(
                Weights::try_compute(
                    &i10,
                    &InputDistribution::Uniform,
                    Backend::Simulation {
                        patterns: 1 << 14,
                        seed: 1,
                    },
                )
                .unwrap(),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_pass,
    bench_single_pass_no_correlation,
    bench_weights
);
criterion_main!(benches);
