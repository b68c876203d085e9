//! Criterion bench: observability computation (the Fig. 1 engine) and the
//! closed-form evaluation (Eq. 3), in both BDD and fault-simulation
//! backends, plus the correlation-coefficient overhead of the single-pass
//! engine (the §4.1 machinery behind Figs. 5 and 8).

use criterion::{criterion_group, criterion_main, Criterion};
use relogic::{
    consolidate::Consolidator, Backend, Diagnostics, GateEps, InputDistribution,
    ObservabilityMatrix, SinglePass, SinglePassOptions, Weights,
};
use std::hint::black_box;

fn bench_observability(c: &mut Criterion) {
    let mut group = c.benchmark_group("observability_matrix");
    group.sample_size(10);
    let x2 = relogic_gen::suite::x2();
    group.bench_function("x2_bdd", |b| {
        b.iter(|| {
            black_box(ObservabilityMatrix::compute(
                &x2,
                &InputDistribution::Uniform,
                Backend::Bdd,
            ))
        });
    });
    group.bench_function("x2_sim", |b| {
        b.iter(|| {
            black_box(ObservabilityMatrix::compute(
                &x2,
                &InputDistribution::Uniform,
                Backend::Simulation {
                    patterns: 1 << 12,
                    seed: 2,
                },
            ))
        });
    });
    group.finish();
}

fn bench_closed_form(c: &mut Criterion) {
    let b9 = relogic_gen::suite::b9();
    let obs = ObservabilityMatrix::compute(&b9, &InputDistribution::Uniform, Backend::Bdd);
    let eps = GateEps::try_uniform(&b9, 0.1).unwrap();
    // The closed form is the cheap part: one product per output (Eq. 3) —
    // this is what makes it attractive for soft-error-rate sweeps.
    c.bench_function("closed_form_b9", |b| {
        b.iter(|| black_box(obs.closed_form(black_box(&eps))));
    });
}

fn bench_consolidation(c: &mut Criterion) {
    let mut group = c.benchmark_group("consolidation");
    group.sample_size(10);
    let b9 = relogic_gen::suite::b9();
    let backend = Backend::Simulation {
        patterns: 1 << 14,
        seed: 7,
    };
    let weights = Weights::try_compute(&b9, &InputDistribution::Uniform, backend).unwrap();
    let engine = SinglePass::try_new(&b9, &weights, SinglePassOptions::default()).unwrap();
    let result = engine
        .try_run(&GateEps::try_uniform(&b9, 0.1).unwrap())
        .unwrap();
    let cons = Consolidator::try_new(&b9, &InputDistribution::Uniform, backend).unwrap();
    group.bench_function("b9_any_output", |b| {
        b.iter(|| {
            black_box(
                cons.try_any_output_error(black_box(&result), &mut Diagnostics::new())
                    .unwrap(),
            )
        });
    });
    group.bench_function("b9_build_consolidator", |b| {
        b.iter(|| {
            black_box(Consolidator::try_new(&b9, &InputDistribution::Uniform, backend).unwrap())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_observability,
    bench_closed_form,
    bench_consolidation
);
criterion_main!(benches);
