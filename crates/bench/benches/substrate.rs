//! Criterion bench: the substrate layers — BDD construction/model counting
//! and netlist parsing — whose costs bound the exact backends.

use criterion::{criterion_group, criterion_main, Criterion};
use relogic_bdd::{BddManager, CircuitBdds, VarOrder};
use relogic_netlist::bench as bench_format;
use std::hint::black_box;

fn bench_bdd_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd_build");
    group.sample_size(10);
    for name in ["b9", "c499"] {
        let circuit = relogic_gen::suite::build(name).expect("suite circuit");
        group.bench_function(name, |b| {
            b.iter(|| {
                let order = VarOrder::dfs(&circuit);
                let mut m = BddManager::new(order.len());
                let bdds =
                    CircuitBdds::try_build(&mut m, &circuit, &order, usize::MAX, &mut || false)
                        .expect("unbounded build");
                black_box(bdds.func(circuit.outputs()[0].node()))
            });
        });
    }
    group.finish();
}

fn bench_bdd_probability(c: &mut Criterion) {
    let circuit = relogic_gen::suite::c499();
    let order = VarOrder::dfs(&circuit);
    let mut m = BddManager::new(order.len());
    let bdds = CircuitBdds::try_build(&mut m, &circuit, &order, usize::MAX, &mut || false)
        .expect("unbounded build");
    let probs = vec![0.5; order.len()];
    let roots: Vec<_> = circuit
        .outputs()
        .iter()
        .map(|o| bdds.func(o.node()))
        .collect();
    c.bench_function("bdd_probability_c499_outputs", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &r in &roots {
                acc += m.probability(r, &probs);
            }
            black_box(acc)
        });
    });
}

fn bench_parse(c: &mut Criterion) {
    let circuit = relogic_gen::suite::c1908();
    let text = bench_format::write(&circuit);
    c.bench_function("bench_format_parse_c1908", |b| {
        b.iter(|| black_box(bench_format::parse(black_box(&text)).expect("parses")));
    });
}

criterion_group!(benches, bench_bdd_build, bench_bdd_probability, bench_parse);
criterion_main!(benches);
