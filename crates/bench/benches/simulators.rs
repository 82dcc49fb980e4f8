//! Criterion benchmarks: the two simulator backends and the analytic
//! backend's outcome tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itqc_backend::XxPrepared;
use itqc_circuit::library;
use itqc_sim::{run, XxCircuit};
use std::f64::consts::FRAC_PI_2;

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_run");
    group.sample_size(10);
    for n in [8usize, 12, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let circuit = library::ghz(n);
            b.iter(|| std::hint::black_box(run(&circuit)));
        });
    }
    group.finish();
}

fn bench_xx_exact_fidelity(c: &mut Criterion) {
    // The Gray-code Ising sum for a full first-round class test.
    let mut group = c.benchmark_group("xx_class_fidelity");
    group.sample_size(10);
    for n in [8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut xx = XxCircuit::new(n);
            let class: Vec<usize> = (0..n).step_by(2).collect();
            for (i, &a) in class.iter().enumerate() {
                for &bq in &class[i + 1..] {
                    xx.add_xx(a, bq, 2.0 * FRAC_PI_2 * 0.98);
                }
            }
            b.iter(|| std::hint::black_box(xx.fidelity(0)));
        });
    }
    group.finish();
}

fn bench_xx_population_score(c: &mut Criterion) {
    // The closed-form marginal score is the scalable fast path.
    let mut group = c.benchmark_group("xx_population_score");
    for n in [32usize, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut xx = XxCircuit::new(n);
            let class: Vec<usize> = (0..n).step_by(2).collect();
            for (i, &a) in class.iter().enumerate() {
                for &bq in &class[i + 1..] {
                    xx.add_xx(a, bq, 2.0 * FRAC_PI_2 * 0.97);
                }
            }
            b.iter(|| std::hint::black_box(xx.min_qubit_agreement(0)));
        });
    }
    group.finish();
}

fn bench_xx_outcome_table(c: &mut Criterion) {
    // The joint 2^c outcome table of one c-qubit complete class: the
    // table build behind every fresh string-sampled test (c = 16 is a
    // 32-qubit first-round class). Each iteration prepares afresh, since
    // a preparation materializes its tables once.
    let mut group = c.benchmark_group("xx_outcome_table");
    group.sample_size(10);
    for size in [8usize, 12, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut xx = XxCircuit::new(2 * size);
            let class: Vec<usize> = (0..2 * size).step_by(2).collect();
            for (i, &a) in class.iter().enumerate() {
                for &bq in &class[i + 1..] {
                    xx.add_xx(a, bq, 2.0 * FRAC_PI_2 * 0.97);
                }
            }
            b.iter(|| {
                let prepared = XxPrepared::prepare(xx.clone()).expect("class tests prepare");
                std::hint::black_box(prepared.distributions().len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_statevector,
    bench_xx_exact_fidelity,
    bench_xx_population_score,
    bench_xx_outcome_table
);
criterion_main!(benches);
