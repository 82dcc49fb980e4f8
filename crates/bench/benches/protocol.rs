//! Criterion benchmarks: protocol-side costs (test generation, diagnosis,
//! multi-fault decoding) as machine size grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itqc_circuit::Coupling;
use itqc_core::decoder::{
    covers_up_to, failing_set_of, minimal_covers, CoverModel, CoverPosterior, EvidenceRound,
};
use itqc_core::testplan::ScoreMode;
use itqc_core::threshold::contrast_threshold;
use itqc_core::{first_round_classes, ExactExecutor, LabelSpace, SingleFaultProtocol, TestSpec};
use std::collections::BTreeSet;

fn bench_single_fault_diagnosis(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_fault_diagnose");
    group.sample_size(10);
    for n in [8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let fault = Coupling::new(1, n - 2);
            b.iter(|| {
                let mut exec = ExactExecutor::new(n).with_fault(fault, 0.4);
                let protocol = SingleFaultProtocol::new(n, 4, 0.5, 1);
                std::hint::black_box(protocol.diagnose(&mut exec))
            });
        });
    }
    group.finish();
}

fn bench_test_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("testplan_generation");
    for n in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let space = LabelSpace::new(n);
            let couplings = space.all_couplings();
            b.iter(|| std::hint::black_box(TestSpec::for_couplings("bench", &couplings, 4)));
        });
    }
    group.finish();
}

fn bench_set_cover_decoder(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_cover_decoder");
    group.sample_size(10);
    for n in [8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let space = LabelSpace::new(n);
            let faults = vec![Coupling::new(0, 2), Coupling::new(1, n - 1)];
            let failing = failing_set_of(&faults, &space);
            let none = BTreeSet::new();
            b.iter(|| std::hint::black_box(minimal_covers(&failing, &space, &none, 3, 2)));
        });
    }
    group.finish();
}

/// One `CoverPosterior::rank` call on a fresh posterior: the covers of
/// a fixed 16-qubit, 3-fault failing set (up to 3 members, the ranked
/// policy's cap of 96), under the noiseless 4-MS class battery alone
/// (`rounds/1`) and with the 2-MS battery and its veto cut fused in
/// (`rounds/2`).
fn bench_ranked_decoder_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("ranked_decoder_rank");
    let (n, u) = (16usize, 0.30);
    let faults = [Coupling::new(0, 5), Coupling::new(3, 12), Coupling::new(7, 9)];
    let space = LabelSpace::new(n);
    let exec = ExactExecutor::new(n).with_faults(faults.iter().map(|&f| (f, u)));
    let none = BTreeSet::new();
    let battery = |reps: usize| -> Vec<_> {
        first_round_classes(&space)
            .into_iter()
            .map(|class| {
                let spec = TestSpec::for_couplings("rank", &class.couplings(&space, &none), reps);
                (class, exec.exact_score(&spec))
            })
            .collect()
    };
    let rounds = [
        EvidenceRound {
            observed: battery(4),
            model: CoverModel::new(4, ScoreMode::ExactTarget, 0.04),
            veto_threshold: None,
        },
        EvidenceRound {
            observed: battery(2),
            model: CoverModel::new(2, ScoreMode::ExactTarget, 0.04),
            veto_threshold: Some(contrast_threshold(u, 2)),
        },
    ];
    let failing = failing_set_of(&faults, &space);
    let covers = covers_up_to(&failing, &space, &none, 3, 96);
    for n_rounds in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("rounds", n_rounds), &n_rounds, |b, &n_rounds| {
            b.iter(|| {
                let mut posterior = CoverPosterior::new();
                for round in &rounds[..n_rounds] {
                    posterior.observe_round(round.clone());
                }
                std::hint::black_box(posterior.rank(&covers))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_fault_diagnosis,
    bench_test_generation,
    bench_set_cover_decoder,
    bench_ranked_decoder_rank
);
criterion_main!(benches);
