//! End-to-end Criterion benchmarks: one per algorithm on a pinned synthetic
//! dataset, plus the counting-strategy ablation and PrefixSpan.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use seqpat_core::{Algorithm, CountingStrategy, Database, MinSupport, Miner, MinerConfig};
use seqpat_datagen::{generate, GenParams};
use seqpat_prefixspan::{prefixspan_maximal, PrefixSpanConfig};

fn pinned_db() -> Database {
    generate(
        &GenParams::paper_dataset("C10-T2.5-S4-I1.25")
            .expect("paper dataset")
            .customers(500),
        42,
    )
}

fn bench_algorithms(c: &mut Criterion) {
    let db = pinned_db();
    let mut group = c.benchmark_group("mine_500_customers");
    group.sample_size(10);
    for algorithm in [
        Algorithm::AprioriAll,
        Algorithm::AprioriSome,
        Algorithm::DynamicSome { step: 2 },
    ] {
        group.bench_with_input(
            BenchmarkId::new("algorithm", algorithm),
            &algorithm,
            |b, &alg| {
                let miner = Miner::new(MinerConfig::new(MinSupport::Fraction(0.01)).algorithm(alg));
                b.iter(|| miner.mine(black_box(&db)))
            },
        );
    }
    group.bench_function("prefixspan", |b| {
        b.iter(|| {
            prefixspan_maximal(
                black_box(&db),
                MinSupport::Fraction(0.01),
                &PrefixSpanConfig::default(),
            )
        })
    });
    group.finish();
}

fn bench_counting_strategies(c: &mut Criterion) {
    let db = pinned_db();
    let mut group = c.benchmark_group("counting_strategy");
    group.sample_size(10);
    for (name, strategy) in [
        ("hash_tree", CountingStrategy::HashTree),
        ("vertical", CountingStrategy::Vertical),
    ] {
        group.bench_function(name, |b| {
            let miner = Miner::new(MinerConfig::new(MinSupport::Fraction(0.01)).counting(strategy));
            b.iter(|| miner.mine(black_box(&db)))
        });
    }
    group.finish();
}

fn bench_minsup_sensitivity(c: &mut Criterion) {
    let db = pinned_db();
    let mut group = c.benchmark_group("minsup_sensitivity/apriori_all");
    group.sample_size(10);
    for minsup in [0.02, 0.01, 0.005] {
        group.bench_with_input(BenchmarkId::from_parameter(minsup), &minsup, |b, &ms| {
            let miner = Miner::new(MinerConfig::new(MinSupport::Fraction(ms)));
            b.iter(|| miner.mine(black_box(&db)))
        });
    }
    group.finish();
}

criterion_group!(
    mining,
    bench_algorithms,
    bench_counting_strategies,
    bench_minsup_sensitivity
);
criterion_main!(mining);
