//! Backend equivalence: mining through the on-disk colstore must be
//! bit-identical to mining the resident database — same patterns, same
//! supports — for every counting strategy, parallelism level, shard size,
//! and algorithm.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use seqpat_core::{
    Algorithm, CountingStrategy, Database, Dataset, MinSupport, Miner, MinerConfig, MiningResult,
    Parallelism,
};
use seqpat_datagen::{generate, stream, GenParams};
use seqpat_io::colstore::{write_transformed, ColstoreDataset};
use seqpat_io::stream::{build_colstore, min_count_for};

fn small_params() -> GenParams {
    GenParams::default()
        .customers(40)
        .items(120)
        .corpus_size(25, 60)
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("seqpat-equiv-{}-{name}", std::process::id()));
    p
}

/// Sorted `(pattern, support)` rendering, the comparison key everywhere.
fn rendered(result: &MiningResult) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = result
        .patterns
        .iter()
        .map(|p| (p.sequence.to_string(), p.support))
        .collect();
    v.sort();
    v
}

/// Builds a colstore for `db` via the streaming pipeline and returns it
/// opened. The caller removes `path` when done.
fn streamed_store(db: &Database, minsup: f64, path: &PathBuf) -> ColstoreDataset {
    let min_count = min_count_for(db.num_customers() as u64, minsup);
    build_colstore(
        || db.customers().iter().cloned(),
        min_count,
        &Default::default(),
        16,
        path,
    )
    .unwrap();
    ColstoreDataset::open(path).unwrap()
}

#[test]
fn all_strategies_parallelism_and_shard_sizes_match_in_memory() {
    let db = generate(&small_params(), 42);
    // minsup 0.2 / max_length 2 keeps the 61-mine matrix fast under the
    // dev profile; the algorithm test below covers the k=3 passes.
    let minsup = 0.2;
    let path = tmp("matrix.colstore");
    let store = streamed_store(&db, minsup, &path);

    let baseline =
        Miner::new(MinerConfig::new(MinSupport::Fraction(minsup)).max_length(2)).mine(&db);
    let expected = rendered(&baseline);
    assert!(
        !expected.is_empty(),
        "degenerate fixture: no patterns to compare"
    );

    for strategy in [
        CountingStrategy::HashTree,
        CountingStrategy::Vertical,
        CountingStrategy::Bitmap,
        CountingStrategy::Auto,
    ] {
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(NonZeroUsize::new(3).unwrap()),
        ] {
            for shard in [Some(1), Some(7), None] {
                let mut config = MinerConfig::new(MinSupport::Fraction(minsup))
                    .max_length(2)
                    .counting(strategy)
                    .parallelism(parallelism);
                if let Some(s) = shard {
                    config = config.shard_customers(s);
                }
                let miner = Miner::new(config);
                let mem = miner.mine(&db);
                let disk = miner.mine_dataset(&store);
                assert_eq!(
                    rendered(&mem),
                    expected,
                    "mem backend diverged: {strategy:?} {parallelism:?} shard {shard:?}"
                );
                assert_eq!(
                    rendered(&disk),
                    expected,
                    "colstore backend diverged: {strategy:?} {parallelism:?} shard {shard:?}"
                );
                assert_eq!(disk.min_support_count, baseline.min_support_count);
                assert_eq!(disk.num_customers, baseline.num_customers);
                if shard.is_some() {
                    assert!(
                        disk.stats.shards_processed > 0,
                        "sharded colstore run recorded no shards"
                    );
                }
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn every_algorithm_matches_across_backends_when_sharded() {
    let db = generate(&small_params(), 7);
    let minsup = 0.2;
    let path = tmp("algos.colstore");
    let store = streamed_store(&db, minsup, &path);

    for algorithm in [
        Algorithm::AprioriAll,
        Algorithm::AprioriSome,
        Algorithm::DynamicSome { step: 2 },
    ] {
        for strategy in [
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
            CountingStrategy::Bitmap,
            CountingStrategy::Auto,
        ] {
            let miner = Miner::new(
                MinerConfig::new(MinSupport::Fraction(minsup))
                    .max_length(3)
                    .algorithm(algorithm)
                    .counting(strategy)
                    .shard_customers(7),
            );
            let mem = miner.mine(&db);
            let disk = miner.mine_dataset(&store);
            assert_eq!(
                rendered(&mem),
                rendered(&disk),
                "{algorithm:?} {strategy:?} diverged across backends"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn streamed_build_equals_conversion_of_in_memory_transform() {
    // Two roads to the same file: stream-build from raw customers, or
    // convert the in-memory transformed database. Both must open to
    // byte-equal tables and rows.
    let db = generate(&small_params().customers(30), 99);
    let minsup = 0.1;
    let stream_path = tmp("two-roads-stream.colstore");
    let convert_path = tmp("two-roads-convert.colstore");
    let streamed = streamed_store(&db, minsup, &stream_path);

    // Rebuild the transformed database exactly as the miner does.
    let min_count = min_count_for(db.num_customers() as u64, minsup);
    let table = seqpat_core::phases::litemset::litemset_phase(&db, min_count, &Default::default());
    let tdb = seqpat_core::phases::transform::transform_phase(&db, table.table);
    write_transformed(&tdb, &convert_path).unwrap();
    let converted = ColstoreDataset::open(&convert_path).unwrap();

    assert_eq!(streamed.num_rows(), converted.num_rows());
    assert_eq!(streamed.total_customers(), converted.total_customers());
    assert_eq!(streamed.table().len(), converted.table().len());
    let a = std::fs::read(&stream_path).unwrap();
    let b = std::fs::read(&convert_path).unwrap();
    assert_eq!(a, b, "stream-built and converted stores differ on disk");
    std::fs::remove_file(&stream_path).unwrap();
    std::fs::remove_file(&convert_path).unwrap();
}

#[test]
fn datagen_stream_feeds_colstore_without_database() {
    // The out-of-core path end to end: customers are never collected into
    // a Database; every pass regenerates them from (params, seed).
    let params = small_params().customers(50);
    let minsup = 0.2;
    let path = tmp("datagen-stream.colstore");
    let min_count = min_count_for(50, minsup);
    let summary = build_colstore(
        || stream(&params, 1234),
        min_count,
        &Default::default(),
        8,
        &path,
    )
    .unwrap();
    assert_eq!(summary.total_customers, 50);

    let store = ColstoreDataset::open(&path).unwrap();
    let db = generate(&params, 1234);
    let miner = Miner::new(
        MinerConfig::new(MinSupport::Fraction(minsup))
            .max_length(3)
            .shard_customers(7),
    );
    assert_eq!(
        rendered(&miner.mine(&db)),
        rendered(&miner.mine_dataset(&store)),
        "stream-built store diverged from batch-generated database"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn peak_rss_stat_is_reported() {
    let db = generate(&small_params().customers(20), 3);
    let result = Miner::new(MinerConfig::new(MinSupport::Fraction(0.2)).max_length(2)).mine(&db);
    if cfg!(target_os = "linux") {
        assert!(result.stats.peak_rss_bytes > 0);
    }
}
