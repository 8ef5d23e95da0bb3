//! Property tests for shard-boundary correctness: splitting the customer
//! rows at any shard size must never double-count (or drop) a customer at
//! a shard boundary — supports and patterns are identical to the
//! unsharded run, through both backends.

use std::path::PathBuf;

use proptest::prelude::*;
use seqpat_core::{CountingStrategy, Database, MinSupport, Miner, MinerConfig, MiningResult};
use seqpat_io::colstore::ColstoreDataset;
use seqpat_io::stream::build_colstore;

fn rendered(result: &MiningResult) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = result
        .patterns
        .iter()
        .map(|p| (p.sequence.to_string(), p.support))
        .collect();
    v.sort();
    v
}

fn tmp(tag: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("seqpat-prop-{}-{tag}.colstore", std::process::id()));
    p
}

/// Raw rows: up to 12 customers, small item alphabet so patterns repeat.
fn rows_strategy() -> impl Strategy<Value = Vec<(u64, i64, Vec<u32>)>> {
    proptest::collection::vec(
        (0u64..12, 0i64..6, proptest::collection::vec(1u32..9, 1..4)),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_mining_never_double_counts_boundary_customers(
        rows in rows_strategy(),
        shard in 1usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let db = Database::from_rows(rows);
        let min_count = 2u64.min(db.num_customers() as u64).max(1);
        // Cap pattern length identically on every side: a degenerate draw
        // (one customer, many transactions) would otherwise make every
        // subsequence frequent and explode the dev-profile runtime.
        let baseline = Miner::new(
            MinerConfig::new(MinSupport::Count(min_count)).max_length(4),
        )
        .mine(&db);
        let expected = rendered(&baseline);

        // Resident backend, sharded: every strategy must agree.
        for strategy in [
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
            CountingStrategy::Bitmap,
        ] {
            let sharded = Miner::new(
                MinerConfig::new(MinSupport::Count(min_count))
                    .max_length(4)
                    .counting(strategy)
                    .shard_customers(shard),
            )
            .mine(&db);
            prop_assert_eq!(
                rendered(&sharded),
                expected.clone(),
                "resident sharded run diverged: {:?} shard {}",
                strategy,
                shard
            );
            // Any support exceeding the customer count proves a boundary
            // row was counted in two shards.
            for p in &sharded.patterns {
                prop_assert!(p.support <= db.num_customers() as u64);
            }
        }

        // On-disk backend, sharded.
        let path = tmp(seed);
        build_colstore(
            || db.customers().iter().cloned(),
            min_count,
            &Default::default(),
            3,
            &path,
        )
        .unwrap();
        let store = ColstoreDataset::open(&path).unwrap();
        let disk = Miner::new(
            MinerConfig::new(MinSupport::Count(min_count))
                .max_length(4)
                .shard_customers(shard),
        )
        .mine_dataset(&store);
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(rendered(&disk), expected, "colstore sharded run diverged");
    }
}
