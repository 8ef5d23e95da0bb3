//! Property tests for the parallel counting layer at the full-miner level:
//! mining with any thread count must be **bit-identical** to the serial
//! run — same patterns, same supports, same containment-test/join/S-step
//! counters — for every algorithm and every counting strategy.
//!
//! (The per-function equivalence of `count_supports` itself is pinned by
//! property tests inside `seqpat-core`; this file covers the end-to-end
//! plumbing through the litemset phase, the three algorithms, and the
//! backward pass.)

use proptest::prelude::*;
use seqpat::{Algorithm, CountingStrategy, Database, MinSupport, Miner, MinerConfig, Parallelism};

/// A small random transaction table (≤ 8 customers, ≤ 4 transactions each,
/// items from a 6-item universe). Empty databases are included.
fn arb_database() -> impl Strategy<Value = Database> {
    let transaction = proptest::collection::vec(0u32..6, 1..=3);
    let customer = proptest::collection::vec(transaction, 1..=4);
    proptest::collection::vec(customer, 0..=8).prop_map(|customers| {
        let mut rows = Vec::new();
        for (c, transactions) in customers.into_iter().enumerate() {
            for (t, items) in transactions.into_iter().enumerate() {
                rows.push((c as u64, t as i64, items));
            }
        }
        Database::from_rows(rows)
    })
}

fn render(patterns: &[seqpat::Pattern]) -> Vec<String> {
    patterns
        .iter()
        .map(|p| format!("{}:{}", p, p.support))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn mining_is_thread_count_invariant(
        db in arb_database(),
        minsup_pct in 20u32..=60,
    ) {
        let minsup = minsup_pct as f64 / 100.0;
        for algorithm in [
            Algorithm::AprioriAll,
            Algorithm::AprioriSome,
            Algorithm::DynamicSome { step: 2 },
        ] {
            for counting in [
                CountingStrategy::HashTree,
                CountingStrategy::Vertical,
                CountingStrategy::Bitmap,
                CountingStrategy::Auto,
            ] {
                let config = |parallelism| {
                    MinerConfig::new(MinSupport::Fraction(minsup))
                        .algorithm(algorithm)
                        .counting(counting)
                        .parallelism(parallelism)
                };
                let serial = Miner::new(config(Parallelism::Serial)).mine(&db);
                for threads in [2usize, 3, 7] {
                    let parallel =
                        Miner::new(config(Parallelism::threads(threads))).mine(&db);
                    prop_assert_eq!(
                        render(&parallel.patterns),
                        render(&serial.patterns),
                        "{} / {:?} with {} threads",
                        algorithm,
                        counting,
                        threads
                    );
                    prop_assert_eq!(
                        parallel.stats.containment_tests,
                        serial.stats.containment_tests,
                        "{} / {:?} with {} threads",
                        algorithm,
                        counting,
                        threads
                    );
                    prop_assert_eq!(
                        parallel.stats.join_ops,
                        serial.stats.join_ops,
                        "{} / {:?} with {} threads (joins)",
                        algorithm,
                        counting,
                        threads
                    );
                    prop_assert_eq!(
                        parallel.stats.sstep_ops,
                        serial.stats.sstep_ops,
                        "{} / {:?} with {} threads (sstep ops)",
                        algorithm,
                        counting,
                        threads
                    );
                    prop_assert_eq!(parallel.stats.threads_used, threads);
                }
            }
        }
    }
}

#[test]
fn single_customer_database_is_thread_count_invariant() {
    let db = Database::from_rows(vec![(1, 1, vec![1, 2]), (1, 2, vec![3])]);
    let serial =
        Miner::new(MinerConfig::new(MinSupport::Fraction(1.0)).parallelism(Parallelism::Serial))
            .mine(&db);
    for threads in [2usize, 8] {
        let parallel = Miner::new(
            MinerConfig::new(MinSupport::Fraction(1.0)).parallelism(Parallelism::threads(threads)),
        )
        .mine(&db);
        assert_eq!(render(&parallel.patterns), render(&serial.patterns));
        assert_eq!(
            parallel.stats.containment_tests,
            serial.stats.containment_tests
        );
    }
    assert!(!serial.patterns.is_empty());
}
