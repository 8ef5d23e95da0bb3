//! Property tests: on arbitrary small databases, every algorithm —
//! AprioriAll, AprioriSome, DynamicSome (several steps), PrefixSpan, and
//! the brute-force oracle — produces exactly the same answer.

use proptest::prelude::*;
use seqpat::core::naive::{naive_all_large, naive_maximal, NaiveLimits};
use seqpat::prefixspan::{prefixspan, prefixspan_maximal, PrefixSpanConfig};
use seqpat::{Algorithm, CountingStrategy, Database, MinSupport, Miner, MinerConfig};

/// Strategy: a small random transaction table (≤ 7 customers, ≤ 4
/// transactions each, items from a 6-item universe).
fn arb_database() -> impl Strategy<Value = Database> {
    let transaction = proptest::collection::vec(0u32..6, 1..=3);
    let customer = proptest::collection::vec(transaction, 1..=4);
    proptest::collection::vec(customer, 1..=7).prop_map(|customers| {
        let mut rows = Vec::new();
        for (c, transactions) in customers.into_iter().enumerate() {
            for (t, items) in transactions.into_iter().enumerate() {
                rows.push((c as u64, t as i64, items));
            }
        }
        Database::from_rows(rows)
    })
}

fn render_maximal(patterns: &[seqpat::Pattern]) -> Vec<String> {
    let mut v: Vec<String> = patterns
        .iter()
        .map(|p| format!("{}:{}", p, p.support))
        .collect();
    v.sort();
    v
}

fn limits() -> NaiveLimits {
    NaiveLimits {
        max_itemset_size: 4,
        max_sequence_length: 6,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_algorithms_agree_with_the_oracle(db in arb_database(), min_count in 1u64..=3) {
        let oracle: Vec<String> = naive_maximal(&db, MinSupport::Count(min_count), limits())
            .into_iter()
            .map(|(s, sup)| format!("{s}:{sup}"))
            .collect();
        let mut oracle_sorted = oracle.clone();
        oracle_sorted.sort();

        for algorithm in [
            Algorithm::AprioriAll,
            Algorithm::AprioriSome,
            Algorithm::DynamicSome { step: 1 },
            Algorithm::DynamicSome { step: 2 },
            Algorithm::DynamicSome { step: 3 },
        ] {
            let result = Miner::new(
                MinerConfig::new(MinSupport::Count(min_count)).algorithm(algorithm),
            )
            .mine(&db);
            prop_assert_eq!(
                render_maximal(&result.patterns),
                oracle_sorted.clone(),
                "{} disagrees with the oracle on {:?}",
                algorithm,
                db
            );
        }

        let ps = prefixspan_maximal(
            &db,
            MinSupport::Count(min_count),
            &PrefixSpanConfig::default(),
        );
        prop_assert_eq!(render_maximal(&ps), oracle_sorted, "prefixspan disagrees");
    }

    #[test]
    fn apriori_all_full_set_matches_oracle_and_prefixspan(
        db in arb_database(),
        min_count in 1u64..=3,
    ) {
        // Cap lengths so the oracle's exponential enumeration stays small.
        let all_oracle: Vec<String> = naive_all_large(&db, MinSupport::Count(min_count), limits())
            .into_iter()
            .filter(|(s, _)| s.len() <= 6)
            .map(|(s, sup)| format!("{s}:{sup}"))
            .collect();

        let result = Miner::new(
            MinerConfig::new(MinSupport::Count(min_count))
                .include_non_maximal(true)
                .max_length(6),
        )
        .mine(&db);
        let got: Vec<String> = result
            .patterns
            .iter()
            .map(|p| format!("{}:{}", p, p.support))
            .collect();
        prop_assert_eq!(&got, &all_oracle, "apriori-all full set mismatch");

        let ps = prefixspan(
            &db,
            MinSupport::Count(min_count),
            &PrefixSpanConfig {
                max_length: Some(6),
                ..Default::default()
            },
        );
        let ps_strs: Vec<String> = ps
            .iter()
            .map(|p| format!("{}:{}", p, p.support))
            .collect();
        prop_assert_eq!(ps_strs, all_oracle, "prefixspan full set mismatch");
    }

    #[test]
    fn counting_strategies_agree(db in arb_database(), min_count in 1u64..=3) {
        // Every large sequence, not only the maximal ones, against the
        // brute-force oracle (customers hold at most 4 transactions, so the
        // length cap of 6 loses nothing).
        let mut oracle: Vec<String> = naive_all_large(&db, MinSupport::Count(min_count), limits())
            .into_iter()
            .map(|(s, sup)| format!("{s}:{sup}"))
            .collect();
        oracle.sort();
        for strategy in [
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
            CountingStrategy::Bitmap,
            CountingStrategy::Auto,
        ] {
            let result = Miner::new(
                MinerConfig::new(MinSupport::Count(min_count))
                    .include_non_maximal(true)
                    .counting(strategy),
            )
            .mine(&db);
            prop_assert_eq!(
                render_maximal(&result.patterns),
                oracle.clone(),
                "{} disagrees with the oracle",
                strategy
            );
        }
    }

    #[test]
    fn maximal_answer_is_an_antichain(db in arb_database(), min_count in 1u64..=3) {
        let result =
            Miner::new(MinerConfig::new(MinSupport::Count(min_count))).mine(&db);
        for (i, a) in result.patterns.iter().enumerate() {
            for (j, b) in result.patterns.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !a.sequence.is_contained_in(&b.sequence),
                        "{} ⊑ {} — answer is not maximal",
                        a,
                        b
                    );
                }
            }
        }
    }

    #[test]
    fn reported_supports_are_exact(db in arb_database(), min_count in 1u64..=3) {
        let result =
            Miner::new(MinerConfig::new(MinSupport::Count(min_count))).mine(&db);
        for pattern in &result.patterns {
            let recount = db
                .customers()
                .iter()
                .filter(|c| {
                    let view: Vec<seqpat::Itemset> = c.itemsets().cloned().collect();
                    seqpat::core::contain::sequence_contains(&view, pattern.sequence.elements())
                })
                .count() as u64;
            prop_assert_eq!(pattern.support, recount, "support of {} wrong", pattern);
            prop_assert!(pattern.support >= min_count);
        }
    }
}
