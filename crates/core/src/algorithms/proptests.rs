//! Property tests for the sequence candidate generation — soundness and
//! completeness of `apriori-generate` (the anti-monotonicity backbone) —
//! and end-to-end mining equivalence of every counting strategy at every
//! thread count.

use proptest::prelude::*;

use super::candidate::{generate, IdSeq};
use crate::arena::CandidateArena;
use crate::{Algorithm, CountingStrategy, Database, MinSupport, Miner, MinerConfig, Parallelism};

/// Renders a mining run as `pattern:support` lines for equivalence pins.
fn mine_rendered(
    db: &Database,
    algorithm: Algorithm,
    strategy: CountingStrategy,
    threads: usize,
    min_count: u64,
) -> (Vec<String>, u64) {
    let config = MinerConfig::new(MinSupport::Count(min_count))
        .algorithm(algorithm)
        .counting(strategy)
        .parallelism(Parallelism::threads(threads));
    let result = Miner::new(config).mine(db);
    let rendered = result
        .patterns
        .iter()
        .map(|p| format!("{}:{}", p, p.support))
        .collect();
    (rendered, result.stats.gallop_skips)
}

fn arb_prev(k: usize) -> impl Strategy<Value = CandidateArena> {
    proptest::collection::btree_set(proptest::collection::vec(0u32..5, k), 1..=25)
        .prop_map(move |s| CandidateArena::from_rows(k, s.iter().map(|row| row.as_slice())))
}

/// All delete-one-element subsequences of `seq`.
fn delete_one(seq: &[u32]) -> Vec<IdSeq> {
    (0..seq.len())
        .map(|drop| {
            let mut sub = seq.to_vec();
            sub.remove(drop);
            sub
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn soundness_every_candidate_survives_its_own_prune(prev in arb_prev(2)) {
        for cand in generate(&prev).iter() {
            prop_assert_eq!(cand.len(), 3);
            for sub in delete_one(cand) {
                prop_assert!(
                    prev.binary_search(&sub).is_ok(),
                    "candidate {:?} emitted though subsequence {:?} is not in prev",
                    cand,
                    sub
                );
            }
        }
    }

    #[test]
    fn completeness_all_fully_supported_extensions_are_generated(prev in arb_prev(2)) {
        // Enumerate every 3-sequence over the alphabet; those whose
        // delete-one subsequences are all in prev MUST be generated.
        let out = generate(&prev);
        for a in 0u32..5 {
            for b in 0u32..5 {
                for c in 0u32..5 {
                    let cand = [a, b, c];
                    let supported = delete_one(&cand)
                        .into_iter()
                        .all(|s| prev.binary_search(&s).is_ok());
                    prop_assert_eq!(
                        out.binary_search(&cand).is_ok(),
                        supported,
                        "mismatch for {:?}",
                        cand
                    );
                }
            }
        }
    }

    #[test]
    fn output_sorted_and_unique(prev in arb_prev(3)) {
        prop_assert!(generate(&prev).is_sorted_unique());
    }

    #[test]
    fn k2_is_the_full_ordered_square(prev in arb_prev(1)) {
        let out = generate(&prev);
        prop_assert_eq!(
            out.num_candidates(),
            prev.num_candidates() * prev.num_candidates()
        );
    }
}

/// Generated raw databases: up to 8 customers, each with up to 6
/// transactions of 1–3 items over an 8-item alphabet.
fn arb_database() -> impl Strategy<Value = Database> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(1u32..=8, 1..4), 0..6),
        0..8,
    )
    .prop_map(|customers| {
        let mut rows = Vec::new();
        for (c, transactions) in customers.into_iter().enumerate() {
            for (t, items) in transactions.into_iter().enumerate() {
                rows.push((c as u64 + 1, t as i64, items));
            }
        }
        Database::from_rows(rows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole pin: every algorithm × every counting strategy
    /// (including Bitmap and Auto) × threads 1/2/4 produces the exact same
    /// maximal pattern set with the exact same supports.
    #[test]
    fn all_strategies_and_thread_counts_mine_identical_patterns(
        db in arb_database(),
        min_count in 1u64..4,
    ) {
        let mut baseline: Option<Vec<String>> = None;
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
                for threads in [1usize, 2, 4] {
                    let (rendered, _) = mine_rendered(&db, algorithm, strategy, threads, min_count);
                    if let Some(expected) = &baseline {
                        prop_assert_eq!(
                            &rendered, expected,
                            "{} / {} / {} threads", algorithm, strategy, threads
                        );
                    } else {
                        baseline = Some(rendered);
                    }
                }
            }
        }
    }
}

/// Fixture databases with one 129+-transaction customer (three-word bitmap
/// spans) and one 193+-transaction customer (four-word spans), exercising
/// the multi-word carry fix-up kernels end-to-end. Filler ids are
/// customer-disjoint (support 1, pruned at min-count 2); a short shared
/// pattern over ids 1–3 is spliced into both customers so a small frequent
/// set survives; and hot id 7 rides along in every other transaction of the
/// longer customer but only three of the shorter one — a skewed occurrence
/// list that forces the vertical strategy's galloping join against short
/// prefix lists.
fn arb_long_span_database() -> impl Strategy<Value = Database> {
    let filler_a = proptest::collection::vec(10u32..30, 129..=160);
    let filler_b = proptest::collection::vec(30u32..50, 193..=240);
    let shared = proptest::collection::vec(1u32..=3, 2..4);
    (filler_a, filler_b, shared).prop_map(|(fa, fb, shared)| {
        let splice = |filler: &[u32], hot_stride: usize| -> Vec<Vec<u32>> {
            let mut txns: Vec<Vec<u32>> = filler.iter().map(|&f| vec![f]).collect();
            for (k, &id) in shared.iter().enumerate() {
                let pos = (k + 1) * txns.len() / (shared.len() + 1);
                txns.insert(pos, vec![id]);
            }
            for t in (0..txns.len()).step_by(hot_stride) {
                txns[t].push(7);
            }
            txns
        };
        let mut rows = Vec::new();
        for (c, txns) in [
            splice(&fa, fa.len().div_ceil(3)), // three hot occurrences
            splice(&fb, 2),                    // hot in every other transaction
        ]
        .into_iter()
        .enumerate()
        {
            for (t, items) in txns.into_iter().enumerate() {
                rows.push((c as u64 + 1, t as i64, items));
            }
        }
        Database::from_rows(rows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Long-customer pin: three- and four-word bitmap frontiers and the
    /// galloping vertical join produce the exact same maximal patterns as
    /// every other strategy at every thread count — and the skewed hot-id
    /// lists actually took the galloping path.
    #[test]
    fn long_customers_mine_identically_across_all_strategies(
        db in arb_long_span_database(),
    ) {
        let mut gallop_skips = 0u64;
        for algorithm in [Algorithm::AprioriAll, Algorithm::DynamicSome { step: 2 }] {
            let mut baseline: Option<Vec<String>> = None;
            for strategy in [
                CountingStrategy::HashTree,
                CountingStrategy::Vertical,
                CountingStrategy::Bitmap,
                CountingStrategy::Auto,
            ] {
                for threads in [1usize, 2, 4] {
                    let (rendered, skips) = mine_rendered(&db, algorithm, strategy, threads, 2);
                    if matches!(strategy, CountingStrategy::Vertical) {
                        gallop_skips += skips;
                    }
                    if let Some(expected) = &baseline {
                        prop_assert_eq!(
                            &rendered, expected,
                            "{} / {} / {} threads", algorithm, strategy, threads
                        );
                    } else {
                        prop_assert!(
                            !rendered.is_empty(),
                            "the spliced shared pattern must survive min-count 2"
                        );
                        baseline = Some(rendered);
                    }
                }
            }
        }
        prop_assert!(
            gallop_skips > 0,
            "skewed hot-id occurrence lists must exercise the galloping join"
        );
    }
}
