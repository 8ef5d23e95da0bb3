//! End-to-end equivalence of every counting strategy through all three
//! algorithms, on a fixture whose maximal pattern is long enough to force
//! passes ≥ 4 — the regime where the vertical strategy's pass-to-pass
//! occurrence-list cache and the bitmap strategy's S-step folds are
//! actually exercised (pass 2 goes through the shared pair-counting fast
//! path in every strategy, so short fixtures never reach either kernel).

use seqpat::{Algorithm, CountingStrategy, Database, MinSupport, Miner, MinerConfig, Parallelism};

/// Five customers share the 5-step sequence ⟨(1)(2)(3)(4)(5)⟩; two more
/// carry prefixes/noise so intermediate passes have candidates to prune.
fn long_pattern_db() -> Database {
    let mut rows = Vec::new();
    for customer in 1..=5u64 {
        for (t, item) in [1u32, 2, 3, 4, 5].into_iter().enumerate() {
            rows.push((customer, t as i64, vec![item]));
        }
    }
    rows.extend([
        (6, 1, vec![1]),
        (6, 2, vec![2]),
        (6, 3, vec![3]),
        (7, 1, vec![2]),
        (7, 2, vec![5]),
        (7, 3, vec![6]),
    ]);
    Database::from_rows(rows)
}

fn render(patterns: &[seqpat::Pattern]) -> Vec<String> {
    patterns
        .iter()
        .map(|p| format!("{}:{}", p, p.support))
        .collect()
}

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::AprioriAll,
    Algorithm::AprioriSome,
    Algorithm::DynamicSome { step: 2 },
];

const STRATEGIES: [CountingStrategy; 4] = [
    CountingStrategy::HashTree,
    CountingStrategy::Vertical,
    CountingStrategy::Bitmap,
    CountingStrategy::Auto,
];

#[test]
fn long_patterns_agree_across_strategies_and_threads() {
    let db = long_pattern_db();
    for algorithm in ALGORITHMS {
        let mut baseline: Option<Vec<String>> = None;
        for strategy in STRATEGIES {
            let mut counters: Option<(u64, u64)> = None;
            for threads in [1usize, 2, 4] {
                let config = MinerConfig::new(MinSupport::Count(5))
                    .algorithm(algorithm)
                    .counting(strategy)
                    .parallelism(Parallelism::threads(threads));
                let result = Miner::new(config).mine(&db);
                let rendered = render(&result.patterns);
                // The fixture's answer: the full 5-step sequence is maximal.
                assert!(
                    rendered.contains(&"<(1)(2)(3)(4)(5)>:5".to_string()),
                    "{algorithm} / {strategy} / {threads} threads found {rendered:?}"
                );
                let expected = baseline.get_or_insert_with(|| rendered.clone());
                assert_eq!(
                    &rendered, expected,
                    "{algorithm} / {strategy} / {threads} threads"
                );
                // Kernel counters are thread-invariant, and each index
                // strategy reaches exactly its own kernel.
                let stats = &result.stats;
                let expected_counters = *counters.get_or_insert((stats.join_ops, stats.sstep_ops));
                assert_eq!(
                    (stats.join_ops, stats.sstep_ops),
                    expected_counters,
                    "{algorithm} / {strategy}: counters changed with {threads} threads"
                );
                match strategy {
                    CountingStrategy::Vertical => {
                        assert!(
                            stats.join_ops > 0,
                            "{algorithm}: vertical never reached the join kernel"
                        );
                        assert!(stats.vertical_peak_bytes > 0);
                        assert_eq!(stats.sstep_ops, 0);
                    }
                    CountingStrategy::Bitmap => {
                        assert!(
                            stats.sstep_ops > 0,
                            "{algorithm}: bitmap never reached the S-step kernel"
                        );
                        assert!(stats.bitmap_words > 0);
                        assert_eq!(stats.join_ops, 0);
                    }
                    CountingStrategy::Auto => {
                        // Seven customers is far below the Auto floor: it
                        // must route to the hash tree and say why.
                        let d = stats.auto_decision.as_ref().expect("auto decision");
                        assert_eq!(d.choice, CountingStrategy::HashTree);
                        assert_eq!(d.customers, 7);
                        assert_eq!(stats.join_ops, 0);
                        assert_eq!(stats.sstep_ops, 0);
                    }
                    _ => {
                        assert_eq!(stats.join_ops, 0);
                        assert_eq!(stats.vertical_peak_bytes, 0);
                        assert_eq!(stats.sstep_ops, 0);
                        assert_eq!(stats.bitmap_words, 0);
                        assert!(stats.auto_decision.is_none());
                    }
                }
            }
        }
    }
}

/// Customers longer than 64 transactions span several `u64` words in the
/// bitmap layout; the pattern's steps sit at positions 2, 68, and 69, so
/// supporting it requires the S-step carry to cross the word seam. Every
/// strategy (and every thread count) must agree on the answer.
fn multi_word_db() -> Database {
    let mut rows = Vec::new();
    for customer in 1..=3u64 {
        for t in 0..70i64 {
            let item = match t {
                2 => 1u32,
                68 => 2,
                69 => 3,
                // Per-(customer, transaction) noise: never reaches support 3.
                _ => 100 + customer as u32 * 100 + t as u32,
            };
            rows.push((customer, t, vec![item]));
        }
    }
    Database::from_rows(rows)
}

#[test]
fn customers_longer_than_64_transactions_agree_across_strategies() {
    let db = multi_word_db();
    let expected = vec!["<(1)(2)(3)>:3".to_string()];
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            for threads in [1usize, 2, 4] {
                let config = MinerConfig::new(MinSupport::Count(3))
                    .algorithm(algorithm)
                    .counting(strategy)
                    .parallelism(Parallelism::threads(threads));
                let result = Miner::new(config).mine(&db);
                assert_eq!(
                    render(&result.patterns),
                    expected,
                    "{algorithm} / {strategy} / {threads} threads"
                );
            }
        }
    }
}

#[test]
fn cache_cap_zero_still_gives_identical_answers() {
    // Disabling occurrence-list retention forces every pass to fold its
    // candidates from the base index — more joins, same supports.
    let db = long_pattern_db();
    let cached =
        Miner::new(MinerConfig::new(MinSupport::Count(5)).counting(CountingStrategy::Vertical))
            .mine(&db);
    let mut config = MinerConfig::new(MinSupport::Count(5)).counting(CountingStrategy::Vertical);
    config.vertical.cache_cap_bytes = 0;
    let uncached = Miner::new(config).mine(&db);
    assert_eq!(render(&cached.patterns), render(&uncached.patterns));
    assert!(
        uncached.stats.join_ops > cached.stats.join_ops,
        "folding from scratch must cost extra joins (cached {}, uncached {})",
        cached.stats.join_ops,
        uncached.stats.join_ops
    );
}
