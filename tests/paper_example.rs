//! End-to-end integration test on the paper's running example (§2):
//! every algorithm, every counting strategy (including Auto), the facade,
//! and I/O.

use seqpat::io::{csv, spmf};
use seqpat::prefixspan::{prefixspan_maximal, PrefixSpanConfig};
use seqpat::{Algorithm, CountingStrategy, Database, MinSupport, Miner, MinerConfig};

fn paper_db() -> Database {
    Database::from_rows(vec![
        (1, 1, vec![30]),
        (1, 2, vec![90]),
        (2, 1, vec![10, 20]),
        (2, 2, vec![30]),
        (2, 3, vec![40, 60, 70]),
        (3, 1, vec![30, 50, 70]),
        (4, 1, vec![30]),
        (4, 2, vec![40, 70]),
        (4, 3, vec![90]),
        (5, 1, vec![90]),
    ])
}

const PAPER_ANSWER: [&str; 2] = ["<(30)(40 70)>:2", "<(30)(90)>:2"];

fn render(patterns: &[seqpat::Pattern]) -> Vec<String> {
    patterns
        .iter()
        .map(|p| format!("{}:{}", p, p.support))
        .collect()
}

#[test]
fn every_algorithm_and_strategy_reproduces_the_paper_answer() {
    for algorithm in [
        Algorithm::AprioriAll,
        Algorithm::AprioriSome,
        Algorithm::DynamicSome { step: 1 },
        Algorithm::DynamicSome { step: 2 },
        Algorithm::DynamicSome { step: 3 },
    ] {
        for strategy in [
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
            CountingStrategy::Bitmap,
            CountingStrategy::Auto,
        ] {
            let config = MinerConfig::new(MinSupport::Fraction(0.25))
                .algorithm(algorithm)
                .counting(strategy);
            let result = Miner::new(config).mine(&paper_db());
            assert_eq!(
                render(&result.patterns),
                PAPER_ANSWER.to_vec(),
                "{algorithm} with {strategy:?}"
            );
        }
    }
}

#[test]
fn prefixspan_extension_agrees() {
    let found = prefixspan_maximal(
        &paper_db(),
        MinSupport::Fraction(0.25),
        &PrefixSpanConfig::default(),
    );
    assert_eq!(render(&found), PAPER_ANSWER.to_vec());
}

#[test]
fn answer_survives_spmf_roundtrip() {
    let db = paper_db();
    let text = spmf::write_string(&db);
    let again = spmf::read_str(&text).expect("roundtrip parse");
    let result = Miner::new(MinerConfig::new(MinSupport::Fraction(0.25))).mine(&again);
    assert_eq!(render(&result.patterns), PAPER_ANSWER.to_vec());
}

#[test]
fn answer_survives_csv_roundtrip() {
    let db = paper_db();
    let text = csv::write_string(&db);
    let again = csv::read_str(&text).expect("roundtrip parse");
    assert_eq!(db, again);
    let result = Miner::new(MinerConfig::new(MinSupport::Fraction(0.25))).mine(&again);
    assert_eq!(render(&result.patterns), PAPER_ANSWER.to_vec());
}

#[test]
fn non_maximal_set_is_downward_closed() {
    let result = Miner::new(MinerConfig::new(MinSupport::Fraction(0.25)).include_non_maximal(true))
        .mine(&paper_db());
    // Every element of every large sequence is itself a large 1-sequence.
    let singles: Vec<&seqpat::Itemset> = result
        .patterns
        .iter()
        .filter(|p| p.sequence.len() == 1)
        .map(|p| &p.sequence.elements()[0])
        .collect();
    for pattern in &result.patterns {
        for element in pattern.sequence.elements() {
            assert!(
                singles.iter().any(|s| element.is_subset_of(s)),
                "element {element} of {pattern} has no large 1-sequence cover"
            );
        }
    }
}

#[test]
fn support_fractions_consistent() {
    let result = Miner::new(MinerConfig::new(MinSupport::Fraction(0.25))).mine(&paper_db());
    for p in &result.patterns {
        let f = result.support_fraction(p);
        assert!(f >= 0.25 - 1e-12);
        assert!((f * 5.0 - p.support as f64).abs() < 1e-9);
    }
}

#[test]
fn varying_threshold_shrinks_answer_monotonically() {
    let db = paper_db();
    let mut last_len = usize::MAX;
    for count in 1..=5u64 {
        let result =
            Miner::new(MinerConfig::new(MinSupport::Count(count)).include_non_maximal(true))
                .mine(&db);
        assert!(
            result.patterns.len() <= last_len,
            "large-sequence count must shrink as the threshold grows"
        );
        last_len = result.patterns.len();
    }
}
