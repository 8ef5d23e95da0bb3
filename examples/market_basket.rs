//! Market-basket analysis on a synthetic retail history — the workload the
//! paper's introduction motivates ("customers typically rent 'Star Wars',
//! then 'Empire Strikes Back', then 'Return of the Jedi'").
//!
//! ```sh
//! cargo run --release --example market_basket
//! ```
//!
//! Generates a C10-T2.5-S4-I1.25 dataset with the paper's generator, mines
//! maximal sequential patterns with all three algorithms, verifies they
//! agree, and prints the strongest cross-transaction patterns.

use seqpat::{generate, Algorithm, GenParams, MinSupport, Miner, MinerConfig};

fn main() {
    let params = GenParams::paper_dataset("C10-T2.5-S4-I1.25")
        .expect("known dataset")
        .customers(1_000);
    println!(
        "generating {} (|D| = {}) …",
        params.label(),
        params.num_customers
    );
    let db = generate(&params, 7);
    println!(
        "  {} transactions, avg {:.1} per customer\n",
        db.num_transactions(),
        db.num_transactions() as f64 / db.num_customers() as f64
    );

    let minsup = 0.01; // the paper's 1% operating point
    let mut answers = Vec::new();
    for algorithm in [
        Algorithm::AprioriAll,
        Algorithm::AprioriSome,
        Algorithm::DynamicSome { step: 2 },
    ] {
        let config = MinerConfig::new(MinSupport::Fraction(minsup)).algorithm(algorithm);
        let start = std::time::Instant::now();
        let result = Miner::new(config).mine(&db);
        println!(
            "{algorithm:<20} {:>4} maximal patterns in {:>7.3}s  ({} candidates counted)",
            result.patterns.len(),
            start.elapsed().as_secs_f64(),
            result.stats.candidates_counted,
        );
        answers.push(result);
    }

    // The three algorithms must return the same answer set.
    let reference: Vec<String> = answers[0].patterns.iter().map(|p| p.to_string()).collect();
    for other in &answers[1..] {
        let got: Vec<String> = other.patterns.iter().map(|p| p.to_string()).collect();
        assert_eq!(reference, got, "algorithms disagree!");
    }
    println!("\nall three algorithms agree ✓");

    // Show the strongest multi-transaction buying sequences.
    let result = &answers[0];
    let mut cross: Vec<_> = result
        .patterns
        .iter()
        .filter(|p| p.sequence.len() >= 2)
        .collect();
    cross.sort_by_key(|p| std::cmp::Reverse(p.support));
    println!("\ntop cross-transaction patterns (buy …, come back, buy …):");
    for pattern in cross.iter().take(10) {
        println!(
            "  {pattern}   {} customers ({:.1}%)",
            pattern.support,
            100.0 * result.support_fraction(pattern)
        );
    }
    if cross.is_empty() {
        println!("  (none at this threshold — lower minsup to see longer patterns)");
    }
}
