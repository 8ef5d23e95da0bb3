//! A brute-force reference miner — the testing oracle.
//!
//! Deliberately shares **no** machinery with the real pipeline: no litemset
//! ids, no transformation, no apriori join. Large itemsets are enumerated
//! straight from transaction subsets; sequences grow by appending every
//! large itemset and are counted with direct containment scans over the
//! original database. Exponential, so only usable on small databases —
//! which is exactly what the property tests feed it.

use crate::contain::sequence_contains;
use crate::fxhash::FxHashSet;
use crate::support::MinSupport;
use crate::types::database::Database;
use crate::types::itemset::{Item, Itemset};
use crate::types::sequence::Sequence;

/// Resource caps so a pathological random input cannot hang a test run.
#[derive(Debug, Clone, Copy)]
pub struct NaiveLimits {
    /// Maximum itemset size enumerated (subsets of transactions up to this
    /// cardinality).
    pub max_itemset_size: usize,
    /// Maximum sequence length explored.
    pub max_sequence_length: usize,
}

impl Default for NaiveLimits {
    fn default() -> Self {
        Self {
            max_itemset_size: 4,
            max_sequence_length: 6,
        }
    }
}

/// All large sequences (not only maximal), with supports, sorted by length
/// then lexicographically.
pub fn naive_all_large(
    db: &Database,
    min_support: MinSupport,
    limits: NaiveLimits,
) -> Vec<(Sequence, u64)> {
    let min_count = min_support.to_count(db.num_customers());
    let large_itemsets = large_itemsets(db, min_count, limits.max_itemset_size);
    if large_itemsets.is_empty() {
        return Vec::new();
    }

    // Pre-extract each customer's itemset view once.
    let customer_views: Vec<Vec<Itemset>> = db
        .customers()
        .iter()
        .map(|c| c.itemsets().cloned().collect())
        .collect();
    let count = |seq: &[Itemset]| -> u64 {
        customer_views
            .iter()
            .filter(|view| sequence_contains(view, seq))
            .count() as u64
    };

    let mut result: Vec<(Sequence, u64)> = Vec::new();
    let mut frontier: Vec<Vec<Itemset>> = large_itemsets.iter().map(|s| vec![s.clone()]).collect();
    // Supports of 1-sequences equal the itemset supports, but recount for
    // oracle independence anyway.
    let mut level = 1usize;
    while !frontier.is_empty() && level <= limits.max_sequence_length {
        let mut next: Vec<Vec<Itemset>> = Vec::new();
        for seq in frontier {
            let support = count(&seq);
            if support >= min_count {
                if level < limits.max_sequence_length {
                    for ext in &large_itemsets {
                        let mut longer = seq.clone();
                        longer.push(ext.clone());
                        next.push(longer);
                    }
                }
                result.push((Sequence::new(seq), support));
            }
        }
        frontier = next;
        level += 1;
    }
    result.sort_by(|a, b| (a.0.len(), a.0.elements()).cmp(&(b.0.len(), b.0.elements())));
    result
}

/// The maximal large sequences — the paper's answer set — computed from
/// [`naive_all_large`] by [`maximal_by_scan`].
pub fn naive_maximal(
    db: &Database,
    min_support: MinSupport,
    limits: NaiveLimits,
) -> Vec<(Sequence, u64)> {
    let mut kept = maximal_by_scan(naive_all_large(db, min_support, limits));
    kept.sort_by(|a, b| (a.0.len(), a.0.elements()).cmp(&(b.0.len(), b.0.elements())));
    kept
}

/// Pairwise containment pruning: in containers-first order (by length,
/// then total items — equal-length containment implies element-wise
/// subsets), each sequence is kept unless a kept one contains it. The
/// quadratic scan the maximal phase ([`crate::phases::maximal`]) is tested
/// against; output in that order.
pub fn maximal_by_scan(mut all: Vec<(Sequence, u64)>) -> Vec<(Sequence, u64)> {
    all.sort_by_key(|a| std::cmp::Reverse((a.0.len(), a.0.total_items())));
    let mut kept: Vec<(Sequence, u64)> = Vec::new();
    for (seq, support) in all {
        if !kept.iter().any(|(k, _)| seq.is_contained_in(k)) {
            kept.push((seq, support));
        }
    }
    kept
}

/// Enumerates every itemset (size ≤ cap) appearing as a subset of some
/// transaction and returns those with customer support ≥ `min_count`,
/// lexicographically sorted.
fn large_itemsets(db: &Database, min_count: u64, max_size: usize) -> Vec<Itemset> {
    // Universe of candidate itemsets: subsets of individual transactions.
    let mut universe: FxHashSet<Vec<Item>> = FxHashSet::default();
    for customer in db.customers() {
        for transaction in &customer.transactions {
            let items = transaction.items.items();
            subsets_up_to(items, max_size, &mut |subset| {
                universe.insert(subset.to_vec());
            });
        }
    }
    let mut large: Vec<Itemset> = Vec::new();
    for items in universe {
        let candidate = Itemset::from_sorted(items);
        let support = db
            .customers()
            .iter()
            .filter(|c| {
                c.transactions
                    .iter()
                    .any(|t| candidate.is_subset_of(&t.items))
            })
            .count() as u64;
        if support >= min_count {
            large.push(candidate);
        }
    }
    large.sort();
    large
}

/// Calls `f` on every non-empty subset of `items` with size ≤ `max_size`.
fn subsets_up_to(items: &[Item], max_size: usize, f: &mut impl FnMut(&[Item])) {
    let mut current: Vec<Item> = Vec::new();
    fn recurse(
        items: &[Item],
        start: usize,
        max_size: usize,
        current: &mut Vec<Item>,
        f: &mut impl FnMut(&[Item]),
    ) {
        for i in start..items.len() {
            current.push(items[i]);
            f(current);
            if current.len() < max_size {
                recurse(items, i + 1, max_size, current, f);
            }
            current.pop();
        }
    }
    recurse(items, 0, max_size, &mut current, f);
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn oracle_reproduces_paper_answer() {
        let maximal = naive_maximal(
            &paper_db(),
            MinSupport::Fraction(0.25),
            NaiveLimits::default(),
        );
        let strs: Vec<String> = maximal
            .iter()
            .map(|(s, sup)| format!("{s}:{sup}"))
            .collect();
        assert_eq!(strs, vec!["<(30)(40 70)>:2", "<(30)(90)>:2"]);
    }

    #[test]
    fn all_large_includes_every_subsequence() {
        let all = naive_all_large(
            &paper_db(),
            MinSupport::Fraction(0.25),
            NaiveLimits::default(),
        );
        assert_eq!(all.len(), 9);
        // Downward closure: every subsequence of a large sequence is large.
        for (seq, _) in &all {
            if seq.len() == 2 {
                let prefix = Sequence::new(seq.elements()[..1].to_vec());
                assert!(all.iter().any(|(s, _)| *s == prefix));
            }
        }
    }

    #[test]
    fn subsets_enumeration_respects_cap() {
        let mut got: Vec<Vec<Item>> = Vec::new();
        subsets_up_to(&[1, 2, 3], 2, &mut |s| got.push(s.to_vec()));
        got.sort();
        assert_eq!(
            got,
            vec![
                vec![1],
                vec![1, 2],
                vec![1, 3],
                vec![2],
                vec![2, 3],
                vec![3]
            ]
        );
    }

    #[test]
    fn sequence_length_cap_respected() {
        let all = naive_all_large(
            &paper_db(),
            MinSupport::Fraction(0.25),
            NaiveLimits {
                max_itemset_size: 4,
                max_sequence_length: 1,
            },
        );
        assert!(all.iter().all(|(s, _)| s.len() == 1));
    }
}
