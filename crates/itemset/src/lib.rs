//! # seqpat-itemset — Apriori large-itemset mining substrate
//!
//! This crate implements the *litemset phase* substrate of Agrawal &
//! Srikant's "Mining Sequential Patterns" (ICDE 1995): finding all **large
//! itemsets** in a customer-transaction database, where support is counted
//! at **customer** granularity — a customer supports an itemset if the
//! itemset is contained in *at least one* of that customer's transactions,
//! and each customer contributes at most one unit of support.
//!
//! The miner is the classic Apriori algorithm (Agrawal & Srikant, VLDB
//! 1994) — the paper the ICDE'95 work builds on — with its two signature
//! components rebuilt from scratch:
//!
//! * [`candidate::apriori_gen`] — the join + prune candidate generation, and
//! * [`hash_tree::HashTree`] — the candidate hash tree used to find, for a
//!   transaction `t`, all candidates contained in `t` without scanning the
//!   whole candidate list.
//!
//! Items are plain `u32`s; itemsets are sorted, duplicate-free `Vec<u32>`s.
//! The crate is deliberately free of dependencies so it can serve as a
//! standalone substrate.
//!
//! ```
//! use seqpat_itemset::{mine_large_itemsets, AprioriConfig};
//!
//! // Two customers; items 1 and 2 co-occur for both of them.
//! let customers: Vec<Vec<Vec<u32>>> = vec![
//!     vec![vec![1, 2, 3]],
//!     vec![vec![1, 2], vec![4]],
//! ];
//! let found = mine_large_itemsets(&customers, 2, &AprioriConfig::default());
//! assert!(found.iter().any(|l| l.items == vec![1, 2] && l.support == 2));
//! ```

pub mod candidate;
pub mod cast;
pub mod counting;
pub mod hash_tree;
pub mod parallel;
pub mod stats;

#[cfg(test)]
mod proptests;

pub use candidate::apriori_gen;
pub use hash_tree::HashTree;
pub use parallel::Parallelism;
pub use stats::Stopwatch;

/// A raw item identifier.
///
/// The ICDE'95 paper models items as opaque integers; `u32` comfortably
/// covers the paper's `N = 10,000`-item universes and keeps itemsets compact.
pub type Item = u32;

/// A transaction: the items bought together, sorted ascending, no duplicates.
pub type Transaction = Vec<Item>;

/// One customer's transactions in time order.
pub type CustomerTransactions = Vec<Transaction>;

/// A large itemset discovered by the miner, together with its support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LargeItemset {
    /// The items, sorted ascending.
    pub items: Vec<Item>,
    /// Number of customers supporting the itemset (each counted once).
    pub support: u64,
}

/// Tuning knobs for the Apriori run.
#[derive(Debug, Clone)]
pub struct AprioriConfig {
    /// Leaf capacity of the candidate hash tree before it splits.
    pub hash_tree_leaf_capacity: usize,
    /// Branching factor (number of hash buckets) of interior nodes.
    pub hash_tree_fanout: usize,
    /// Hard cap on itemset size, `None` for unbounded. Useful to bound
    /// degenerate inputs; the paper leaves it unbounded.
    pub max_itemset_size: Option<usize>,
    /// Worker threads for candidate counting (passes 2 and up; pass 1 is a
    /// single cheap scan and stays serial). Parallel runs produce
    /// bit-identical results to serial ones.
    pub parallelism: Parallelism,
}

impl Default for AprioriConfig {
    fn default() -> Self {
        Self {
            hash_tree_leaf_capacity: 32,
            hash_tree_fanout: 16,
            max_itemset_size: None,
            parallelism: Parallelism::default(),
        }
    }
}

/// Per-pass counters, for the experiment harness and for tests that pin the
/// pruning behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AprioriPassStats {
    /// Itemset size counted in this pass (1-based).
    pub k: usize,
    /// Candidates generated for this pass (after the prune step).
    pub candidates: u64,
    /// Candidates that turned out large.
    pub large: u64,
    /// Wall time of the pass (generation + counting).
    pub duration: std::time::Duration,
}

/// Full mining result: the large itemsets of every size plus per-pass stats.
#[derive(Debug, Clone, Default)]
pub struct AprioriResult {
    /// All large itemsets, every size, in pass order (size 1 first).
    pub large: Vec<LargeItemset>,
    /// One entry per executed pass.
    pub passes: Vec<AprioriPassStats>,
}

/// Mines all large itemsets with customer-level support `>= min_count`.
///
/// `customers[c]` holds the transactions of customer `c`; each transaction
/// must be sorted ascending without duplicates (the sort phase of the
/// pipeline guarantees this). `min_count` is an absolute customer count — the
/// caller converts a fractional `minsup` via its database size.
///
/// Returns only the itemsets; use [`mine_large_itemsets_with_stats`] when the
/// per-pass counters are needed.
pub fn mine_large_itemsets(
    customers: &[CustomerTransactions],
    min_count: u64,
    config: &AprioriConfig,
) -> Vec<LargeItemset> {
    mine_large_itemsets_with_stats(customers, min_count, config).large
}

/// Like [`mine_large_itemsets`] but also returns per-pass statistics.
pub fn mine_large_itemsets_with_stats(
    customers: &[CustomerTransactions],
    min_count: u64,
    config: &AprioriConfig,
) -> AprioriResult {
    let pass_start = crate::stats::Stopwatch::start();
    let (distinct, l1) = counting::count_single_items(customers, min_count.max(1));
    let mut passes = vec![AprioriPassStats {
        k: 1,
        // Every distinct item is implicitly a candidate in pass 1.
        candidates: distinct,
        large: cast::w64(l1.len()),
        duration: pass_start.elapsed(),
    }];
    let mut later = LaterPasses::new(l1, min_count);
    loop {
        let pass_start = crate::stats::Stopwatch::start();
        let Some(mut pass) = later.step(config, |count| count(customers)) else {
            break;
        };
        pass.duration = pass_start.elapsed();
        passes.push(pass);
    }
    AprioriResult {
        large: later.into_large(),
        passes,
    }
}

/// Apriori's passes 2 and up, one [`LaterPasses::step`] per pass, from the
/// large items of pass 1. Shared by the in-memory miner and the streamed
/// colstore build, which differ only in how a pass reads the customers.
///
/// Itemsets are counted in L1-index space (see [`counting`]) and mapped
/// back to items on output.
#[derive(Debug)]
pub struct LaterPasses {
    index: counting::L1Index,
    /// The last pass's large itemsets (L1 indices, lexicographic) with
    /// their supports, not yet in `large`.
    current: Vec<(Vec<u32>, u64)>,
    /// Itemset size of the next pass.
    k: usize,
    min_count: u64,
    large: Vec<LargeItemset>,
}

impl LaterPasses {
    /// Starts from the large items `l1` (ascending by item, with their
    /// supports) and an absolute support threshold.
    pub fn new(l1: Vec<(Item, u64)>, min_count: u64) -> Self {
        let index = counting::L1Index::new(l1.iter().map(|&(item, _)| item).collect());
        let large = l1
            .into_iter()
            .map(|(item, support)| LargeItemset {
                items: vec![item],
                support,
            })
            .collect();
        Self {
            index,
            current: Vec::new(),
            k: 2,
            min_count: min_count.max(1),
            large,
        }
    }

    /// Runs the next pass and returns its counters (`duration` left zero
    /// for the caller to fill), or `None` when mining is over.
    ///
    /// `scan` runs once if the pass has candidates, and must feed its
    /// argument every customer of the database exactly once, in batches of
    /// any size (supports add up across disjoint batches).
    pub fn step(
        &mut self,
        config: &AprioriConfig,
        mut scan: impl FnMut(&mut dyn FnMut(&[CustomerTransactions])),
    ) -> Option<AprioriPassStats> {
        let k = self.k;
        let within_cap = config.max_itemset_size.is_none_or(|cap| k <= cap);
        let (candidates, next) = if k == 2 {
            if self.index.is_empty() || !within_cap {
                return None;
            }
            // The join over L1 yields every item pair and the prune is
            // vacuous, so co-occurring pairs are counted directly instead
            // of probing |L1|²/2 candidates through the tree (the classic
            // special-cased second pass of Apriori).
            let mut pairs =
                counting::PairCounter::new(&self.index, config.parallelism.resolved_threads());
            if pairs.candidates() > 0 {
                scan(&mut |batch| pairs.count(batch));
            }
            let candidates = pairs.candidates();
            let next = pairs
                .into_large(self.min_count)
                .into_iter()
                .map(|(i, j, support)| (vec![i, j], support))
                .collect();
            (candidates, next)
        } else {
            let candidates = if within_cap {
                let prev: Vec<&[u32]> =
                    self.current.iter().map(|(ids, _)| ids.as_slice()).collect();
                candidate::apriori_gen(&prev)
            } else {
                Vec::new()
            };
            self.flush();
            if candidates.is_empty() {
                return None;
            }
            let mut counter = counting::CandidateCounter::new(&self.index, &candidates, config);
            scan(&mut |batch| counter.count(batch));
            let n_candidates = cast::w64(candidates.len());
            let next = candidates
                .into_iter()
                .zip(counter.supports())
                .filter(|&(_, support)| support >= self.min_count)
                .collect();
            (n_candidates, next)
        };
        self.current = next;
        self.k += 1;
        Some(AprioriPassStats {
            k,
            candidates,
            large: cast::w64(self.current.len()),
            duration: std::time::Duration::ZERO,
        })
    }

    /// Every large itemset found, in pass order (each pass lexicographic).
    pub fn into_large(mut self) -> Vec<LargeItemset> {
        self.flush();
        self.large
    }

    /// Moves the last pass's itemsets, as items, into `large`.
    fn flush(&mut self) {
        let index = &self.index;
        self.large
            .extend(self.current.drain(..).map(|(ids, support)| LargeItemset {
                items: ids.iter().map(|&i| index.item(i)).collect(),
                support,
            }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Vec<CustomerTransactions> {
        // Four customers. {1,2} supported by 3 customers, {1,2,3} by 2.
        vec![
            vec![vec![1, 2, 3]],
            vec![vec![1, 2], vec![3]],
            vec![vec![1, 2, 3], vec![1, 2, 3]], // counted once per customer
            vec![vec![4]],
        ]
    }

    fn items_of(result: &[LargeItemset]) -> Vec<Vec<Item>> {
        result.iter().map(|l| l.items.clone()).collect()
    }

    #[test]
    fn single_items_counted_per_customer() {
        let found = mine_large_itemsets(&db(), 3, &AprioriConfig::default());
        let singles: Vec<_> = found.iter().filter(|l| l.items.len() == 1).collect();
        // 1 and 2 appear for customers 0,1,2; 3 for 0,1,2; 4 only for 3.
        assert_eq!(singles.len(), 3);
        for s in singles {
            assert_eq!(s.support, 3);
        }
    }

    #[test]
    fn pairs_and_triples() {
        let found = mine_large_itemsets(&db(), 2, &AprioriConfig::default());
        let sets = items_of(&found);
        assert!(sets.contains(&vec![1, 2]));
        assert!(sets.contains(&vec![1, 3]));
        assert!(sets.contains(&vec![2, 3]));
        assert!(sets.contains(&vec![1, 2, 3]));
        assert!(!sets.contains(&vec![4]));
    }

    #[test]
    fn customer_counted_once_even_with_repeat_transactions() {
        let customers = vec![vec![vec![7, 8], vec![7, 8], vec![7, 8]]];
        let found = mine_large_itemsets(&customers, 1, &AprioriConfig::default());
        let pair = found.iter().find(|l| l.items == vec![7, 8]).unwrap();
        assert_eq!(pair.support, 1);
    }

    #[test]
    fn empty_database_yields_nothing() {
        let found = mine_large_itemsets(&[], 1, &AprioriConfig::default());
        assert!(found.is_empty());
    }

    #[test]
    fn min_count_zero_treated_as_one() {
        let customers = vec![vec![vec![1]]];
        let found = mine_large_itemsets(&customers, 0, &AprioriConfig::default());
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn max_itemset_size_caps_passes() {
        let config = AprioriConfig {
            max_itemset_size: Some(2),
            ..AprioriConfig::default()
        };
        let found = mine_large_itemsets(&db(), 2, &config);
        assert!(found.iter().all(|l| l.items.len() <= 2));
    }

    #[test]
    fn pass_stats_reflect_pruning() {
        let result = mine_large_itemsets_with_stats(&db(), 2, &AprioriConfig::default());
        assert_eq!(result.passes[0].k, 1);
        // Pass 2 candidates = C(3,2) = 3 pairs over {1,2,3}.
        assert_eq!(result.passes[1].candidates, 3);
        assert_eq!(result.passes[1].large, 3);
        // Pass 3: only {1,2,3} survives the join.
        assert_eq!(result.passes[2].candidates, 1);
        assert_eq!(result.passes[2].large, 1);
    }

    #[test]
    fn tree_shape_does_not_change_results() {
        // A one-candidate-per-leaf binary tree against the default shape.
        let customers: Vec<CustomerTransactions> = (0..20)
            .map(|c: u32| vec![vec![c % 3, 10 + c % 4, 20 + c % 2], vec![c % 5, 10 + c % 4]])
            .map(|txs| {
                txs.into_iter()
                    .map(|mut t| {
                        t.sort_unstable();
                        t.dedup();
                        t
                    })
                    .collect()
            })
            .collect();
        let default = mine_large_itemsets(&customers, 2, &AprioriConfig::default());
        let tree = mine_large_itemsets(
            &customers,
            2,
            &AprioriConfig {
                hash_tree_leaf_capacity: 1,
                hash_tree_fanout: 2,
                ..AprioriConfig::default()
            },
        );
        assert!(default.iter().any(|l| l.items.len() == 3));
        assert_eq!(default, tree);
    }
}
