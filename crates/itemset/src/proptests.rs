//! Property tests: the Apriori miner and the trimmed hash-tree counter
//! against brute-force oracles on arbitrary small inputs.

use proptest::prelude::*;

use crate::counting::{CandidateCounter, L1Index};
use crate::{
    mine_large_itemsets, AprioriConfig, CustomerTransactions, Item, LargeItemset, Parallelism,
};

/// Oracle: enumerate every subset (≤ 4 items) of every transaction and
/// count customer support directly.
fn oracle(customers: &[CustomerTransactions], min_count: u64) -> Vec<LargeItemset> {
    use std::collections::BTreeSet;
    let mut universe: BTreeSet<Vec<Item>> = BTreeSet::new();
    fn subsets(
        items: &[Item],
        cap: usize,
        current: &mut Vec<Item>,
        out: &mut BTreeSet<Vec<Item>>,
        start: usize,
    ) {
        for i in start..items.len() {
            current.push(items[i]);
            out.insert(current.clone());
            if current.len() < cap {
                subsets(items, cap, current, out, i + 1);
            }
            current.pop();
        }
    }
    for customer in customers {
        for t in customer {
            subsets(t, 4, &mut Vec::new(), &mut universe, 0);
        }
    }
    let mut large: Vec<LargeItemset> = Vec::new();
    for items in universe {
        let support = customers
            .iter()
            .filter(|c| {
                c.iter()
                    .any(|t| items.iter().all(|i| t.binary_search(i).is_ok()))
            })
            .count() as u64;
        if support >= min_count {
            large.push(LargeItemset { items, support });
        }
    }
    large.sort_by(|a, b| a.items.cmp(&b.items));
    large
}

fn arb_customers() -> impl Strategy<Value = Vec<CustomerTransactions>> {
    let transaction = proptest::collection::btree_set(0u32..8, 1..=4)
        .prop_map(|s| s.into_iter().collect::<Vec<_>>());
    let customer = proptest::collection::vec(transaction, 1..=4);
    proptest::collection::vec(customer, 0..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apriori_matches_oracle(customers in arb_customers(), min_count in 1u64..=3) {
        let config = AprioriConfig {
            max_itemset_size: Some(4),
            ..AprioriConfig::default()
        };
        let mut mined = mine_large_itemsets(&customers, min_count, &config);
        mined.sort_by(|a, b| a.items.cmp(&b.items));
        prop_assert_eq!(mined, oracle(&customers, min_count));
    }

    #[test]
    fn tree_shape_does_not_change_results(customers in arb_customers(), min_count in 1u64..=3) {
        let tree_heavy = AprioriConfig {
            hash_tree_fanout: 2,
            hash_tree_leaf_capacity: 1,
            ..AprioriConfig::default()
        };
        let a = mine_large_itemsets(&customers, min_count, &tree_heavy);
        let b = mine_large_itemsets(&customers, min_count, &AprioriConfig::default());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn trimmed_tree_counts_match_brute_force(
        shape in (0usize..3, 2usize..=100, 1usize..5, 3usize..=4, 1usize..=3),
        raw_customers in proptest::collection::vec(
            (
                proptest::collection::vec(proptest::collection::btree_set(0u32..12, 1..=7), 1..=4),
                0usize..4,
            ),
            1..=8,
        ),
        raw_cands in proptest::collection::vec(
            proptest::collection::btree_set(0u32..12, 4..=4),
            1..=40,
        ),
    ) {
        let (base_pick, fanout, leaf_capacity, k, threads) = shape;
        // Offsets over three bases: a compact universe, a shifted one and
        // one ending at u32::MAX (binary-search L1 index).
        let base = [0, 1_000, u32::MAX - 11][base_pick];
        // Every customer repeats one of its transactions.
        let customers: Vec<CustomerTransactions> = raw_customers
            .iter()
            .map(|(txs, repeat)| {
                let mut txs: Vec<Vec<Item>> = txs
                    .iter()
                    .map(|t| t.iter().map(|&o| base + o).collect())
                    .collect();
                txs.push(txs[repeat % txs.len()].clone());
                txs
            })
            .collect();
        let mut cands: Vec<Vec<Item>> = raw_cands
            .iter()
            .map(|c| c.iter().take(k).map(|&o| base + o).collect())
            .collect();
        cands.sort();
        cands.dedup();
        let mut items: Vec<Item> = cands.iter().flatten().copied().collect();
        items.extend(customers.iter().flatten().flatten().copied().step_by(2));
        items.sort_unstable();
        items.dedup();
        let index = L1Index::new(items);
        let in_l1: Vec<Vec<u32>> = cands
            .iter()
            .map(|c| c.iter().filter_map(|&i| index.get(i)).collect())
            .collect();
        let config = AprioriConfig {
            hash_tree_fanout: fanout,
            hash_tree_leaf_capacity: leaf_capacity,
            parallelism: Parallelism::threads(threads),
            ..AprioriConfig::default()
        };
        let mut counter = CandidateCounter::new(&index, &in_l1, &config);
        // Two batches: supports add up across them.
        let (head, tail) = customers.split_at(customers.len() / 2);
        counter.count(head);
        counter.count(tail);
        let brute: Vec<u64> = cands
            .iter()
            .map(|c| {
                customers
                    .iter()
                    .filter(|txs| txs.iter().any(|t| c.iter().all(|i| t.contains(i))))
                    .count() as u64
            })
            .collect();
        prop_assert_eq!(counter.supports(), brute);
    }

    #[test]
    fn mining_near_u32_max_matches_the_oracle(customers in arb_customers(), min_count in 1u64..=3) {
        let top = u32::MAX - 7;
        let shifted: Vec<CustomerTransactions> = customers
            .iter()
            .map(|c| c.iter().map(|t| t.iter().map(|&i| top + i).collect()).collect())
            .collect();
        let config = AprioriConfig {
            max_itemset_size: Some(4),
            ..AprioriConfig::default()
        };
        let mut mined = mine_large_itemsets(&shifted, min_count, &config);
        mined.sort_by(|a, b| a.items.cmp(&b.items));
        prop_assert_eq!(mined, oracle(&shifted, min_count));
    }

    #[test]
    fn downward_closure_holds(customers in arb_customers(), min_count in 1u64..=3) {
        let mined = mine_large_itemsets(&customers, min_count, &AprioriConfig::default());
        // Every subset of a large itemset is large (with ≥ the support).
        for l in &mined {
            if l.items.len() >= 2 {
                for drop in 0..l.items.len() {
                    let mut sub = l.items.clone();
                    sub.remove(drop);
                    let found = mined.iter().find(|x| x.items == sub);
                    prop_assert!(found.is_some(), "{sub:?} missing though {:?} is large", l.items);
                    prop_assert!(found.unwrap().support >= l.support);
                }
            }
        }
    }
}
