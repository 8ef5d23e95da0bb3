//! Support counting at customer granularity.
//!
//! The litemset phase of the ICDE'95 pipeline differs from market-basket
//! Apriori in exactly one way: an itemset's support is the number of
//! **customers** with at least one containing transaction, not the number of
//! containing transactions.
//!
//! Pass 1 counts items into a dense per-item array (a binary search over
//! the sorted distinct items past [`DENSE_UNIVERSE_LIMIT`]). From pass 2 on
//! every itemset is written in **L1-index space**: item `i` of the sorted
//! large 1-itemsets is `i`, so tables are sized by `|L1|`, never by raw
//! item ids (which go up to `u32::MAX`); [`L1Index`] maps raw items in.
//! Pass 2 ([`PairCounter`]) bumps one triangle per pass with every
//! co-occurring pair of large items and thresholds it in memory order.
//! Passes ≥ 3 ([`CandidateCounter`]) probe the candidate [`HashTree`] with
//! each transaction trimmed to the items the pass's candidates use,
//! skipping transactions shorter than the candidates.
//!
//! Both counters take customers batch by batch (`count` may be called any
//! number of times; supports add up across disjoint batches), so the
//! in-memory miner and the streamed colstore build share them. Customers
//! of a batch are sharded over per-worker scratch that lives for the whole
//! pass ([`map_chunks_with`]); integer counts make every thread count give
//! the same totals.

use crate::cast::{id32, idx, w64};
use crate::hash_tree::{HashTree, ProbeScratch, VisitStamps};
use crate::parallel::{map_chunks_with, sum_partials};
use crate::{AprioriConfig, CustomerTransactions, Item};

/// Item ids below this get dense item-indexed tables; past it (ids near
/// `u32::MAX`, say) a binary search over sorted items stands in, since a
/// dense table would be gigabytes.
pub const DENSE_UNIVERSE_LIMIT: usize = 1 << 22;

/// Customers per pass-2 worker batch: bounds the workers' key buffers.
const PAIR_BATCH_CUSTOMERS: usize = 1024;

/// Pass 1: counts every item once per customer. Returns the number of
/// distinct items (the implicit candidate count of pass 1) and the large
/// items with their supports, ascending by item.
pub fn count_single_items(
    customers: &[CustomerTransactions],
    min_count: u64,
) -> (u64, Vec<(Item, u64)>) {
    let max_item = customers.iter().flatten().flatten().copied().max();
    let Some(max_item) = max_item else {
        return (0, Vec::new());
    };
    // Positions: the item itself in a compact universe, its rank among
    // the sorted distinct items otherwise.
    let sparse: Option<Vec<Item>> = if idx(max_item) < DENSE_UNIVERSE_LIMIT {
        None
    } else {
        let mut items: Vec<Item> = customers.iter().flatten().flatten().copied().collect();
        items.sort_unstable();
        items.dedup();
        Some(items)
    };
    let len = sparse.as_ref().map_or(idx(max_item) + 1, Vec::len);
    let mut counts = vec![0u32; len];
    // last[p]: one past the index of the last customer counted at p.
    let mut last = vec![0u32; len];
    for (c, customer) in customers.iter().enumerate() {
        let stamp = id32(c + 1);
        for &item in customer.iter().flatten() {
            let p = match &sparse {
                None => idx(item),
                Some(items) => items.partition_point(|&x| x < item),
            };
            debug_assert!(p < len, "every item has a position below the universe size");
            if last[p] != stamp {
                last[p] = stamp;
                counts[p] += 1;
            }
        }
    }
    let item_at = |p: usize| sparse.as_ref().map_or(id32(p), |items| items[p]);
    let distinct = w64(counts.iter().filter(|&&c| c > 0).count());
    let large = (0..len)
        .filter(|&p| u64::from(counts[p]) >= min_count.max(1))
        .map(|p| (item_at(p), u64::from(counts[p])))
        .collect();
    (distinct, large)
}

/// Raw item → L1 index (its rank among the large 1-itemsets): a dense
/// table when every large item is below [`DENSE_UNIVERSE_LIMIT`], a binary
/// search over the sorted large items otherwise.
#[derive(Debug)]
pub struct L1Index {
    items: Vec<Item>,
    dense: Vec<u32>,
}

/// Entry of [`L1Index`]'s dense table for an item that is not large.
const NOT_LARGE: u32 = u32::MAX;

impl L1Index {
    /// Indexes the large items, which must be sorted ascending.
    pub fn new(items: Vec<Item>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "large items are sorted and distinct"
        );
        let dense = match items.last() {
            Some(&max) if idx(max) < DENSE_UNIVERSE_LIMIT => {
                let mut dense = vec![NOT_LARGE; idx(max) + 1];
                for (i, &item) in items.iter().enumerate() {
                    dense[idx(item)] = id32(i);
                }
                dense
            }
            _ => Vec::new(),
        };
        Self { items, dense }
    }

    /// Number of large items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no item is large.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The raw item at L1 index `i`.
    pub fn item(&self, i: u32) -> Item {
        debug_assert!(idx(i) < self.items.len(), "L1 indices are ranks below |L1|");
        self.items[idx(i)]
    }

    /// The L1 index of `item`, if it is large.
    #[inline]
    pub fn get(&self, item: Item) -> Option<u32> {
        if self.dense.is_empty() {
            self.items.binary_search(&item).ok().map(id32)
        } else {
            self.dense
                .get(idx(item))
                .copied()
                .filter(|&i| i != NOT_LARGE)
        }
    }
}

/// Pass 2: one triangular count array per pass over the `|L1|` large
/// items, bumped with every pair of large items that co-occur in some
/// transaction of a customer (once per customer), with no candidate
/// materialized.
#[derive(Debug)]
pub struct PairCounter<'a> {
    index: &'a L1Index,
    /// `counts[tri(i, j)]` for `i < j`, laid out row `j` after row `j-1`.
    counts: Vec<u32>,
    workers: Vec<PairScratch>,
}

/// Per-worker pass-2 buffers: the chunk's pair keys, one customer's pairs
/// and one transaction's L1 indices.
#[derive(Debug, Default, Clone)]
struct PairScratch {
    keys: Vec<usize>,
    pairs: Vec<usize>,
    mapped: Vec<u32>,
}

/// Index of the pair `(i, j)`, `i < j`, in the triangle: row `j` holds
/// `i = 0..j` contiguously.
#[inline]
fn tri(i: usize, j: usize) -> usize {
    debug_assert!(i < j, "pairs are ordered");
    j * (j - 1) / 2 + i
}

/// Bytes from which glibc's malloc always serves an allocation from a
/// fresh mapping (its largest dynamic mmap threshold, 32 MiB on 64-bit).
const ALWAYS_MAPPED_BYTES: usize = 32 << 20;

/// A zeroed triangle of `len` counts whose allocation reserves at least
/// [`ALWAYS_MAPPED_BYTES`]. The reserve past `len` is never touched, so it
/// costs address space, not memory. Without it, glibc serves the pass's
/// one triangle from a fresh mapping the first time but, after freeing it
/// raised its dynamic mmap threshold, from the heap in the next mining run
/// of the same process, whose top it then keeps resident after the pass:
/// `sparse-pairs` read 163.9 MB of peak resident set instead of 141.3 MB.
fn triangle(len: usize) -> Vec<u32> {
    let reserve = ALWAYS_MAPPED_BYTES / std::mem::size_of::<u32>();
    let mut counts = vec![0; len.max(reserve)];
    counts.truncate(len);
    counts
}

impl<'a> PairCounter<'a> {
    /// A zeroed triangle over `index`'s large items and `threads` workers.
    pub fn new(index: &'a L1Index, threads: usize) -> Self {
        let n = index.len();
        Self {
            index,
            counts: triangle(n * n.saturating_sub(1) / 2),
            workers: vec![PairScratch::default(); threads.max(1)],
        }
    }

    /// The implicit candidate count, `C(|L1|, 2)` (what `apriori_gen`
    /// would emit).
    pub fn candidates(&self) -> u64 {
        w64(self.counts.len())
    }

    /// Adds one batch of customers to the counts.
    pub fn count(&mut self, customers: &[CustomerTransactions]) {
        if self.counts.is_empty() {
            return;
        }
        let index = self.index;
        for batch in customers.chunks(PAIR_BATCH_CUSTOMERS) {
            map_chunks_with(batch, &mut self.workers, |chunk, w| w.gather(chunk, index));
            let counts = self.counts.as_mut_slice();
            for w in &mut self.workers {
                for &key in &w.keys {
                    debug_assert!(key < counts.len(), "pair keys index the triangle");
                    counts[key] += 1;
                }
                w.keys.clear();
            }
        }
    }

    /// The pairs with support `>= min_count` as `(i, j, support)` in L1
    /// indices, lexicographic. The triangle is scanned in memory order and
    /// freed right after.
    pub fn into_large(self, min_count: u64) -> Vec<(u32, u32, u64)> {
        let Self { index, counts, .. } = self;
        let mut large = Vec::new();
        let mut row_start = 0;
        for j in 1..index.len() {
            debug_assert!(
                row_start + j <= counts.len(),
                "row j ends inside the triangle"
            );
            let row = &counts[row_start..row_start + j];
            for (i, &c) in row.iter().enumerate() {
                if u64::from(c) >= min_count {
                    large.push((id32(i), id32(j), u64::from(c)));
                }
            }
            row_start += j;
        }
        drop(counts);
        large.sort_unstable();
        large
    }
}

impl PairScratch {
    /// Appends the pair keys of every customer of `chunk`, each pair once
    /// per customer.
    fn gather(&mut self, chunk: &[CustomerTransactions], index: &L1Index) {
        let Self {
            keys,
            pairs,
            mapped,
        } = self;
        for customer in chunk {
            pairs.clear();
            for transaction in customer {
                mapped.clear();
                mapped.extend(transaction.iter().filter_map(|&item| index.get(item)));
                for (a, &i) in mapped.iter().enumerate() {
                    debug_assert!(a < mapped.len(), "a enumerates `mapped`");
                    // Items are sorted and L1 indices follow item order.
                    for &j in &mapped[a + 1..] {
                        pairs.push(tri(idx(i), idx(j)));
                    }
                }
            }
            if customer.len() > 1 {
                pairs.sort_unstable();
                pairs.dedup();
            }
            keys.extend_from_slice(pairs);
        }
    }
}

/// Passes ≥ 3: candidate supports through the [`HashTree`], over
/// transactions trimmed to the items the candidates use.
#[derive(Debug)]
pub struct CandidateCounter<'a> {
    index: &'a L1Index,
    tree: HashTree,
    /// `used[i]`: some candidate holds L1 index `i`.
    used: Vec<bool>,
    k: usize,
    workers: Vec<CountScratch>,
}

/// Per-worker pass buffers: supports, per-customer visit stamps, probe
/// scratch and one trimmed transaction.
#[derive(Debug, Clone)]
struct CountScratch {
    supports: Vec<u64>,
    stamps: VisitStamps,
    probe: ProbeScratch,
    trimmed: Vec<Item>,
}

impl<'a> CandidateCounter<'a> {
    /// Builds the tree over `candidates` (L1 indices, equal length, each
    /// sorted) and zeroed per-worker supports.
    pub fn new(index: &'a L1Index, candidates: &[Vec<u32>], config: &AprioriConfig) -> Self {
        let tree = HashTree::build(
            candidates,
            config.hash_tree_fanout,
            config.hash_tree_leaf_capacity,
        );
        let mut used = vec![false; index.len()];
        for &i in candidates.iter().flatten() {
            debug_assert!(idx(i) < used.len(), "candidates hold L1 indices");
            used[idx(i)] = true;
        }
        let worker = CountScratch {
            supports: vec![0; candidates.len()],
            stamps: VisitStamps::new(candidates.len()),
            probe: ProbeScratch::new(index.len()),
            trimmed: Vec::new(),
        };
        let workers = vec![worker; config.parallelism.resolved_threads().max(1)];
        Self {
            index,
            tree,
            used,
            k: candidates.first().map_or(0, Vec::len),
            workers,
        }
    }

    /// Adds one batch of customers to the supports.
    pub fn count(&mut self, customers: &[CustomerTransactions]) {
        let (index, tree, used, k) = (self.index, &self.tree, self.used.as_slice(), self.k);
        map_chunks_with(customers, &mut self.workers, |chunk, w| {
            w.count(chunk, index, tree, used, k);
        });
    }

    /// The per-candidate supports, summed over the workers.
    pub fn supports(self) -> Vec<u64> {
        sum_partials(
            self.workers.into_iter().map(|w| w.supports),
            self.tree.len(),
        )
    }
}

impl CountScratch {
    /// Adds the customers of `chunk` to this worker's supports: each
    /// transaction with at least `k` items is trimmed to the L1 indices
    /// `used` flags and, if still `k` long, probes the tree.
    fn count(
        &mut self,
        chunk: &[CustomerTransactions],
        index: &L1Index,
        tree: &HashTree,
        used: &[bool],
        k: usize,
    ) {
        let Self {
            supports,
            stamps,
            probe,
            trimmed,
        } = self;
        debug_assert!(
            used.len() == index.len() && supports.len() == tree.len(),
            "one flag per L1 index, one support per candidate"
        );
        for customer in chunk {
            stamps.next_epoch();
            for transaction in customer {
                if transaction.len() < k {
                    continue;
                }
                trimmed.clear();
                trimmed.extend(
                    transaction
                        .iter()
                        .filter_map(|&item| index.get(item))
                        .filter(|&i| used[idx(i)]),
                );
                if trimmed.len() < k {
                    continue;
                }
                tree.for_each_contained(trimmed, probe, &mut |id| {
                    if stamps.first_visit(id) {
                        supports[idx(id)] += 1;
                    }
                });
            }
        }
    }
}

/// `a ⊆ b` for sorted, duplicate-free slices.
pub fn sorted_subset(a: &[Item], b: &[Item]) -> bool {
    debug_assert!(
        a.windows(2).all(|w| w[0] < w[1]) && b.windows(2).all(|w| w[0] < w[1]),
        "both slices are sorted and duplicate-free"
    );
    let mut bi = 0;
    'outer: for &x in a {
        while bi < b.len() {
            match b[bi].cmp(&x) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force customer support of every candidate (raw items).
    fn brute_supports(customers: &[CustomerTransactions], candidates: &[Vec<Item>]) -> Vec<u64> {
        candidates
            .iter()
            .map(|cand| {
                let supporting = customers
                    .iter()
                    .filter(|c| c.iter().any(|t| sorted_subset(cand, t)));
                w64(supporting.count())
            })
            .collect()
    }

    /// Tree supports of raw-item candidates through the L1 index.
    fn tree_supports(
        customers: &[CustomerTransactions],
        candidates: &[Vec<Item>],
        config: &AprioriConfig,
    ) -> Vec<u64> {
        let mut items: Vec<Item> = candidates.iter().flatten().copied().collect();
        items.sort_unstable();
        items.dedup();
        let index = L1Index::new(items);
        let in_l1: Vec<Vec<u32>> = candidates
            .iter()
            .map(|c| c.iter().filter_map(|&i| index.get(i)).collect())
            .collect();
        let mut counter = CandidateCounter::new(&index, &in_l1, config);
        counter.count(customers);
        counter.supports()
    }

    fn l1_of(customers: &[CustomerTransactions]) -> L1Index {
        let (_, singles) = count_single_items(customers, 1);
        L1Index::new(singles.into_iter().map(|(item, _)| item).collect())
    }

    /// Pass 2 through the counter, mapped back to raw items.
    fn large_pairs(
        customers: &[CustomerTransactions],
        index: &L1Index,
        min_count: u64,
        threads: usize,
    ) -> Vec<(Item, Item, u64)> {
        let mut counter = PairCounter::new(index, threads);
        counter.count(customers);
        counter
            .into_large(min_count)
            .into_iter()
            .map(|(i, j, s)| (index.item(i), index.item(j), s))
            .collect()
    }

    #[test]
    fn sorted_subset_basics() {
        assert!(sorted_subset(&[], &[]));
        assert!(sorted_subset(&[], &[1]));
        assert!(sorted_subset(&[1], &[1]));
        assert!(sorted_subset(&[1, 3], &[1, 2, 3]));
        assert!(!sorted_subset(&[1, 4], &[1, 2, 3]));
        assert!(!sorted_subset(&[1], &[]));
        assert!(!sorted_subset(&[0], &[1, 2]));
    }

    #[test]
    fn single_items_sorted_and_thresholded() {
        let customers = vec![vec![vec![5, 9]], vec![vec![5], vec![9]], vec![vec![9]]];
        let (distinct, large) = count_single_items(&customers, 2);
        assert_eq!(distinct, 2);
        assert_eq!(large, vec![(5, 2), (9, 3)]);
    }

    #[test]
    fn single_items_past_the_dense_limit_use_ranks() {
        let top = u32::MAX;
        let customers = vec![
            vec![vec![1, top - 1, top], vec![top]],
            vec![vec![top - 1]],
            vec![vec![1, top]],
        ];
        let (distinct, large) = count_single_items(&customers, 2);
        assert_eq!(distinct, 3);
        assert_eq!(large, vec![(1, 2), (top - 1, 2), (top, 2)]);
    }

    #[test]
    fn distinct_items() {
        let customers = vec![vec![vec![1, 2]], vec![vec![2, 3], vec![1]]];
        assert_eq!(count_single_items(&customers, 1).0, 3);
    }

    #[test]
    fn l1_index_maps_dense_and_sparse_universes() {
        for items in [vec![2u32, 7, 9], vec![2, 7, u32::MAX]] {
            let index = L1Index::new(items.clone());
            for (i, &item) in items.iter().enumerate() {
                assert_eq!(index.get(item), Some(i as u32));
                assert_eq!(index.item(i as u32), item);
            }
            assert_eq!(index.get(3), None);
            assert_eq!(index.get(u32::MAX - 1), None);
        }
    }

    #[test]
    fn tree_counting_dedupes_per_customer() {
        let customers = vec![vec![vec![1, 2, 3], vec![1, 2, 3], vec![1, 2, 3]]];
        let supports = tree_supports(&customers, &[vec![1, 2, 3]], &AprioriConfig::default());
        assert_eq!(supports, vec![1]);
    }

    #[test]
    fn pair_counter_matches_brute_force() {
        let customers: Vec<CustomerTransactions> = vec![
            vec![vec![1, 2, 3], vec![2, 5]],
            vec![vec![1, 2], vec![1, 2]],
            vec![vec![3, 5]],
        ];
        let index = l1_of(&customers);
        let all_pairs: Vec<Vec<Item>> = vec![
            vec![1, 2],
            vec![1, 3],
            vec![1, 5],
            vec![2, 3],
            vec![2, 5],
            vec![3, 5],
        ];
        let mut counter = PairCounter::new(&index, 1);
        assert_eq!(counter.candidates(), 6);
        counter.count(&customers);
        let expected: Vec<(Item, Item, u64)> = all_pairs
            .iter()
            .zip(brute_supports(&customers, &all_pairs))
            .filter(|&(_, s)| s >= 1)
            .map(|(p, s)| (p[0], p[1], s))
            .collect();
        assert_eq!(large_pairs(&customers, &index, 1, 1), expected);
    }

    #[test]
    fn pair_counter_dedupes_per_customer_and_adds_up_batches() {
        let customers: Vec<CustomerTransactions> = vec![vec![vec![1, 2], vec![1, 2], vec![1, 2]]];
        let index = l1_of(&customers);
        assert_eq!(large_pairs(&customers, &index, 1, 1), vec![(1, 2, 1)]);
        let mut counter = PairCounter::new(&index, 1);
        counter.count(&customers);
        counter.count(&customers);
        assert_eq!(counter.into_large(2), vec![(0, 1, 2)]);
    }

    #[test]
    fn hash_tree_counting_matches_brute_force_on_random_input() {
        let mut customers: Vec<CustomerTransactions> = Vec::new();
        let mut x: u32 = 41;
        for _ in 0..25 {
            let mut txs = Vec::new();
            for _ in 0..4 {
                let mut t: Vec<Item> = Vec::new();
                for _ in 0..5 {
                    x = x.wrapping_mul(48271) % 0x7fffffff;
                    t.push(x % 15);
                }
                t.sort_unstable();
                t.dedup();
                txs.push(t);
            }
            customers.push(txs);
        }
        let mut candidates: Vec<Vec<Item>> = Vec::new();
        for a in 0..13u32 {
            for b in (a + 1)..14 {
                candidates.push(vec![a, b, 14]);
            }
        }
        let config = AprioriConfig {
            hash_tree_leaf_capacity: 2,
            hash_tree_fanout: 3,
            ..AprioriConfig::default()
        };
        assert_eq!(
            tree_supports(&customers, &candidates, &config),
            brute_supports(&customers, &candidates)
        );
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let customers: Vec<CustomerTransactions> = (0..33u32)
            .map(|c| vec![vec![c % 4, 4 + c % 3, 8 + c % 2], vec![c % 5, 4 + c % 3]])
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
        let candidates: Vec<Vec<Item>> = (0..8u32)
            .flat_map(|a| ((a + 1)..9).map(move |b| vec![a, b, 9]))
            .collect();
        let index = l1_of(&customers);
        let serial_pairs = large_pairs(&customers, &index, 2, 1);
        let serial_tree = brute_supports(&customers, &candidates);
        for threads in [1, 2, 3, 7, 64] {
            assert_eq!(large_pairs(&customers, &index, 2, threads), serial_pairs);
            let config = AprioriConfig {
                parallelism: crate::Parallelism::threads(threads),
                ..AprioriConfig::default()
            };
            assert_eq!(tree_supports(&customers, &candidates, &config), serial_tree);
        }
    }
}
