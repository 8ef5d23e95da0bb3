//! The candidate hash tree of Apriori (VLDB 1994 §2.1.2).
//!
//! Candidates are stored in a tree whose interior nodes hash on the item at
//! the node's depth; leaves hold candidate indices. To find the candidates
//! contained in a sorted transaction, the probe descends from an interior
//! node into each child bucket that some item after the node's cursor
//! hashes to, and gives that child the **earliest** such item's position
//! plus one as its cursor. Greedy earliest matching is exact for subset
//! existence (a later cursor only shrinks what the subtree can still
//! match), so every node is visited at most once per transaction and every
//! candidate, living in one leaf, is tested at most once. At a leaf a
//! candidate is contained iff each of its items is present in the
//! transaction (hash collisions make the path itself insufficient).
//! Across the transactions of one customer a candidate can still match
//! several times; callers deduplicate with [`VisitStamps`].
//!
//! The tree is one flat arena: nodes live in a `Vec`, an interior node
//! names the index of its first child, and its `fanout` children are
//! consecutive. The probe is an iterative loop over an explicit work
//! stack held in [`ProbeScratch`] with the presence flags, so it
//! allocates nothing in the steady state.

use crate::cast::{id32, idx};
use crate::Item;

/// Hash tree over a fixed candidate set (all candidates have equal length).
/// Items must be dense (below the universe a [`ProbeScratch`] is sized
/// for): the litemset phase feeds it L1 indices, not raw item ids.
#[derive(Debug)]
pub struct HashTree {
    nodes: Vec<Node>,
    /// Candidates, `k` items each, back to back.
    items: Vec<Item>,
    fanout: usize,
    k: usize,
}

#[derive(Debug)]
enum Node {
    /// Candidate indices.
    Leaf(Vec<u32>),
    /// Index of the first of `fanout` consecutive children.
    Interior(u32),
}

impl HashTree {
    /// Builds a tree over `candidates`; all must have identical length ≥ 1.
    ///
    /// `fanout` is the interior branching factor, `leaf_capacity` the number
    /// of candidates a leaf holds before splitting (leaves at maximum depth
    /// never split and may exceed it).
    pub fn build(candidates: &[Vec<Item>], fanout: usize, leaf_capacity: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        assert!(leaf_capacity >= 1, "leaf capacity must be at least 1");
        let k = candidates.first().map_or(0, |c| c.len());
        assert!(
            candidates.iter().all(|c| c.len() == k),
            "all candidates in one tree must have equal length"
        );
        let mut tree = Self {
            nodes: vec![Node::Leaf(Vec::new())],
            items: candidates.concat(),
            fanout,
            k,
        };
        for slot in 0..candidates.len() {
            tree.insert(id32(slot), leaf_capacity);
        }
        tree
    }

    /// Number of candidates stored.
    pub fn len(&self) -> usize {
        self.items.len().checked_div(self.k).unwrap_or(0)
    }

    /// True when the tree holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items of candidate `slot`.
    fn candidate(&self, slot: u32) -> &[Item] {
        debug_assert!(idx(slot) < self.len(), "slots index the candidates");
        &self.items[idx(slot) * self.k..(idx(slot) + 1) * self.k]
    }

    /// Descends by the item at each depth to a leaf, and splits the leaf
    /// on the item at its depth once it outgrows `leaf_capacity` (a leaf
    /// at the candidate length never splits).
    fn insert(&mut self, slot: u32, leaf_capacity: usize) {
        let (mut ni, mut depth) = (0, 0);
        while let Node::Interior(first) = self.nodes[ni] {
            ni = idx(first) + bucket(self.candidate(slot)[depth], self.fanout);
            depth += 1;
        }
        debug_assert!(
            depth <= self.k,
            "interior nodes sit above the candidate length, so the depth cursor stays in range"
        );
        let Node::Leaf(ids) = &mut self.nodes[ni] else {
            return;
        };
        ids.push(slot);
        if ids.len() <= leaf_capacity || depth == self.k {
            return;
        }
        let full = std::mem::take(ids);
        let mut kids = vec![Vec::new(); self.fanout];
        for id in full {
            kids[bucket(self.candidate(id)[depth], self.fanout)].push(id);
        }
        self.nodes[ni] = Node::Interior(id32(self.nodes.len()));
        self.nodes.extend(kids.into_iter().map(Node::Leaf));
    }

    /// Invokes `on_match` for every candidate index whose itemset is a
    /// subset of the sorted, duplicate-free `transaction`, each at most
    /// once. `scratch` must be sized for every item of the transaction.
    pub fn for_each_contained(
        &self,
        transaction: &[Item],
        scratch: &mut ProbeScratch,
        on_match: &mut impl FnMut(u32),
    ) {
        if self.is_empty() || transaction.len() < self.k {
            return;
        }
        debug_assert!(
            transaction.windows(2).all(|w| w[0] < w[1]),
            "transactions are sorted and duplicate-free"
        );
        let ProbeScratch {
            present,
            pushed,
            stack,
        } = scratch;
        for &item in transaction {
            present[idx(item)] = true;
        }
        pushed.resize(self.fanout, false);
        stack.clear();
        stack.push((0, 0, 0));
        while let Some((ni, cursor, depth)) = stack.pop() {
            match &self.nodes[idx(ni)] {
                Node::Leaf(ids) => {
                    for &id in ids {
                        if self.candidate(id).iter().all(|&i| present[idx(i)]) {
                            on_match(id);
                        }
                    }
                }
                Node::Interior(first) => {
                    // Each child bucket once, at the earliest item hashing
                    // to it that still leaves room for the deeper items.
                    pushed.fill(false);
                    let last = transaction.len() - (self.k - idx(depth));
                    for (i, &item) in transaction
                        .iter()
                        .enumerate()
                        .take(last + 1)
                        .skip(idx(cursor))
                    {
                        let b = bucket(item, self.fanout);
                        if !pushed[b] {
                            pushed[b] = true;
                            stack.push((first + id32(b), id32(i + 1), depth + 1));
                        }
                    }
                }
            }
        }
        for &item in transaction {
            present[idx(item)] = false;
        }
    }
}

fn bucket(item: Item, fanout: usize) -> usize {
    // Multiplicative scrambling: sequential item ids (the common case from
    // the generator) otherwise land in sequential buckets and skew leaves.
    idx(item.wrapping_mul(2654435761)) % fanout
}

/// Per-worker probe scratch, reused across transactions: the presence
/// flags of the current transaction's items (sized for the item universe
/// once, cleared per transaction over its own items), the interior node's
/// child-bucket flags, and the `(node, cursor, depth)` work stack.
#[derive(Debug, Clone)]
pub struct ProbeScratch {
    present: Vec<bool>,
    pushed: Vec<bool>,
    stack: Vec<(u32, u32, u32)>,
}

impl ProbeScratch {
    /// Creates scratch for items below `universe`.
    pub fn new(universe: usize) -> Self {
        Self {
            present: vec![false; universe],
            pushed: Vec::new(),
            stack: Vec::new(),
        }
    }
}

/// Per-candidate visit stamps for deduplicating matches across the
/// transactions of one customer.
///
/// The tree reports a candidate at most once per transaction, but a
/// customer's transactions can each contain it. Counting code stamps each
/// candidate with an epoch — one epoch per customer — so each candidate is
/// counted once per customer without clearing a bitmap between customers.
#[derive(Debug, Clone)]
pub struct VisitStamps {
    stamps: Vec<u64>,
    epoch: u64,
}

impl VisitStamps {
    /// Creates stamps for `n` candidates, all unvisited.
    pub fn new(n: usize) -> Self {
        Self {
            stamps: vec![0; n],
            epoch: 0,
        }
    }

    /// Starts a new epoch; all candidates become unvisited.
    #[inline]
    pub fn next_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Marks `cand` visited in the current epoch; returns `true` iff this is
    /// the first visit this epoch.
    #[inline]
    pub fn first_visit(&mut self, cand: u32) -> bool {
        debug_assert!(idx(cand) < self.stamps.len(), "one stamp per candidate");
        let slot = &mut self.stamps[idx(cand)];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches(tree: &HashTree, trans: &[Item]) -> Vec<u32> {
        let universe = trans.iter().chain(&tree.items).map(|&i| idx(i) + 1).max();
        let mut scratch = ProbeScratch::new(universe.unwrap_or(0));
        let mut out = Vec::new();
        tree.for_each_contained(trans, &mut scratch, &mut |id| out.push(id));
        let reported = out.len();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), reported, "a candidate was reported twice");
        out
    }

    fn brute(cands: &[Vec<Item>], trans: &[Item]) -> Vec<u32> {
        (0..cands.len())
            .filter(|&i| cands[i].iter().all(|x| trans.contains(x)))
            .map(id32)
            .collect()
    }

    #[test]
    fn finds_exactly_the_contained_candidates() {
        let cands: Vec<Vec<Item>> =
            vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![2, 4], vec![3, 4]];
        let tree = HashTree::build(&cands, 4, 2);
        assert_eq!(matches(&tree, &[1, 2, 3]), vec![0, 1, 2]);
        assert_eq!(matches(&tree, &[2, 4]), vec![3]);
        assert_eq!(matches(&tree, &[5, 6]), Vec::<u32>::new());
    }

    #[test]
    fn transaction_shorter_than_candidates_matches_nothing() {
        let cands = vec![vec![1, 2, 3]];
        let tree = HashTree::build(&cands, 4, 2);
        assert!(matches(&tree, &[1, 2]).is_empty());
    }

    #[test]
    fn deep_split_still_correct() {
        // Tiny capacity forces maximal splitting.
        let cands: Vec<Vec<Item>> = (0..30u32).map(|i| vec![i, i + 1, i + 2]).collect();
        let tree = HashTree::build(&cands, 2, 1);
        assert!(tree.nodes.len() > 1, "capacity 1 must split the root");
        for (i, c) in cands.iter().enumerate() {
            assert_eq!(matches(&tree, c), vec![i as u32]);
        }
        // A transaction covering several candidates.
        let trans: Vec<Item> = (0..10).collect();
        let expect: Vec<u32> = (0..8).collect();
        assert_eq!(matches(&tree, &trans), expect);
    }

    #[test]
    fn exhaustive_agreement_with_linear_scan() {
        // Pseudo-random small universe, compare tree vs. brute force.
        let mut cands = Vec::new();
        let mut x: u32 = 7;
        for _ in 0..60 {
            x = x.wrapping_mul(48271) % 0x7fffffff;
            let a = x % 12;
            let b = a + 1 + (x >> 8) % 6;
            let c = b + 1 + (x >> 16) % 6;
            cands.push(vec![a, b, c]);
        }
        cands.sort();
        cands.dedup();
        let tree = HashTree::build(&cands, 4, 3);
        for t in 0..40u32 {
            let trans: Vec<Item> = (0..24)
                .filter(|i| (t.wrapping_mul(31) + i) % 3 != 0)
                .collect();
            assert_eq!(matches(&tree, &trans), brute(&cands, &trans));
        }
    }

    #[test]
    fn children_are_consecutive_and_every_slot_sits_in_one_leaf() {
        let cands: Vec<Vec<Item>> = (0..40u32).map(|i| vec![i % 7, 7 + i]).collect();
        let tree = HashTree::build(&cands, 3, 2);
        let mut slots = Vec::new();
        for (ni, node) in tree.nodes.iter().enumerate() {
            match node {
                Node::Leaf(ids) => slots.extend_from_slice(ids),
                Node::Interior(first) => {
                    assert!(idx(*first) > ni);
                    assert!(idx(*first) + 3 <= tree.nodes.len());
                }
            }
        }
        slots.sort_unstable();
        assert_eq!(slots, (0..40).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_tree_is_inert() {
        let cands: Vec<Vec<Item>> = Vec::new();
        let tree = HashTree::build(&cands, 4, 2);
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert!(matches(&tree, &[1, 2, 3]).is_empty());
    }

    #[test]
    fn visit_stamps_reset_per_epoch() {
        let mut s = VisitStamps::new(3);
        s.next_epoch();
        assert!(s.first_visit(1));
        assert!(!s.first_visit(1));
        s.next_epoch();
        assert!(s.first_visit(1));
    }
}
