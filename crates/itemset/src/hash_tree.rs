//! The candidate hash tree of Apriori (VLDB 1994 §2.1.2).
//!
//! Candidates are stored in a tree whose interior nodes hash on the item at
//! the node's depth; leaves hold candidate indices. To find all candidates
//! contained in a transaction `t = (t₁ … tₘ)` (sorted), the tree is walked
//! from the root: at an interior node of depth `d` reached by hashing item
//! `tᵢ`, every later item `tⱼ (j > i)` is hashed to pick the next child;
//! at a leaf, each stored candidate is verified with a subset test. A
//! candidate can be reached along several paths, so callers deduplicate with
//! a visit stamp (see [`VisitStamps`]).

use crate::cast::{id32, idx};
use crate::Item;

/// Hash tree over a fixed candidate set (all candidates have equal length).
#[derive(Debug)]
pub struct HashTree {
    root: Node,
    fanout: usize,
    candidate_len: usize,
    len: usize,
}

#[derive(Debug)]
enum Node {
    /// Candidate indices into the external candidate table.
    Leaf(Vec<u32>),
    Interior(Vec<Node>),
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
        let candidate_len = candidates.first().map_or(0, |c| c.len());
        assert!(
            candidates.iter().all(|c| c.len() == candidate_len),
            "all candidates in one tree must have equal length"
        );
        let mut tree = Self {
            root: Node::Leaf(Vec::new()),
            fanout,
            candidate_len,
            len: candidates.len(),
        };
        for (i, cand) in candidates.iter().enumerate() {
            // seqpat-lint: allow(no-alloc-in-hot-loop) tree construction allocates per split; the probe path is allocation-free
            insert(
                &mut tree.root,
                cand,
                id32(i),
                0,
                fanout,
                leaf_capacity,
                candidates,
            );
        }
        tree
    }

    /// Number of candidates stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Invokes `on_match` for every candidate index whose itemset is a
    /// subset of the (sorted) `transaction`. May report an index more than
    /// once; `candidates` must be the slice the tree was built from.
    pub fn for_each_contained(
        &self,
        transaction: &[Item],
        candidates: &[Vec<Item>],
        on_match: &mut impl FnMut(u32),
    ) {
        if self.len == 0 || transaction.len() < self.candidate_len {
            return;
        }
        walk(
            &self.root,
            transaction,
            transaction,
            candidates,
            self.fanout,
            on_match,
        );
    }
}

fn bucket(item: Item, fanout: usize) -> usize {
    // Multiplicative scrambling: sequential item ids (the common case from
    // the generator) otherwise land in sequential buckets and skew leaves.
    idx(item.wrapping_mul(2654435761)) % fanout
}

#[allow(clippy::too_many_arguments)]
fn insert(
    node: &mut Node,
    cand: &[Item],
    slot: u32,
    depth: usize,
    fanout: usize,
    leaf_capacity: usize,
    candidates: &[Vec<Item>],
) {
    debug_assert!(
        depth <= cand.len(),
        "interior nodes only exist above the candidate length, so the depth cursor stays in range"
    );
    match node {
        Node::Interior(children) => {
            let b = bucket(cand[depth], fanout);
            insert(
                &mut children[b],
                cand,
                slot,
                depth + 1,
                fanout,
                leaf_capacity,
                candidates,
            );
        }
        Node::Leaf(ids) => {
            ids.push(slot);
            // Split when over capacity, unless we already hash on the last
            // item position (deeper hashing has nothing left to discriminate).
            if ids.len() > leaf_capacity && depth < cand.len() {
                let old = std::mem::take(ids);
                // seqpat-lint: allow(no-alloc-in-hot-loop) Vec::new() is capacity-0 (no heap allocation) and the split path is cold — it runs once per overflowing leaf, not per insert
                let mut children: Vec<Node> = (0..fanout).map(|_| Node::Leaf(Vec::new())).collect();
                for id in old {
                    let b = bucket(candidates[idx(id)][depth], fanout);
                    // Direct push: children are fresh leaves; re-splitting is
                    // handled by subsequent inserts if they overflow again.
                    match &mut children[b] {
                        Node::Leaf(v) => v.push(id),
                        // seqpat-lint: allow(no-panic-in-kernels) every child was created as a leaf above and nothing re-splits them before this loop ends
                        Node::Interior(_) => unreachable!(),
                    }
                }
                *node = Node::Interior(children);
            }
        }
    }
}

fn walk(
    node: &Node,
    full_transaction: &[Item],
    remaining: &[Item],
    candidates: &[Vec<Item>],
    fanout: usize,
    on_match: &mut impl FnMut(u32),
) {
    debug_assert!(
        remaining.len() <= full_transaction.len(),
        "`remaining` is a suffix of the transaction being walked"
    );
    match node {
        Node::Leaf(ids) => {
            // Verify against the FULL transaction: hash collisions mean the
            // descended prefix is not guaranteed to correspond to actual
            // matching items. Completeness holds because for any contained
            // candidate the walk also descends along the buckets of the
            // candidate's own items.
            for &id in ids {
                if is_subset(&candidates[idx(id)], full_transaction) {
                    on_match(id);
                }
            }
        }
        Node::Interior(children) => {
            for (i, &item) in remaining.iter().enumerate() {
                let child = &children[bucket(item, fanout)];
                walk(
                    child,
                    full_transaction,
                    &remaining[i + 1..],
                    candidates,
                    fanout,
                    on_match,
                );
            }
        }
    }
}

/// Subset test on sorted, duplicate-free slices.
fn is_subset(cand: &[Item], trans: &[Item]) -> bool {
    debug_assert!(
        cand.windows(2).all(|w| w[0] < w[1]) && trans.windows(2).all(|w| w[0] < w[1]),
        "both slices are sorted and duplicate-free"
    );
    let mut ti = 0;
    'outer: for &c in cand {
        while ti < trans.len() {
            match trans[ti].cmp(&c) {
                std::cmp::Ordering::Less => ti += 1,
                std::cmp::Ordering::Equal => {
                    ti += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Per-candidate visit stamps for deduplicating hash-tree matches.
///
/// The tree can report a candidate several times for one transaction (one
/// per path). Counting code stamps each candidate with an epoch — one epoch
/// per (customer, pass) — so each candidate is processed once per epoch
/// without clearing a bitmap between customers.
#[derive(Debug)]
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

    fn matches(tree: &HashTree, cands: &[Vec<Item>], trans: &[Item]) -> Vec<u32> {
        let mut seen = VisitStamps::new(cands.len());
        seen.next_epoch();
        let mut out = Vec::new();
        tree.for_each_contained(trans, cands, &mut |id| {
            if seen.first_visit(id) {
                out.push(id);
            }
        });
        out.sort_unstable();
        out
    }

    #[test]
    fn finds_exactly_the_contained_candidates() {
        let cands: Vec<Vec<Item>> =
            vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![2, 4], vec![3, 4]];
        let tree = HashTree::build(&cands, 4, 2);
        assert_eq!(matches(&tree, &cands, &[1, 2, 3]), vec![0, 1, 2]);
        assert_eq!(matches(&tree, &cands, &[2, 4]), vec![3]);
        assert_eq!(matches(&tree, &cands, &[5, 6]), Vec::<u32>::new());
    }

    #[test]
    fn transaction_shorter_than_candidates_matches_nothing() {
        let cands = vec![vec![1, 2, 3]];
        let tree = HashTree::build(&cands, 4, 2);
        assert!(matches(&tree, &cands, &[1, 2]).is_empty());
    }

    #[test]
    fn deep_split_still_correct() {
        // Tiny capacity forces maximal splitting.
        let cands: Vec<Vec<Item>> = (0..30u32).map(|i| vec![i, i + 1, i + 2]).collect();
        let tree = HashTree::build(&cands, 2, 1);
        for (i, c) in cands.iter().enumerate() {
            assert_eq!(matches(&tree, &cands, c), vec![i as u32]);
        }
        // A transaction covering several candidates.
        let trans: Vec<Item> = (0..10).collect();
        let got = matches(&tree, &cands, &trans);
        let expect: Vec<u32> = (0..8).collect();
        assert_eq!(got, expect);
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
            let brute: Vec<u32> = cands
                .iter()
                .enumerate()
                .filter(|(_, c)| is_subset(c, &trans))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(matches(&tree, &cands, &trans), brute);
        }
    }

    #[test]
    fn empty_tree_is_inert() {
        let cands: Vec<Vec<Item>> = Vec::new();
        let tree = HashTree::build(&cands, 4, 2);
        assert!(tree.is_empty());
        assert!(matches(&tree, &cands, &[1, 2, 3]).is_empty());
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
