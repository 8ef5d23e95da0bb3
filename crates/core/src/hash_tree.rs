//! Hash tree over candidate **sequences** (paper §4, implementation).
//!
//! The sequence-phase analogue of the Apriori itemset hash tree: interior
//! nodes hash on the litemset id at the node's depth; leaves hold candidate
//! indices. To find the candidates contained in a transformed customer
//! sequence, the probe descends from an interior node into each child
//! bucket that some `(transaction, id)` pair after the node's transaction
//! cursor hashes to, and gives that child the **earliest** such
//! transaction plus one as its cursor, because consecutive sequence
//! elements must come from distinct, later transactions. Greedy earliest
//! matching is exact for subsequence existence: a later cursor can only
//! shrink what the subtree can still match, so the earliest one reaches
//! every leaf any other choice would. Since each node has one parent and
//! is pushed at most once by it, every node is visited **at most once**
//! per customer, and since each candidate lives in one leaf, each
//! candidate is considered at most once — no visited-set deduplication is
//! needed.
//!
//! At a leaf, a candidate using a litemset id the customer never bought is
//! skipped by a presence check, without a containment test; the rest are
//! verified with the exact containment test against the full customer
//! sequence (hash collisions make path information insufficient, exactly as
//! in the itemset tree).
//!
//! ## Probe micro-architecture (see DESIGN.md "Kernel micro-architecture")
//!
//! The tree is **built** as a pointer tree (simple recursive inserts with
//! leaf splitting — build runs once per pass, cold) and then **flattened**
//! into three flat arrays in depth-first pre-order (`FlatNode`): a node
//! table, a child-index table (`fanout` slots per interior node), and a
//! concatenated leaf-candidate pool. The probe is an **iterative** loop
//! over an explicit work stack: popping a node is one table load instead of
//! a pointer chase through heap-scattered enum nodes, subtrees are
//! depth-first contiguous so a descent walks forward through one cache
//! stream, and there is no call overhead per visited node. The stack, the
//! per-node bucket flags and the id-presence flags live in
//! [`ProbeScratch`], so a customer probe allocates nothing in the steady
//! state. Visits are counted in `probe_nodes` and containment tests in
//! `verify_calls`, each a per-customer pure function of the data, hence
//! thread-invariant under customer sharding.

use crate::arena::CandidateArena;
use crate::cast::{id32, idx};
use crate::contain::customer_contains;
use crate::types::transformed::{LitemsetId, TransformedCustomer};

/// Tag in [`FlatNode::len`] marking an interior node (a leaf can never
/// reach it: candidate slots are `u32` indices, so a leaf holds fewer than
/// `u32::MAX` entries).
const INTERIOR: u32 = u32::MAX;

/// One node of the flattened tree. Interior: `children[start..start+fanout]`
/// are the child node indices, `len == INTERIOR`. Leaf:
/// `leaf_ids[start..start+len]` are the candidate slots.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    start: u32,
    len: u32,
}

/// Hash tree over equal-length candidate id-sequences, stored flat in
/// depth-first pre-order (node 0 is the root).
#[derive(Debug)]
pub struct SequenceHashTree {
    nodes: Vec<FlatNode>,
    children: Vec<u32>,
    leaf_ids: Vec<u32>,
    fanout: usize,
    candidate_len: usize,
    len: usize,
}

/// Build-time pointer tree, flattened into [`SequenceHashTree`] before any
/// probe runs.
#[derive(Debug)]
enum Node {
    Leaf(Vec<u32>),
    Interior(Vec<Node>),
}

impl SequenceHashTree {
    /// Builds a tree over the candidates of one arena (equal length ≥ 1
    /// by construction).
    pub fn build(candidates: &CandidateArena, fanout: usize, leaf_capacity: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        assert!(leaf_capacity >= 1, "leaf capacity must be at least 1");
        let candidate_len = if candidates.is_empty() {
            0
        } else {
            candidates.candidate_len()
        };
        let mut root = Node::Leaf(Vec::new());
        for slot in 0..candidates.num_candidates() {
            // seqpat-lint: allow(no-alloc-in-hot-loop) tree construction allocates per split; the probe path is allocation-free
            insert(&mut root, id32(slot), candidates, fanout, leaf_capacity);
        }
        let mut tree = Self {
            nodes: Vec::new(),
            children: Vec::new(),
            leaf_ids: Vec::new(),
            fanout,
            candidate_len,
            len: candidates.num_candidates(),
        };
        tree.flatten(root);
        tree
    }

    /// Flattens the pointer tree depth-first pre-order into the three flat
    /// arrays (cold: once per build; recursion depth ≤ candidate length).
    fn flatten(&mut self, node: Node) -> u32 {
        let my = id32(self.nodes.len());
        match node {
            Node::Leaf(ids) => {
                self.nodes.push(FlatNode {
                    start: id32(self.leaf_ids.len()),
                    len: id32(ids.len()),
                });
                self.leaf_ids.extend(ids);
            }
            Node::Interior(kids) => {
                debug_assert_eq!(
                    kids.len(),
                    self.fanout,
                    "interior nodes always carry exactly fanout children"
                );
                let cstart = self.children.len();
                self.nodes.push(FlatNode {
                    start: id32(cstart),
                    len: INTERIOR,
                });
                self.children.resize(cstart + self.fanout, 0);
                for (b, kid) in kids.into_iter().enumerate() {
                    let child = self.flatten(kid);
                    self.children[cstart + b] = child;
                }
            }
        }
        my
    }

    /// Number of candidates stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Calls `on_match(candidate_index)` for every candidate contained in
    /// `customer`. Each contained candidate is reported **exactly once**;
    /// `verify_calls` is incremented once per exact containment test
    /// executed and `probe_nodes` once per flat node visited, feeding the
    /// harness's machine-independent counters. `scratch` must be sized for
    /// every litemset id the customer and the candidates use.
    pub fn for_each_contained(
        &self,
        customer: &TransformedCustomer,
        candidates: &CandidateArena,
        scratch: &mut ProbeScratch,
        verify_calls: &mut u64,
        probe_nodes: &mut u64,
        on_match: &mut impl FnMut(u32),
    ) {
        if self.len == 0 || customer.elements.len() < self.candidate_len {
            return;
        }
        debug_assert!(
            !self.nodes.is_empty(),
            "a flattened tree always has a root at node 0"
        );
        let ProbeScratch {
            present,
            pushed,
            stack,
        } = scratch;
        for &id in customer.elements.iter().flatten() {
            present[idx(id)] = true;
        }
        pushed.resize(self.fanout, false);
        stack.clear();
        stack.push((0u32, 0u32));
        while let Some((ni, cursor)) = stack.pop() {
            *probe_nodes += 1;
            debug_assert!(
                idx(ni) < self.nodes.len() && idx(cursor) <= customer.elements.len(),
                "stack entries hold valid node indices and in-range transaction cursors"
            );
            let node = self.nodes[idx(ni)];
            if node.len != INTERIOR {
                for &id in &self.leaf_ids[idx(node.start)..idx(node.start) + idx(node.len)] {
                    let cand = candidates.get(idx(id));
                    if cand.iter().all(|&l| present[idx(l)]) {
                        *verify_calls += 1;
                        if customer_contains(customer, cand) {
                            on_match(id);
                        }
                    }
                }
            } else {
                // Each child bucket once, at the earliest transaction with
                // an id hashing to it.
                let kids = &self.children[idx(node.start)..idx(node.start) + self.fanout];
                pushed.fill(false);
                for t in idx(cursor)..customer.elements.len() {
                    for &lid in &customer.elements[t] {
                        let b = bucket(lid, self.fanout);
                        if !pushed[b] {
                            pushed[b] = true;
                            stack.push((kids[b], id32(t + 1)));
                        }
                    }
                }
            }
        }
        for &id in customer.elements.iter().flatten() {
            present[idx(id)] = false;
        }
    }
}

fn bucket(id: LitemsetId, fanout: usize) -> usize {
    idx(id.wrapping_mul(2654435761)) % fanout
}

/// Inserts candidate `slot`: descends by the id at each depth to a leaf,
/// and splits the leaf on the id at its depth once it outgrows
/// `leaf_capacity` (a leaf at the candidate length never splits).
fn insert(
    root: &mut Node,
    slot: u32,
    candidates: &CandidateArena,
    fanout: usize,
    leaf_capacity: usize,
) {
    debug_assert!(
        idx(slot) < candidates.num_candidates(),
        "slots index the arena; interior nodes sit above the candidate length and carry fanout children, so the descent's indices stay in range"
    );
    let cand = candidates.get(idx(slot));
    let (mut node, mut depth) = (root, 0);
    while let Node::Interior(children) = node {
        node = &mut children[bucket(cand[depth], fanout)];
        depth += 1;
    }
    if let Node::Leaf(ids) = node {
        ids.push(slot);
        if ids.len() > leaf_capacity && depth < cand.len() {
            let mut kids = vec![Vec::new(); fanout];
            for id in ids.drain(..) {
                kids[bucket(candidates.get(idx(id))[depth], fanout)].push(id);
            }
            *node = Node::Interior(kids.into_iter().map(Node::Leaf).collect());
        }
    }
}

/// Per-worker probe scratch, reused across every customer of a pass: the
/// id-presence flags of the current customer (sized from the litemset
/// alphabet once, cleared per customer over the customer's own ids), the
/// interior node's child-bucket flags, and the `(node index, transaction
/// cursor)` work stack of the flat probe.
#[derive(Debug)]
pub struct ProbeScratch {
    present: Vec<bool>,
    pushed: Vec<bool>,
    stack: Vec<(u32, u32)>,
}

impl ProbeScratch {
    /// Creates scratch for litemset ids below `num_ids`.
    pub fn new(num_ids: usize) -> Self {
        Self {
            present: vec![false; num_ids],
            pushed: Vec::new(),
            stack: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer(elements: Vec<Vec<LitemsetId>>) -> TransformedCustomer {
        TransformedCustomer {
            customer_id: 0,
            elements,
        }
    }

    fn arena(rows: &[Vec<LitemsetId>]) -> CandidateArena {
        CandidateArena::from_rows(
            rows.first().map_or(0, |r| r.len()),
            rows.iter().map(|r| r.as_slice()),
        )
    }

    /// One past the largest litemset id in `cands` or `c`.
    fn alphabet(cands: &CandidateArena, c: &TransformedCustomer) -> usize {
        let ids = cands.iter().flatten().chain(c.elements.iter().flatten());
        ids.map(|&id| idx(id) + 1).max().unwrap_or(0)
    }

    fn matched(
        tree: &SequenceHashTree,
        cands: &CandidateArena,
        c: &TransformedCustomer,
    ) -> Vec<u32> {
        let mut seen = ProbeScratch::new(alphabet(cands, c));
        let mut verify = 0;
        let mut probes = 0;
        let mut out = Vec::new();
        tree.for_each_contained(c, cands, &mut seen, &mut verify, &mut probes, &mut |id| {
            out.push(id)
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn finds_contained_sequences() {
        let cands = arena(&[
            vec![0, 4], // contained
            vec![4, 0], // wrong order
            vec![0, 0], // needs two transactions with 0
            vec![0, 1], // 1 absent
        ]);
        let tree = SequenceHashTree::build(&cands, 4, 1);
        let c = customer(vec![vec![0], vec![0, 4]]);
        assert_eq!(matched(&tree, &cands, &c), vec![0, 2]);
    }

    #[test]
    fn same_transaction_does_not_satisfy_order() {
        let cands = arena(&[vec![1, 2]]);
        let tree = SequenceHashTree::build(&cands, 4, 2);
        // Both ids in ONE transaction: ⟨1 2⟩ needs two transactions.
        assert!(matched(&tree, &cands, &customer(vec![vec![1, 2]])).is_empty());
        assert_eq!(
            matched(&tree, &cands, &customer(vec![vec![1], vec![2]])),
            vec![0]
        );
    }

    #[test]
    fn flat_layout_is_preorder_with_fanout_children_per_interior() {
        // Force splits: 80 random triples with leaf capacity 1.
        let mut x: u32 = 99;
        let mut rnd = move |m: u32| {
            x = x.wrapping_mul(48271) % 0x7fffffff;
            x % m
        };
        let mut cands: Vec<Vec<LitemsetId>> = Vec::new();
        for _ in 0..80 {
            cands.push(vec![rnd(8), rnd(8), rnd(8)]);
        }
        cands.sort();
        cands.dedup();
        let cands = arena(&cands);
        let tree = SequenceHashTree::build(&cands, 4, 1);
        let interior = tree.nodes.iter().filter(|n| n.len == INTERIOR).count();
        assert!(interior > 0, "capacity 1 must split the root");
        assert_eq!(tree.children.len(), interior * 4);
        // Every candidate slot appears in exactly one leaf.
        let mut slots: Vec<u32> = tree.leaf_ids.clone();
        slots.sort_unstable();
        let expected: Vec<u32> = (0..cands.num_candidates() as u32).collect();
        assert_eq!(slots, expected);
        // Every child index points at a later node (pre-order: children
        // come after their parent).
        for (ni, node) in tree.nodes.iter().enumerate() {
            if node.len == INTERIOR {
                for &c in &tree.children[idx(node.start)..idx(node.start) + 4] {
                    assert!(idx(c) > ni, "pre-order child {c} of node {ni}");
                    assert!(idx(c) < tree.nodes.len());
                }
            }
        }
    }

    #[test]
    fn agrees_with_linear_scan_on_random_input() {
        // Deterministic pseudo-random databases and candidates.
        let mut x: u32 = 1234;
        let mut rnd = move |m: u32| {
            x = x.wrapping_mul(48271) % 0x7fffffff;
            x % m
        };
        let mut cands: Vec<Vec<LitemsetId>> = Vec::new();
        for _ in 0..80 {
            cands.push(vec![rnd(8), rnd(8), rnd(8)]);
        }
        cands.sort();
        cands.dedup();
        let cands = arena(&cands);
        let tree = SequenceHashTree::build(&cands, 4, 2);
        for _ in 0..30 {
            let n_trans = 2 + rnd(6) as usize;
            let elements: Vec<Vec<LitemsetId>> = (0..n_trans)
                .map(|_| {
                    let mut e: Vec<LitemsetId> = (0..1 + rnd(4)).map(|_| rnd(8)).collect();
                    e.sort_unstable();
                    e.dedup();
                    e
                })
                .collect();
            let c = customer(elements);
            let brute: Vec<u32> = cands
                .iter()
                .enumerate()
                .filter(|&(_, cand)| customer_contains(&c, cand))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(matched(&tree, &cands, &c), brute);
        }
    }

    #[test]
    fn short_customer_prefiltered() {
        let cands = arena(&[vec![0, 1, 2]]);
        let tree = SequenceHashTree::build(&cands, 4, 2);
        let mut seen = ProbeScratch::new(3);
        let mut verify = 0;
        let mut probes = 0;
        let c = customer(vec![vec![0, 1, 2]]); // 1 transaction < candidate len 3
        tree.for_each_contained(&c, &cands, &mut seen, &mut verify, &mut probes, &mut |_| {
            panic!("nothing can match")
        });
        assert_eq!(verify, 0);
        assert_eq!(probes, 0, "the length prefilter skips the probe entirely");
    }

    #[test]
    fn deeper_buckets_are_entered_only_from_later_transactions() {
        // Leaf capacity 1 splits the root on the first id (all go to
        // bucket(1)) and that child on the second id: 9 nodes, 3 levels.
        let cands = arena(&[vec![1, 1], vec![1, 2], vec![1, 3]]);
        let tree = SequenceHashTree::build(&cands, 4, 1);
        assert_eq!(tree.nodes.len(), 9);
        // 1 and 2 share transaction 0, so only ⟨1 3⟩ can match. The depth-1
        // node is entered with cursor 1 and descends on id 3 alone: root,
        // three root children (ids 1, 2, 3) and the ⟨1 3⟩ leaf.
        let c = customer(vec![vec![1, 2], vec![3]]);
        let mut seen = ProbeScratch::new(4);
        let (mut verify, mut probes) = (0, 0);
        let mut hits = Vec::new();
        tree.for_each_contained(&c, &cands, &mut seen, &mut verify, &mut probes, &mut |id| {
            hits.push(id)
        });
        assert_eq!(hits, vec![2]);
        assert_eq!(
            verify, 1,
            "⟨1 1⟩ and ⟨1 2⟩ sit in leaves the probe never enters"
        );
        assert_eq!(probes, 5);
    }

    #[test]
    fn each_candidate_verified_at_most_once_per_customer() {
        let cands = arena(&[vec![3, 3]]);
        let tree = SequenceHashTree::build(&cands, 4, 1);
        // Id 3 occurs in four transactions → many tree paths.
        let c = customer(vec![vec![3], vec![3], vec![3], vec![3]]);
        let mut seen = ProbeScratch::new(4);
        let mut verify = 0;
        let mut probes = 0;
        let mut hits = 0;
        tree.for_each_contained(&c, &cands, &mut seen, &mut verify, &mut probes, &mut |_| {
            hits += 1
        });
        assert_eq!(hits, 1);
        assert_eq!(verify, 1);
        assert!(probes >= 1, "the probe visits at least the root");
    }
}

/// Property test of the pruned probe on multi-level trees: alphabets larger
/// than the fanout, small leaves, and customers that repeat ids across
/// transactions (so many tree paths lead to the same leaf).
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::cast::w64;
    use proptest::prelude::*;

    const HOT: usize = 6;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn probe_matches_linear_scan_and_stays_within_its_bounds(
            shape in (0usize..3, 1u32..60, 1usize..5, 1usize..5),
            raw_hot in proptest::collection::vec(0u32..10_000, HOT),
            raw_cands in proptest::collection::vec(
                (0u32..10_000, 0u32..10_000, 0u32..10_000, 0u32..10_000),
                0..80,
            ),
            raw_customers in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(0u32..10_000, 1..5), 0..9),
                1..6,
            ),
        ) {
            let (fanout_pick, extra_ids, leaf_capacity, cand_len) = shape;
            let fanout = [2usize, 16, 64][fanout_pick];
            let num_ids = id32(fanout) + extra_ids;
            // Two draws in three come from a small hot set, so customers
            // repeat ids across transactions and candidates often match.
            let id = |r: u32| {
                if r.is_multiple_of(3) {
                    r / 3 % num_ids
                } else {
                    raw_hot[idx(r) % HOT] % num_ids
                }
            };
            let mut rows: Vec<Vec<LitemsetId>> = raw_cands
                .iter()
                .map(|&(a, b, c, d)| [a, b, c, d][..cand_len].iter().map(|&r| id(r)).collect())
                .collect();
            rows.sort();
            rows.dedup();
            let cands = CandidateArena::from_rows(cand_len, rows.iter().map(|r| r.as_slice()));
            let tree = SequenceHashTree::build(&cands, fanout, leaf_capacity);
            let mut scratch = ProbeScratch::new(idx(num_ids));
            for raw in &raw_customers {
                let elements: Vec<Vec<LitemsetId>> = raw
                    .iter()
                    .map(|t| {
                        let mut e: Vec<LitemsetId> = t.iter().map(|&r| id(r)).collect();
                        e.sort_unstable();
                        e.dedup();
                        e
                    })
                    .collect();
                let c = TransformedCustomer { customer_id: 0, elements };
                let (mut verify, mut probes) = (0u64, 0u64);
                let mut reported = Vec::new();
                tree.for_each_contained(&c, &cands, &mut scratch, &mut verify, &mut probes, &mut |i| {
                    reported.push(i)
                });
                let reported_count = reported.len();
                reported.sort_unstable();
                reported.dedup();
                prop_assert_eq!(reported.len(), reported_count, "a candidate was reported twice");
                let brute: Vec<u32> = cands
                    .iter()
                    .enumerate()
                    .filter(|&(_, cand)| customer_contains(&c, cand))
                    .map(|(i, _)| id32(i))
                    .collect();
                prop_assert_eq!(&reported, &brute);
                let all_present = cands
                    .iter()
                    .filter(|cand| cand.iter().all(|l| c.elements.iter().any(|e| e.contains(l))))
                    .count();
                prop_assert!(verify <= w64(all_present), "{verify} tests > {all_present} present");
                prop_assert!(
                    probes <= w64(tree.nodes.len()),
                    "{probes} visits > {} nodes",
                    tree.nodes.len()
                );
            }
        }
    }
}
