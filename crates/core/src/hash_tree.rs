//! Hash tree over candidate **sequences** (paper §4, implementation).
//!
//! The sequence-phase analogue of the Apriori itemset hash tree: interior
//! nodes hash on the litemset id at the node's depth; leaves hold candidate
//! indices. To find the candidates contained in a transformed customer
//! sequence, the probe explores, at each interior node, every `(transaction,
//! id)` pair that could match the next candidate position — advancing the
//! transaction cursor strictly, because consecutive sequence elements must
//! come from distinct, later transactions. Leaf hits are verified with the
//! exact containment test against the full customer sequence (hash
//! collisions make path information insufficient, exactly as in the itemset
//! tree).
//!
//! ## Probe micro-architecture (see DESIGN.md "Kernel micro-architecture")
//!
//! The tree is **built** as a pointer tree (simple recursive inserts with
//! leaf splitting — build runs once per pass, cold) and then **flattened**
//! into three flat arrays in depth-first pre-order (`FlatNode`): a node
//! table, a child-index table (`fanout` slots per interior node), and a
//! concatenated leaf-candidate pool. The probe is an **iterative** loop
//! over an explicit work stack (scratch retained in [`VisitSet`], so a
//! customer probe allocates nothing in the steady state): popping a node is
//! one table load instead of a pointer chase through heap-scattered enum
//! nodes, subtrees are depth-first contiguous so a descent walks forward
//! through one cache stream, and there is no call overhead per visited
//! node. The multiset of visited `(node, cursor)` states is identical to
//! the recursive walk's — only the visit *order* changes, which the
//! epoch-deduplication already makes unobservable — so matches, support
//! counts, and the `verify_calls` counter are bit-identical. Visits are
//! counted in `probe_nodes` (a per-customer pure function of the data,
//! hence thread-invariant under customer sharding).

use crate::arena::CandidateArena;
use crate::cast::{id32, idx};
use crate::contain::customer_contains;
use crate::types::transformed::{LitemsetId, TransformedCustomer};
use seqpat_itemset::hash_tree::VisitStamps;

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
        for (i, cand) in candidates.iter().enumerate() {
            // seqpat-lint: allow(no-alloc-in-hot-loop) tree construction allocates per split; the probe path is allocation-free
            insert(
                &mut root,
                cand,
                id32(i),
                0,
                fanout,
                leaf_capacity,
                candidates,
            );
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
    /// `customer`. Each contained candidate is reported **exactly once**
    /// (deduplication is internal); `verify_calls` is incremented once per
    /// exact containment test executed and `probe_nodes` once per flat node
    /// visited, feeding the harness's machine-independent counters.
    pub fn for_each_contained(
        &self,
        customer: &TransformedCustomer,
        candidates: &CandidateArena,
        seen: &mut VisitSet,
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
        seen.stamps.next_epoch();
        // Move the scratch out so the loop can stamp `seen` while pushing;
        // moved back below — the buffer (and its capacity) survives across
        // customers either way.
        let mut stack = std::mem::take(&mut seen.stack);
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
                    if seen.stamps.first_visit(id) {
                        *verify_calls += 1;
                        if customer_contains(customer, candidates.get(idx(id))) {
                            on_match(id);
                        }
                    }
                }
            } else {
                let kids = &self.children[idx(node.start)..idx(node.start) + self.fanout];
                for t in idx(cursor)..customer.elements.len() {
                    for &lid in &customer.elements[t] {
                        stack.push((kids[bucket(lid, self.fanout)], id32(t + 1)));
                    }
                }
            }
        }
        seen.stack = stack;
    }
}

fn bucket(id: LitemsetId, fanout: usize) -> usize {
    idx(id.wrapping_mul(2654435761)) % fanout
}

#[allow(clippy::too_many_arguments)]
fn insert(
    node: &mut Node,
    cand: &[LitemsetId],
    slot: u32,
    depth: usize,
    fanout: usize,
    leaf_capacity: usize,
    candidates: &CandidateArena,
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
            if ids.len() > leaf_capacity && depth < cand.len() {
                let old = std::mem::take(ids);
                // seqpat-lint: allow(no-alloc-in-hot-loop) Vec::new() is capacity-0 (no heap allocation) and the split path is cold — it runs once per overflowing leaf, not per insert
                let mut children: Vec<Node> = (0..fanout).map(|_| Node::Leaf(Vec::new())).collect();
                for id in old {
                    match &mut children[bucket(candidates.get(idx(id))[depth], fanout)] {
                        Node::Leaf(v) => v.push(id),
                        // seqpat-lint: allow(no-panic-in-kernels) every child was created as a leaf two lines up and nothing re-splits them before this loop ends
                        Node::Interior(_) => unreachable!(),
                    }
                }
                *node = Node::Interior(children);
            }
        }
    }
}

/// Epoch-stamped visited set over candidate indices (one epoch per
/// customer, via the itemset tree's [`VisitStamps`]), so a candidate
/// reachable along many tree paths is verified once per customer. Also
/// owns the probe's work-stack scratch, so the iterative walk reuses one
/// buffer across every customer of a pass.
#[derive(Debug)]
pub struct VisitSet {
    stamps: VisitStamps,
    /// `(node index, transaction cursor)` work stack of the flat probe.
    stack: Vec<(u32, u32)>,
}

impl VisitSet {
    /// Creates a set for `n` candidates.
    pub fn new(n: usize) -> Self {
        Self {
            stamps: VisitStamps::new(n),
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

    fn matched(
        tree: &SequenceHashTree,
        cands: &CandidateArena,
        c: &TransformedCustomer,
    ) -> Vec<u32> {
        let mut seen = VisitSet::new(cands.num_candidates());
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
        let mut seen = VisitSet::new(1);
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
    fn each_candidate_verified_at_most_once_per_customer() {
        let cands = arena(&[vec![3, 3]]);
        let tree = SequenceHashTree::build(&cands, 4, 1);
        // Id 3 occurs in four transactions → many tree paths.
        let c = customer(vec![vec![3], vec![3], vec![3], vec![3]]);
        let mut seen = VisitSet::new(1);
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
