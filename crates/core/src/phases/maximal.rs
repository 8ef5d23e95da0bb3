//! Maximal phase (paper §3, phase 5): drop every large sequence contained
//! in another large sequence.
//!
//! Containment is the subset-aware relation on itemset sequences, since a
//! sequence of smaller litemsets is contained in one of larger ones even
//! when no id matches: `⟨(30)(40)⟩ ⊑ ⟨(30)(40 70)⟩`.
//!
//! Complexity note: as the paper suggests, this runs through the sequence
//! phase's hash tree (`PatternProbe`): one probe per kept pattern instead
//! of one test per (kept, candidate) pair.

use crate::arena::CandidateArena;
use crate::cast::idx;
use crate::counting::TreeParams;
use crate::hash_tree::{ProbeScratch, SequenceHashTree};
use crate::phases::transform::TransformContext;
use crate::types::transformed::{LitemsetId, LitemsetTable, TransformedCustomer};

/// A large sequence in id space with its support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LargeIdSequence {
    /// The litemset ids, in sequence order.
    pub ids: Vec<LitemsetId>,
    /// Number of supporting customers.
    pub support: u64,
}

/// Returns the maximal elements of `large` under subset-aware containment;
/// of identical sequences the first (in the order below) is kept.
///
/// Output keeps longest-first order (ties keep relative input order), which
/// is a convenient presentation order; callers re-sort as needed.
pub fn maximal_phase(
    mut large: Vec<LargeIdSequence>,
    table: &LitemsetTable,
) -> Vec<LargeIdSequence> {
    // Containers-first order: a container is longer, or — at equal length —
    // has more total items (equal-length containment forces the identity
    // index mapping, hence element-wise subsets).
    large.sort_by_cached_key(|s| {
        let items: usize = s.ids.iter().map(|&id| table.itemset(id).len()).sum();
        std::cmp::Reverse((s.ids.len(), items))
    });
    let dropped = contained_in_others(&large, table);
    let kept = large
        .into_iter()
        .zip(dropped)
        .filter(|&(_, dropped)| !dropped);
    kept.map(|(s, _)| s).collect()
}

/// Subset-aware containment as a hash-tree probe. Expanding each element
/// of a pattern into every litemset id whose itemset is a subset of it (the
/// transformation phase applied to patterns) makes subset-aware containment
/// plain id containment, so the sequences a pattern contains are one
/// [`SequenceHashTree`] probe with the pattern as the customer. The maximal
/// phase and the backward prune of AprioriSome and DynamicSome both run
/// through it. The probe's counters are not reported, so the sequence
/// phase's stay its own.
pub(crate) struct PatternProbe<'a> {
    table: &'a LitemsetTable,
    expand: TransformContext<'a>,
    pattern: TransformedCustomer,
    scratch: ProbeScratch,
}

impl<'a> PatternProbe<'a> {
    pub(crate) fn new(table: &'a LitemsetTable) -> Self {
        Self {
            table,
            expand: TransformContext::new(table),
            pattern: TransformedCustomer {
                customer_id: 0,
                elements: Vec::new(),
            },
            scratch: ProbeScratch::new(table.len()),
        }
    }

    /// A tree over `candidates` for [`PatternProbe::probe`].
    pub(crate) fn tree(candidates: &CandidateArena) -> SequenceHashTree {
        let TreeParams {
            fanout,
            leaf_capacity,
        } = TreeParams::default();
        SequenceHashTree::build(candidates, fanout, leaf_capacity)
    }

    /// Makes `ids` the pattern the next probes test, and returns its
    /// expanded elements.
    pub(crate) fn load(&mut self, ids: &[LitemsetId]) -> &[Vec<LitemsetId>] {
        let elements = &mut self.pattern.elements;
        elements.resize_with(ids.len(), Vec::new);
        for (element, &id) in elements.iter_mut().zip(ids) {
            self.expand.contained_ids(self.table.itemset(id), element);
        }
        elements
    }

    /// Calls `on_match(slot)` for every candidate of `tree` (built over
    /// `candidates`) contained in the loaded pattern.
    pub(crate) fn probe(
        &mut self,
        tree: &SequenceHashTree,
        candidates: &CandidateArena,
        mut on_match: impl FnMut(u32),
    ) {
        tree.for_each_contained(
            &self.pattern,
            candidates,
            &mut self.scratch,
            &mut 0,
            &mut 0,
            &mut on_match,
        );
    }
}

/// `dropped[i]`: `large[i]` is contained in another sequence of `large`,
/// or equals an earlier one.
fn contained_in_others(large: &[LargeIdSequence], table: &LitemsetTable) -> Vec<bool> {
    let mut dropped = vec![false; large.len()];
    // Length 1: each id's first position (later copies are dropped).
    let mut single: Vec<Option<usize>> = vec![None; table.len()];
    // Length L ≥ 2: the sequences and their positions, then a tree each.
    let max_len = large.first().map_or(0, |s| s.ids.len());
    let mut by_len: Vec<(CandidateArena, Vec<usize>)> = (0..=max_len)
        .map(|len| (CandidateArena::new(len), Vec::new()))
        .collect();
    for (pos, s) in large.iter().enumerate() {
        match s.ids[..] {
            [] => dropped[pos] = pos > 0,
            [id] => match &mut single[idx(id)] {
                Some(_) => dropped[pos] = true,
                first => *first = Some(pos),
            },
            _ => {
                let (arena, positions) = &mut by_len[s.ids.len()];
                arena.push(&s.ids);
                positions.push(pos);
            }
        }
    }
    let trees: Vec<SequenceHashTree> = by_len
        .iter()
        .map(|(arena, _)| PatternProbe::tree(arena))
        .collect();

    let mut probe = PatternProbe::new(table);
    for (pos, s) in large.iter().enumerate() {
        // A dropped sequence's container contains all it contains.
        if dropped[pos] {
            continue;
        }
        for &id in probe.load(&s.ids).iter().flatten() {
            if let Some(found) = single[idx(id)].filter(|&found| found != pos) {
                dropped[found] = true;
            }
        }
        for (len, tree) in trees.iter().enumerate().take(s.ids.len() + 1).skip(2) {
            let (arena, positions) = &by_len[len];
            probe.probe(tree, arena, |slot| {
                let found = positions[idx(slot)];
                dropped[found] |= found != pos;
            });
        }
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::itemset::Itemset;

    fn table() -> LitemsetTable {
        // 0=(30) 1=(40) 2=(40 70) 3=(70) 4=(90)
        LitemsetTable::new(vec![
            (Itemset::new(vec![30]), 4),
            (Itemset::new(vec![40]), 2),
            (Itemset::new(vec![40, 70]), 2),
            (Itemset::new(vec![70]), 3),
            (Itemset::new(vec![90]), 3),
        ])
    }

    fn seq(ids: Vec<u32>, support: u64) -> LargeIdSequence {
        LargeIdSequence { ids, support }
    }

    #[test]
    fn paper_answer_set() {
        // All large sequences at 25% in the paper's example; the maximal
        // ones are ⟨(30)(90)⟩ = [0,4] and ⟨(30)(40 70)⟩ = [0,2].
        let all = vec![
            seq(vec![0], 4),
            seq(vec![1], 2),
            seq(vec![2], 2),
            seq(vec![3], 3),
            seq(vec![4], 3),
            seq(vec![0, 1], 2),
            seq(vec![0, 2], 2),
            seq(vec![0, 3], 2),
            seq(vec![0, 4], 2),
        ];
        let max = maximal_phase(all, &table());
        let mut strs: Vec<Vec<u32>> = max.into_iter().map(|s| s.ids).collect();
        strs.sort();
        assert_eq!(strs, vec![vec![0, 2], vec![0, 4]]);
    }

    #[test]
    fn subset_awareness_prunes_across_ids() {
        // ⟨(40)⟩ is contained in ⟨(40 70)⟩ although ids differ.
        let max = maximal_phase(vec![seq(vec![1], 2), seq(vec![2], 2)], &table());
        assert_eq!(max.len(), 1);
        assert_eq!(max[0].ids, vec![2]);
    }

    #[test]
    fn equal_length_incomparable_sequences_all_kept() {
        let max = maximal_phase(vec![seq(vec![0, 4], 2), seq(vec![4, 0], 2)], &table());
        assert_eq!(max.len(), 2);
    }

    #[test]
    fn duplicates_collapse() {
        let max = maximal_phase(vec![seq(vec![0, 4], 2), seq(vec![0, 4], 2)], &table());
        assert_eq!(max.len(), 1);
    }

    #[test]
    fn equal_length_subset_aware_containment_keeps_the_larger() {
        // ⟨(30)(40)⟩ ⊑ ⟨(30)(40 70)⟩: same length, no id of the second
        // element matches.
        let max = maximal_phase(vec![seq(vec![0, 1], 2), seq(vec![0, 2], 2)], &table());
        assert_eq!(max, vec![seq(vec![0, 2], 2)]);
    }

    #[test]
    fn first_of_identical_sequences_is_kept_at_every_length() {
        let max = maximal_phase(
            vec![
                seq(vec![4], 3),
                seq(vec![4], 9),
                seq(vec![0, 4], 2),
                seq(vec![0, 4], 5),
            ],
            &table(),
        );
        assert_eq!(max, vec![seq(vec![0, 4], 2)]);
        let max = maximal_phase(vec![seq(vec![3], 1), seq(vec![3], 7)], &table());
        assert_eq!(max, vec![seq(vec![3], 1)]);
    }

    #[test]
    fn empty_input() {
        assert!(maximal_phase(vec![], &table()).is_empty());
    }
}

/// The probe-based phase against the quadratic scan it replaced
/// ([`crate::naive::maximal_by_scan`], over itemset sequences), on random
/// tables and sequence sets with duplicates, equal-length subset-aware
/// containment and no subsequence closure (AprioriSome and DynamicSome
/// hand the phase such sets).
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::naive::maximal_by_scan;
    use crate::types::itemset::Itemset;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn probe_matches_the_quadratic_scan(
            raw_sets in proptest::collection::vec(proptest::collection::btree_set(0u32..5, 1..=3), 1..=12),
            raw_seqs in proptest::collection::vec(
                (proptest::collection::vec(0u32..64, 1..=4), 1u64..5),
                0..=40,
            ),
            repeats in proptest::collection::vec(0usize..64, 0..=6),
        ) {
            let mut sets: Vec<Vec<u32>> = raw_sets
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect();
            sets.sort();
            sets.dedup();
            let n = sets.len() as u32;
            let table = LitemsetTable::new(
                sets.into_iter().map(|s| (Itemset::new(s), 1)).collect(),
            );
            let mut large: Vec<LargeIdSequence> = raw_seqs
                .iter()
                .map(|(ids, support)| LargeIdSequence {
                    ids: ids.iter().map(|&r| r % n).collect(),
                    support: *support,
                })
                .collect();
            // Copies of earlier sequences, with their own supports.
            for (i, &r) in repeats.iter().enumerate() {
                if let Some(s) = large.get(r % large.len().max(1)).cloned() {
                    large.push(LargeIdSequence { support: s.support + 10 + i as u64, ..s });
                }
            }
            let as_sequences = |seqs: Vec<LargeIdSequence>| -> Vec<_> {
                seqs.into_iter().map(|s| (table.to_sequence(&s.ids), s.support)).collect()
            };
            let expected = maximal_by_scan(as_sequences(large.clone()));
            prop_assert_eq!(as_sequences(maximal_phase(large, &table)), expected);
        }
    }
}
