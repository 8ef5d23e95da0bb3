//! The backward phase shared by AprioriSome and DynamicSome (paper §4.2).
//!
//! Walking lengths from longest to shortest:
//!
//! * a length that was **skipped** forward first deletes every stored
//!   candidate contained in an already-kept longer large sequence — the
//!   paper's key saving: non-maximal sequences never get counted — then
//!   counts the survivors and keeps the large ones;
//! * a length that was **counted** forward is passed through as-is. (The
//!   paper also trims known-non-maximal sequences from counted `L_k`s here;
//!   in this pipeline that trim is exactly the maximal phase, which runs
//!   right after and does the same containment search *once* over the
//!   union instead of once per length — doing it in both places measurably
//!   penalized AprioriSome on dense inputs without changing the answer.)
//!
//! Containment uses the subset-aware relation: ids denote itemsets, and
//! `⟨(30)(40)⟩` is contained in `⟨(30)(40 70)⟩`. (The paper's description
//! operates on id equality; subset-awareness prunes strictly more while
//! remaining sound — anything pruned is contained in a large sequence and
//! hence large-but-non-maximal — so the final maximal answer is unchanged.
//! DESIGN.md records this as a deliberate choice.) The prune runs through
//! the maximal phase's probe (`PatternProbe`): one hash tree over the
//! skipped `C_k`, probed by every kept sequence longer than `k`.

use std::collections::BTreeMap;

use crate::arena::CandidateArena;
use crate::cast::idx;
use crate::counting::CountingContext;
use crate::dataset::Dataset;
use crate::phases::maximal::{LargeIdSequence, PatternProbe};
use crate::stats::{MiningStats, SequencePassStats};

/// Forward-phase output handed to the backward phase.
#[derive(Debug, Default)]
pub struct ForwardOutput {
    /// `L_k` for the lengths the forward phase counted.
    pub counted: BTreeMap<usize, Vec<LargeIdSequence>>,
    /// `C_k` (uncounted candidates) for the skipped lengths.
    pub skipped: BTreeMap<usize, CandidateArena>,
}

/// Runs the backward phase; returns the kept large sequences (a superset of
/// the maximal large sequences, disjoint per length). `ctx` is the same
/// counting context the forward phase used, so the vertical strategy's
/// occurrence index carries over.
pub fn backward(
    ds: &dyn Dataset,
    min_count: u64,
    ctx: &mut CountingContext,
    stats: &mut MiningStats,
    forward: ForwardOutput,
) -> Vec<LargeIdSequence> {
    let max_len = forward
        .counted
        .keys()
        .chain(forward.skipped.keys())
        .copied()
        .max()
        .unwrap_or(0);

    let mut kept: Vec<LargeIdSequence> = Vec::new();
    let mut probe = PatternProbe::new(ds.table());
    let ForwardOutput {
        mut counted,
        mut skipped,
    } = forward;

    for k in (1..=max_len).rev() {
        if let Some(lk) = counted.remove(&k) {
            // Known large: pass through; the maximal phase right after the
            // sequence phase performs the non-maximal trim once globally
            // (see the module docs for why it is not repeated here).
            kept.extend(lk);
        } else if let Some(ck) = skipped.remove(&k) {
            // Skipped in the forward phase: prune, then count the rest.
            // Filtering preserves the arena's sorted order, so the vertical
            // strategy's prefix runs and list cache stay valid.
            let pass_start = crate::stats::Stopwatch::start();
            let before = ck.num_candidates() as u64;
            let tree = PatternProbe::tree(&ck);
            let mut contained = vec![false; ck.num_candidates()];
            for s in kept.iter().filter(|s| s.ids.len() > k) {
                probe.load(&s.ids);
                probe.probe(&tree, &ck, |slot| contained[idx(slot)] = true);
            }
            let mut remaining = CandidateArena::new(k);
            for (ids, _) in ck.iter().zip(&contained).filter(|&(_, &c)| !c) {
                remaining.push(ids);
            }
            let pruned = before - remaining.num_candidates() as u64;
            let supports = ctx.count(ds, &remaining);
            let survivors: Vec<LargeIdSequence> = remaining
                .iter()
                .zip(supports)
                .filter(|&(_, s)| s >= min_count)
                .map(|(ids, support)| LargeIdSequence {
                    ids: ids.to_vec(),
                    support,
                })
                .collect();
            stats.record_pass(SequencePassStats {
                k,
                generated: 0,
                counted: before - pruned,
                large: survivors.len() as u64,
                backward: true,
                pruned_by_containment: pruned,
                pass_time: pass_start.elapsed(),
            });
            kept.extend(survivors);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::apriori_all::tests::paper_tdb;
    use crate::algorithms::apriori_all::SequencePhaseOptions;

    fn ls(ids: Vec<u32>, support: u64) -> LargeIdSequence {
        LargeIdSequence { ids, support }
    }

    fn arena(rows: &[&[u32]]) -> CandidateArena {
        CandidateArena::from_rows(rows.first().map_or(0, |r| r.len()), rows.iter().copied())
    }

    #[test]
    fn counted_lengths_pass_through_unfiltered() {
        let tdb = paper_tdb();
        let mut forward = ForwardOutput::default();
        forward
            .counted
            .insert(1, vec![ls(vec![0], 4), ls(vec![4], 3)]);
        forward.counted.insert(2, vec![ls(vec![0, 4], 2)]);
        let mut stats = MiningStats::default();
        let mut ctx = CountingContext::new(&SequencePhaseOptions::default());
        let kept = backward(&tdb, 2, &mut ctx, &mut stats, forward);
        // Counted lengths are passed through longest-first; the maximal
        // phase (not the backward pass) trims ⟨0⟩ and ⟨4⟩ later.
        assert_eq!(
            kept,
            vec![ls(vec![0, 4], 2), ls(vec![0], 4), ls(vec![4], 3)]
        );
        assert_eq!(stats.candidates_counted, 0);
        use crate::phases::maximal::maximal_phase;
        let maximal = maximal_phase(kept, &tdb.table);
        assert_eq!(maximal, vec![ls(vec![0, 4], 2)]);
    }

    #[test]
    fn skipped_lengths_pruned_then_counted() {
        let tdb = paper_tdb();
        let mut forward = ForwardOutput::default();
        forward.counted.insert(2, vec![ls(vec![0, 2], 2)]);
        // Skipped C1: ⟨0⟩ (contained in ⟨0 2⟩ → pruned, never counted),
        // ⟨4⟩ (counted; support 3 → kept), ⟨1⟩ (contained via subset-
        // awareness: (40) ⊆ (40 70) → pruned).
        forward.skipped.insert(1, arena(&[&[0], &[1], &[4]]));
        let mut stats = MiningStats::default();
        let mut ctx = CountingContext::new(&SequencePhaseOptions::default());
        let kept = backward(&tdb, 2, &mut ctx, &mut stats, forward);
        let mut got: Vec<Vec<u32>> = kept.iter().map(|s| s.ids.clone()).collect();
        got.sort();
        assert_eq!(got, vec![vec![0, 2], vec![4]]);
        let back1 = stats
            .sequence_passes
            .iter()
            .find(|p| p.backward && p.k == 1)
            .unwrap();
        assert_eq!(back1.pruned_by_containment, 2);
        assert_eq!(back1.counted, 1);
    }

    #[test]
    fn skipped_candidates_below_support_are_dropped() {
        let tdb = paper_tdb();
        let mut forward = ForwardOutput::default();
        // ⟨4 4⟩ has support 0 in the paper database.
        forward.skipped.insert(2, arena(&[&[4, 4]]));
        let mut stats = MiningStats::default();
        let mut ctx = CountingContext::new(&SequencePhaseOptions::default());
        let kept = backward(&tdb, 2, &mut ctx, &mut stats, forward);
        assert!(kept.is_empty());
    }

    #[test]
    fn empty_forward_output() {
        let tdb = paper_tdb();
        let mut stats = MiningStats::default();
        let mut ctx = CountingContext::new(&SequencePhaseOptions::default());
        let kept = backward(&tdb, 2, &mut ctx, &mut stats, ForwardOutput::default());
        assert!(kept.is_empty());
    }
}
