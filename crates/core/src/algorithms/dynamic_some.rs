//! **DynamicSome** (paper §4.3): jump by a fixed `step` with on-the-fly
//! candidate generation.
//!
//! Four phases:
//!
//! 1. **Initialization** — lengths `1..=step` are mined exactly as in
//!    AprioriAll.
//! 2. **Jump** — from exact `L_k` (k a multiple of `step`), the candidates
//!    of length `k + step` are generated *and counted in the same scan* by
//!    the pair join of `L_k` with `L_step` ([`super::otf`]); thresholding
//!    gives exact `L_{k+step}`. Jumps continue while new large sequences
//!    appear.
//! 3. **Intermediate** — candidates for the skipped lengths between the
//!    multiples (and up to `step - 1` beyond the last jump) are generated
//!    with the ordinary apriori join, from `L_{k-1}` when known, else from
//!    `C_{k-1}`.
//! 4. **Backward** — shared with AprioriSome: prune candidates contained in
//!    longer large sequences, count the rest.

use super::apriori_all::{large_one_sequences, SequencePhaseOptions};
use super::backward::{backward, ForwardOutput};
use super::candidate;
use crate::arena::CandidateArena;
use crate::cast::w64;
use crate::counting::CountingContext;
use crate::dataset::Dataset;
use crate::phases::maximal::LargeIdSequence;
use crate::stats::Stopwatch;
use crate::stats::{MiningStats, SequencePassStats};

/// The ids of a counted level as a generation-ready arena.
fn ids_arena(level: &[LargeIdSequence], len: usize) -> CandidateArena {
    CandidateArena::from_rows(len, level.iter().map(|s| s.ids.as_slice()))
}

/// Runs DynamicSome with the given jump width (`step >= 1`; the paper's
/// experiments use small steps such as 2 or 3).
///
/// Returns a superset of the maximal large sequences, like AprioriSome.
pub fn dynamic_some(
    ds: &dyn Dataset,
    min_count: u64,
    step: usize,
    options: &SequencePhaseOptions,
    stats: &mut MiningStats,
) -> Vec<LargeIdSequence> {
    assert!(step >= 1, "DynamicSome requires step >= 1");
    let mut ctx = CountingContext::new(options);
    let mut forward = ForwardOutput::default();

    // --- Initialization phase: exact L_1 ..= L_step. ---
    let pass_start = Stopwatch::start();
    let l1 = large_one_sequences(ds);
    stats.record_pass(SequencePassStats {
        k: 1,
        generated: l1.len() as u64,
        counted: 0,
        large: l1.len() as u64,
        backward: false,
        pruned_by_containment: 0,
        pass_time: pass_start.elapsed(),
    });
    forward.counted.insert(1, l1);

    for k in 2..=step.min(options.max_length.unwrap_or(usize::MAX)) {
        let pass_start = Stopwatch::start();
        // Pass 2 fast path (shared with the other algorithms).
        if k == 2 {
            let (generated, l2) = ctx.large_two(ds, min_count);
            stats.record_pass(SequencePassStats {
                k,
                generated,
                counted: generated,
                large: l2.len() as u64,
                backward: false,
                pruned_by_containment: 0,
                pass_time: pass_start.elapsed(),
            });
            let empty = l2.is_empty();
            forward.counted.insert(k, l2);
            if empty {
                break;
            }
            continue;
        }
        let prev = ids_arena(&forward.counted[&(k - 1)], k - 1);
        let candidates = candidate::generate(&prev);
        if candidates.is_empty() {
            forward.counted.insert(k, Vec::new());
            break;
        }
        let supports = ctx.count(ds, &candidates);
        let lk: Vec<LargeIdSequence> = candidates
            .iter()
            .zip(&supports)
            .filter(|&(_, &s)| s >= min_count)
            .map(|(ids, &support)| LargeIdSequence {
                ids: ids.to_vec(),
                support,
            })
            .collect();
        stats.record_pass(SequencePassStats {
            k,
            generated: candidates.num_candidates() as u64,
            counted: candidates.num_candidates() as u64,
            large: lk.len() as u64,
            backward: false,
            pruned_by_containment: 0,
            pass_time: pass_start.elapsed(),
        });
        let empty = lk.is_empty();
        forward.counted.insert(k, lk);
        if empty {
            break;
        }
    }

    // --- Jump phase: L_k × L_step → L_{k+step}. ---
    let l_step_ids = forward
        .counted
        .get(&step)
        .map(|l| ids_arena(l, step))
        .unwrap_or_default();
    if !l_step_ids.is_empty() {
        let mut k = step;
        loop {
            let target = k + step;
            if options.max_length.is_some_and(|cap| target > cap) {
                break;
            }
            let lk_ids = match forward.counted.get(&k) {
                Some(l) if !l.is_empty() => ids_arena(l, k),
                _ => break,
            };
            let pass_start = Stopwatch::start();
            let l_next = ctx.large_pairs(ds, &lk_ids, &l_step_ids, min_count);
            // Every pair of L_k × L_step is a candidate, as in pass 2.
            let generated = w64(lk_ids.num_candidates()) * w64(l_step_ids.num_candidates());
            stats.record_pass(SequencePassStats {
                k: target,
                generated,
                counted: generated,
                large: l_next.len() as u64,
                backward: false,
                pruned_by_containment: 0,
                pass_time: pass_start.elapsed(),
            });
            let empty = l_next.is_empty();
            forward.counted.insert(target, l_next);
            if empty {
                break;
            }
            k = target;
        }
    }

    // --- Intermediate phase: candidates for the skipped lengths. ---
    let max_counted_nonempty = forward
        .counted
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(&k, _)| k)
        .max()
        .unwrap_or(1);
    let horizon = (max_counted_nonempty + step - 1).min(options.max_length.unwrap_or(usize::MAX));
    for k in 2..=horizon {
        if forward.counted.contains_key(&k) {
            continue;
        }
        // Source: L_{k-1} when counted, else the C_{k-1} just stored.
        let source: CandidateArena = if let Some(l) = forward.counted.get(&(k - 1)) {
            ids_arena(l, k - 1)
        } else if let Some(c) = forward.skipped.get(&(k - 1)) {
            c.clone()
        } else {
            CandidateArena::default()
        };
        let pass_start = Stopwatch::start();
        let ck = if source.is_empty() {
            CandidateArena::new(k)
        } else {
            candidate::generate(&source)
        };
        stats.record_pass(SequencePassStats {
            k,
            generated: ck.num_candidates() as u64,
            counted: 0,
            large: 0,
            backward: false,
            pruned_by_containment: 0,
            pass_time: pass_start.elapsed(),
        });
        forward.skipped.insert(k, ck);
    }

    // Empty counted entries would shadow nothing useful in the backward
    // pass; drop them so only real large sets remain.
    forward.counted.retain(|_, v| !v.is_empty());
    forward.skipped.retain(|_, v| !v.is_empty());

    // --- Backward phase (shared). ---
    let kept = backward(ds, min_count, &mut ctx, stats, forward);
    ctx.flush_into(stats);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::apriori_all::{apriori_all, tests::paper_tdb};
    use crate::algorithms::apriori_some::apriori_some;
    use crate::phases::maximal::maximal_phase;
    use crate::types::transformed::TransformedDatabase;

    fn maximal_ids(tdb: &TransformedDatabase, seqs: Vec<LargeIdSequence>) -> Vec<Vec<u32>> {
        let mut v: Vec<Vec<u32>> = maximal_phase(seqs, &tdb.table)
            .into_iter()
            .map(|s| s.ids)
            .collect();
        v.sort();
        v
    }

    #[test]
    fn agrees_with_apriori_all_on_paper_example() {
        let tdb = paper_tdb();
        let opts = SequencePhaseOptions::default();
        for step in 1..=4 {
            let mut s1 = MiningStats::default();
            let all = apriori_all(&tdb, 2, &opts, &mut s1);
            let mut s2 = MiningStats::default();
            let dyn_ = dynamic_some(&tdb, 2, step, &opts, &mut s2);
            assert_eq!(
                maximal_ids(&tdb, all),
                maximal_ids(&tdb, dyn_),
                "step {step}"
            );
        }
    }

    #[test]
    fn agrees_with_apriori_some() {
        let tdb = paper_tdb();
        let opts = SequencePhaseOptions::default();
        let mut s1 = MiningStats::default();
        let some = apriori_some(&tdb, 2, &opts, &mut s1);
        let mut s2 = MiningStats::default();
        let dyn_ = dynamic_some(&tdb, 2, 2, &opts, &mut s2);
        assert_eq!(maximal_ids(&tdb, some), maximal_ids(&tdb, dyn_));
    }

    #[test]
    fn index_strategies_agree_including_otf_jumps() {
        use crate::counting::CountingStrategy;
        let tdb = paper_tdb();
        for step in 1..=3 {
            let mut s1 = MiningStats::default();
            let base = dynamic_some(&tdb, 2, step, &SequencePhaseOptions::default(), &mut s1);
            let expected = maximal_ids(&tdb, base);
            for counting in [
                CountingStrategy::Vertical,
                CountingStrategy::Bitmap,
                CountingStrategy::Auto,
            ] {
                let mut s2 = MiningStats::default();
                let got = dynamic_some(
                    &tdb,
                    2,
                    step,
                    &SequencePhaseOptions {
                        counting,
                        ..Default::default()
                    },
                    &mut s2,
                );
                assert_eq!(expected, maximal_ids(&tdb, got), "step {step}, {counting}");
            }
        }
    }

    #[test]
    fn every_returned_sequence_is_large() {
        let tdb = paper_tdb();
        let mut stats = MiningStats::default();
        let out = dynamic_some(&tdb, 2, 2, &SequencePhaseOptions::default(), &mut stats);
        assert!(out.iter().all(|s| s.support >= 2));
    }

    #[test]
    #[should_panic(expected = "step >= 1")]
    fn zero_step_rejected() {
        let tdb = paper_tdb();
        let mut stats = MiningStats::default();
        let _ = dynamic_some(&tdb, 2, 0, &SequencePhaseOptions::default(), &mut stats);
    }

    #[test]
    fn max_length_respected() {
        let tdb = paper_tdb();
        let mut stats = MiningStats::default();
        let out = dynamic_some(
            &tdb,
            2,
            2,
            &SequencePhaseOptions {
                max_length: Some(1),
                ..Default::default()
            },
            &mut stats,
        );
        assert!(out.iter().all(|s| s.ids.len() == 1));
    }
}
