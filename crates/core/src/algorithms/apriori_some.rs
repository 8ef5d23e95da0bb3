//! **AprioriSome** (paper §4.2): count only some lengths forward; recover
//! the skipped lengths backward.
//!
//! Forward phase: candidates are generated for *every* length (they are
//! needed to generate longer candidates), but supports are counted only for
//! the lengths the [`next`] heuristic selects. When length `k-1` was
//! counted, `C_k` is generated from `L_{k-1}`; otherwise from `C_{k-1}` —
//! candidates-of-candidates, the price of skipping.
//!
//! Backward phase ([`backward`]): see that module. The payoff: sequences
//! contained in a longer large sequence are non-maximal and never get
//! counted at all, so AprioriSome counts far fewer candidates than
//! AprioriAll when long patterns exist (the paper's headline result).

use super::apriori_all::{large_one_sequences, SequencePhaseOptions};
use super::backward::{backward, ForwardOutput};
use super::candidate;
use super::next::next;
use crate::arena::CandidateArena;
use crate::counting::CountingContext;
use crate::dataset::Dataset;
use crate::phases::maximal::LargeIdSequence;
use crate::stats::Stopwatch;
use crate::stats::{MiningStats, SequencePassStats};

/// Runs AprioriSome. Returns a superset of the maximal large sequences
/// (every returned sequence is large; non-maximal leftovers are removed by
/// the maximal phase).
pub fn apriori_some(
    ds: &dyn Dataset,
    min_count: u64,
    options: &SequencePhaseOptions,
    stats: &mut MiningStats,
) -> Vec<LargeIdSequence> {
    let mut ctx = CountingContext::new(ds, options);
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

    let mut forward = ForwardOutput::default();
    // The generation source for the next length: ids of L_{k-1} when
    // counted, else C_{k-1}.
    let mut source = CandidateArena::from_rows(1, l1.iter().map(|s| s.ids.as_slice()));
    forward.counted.insert(1, l1);

    // next() schedule state. Pass 1 has C1 = L1 (hit ratio trivially 1.0),
    // which would let next() leap straight to length 6 and generate five
    // levels of candidates-of-candidates — clearly not the published
    // behaviour: the paper's own trace counts C2 first. The schedule
    // therefore starts at 2 and engages next() from the first real count.
    let mut count_at = 2usize;

    let mut k = 2usize;
    while !source.is_empty() {
        if options.max_length.is_some_and(|cap| k > cap) {
            break;
        }
        let pass_start = Stopwatch::start();
        // Pass 2 fast path (C2 = the full |L1|² pair grid; count_at is
        // always 2 here, see the schedule note above).
        if k == 2 {
            debug_assert_eq!(count_at, 2);
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
            let hit = l2.len() as f64 / generated.max(1) as f64;
            count_at = next(k, hit);
            source = CandidateArena::from_rows(k, l2.iter().map(|s| s.ids.as_slice()));
            forward.counted.insert(k, l2);
            k += 1;
            continue;
        }
        let candidates = candidate::generate(&source);
        if candidates.is_empty() {
            break;
        }
        if k == count_at {
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
            let hit = lk.len() as f64 / candidates.num_candidates() as f64;
            count_at = next(k, hit);
            debug_assert!(count_at > k);
            source = CandidateArena::from_rows(k, lk.iter().map(|s| s.ids.as_slice()));
            let empty = lk.is_empty();
            forward.counted.insert(k, lk);
            if empty {
                break;
            }
        } else {
            stats.record_pass(SequencePassStats {
                k,
                generated: candidates.num_candidates() as u64,
                counted: 0,
                large: 0,
                backward: false,
                pruned_by_containment: 0,
                pass_time: pass_start.elapsed(),
            });
            source = candidates.clone();
            forward.skipped.insert(k, candidates);
        }
        k += 1;
    }

    let kept = backward(ds, min_count, &mut ctx, stats, forward);
    ctx.flush_into(stats);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::apriori_all::{apriori_all, tests::paper_tdb};
    use crate::phases::maximal::maximal_phase;
    use crate::types::transformed::TransformedDatabase;

    fn maximal_strings(tdb: &TransformedDatabase, seqs: Vec<LargeIdSequence>) -> Vec<String> {
        let mut v: Vec<String> = maximal_phase(seqs, &tdb.table)
            .into_iter()
            .map(|s| format!("{}:{}", tdb.to_sequence(&s.ids), s.support))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn paper_example_matches_apriori_all_maximal_answer() {
        let tdb = paper_tdb();
        let mut s1 = MiningStats::default();
        let all = apriori_all(&tdb, 2, &SequencePhaseOptions::default(), &mut s1);
        let mut s2 = MiningStats::default();
        let some = apriori_some(&tdb, 2, &SequencePhaseOptions::default(), &mut s2);
        assert_eq!(maximal_strings(&tdb, all), maximal_strings(&tdb, some));
        assert_eq!(
            maximal_strings(
                &tdb,
                apriori_some(&tdb, 2, &SequencePhaseOptions::default(), &mut s2)
            ),
            vec!["<(30)(40 70)>:2", "<(30)(90)>:2"]
        );
    }

    #[test]
    fn every_returned_sequence_is_large() {
        let tdb = paper_tdb();
        let mut stats = MiningStats::default();
        let some = apriori_some(&tdb, 2, &SequencePhaseOptions::default(), &mut stats);
        for s in &some {
            assert!(s.support >= 2, "{:?} has support {}", s.ids, s.support);
        }
    }

    #[test]
    fn schedule_counts_pass_two_then_consults_next() {
        let tdb = paper_tdb();
        let mut stats = MiningStats::default();
        let _ = apriori_some(&tdb, 2, &SequencePhaseOptions::default(), &mut stats);
        let forward_counted: Vec<usize> = stats
            .sequence_passes
            .iter()
            .filter(|p| !p.backward && p.counted > 0)
            .map(|p| p.k)
            .collect();
        // C2 is counted (25 candidates, 4 large → hit 0.16 → next = 3);
        // C3 generated from L2 is empty, so the forward phase ends there.
        assert_eq!(forward_counted, vec![2]);
        // Nothing was skipped, so no backward counting pass was needed.
        assert!(stats.sequence_passes.iter().all(|p| !p.backward));
    }

    #[test]
    fn max_length_respected() {
        let tdb = paper_tdb();
        let mut stats = MiningStats::default();
        let some = apriori_some(
            &tdb,
            2,
            &SequencePhaseOptions {
                max_length: Some(1),
                ..Default::default()
            },
            &mut stats,
        );
        assert!(some.iter().all(|s| s.ids.len() == 1));
    }
}
