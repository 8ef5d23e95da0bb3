//! **AprioriAll** (paper §4.1): count every length.
//!
//! Pass `k` generates candidates from the large `(k-1)`-sequences with
//! [`candidate::generate`], counts their customer support over the
//! transformed database, and keeps the large ones. The loop ends when a
//! pass produces no candidates or no large sequences. Everything large is
//! returned; the maximal phase prunes afterwards (which the paper notes
//! wastes counting effort on non-maximal sequences — the motivation for the
//! Some variants).

use super::candidate;
use crate::arena::CandidateArena;
use crate::counting::{CountingContext, CountingStrategy, TreeParams};
use crate::dataset::Dataset;
use crate::phases::maximal::LargeIdSequence;
use crate::stats::Stopwatch;
use crate::stats::{MiningStats, SequencePassStats};
use crate::vertical::VerticalParams;
use seqpat_itemset::Parallelism;

/// Options shared by all three sequence-phase algorithms.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequencePhaseOptions {
    /// Counting strategy for support passes.
    pub counting: CountingStrategy,
    /// Hash-tree shape (used when counting with trees).
    pub tree_params: TreeParams,
    /// Optional hard cap on sequence length (`None` = unbounded, as in the
    /// paper).
    pub max_length: Option<usize>,
    /// Worker threads for the counting passes. Parallel runs are
    /// bit-identical to serial ones (see `counting`).
    pub parallelism: Parallelism,
    /// Vertical-strategy knobs (occurrence-list cache cap).
    pub vertical: VerticalParams,
    /// Customers per counting shard (`None` = count the whole database at
    /// once). Sharded runs return bit-identical supports; see `counting`.
    pub shard_customers: Option<usize>,
}

/// The large 1-sequences: every litemset id, with the support the litemset
/// phase already counted (`support(⟨l⟩)` equals the customer support of the
/// itemset `l` by definition).
pub fn large_one_sequences(ds: &dyn Dataset) -> Vec<LargeIdSequence> {
    ds.table()
        .iter()
        .map(|(id, _, support)| LargeIdSequence {
            ids: vec![id],
            support,
        })
        .collect()
}

/// Runs AprioriAll. Returns **all** large sequences (every length).
pub fn apriori_all(
    ds: &dyn Dataset,
    min_count: u64,
    options: &SequencePhaseOptions,
    stats: &mut MiningStats,
) -> Vec<LargeIdSequence> {
    let mut ctx = CountingContext::new(options);
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

    let mut all: Vec<LargeIdSequence> = Vec::new();
    let mut current: Vec<LargeIdSequence> = l1;
    let mut k = 2usize;
    loop {
        if current.is_empty() {
            break;
        }
        if options.max_length.is_some_and(|cap| k > cap) {
            break;
        }
        let pass_start = Stopwatch::start();
        // Pass 2 fast path: C2 is always the full |L1|² pair grid, so count
        // pairs directly in one database scan (see counting.rs).
        if k == 2 {
            all.append(&mut current);
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
            current = l2;
            k += 1;
            continue;
        }
        let prev_ids = CandidateArena::from_rows(k - 1, current.iter().map(|s| s.ids.as_slice()));
        all.append(&mut current);
        let candidates = candidate::generate(&prev_ids);
        if candidates.is_empty() {
            break;
        }
        let supports = ctx.count(ds, &candidates);
        let next: Vec<LargeIdSequence> = candidates
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
            large: next.len() as u64,
            backward: false,
            pruned_by_containment: 0,
            pass_time: pass_start.elapsed(),
        });
        current = next;
        k += 1;
    }
    all.append(&mut current);
    ctx.flush_into(stats);
    all
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::phases::litemset::{litemset_phase, tests::paper_db};
    use crate::phases::transform::transform_phase;
    use crate::types::transformed::TransformedDatabase;
    use seqpat_itemset::AprioriConfig;

    pub(crate) fn paper_tdb() -> TransformedDatabase {
        let db = paper_db();
        let out = litemset_phase(&db, 2, &AprioriConfig::default());
        transform_phase(&db, out.table)
    }

    fn render(tdb: &TransformedDatabase, seqs: &[LargeIdSequence]) -> Vec<String> {
        let mut v: Vec<String> = seqs
            .iter()
            .map(|s| format!("{}:{}", tdb.to_sequence(&s.ids), s.support))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn paper_example_all_large_sequences() {
        // Paper §4, Figure "large sequences": with minsup 25% (2 customers)
        // the large sequences in transformed space are the five 1-sequences
        // and four 2-sequences ⟨(30)(40)⟩ ⟨(30)(40 70)⟩ ⟨(30)(70)⟩ ⟨(30)(90)⟩.
        let tdb = paper_tdb();
        let mut stats = MiningStats::default();
        let all = apriori_all(&tdb, 2, &SequencePhaseOptions::default(), &mut stats);
        assert_eq!(
            render(&tdb, &all),
            vec![
                "<(30)(40 70)>:2",
                "<(30)(40)>:2",
                "<(30)(70)>:2",
                "<(30)(90)>:2",
                "<(30)>:4",
                "<(40 70)>:2",
                "<(40)>:2",
                "<(70)>:3",
                "<(90)>:3",
            ]
        );
    }

    #[test]
    fn pass_stats_recorded() {
        let tdb = paper_tdb();
        let mut stats = MiningStats::default();
        let _ = apriori_all(&tdb, 2, &SequencePhaseOptions::default(), &mut stats);
        // Pass 1 (litemsets), pass 2 (25 candidates), pass 3 (generated from
        // the four large 2-sequences).
        assert_eq!(stats.sequence_passes[0].k, 1);
        assert_eq!(stats.sequence_passes[0].large, 5);
        assert_eq!(stats.sequence_passes[1].k, 2);
        assert_eq!(stats.sequence_passes[1].generated, 25);
        assert_eq!(stats.sequence_passes[1].large, 4);
    }

    #[test]
    fn all_counting_strategies_give_identical_results() {
        let tdb = paper_tdb();
        let run = |counting: CountingStrategy| {
            let mut stats = MiningStats::default();
            let mut out = apriori_all(
                &tdb,
                2,
                &SequencePhaseOptions {
                    counting,
                    ..Default::default()
                },
                &mut stats,
            );
            out.sort_by(|x, y| x.ids.cmp(&y.ids));
            (out, stats)
        };
        // The brute-force oracle's large sequences, rendered as `render` does.
        let mut oracle: Vec<String> = crate::naive::naive_all_large(
            &paper_db(),
            crate::support::MinSupport::Count(2),
            crate::naive::NaiveLimits::default(),
        )
        .into_iter()
        .map(|(seq, support)| format!("{seq}:{support}"))
        .collect();
        oracle.sort();
        // Pass 3 of the paper example prunes every candidate, so the
        // vertical run never even builds its index — but the answers match.
        for counting in [
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
            CountingStrategy::Bitmap,
            CountingStrategy::Auto,
        ] {
            let (out, _) = run(counting);
            assert_eq!(render(&tdb, &out), oracle, "{counting}");
        }
    }

    #[test]
    fn max_length_caps_growth() {
        let tdb = paper_tdb();
        let mut stats = MiningStats::default();
        let all = apriori_all(
            &tdb,
            2,
            &SequencePhaseOptions {
                max_length: Some(1),
                ..Default::default()
            },
            &mut stats,
        );
        assert!(all.iter().all(|s| s.ids.len() == 1));
    }

    #[test]
    fn empty_transformed_database() {
        let db = crate::Database::from_rows(vec![(1, 1, vec![1])]);
        let out = litemset_phase(&db, 2, &AprioriConfig::default());
        let tdb = transform_phase(&db, out.table);
        let mut stats = MiningStats::default();
        let all = apriori_all(&tdb, 2, &SequencePhaseOptions::default(), &mut stats);
        assert!(all.is_empty());
    }
}
