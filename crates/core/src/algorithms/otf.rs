//! `otf-generate` — DynamicSome's on-the-fly candidate generation
//! (paper §4.3).
//!
//! Given the large `k`-sequences `Lk` and large `j`-sequences `Lj`,
//! candidates of length `k + j` are generated *while scanning each
//! customer*: for every `x ∈ Lk` contained in the customer (earliest match
//! ending at transaction `e`) and every `y ∈ Lj` contained strictly after
//! `e`, the concatenation `x·y` is contained in the customer, and its
//! support counter is bumped. A customer bumps each `x·y` at most once
//! (each pair is probed once per customer), so the resulting counts are
//! exact supports.
//!
//! Completeness: a large `(k+j)`-sequence decomposes into its length-`k`
//! prefix (∈ `Lk` by anti-monotonicity) and length-`j` suffix (∈ `Lj`), and
//! every supporting customer exhibits the split — with the earliest-match
//! end for the prefix, by the usual exchange argument. The flip side is the
//! candidate *explosion*: up to `|Lk| × |Lj|` pairs per customer, which is
//! exactly why the paper's experiments see DynamicSome degrade at low
//! minimum support.
//!
//! With the vertical strategy, the outer loop runs over `occ(x)` from the
//! occurrence index instead of scanning customers: each `x ∈ Lk` resolves
//! its occurrence list (cache hit or fold — joins are counted), and only
//! the customers actually supporting `x` are probed for suffixes. The
//! suffix probes remain exact containment tests, so the counters differ
//! from the horizontal path (fewer `x` probes, no bitmap prefilter on `y`)
//! but the supports are identical. The bitmap strategy takes the same
//! shape, with `occ(x)` recovered from a whole-database S-step fold
//! ([`crate::bitmap::BitmapState::occurrences_of`] — first set bit per
//! customer span).
//!
//! The scan goes through the context's shard walk like every count. An
//! index needs the whole table, so it is used only when the walk has one
//! range (the run's persistent index, whichever strategy `Auto` resolved
//! to); a sharded walk scans each shard horizontally.

use super::candidate::IdSeq;
use crate::arena::CandidateArena;
use crate::contain::customer_contains_from;
use crate::counting::{CountingContext, OccurrenceIndex};
use crate::dataset::Dataset;
use crate::fxhash::FxHashMap;
use crate::types::transformed::TransformedCustomer;

/// Runs otf-generate over the whole database. Returns `(candidate, support)`
/// pairs sorted by candidate; containment probes (and, with an index,
/// joins or smeared words) are recorded on `ctx`. Stays serial: it
/// interleaves generation with counting in one scan and is bound by
/// `|Lk|·|Lj|`, not the customer scan. The per-customer probe is
/// self-contained, so counts are additive across shards and the supports
/// are identical whatever the walk.
pub fn otf_generate(
    ds: &dyn Dataset,
    lk: &CandidateArena,
    lj: &CandidateArena,
    ctx: &mut CountingContext,
) -> Vec<(IdSeq, u64)> {
    if lk.is_empty() || lj.is_empty() {
        return Vec::new();
    }
    let num_litemsets = ds.table().len();
    let mut counts: FxHashMap<IdSeq, u64> = FxHashMap::default();
    ctx.scan(ds, |rows, index, tests| match index {
        Some(index) => otf_indexed(rows, index, lk, lj, tests, &mut counts),
        None => otf_horizontal(rows, num_litemsets, lk, lj, tests, &mut counts),
    });
    let mut out: Vec<(IdSeq, u64)> = counts.into_iter().collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn otf_horizontal(
    customers: &[TransformedCustomer],
    num_litemsets: usize,
    lk: &CandidateArena,
    lj: &CandidateArena,
    containment_tests: &mut u64,
    counts: &mut FxHashMap<IdSeq, u64>,
) {
    let mut bitmap = vec![false; num_litemsets];
    for customer in customers {
        if customer.elements.is_empty() {
            continue;
        }
        bitmap.iter_mut().for_each(|b| *b = false);
        for element in &customer.elements {
            for &id in element {
                bitmap[id as usize] = true;
            }
        }
        for x in lk.iter() {
            if !x.iter().all(|&id| bitmap[id as usize]) {
                continue;
            }
            *containment_tests += 1;
            let Some(end) = customer_contains_from(customer, x, 0) else {
                continue;
            };
            for y in lj.iter() {
                if !y.iter().all(|&id| bitmap[id as usize]) {
                    continue;
                }
                *containment_tests += 1;
                if customer_contains_from(customer, y, end + 1).is_some() {
                    bump(counts, x, y);
                }
            }
        }
    }
}

/// Index variant: the occurrence index gives each `x`'s supporting
/// customers with earliest ends directly (vertical: cache lookups/folds;
/// bitmap: S-step folds), replacing the prefix scan. `customers` is the
/// whole table the index was built over.
fn otf_indexed(
    customers: &[TransformedCustomer],
    index: &mut dyn OccurrenceIndex,
    lk: &CandidateArena,
    lj: &CandidateArena,
    containment_tests: &mut u64,
    counts: &mut FxHashMap<IdSeq, u64>,
) {
    // One occurrence buffer for the whole Lk loop.
    let mut occ = Vec::new();
    for x in lk.iter() {
        index.occurrences_of(x, &mut occ);
        for o in &occ {
            let customer = &customers[o.customer as usize];
            for y in lj.iter() {
                *containment_tests += 1;
                if customer_contains_from(customer, y, o.pos as usize + 1).is_some() {
                    bump(counts, x, y);
                }
            }
        }
    }
}

fn bump(counts: &mut FxHashMap<IdSeq, u64>, x: &[u32], y: &[u32]) {
    let mut cand = Vec::with_capacity(x.len() + y.len());
    cand.extend_from_slice(x);
    cand.extend_from_slice(y);
    *counts.entry(cand).or_insert(0) += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::apriori_all::tests::paper_tdb;
    use crate::algorithms::apriori_all::SequencePhaseOptions;
    use crate::counting::CountingStrategy;
    use crate::types::transformed::TransformedDatabase;

    fn arena(rows: &[Vec<u32>]) -> CandidateArena {
        CandidateArena::from_rows(
            rows.first().map_or(0, |r| r.len()),
            rows.iter().map(|r| r.as_slice()),
        )
    }

    fn ctx_for(counting: CountingStrategy, tdb: &TransformedDatabase) -> CountingContext {
        let options = SequencePhaseOptions {
            counting,
            ..Default::default()
        };
        CountingContext::new(tdb, &options)
    }

    #[test]
    fn paper_example_pairs_from_singletons() {
        // Lk = Lj = the five 1-sequences; otf-generate must discover the
        // four large 2-sequences with exact supports (plus smaller ones).
        let tdb = paper_tdb();
        let l1 = arena(&(0..5).map(|i| vec![i]).collect::<Vec<_>>());
        let mut ctx = ctx_for(CountingStrategy::default(), &tdb);
        let pairs = otf_generate(&tdb, &l1, &l1, &mut ctx);
        let get = |ids: &[u32]| {
            pairs
                .iter()
                .find(|(c, _)| c.as_slice() == ids)
                .map(|&(_, s)| s)
                .unwrap_or(0)
        };
        assert_eq!(get(&[0, 1]), 2); // ⟨(30)(40)⟩
        assert_eq!(get(&[0, 2]), 2); // ⟨(30)(40 70)⟩
        assert_eq!(get(&[0, 3]), 2); // ⟨(30)(70)⟩
        assert_eq!(get(&[0, 4]), 2); // ⟨(30)(90)⟩
        assert_eq!(get(&[4, 0]), 0); // wrong order never counted
        assert!(ctx.tally.containment_tests > 0);
    }

    #[test]
    fn vertical_and_bitmap_paths_count_identical_supports() {
        let tdb = paper_tdb();
        let l1 = arena(&(0..5).map(|i| vec![i]).collect::<Vec<_>>());
        let mut hctx = ctx_for(CountingStrategy::HashTree, &tdb);
        let horizontal = otf_generate(&tdb, &l1, &l1, &mut hctx);
        let mut vctx = ctx_for(CountingStrategy::Vertical, &tdb);
        let vertical = otf_generate(&tdb, &l1, &l1, &mut vctx);
        assert_eq!(horizontal, vertical);
        let mut bctx = ctx_for(CountingStrategy::Bitmap, &tdb);
        let bitmap = otf_generate(&tdb, &l1, &l1, &mut bctx);
        assert_eq!(horizontal, bitmap);
        let mut actx = ctx_for(CountingStrategy::Auto, &tdb);
        let auto = otf_generate(&tdb, &l1, &l1, &mut actx);
        assert_eq!(horizontal, auto);
    }

    #[test]
    fn earliest_match_split_finds_late_suffixes() {
        // Customer: [{5}] [{6}] [{5}] — x = ⟨5⟩ ends earliest at 0, so
        // y = ⟨6⟩ (position 1) and y = ⟨5⟩ (position 2) are both found.
        use crate::types::itemset::Itemset;
        use crate::types::transformed::{LitemsetTable, TransformedCustomer};
        let table = LitemsetTable::new(vec![
            (Itemset::new(vec![1]), 1),
            (Itemset::new(vec![2]), 1),
            (Itemset::new(vec![3]), 1),
            (Itemset::new(vec![4]), 1),
            (Itemset::new(vec![5]), 1),
            (Itemset::new(vec![6]), 1),
        ]);
        let tdb = TransformedDatabase {
            customers: vec![TransformedCustomer {
                customer_id: 1,
                elements: vec![vec![4], vec![5], vec![4]],
            }],
            table,
            total_customers: 1,
        };
        let mut ctx = ctx_for(CountingStrategy::default(), &tdb);
        let pairs = otf_generate(
            &tdb,
            &arena(&[vec![4]]),
            &arena(&[vec![4], vec![5]]),
            &mut ctx,
        );
        assert_eq!(pairs, vec![(vec![4, 4], 1), (vec![4, 5], 1)]);
    }

    #[test]
    fn empty_inputs_yield_nothing() {
        let tdb = paper_tdb();
        let mut ctx = ctx_for(CountingStrategy::default(), &tdb);
        let l1 = arena(&[vec![0]]);
        assert!(otf_generate(&tdb, &CandidateArena::default(), &l1, &mut ctx).is_empty());
        assert!(otf_generate(&tdb, &l1, &CandidateArena::default(), &mut ctx).is_empty());
        assert_eq!(ctx.tally.containment_tests, 0);
    }

    #[test]
    fn supports_are_per_customer_exact() {
        // Two customers both containing ⟨0 4⟩; support must be 2, not more,
        // even though customer 4 has several embeddings.
        let tdb = paper_tdb();
        let mut ctx = ctx_for(CountingStrategy::default(), &tdb);
        let pairs = otf_generate(&tdb, &arena(&[vec![0]]), &arena(&[vec![4]]), &mut ctx);
        assert_eq!(pairs, vec![(vec![0, 4], 2)]);
    }
}
