//! `otf-generate` — DynamicSome's on-the-fly candidate generation (paper
//! §4.3) as a join on endpoints, with pass 2 as its `L1 × L1` case.
//!
//! Given sequences `Lk` and `Lj`, the join counts every concatenation `x·y`
//! (`x ∈ Lk`, `y ∈ Lj`) in one scan of the customers, without a candidate
//! set. For each customer it lists the end of the earliest match of every
//! `x` the customer contains and the start of the latest match of every
//! `y`; then `x·y` is contained iff `end(x) < start(y)`. This is exact by
//! the greedy exchange argument: any embedding of `x·y` splits into one of
//! `x` that ends before one of `y` starts, and moving the `x` half to its
//! earliest match and the `y` half to its latest match keeps that gap.
//! Every large `(k+j)`-sequence is found: its length-`k` prefix is in `Lk`
//! and its length-`j` suffix in `Lj` (anti-monotonicity).
//!
//! **Endpoints.** One sweep over the customer's ids gives each id's first
//! and last transaction, which are the endpoints of a length-1 side. A
//! longer side runs one greedy scan per sequence whose ids the customer
//! all holds: [`customer_contains_from`] for the earliest end,
//! [`customer_contains_before`] for the latest start. A customer therefore
//! costs one test per sequence, not one per pair. The customer's `x`s are
//! sorted by end, so the `x`s matching a `y` are a prefix of that list, and
//! each contained pair comes out exactly once, as the key `xi·|Lj| + yi`.
//!
//! **Counting.** Keys are bumped into one `PairCounts` per pass: a dense
//! `|Lk|×|Lj|` matrix while it fits `PAIR_DENSE_CAP_BYTES`, a hash map
//! beyond. The counts are thresholded before any id sequence is built.
//! Pass 2 is the case `Lk = Lj = L1`: all `n²` ordered litemset pairs, with
//! `⟨a b⟩` contained iff `first[a] < last[b]`.
//!
//! **Walk.** `CountingContext::large_pairs` walks the run's shards and
//! hands `PAIR_BATCH_ROWS`-row batches to the workers; each fills its
//! `JoinWorker` buffers, which are bumped in chunk order, then shard
//! order. The counts are exact integers, so every thread count and shard
//! size gives the same supports. The join does not depend on the counting
//! strategy.
//!
//! **Counters.** A join pass reports `|Lk|·|Lj|` candidates, generated and
//! counted (pass 2: `n²`). Its containment tests are the greedy scans plus
//! one per pair key, that is, per contained pair per customer. Pass 2
//! runs no scans, so its count is the number of distinct pairs each
//! customer contains.

use crate::arena::CandidateArena;
use crate::cast::{id32, idx, w64};
use crate::contain::{customer_contains_before, customer_contains_from};
use crate::fxhash::FxHashMap;
use crate::phases::maximal::LargeIdSequence;
use crate::types::transformed::{LitemsetId, TransformedCustomer};

/// Largest pair counter kept as a dense `|Lk|×|Lj|` `u32` matrix, in
/// bytes: 256 MiB holds pass 2 of an 8 192-litemset alphabet. Beyond it the
/// pass counts pairs in a hash map keyed by the pairs actually seen.
pub(crate) const PAIR_DENSE_CAP_BYTES: u64 = 256 << 20;

/// Customers per key batch: workers gather the pair keys of at most this
/// many rows at a time into buffers they keep for the pass, so the buffers
/// stay near 2.6 MB in pass 2 (C10-T2.5-S4-I1.25 at minsup 0.33 %, ~1 270
/// pairs a customer). With 1 024 rows the kept 16 MB buffer raised the
/// `sparse-pairs` peak resident set by 3.3 MB.
pub(crate) const PAIR_BATCH_ROWS: usize = 256;

/// [`Side::Ids`] entry of an id outside the side, and [`JoinWorker`]'s slot
/// entry of an id the current customer has not shown.
const ABSENT: u32 = u32::MAX;

/// One side of a join, as the workers read it.
enum Side<'a> {
    /// Length-1 sequences: each id's row in the side, [`ABSENT`] if none.
    Ids(Vec<u32>),
    /// Longer sequences, scanned per customer.
    Seqs(&'a CandidateArena),
}

impl<'a> Side<'a> {
    fn new(seqs: &'a CandidateArena, n: usize) -> Self {
        if seqs.candidate_len() != 1 {
            return Side::Seqs(seqs);
        }
        let mut rows = vec![ABSENT; n];
        for (row, ids) in seqs.iter().enumerate() {
            rows[idx(ids[0])] = id32(row);
        }
        Side::Ids(rows)
    }

    /// Fills `out` with the `(row, endpoint)` of every sequence of the side
    /// the customer contains. An id's endpoint is `pick` of its `seen`
    /// entry; a longer sequence whose ids the customer all holds (`slot`)
    /// is scanned with `scan`, one containment test each.
    fn endpoints(
        &self,
        seen: &[(LitemsetId, u32, u32)],
        slot: &[u32],
        pick: impl Fn(&(LitemsetId, u32, u32)) -> u32,
        scan: impl Fn(&[LitemsetId]) -> Option<usize>,
        tests: &mut u64,
        out: &mut Vec<(u32, u32)>,
    ) {
        out.clear();
        match self {
            Side::Ids(rows) => out.extend(
                seen.iter()
                    .map(|entry| (rows[idx(entry.0)], pick(entry)))
                    .filter(|&(row, _)| row != ABSENT),
            ),
            Side::Seqs(seqs) => {
                for (row, ids) in seqs.iter().enumerate() {
                    if ids.iter().all(|&id| slot[idx(id)] != ABSENT) {
                        *tests += 1;
                        if let Some(at) = scan(ids) {
                            out.push((id32(row), id32(at)));
                        }
                    }
                }
            }
        }
    }
}

/// The two sides of one join over an `n`-litemset alphabet.
pub(crate) struct PairJoin<'a> {
    lk: &'a CandidateArena,
    lj: &'a CandidateArena,
    xs: Side<'a>,
    ys: Side<'a>,
    n: usize,
}

impl<'a> PairJoin<'a> {
    /// The join of `lk × lj`; every id is below `n`.
    pub(crate) fn new(lk: &'a CandidateArena, lj: &'a CandidateArena, n: usize) -> Self {
        Self {
            lk,
            lj,
            xs: Side::new(lk, n),
            ys: Side::new(lj, n),
            n,
        }
    }

    /// The pass's counter (see [`PairCounts::new`]).
    pub(crate) fn counts(&self, cap_bytes: u64) -> PairCounts {
        PairCounts::new(
            self.lk.num_candidates(),
            self.lj.num_candidates(),
            cap_bytes,
        )
    }

    /// Empty buffers for one worker.
    pub(crate) fn worker(&self) -> JoinWorker {
        JoinWorker {
            keys: Vec::new(),
            tests: 0,
            slot: vec![ABSENT; self.n],
            seen: Vec::new(),
            ends: Vec::new(),
            starts: Vec::new(),
        }
    }

    /// The pairs counted at least `min_count` times, as `x·y` with their
    /// supports, in `(x, y)` order.
    pub(crate) fn large(&self, counts: PairCounts, min_count: u64) -> Vec<LargeIdSequence> {
        let cols = self.lj.num_candidates();
        counts
            .into_large(min_count)
            .into_iter()
            .map(|(key, c)| {
                let (x, y) = (self.lk.get(key / cols), self.lj.get(key % cols));
                LargeIdSequence {
                    ids: [x, y].concat(),
                    support: u64::from(c),
                }
            })
            .collect()
    }
}

/// One worker's buffers, allocated once per pass and reused by every
/// batch: the batch's pair keys and scan count, the id → `seen` slot map,
/// the customer's `(id, first transaction, last transaction)` list, and
/// its `(x row, end)` and `(y row, start)` lists.
#[derive(Clone)]
pub(crate) struct JoinWorker {
    keys: Vec<usize>,
    tests: u64,
    slot: Vec<u32>,
    seen: Vec<(LitemsetId, u32, u32)>,
    ends: Vec<(u32, u32)>,
    starts: Vec<(u32, u32)>,
}

impl JoinWorker {
    /// Appends the pair keys of `chunk` (see the module docs).
    pub(crate) fn gather(&mut self, chunk: &[TransformedCustomer], join: &PairJoin<'_>) {
        let Self {
            keys,
            tests,
            slot,
            seen,
            ends,
            starts,
        } = self;
        let cols = join.lj.num_candidates();
        for customer in chunk {
            if customer.elements.len() < 2 {
                continue;
            }
            for (t, element) in customer.elements.iter().enumerate() {
                let t = id32(t);
                for &id in element {
                    debug_assert!(idx(id) < join.n, "ids come from the n-litemset alphabet");
                    match slot[idx(id)] {
                        ABSENT => {
                            slot[idx(id)] = id32(seen.len());
                            seen.push((id, t, t));
                        }
                        s => seen[idx(s)].2 = t,
                    }
                }
            }
            let len = customer.elements.len();
            join.xs.endpoints(
                seen,
                slot,
                |&(_, first, _)| first,
                |x| customer_contains_from(customer, x, 0),
                tests,
                ends,
            );
            // The `x`s matching a `y` are then a prefix of `ends`. An id
            // side's ends are already in order: `seen` lists ids by first
            // occurrence.
            if let Side::Seqs(_) = join.xs {
                ends.sort_unstable_by_key(|&(_, end)| end);
            }
            join.ys.endpoints(
                seen,
                slot,
                |&(_, _, last)| last,
                |y| customer_contains_before(customer, y, len),
                tests,
                starts,
            );
            for &(y, start) in starts.iter() {
                let matching = ends.partition_point(|&(_, end)| end < start);
                keys.extend(
                    ends[..matching]
                        .iter()
                        .map(|&(x, _)| idx(x) * cols + idx(y)),
                );
            }
            for &(id, _, _) in seen.iter() {
                slot[idx(id)] = ABSENT;
            }
            seen.clear();
        }
    }

    /// Bumps the gathered keys into `counts` and empties the buffers;
    /// returns the batch's containment tests (scans plus keys).
    pub(crate) fn drain_into(&mut self, counts: &mut PairCounts) -> u64 {
        counts.bump(&self.keys);
        let tests = std::mem::take(&mut self.tests) + w64(self.keys.len());
        self.keys.clear();
        tests
    }
}

/// Whether a `rows×cols` `u32` pair matrix fits `cap_bytes`.
fn dense_pairs_fit(rows: usize, cols: usize, cap_bytes: u64) -> bool {
    w64(rows)
        .checked_mul(w64(cols))
        .and_then(|cells| cells.checked_mul(w64(std::mem::size_of::<u32>())))
        .is_some_and(|bytes| bytes <= cap_bytes)
}

/// The pass-level pair counter: allocated once per pass, bumped with the
/// workers' keys in chunk order, then shard order. Its form depends only
/// on the side sizes and the byte cap (see [`PairCounts::new`]).
pub(crate) enum PairCounts {
    Dense(Vec<u32>),
    Sparse(FxHashMap<usize, u32>),
}

impl PairCounts {
    /// A dense matrix when [`dense_pairs_fit`], a hash map otherwise.
    fn new(rows: usize, cols: usize, cap_bytes: u64) -> Self {
        if dense_pairs_fit(rows, cols, cap_bytes) {
            PairCounts::Dense(vec![0; rows * cols])
        } else {
            PairCounts::Sparse(FxHashMap::default())
        }
    }

    fn bump(&mut self, keys: &[usize]) {
        match self {
            PairCounts::Dense(counts) => {
                // A slice held in registers: bumping through the `Vec`
                // reloaded its data pointer on every key when the counter
                // is reached through a closure capture.
                let counts = counts.as_mut_slice();
                for &key in keys {
                    debug_assert!(key < counts.len(), "pair keys index the matrix");
                    counts[key] += 1;
                }
            }
            PairCounts::Sparse(counts) => {
                for &key in keys {
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
        }
    }

    /// The `(key, count)` of every pair counted at least `min_count`
    /// times, in key order.
    fn into_large(self, min_count: u64) -> Vec<(usize, u32)> {
        let large = |&(_, c): &(usize, u32)| u64::from(c) >= min_count;
        match self {
            PairCounts::Dense(counts) => counts.into_iter().enumerate().filter(large).collect(),
            PairCounts::Sparse(counts) => {
                let mut entries: Vec<(usize, u32)> = counts.into_iter().filter(large).collect();
                entries.sort_unstable();
                entries
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::apriori_all::tests::paper_tdb;
    use crate::algorithms::apriori_all::SequencePhaseOptions;
    use crate::counting::{CountingContext, CountingStrategy};

    fn arena(rows: &[Vec<u32>]) -> CandidateArena {
        CandidateArena::from_rows(
            rows.first().map_or(0, |r| r.len()),
            rows.iter().map(|r| r.as_slice()),
        )
    }

    fn ctx_for(counting: CountingStrategy) -> CountingContext {
        CountingContext::new(&SequencePhaseOptions {
            counting,
            ..Default::default()
        })
    }

    fn pairs(lk: &CandidateArena, lj: &CandidateArena) -> Vec<(Vec<u32>, u64)> {
        let tdb = paper_tdb();
        let mut ctx = ctx_for(CountingStrategy::default());
        ctx.large_pairs(&tdb, lk, lj, 1)
            .into_iter()
            .map(|s| (s.ids, s.support))
            .collect()
    }

    #[test]
    fn paper_example_pairs_from_singletons() {
        // Lk = Lj = the five 1-sequences; the join must find the four
        // large 2-sequences with exact supports (plus smaller ones).
        let l1 = arena(&(0..5).map(|i| vec![i]).collect::<Vec<_>>());
        let found = pairs(&l1, &l1);
        let get = |ids: &[u32]| {
            found
                .iter()
                .find(|(c, _)| c.as_slice() == ids)
                .map_or(0, |&(_, s)| s)
        };
        assert_eq!(get(&[0, 1]), 2); // ⟨(30)(40)⟩
        assert_eq!(get(&[0, 2]), 2); // ⟨(30)(40 70)⟩
        assert_eq!(get(&[0, 3]), 2); // ⟨(30)(70)⟩
        assert_eq!(get(&[0, 4]), 2); // ⟨(30)(90)⟩
        assert_eq!(get(&[4, 0]), 0); // wrong order never counted
    }

    #[test]
    fn every_strategy_joins_identically() {
        let tdb = paper_tdb();
        let l1 = arena(&(0..5).map(|i| vec![i]).collect::<Vec<_>>());
        let l2 = arena(&[vec![0, 2], vec![0, 4]]);
        let run = |counting| {
            let mut ctx = ctx_for(counting);
            let joined = (
                ctx.large_pairs(&tdb, &l1, &l1, 1),
                ctx.large_pairs(&tdb, &l2, &l1, 1),
            );
            (joined, ctx.tally.containment_tests)
        };
        let base = run(CountingStrategy::HashTree);
        assert!(!base.0 .0.is_empty());
        for counting in [
            CountingStrategy::Vertical,
            CountingStrategy::Bitmap,
            CountingStrategy::Auto,
        ] {
            assert_eq!(run(counting), base, "{counting}");
        }
    }

    #[test]
    fn earliest_end_and_latest_start_find_late_suffixes() {
        // Customer: [{4}] [{5}] [{4}] — x = ⟨4⟩ ends earliest at 0, so
        // y = ⟨5⟩ (position 1) and y = ⟨4⟩ (position 2) are both found.
        use crate::types::itemset::Itemset;
        use crate::types::transformed::{LitemsetTable, TransformedDatabase};
        let table = LitemsetTable::new(
            (1..=6)
                .map(|i| (Itemset::new(vec![i]), 1))
                .collect::<Vec<_>>(),
        );
        let tdb = TransformedDatabase {
            customers: vec![TransformedCustomer {
                customer_id: 1,
                elements: vec![vec![4], vec![5], vec![4]],
            }],
            table,
            total_customers: 1,
        };
        let mut ctx = ctx_for(CountingStrategy::default());
        let found = ctx.large_pairs(&tdb, &arena(&[vec![4]]), &arena(&[vec![4], vec![5]]), 1);
        let found: Vec<_> = found.into_iter().map(|s| (s.ids, s.support)).collect();
        assert_eq!(found, vec![(vec![4, 4], 1), (vec![4, 5], 1)]);
        // Longer sides: ⟨4 5⟩·⟨4⟩ needs ⟨4 5⟩'s earliest end (1) before
        // ⟨4⟩'s latest start (2); ⟨4⟩·⟨5 4⟩ needs ⟨4⟩'s end (0) before
        // ⟨5 4⟩'s latest start (1).
        let found = ctx.large_pairs(&tdb, &arena(&[vec![4, 5]]), &arena(&[vec![4]]), 1);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].ids, vec![4, 5, 4]);
        let found = ctx.large_pairs(&tdb, &arena(&[vec![4]]), &arena(&[vec![5, 4]]), 1);
        assert_eq!(found[0].ids, vec![4, 5, 4]);
        let found = ctx.large_pairs(&tdb, &arena(&[vec![4, 5]]), &arena(&[vec![5, 4]]), 1);
        assert!(found.is_empty());
    }

    #[test]
    fn empty_sides_yield_nothing() {
        let tdb = paper_tdb();
        let mut ctx = ctx_for(CountingStrategy::default());
        let l1 = arena(&[vec![0]]);
        let none = CandidateArena::default();
        assert!(ctx.large_pairs(&tdb, &none, &l1, 1).is_empty());
        assert!(ctx.large_pairs(&tdb, &l1, &none, 1).is_empty());
        assert_eq!(ctx.tally.containment_tests, 0);
    }

    #[test]
    fn supports_are_per_customer_exact() {
        // Two customers contain ⟨0 4⟩; support must be 2, not more, even
        // though customer 4 has several embeddings.
        assert_eq!(
            pairs(&arena(&[vec![0]]), &arena(&[vec![4]])),
            vec![(vec![0, 4], 2)]
        );
    }

    #[test]
    fn pair_storage_depends_only_on_side_sizes_and_cap() {
        assert!(dense_pairs_fit(0, 0, 0));
        assert!(!dense_pairs_fit(1, 1, 0));
        assert!(dense_pairs_fit(1, 1, 4));
        assert!(dense_pairs_fit(8192, 8192, PAIR_DENSE_CAP_BYTES));
        assert!(!dense_pairs_fit(8193, 8192, PAIR_DENSE_CAP_BYTES));
        assert!(dense_pairs_fit(1 << 16, 1 << 10, PAIR_DENSE_CAP_BYTES));
        assert!(!dense_pairs_fit(usize::MAX, usize::MAX, u64::MAX));
        assert!(matches!(PairCounts::new(5, 5, 0), PairCounts::Sparse(_)));
        assert!(matches!(
            PairCounts::new(5, 7, PAIR_DENSE_CAP_BYTES),
            PairCounts::Dense(_)
        ));
    }
}
