//! Vertical (id-list) support counting — [`CountingStrategy::Vertical`].
//!
//! The horizontal strategies re-scan every customer against every candidate
//! each pass. The vertical family (SPADE-style id-lists) inverts the
//! layout: after the transform phase a **vertical occurrence index** is
//! built once — for every litemset id, the flat customer-partitioned list
//! of `(customer, transaction-position)` occurrences — and a candidate's
//! support is computed by a *temporal merge-join* over occurrence lists,
//! touching only the customers where its parts actually occur.
//!
//! ## Occurrence lists
//!
//! For a **sequence** `s`, the occurrence list holds one entry per
//! supporting customer: `(customer, e)` where `e` is the transaction index
//! at which the greedy **earliest-match** embedding of `s` ends. The
//! exchange argument behind [`crate::contain`] makes this canonical: if any
//! embedding exists, the earliest-end one exists, and its end position is
//! minimal over all embeddings. Support is therefore just the list length,
//! and the lists of a pass are exactly what the next pass's joins need.
//!
//! For a single litemset id the index list may hold *several* entries per
//! customer (every transaction containing the id, ascending) — the join and
//! the `seed_first_per_customer` kernel reduce those to earliest matches.
//!
//! ## The join
//!
//! `occ(p · ⟨x⟩)` = merge-join of `occ(p)` (ascending unique customers)
//! with the index list of `x` (sorted by `(customer, pos)`): a customer
//! supports `p · ⟨x⟩` iff it has an occurrence of `x` at a transaction
//! **strictly after** the earliest end of `p`, and the first such
//! occurrence is the candidate's earliest end. Both sides are scanned once
//! (two-pointer), so a join costs `O(|occ(p)| + |list(x)|)`.
//!
//! ## Join micro-architecture (see DESIGN.md "Kernel micro-architecture")
//!
//! Both sides compare as one packed `u64` key `(customer << 32) | pos`
//! (`key`) — the lexicographic `(customer, pos)` order becomes a single
//! integer compare, and "strictly after the earliest end" is exactly
//! `key(last) > key(prefix)` because a prefix entry's customer matches
//! before its position is compared. The inner advancement runs
//! **branchless**: the comparison flag is monotone over the sorted list, so
//! a 4-entry window advances by the *sum* of four independent flag adds
//! (`setcc`/`cmov` codegen, no data-dependent branch in the steady state) —
//! see `join_linear`. When the index list is more than `GALLOP_RATIO`×
//! longer than the prefix list, `join_gallop` replaces the linear walk
//! with exponential probing plus binary search per prefix entry, skipping
//! runs of irrelevant occurrences in `O(log run)` (counted in
//! [`VerticalState::gallop_skips`]). The dispatch is a pure function of the
//! two list lengths, so results and counters stay deterministic. Either
//! path visits the same frontier entry the two-pointer walk would — the
//! first occurrence with `key > key(p)` — so the earliest-end invariant is
//! untouched.
//!
//! ## Pass-to-pass reuse and the memory cap
//!
//! [`VerticalState`] retains the occurrence lists of the last counted pass
//! (keyed by the pass's sorted [`CandidateArena`]) so pass `k+1` finds each
//! candidate's length-`k` prefix list by binary search — one join per
//! candidate. When the lists outgrow [`VerticalParams::cache_cap_bytes`]
//! (or the prefix is not cached, e.g. after the pass-2 pair fast path or a
//! backward jump), the prefix list is **re-folded from the litemset index
//! lists**: seed with the first id's earliest occurrence per customer, then
//! one join per remaining prefix id. Cached lists are a pure function of
//! the transformed database, so the cache never needs invalidation.
//!
//! ## Parallelism and determinism
//!
//! Counting shards over **prefix runs** (maximal blocks of candidates
//! sharing a length-`k-1` prefix; contiguous because arenas are sorted) via
//! [`map_chunks`], so each run's fold-or-lookup decision and join count are
//! independent of the chunking: supports, join counters, and list bytes are
//! bit-identical across thread counts, matching the workspace-wide
//! guarantee of the horizontal strategies.
//!
//! [`CountingStrategy::Vertical`]: crate::counting::CountingStrategy

use crate::arena::CandidateArena;
use crate::cast::{id32, idx, w64};
use crate::stats::{MiningStats, Stopwatch};
use crate::types::transformed::{LitemsetId, TransformedCustomer, TransformedDatabase};
use seqpat_itemset::parallel::map_chunks;
use std::time::Duration;

/// Knobs of the vertical strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerticalParams {
    /// Maximum bytes of per-candidate occurrence lists retained between
    /// passes. `0` disables retention entirely: every pass re-folds its
    /// prefixes from the litemset index lists (more joins, least memory).
    pub cache_cap_bytes: usize,
}

impl Default for VerticalParams {
    fn default() -> Self {
        Self {
            // 64 MiB comfortably holds the lists of every paper-scale
            // dataset; the cap exists for adversarial low-minsup runs.
            cache_cap_bytes: 64 << 20,
        }
    }
}

/// One occurrence: `customer` is the index into
/// `TransformedDatabase::customers`, `pos` the transaction index within
/// that customer where the (last element of the) sequence matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Occurrence {
    /// Customer index (not customer id — lists are internal to one run).
    pub customer: u32,
    /// Transaction index of the earliest match end.
    pub pos: u32,
}

const OCC_BYTES: usize = std::mem::size_of::<Occurrence>();

/// CSR occurrence index over litemset ids: `list(id)` is the flat slice of
/// this id's occurrences, sorted by `(customer, pos)`.
#[derive(Debug)]
pub struct VerticalIndex {
    offsets: Vec<usize>,
    occ: Vec<Occurrence>,
}

impl VerticalIndex {
    /// Builds the index in two scans (count, then cursor fill); the scan
    /// order — customers ascending, transactions ascending — is what makes
    /// every per-id list arrive sorted without a sort pass.
    pub fn build(tdb: &TransformedDatabase) -> Self {
        Self::build_slice(&tdb.customers, tdb.table.len())
    }

    /// Like [`VerticalIndex::build`], but over any contiguous row slice —
    /// a whole database or one shard of it. `customer` fields of the
    /// resulting occurrences index into `customers`, so per-shard indexes
    /// are self-contained (supports are additive across shards).
    pub fn build_slice(customers: &[TransformedCustomer], num_litemsets: usize) -> Self {
        let n = num_litemsets;
        debug_assert!(
            customers
                .iter()
                .flat_map(|c| &c.elements)
                .flatten()
                .all(|&id| idx(id) < n),
            "every transformed litemset id is within the n-entry alphabet"
        );
        let mut offsets = vec![0usize; n + 1];
        for customer in customers {
            for element in &customer.elements {
                for &id in element {
                    offsets[idx(id) + 1] += 1;
                }
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut occ = vec![Occurrence::default(); offsets[n]];
        let mut cursor = offsets.clone();
        for (c, customer) in customers.iter().enumerate() {
            for (t, element) in customer.elements.iter().enumerate() {
                for &id in element {
                    occ[cursor[idx(id)]] = Occurrence {
                        customer: id32(c),
                        pos: id32(t),
                    };
                    cursor[idx(id)] += 1;
                }
            }
        }
        debug_assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "CSR offsets are monotone non-decreasing"
        );
        Self { offsets, occ }
    }

    /// All occurrences of litemset `id`.
    pub fn list(&self, id: LitemsetId) -> &[Occurrence] {
        debug_assert!(
            idx(id) + 1 < self.offsets.len() && self.offsets[idx(id)] <= self.offsets[idx(id) + 1],
            "id within the alphabet; CSR offsets monotone"
        );
        &self.occ[self.offsets[idx(id)]..self.offsets[idx(id) + 1]]
    }

    /// Heap bytes held by the index.
    pub fn bytes(&self) -> u64 {
        w64(self.occ.len() * OCC_BYTES + self.offsets.len() * std::mem::size_of::<usize>())
    }
}

/// CSR store of per-candidate occurrence lists (one list per arena row).
#[derive(Debug, Clone, Default)]
pub struct OccLists {
    offsets: Vec<usize>,
    occ: Vec<Occurrence>,
}

impl OccLists {
    fn new() -> Self {
        Self {
            offsets: vec![0],
            occ: Vec::new(),
        }
    }

    fn push_list(&mut self, list: &[Occurrence]) {
        self.occ.extend_from_slice(list);
        self.offsets.push(self.occ.len());
    }

    /// The `i`-th candidate's occurrence list.
    pub fn list(&self, i: usize) -> &[Occurrence] {
        debug_assert!(
            i + 1 < self.offsets.len() && self.offsets[i] <= self.offsets[i + 1],
            "list index within bounds; CSR offsets monotone"
        );
        &self.occ[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of lists stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no lists are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held.
    pub fn bytes(&self) -> u64 {
        w64(self.occ.len() * OCC_BYTES + self.offsets.len() * std::mem::size_of::<usize>())
    }

    /// Appends another chunk's lists (used to merge `map_chunks` results in
    /// chunk order).
    fn append(&mut self, other: &OccLists) {
        debug_assert!(
            other.offsets.first() == Some(&0),
            "an OccLists CSR always starts at offset 0"
        );
        let base = self.occ.len();
        self.occ.extend_from_slice(&other.occ);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| o + base));
    }
}

/// Packed comparison key: `(customer << 32) | pos`. Integer order on keys
/// is lexicographic `(customer, pos)` order, so the two-pointer advancement
/// condition `customer < p.customer || (customer == p.customer && pos <=
/// p.pos)` collapses to the single compare `key <= key(p)`.
#[inline]
fn key(o: Occurrence) -> u64 {
    (u64::from(o.customer) << 32) | u64::from(o.pos)
}

/// Last-list-to-prefix-list length ratio above which [`join`] switches from
/// the linear branchless walk to galloping: past this skew the `O(log run)`
/// probes beat touching every irrelevant occurrence once. A pure function
/// of the two lists, so the dispatch (and every counter) is deterministic.
const GALLOP_RATIO: usize = 8;

/// Per-join-kernel counters, merged into [`VerticalState`] after a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct JoinCounters {
    /// Merge-joins executed.
    joins: u64,
    /// Occurrence entries skipped over by galloping probes.
    gallop_skips: u64,
}

impl JoinCounters {
    fn add(&mut self, other: JoinCounters) {
        self.joins += other.joins;
        self.gallop_skips += other.gallop_skips;
    }
}

/// Temporal merge-join: `out` gets one `(customer, pos)` entry per customer
/// of `prefix` that has an entry in `last` at a strictly later transaction
/// (the earliest such). `prefix` must hold ascending unique customers;
/// `last` must be sorted by `(customer, pos)` — both invariants hold for
/// every list this module produces. Dispatches on list-length skew between
/// the branchless linear walk and the galloping walk (see the module docs);
/// both return the identical earliest-end list.
fn join(
    prefix: &[Occurrence],
    last: &[Occurrence],
    out: &mut Vec<Occurrence>,
    st: &mut JoinCounters,
) {
    debug_assert!(
        prefix.windows(2).all(|w| w[0].customer < w[1].customer),
        "prefix lists hold ascending unique customers"
    );
    debug_assert!(
        last.windows(2).all(|w| key(w[0]) <= key(w[1])),
        "index lists are sorted by (customer, pos)"
    );
    st.joins += 1;
    if last.len() > GALLOP_RATIO * prefix.len().max(1) {
        join_gallop(prefix, last, out, &mut st.gallop_skips);
    } else {
        join_linear(prefix, last, out);
    }
}

/// The dense-side join: two-pointer walk with **branchless** advancement.
/// `key(·) <= pk` is monotone over the sorted `last` list, so the advance
/// within a 4-entry window is the sum of four independent comparison flags
/// — straight-line flag adds with no data-dependent branch; the only
/// branches are the (predictable) per-window continue/exit tests.
fn join_linear(prefix: &[Occurrence], last: &[Occurrence], out: &mut Vec<Occurrence>) {
    debug_assert!(
        last.windows(2).all(|w| key(w[0]) <= key(w[1])),
        "last is sorted by key: w[0..=3] index the exactly-4-entry window \
         from get(j..j + 4), and last[j] is guarded by j < last.len()"
    );
    let mut j = 0usize;
    for &p in prefix {
        let pk = key(p);
        while let Some(w) = last.get(j..j + 4) {
            let step = usize::from(key(w[0]) <= pk)
                + usize::from(key(w[1]) <= pk)
                + usize::from(key(w[2]) <= pk)
                + usize::from(key(w[3]) <= pk);
            j += step;
            if step < 4 {
                break;
            }
        }
        // Tail: fewer than 4 entries left (or the window already stopped,
        // making this a no-op check).
        while j < last.len() && key(last[j]) <= pk {
            j += 1;
        }
        if j < last.len() && last[j].customer == p.customer {
            out.push(Occurrence {
                customer: p.customer,
                pos: last[j].pos,
            });
        }
    }
}

/// The skewed-side join: per prefix entry, exponential probing followed by
/// binary search finds the first `last` entry with `key > pk` in
/// `O(log run)` instead of touching every entry of the run. Entries jumped
/// over (beyond the one comparison the linear walk would also pay) are
/// counted in `gallop_skips`.
fn join_gallop(
    prefix: &[Occurrence],
    last: &[Occurrence],
    out: &mut Vec<Occurrence>,
    gallop_skips: &mut u64,
) {
    debug_assert!(
        last.windows(2).all(|w| key(w[0]) <= key(w[1])),
        "last is sorted by key: probe index j + step is bounds-checked before \
         every read, hi is clamped by min(len), and lo < mid < hi <= len keeps \
         the binary-search reads in range"
    );
    let mut j = 0usize;
    for &p in prefix {
        let pk = key(p);
        if j < last.len() && key(last[j]) <= pk {
            // Exponential probe: double until last[j + step] > pk (or the
            // list ends). Invariant: key(last[lo]) <= pk for lo = j + step/2.
            let mut step = 1usize;
            while j + step < last.len() && key(last[j + step]) <= pk {
                step <<= 1;
            }
            let mut lo = j + step / 2;
            let mut hi = (j + step).min(last.len());
            // Binary search the boundary in (lo, hi]: smallest index whose
            // key exceeds pk (hi == len counts as past-the-end boundary).
            while lo + 1 < hi {
                let mid = lo + (hi - lo) / 2;
                if key(last[mid]) <= pk {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            *gallop_skips += w64(hi - j - 1);
            j = hi;
        }
        if j < last.len() && last[j].customer == p.customer {
            out.push(Occurrence {
                customer: p.customer,
                pos: last[j].pos,
            });
        }
    }
}

/// Reduces an index list (possibly several occurrences per customer) to the
/// earliest occurrence per customer — `occ(⟨x⟩)` for a single id `x`.
fn seed_first_per_customer(list: &[Occurrence], out: &mut Vec<Occurrence>) {
    let mut last_customer: Option<u32> = None;
    for &o in list {
        if last_customer != Some(o.customer) {
            out.push(o);
            last_customer = Some(o.customer);
        }
    }
}

/// Computes `occ(prefix)` from the litemset index lists alone: seed with
/// the first id, then one join per remaining id (`prefix.len() - 1` joins,
/// added to `st`). `out` receives the result; `tmp` is scratch.
fn fold_prefix(
    index: &VerticalIndex,
    prefix: &[LitemsetId],
    out: &mut Vec<Occurrence>,
    tmp: &mut Vec<Occurrence>,
    st: &mut JoinCounters,
) {
    debug_assert!(
        !prefix.is_empty(),
        "a prefix has at least one id to seed from"
    );
    out.clear();
    seed_first_per_customer(index.list(prefix[0]), out);
    for &id in &prefix[1..] {
        tmp.clear();
        join(out, index.list(id), tmp, st);
        std::mem::swap(out, tmp);
    }
}

/// Per-run (mining-run, not prefix-run) state of the vertical strategy: the
/// litemset index, the previous pass's cached lists, and the counters that
/// feed [`crate::stats::MiningStats`].
#[derive(Debug)]
pub struct VerticalState {
    index: VerticalIndex,
    params: VerticalParams,
    /// Lists of the last counted pass, keyed by that pass's sorted arena.
    cache: Option<(CandidateArena, OccLists)>,
    /// Wall time spent building the index.
    pub index_build_time: Duration,
    /// Merge-joins executed so far (the vertical analogue of an exact
    /// containment test).
    pub joins: u64,
    /// Occurrence entries skipped by galloping joins so far
    /// (thread-invariant: the gallop dispatch and probe path are pure
    /// functions of the joined lists).
    pub gallop_skips: u64,
    /// Peak bytes held across index, cached lists, and a pass's fresh lists.
    pub peak_bytes: u64,
}

impl VerticalState {
    /// Builds the occurrence index for `tdb`.
    pub fn build(tdb: &TransformedDatabase, params: VerticalParams) -> Self {
        Self::build_slice(&tdb.customers, tdb.table.len(), params)
    }

    /// Like [`VerticalState::build`], but over any contiguous row slice —
    /// a whole database or one shard of it.
    pub fn build_slice(
        customers: &[TransformedCustomer],
        num_litemsets: usize,
        params: VerticalParams,
    ) -> Self {
        // seqpat-lint: allow(no-wall-clock-in-kernels) index build is timed once per pass for MiningStats, never in the counting loops
        let watch = Stopwatch::start();
        let index = VerticalIndex::build_slice(customers, num_litemsets);
        // seqpat-lint: allow(no-wall-clock-in-kernels) one elapsed() read per index build, reported through MiningStats
        let index_build_time = watch.elapsed();
        let peak_bytes = index.bytes();
        Self {
            index,
            params,
            cache: None,
            index_build_time,
            joins: 0,
            gallop_skips: 0,
            peak_bytes,
        }
    }

    /// The underlying litemset index.
    pub fn index(&self) -> &VerticalIndex {
        &self.index
    }

    /// Counts the support of every candidate in `candidates` (sorted,
    /// equal-length rows) by occurrence-list joins, sharding prefix runs
    /// over `threads` workers. Results and join counts are bit-identical
    /// across thread counts.
    pub fn count(&mut self, candidates: &CandidateArena, threads: usize) -> Vec<u64> {
        let n = candidates.num_candidates();
        if n == 0 {
            self.cache = None;
            return Vec::new();
        }
        let len = candidates.candidate_len();
        debug_assert!(
            candidates
                .iter()
                .flatten()
                .all(|&id| idx(id) + 1 < self.index.offsets.len()),
            "every candidate id is within the index alphabet"
        );

        // Maximal blocks of candidates sharing the length-(len-1) prefix;
        // contiguous because the arena is sorted. Each run is scheduled
        // whole, which pins the fold-vs-lookup decision (and hence the join
        // counter) to the run, not to the chunking.
        let runs = candidates.prefix_runs();

        // Lists are only worth keeping when the next pass can binary-search
        // them, which needs this arena sorted — true for every algorithm
        // pass, possibly false for ad-hoc one-shot counts.
        let keep_lists = self.params.cache_cap_bytes > 0 && candidates.is_sorted_unique();
        let cache = self.cache.take();
        let cached = cache
            .as_ref()
            .filter(|(arena, _)| len >= 2 && arena.candidate_len() == len - 1);

        let index = &self.index;
        let partials = map_chunks(&runs, threads, |chunk| {
            let mut supports: Vec<u64> = Vec::new();
            let mut lists = OccLists::new();
            let mut st = JoinCounters::default();
            let mut folded: Vec<Occurrence> = Vec::new();
            let mut fold_tmp: Vec<Occurrence> = Vec::new();
            let mut out: Vec<Occurrence> = Vec::new();
            for &(start, end) in chunk {
                let prefix = &candidates.get(start)[..len - 1];
                let cached_list = if len == 1 {
                    None
                } else {
                    cached.and_then(|(a, l)| a.binary_search(prefix).ok().map(|i| l.list(i)))
                };
                let prefix_list: &[Occurrence] = if len == 1 {
                    &[]
                } else if let Some(list) = cached_list {
                    list
                } else {
                    fold_prefix(index, prefix, &mut folded, &mut fold_tmp, &mut st);
                    &folded
                };
                for i in start..end {
                    let last = candidates.get(i)[len - 1];
                    out.clear();
                    if len == 1 {
                        seed_first_per_customer(index.list(last), &mut out);
                    } else {
                        join(prefix_list, index.list(last), &mut out, &mut st);
                    }
                    supports.push(w64(out.len()));
                    if keep_lists {
                        lists.push_list(&out);
                    }
                }
            }
            (supports, lists, st)
        });

        let mut supports: Vec<u64> = Vec::with_capacity(n);
        let mut new_lists = OccLists::new();
        let mut totals = JoinCounters::default();
        for (s, l, st) in partials {
            supports.extend(s);
            if keep_lists {
                new_lists.append(&l);
            }
            totals.add(st);
        }
        self.joins += totals.joins;
        self.gallop_skips += totals.gallop_skips;

        let fresh_bytes = if keep_lists {
            candidates.bytes() + new_lists.bytes()
        } else {
            0
        };
        let held = self.index.bytes()
            + cache.as_ref().map_or(0, |(a, l)| a.bytes() + l.bytes())
            + fresh_bytes;
        self.peak_bytes = self.peak_bytes.max(held);

        // The memory cap: retain the pass's lists only when they fit,
        // otherwise the next pass falls back to folding from the index.
        self.cache = if keep_lists && fresh_bytes <= w64(self.params.cache_cap_bytes) {
            Some((candidates.clone(), new_lists))
        } else {
            None
        };
        supports
    }

    /// Moves the counters into `tally` (the peak as a maximum).
    pub(crate) fn drain_into(&mut self, tally: &mut MiningStats) {
        tally.vertical_index_time += std::mem::take(&mut self.index_build_time);
        tally.join_ops += std::mem::take(&mut self.joins);
        tally.gallop_skips += std::mem::take(&mut self.gallop_skips);
        tally.vertical_peak_bytes = tally.vertical_peak_bytes.max(self.peak_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contain::customer_contains_from;
    use crate::types::itemset::Itemset;
    use crate::types::transformed::{LitemsetTable, TransformedCustomer};

    fn tdb(customers: Vec<Vec<Vec<LitemsetId>>>, num_ids: u32) -> TransformedDatabase {
        let table = LitemsetTable::new(
            (0..num_ids)
                .map(|i| (Itemset::new(vec![i + 1]), 1))
                .collect::<Vec<_>>(),
        );
        let total = customers.len();
        TransformedDatabase {
            customers: customers
                .into_iter()
                .enumerate()
                .map(|(i, elements)| TransformedCustomer {
                    customer_id: i as u64 + 1,
                    elements,
                })
                .collect(),
            table,
            total_customers: total,
        }
    }

    fn occ(customer: u32, pos: u32) -> Occurrence {
        Occurrence { customer, pos }
    }

    #[test]
    fn index_lists_are_customer_partitioned_and_sorted() {
        let db = tdb(
            vec![
                vec![vec![0], vec![1, 2], vec![0]],
                vec![],
                vec![vec![2], vec![0, 2]],
            ],
            3,
        );
        let index = VerticalIndex::build(&db);
        assert_eq!(index.list(0), &[occ(0, 0), occ(0, 2), occ(2, 1)]);
        assert_eq!(index.list(1), &[occ(0, 1)]);
        assert_eq!(index.list(2), &[occ(0, 1), occ(2, 0), occ(2, 1)]);
        assert!(index.bytes() > 0);
    }

    #[test]
    fn join_requires_strictly_later_transactions() {
        let prefix = [occ(0, 1), occ(2, 0), occ(5, 3)];
        let last = [occ(0, 0), occ(0, 1), occ(0, 4), occ(2, 0), occ(4, 0)];
        let mut out = Vec::new();
        let mut st = JoinCounters::default();
        join(&prefix, &last, &mut out, &mut st);
        // Customer 0: earliest entry after pos 1 is pos 4. Customer 2: only
        // entry is at pos 0, not strictly later. Customer 5: absent.
        assert_eq!(out, vec![occ(0, 4)]);
        assert_eq!(st.joins, 1);
    }

    #[test]
    fn packed_key_orders_by_customer_then_pos() {
        assert!(key(occ(0, u32::MAX)) < key(occ(1, 0)));
        assert!(key(occ(3, 5)) < key(occ(3, 6)));
        assert_eq!(key(occ(2, 7)), (2u64 << 32) | 7);
    }

    #[test]
    fn linear_and_galloping_joins_agree_on_skewed_lists() {
        // Pathological skew: 3 prefix entries against a 600-entry index
        // list (ratio 200 ≫ GALLOP_RATIO forces the gallop path in join),
        // with long runs of a hot customer between the matches.
        let prefix = [occ(5, 2), occ(7, 90), occ(900, 0)];
        let mut last = Vec::new();
        for pos in 0..250 {
            last.push(occ(5, pos)); // hot customer, run crossing pos 2
        }
        for pos in 0..100 {
            last.push(occ(6, pos)); // run the gallop must leap entirely
        }
        for pos in 0..249 {
            last.push(occ(7, pos)); // hot customer, run crossing pos 90
        }
        last.push(occ(901, 3)); // customer 900 absent
        let mut linear = Vec::new();
        join_linear(&prefix, &last, &mut linear);
        let mut galloped = Vec::new();
        let mut skips = 0u64;
        join_gallop(&prefix, &last, &mut galloped, &mut skips);
        assert_eq!(galloped, linear);
        assert_eq!(linear, vec![occ(5, 3), occ(7, 91)]);
        assert!(skips > 0, "skew this extreme must take galloping shortcuts");

        // The public entry point dispatches to the gallop path here.
        let mut via_join = Vec::new();
        let mut st = JoinCounters::default();
        join(&prefix, &last, &mut via_join, &mut st);
        assert_eq!(via_join, linear);
        assert_eq!(st.gallop_skips, skips);
    }

    #[test]
    fn gallop_handles_boundary_runs() {
        // Match at the very last entry, prefix entry past every customer,
        // and a probe that overshoots the list end mid-doubling.
        let prefix = [occ(1, 0), occ(2, 0), occ(9, 9)];
        let mut last: Vec<Occurrence> = (1..64).map(|p| occ(0, p)).collect();
        last.push(occ(1, 5));
        last.push(occ(2, 1));
        let mut linear = Vec::new();
        join_linear(&prefix, &last, &mut linear);
        let mut galloped = Vec::new();
        let mut skips = 0u64;
        join_gallop(&prefix, &last, &mut galloped, &mut skips);
        assert_eq!(galloped, linear);
        assert_eq!(linear, vec![occ(1, 5), occ(2, 1)]);
    }

    #[test]
    fn seed_takes_first_occurrence_per_customer() {
        let list = [occ(0, 2), occ(0, 5), occ(3, 0), occ(3, 1), occ(4, 7)];
        let mut out = Vec::new();
        seed_first_per_customer(&list, &mut out);
        assert_eq!(out, vec![occ(0, 2), occ(3, 0), occ(4, 7)]);
    }

    /// Brute-force oracle: count + earliest ends via the containment kernel.
    fn oracle(db: &TransformedDatabase, cand: &[LitemsetId]) -> Vec<Occurrence> {
        db.customers
            .iter()
            .enumerate()
            .filter_map(|(c, customer)| {
                customer_contains_from(customer, cand, 0).map(|end| occ(c as u32, end as u32))
            })
            .collect()
    }

    #[test]
    fn counting_matches_containment_oracle_with_and_without_cache() {
        let db = tdb(
            vec![
                vec![vec![0], vec![1], vec![0, 1], vec![2]],
                vec![vec![1, 2], vec![0], vec![0]],
                vec![vec![2], vec![2], vec![1]],
                vec![vec![0, 1, 2]],
                vec![],
            ],
            3,
        );
        // All 27 ordered triples over {0,1,2}; sorted by construction.
        let mut triples = CandidateArena::new(3);
        for a in 0..3u32 {
            for b in 0..3u32 {
                for c in 0..3u32 {
                    triples.push(&[a, b, c]);
                }
            }
        }
        for cap in [0usize, usize::MAX] {
            let mut state = VerticalState::build(
                &db,
                VerticalParams {
                    cache_cap_bytes: cap,
                },
            );
            for threads in [1usize, 2, 4] {
                let supports = state.count(&triples, threads);
                for (i, cand) in triples.iter().enumerate() {
                    let expected = oracle(&db, cand);
                    assert_eq!(
                        supports[i],
                        expected.len() as u64,
                        "cap {cap}, threads {threads}, candidate {cand:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_prefix_lists_cut_joins() {
        let db = tdb(
            vec![
                vec![vec![0], vec![1], vec![2], vec![0]],
                vec![vec![0], vec![1], vec![2]],
                vec![vec![1], vec![0], vec![2]],
            ],
            3,
        );
        let pairs = CandidateArena::from_rows(2, [&[0u32, 1][..], &[0, 2], &[1, 2]]);
        let triples = CandidateArena::from_rows(3, [&[0u32, 1, 2][..]]);

        // With caching: pass 2 folds (prefix length 1 → 0 fold joins,
        // 3 candidate joins); pass 3 finds its prefix ⟨0 1⟩ cached → one
        // more join.
        let mut warm = VerticalState::build(&db, VerticalParams::default());
        let s2 = warm.count(&pairs, 1);
        assert_eq!(warm.joins, 3);
        let s3 = warm.count(&triples, 1);
        assert_eq!(warm.joins, 4);

        // cap = 0: pass 3 must re-fold its prefix (1 join) before the
        // candidate join — same supports, more joins.
        let mut cold = VerticalState::build(&db, VerticalParams { cache_cap_bytes: 0 });
        assert_eq!(cold.count(&pairs, 1), s2);
        assert_eq!(cold.count(&triples, 1), s3);
        assert_eq!(cold.joins, 5);
        assert_eq!(s3, vec![2]); // customers 0 and 1 contain ⟨0 1 2⟩
    }

    #[test]
    fn length_one_candidates_count_distinct_customers() {
        let db = tdb(
            vec![vec![vec![0], vec![0]], vec![vec![0]], vec![vec![1]]],
            2,
        );
        let mut state = VerticalState::build(&db, VerticalParams::default());
        let singles = CandidateArena::from_rows(1, [&[0u32][..], &[1]]);
        assert_eq!(state.count(&singles, 1), vec![2, 1]);
        assert_eq!(state.joins, 0);
    }

    #[test]
    fn peak_bytes_and_join_counts_are_thread_invariant() {
        let db = tdb(
            vec![
                vec![vec![0], vec![1], vec![0], vec![1]],
                vec![vec![1], vec![0], vec![1]],
                vec![vec![0], vec![0], vec![1]],
                vec![vec![1], vec![1]],
            ],
            2,
        );
        let mut pairs = CandidateArena::new(2);
        for a in 0..2u32 {
            for b in 0..2u32 {
                pairs.push(&[a, b]);
            }
        }
        let run = |threads: usize| {
            let mut state = VerticalState::build(&db, VerticalParams::default());
            let supports = state.count(&pairs, threads);
            (supports, state.joins, state.gallop_skips, state.peak_bytes)
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Sorted duplicate-free occurrence lists in packed-key order —
        /// exactly the invariant the index lists and join outputs hold.
        fn arb_list(
            customers: u32,
            size: core::ops::Range<usize>,
        ) -> impl Strategy<Value = Vec<Occurrence>> {
            proptest::collection::btree_set((0..customers, 0u32..300), size).prop_map(|set| {
                set.into_iter()
                    .map(|(customer, pos)| Occurrence { customer, pos })
                    .collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The branchless linear join and the galloping join are
            /// interchangeable on any (prefix, last) pair, including the
            /// skewed shapes the dispatcher sends to the gallop path.
            #[test]
            fn linear_and_galloping_joins_agree(
                prefix in arb_list(8, 1..4),
                last in arb_list(8, 64..256),
            ) {
                // Prefix lists hold at most one (earliest) occurrence per
                // customer — the invariant `join` debug-asserts.
                let mut prefix = prefix;
                prefix.dedup_by_key(|o| o.customer);
                let mut linear = Vec::new();
                join_linear(&prefix, &last, &mut linear);
                let mut galloped = Vec::new();
                let mut skips = 0u64;
                join_gallop(&prefix, &last, &mut galloped, &mut skips);
                prop_assert_eq!(&galloped, &linear);

                // This size ratio always exceeds GALLOP_RATIO, so the
                // public dispatcher must agree with (and route to) the
                // galloping path.
                prop_assert!(last.len() > GALLOP_RATIO * prefix.len());
                let mut via_join = Vec::new();
                let mut st = JoinCounters::default();
                join(&prefix, &last, &mut via_join, &mut st);
                prop_assert_eq!(&via_join, &linear);
                prop_assert_eq!(st.gallop_skips, skips);
            }
        }
    }
}
