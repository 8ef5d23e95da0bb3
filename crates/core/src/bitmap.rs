//! Bitmap (SPAM-style) support counting — [`CountingStrategy::Bitmap`].
//!
//! The vertical id-list strategy ([`crate::vertical`]) already touches only
//! the customers where a candidate's parts occur, but its merge-joins are
//! branch-heavy pointer walks over `(customer, position)` pairs. The
//! SPAM-family bitmap layout makes the same temporal join *word-parallel*:
//! every litemset id gets one packed bitmap over all transaction slots, and
//! extending a sequence by one litemset is a shift-AND over `u64` words.
//!
//! ## Word layout
//!
//! The whole index is **two allocations**:
//!
//! * `word_offsets` — a per-customer CSR table: customer `c`'s transactions
//!   occupy bit positions `0..len(c)` within the word span
//!   `word_offsets[c]..word_offsets[c+1]` (spans are `ceil(len(c)/64)`
//!   words; transaction `t` is bit `t % 64` of word `t / 64` of the span).
//! * `bits` — a flat id-major `Vec<u64>` arena of `num_ids × total_words`
//!   words: litemset `x`'s bitmap is the contiguous slice
//!   `bits[x·W .. (x+1)·W]`, bit set iff the transaction contains `x`.
//!
//! Both are built once after the transformation phase, are cache-linear by
//! construction, and are reused across every pass of the sequence phase.
//!
//! ## The S-step kernel
//!
//! For a sequence `s`, define `frontier(s)`: bit `(c, t)` set iff customer
//! `c` has an embedding of `s` whose **earliest-match** end is transaction
//! `t` — by the exchange argument behind [`crate::contain`], at most one
//! bit per customer, and it is exactly the `Occurrence.pos` the vertical
//! strategy computes. Extension is SPAM's S-step:
//!
//! ```text
//! frontier(s · ⟨x⟩) = sstep(frontier(s)) & bits(x)
//! ```
//!
//! where [`sstep`] transforms each customer span so that every bit
//! *strictly after* the first set bit becomes 1 (first-occurrence
//! propagation — "everything later than the earliest end is a legal start
//! for the next element").
//!
//! ## Kernel micro-architecture (see DESIGN.md "Kernel micro-architecture")
//!
//! The span walkers (`smear_and_spans`, `smear_spans`,
//! `support_spans`) split every customer window into **uniform batches**
//! (maximal runs of customers whose span is exactly one word) and
//! **multi-word spans** (customers longer than 64 transactions):
//!
//! * Uniform batches run through the manually 4×-unrolled lane kernels
//!   ([`smear_and_words`], [`smear_words`], [`support_hits_words`]) — one
//!   word is one whole customer, so the smear/AND/non-zero test is pure
//!   elementwise ALU work with no carry logic and no data-dependent
//!   branches. Words processed this way feed the `lane_words` counter.
//! * A multi-word span gets a **single carry fix-up pass**: scan to the
//!   first non-zero word `w` (words before it hold no match and smear to
//!   zero, so they are left untouched), smear `w` alone, and saturate every
//!   later word of the span (fused with the AND: those words become
//!   `bits(x)` verbatim). Saturated words feed the `carry_fixups` counter.
//!
//! [`BitmapState::count`] additionally processes each worker's customers in
//! **cache-blocked id-major tiles** of at most [`BLOCK_WORDS`] words per
//! customer block, iterating every prefix run inside the block before
//! moving on — the block's frontier and the id bitmaps it ANDs against stay
//! cache-resident across the whole candidate set. Within a block,
//! consecutive runs that share their length-`k-2` prefix reuse the folded
//! **parent frontier** instead of re-folding it from scratch (prefix-run
//! batching). The reuse is gated to pass 4 and later: at pass 3 the
//! "parent fold" of a one-id prefix is a plain copy, so caching it would
//! only add copies. Runs holding a single candidate — the common case in
//! sparse passes — skip frontier materialization entirely and go through
//! a read-only fused smear+AND+test kernel (at pass 2
//! the prefix bitmap is borrowed straight from the arena, no copy at all).
//!
//! A customer supports the candidate iff its final span is non-zero, so
//! counting is **popcount-free**: one `!= 0` test per span, with the AND
//! against the last litemset's bitmap fused into the test.
//!
//! ## Parallelism and determinism
//!
//! [`BitmapState::count`] shards **customers** into contiguous chunks via
//! [`map_chunks`]; each worker folds every prefix run over its own word
//! range only. Because the chunk word ranges partition the database and
//! every counter below is a per-span function of the data (never of batch
//! or block boundaries), the per-candidate supports and the
//! [`BitmapState::sstep_ops`] / `lane_words` / `carry_fixups` counters are
//! bit-identical for any thread count — the workspace-wide determinism
//! guarantee the other strategies pin.
//!
//! [`CountingStrategy::Bitmap`]: crate::counting::CountingStrategy

use crate::arena::CandidateArena;
use crate::cast::{id32, idx, w64};
use crate::stats::{MiningStats, Stopwatch};
use crate::types::transformed::{LitemsetId, TransformedCustomer, TransformedDatabase};
use seqpat_itemset::parallel::{map_chunks, sum_partials};
use std::time::Duration;

/// Word budget of one cache-blocked customer tile in [`BitmapState::count`]
/// (16 KiB of frontier per block): the block's frontier, parent frontier,
/// and the id bitmaps streamed against them stay cache-resident across all
/// prefix runs of a pass. Blocks are customer-aligned, so a single customer
/// longer than the budget still forms a (one-customer) block.
pub const BLOCK_WORDS: usize = 2048;

/// Single-word S-step: returns the word with every bit **strictly above**
/// the lowest set bit of `w` set, and all others clear (`0` maps to `0`).
///
/// `l = w & w.wrapping_neg()` isolates the lowest set bit; `l - 1` is the
/// mask of bits strictly below it, so `!(l | (l - 1))` is the mask of bits
/// strictly above it. For `w == 0`, `l == 0` and `l - 1` wraps to all-ones,
/// giving `0` — no match yet means nothing may start.
#[inline]
pub fn sstep(w: u64) -> u64 {
    let l = w & w.wrapping_neg();
    !(l | l.wrapping_sub(1))
}

/// Per-chunk counters of the bitmap kernels, summed across workers into
/// [`BitmapState`] (each is a per-span function of the data, so the sums
/// are thread-invariant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct KernelCounters {
    /// Words logically passed through the S-step (one per span word per
    /// smear application) — continuity with the pre-lane `sstep_ops`.
    sstep_ops: u64,
    /// Words processed by the 4×-unrolled single-word-span lane kernels.
    lane_words: u64,
    /// Words saturated by the multi-word carry fix-up pass.
    carry_fixups: u64,
}

impl KernelCounters {
    fn add(&mut self, other: KernelCounters) {
        self.sstep_ops += other.sstep_ops;
        self.lane_words += other.lane_words;
        self.carry_fixups += other.carry_fixups;
    }
}

/// Elementwise fused S-step + AND over a uniform batch (every word is one
/// whole customer span): `f[i] = sstep(f[i]) & bits[i]`, manually unrolled
/// over 4×u64 lanes.
#[inline]
pub fn smear_and_words(frontier: &mut [u64], bits: &[u64]) {
    debug_assert_eq!(
        frontier.len(),
        bits.len(),
        "a uniform batch ANDs equal-length word windows"
    );
    let mut f = frontier.chunks_exact_mut(4);
    let mut b = bits.chunks_exact(4);
    for (fw, bw) in (&mut f).zip(&mut b) {
        fw[0] = sstep(fw[0]) & bw[0];
        fw[1] = sstep(fw[1]) & bw[1];
        fw[2] = sstep(fw[2]) & bw[2];
        fw[3] = sstep(fw[3]) & bw[3];
    }
    for (fw, &bw) in f.into_remainder().iter_mut().zip(b.remainder()) {
        *fw = sstep(*fw) & bw;
    }
}

/// Elementwise S-step over a uniform batch, manually unrolled over 4×u64
/// lanes: `f[i] = sstep(f[i])`.
#[inline]
pub fn smear_words(frontier: &mut [u64]) {
    debug_assert!(
        frontier.chunks_exact(4).all(|lane| lane.len() == 4),
        "chunks_exact yields whole 4-word lanes, so lane[0..=3] are in bounds"
    );
    let mut f = frontier.chunks_exact_mut(4);
    for fw in &mut f {
        fw[0] = sstep(fw[0]);
        fw[1] = sstep(fw[1]);
        fw[2] = sstep(fw[2]);
        fw[3] = sstep(fw[3]);
    }
    for fw in f.into_remainder() {
        *fw = sstep(*fw);
    }
}

/// Branchless support test over a uniform batch: the number of words `i`
/// with `f[i] & l[i] != 0` (each word is one customer span, so this is the
/// batch's supporting-customer count), manually unrolled over 4×u64 lanes.
#[inline]
pub fn support_hits_words(frontier: &[u64], last_bits: &[u64]) -> u64 {
    debug_assert_eq!(
        frontier.len(),
        last_bits.len(),
        "a uniform batch tests equal-length word windows"
    );
    let mut hits = 0u64;
    let mut f = frontier.chunks_exact(4);
    let mut l = last_bits.chunks_exact(4);
    for (fw, lw) in (&mut f).zip(&mut l) {
        hits += u64::from(fw[0] & lw[0] != 0)
            + u64::from(fw[1] & lw[1] != 0)
            + u64::from(fw[2] & lw[2] != 0)
            + u64::from(fw[3] & lw[3] != 0);
    }
    for (&fw, &lw) in f.remainder().iter().zip(l.remainder()) {
        hits += u64::from(fw & lw != 0);
    }
    hits
}

/// Walks the customer spans of one offsets window, invoking `visit(a, b,
/// is_multi)` once per maximal uniform batch (`is_multi == false`: a run of
/// single-word spans; zero-word spans of empty customers extend a batch
/// without contributing) and once per multi-word span (`is_multi == true`:
/// one customer longer than 64 transactions). `offsets[0]` maps to relative
/// word 0 of the window.
#[inline]
fn walk_spans(offsets: &[u32], mut visit: impl FnMut(usize, usize, bool)) {
    debug_assert!(
        !offsets.is_empty() && offsets.windows(2).all(|s| s[0] <= s[1]),
        "CSR word offsets are monotone"
    );
    let base = offsets[0];
    let mut batch_start = 0usize;
    for span in offsets.windows(2) {
        let (a, b) = (idx(span[0] - base), idx(span[1] - base));
        if b - a <= 1 {
            continue; // single-word (or empty) span: stays in the batch
        }
        if a > batch_start {
            visit(batch_start, a, false);
        }
        visit(a, b, true);
        batch_start = b;
    }
    let end = idx(offsets[offsets.len() - 1] - base);
    if end > batch_start {
        visit(batch_start, end, false);
    }
}

/// Fused S-step + AND over every customer span of `frontier`
/// (`frontier(s·⟨x⟩) = sstep(frontier(s)) & bits(x)` per the module docs):
/// uniform batches go through the unrolled lanes, multi-word spans through
/// the single carry fix-up pass (words before the first match smear to zero
/// and are already zero; the first-match word is smeared in place; all
/// later words saturate, which the fused AND collapses to `bits` verbatim).
///
/// `offsets` is the window of the CSR table covering exactly the customers
/// whose words `frontier` (and `bits`) hold.
fn smear_and_spans(offsets: &[u32], frontier: &mut [u64], bits: &[u64], st: &mut KernelCounters) {
    debug_assert!(
        frontier.len() == bits.len()
            && offsets
                .last()
                .zip(offsets.first())
                .is_some_and(|(&e, &s)| idx(e - s) <= frontier.len()),
        "the frontier and bits windows cover the offsets span"
    );
    st.sstep_ops += offsets
        .last()
        .zip(offsets.first())
        .map_or(0, |(&e, &s)| w64(idx(e - s)));
    walk_spans(offsets, |a, b, is_multi| {
        if !is_multi {
            st.lane_words += w64(b - a);
            smear_and_words(&mut frontier[a..b], &bits[a..b]);
        } else {
            // Branchless carry: `carry` is all-ones from the first matched
            // word on, saturating every later word (the fused AND then
            // collapses them to `bits` verbatim).
            let mut carry = 0u64;
            for (f, &bw) in frontier[a..b].iter_mut().zip(&bits[a..b]) {
                st.carry_fixups += carry & 1;
                let w = *f;
                *f = (sstep(w) | carry) & bw;
                carry |= 0u64.wrapping_sub(u64::from(w != 0));
            }
        }
    });
}

/// Out-of-place fused S-step + AND over a uniform batch:
/// `out[i] = sstep(src[i]) & bits[i]`, manually unrolled over 4×u64 lanes.
/// Fuses the per-run frontier copy of [`BitmapState::count`] into the first
/// smear pass (the source is the parent frontier or an id bitmap borrowed
/// straight from the arena).
#[inline]
pub fn smear_and_from_words(out: &mut [u64], src: &[u64], bits: &[u64]) {
    debug_assert!(
        out.len() == src.len() && out.len() == bits.len(),
        "a uniform batch maps equal-length word windows"
    );
    let mut o = out.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    let mut b = bits.chunks_exact(4);
    for ((ow, sw), bw) in (&mut o).zip(&mut s).zip(&mut b) {
        ow[0] = sstep(sw[0]) & bw[0];
        ow[1] = sstep(sw[1]) & bw[1];
        ow[2] = sstep(sw[2]) & bw[2];
        ow[3] = sstep(sw[3]) & bw[3];
    }
    for ((ow, &sw), &bw) in o
        .into_remainder()
        .iter_mut()
        .zip(s.remainder())
        .zip(b.remainder())
    {
        *ow = sstep(sw) & bw;
    }
}

/// Out-of-place [`smear_and_spans`]: `out(c) = sstep(src(c)) & bits(c)` per
/// customer span, never reading `out`. This fuses the frontier copy that
/// would otherwise precede the first in-place smear of a prefix run —
/// `src` stays borrowed (parent frontier or arena bitmap) and is written
/// exactly once into `out`.
fn smear_and_from_spans(
    offsets: &[u32],
    out: &mut [u64],
    src: &[u64],
    bits: &[u64],
    st: &mut KernelCounters,
) {
    debug_assert!(
        out.len() == src.len()
            && out.len() == bits.len()
            && offsets
                .last()
                .zip(offsets.first())
                .is_some_and(|(&e, &s)| idx(e - s) <= out.len()),
        "the out, src, and bits windows cover the offsets span"
    );
    st.sstep_ops += offsets
        .last()
        .zip(offsets.first())
        .map_or(0, |(&e, &s)| w64(idx(e - s)));
    walk_spans(offsets, |a, b, is_multi| {
        if !is_multi {
            st.lane_words += w64(b - a);
            smear_and_from_words(&mut out[a..b], &src[a..b], &bits[a..b]);
        } else {
            let mut carry = 0u64;
            for ((o, &sw), &bw) in out[a..b].iter_mut().zip(&src[a..b]).zip(&bits[a..b]) {
                st.carry_fixups += carry & 1;
                *o = (sstep(sw) | carry) & bw;
                carry |= 0u64.wrapping_sub(u64::from(sw != 0));
            }
        }
    });
}

/// S-step (no AND) over every customer span of `frontier` — the shared
/// "ready" smear applied once per prefix run before the per-candidate
/// support tests. Same batching and carry fix-up as [`smear_and_spans`],
/// with later words of a matched multi-word span saturating to all-ones.
fn smear_spans(offsets: &[u32], frontier: &mut [u64], st: &mut KernelCounters) {
    debug_assert!(
        offsets
            .last()
            .zip(offsets.first())
            .is_some_and(|(&e, &s)| idx(e - s) <= frontier.len()),
        "the frontier covers the offsets span"
    );
    st.sstep_ops += offsets
        .last()
        .zip(offsets.first())
        .map_or(0, |(&e, &s)| w64(idx(e - s)));
    walk_spans(offsets, |a, b, is_multi| {
        if !is_multi {
            st.lane_words += w64(b - a);
            smear_words(&mut frontier[a..b]);
        } else {
            let mut carry = 0u64;
            for f in &mut frontier[a..b] {
                st.carry_fixups += carry & 1;
                let w = *f;
                *f = sstep(w) | carry;
                carry |= 0u64.wrapping_sub(u64::from(w != 0));
            }
        }
    });
}

/// Fused smear + AND + support test over a uniform batch: the number of
/// words `i` with `sstep(f[i]) & l[i] != 0`, manually unrolled over 4×u64
/// lanes. Read-only — the single-candidate-run fast path of
/// [`BitmapState::count`] never materializes the smeared frontier.
#[inline]
pub fn smear_and_hits_words(frontier: &[u64], last_bits: &[u64]) -> u64 {
    debug_assert_eq!(
        frontier.len(),
        last_bits.len(),
        "a uniform batch tests equal-length word windows"
    );
    let mut hits = 0u64;
    let mut f = frontier.chunks_exact(4);
    let mut l = last_bits.chunks_exact(4);
    for (fw, lw) in (&mut f).zip(&mut l) {
        hits += u64::from(sstep(fw[0]) & lw[0] != 0)
            + u64::from(sstep(fw[1]) & lw[1] != 0)
            + u64::from(sstep(fw[2]) & lw[2] != 0)
            + u64::from(sstep(fw[3]) & lw[3] != 0);
    }
    for (&fw, &lw) in f.remainder().iter().zip(l.remainder()) {
        hits += u64::from(sstep(fw) & lw != 0);
    }
    hits
}

/// Fused S-step + AND + support count over every customer span, **without
/// writing the frontier**: the support of `s · ⟨x⟩` given the *unsmeared*
/// frontier of `s` (which for length-2 candidates is just the prefix id's
/// bitmap, borrowed straight from the arena). Multi-word spans need no
/// materialized carry either: the words after the first match saturate, so
/// the span supports iff the first-match word passes the fused test or any
/// later `last_bits` word is non-zero.
fn support_fused_spans(
    offsets: &[u32],
    frontier: &[u64],
    last_bits: &[u64],
    st: &mut KernelCounters,
) -> u64 {
    debug_assert!(
        frontier.len() == last_bits.len()
            && offsets
                .last()
                .zip(offsets.first())
                .is_some_and(|(&e, &s)| idx(e - s) <= frontier.len()),
        "the frontier and bits windows cover the offsets span"
    );
    st.sstep_ops += offsets
        .last()
        .zip(offsets.first())
        .map_or(0, |(&e, &s)| w64(idx(e - s)));
    let mut hits = 0u64;
    walk_spans(offsets, |a, b, is_multi| {
        if !is_multi {
            st.lane_words += w64(b - a);
            hits += smear_and_hits_words(&frontier[a..b], &last_bits[a..b]);
        } else {
            let mut carry = 0u64;
            let mut hit = 0u64;
            for (&fw, &lw) in frontier[a..b].iter().zip(&last_bits[a..b]) {
                st.carry_fixups += carry & 1;
                hit |= (sstep(fw) | carry) & lw;
                carry |= 0u64.wrapping_sub(u64::from(fw != 0));
            }
            hits += u64::from(hit != 0);
        }
    });
    hits
}

/// Popcount-free support count over every customer span: the number of
/// spans whose `frontier & last_bits` (or `last_bits` alone when `frontier`
/// is `None` — the length-1 candidate case) is non-zero. Uniform batches go
/// through the unrolled branchless lanes; multi-word spans early-exit on
/// the first non-zero word.
fn support_spans(offsets: &[u32], frontier: Option<&[u64]>, last_bits: &[u64]) -> u64 {
    debug_assert!(
        offsets
            .last()
            .zip(offsets.first())
            .is_some_and(|(&e, &s)| idx(e - s) <= last_bits.len())
            && frontier.is_none_or(|f| f.len() == last_bits.len()),
        "the frontier and bits windows cover the offsets span"
    );
    let mut hits = 0u64;
    match frontier {
        Some(f) => walk_spans(offsets, |a, b, is_multi| {
            if !is_multi {
                hits += support_hits_words(&f[a..b], &last_bits[a..b]);
            } else {
                hits += u64::from(
                    f[a..b]
                        .iter()
                        .zip(&last_bits[a..b])
                        .any(|(&fw, &lw)| fw & lw != 0),
                );
            }
        }),
        None => walk_spans(offsets, |a, b, is_multi| {
            if !is_multi {
                let mut lanes = last_bits[a..b].chunks_exact(4);
                for lw in &mut lanes {
                    hits += u64::from(lw[0] != 0)
                        + u64::from(lw[1] != 0)
                        + u64::from(lw[2] != 0)
                        + u64::from(lw[3] != 0);
                }
                for &lw in lanes.remainder() {
                    hits += u64::from(lw != 0);
                }
            } else {
                hits += u64::from(last_bits[a..b].iter().any(|&w| w != 0));
            }
        }),
    }
    hits
}

/// Packed per-litemset bitmaps over a flat arena with a per-customer CSR
/// word-offset table. See the module docs for the exact layout.
#[derive(Debug)]
pub struct BitmapIndex {
    /// `customers + 1` entries; customer `c` owns words
    /// `word_offsets[c]..word_offsets[c+1]` of each id's bitmap.
    word_offsets: Vec<u32>,
    /// Id-major arena: `num_ids × total_words` words.
    bits: Vec<u64>,
    total_words: usize,
    num_ids: usize,
}

impl BitmapIndex {
    /// Builds the index in one scan of the transformed database.
    pub fn build(tdb: &TransformedDatabase) -> Self {
        Self::build_slice(&tdb.customers, tdb.table.len())
    }

    /// Like [`BitmapIndex::build`], but over any contiguous row slice — a
    /// whole database or one shard of it. Customer indices are relative to
    /// `customers`, so per-shard indexes are self-contained (supports are
    /// additive across shards).
    pub fn build_slice(customers: &[TransformedCustomer], num_ids: usize) -> Self {
        let mut word_offsets = Vec::with_capacity(customers.len() + 1);
        word_offsets.push(0u32);
        let mut total = 0u32;
        for customer in customers {
            total += id32(customer.elements.len().div_ceil(64));
            word_offsets.push(total);
        }
        let total_words = idx(total);
        let mut bits = vec![0u64; num_ids * total_words];
        debug_assert_eq!(
            word_offsets.len(),
            customers.len() + 1,
            "one CSR word offset per customer plus the terminator"
        );
        for (c, customer) in customers.iter().enumerate() {
            let base = idx(word_offsets[c]);
            for (t, element) in customer.elements.iter().enumerate() {
                let word = base + t / 64;
                let bit = 1u64 << (t % 64);
                for &id in element {
                    bits[idx(id) * total_words + word] |= bit;
                }
            }
        }
        Self {
            word_offsets,
            bits,
            total_words,
            num_ids,
        }
    }

    /// Number of customers covered.
    pub fn num_customers(&self) -> usize {
        self.word_offsets.len() - 1
    }

    /// Number of litemset ids covered.
    pub fn num_ids(&self) -> usize {
        self.num_ids
    }

    /// Total `u64` words in the bitmap arena (`num_ids × words-per-id`).
    pub fn words(&self) -> u64 {
        w64(self.bits.len())
    }

    /// Heap bytes held by the index (arena + offset table).
    pub fn bytes(&self) -> u64 {
        w64(self.bits.len() * std::mem::size_of::<u64>()
            + self.word_offsets.len() * std::mem::size_of::<u32>())
    }

    /// Words `w0..w1` of litemset `id`'s bitmap.
    fn id_words(&self, id: LitemsetId, w0: usize, w1: usize) -> &[u64] {
        debug_assert!(
            idx(id) < self.num_ids && w0 <= w1 && w1 <= self.total_words,
            "id in alphabet and word range within one bitmap"
        );
        let base = idx(id) * self.total_words;
        &self.bits[base + w0..base + w1]
    }
}

/// Per-mining-run state of the bitmap strategy: the index plus the
/// counters that feed [`crate::stats::MiningStats`]. Unlike the vertical
/// strategy there is nothing to cache between passes — the frontier fold
/// is cheap enough to redo per prefix run, and the index itself never
/// changes.
#[derive(Debug)]
pub struct BitmapState {
    index: BitmapIndex,
    /// Customer indices `0..num_customers`, precomputed once so every
    /// [`BitmapState::count`] call can shard without rebuilding the list.
    customers: Vec<u32>,
    /// Wall time spent building the index.
    pub index_build_time: Duration,
    /// Words processed by the smear kernel so far (the bitmap analogue of
    /// an exact containment test / merge-join; thread-invariant).
    pub sstep_ops: u64,
    /// Words processed by the 4×-unrolled single-word-span lane kernels
    /// (thread-invariant: a per-span function of the data).
    pub lane_words: u64,
    /// Words saturated by the multi-word carry fix-up pass
    /// (thread-invariant: a per-span function of the data).
    pub carry_fixups: u64,
}

impl BitmapState {
    /// Builds the bitmap index for `tdb`.
    pub fn build(tdb: &TransformedDatabase) -> Self {
        Self::build_slice(&tdb.customers, tdb.table.len())
    }

    /// Like [`BitmapState::build`], but over any contiguous row slice — a
    /// whole database or one shard of it.
    pub fn build_slice(customers: &[TransformedCustomer], num_ids: usize) -> Self {
        // seqpat-lint: allow(no-wall-clock-in-kernels) index build is timed once per pass for MiningStats, never in the counting loops
        let watch = Stopwatch::start();
        let index = BitmapIndex::build_slice(customers, num_ids);
        // seqpat-lint: allow(no-wall-clock-in-kernels) one elapsed() read per index build, reported through MiningStats
        let index_build_time = watch.elapsed();
        let customers: Vec<u32> = (0..id32(index.num_customers())).collect();
        Self {
            index,
            customers,
            index_build_time,
            sstep_ops: 0,
            lane_words: 0,
            carry_fixups: 0,
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &BitmapIndex {
        &self.index
    }

    /// Counts the support of every candidate in `candidates` (sorted,
    /// equal-length rows) with S-step folds, sharding customers over
    /// `threads` workers and walking each worker's customers in
    /// cache-blocked tiles of at most [`BLOCK_WORDS`] words. Supports and
    /// the kernel counters are bit-identical across thread counts.
    pub fn count(&mut self, candidates: &CandidateArena, threads: usize) -> Vec<u64> {
        let n = candidates.num_candidates();
        if n == 0 {
            return Vec::new();
        }
        let len = candidates.candidate_len();

        debug_assert!(
            candidates
                .iter()
                .flatten()
                .all(|&id| idx(id) < self.index.num_ids),
            "every candidate id is within the index alphabet"
        );

        // Maximal blocks of candidates sharing the length-(len-1) prefix
        // (contiguous because arenas are sorted): the prefix frontier is
        // folded once per run per tile, then each candidate in the run
        // costs one fused AND + non-zero test per customer span.
        let runs = candidates.prefix_runs();

        let index = &self.index;
        let partials = map_chunks(&self.customers, threads, |chunk| {
            if chunk.is_empty() {
                return (vec![0u64; n], KernelCounters::default());
            }
            let first = idx(chunk[0]);
            let chunk_offsets = &index.word_offsets[first..first + chunk.len() + 1];
            let mut supports = vec![0u64; n];
            let mut st = KernelCounters::default();
            let mut frontier: Vec<u64> = Vec::new();
            let mut parent: Vec<u64> = Vec::new();
            // Cache-blocked tiles: [c0, c1) customer windows of at most
            // BLOCK_WORDS words (always at least one customer), so the
            // frontier, parent frontier, and the id-bitmap words they
            // stream against stay cache-resident across every prefix run.
            let mut c0 = 0usize;
            while c0 < chunk.len() {
                let mut c1 = c0 + 1;
                while c1 < chunk.len()
                    && idx(chunk_offsets[c1 + 1] - chunk_offsets[c0]) <= BLOCK_WORDS
                {
                    c1 += 1;
                }
                let offsets = &chunk_offsets[c0..c1 + 1];
                let (w0, w1) = (idx(offsets[0]), idx(offsets[offsets.len() - 1]));
                debug_assert!(
                    w0 <= w1 && offsets.len() == c1 - c0 + 1,
                    "a tile owns a contiguous word range, one offset per customer plus terminator"
                );
                frontier.resize(w1 - w0, 0);
                // The folded frontier of the previous run's length-(len-2)
                // prefix, reused while consecutive runs share it.
                let mut parent_of: Option<&[LitemsetId]> = None;
                for &(start, end) in &runs {
                    let row = candidates.get(start);
                    // Materialize the *unsmeared* prefix frontier for
                    // length ≥ 3. Length 2 borrows the prefix id's bitmap
                    // straight from the arena (no copy); length ≥ 4 reuses
                    // the parent frontier across runs sharing the
                    // length-(len-2) prefix — at length 3 the parent fold
                    // is itself a plain copy, so caching it saves nothing.
                    if len >= 3 {
                        let prefix = &row[..len - 1];
                        let src: &[u64] = if len >= 4 {
                            let pids = &prefix[..len - 2];
                            if parent_of != Some(pids) {
                                parent.resize(w1 - w0, 0);
                                if let [pid] = pids {
                                    parent.copy_from_slice(index.id_words(*pid, w0, w1));
                                } else {
                                    smear_and_from_spans(
                                        offsets,
                                        &mut parent,
                                        index.id_words(pids[0], w0, w1),
                                        index.id_words(pids[1], w0, w1),
                                        &mut st,
                                    );
                                    for &id in &pids[2..] {
                                        smear_and_spans(
                                            offsets,
                                            &mut parent,
                                            index.id_words(id, w0, w1),
                                            &mut st,
                                        );
                                    }
                                }
                                parent_of = Some(pids);
                            }
                            &parent
                        } else {
                            index.id_words(prefix[0], w0, w1)
                        };
                        // Fused copy + smear + AND: `src` (parent frontier
                        // or arena bitmap) is read in place and written
                        // into the frontier exactly once.
                        smear_and_from_spans(
                            offsets,
                            &mut frontier,
                            src,
                            index.id_words(prefix[len - 2], w0, w1),
                            &mut st,
                        );
                    }
                    if len >= 2 && end - start == 1 {
                        // Single-candidate run: fuse the "ready" smear into
                        // the support test — one read-only pass, nothing
                        // written back.
                        let last_bits = index.id_words(row[len - 1], w0, w1);
                        let fbits: &[u64] = if len == 2 {
                            index.id_words(row[0], w0, w1)
                        } else {
                            &frontier
                        };
                        supports[start] += support_fused_spans(offsets, fbits, last_bits, &mut st);
                        continue;
                    }
                    if len == 2 {
                        frontier.copy_from_slice(index.id_words(row[0], w0, w1));
                    }
                    if len >= 2 {
                        // Smear once per run; every candidate then pays
                        // only the fused AND + non-zero test.
                        smear_spans(offsets, &mut frontier, &mut st);
                    }
                    for (i, support) in supports[start..end].iter_mut().enumerate() {
                        let last_id = candidates.get(start + i)[len - 1];
                        let last_bits = index.id_words(last_id, w0, w1);
                        let ready = if len == 1 { None } else { Some(&frontier[..]) };
                        *support += support_spans(offsets, ready, last_bits);
                    }
                }
                c0 = c1;
            }
            (supports, st)
        });

        let mut totals = KernelCounters::default();
        let supports = sum_partials(
            partials.into_iter().map(|(partial, st)| {
                totals.add(st);
                partial
            }),
            n,
        );
        self.sstep_ops += totals.sstep_ops;
        self.lane_words += totals.lane_words;
        self.carry_fixups += totals.carry_fixups;
        supports
    }

    /// Moves the counters into `tally` (the arena size as a maximum).
    pub(crate) fn drain_into(&mut self, tally: &mut MiningStats) {
        tally.bitmap_index_time += std::mem::take(&mut self.index_build_time);
        tally.sstep_ops += std::mem::take(&mut self.sstep_ops);
        tally.lane_words += std::mem::take(&mut self.lane_words);
        tally.carry_fixups += std::mem::take(&mut self.carry_fixups);
        tally.bitmap_words = tally.bitmap_words.max(self.index().words());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contain::customer_contains;
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

    #[test]
    fn sstep_sets_exactly_the_bits_above_the_lowest_set_bit() {
        assert_eq!(sstep(0), 0);
        assert_eq!(sstep(0b1), !0b1u64);
        assert_eq!(sstep(0b1000), !0b1111u64);
        // Higher set bits are irrelevant — only the lowest matters.
        assert_eq!(sstep(0b1010_1000), !0b1111u64);
        // A match at the top bit leaves nothing strictly after it.
        assert_eq!(sstep(1u64 << 63), 0);
        assert_eq!(sstep(u64::MAX), !0b1u64);
    }

    #[test]
    fn unrolled_lane_kernels_match_the_scalar_sstep() {
        // 11 words: two full 4-lanes plus a 3-word remainder.
        let frontier: Vec<u64> = (0..11u64)
            .map(|i| i.wrapping_mul(0x9e3779b9) << (i % 7))
            .collect();
        let bits: Vec<u64> = (0..11u64).map(|i| !i.wrapping_mul(0x85ebca6b)).collect();
        let mut lanes = frontier.clone();
        smear_and_words(&mut lanes, &bits);
        let scalar: Vec<u64> = frontier
            .iter()
            .zip(&bits)
            .map(|(&f, &b)| sstep(f) & b)
            .collect();
        assert_eq!(lanes, scalar);

        let mut lanes = frontier.clone();
        smear_words(&mut lanes);
        let scalar: Vec<u64> = frontier.iter().map(|&f| sstep(f)).collect();
        assert_eq!(lanes, scalar);

        let expected: u64 = frontier
            .iter()
            .zip(&bits)
            .map(|(&f, &b)| u64::from(f & b != 0))
            .sum();
        assert_eq!(support_hits_words(&frontier, &bits), expected);
    }

    #[test]
    fn index_layout_spans_and_bits() {
        let db = tdb(
            vec![
                vec![vec![0], vec![1, 2], vec![0]],
                vec![],
                vec![vec![2], vec![0, 2]],
            ],
            3,
        );
        let index = BitmapIndex::build(&db);
        // Customer spans: 1 word, 0 words (empty), 1 word.
        assert_eq!(index.word_offsets, vec![0, 1, 1, 2]);
        assert_eq!(index.total_words, 2);
        assert_eq!(index.words(), 6); // 3 ids × 2 words
        assert!(index.bytes() > 0);
        // id 0: customer 0 transactions {0, 2}, customer 2 transaction {1}.
        assert_eq!(index.id_words(0, 0, 2), &[0b101, 0b10]);
        // id 1: customer 0 transaction {1} only.
        assert_eq!(index.id_words(1, 0, 2), &[0b010, 0b00]);
        // id 2: customer 0 transaction {1}, customer 2 transactions {0, 1}.
        assert_eq!(index.id_words(2, 0, 2), &[0b010, 0b11]);
    }

    #[test]
    fn multi_word_customers_get_multi_word_spans() {
        // 70 transactions → 2 words for customer 0; 1 word for customer 1.
        let mut long = vec![vec![9u32]; 70];
        long[0] = vec![0];
        long[69] = vec![1];
        let db = tdb(vec![long, vec![vec![0], vec![1]]], 10);
        let index = BitmapIndex::build(&db);
        assert_eq!(index.word_offsets, vec![0, 2, 3]);
        assert_eq!(index.id_words(0, 0, 3), &[1, 0, 0b01]);
        assert_eq!(index.id_words(1, 0, 3), &[0, 1 << 5, 0b10]); // 69 = 64 + 5
    }

    /// Brute-force oracle: support via the containment kernel.
    fn oracle(db: &TransformedDatabase, cand: &[LitemsetId]) -> u64 {
        db.customers
            .iter()
            .filter(|customer| customer_contains(customer, cand))
            .count() as u64
    }

    #[test]
    fn counting_matches_containment_oracle() {
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
        let mut state = BitmapState::build(&db);
        for threads in [1usize, 2, 4] {
            let supports = state.count(&triples, threads);
            for (i, cand) in triples.iter().enumerate() {
                assert_eq!(
                    supports[i],
                    oracle(&db, cand),
                    "threads {threads}, candidate {cand:?}"
                );
            }
        }
    }

    #[test]
    fn multi_word_carry_crosses_the_64_transaction_boundary() {
        // Customer 0: id 0 at transaction 3, id 1 only at transaction 69 —
        // the S-step carry must propagate the match across the word seam.
        // Customer 1: id 1 at transaction 69 but id 0 only at 69 too (not
        // strictly earlier) — must NOT support ⟨0 1⟩.
        let mut c0 = vec![vec![9u32]; 70];
        c0[3] = vec![0];
        c0[69] = vec![1];
        let mut c1 = vec![vec![9u32]; 70];
        c1[69] = vec![0, 1];
        let db = tdb(vec![c0, c1], 10);
        let mut state = BitmapState::build(&db);
        let pairs = CandidateArena::from_rows(2, [&[0u32, 1][..], &[1, 0]]);
        for threads in [1usize, 2, 4] {
            assert_eq!(
                state.count(&pairs, threads),
                vec![1, 0],
                "{threads} threads"
            );
        }
        assert!(state.carry_fixups > 0);
    }

    #[test]
    fn three_and_four_word_frontiers_cross_every_seam() {
        // Customer 0: 130 transactions (3 words) with the match chain
        // 3 → 67 → 129 crossing both word seams. Customer 1: 200
        // transactions (4 words), chain 0 → 70 → 195 (word 0 → 1 → 3,
        // skipping word 2 entirely). Customer 2: a 190-transaction decoy
        // whose ids appear in non-matching order.
        let mut c0 = vec![vec![9u32]; 130];
        c0[3] = vec![0];
        c0[67] = vec![1];
        c0[129] = vec![2];
        let mut c1 = vec![vec![9u32]; 200];
        c1[0] = vec![0];
        c1[70] = vec![1];
        c1[195] = vec![2];
        let mut c2 = vec![vec![9u32]; 190];
        c2[10] = vec![2];
        c2[80] = vec![1];
        c2[150] = vec![0];
        let db = tdb(vec![c0, c1, c2], 10);
        let mut state = BitmapState::build(&db);
        let triples = CandidateArena::from_rows(3, [&[0u32, 1, 2][..], &[2, 1, 0]]);
        for threads in [1usize, 2, 4] {
            assert_eq!(
                state.count(&triples, threads),
                vec![2, 1],
                "{threads} threads"
            );
        }
        assert!(state.carry_fixups > 0);
    }

    #[test]
    fn length_one_candidates_count_distinct_customers() {
        let db = tdb(
            vec![vec![vec![0], vec![0]], vec![vec![0]], vec![vec![1]]],
            2,
        );
        let mut state = BitmapState::build(&db);
        let singles = CandidateArena::from_rows(1, [&[0u32][..], &[1]]);
        assert_eq!(state.count(&singles, 1), vec![2, 1]);
        assert_eq!(state.sstep_ops, 0); // length 1 needs no smear
        assert_eq!(state.lane_words, 0);
    }

    #[test]
    fn supports_and_kernel_counters_are_thread_invariant() {
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
            let mut state = BitmapState::build(&db);
            let supports = state.count(&pairs, threads);
            (
                supports,
                state.sstep_ops,
                state.lane_words,
                state.carry_fixups,
            )
        };
        let serial = run(1);
        assert!(serial.1 > 0);
        assert!(serial.2 > 0); // all customers here are single-word lanes
        assert_eq!(serial.3, 0); // no multi-word spans, no fix-ups
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn parent_frontier_reuse_preserves_triple_counts() {
        // Every length-3 candidate over a 3-id alphabet: pass 3 takes the
        // ungated path (the parent cache only engages from pass 4 on), and
        // the all-pairs arena mixes single-candidate runs (fused read-only
        // kernel) with multi-candidate runs (materialized frontier).
        let db = tdb(
            vec![
                vec![vec![0], vec![1], vec![2], vec![0]],
                vec![vec![0], vec![2], vec![1]],
                vec![vec![1], vec![0], vec![2]],
            ],
            3,
        );
        let mut triples = CandidateArena::new(3);
        for a in 0..3u32 {
            for b in 0..3u32 {
                for c in 0..3u32 {
                    triples.push(&[a, b, c]);
                }
            }
        }
        let mut state = BitmapState::build(&db);
        let supports = state.count(&triples, 1);
        for (i, cand) in triples.iter().enumerate() {
            assert_eq!(supports[i], oracle(&db, cand), "candidate {cand:?}");
        }
    }

    #[test]
    fn parent_frontier_reuse_preserves_quad_counts() {
        // Every length-4 candidate over a 3-id alphabet: runs sharing a
        // length-2 parent prefix hit the cached parent frontier, and the
        // cache must refold exactly when the parent changes without
        // altering any support.
        let db = tdb(
            vec![
                vec![vec![0], vec![1], vec![2], vec![0], vec![1]],
                vec![vec![0], vec![2], vec![1], vec![2]],
                vec![vec![1], vec![0], vec![2], vec![0]],
                vec![vec![2], vec![1], vec![0], vec![1], vec![2]],
            ],
            3,
        );
        let mut quads = CandidateArena::new(4);
        for a in 0..3u32 {
            for b in 0..3u32 {
                for c in 0..3u32 {
                    for d in 0..3u32 {
                        quads.push(&[a, b, c, d]);
                    }
                }
            }
        }
        let mut state = BitmapState::build(&db);
        let supports = state.count(&quads, 1);
        for (i, cand) in quads.iter().enumerate() {
            assert_eq!(supports[i], oracle(&db, cand), "candidate {cand:?}");
        }
    }
}
