//! Support counting for candidate sequences over the transformed database.
//!
//! Four interchangeable strategies plus an automatic selector (an ablation
//! bench in `seqpat-bench` compares them):
//!
//! * [`CountingStrategy::Direct`] — for each customer, test every candidate
//!   with the greedy containment scan, prefiltered by a litemset-presence
//!   bitmap (a candidate using an id the customer never bought cannot
//!   match).
//! * [`CountingStrategy::HashTree`] — the paper's approach: put the
//!   candidates in a [`SequenceHashTree`] and let each customer walk it,
//!   touching only candidates whose prefix ids actually occur.
//! * [`CountingStrategy::Vertical`] — id-list joins over the occurrence
//!   index built by [`crate::vertical`]: support comes from merge-joining
//!   occurrence lists instead of scanning customers at all.
//! * [`CountingStrategy::Bitmap`] — SPAM-style packed bitmaps with
//!   shift-AND S-step extension kernels ([`crate::bitmap`]): the temporal
//!   join becomes word-parallel ALU work over a flat `u64` arena.
//! * [`CountingStrategy::Auto`] — resolves to Bitmap, Vertical, or
//!   HashTree after the transformation phase from cheap database
//!   statistics (see [`auto_decide`]); the decision and its inputs are
//!   recorded in [`MiningStats`].
//!
//! All strategies produce identical counts (pinned by tests here and by
//! property tests at the workspace level). The horizontal strategies report
//! the number of exact containment tests performed; the vertical strategy
//! reports merge-joins; the bitmap strategy reports smeared words — all
//! feed the harness's machine-independent cost counters.
//!
//! ## Parallel counting
//!
//! Support is counted per customer, each customer at most once, so the
//! horizontal strategies shard `tdb.customers` into contiguous chunks via
//! [`seqpat_itemset::parallel::map_chunks`]: every worker owns a private
//! support array plus private scratch (the presence bitmap for `Direct`,
//! a [`VisitSet`] for `HashTree` — the [`SequenceHashTree`] itself is
//! built once and shared immutably), and the per-chunk arrays and test
//! counters are reduced in chunk order. The vertical strategy shards
//! **candidates** (prefix runs) instead — see [`crate::vertical`]. Since
//! the per-candidate counts are exact `u64` sums, parallel runs are
//! **bit-identical** to serial runs — supports, large-sequence sets, and
//! cost counters all match regardless of thread count or OS scheduling.
//!
//! ## Per-run state: [`CountingContext`]
//!
//! The algorithms drive counting through a [`CountingContext`], which owns
//! the strategy knobs, the containment-test counter, and (for the vertical
//! strategy) the lazily built [`VerticalState`] whose pass-to-pass list
//! cache is the whole point of the vertical layout. One context lives for
//! one mining run and is flushed into [`MiningStats`] at the end.

use crate::arena::CandidateArena;
use crate::bitmap::BitmapState;
use crate::cast::{id32, idx, w64};
use crate::contain::customer_contains;
use crate::dataset::{shard_ranges, Dataset, ShardScratch};
use crate::fxhash::FxHashMap;
use crate::hash_tree::{SequenceHashTree, VisitSet};
use crate::stats::MiningStats;
use crate::types::transformed::{LitemsetId, TransformedCustomer};
use crate::vertical::{VerticalParams, VerticalState};
use seqpat_itemset::parallel::{map_chunks, sum_partials};
use seqpat_itemset::Parallelism;
use std::time::Duration;

/// Strategy for counting candidate supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountingStrategy {
    /// Per-candidate greedy scans with a presence-bitmap prefilter.
    Direct,
    /// The paper's candidate hash tree.
    #[default]
    HashTree,
    /// Occurrence-list merge-joins over the vertical index.
    Vertical,
    /// SPAM-style packed bitmaps with S-step extension kernels.
    Bitmap,
    /// Pick Bitmap/Vertical/HashTree from database statistics after the
    /// transformation phase (see [`auto_decide`]).
    Auto,
}

impl std::str::FromStr for CountingStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "direct" => Ok(CountingStrategy::Direct),
            "hashtree" | "hash-tree" | "hash_tree" => Ok(CountingStrategy::HashTree),
            "vertical" => Ok(CountingStrategy::Vertical),
            "bitmap" => Ok(CountingStrategy::Bitmap),
            "auto" => Ok(CountingStrategy::Auto),
            other => Err(format!(
                "unknown counting strategy '{other}' (expected direct, hashtree, vertical, bitmap, or auto)"
            )),
        }
    }
}

impl std::fmt::Display for CountingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CountingStrategy::Direct => "direct",
            CountingStrategy::HashTree => "hashtree",
            CountingStrategy::Vertical => "vertical",
            CountingStrategy::Bitmap => "bitmap",
            CountingStrategy::Auto => "auto",
        })
    }
}

/// Below this many customers any per-run index build costs more than the
/// scans it saves; Auto falls back to the paper's hash tree. Calibrated by
/// experiment E11 (see EXPERIMENTS.md).
pub const AUTO_MIN_CUSTOMERS: u64 = 64;

/// Density (occurrences ÷ (customers × litemsets)) at or above which Auto
/// picks the bitmap strategy; below it the occurrence lists are sparse
/// enough that id-list joins touch less memory than word scans. Calibrated
/// by experiment E11.
pub const AUTO_DENSITY_CROSSOVER: f64 = 0.05;

/// Hard cap on the bitmap arena Auto is willing to allocate
/// (`litemsets × words × 8` bytes); beyond it Auto routes to Vertical even
/// for dense databases.
pub const AUTO_BITMAP_CAP_BYTES: u64 = 1 << 30;

/// Rows per bounded scan slice when a statistics pass streams a
/// non-resident backend that has no explicit shard size configured.
pub const SCAN_SHARD_ROWS: usize = 65_536;

/// The statistics [`CountingStrategy::Auto`] decided from, plus the choice
/// and a human-readable reason — recorded in [`MiningStats`] so `--stats`
/// can show why a strategy was picked.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoDecision {
    /// The concrete strategy Auto resolved to.
    pub choice: CountingStrategy,
    /// Customers in the transformed database.
    pub customers: u64,
    /// Litemset alphabet size.
    pub litemsets: u64,
    /// Mean transformed sequence length (transactions per customer).
    pub mean_len: f64,
    /// Occurrences ÷ (customers × litemsets): the fill fraction of the
    /// (customer, litemset) incidence.
    pub density: f64,
    /// Bytes the bitmap arena would occupy for this database.
    pub bitmap_bytes: u64,
    /// Why the choice was made.
    pub reason: &'static str,
}

/// Picks a concrete strategy for `ds` from cheap statistics gathered in
/// one scan. The decision rule (thresholds calibrated by experiment E11):
///
/// 1. Tiny databases (under [`AUTO_MIN_CUSTOMERS`] customers, or an empty
///    alphabet) → [`CountingStrategy::HashTree`] — index builds cost more
///    than the scans they replace.
/// 2. A bitmap arena beyond [`AUTO_BITMAP_CAP_BYTES`] →
///    [`CountingStrategy::Vertical`] — long-tail databases where packed
///    words would be mostly zeros.
/// 3. Density at or above [`AUTO_DENSITY_CROSSOVER`] →
///    [`CountingStrategy::Bitmap`] — dense words amortize the S-step.
/// 4. Otherwise → [`CountingStrategy::Vertical`] — sparse occurrence lists
///    beat scanning mostly-empty words.
pub fn auto_decide(ds: &dyn Dataset) -> AutoDecision {
    let (mut shards, mut bytes) = (0u64, 0u64);
    auto_decide_scan(ds, None, &mut shards, &mut bytes)
}

/// [`auto_decide`] with the scan's shard size and load counters: a
/// non-resident dataset is scanned in `shard_customers` slices (or
/// [`SCAN_SHARD_ROWS`] when none is set), each load counted in `shards`
/// and `bytes`. Every statistic is additive, so the decision matches a
/// whole-database scan exactly.
fn auto_decide_scan(
    ds: &dyn Dataset,
    shard_customers: Option<usize>,
    shards: &mut u64,
    bytes: &mut u64,
) -> AutoDecision {
    let customers = w64(ds.num_rows());
    let litemsets = w64(ds.table().len());
    let mut transactions = 0u64;
    let mut occurrences = 0u64;
    let mut words = 0u64;
    let scan = match ds.resident() {
        Some(_) => None,
        None => shard_customers.or(Some(SCAN_SHARD_ROWS)),
    };
    let mut scratch = ShardScratch::new();
    for range in shard_ranges(ds.num_rows(), scan) {
        if scan.is_some() {
            *shards += 1;
            // seqpat-lint: allow(no-io-in-kernels) byte accounting read once from shard metadata
            *bytes += ds.shard_bytes(range.clone());
        }
        // seqpat-lint: allow(no-io-in-kernels) shard-granular read through the Dataset contract — the whole point of out-of-core counting
        for customer in ds.load_shard(range, &mut scratch) {
            transactions += w64(customer.elements.len());
            occurrences += customer.elements.iter().map(|e| w64(e.len())).sum::<u64>();
            words += w64(customer.elements.len().div_ceil(64));
        }
    }
    let mean_len = if customers == 0 {
        0.0
    } else {
        transactions as f64 / customers as f64
    };
    let density = if customers == 0 || litemsets == 0 {
        0.0
    } else {
        occurrences as f64 / (customers as f64 * litemsets as f64)
    };
    let bitmap_bytes = litemsets * words * w64(std::mem::size_of::<u64>());
    let (choice, reason) = if customers < AUTO_MIN_CUSTOMERS || litemsets == 0 {
        (
            CountingStrategy::HashTree,
            "tiny database: index build would cost more than the scans it saves",
        )
    } else if bitmap_bytes > AUTO_BITMAP_CAP_BYTES {
        (
            CountingStrategy::Vertical,
            "bitmap arena over the size cap: long-tail database, id-lists stay compact",
        )
    } else if density >= AUTO_DENSITY_CROSSOVER {
        (
            CountingStrategy::Bitmap,
            "dense database: word-parallel S-step kernels beat pointer-chasing joins",
        )
    } else {
        (
            CountingStrategy::Vertical,
            "sparse database: id-list joins touch only actual occurrences",
        )
    };
    AutoDecision {
        choice,
        customers,
        litemsets,
        mean_len,
        density,
        bitmap_bytes,
        reason,
    }
}

/// Hash-tree shape parameters (shared with the litemset phase defaults).
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Interior fanout.
    pub fanout: usize,
    /// Leaf capacity before splitting.
    pub leaf_capacity: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            fanout: 16,
            leaf_capacity: 32,
        }
    }
}

/// Counters of ephemeral per-shard index states, folded across shards (the
/// sharded path drops each shard's index before the next is built, so its
/// counters survive here until [`CountingContext::flush_into`]).
#[derive(Debug, Default)]
struct ShardCounters {
    vertical_index_time: Duration,
    joins: u64,
    gallop_skips: u64,
    vertical_peak_bytes: u64,
    bitmap_index_time: Duration,
    sstep_ops: u64,
    lane_words: u64,
    carry_fixups: u64,
    bitmap_words: u64,
}

/// Per-mining-run counting state: strategy knobs, the cost counters, and
/// the vertical index/list-cache (built lazily on the first vertical
/// count). Create one per run via `SequencePhaseOptions::context`, thread
/// it through every pass, and [`CountingContext::flush_into`] the run's
/// [`MiningStats`] once at the end.
///
/// With a shard size set (see [`CountingContext::with_shard_customers`]),
/// every counting pass streams the dataset shard by shard: each shard's
/// rows are loaded, its scratch index built, counted, and dropped before
/// the next shard, so peak memory is proportional to one shard rather than
/// the whole database — and the per-shard partial counts are summed in
/// shard order by the same exact-integer reducer that merges per-thread
/// partials, keeping sharded supports bit-identical to unsharded ones.
#[derive(Debug)]
pub struct CountingContext {
    strategy: CountingStrategy,
    /// The concrete strategy counts dispatch to: equal to `strategy` when
    /// explicit, filled by [`auto_decide`] on first use for `Auto`.
    resolved: Option<CountingStrategy>,
    auto_decision: Option<AutoDecision>,
    tree_params: TreeParams,
    parallelism: Parallelism,
    vertical_params: VerticalParams,
    /// Rows per counting shard; `None` counts the whole database at once.
    shard_customers: Option<usize>,
    vertical: Option<VerticalState>,
    bitmap: Option<BitmapState>,
    /// Decode-once row cache for non-resident backends counted unsharded.
    whole: ShardScratch,
    whole_loaded: bool,
    shard: ShardCounters,
    /// Exact containment tests executed so far (horizontal strategies and
    /// the on-the-fly pass).
    pub containment_tests: u64,
    /// Flat hash-tree nodes visited by probes so far (thread-invariant:
    /// the per-customer probe is a pure function of the data).
    pub probe_nodes: u64,
    /// Shard loads performed through this context (0 when counting a
    /// resident database unsharded).
    pub shards_processed: u64,
    /// Bytes of customer rows covered by those shard loads.
    pub shard_bytes: u64,
}

impl CountingContext {
    /// A fresh context; no index is built until the first vertical or
    /// bitmap count, and `Auto` decides on first use.
    pub fn new(
        strategy: CountingStrategy,
        tree_params: TreeParams,
        parallelism: Parallelism,
        vertical_params: VerticalParams,
    ) -> Self {
        Self {
            strategy,
            resolved: None,
            auto_decision: None,
            tree_params,
            parallelism,
            vertical_params,
            shard_customers: None,
            vertical: None,
            bitmap: None,
            whole: ShardScratch::new(),
            whole_loaded: false,
            shard: ShardCounters::default(),
            containment_tests: 0,
            probe_nodes: 0,
            shards_processed: 0,
            shard_bytes: 0,
        }
    }

    /// Sets the shard size for shard-by-shard counting (builder-style);
    /// `None` or a size covering the whole dataset counts unsharded.
    pub fn with_shard_customers(mut self, shard_customers: Option<usize>) -> Self {
        self.shard_customers = shard_customers;
        self
    }

    /// The strategy this context was configured with (possibly `Auto`).
    pub fn strategy(&self) -> CountingStrategy {
        self.strategy
    }

    /// The configured shard size (rows per counting shard), if any.
    pub fn shard_customers(&self) -> Option<usize> {
        self.shard_customers
    }

    /// The concrete strategy counts dispatch to, resolving `Auto` from
    /// `ds` statistics on first call (the decision then sticks for the
    /// whole run — the transformed database never changes mid-run).
    pub fn resolved_strategy(&mut self, ds: &dyn Dataset) -> CountingStrategy {
        if let Some(resolved) = self.resolved {
            return resolved;
        }
        let resolved = match self.strategy {
            CountingStrategy::Auto => {
                let decision = auto_decide_scan(
                    ds,
                    self.shard_customers,
                    &mut self.shards_processed,
                    &mut self.shard_bytes,
                );
                let choice = decision.choice;
                self.auto_decision = Some(decision);
                choice
            }
            CountingStrategy::Direct
            | CountingStrategy::HashTree
            | CountingStrategy::Vertical
            | CountingStrategy::Bitmap => self.strategy,
        };
        self.resolved = Some(resolved);
        resolved
    }

    /// The full row slice — resident, or decoded once into the context's
    /// scratch and retained for the rest of the run.
    fn whole_rows<'a>(&'a mut self, ds: &'a dyn Dataset) -> &'a [TransformedCustomer] {
        match ds.resident() {
            Some(rows) => rows,
            None => {
                if !self.whole_loaded {
                    self.whole.clear();
                    // seqpat-lint: allow(no-io-in-kernels) one whole-table load through the Dataset contract when everything fits in memory
                    ds.load_shard(0..ds.num_rows(), &mut self.whole);
                    self.whole_loaded = true;
                    self.shards_processed += 1;
                    // seqpat-lint: allow(no-io-in-kernels) byte accounting for the load above, read once from shard metadata
                    self.shard_bytes += ds.shard_bytes(0..ds.num_rows());
                }
                self.whole.rows()
            }
        }
    }

    /// Counts the support of every candidate in the arena. See
    /// [`count_supports`] for the contract; unsharded, the vertical
    /// strategy additionally reuses (and refreshes) the pass-to-pass list
    /// cache, while a configured shard size routes through the
    /// shard-by-shard loop (bit-identical supports, O(shard) peak memory).
    pub fn count(&mut self, ds: &dyn Dataset, candidates: &CandidateArena) -> Vec<u64> {
        let threads = self.parallelism.resolved_threads();
        let strategy = self.resolved_strategy(ds);
        let num_litemsets = ds.table().len();
        let ranges = shard_ranges(ds.num_rows(), self.shard_customers);
        if ranges.len() > 1 {
            return self.count_sharded(ds, candidates, strategy, threads, num_litemsets, ranges);
        }
        match strategy {
            CountingStrategy::Direct => {
                let rows = self.whole_rows(ds);
                let (supports, tests) =
                    count_direct_slice(rows, num_litemsets, candidates, threads);
                self.containment_tests += tests;
                supports
            }
            CountingStrategy::HashTree => {
                let tree = SequenceHashTree::build(
                    candidates,
                    self.tree_params.fanout,
                    self.tree_params.leaf_capacity,
                );
                let rows = self.whole_rows(ds);
                let (supports, tests, probes) = probe_hash_tree(rows, &tree, candidates, threads);
                self.containment_tests += tests;
                self.probe_nodes += probes;
                supports
            }
            CountingStrategy::Vertical => self.vertical_state(ds).count(candidates, threads),
            CountingStrategy::Bitmap => self.bitmap_state(ds).count(candidates, threads),
            // seqpat-lint: allow(no-panic-in-kernels) resolved_strategy maps Auto to a concrete choice before this match, so the arm cannot be reached
            CountingStrategy::Auto => unreachable!("Auto resolves to a concrete strategy"),
        }
    }

    /// The shard-by-shard counting loop: per shard, load the rows, count
    /// them with throwaway scratch state (index builds included), fold the
    /// scratch counters, and sum the partial supports in shard order. The
    /// partials feed the reducer lazily, so only one shard's rows and
    /// index are alive at any time.
    fn count_sharded(
        &mut self,
        ds: &dyn Dataset,
        candidates: &CandidateArena,
        strategy: CountingStrategy,
        threads: usize,
        num_litemsets: usize,
        ranges: Vec<std::ops::Range<usize>>,
    ) -> Vec<u64> {
        let n = candidates.num_candidates();
        // The hash tree depends only on the candidates: built once, probed
        // over every shard.
        let tree = match strategy {
            CountingStrategy::HashTree => Some(SequenceHashTree::build(
                candidates,
                self.tree_params.fanout,
                self.tree_params.leaf_capacity,
            )),
            CountingStrategy::Direct
            | CountingStrategy::Vertical
            | CountingStrategy::Bitmap
            | CountingStrategy::Auto => None,
        };
        let mut scratch = ShardScratch::new();
        sum_partials(
            ranges.into_iter().map(|range| {
                self.shards_processed += 1;
                // seqpat-lint: allow(no-alloc-in-hot-loop, no-io-in-kernels) once per shard, not per row; a Range clone is two word copies
                self.shard_bytes += ds.shard_bytes(range.clone());
                // seqpat-lint: allow(no-io-in-kernels) shard-granular read through the Dataset contract — the whole point of out-of-core counting
                let rows = ds.load_shard(range, &mut scratch);
                match strategy {
                    CountingStrategy::Direct => {
                        let (supports, tests) =
                            // seqpat-lint: allow(no-alloc-in-hot-loop) counter scratch is sized once per shard, not per row
                            count_direct_slice(rows, num_litemsets, candidates, threads);
                        self.containment_tests += tests;
                        supports
                    }
                    CountingStrategy::HashTree => {
                        let (supports, tests, probes) = match &tree {
                            // seqpat-lint: allow(no-alloc-in-hot-loop) probe scratch is sized once per shard, not per row
                            Some(tree) => probe_hash_tree(rows, tree, candidates, threads),
                            // Unreachable by construction (the tree is
                            // built above for this strategy); zero counts
                            // keep the arm panic-free.
                            // seqpat-lint: allow(no-alloc-in-hot-loop) dead arm kept only to avoid a panic site
                            None => (vec![0u64; n], 0, 0),
                        };
                        self.containment_tests += tests;
                        self.probe_nodes += probes;
                        supports
                    }
                    CountingStrategy::Vertical => {
                        // cache_cap_bytes = 0: the state dies with the
                        // shard, so list retention would only waste the
                        // shard's memory budget.
                        // seqpat-lint: allow(no-alloc-in-hot-loop) the vertical index is built once per shard, not per row
                        let mut state = VerticalState::build_slice(
                            rows,
                            num_litemsets,
                            VerticalParams { cache_cap_bytes: 0 },
                        );
                        let supports = state.count(candidates, threads);
                        self.shard.vertical_index_time += state.index_build_time;
                        self.shard.joins += state.joins;
                        self.shard.gallop_skips += state.gallop_skips;
                        self.shard.vertical_peak_bytes =
                            self.shard.vertical_peak_bytes.max(state.peak_bytes);
                        supports
                    }
                    CountingStrategy::Bitmap => {
                        // seqpat-lint: allow(no-alloc-in-hot-loop) the bitmap index is built once per shard, not per row
                        let mut state = BitmapState::build_slice(rows, num_litemsets);
                        let supports = state.count(candidates, threads);
                        self.shard.bitmap_index_time += state.index_build_time;
                        self.shard.sstep_ops += state.sstep_ops;
                        self.shard.lane_words += state.lane_words;
                        self.shard.carry_fixups += state.carry_fixups;
                        self.shard.bitmap_words =
                            self.shard.bitmap_words.max(state.index().words());
                        supports
                    }
                    CountingStrategy::Auto => {
                        // seqpat-lint: allow(no-panic-in-kernels) resolved_strategy maps Auto to a concrete choice before this match, so the arm cannot be reached
                        unreachable!("Auto resolves to a concrete strategy")
                    }
                }
            }),
            n,
        )
    }

    /// The pass-2 fast path through this context: shard-aware, with shard
    /// loads recorded in the context's counters. See
    /// [`large_two_sequences`] for the counting contract.
    pub fn large_two(
        &mut self,
        ds: &dyn Dataset,
        min_count: u64,
    ) -> (u64, Vec<crate::phases::maximal::LargeIdSequence>) {
        self.large_two_capped(ds, min_count, PAIR_DENSE_CAP_BYTES)
    }

    /// [`CountingContext::large_two`] with the dense-matrix byte cap as a
    /// parameter. One pair counter serves the whole pass; per shard, rows
    /// go to the workers in [`PAIR_BATCH_ROWS`] batches, and each worker
    /// returns its chunk's pair keys, bumped into the counter in chunk
    /// order, then shard order — exact integer counts, so the totals match
    /// the unsharded run bit for bit. Shard-load statistics are recorded
    /// only when rows actually stream (multiple shards, or a non-resident
    /// backend).
    fn large_two_capped(
        &mut self,
        ds: &dyn Dataset,
        min_count: u64,
        cap_bytes: u64,
    ) -> (u64, Vec<crate::phases::maximal::LargeIdSequence>) {
        let n = ds.table().len();
        let threads = self.parallelism.resolved_threads();
        let ranges = shard_ranges(ds.num_rows(), self.shard_customers);
        let streaming = ranges.len() > 1 || ds.resident().is_none();
        let mut counts = PairCounts::new(n, cap_bytes);
        let mut scratch = ShardScratch::new();
        for range in ranges {
            if streaming {
                self.shards_processed += 1;
                // seqpat-lint: allow(no-io-in-kernels) byte accounting read once from shard metadata
                self.shard_bytes += ds.shard_bytes(range.clone());
            }
            // seqpat-lint: allow(no-io-in-kernels) shard-granular read through the Dataset contract — the whole point of out-of-core counting
            let rows = ds.load_shard(range, &mut scratch);
            for batch in rows.chunks(PAIR_BATCH_ROWS) {
                let partials = pair_keys(batch, n, threads);
                for keys in partials {
                    self.containment_tests += w64(keys.len());
                    counts.bump(&keys);
                }
            }
        }
        (w64(n) * w64(n), counts.into_large(n, min_count))
    }

    /// The vertical state over the whole database, building the occurrence
    /// index on first use. Valid for any strategy (DynamicSome's
    /// on-the-fly pass uses it only when the resolved strategy is
    /// vertical).
    pub fn vertical_state(&mut self, ds: &dyn Dataset) -> &mut VerticalState {
        let state = match self.vertical.take() {
            Some(state) => state,
            None => {
                let params = self.vertical_params;
                let num_litemsets = ds.table().len();
                let rows = self.whole_rows(ds);
                VerticalState::build_slice(rows, num_litemsets, params)
            }
        };
        self.vertical.insert(state)
    }

    /// The bitmap state over the whole database, building the packed index
    /// on first use.
    pub fn bitmap_state(&mut self, ds: &dyn Dataset) -> &mut BitmapState {
        let state = match self.bitmap.take() {
            Some(state) => state,
            None => {
                let num_ids = ds.table().len();
                let rows = self.whole_rows(ds);
                BitmapState::build_slice(rows, num_ids)
            }
        };
        self.bitmap.insert(state)
    }

    /// Adds this run's counters into `stats` (take-semantics: flushing
    /// twice adds nothing twice).
    pub fn flush_into(&mut self, stats: &mut MiningStats) {
        stats.containment_tests += std::mem::take(&mut self.containment_tests);
        stats.probe_nodes += std::mem::take(&mut self.probe_nodes);
        stats.shards_processed += std::mem::take(&mut self.shards_processed);
        stats.shard_bytes += std::mem::take(&mut self.shard_bytes);
        if let Some(state) = &mut self.vertical {
            stats.vertical_index_time += std::mem::take(&mut state.index_build_time);
            stats.join_ops += std::mem::take(&mut state.joins);
            stats.gallop_skips += std::mem::take(&mut state.gallop_skips);
            stats.vertical_peak_bytes = stats.vertical_peak_bytes.max(state.peak_bytes);
        }
        if let Some(state) = &mut self.bitmap {
            stats.bitmap_index_time += std::mem::take(&mut state.index_build_time);
            stats.sstep_ops += std::mem::take(&mut state.sstep_ops);
            stats.lane_words += std::mem::take(&mut state.lane_words);
            stats.carry_fixups += std::mem::take(&mut state.carry_fixups);
            stats.bitmap_words = stats.bitmap_words.max(state.index().words());
        }
        let shard = std::mem::take(&mut self.shard);
        stats.vertical_index_time += shard.vertical_index_time;
        stats.join_ops += shard.joins;
        stats.gallop_skips += shard.gallop_skips;
        stats.vertical_peak_bytes = stats.vertical_peak_bytes.max(shard.vertical_peak_bytes);
        stats.bitmap_index_time += shard.bitmap_index_time;
        stats.sstep_ops += shard.sstep_ops;
        stats.lane_words += shard.lane_words;
        stats.carry_fixups += shard.carry_fixups;
        stats.bitmap_words = stats.bitmap_words.max(shard.bitmap_words);
        if self.auto_decision.is_some() {
            stats.auto_decision = self.auto_decision.take();
        }
    }
}

/// Counts the support of every candidate, sharding work over the workers
/// `parallelism` resolves to. Returns per-candidate customer counts and
/// adds the number of exact containment tests to `containment_tests`; both
/// are bit-identical across thread counts.
///
/// One-shot entry point (bench kernels, tests): the vertical strategy
/// builds a throwaway index here, so algorithm code goes through
/// [`CountingContext`] instead to amortize it across passes.
pub fn count_supports(
    ds: &dyn Dataset,
    candidates: &CandidateArena,
    strategy: CountingStrategy,
    tree_params: TreeParams,
    parallelism: Parallelism,
    containment_tests: &mut u64,
) -> Vec<u64> {
    let mut ctx = CountingContext::new(
        strategy,
        tree_params,
        parallelism,
        VerticalParams::default(),
    );
    let supports = ctx.count(ds, candidates);
    *containment_tests += ctx.containment_tests;
    supports
}

/// Sums per-chunk `(supports, tests)` results in chunk order via the
/// workspace-wide [`sum_partials`] reducer; exact `u64` addition makes the
/// totals independent of the chunking.
fn merge_counts(
    partials: Vec<(Vec<u64>, u64)>,
    num_candidates: usize,
    containment_tests: &mut u64,
) -> Vec<u64> {
    sum_partials(
        partials.into_iter().map(|(partial, tests)| {
            *containment_tests += tests;
            partial
        }),
        num_candidates,
    )
}

/// Direct counting over a row slice (one shard or the whole database).
/// Returns `(supports, containment_tests)` — both exact sums, so callers
/// can add the partials of consecutive shards in shard order and land on
/// the unsharded totals bit for bit.
fn count_direct_slice(
    customers: &[TransformedCustomer],
    num_litemsets: usize,
    candidates: &CandidateArena,
    threads: usize,
) -> (Vec<u64>, u64) {
    let n = candidates.num_candidates();
    debug_assert!(
        customers
            .iter()
            .flat_map(|c| &c.elements)
            .flatten()
            .all(|&id| idx(id) < num_litemsets),
        "every transformed litemset id indexes the presence bitmap"
    );
    debug_assert!(
        candidates
            .iter()
            .flatten()
            .all(|&id| idx(id) < num_litemsets),
        "every candidate id indexes the presence bitmap"
    );
    let partials = map_chunks(customers, threads, |chunk| {
        let mut supports = vec![0u64; n];
        let mut tests = 0u64;
        let mut bitmap = vec![false; num_litemsets];
        for customer in chunk {
            if customer.elements.is_empty() {
                continue;
            }
            bitmap.iter_mut().for_each(|b| *b = false);
            for element in &customer.elements {
                for &id in element {
                    bitmap[idx(id)] = true;
                }
            }
            for (slot, cand) in candidates.iter().enumerate() {
                if cand.len() > customer.elements.len() {
                    continue;
                }
                if !cand.iter().all(|&id| bitmap[idx(id)]) {
                    continue;
                }
                tests += 1;
                if customer_contains(customer, cand) {
                    supports[slot] += 1;
                }
            }
        }
        (supports, tests)
    });
    let mut tests_total = 0u64;
    let supports = merge_counts(partials, n, &mut tests_total);
    (supports, tests_total)
}

/// Fast path for pass 2 (the candidate set is always **all** `|L1|²`
/// ordered litemset pairs — the join over 1-sequences is total and the
/// prune vacuous): count every pair `⟨a b⟩` directly while scanning each
/// customer once, instead of probing millions of candidates through the
/// hash tree. This mirrors the special-cased second pass of the original
/// Apriori implementations (a count array instead of a tree). All three
/// strategies share it, so pass-2 cost is strategy-independent.
///
/// Returns `(number_of_candidate_pairs, large_two_sequences)` with the
/// large sequences in lexicographic id order. `containment_tests` is
/// incremented once per distinct `(a, b)` pair observed per customer.
///
/// One-shot entry point over the whole dataset; algorithm code goes
/// through [`CountingContext::large_two`], which streams shards. Either
/// way the pass allocates one pair counter (a dense matrix up to 8 192
/// litemsets, a hash map beyond), and workers hand back pair keys, not
/// count matrices.
pub fn large_two_sequences(
    ds: &dyn Dataset,
    min_count: u64,
    parallelism: Parallelism,
    containment_tests: &mut u64,
) -> (u64, Vec<crate::phases::maximal::LargeIdSequence>) {
    let mut ctx = CountingContext::new(
        CountingStrategy::default(),
        TreeParams::default(),
        parallelism,
        VerticalParams::default(),
    );
    let out = ctx.large_two(ds, min_count);
    *containment_tests += ctx.containment_tests;
    out
}

/// Largest pass-2 pair counter kept as a dense `n×n` `u32` matrix, in
/// bytes: 256 MiB holds an 8 192-litemset alphabet. Beyond it the pass
/// counts pairs in a hash map keyed by the pairs actually seen.
const PAIR_DENSE_CAP_BYTES: u64 = 256 << 20;

/// Customers per pass-2 key batch: workers return the pair keys of at most
/// this many rows at a time, so the key buffers stay at a few MB (about
/// 10 MB on C10-T2.5-S4-I1.25 at minsup 0.33 %, ~1 270 pairs a customer).
const PAIR_BATCH_ROWS: usize = 1024;

/// Pass-2 pair keys of one row batch, one key list per worker chunk in
/// chunk order: `a·n + b` for every distinct pair `⟨a b⟩` each customer
/// contains. The number of keys is the containment-test count.
///
/// `⟨a b⟩` is contained iff `a` occurs in a transaction strictly before
/// one holding `b`, i.e. iff `first[a] < last[b]`. The customer's ids are
/// listed in order of first occurrence, so for each `b` the matching `a`s
/// are a prefix of that list: every distinct pair comes out exactly once,
/// with no per-customer pair list to sort or dedup.
fn pair_keys(batch: &[TransformedCustomer], n: usize, threads: usize) -> Vec<Vec<usize>> {
    const UNSEEN: u32 = u32::MAX;
    map_chunks(batch, threads, |chunk| {
        let mut keys = Vec::new();
        // slot[id]: the id's position in `seen`, or UNSEEN.
        let mut slot = vec![UNSEEN; n];
        // (id, first transaction, last transaction), by first transaction.
        let mut seen: Vec<(LitemsetId, u32, u32)> = Vec::new();
        for customer in chunk {
            if customer.elements.len() < 2 {
                continue;
            }
            for (t, element) in customer.elements.iter().enumerate() {
                let t = id32(t);
                for &id in element {
                    debug_assert!(idx(id) < n, "pair ids come from the n-litemset alphabet");
                    match slot[idx(id)] {
                        UNSEEN => {
                            slot[idx(id)] = id32(seen.len());
                            seen.push((id, t, t));
                        }
                        s => seen[idx(s)].2 = t,
                    }
                }
            }
            for &(b, _, last_b) in &seen {
                let col = idx(b);
                for &(a, first_a, _) in &seen {
                    if first_a >= last_b {
                        break;
                    }
                    keys.push(idx(a) * n + col);
                }
            }
            for &(id, _, _) in &seen {
                slot[idx(id)] = UNSEEN;
            }
            seen.clear();
        }
        keys
    })
}

/// Whether an `n×n` `u32` pair matrix fits `cap_bytes`.
fn dense_pairs_fit(n: usize, cap_bytes: u64) -> bool {
    w64(n)
        .checked_mul(w64(n))
        .and_then(|cells| cells.checked_mul(w64(std::mem::size_of::<u32>())))
        .is_some_and(|bytes| bytes <= cap_bytes)
}

/// The pass-level pair counter: allocated once per pass, bumped with the
/// workers' keys in chunk order, then shard order. Its form depends only
/// on `n` and the byte cap (see [`PairCounts::new`]).
enum PairCounts {
    Dense(Vec<u32>),
    Sparse(FxHashMap<usize, u32>),
}

impl PairCounts {
    /// A dense matrix when [`dense_pairs_fit`], a hash map otherwise.
    fn new(n: usize, cap_bytes: u64) -> Self {
        if dense_pairs_fit(n, cap_bytes) {
            PairCounts::Dense(vec![0; n * n])
        } else {
            PairCounts::Sparse(FxHashMap::default())
        }
    }

    fn bump(&mut self, keys: &[usize]) {
        match self {
            PairCounts::Dense(counts) => {
                for &key in keys {
                    debug_assert!(key < counts.len(), "pair keys index the n×n matrix");
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

    /// The pairs counted at least `min_count` times over an `n`-litemset
    /// alphabet, in lexicographic `(a, b)` order (key order, since
    /// `key = a·n + b` with `b < n`).
    fn into_large(self, n: usize, min_count: u64) -> Vec<crate::phases::maximal::LargeIdSequence> {
        use crate::phases::maximal::LargeIdSequence;
        let large = |&(_, c): &(usize, u32)| u64::from(c) >= min_count;
        let entries: Vec<(usize, u32)> = match self {
            PairCounts::Dense(counts) => {
                debug_assert!(counts.len() == n * n, "dense matrix is n×n");
                counts.into_iter().enumerate().filter(large).collect()
            }
            PairCounts::Sparse(counts) => {
                let mut entries: Vec<(usize, u32)> = counts.into_iter().filter(large).collect();
                entries.sort_unstable();
                entries
            }
        };
        entries
            .into_iter()
            .map(|(key, c)| LargeIdSequence {
                // seqpat-lint: allow(no-alloc-in-hot-loop) one owned ids vec per emitted large sequence — output-proportional, not input-proportional
                ids: vec![id32(key / n), id32(key % n)],
                support: u64::from(c),
            })
            .collect()
    }
}

/// Probes a prebuilt hash tree over a row slice (one shard or the whole
/// database). Returns `(supports, containment_tests, probe_nodes)`; the
/// tree depends only on the candidate set, so the sharded path builds it
/// once and probes it over every shard.
fn probe_hash_tree(
    customers: &[TransformedCustomer],
    tree: &SequenceHashTree,
    candidates: &CandidateArena,
    threads: usize,
) -> (Vec<u64>, u64, u64) {
    let n = candidates.num_candidates();
    let partials = map_chunks(customers, threads, |chunk| {
        let mut supports = vec![0u64; n];
        let mut tests = 0u64;
        let mut probes = 0u64;
        let mut seen = VisitSet::new(n);
        for customer in chunk {
            tree.for_each_contained(
                customer,
                candidates,
                &mut seen,
                &mut tests,
                &mut probes,
                &mut |id| {
                    debug_assert!(idx(id) < n, "the tree only yields candidate slots below n");
                    supports[idx(id)] += 1;
                },
            );
        }
        (supports, tests, probes)
    });
    let mut tests_total = 0u64;
    let mut probes_total = 0u64;
    let supports = merge_counts(
        partials
            .into_iter()
            .map(|(supports, tests, probes)| {
                probes_total += probes;
                (supports, tests)
            })
            .collect(),
        n,
        &mut tests_total,
    );
    (supports, tests_total, probes_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::itemset::Itemset;
    use crate::types::transformed::{LitemsetTable, TransformedCustomer, TransformedDatabase};

    fn arena(rows: &[Vec<LitemsetId>]) -> CandidateArena {
        CandidateArena::from_rows(
            rows.first().map_or(0, |r| r.len()),
            rows.iter().map(|r| r.as_slice()),
        )
    }

    fn tdb() -> TransformedDatabase {
        let table = LitemsetTable::new(
            (0..5u32)
                .map(|i| (Itemset::new(vec![i + 1]), 3))
                .collect::<Vec<_>>(),
        );
        let mk = |id: u64, elements: Vec<Vec<LitemsetId>>| TransformedCustomer {
            customer_id: id,
            elements,
        };
        TransformedDatabase {
            customers: vec![
                mk(1, vec![vec![0], vec![4]]),
                mk(2, vec![vec![0], vec![1, 2, 3]]),
                mk(3, vec![vec![0, 3]]),
                mk(4, vec![vec![0], vec![1, 2, 3], vec![4]]),
                mk(5, vec![vec![4]]),
                mk(6, vec![]), // empty after transformation
            ],
            table,
            total_customers: 6,
        }
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [
            CountingStrategy::Direct,
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
            CountingStrategy::Bitmap,
            CountingStrategy::Auto,
        ] {
            assert_eq!(s.to_string().parse::<CountingStrategy>(), Ok(s));
        }
        assert_eq!("hash-tree".parse(), Ok(CountingStrategy::HashTree));
        assert_eq!("hash_tree".parse(), Ok(CountingStrategy::HashTree));
        assert!("sideways".parse::<CountingStrategy>().is_err());
    }

    #[test]
    fn strategies_agree_and_count_correctly() {
        let db = tdb();
        let candidates = arena(&[
            vec![0, 1], // customers 2 and 4
            vec![0, 3], // customers 2, 4 (not 3: same transaction)
            vec![0, 4], // customers 1 and 4
            vec![4, 0], // nobody
        ]);
        let mut t1 = 0;
        let direct = count_supports(
            &db,
            &candidates,
            CountingStrategy::Direct,
            TreeParams::default(),
            Parallelism::Serial,
            &mut t1,
        );
        let mut t2 = 0;
        let tree = count_supports(
            &db,
            &candidates,
            CountingStrategy::HashTree,
            TreeParams::default(),
            Parallelism::Serial,
            &mut t2,
        );
        let mut t3 = 0;
        let vertical = count_supports(
            &db,
            &candidates,
            CountingStrategy::Vertical,
            TreeParams::default(),
            Parallelism::Serial,
            &mut t3,
        );
        let mut t4 = 0;
        let bitmap = count_supports(
            &db,
            &candidates,
            CountingStrategy::Bitmap,
            TreeParams::default(),
            Parallelism::Serial,
            &mut t4,
        );
        let mut t5 = 0;
        let auto = count_supports(
            &db,
            &candidates,
            CountingStrategy::Auto,
            TreeParams::default(),
            Parallelism::Serial,
            &mut t5,
        );
        assert_eq!(direct, vec![2, 2, 2, 0]);
        assert_eq!(tree, direct);
        assert_eq!(vertical, direct);
        assert_eq!(bitmap, direct);
        assert_eq!(auto, direct);
        assert!(t1 > 0);
        assert!(t2 > 0);
        assert_eq!(t3, 0); // vertical performs joins, not containment tests
        assert_eq!(t4, 0); // bitmap performs word smears, not containment tests
    }

    #[test]
    fn auto_picks_hashtree_for_tiny_databases() {
        let decision = auto_decide(&tdb());
        assert_eq!(decision.choice, CountingStrategy::HashTree);
        assert_eq!(decision.customers, 6);
        assert_eq!(decision.litemsets, 5);
        assert!(decision.density > 0.0);
    }

    /// A synthetic transformed database: `customers` customers, each with
    /// `len` transactions of one element drawn round-robin from `ids` ids.
    fn synth_tdb(customers: usize, len: usize, ids: u32) -> TransformedDatabase {
        let table = LitemsetTable::new(
            (0..ids)
                .map(|i| (Itemset::new(vec![i + 1]), 1))
                .collect::<Vec<_>>(),
        );
        TransformedDatabase {
            customers: (0..customers)
                .map(|c| TransformedCustomer {
                    customer_id: c as u64 + 1,
                    elements: (0..len).map(|t| vec![((c + t) as u32) % ids]).collect(),
                })
                .collect(),
            table,
            total_customers: customers,
        }
    }

    #[test]
    fn auto_picks_bitmap_for_dense_and_vertical_for_sparse() {
        // 100 customers × 8 transactions over 4 ids: density 8/4 = 2.0.
        let dense = auto_decide(&synth_tdb(100, 8, 4));
        assert_eq!(dense.choice, CountingStrategy::Bitmap);
        assert!(dense.density >= AUTO_DENSITY_CROSSOVER);
        // 100 customers × 3 transactions over 1000 ids: density 0.003.
        let sparse = auto_decide(&synth_tdb(100, 3, 1000));
        assert_eq!(sparse.choice, CountingStrategy::Vertical);
        assert!(sparse.density < AUTO_DENSITY_CROSSOVER);
    }

    #[test]
    fn auto_resolution_is_recorded_and_sticks() {
        let db = synth_tdb(100, 8, 4);
        let mut ctx = CountingContext::new(
            CountingStrategy::Auto,
            TreeParams::default(),
            Parallelism::Serial,
            VerticalParams::default(),
        );
        assert_eq!(ctx.strategy(), CountingStrategy::Auto);
        assert_eq!(ctx.resolved_strategy(&db), CountingStrategy::Bitmap);
        let _ = ctx.count(&db, &arena(&[vec![0, 1]]));
        let mut stats = MiningStats::default();
        ctx.flush_into(&mut stats);
        let decision = stats.auto_decision.expect("auto decision recorded");
        assert_eq!(decision.choice, CountingStrategy::Bitmap);
        assert!(stats.bitmap_words > 0);
    }

    #[test]
    fn bitmap_prefilter_skips_impossible_candidates() {
        let db = tdb();
        // Candidate needs ids {2, 4}; only customer 4 has both, so exactly
        // one exact containment test may run.
        let mut tests = 0;
        let supports = count_supports(
            &db,
            &arena(&[vec![2, 4]]),
            CountingStrategy::Direct,
            TreeParams::default(),
            Parallelism::Serial,
            &mut tests,
        );
        assert_eq!(supports, vec![1]); // only customer 4
        assert_eq!(tests, 1);
    }

    #[test]
    fn empty_candidate_list() {
        let db = tdb();
        for strategy in [
            CountingStrategy::Direct,
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
            CountingStrategy::Bitmap,
            CountingStrategy::Auto,
        ] {
            let mut tests = 0;
            let supports = count_supports(
                &db,
                &CandidateArena::default(),
                strategy,
                TreeParams::default(),
                Parallelism::Serial,
                &mut tests,
            );
            assert!(supports.is_empty());
            assert_eq!(tests, 0);
        }
    }

    #[test]
    fn context_flush_moves_counters_into_stats_once() {
        let db = tdb();
        let mut ctx = CountingContext::new(
            CountingStrategy::Vertical,
            TreeParams::default(),
            Parallelism::Serial,
            VerticalParams::default(),
        );
        let supports = ctx.count(&db, &arena(&[vec![0, 1], vec![0, 4]]));
        assert_eq!(supports, vec![2, 2]);
        let mut stats = MiningStats::default();
        ctx.flush_into(&mut stats);
        assert!(stats.join_ops > 0);
        assert!(stats.vertical_peak_bytes > 0);
        let joins = stats.join_ops;
        ctx.flush_into(&mut stats); // idempotent: nothing left to add
        assert_eq!(stats.join_ops, joins);
    }

    #[test]
    fn fast_pair_counting_matches_generic_counting() {
        let db = tdb();
        let mut t = 0;
        let (n_candidates, l2) = large_two_sequences(&db, 2, Parallelism::Serial, &mut t);
        assert_eq!(n_candidates, 25);
        // Cross-check against generic counting of all ordered pairs.
        let all_pairs: Vec<Vec<LitemsetId>> = (0..5)
            .flat_map(|a| (0..5).map(move |b| vec![a, b]))
            .collect();
        let mut t2 = 0;
        let generic = count_supports(
            &db,
            &arena(&all_pairs),
            CountingStrategy::Direct,
            TreeParams::default(),
            Parallelism::Serial,
            &mut t2,
        );
        let expected: Vec<(Vec<LitemsetId>, u64)> = all_pairs
            .into_iter()
            .zip(generic)
            .filter(|&(_, c)| c >= 2)
            .collect();
        let got: Vec<(Vec<LitemsetId>, u64)> = l2.into_iter().map(|s| (s.ids, s.support)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn fast_pair_counting_handles_repeats_within_customer() {
        // One customer with id 0 in three transactions: pair (0,0) counted
        // once for the customer.
        use crate::types::itemset::Itemset;
        use crate::types::transformed::{LitemsetTable, TransformedCustomer};
        let table = LitemsetTable::new(vec![(Itemset::new(vec![1]), 1)]);
        let db = TransformedDatabase {
            customers: vec![TransformedCustomer {
                customer_id: 1,
                elements: vec![vec![0], vec![0], vec![0]],
            }],
            table,
            total_customers: 1,
        };
        let mut t = 0;
        let (_, l2) = large_two_sequences(&db, 1, Parallelism::Serial, &mut t);
        assert_eq!(l2.len(), 1);
        assert_eq!(l2[0].ids, vec![0, 0]);
        assert_eq!(l2[0].support, 1);
        assert_eq!(t, 1);
    }

    #[test]
    fn pair_storage_depends_only_on_alphabet_and_cap() {
        assert!(dense_pairs_fit(0, 0));
        assert!(!dense_pairs_fit(1, 0));
        assert!(dense_pairs_fit(1, 4));
        assert!(dense_pairs_fit(8192, PAIR_DENSE_CAP_BYTES));
        assert!(!dense_pairs_fit(8193, PAIR_DENSE_CAP_BYTES));
        assert!(!dense_pairs_fit(usize::MAX, u64::MAX));
        assert!(matches!(PairCounts::new(5, 0), PairCounts::Sparse(_)));
        assert!(matches!(
            PairCounts::new(5, PAIR_DENSE_CAP_BYTES),
            PairCounts::Dense(_)
        ));
    }

    #[test]
    fn auto_scan_streams_configured_shards_and_counts_them() {
        let db = synth_tdb(100, 8, 4);
        let (mut shards, mut bytes) = (0u64, 0u64);
        // A resident dataset is read in place: no loads to count.
        let resident = auto_decide_scan(&db, Some(30), &mut shards, &mut bytes);
        assert_eq!(resident, auto_decide(&db));
        assert_eq!((shards, bytes), (0, 0));
        let streamed = auto_decide_scan(&Streamed(&db), Some(30), &mut shards, &mut bytes);
        assert_eq!(streamed, resident);
        assert_eq!(shards, 4);
        assert_eq!(bytes, db.shard_bytes(0..100));
        let (mut shards, mut bytes) = (0u64, 0u64);
        auto_decide_scan(&Streamed(&db), None, &mut shards, &mut bytes);
        assert_eq!(
            shards, 1,
            "without a shard size the scan uses SCAN_SHARD_ROWS slices"
        );
    }

    /// A resident database seen through the non-resident half of the
    /// [`Dataset`] contract: rows are copied into the scratch per load.
    struct Streamed<'a>(&'a TransformedDatabase);

    impl Dataset for Streamed<'_> {
        fn table(&self) -> &LitemsetTable {
            self.0.table()
        }
        fn total_customers(&self) -> usize {
            self.0.total_customers()
        }
        fn num_rows(&self) -> usize {
            self.0.num_rows()
        }
        fn resident(&self) -> Option<&[TransformedCustomer]> {
            None
        }
        fn load_shard<'b>(
            &'b self,
            range: std::ops::Range<usize>,
            scratch: &'b mut ShardScratch,
        ) -> &'b [TransformedCustomer] {
            scratch.clear();
            for row in &self.0.customers[range] {
                scratch.push(row.clone());
            }
            scratch.rows()
        }
        fn shard_bytes(&self, range: std::ops::Range<usize>) -> u64 {
            self.0.shard_bytes(range)
        }
    }

    #[test]
    fn small_fanout_and_leaf_capacity_still_agree() {
        let db = tdb();
        let candidates = arena(&[vec![0, 1], vec![0, 2], vec![0, 3], vec![0, 4], vec![1, 4]]);
        let mut t = 0;
        let a = count_supports(
            &db,
            &candidates,
            CountingStrategy::HashTree,
            TreeParams {
                fanout: 2,
                leaf_capacity: 1,
            },
            Parallelism::Serial,
            &mut t,
        );
        let mut t2 = 0;
        let b = count_supports(
            &db,
            &candidates,
            CountingStrategy::Direct,
            TreeParams::default(),
            Parallelism::Serial,
            &mut t2,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_counting_matches_serial_on_fixture() {
        let db = tdb();
        let candidates = arena(&[vec![0, 1], vec![0, 2], vec![0, 3], vec![0, 4], vec![4, 0]]);
        for strategy in [
            CountingStrategy::Direct,
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
            CountingStrategy::Bitmap,
            CountingStrategy::Auto,
        ] {
            let mut serial_tests = 0;
            let serial = count_supports(
                &db,
                &candidates,
                strategy,
                TreeParams::default(),
                Parallelism::Serial,
                &mut serial_tests,
            );
            for threads in [2, 3, 7, 64] {
                let mut tests = 0;
                let parallel = count_supports(
                    &db,
                    &candidates,
                    strategy,
                    TreeParams::default(),
                    Parallelism::threads(threads),
                    &mut tests,
                );
                assert_eq!(parallel, serial, "{strategy:?} with {threads} threads");
                assert_eq!(tests, serial_tests, "{strategy:?} with {threads} threads");
            }
        }
        let mut serial_tests = 0;
        let serial = large_two_sequences(&db, 2, Parallelism::Serial, &mut serial_tests);
        for threads in [2, 3, 7, 64] {
            let mut tests = 0;
            let parallel = large_two_sequences(&db, 2, Parallelism::threads(threads), &mut tests);
            assert_eq!(parallel, serial);
            assert_eq!(tests, serial_tests);
        }
    }
}

/// Property tests pinning the tentpole guarantee: for any generated
/// database and candidate set, every thread count produces supports and
/// cost counters bit-identical to the serial run, for every counting
/// strategy (including `Auto`) — and the strategies agree with each other.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::types::itemset::Itemset;
    use crate::types::transformed::{LitemsetTable, TransformedCustomer, TransformedDatabase};
    use proptest::prelude::*;

    const NUM_LITEMSETS: usize = 6;

    /// Builds a transformed database from generated raw shape data. The
    /// customer list may be empty, and individual customers may have no
    /// elements at all.
    fn build_tdb(raw: Vec<Vec<Vec<u8>>>) -> TransformedDatabase {
        let table = LitemsetTable::new(
            (0..NUM_LITEMSETS as u32)
                .map(|i| (Itemset::new(vec![i + 1]), 1))
                .collect::<Vec<_>>(),
        );
        let total = raw.len();
        let customers = raw
            .into_iter()
            .enumerate()
            .map(|(cid, elements)| TransformedCustomer {
                customer_id: cid as u64 + 1,
                elements: elements
                    .into_iter()
                    .map(|element| {
                        let mut ids: Vec<LitemsetId> = element
                            .into_iter()
                            .map(|x| (x as usize % NUM_LITEMSETS) as LitemsetId)
                            .collect();
                        ids.sort_unstable();
                        ids.dedup();
                        ids
                    })
                    .filter(|ids| !ids.is_empty())
                    .collect(),
            })
            .collect();
        TransformedDatabase {
            customers,
            table,
            total_customers: total,
        }
    }

    fn build_candidates(raw: Vec<(u8, u8, u8)>, len: usize) -> CandidateArena {
        let mut candidates: Vec<Vec<LitemsetId>> = raw
            .into_iter()
            .map(|(a, b, c)| {
                [a, b, c][..len]
                    .iter()
                    .map(|&x| (x as usize % NUM_LITEMSETS) as LitemsetId)
                    .collect()
            })
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        CandidateArena::from_rows(len, candidates.iter().map(|c| c.as_slice()))
    }

    /// Pass 2 by brute force: every ordered pair `⟨a b⟩` against every
    /// customer, contained when some transaction holding `a` precedes one
    /// holding `b`. Returns `(candidates, large 2-sequences in (a, b)
    /// order, containment tests)`, one test per contained pair per
    /// customer.
    fn naive_pass2(
        db: &TransformedDatabase,
        min_count: u64,
    ) -> (u64, Vec<crate::phases::maximal::LargeIdSequence>, u64) {
        let n = db.table.len() as LitemsetId;
        let mut large = Vec::new();
        let mut tests = 0u64;
        for a in 0..n {
            for b in 0..n {
                let support = db
                    .customers
                    .iter()
                    .filter(|c| {
                        c.elements.iter().enumerate().any(|(i, e)| {
                            e.contains(&a) && c.elements[i + 1..].iter().any(|f| f.contains(&b))
                        })
                    })
                    .count() as u64;
                tests += support;
                if support >= min_count {
                    large.push(crate::phases::maximal::LargeIdSequence {
                        ids: vec![a, b],
                        support,
                    });
                }
            }
        }
        (u64::from(n) * u64::from(n), large, tests)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn thread_count_never_changes_counting_results(
            raw_db in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(0u8..12, 1..4),
                    0..6,
                ),
                0..9,
            ),
            raw_cands in proptest::collection::vec((0u8..12, 0u8..12, 0u8..12), 0..12),
            cand_len in 1usize..4,
        ) {
            let db = build_tdb(raw_db);
            let candidates = build_candidates(raw_cands, cand_len);
            let mut baseline: Option<Vec<u64>> = None;
            for strategy in [
                CountingStrategy::Direct,
                CountingStrategy::HashTree,
                CountingStrategy::Vertical,
                CountingStrategy::Bitmap,
                CountingStrategy::Auto,
            ] {
                let mut serial_tests = 0u64;
                let serial = count_supports(
                    &db,
                    &candidates,
                    strategy,
                    TreeParams::default(),
                    Parallelism::Serial,
                    &mut serial_tests,
                );
                // All three strategies agree on every support count.
                if let Some(base) = &baseline {
                    prop_assert_eq!(&serial, base, "{} vs direct", strategy);
                } else {
                    baseline = Some(serial.clone());
                }
                for threads in [1usize, 2, 3, 7] {
                    let mut tests = 0u64;
                    let parallel = count_supports(
                        &db,
                        &candidates,
                        strategy,
                        TreeParams::default(),
                        Parallelism::threads(threads),
                        &mut tests,
                    );
                    prop_assert_eq!(&parallel, &serial);
                    prop_assert_eq!(tests, serial_tests);
                }
            }
        }

        #[test]
        fn thread_count_never_changes_pair_counting(
            raw_db in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(0u8..12, 1..4),
                    0..6,
                ),
                0..9,
            ),
            min_count in 1u64..4,
        ) {
            let db = build_tdb(raw_db);
            let mut serial_tests = 0u64;
            let serial = large_two_sequences(&db, min_count, Parallelism::Serial, &mut serial_tests);
            for threads in [1usize, 2, 3, 7] {
                let mut tests = 0u64;
                let parallel =
                    large_two_sequences(&db, min_count, Parallelism::threads(threads), &mut tests);
                prop_assert_eq!(&parallel.1, &serial.1);
                prop_assert_eq!(parallel.0, serial.0);
                prop_assert_eq!(tests, serial_tests);
            }
        }

        /// Pass 2 against a brute-force recount, for every shard size,
        /// thread count and both pair-counter forms (a zero byte cap forces
        /// the hash map).
        #[test]
        fn pass2_matches_naive_recount(
            raw_db in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(0u8..12, 1..4),
                    0..6,
                ),
                0..12,
            ),
            min_count in 1u64..4,
        ) {
            let db = build_tdb(raw_db);
            let expected = naive_pass2(&db, min_count);
            for cap in [PAIR_DENSE_CAP_BYTES, 0] {
                for shard in [None, Some(1), Some(3), Some(7)] {
                    for threads in [1usize, 2, 3] {
                        let mut ctx = CountingContext::new(
                            CountingStrategy::default(),
                            TreeParams::default(),
                            Parallelism::threads(threads),
                            VerticalParams::default(),
                        )
                        .with_shard_customers(shard);
                        let (candidates, large) = ctx.large_two_capped(&db, min_count, cap);
                        prop_assert_eq!(
                            (candidates, large, ctx.containment_tests),
                            expected.clone(),
                            "cap {} shard {:?} threads {}", cap, shard, threads
                        );
                    }
                }
            }
        }

        /// Dynamic counterpart of the linter's determinism rules: the
        /// `map_chunks` → `sum_partials` reduction is a pure function of
        /// the input — invariant under the chunking, under staggered
        /// worker completion, and under any permutation of the partials
        /// (integer `+=` is exact and commutative).
        #[test]
        fn chunk_reduction_is_invariant_under_shuffled_completion(
            items in proptest::collection::vec(0u64..1000, 0..40),
            threads in 1usize..9,
            seed in 0u64..1_000_000_007,
        ) {
            let bins = 8usize;
            let hist = |chunk: &[u64]| {
                let mut h = vec![0u64; bins];
                for &x in chunk {
                    h[(x % bins as u64) as usize] += 1;
                }
                h
            };
            let totals = sum_partials(map_chunks(&items, 1, hist), bins);
            let mut partials = map_chunks(&items, threads, |chunk: &[u64]| {
                // Stagger workers by chunk contents so completion order
                // differs from spawn order; results must still arrive in
                // chunk order.
                let jitter = chunk.first().map_or(0, |&x| x % 4) * 50;
                std::thread::sleep(std::time::Duration::from_micros(jitter));
                hist(chunk)
            });
            prop_assert_eq!(sum_partials(partials.clone(), bins), totals.clone());
            // Seeded Fisher–Yates over the partials: the reduction must
            // ignore the order chunks are merged in.
            let mut state = seed | 1;
            for i in (1..partials.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                partials.swap(i, (state as usize) % (i + 1));
            }
            prop_assert_eq!(sum_partials(partials, bins), totals);
        }
    }
}
