//! Support counting for candidate sequences over the transformed database.
//!
//! Three interchangeable strategies, plus `Auto`, which picks one of them
//! from database statistics (an ablation bench in `seqpat-bench` compares
//! them):
//!
//! * [`CountingStrategy::HashTree`] — the paper's approach: put the
//!   candidates in a [`SequenceHashTree`] and let each customer walk it,
//!   touching only candidates whose prefix ids actually occur.
//! * [`CountingStrategy::Vertical`] — id-list joins over the occurrence
//!   index built by [`crate::vertical`]: support comes from merge-joining
//!   occurrence lists instead of scanning customers at all.
//! * [`CountingStrategy::Bitmap`] — SPAM-style packed bitmaps with
//!   shift-AND S-step extension kernels ([`crate::bitmap`]): the temporal
//!   join becomes word-parallel ALU work over a flat `u64` arena.
//! * [`CountingStrategy::Auto`] — resolved to Bitmap, Vertical, or HashTree
//!   from statistics gathered during the run's first walk over the rows
//!   (see [`AutoDecision`]); the decision and its inputs are recorded in
//!   [`MiningStats`].
//!
//! All strategies produce identical counts (pinned by tests here and by
//! property tests at the workspace level). The hash tree reports the number
//! of exact containment tests performed; the vertical strategy reports
//! merge-joins; the bitmap strategy reports smeared words — all feed the
//! harness's machine-independent cost counters.
//!
//! Pass 2 and DynamicSome's jumps bypass the strategy. Both count every
//! concatenation of two known sets of sequences, so one join on endpoints
//! counts them ([`crate::algorithms::otf`]); pass 2 is the join of `L1`
//! with itself ([`CountingContext::large_two`]).
//!
//! ## One walk over the rows
//!
//! Every scan of the customer rows — each count and each pair join — goes
//! through one shard walk owned by the [`CountingContext`]. Unsharded, the
//! walk has one range: a resident table is borrowed in place, and a
//! non-resident one is decoded on first use and kept for the rest of the
//! run, so the run decodes it once. Sharded, each range is loaded into
//! scratch in turn, so only one shard's rows are alive at a time. The walk
//! is also the one place that counts loads in
//! `shards_processed`/`shard_bytes`.
//!
//! `Auto` costs no walk of its own. Its statistics are sums over rows, so
//! the run's first walk — pass 2's pair join, or DynamicSome's first jump
//! with step 1 — gathers them shard by shard, and the counter is chosen
//! right after it, before any count needs one. Only a context whose first
//! call is a count (the one-shot [`count_supports`]) gathers them in a
//! statistics-only walk first. A run that never walks the rows (no large
//! litemsets, or a length cap of 1) decides nothing.
//!
//! The index strategies follow the same split. Over one range the index is
//! built on the first count and kept for the run; for the vertical
//! strategy that persistent state carries the pass-to-pass list cache.
//! Over shards, each shard builds its own index (without a list cache),
//! counts, and drops it. Either way the index's counters are drained into
//! the context's tally right after each count. Partial supports are exact
//! `u64` sums added in shard order, so sharded runs are bit-identical to
//! unsharded ones.
//!
//! ## Parallel counting
//!
//! Support is counted per customer, each customer at most once, so the
//! hash tree and the pair join shard each walk step's rows into contiguous
//! chunks via [`seqpat_itemset::parallel::map_chunks`] (or
//! `map_chunks_with`, whose workers keep their buffers across batches):
//! every worker owns private counts plus private scratch (a
//! [`ProbeScratch`] for `HashTree` — the [`SequenceHashTree`] itself is
//! built once per count and shared immutably — and key buffers for the
//! join), and the per-chunk results and test counters are reduced in chunk
//! order. The vertical strategy shards **candidates** (prefix runs)
//! instead — see [`crate::vertical`]. Since the per-candidate counts are
//! exact `u64` sums, parallel runs are **bit-identical** to serial runs —
//! supports, large-sequence sets, and cost counters all match regardless
//! of thread count or OS scheduling.

use crate::algorithms::apriori_all::SequencePhaseOptions;
use crate::algorithms::otf::{PairJoin, PAIR_BATCH_ROWS, PAIR_DENSE_CAP_BYTES};
use crate::arena::CandidateArena;
use crate::bitmap::BitmapState;
use crate::cast::{id32, idx, w64};
use crate::dataset::{shard_ranges, Dataset, ShardScratch};
use crate::hash_tree::{ProbeScratch, SequenceHashTree};
use crate::phases::maximal::LargeIdSequence;
use crate::stats::MiningStats;
use crate::types::transformed::TransformedCustomer;
use crate::vertical::{VerticalParams, VerticalState};
use seqpat_itemset::parallel::{map_chunks, map_chunks_with, sum_partials};
use seqpat_itemset::Parallelism;
use std::ops::Range;

/// Strategy for counting candidate supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountingStrategy {
    /// The paper's candidate hash tree.
    #[default]
    HashTree,
    /// Occurrence-list merge-joins over the vertical index.
    Vertical,
    /// SPAM-style packed bitmaps with S-step extension kernels.
    Bitmap,
    /// Pick Bitmap/Vertical/HashTree from database statistics gathered
    /// during the run's first walk over the rows (see [`AutoDecision`]).
    Auto,
}

impl std::str::FromStr for CountingStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "hashtree" | "hash-tree" | "hash_tree" => Ok(CountingStrategy::HashTree),
            "vertical" => Ok(CountingStrategy::Vertical),
            "bitmap" => Ok(CountingStrategy::Bitmap),
            "auto" => Ok(CountingStrategy::Auto),
            other => Err(format!(
                "unknown counting strategy '{other}' (expected hashtree, vertical, bitmap, or auto)"
            )),
        }
    }
}

impl std::fmt::Display for CountingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
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

/// The row statistics `Auto` decides from, summed over a walk's shards.
/// Every field is a sum over rows, so the totals do not depend on the
/// shard size.
#[derive(Debug, Default)]
struct RowStats {
    transactions: u64,
    /// Litemset ids over all transactions.
    occurrences: u64,
    /// 64-transaction words: one bitmap row's length, summed.
    words: u64,
}

impl RowStats {
    fn gather(&mut self, rows: &[TransformedCustomer]) {
        for customer in rows {
            self.transactions += w64(customer.elements.len());
            self.occurrences += customer.elements.iter().map(|e| w64(e.len())).sum::<u64>();
            self.words += w64(customer.elements.len().div_ceil(64));
        }
    }

    /// Picks a concrete strategy for `ds` from these statistics (gathered
    /// over all of its rows) and returns its counter, configured from
    /// `options`, with the decision. The rule (thresholds calibrated by
    /// experiment E11):
    ///
    /// 1. Tiny databases (under [`AUTO_MIN_CUSTOMERS`] customers, or an
    ///    empty alphabet) → [`CountingStrategy::HashTree`] — index builds
    ///    cost more than the scans they replace.
    /// 2. A bitmap arena beyond [`AUTO_BITMAP_CAP_BYTES`] →
    ///    [`CountingStrategy::Vertical`] — long-tail databases where packed
    ///    words would be mostly zeros.
    /// 3. Density at or above [`AUTO_DENSITY_CROSSOVER`] →
    ///    [`CountingStrategy::Bitmap`] — dense words amortize the S-step.
    /// 4. Otherwise → [`CountingStrategy::Vertical`] — sparse occurrence
    ///    lists beat scanning mostly-empty words.
    fn decide(&self, ds: &dyn Dataset, options: &SequencePhaseOptions) -> (Counter, AutoDecision) {
        let customers = w64(ds.num_rows());
        let litemsets = w64(ds.table().len());
        let mean_len = if customers == 0 {
            0.0
        } else {
            self.transactions as f64 / customers as f64
        };
        let density = if customers == 0 || litemsets == 0 {
            0.0
        } else {
            self.occurrences as f64 / (customers as f64 * litemsets as f64)
        };
        let bitmap_bytes = litemsets * self.words * w64(std::mem::size_of::<u64>());
        let (counter, reason) = if customers < AUTO_MIN_CUSTOMERS || litemsets == 0 {
            (
                Counter::HashTree(options.tree_params),
                "tiny database: index build would cost more than the scans it saves",
            )
        } else if bitmap_bytes > AUTO_BITMAP_CAP_BYTES {
            (
                Counter::Vertical(options.vertical, None),
                "bitmap arena over the size cap: long-tail database, id-lists stay compact",
            )
        } else if density >= AUTO_DENSITY_CROSSOVER {
            (
                Counter::Bitmap(None),
                "dense database: word-parallel S-step kernels beat pointer-chasing joins",
            )
        } else {
            (
                Counter::Vertical(options.vertical, None),
                "sparse database: id-list joins touch only actual occurrences",
            )
        };
        let decision = AutoDecision {
            choice: counter.strategy(),
            customers,
            litemsets,
            mean_len,
            density,
            bitmap_bytes,
            reason,
        };
        (counter, decision)
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

/// The concrete strategy a [`CountingContext`] counts with (`Auto` decides
/// one after the first walk). The index strategies carry the run's
/// persistent index: built over the whole table on first use when the walk
/// has one range, and kept for the run. A sharded walk never fills it.
#[derive(Debug)]
enum Counter {
    HashTree(TreeParams),
    Vertical(VerticalParams, Option<VerticalState>),
    Bitmap(Option<BitmapState>),
}

/// The inputs of one count, shared by every shard of its walk.
struct Pass<'a> {
    candidates: &'a CandidateArena,
    num_ids: usize,
    threads: usize,
    /// The candidates' hash tree: built on the first shard, probed on all.
    tree: Option<SequenceHashTree>,
}

impl Counter {
    fn strategy(&self) -> CountingStrategy {
        match self {
            Counter::HashTree(_) => CountingStrategy::HashTree,
            Counter::Vertical(..) => CountingStrategy::Vertical,
            Counter::Bitmap(_) => CountingStrategy::Bitmap,
        }
    }

    /// Counts `pass` over one walk step's rows. With `whole` (the rows are
    /// the whole table) an index strategy uses the persistent index;
    /// otherwise it builds one for these rows and drops it.
    fn count_rows(
        &mut self,
        rows: &[TransformedCustomer],
        whole: bool,
        pass: &mut Pass<'_>,
        tally: &mut MiningStats,
    ) -> Vec<u64> {
        let (candidates, num_ids, threads) = (pass.candidates, pass.num_ids, pass.threads);
        match self {
            Counter::HashTree(params) => {
                let tree = match pass.tree.take() {
                    Some(tree) => tree,
                    None => {
                        SequenceHashTree::build(candidates, params.fanout, params.leaf_capacity)
                    }
                };
                let (supports, tests, probes) =
                    probe_hash_tree(rows, &tree, num_ids, candidates, threads);
                pass.tree = Some(tree);
                tally.containment_tests += tests;
                tally.probe_nodes += probes;
                supports
            }
            Counter::Vertical(params, kept) => {
                // A shard's index dies with the shard, so it caches no lists.
                let params = if whole {
                    *params
                } else {
                    VerticalParams { cache_cap_bytes: 0 }
                };
                let mut state = match kept.take() {
                    Some(state) => state,
                    None => VerticalState::build_slice(rows, num_ids, params),
                };
                let supports = state.count(candidates, threads);
                state.drain_into(tally);
                if whole {
                    *kept = Some(state);
                }
                supports
            }
            Counter::Bitmap(kept) => {
                let mut state = match kept.take() {
                    Some(state) => state,
                    None => BitmapState::build_slice(rows, num_ids),
                };
                let supports = state.count(candidates, threads);
                state.drain_into(tally);
                if whole {
                    *kept = Some(state);
                }
                supports
            }
        }
    }
}

/// The walk every scan of the rows goes through: the configured shard size
/// and the decode-once copy of a non-resident table walked as one range.
#[derive(Debug, Default)]
struct Shards {
    /// Rows per shard; `None` walks the whole table as one range.
    shard_customers: Option<usize>,
    cache: ShardScratch,
    cached: bool,
}

impl Shards {
    /// Calls `f` with each shard range's rows in order, whether those rows
    /// are the whole table, and `tally`, where every load is counted. One
    /// range: a resident table is borrowed, a non-resident one is decoded
    /// on the first walk and read from the cache on every later one.
    /// Several: each range is loaded into scratch in turn.
    fn for_each_shard(
        &mut self,
        ds: &dyn Dataset,
        tally: &mut MiningStats,
        mut f: impl FnMut(&[TransformedCustomer], bool, &mut MiningStats),
    ) {
        let ranges = shard_ranges(ds.num_rows(), self.shard_customers);
        if ranges.len() > 1 {
            let mut scratch = ShardScratch::new();
            for range in ranges {
                // seqpat-lint: allow(no-alloc-in-hot-loop) one decode per shard into the reused scratch, not per row
                let rows = load_counted(ds, range, &mut scratch, tally);
                f(rows, false, tally);
            }
        } else if let Some(rows) = ds.resident() {
            f(rows, true, tally);
        } else {
            if !self.cached {
                load_counted(ds, 0..ds.num_rows(), &mut self.cache, tally);
                self.cached = true;
            }
            f(self.cache.rows(), true, tally);
        }
    }
}

/// Loads `range` of `ds` into `scratch`, counting the load in `tally`.
fn load_counted<'a>(
    ds: &'a dyn Dataset,
    range: Range<usize>,
    scratch: &'a mut ShardScratch,
    tally: &mut MiningStats,
) -> &'a [TransformedCustomer] {
    tally.shards_processed += 1;
    // seqpat-lint: allow(no-io-in-kernels) byte accounting read once per load from shard metadata
    tally.shard_bytes += ds.shard_bytes(range.start..range.end);
    // seqpat-lint: allow(no-io-in-kernels) shard-granular read through the Dataset contract — the whole point of out-of-core counting
    ds.load_shard(range, scratch)
}

/// Per-mining-run counting state: the concrete strategy with its
/// persistent index, the shard walk with its decode-once cache, and the
/// counters drained from every scan. Create one per run with
/// [`CountingContext::new`], thread it through every pass, and
/// [`CountingContext::flush_into`] the run's [`MiningStats`] once at the
/// end.
///
/// With a shard size set (`SequencePhaseOptions::shard_customers`), every
/// scan streams the dataset shard by shard: each shard's rows are loaded,
/// its scratch index built, counted, and dropped before the next shard, so
/// peak memory is proportional to one shard rather than the whole database
/// — and the per-shard partial counts are summed in shard order, keeping
/// sharded supports bit-identical to unsharded ones.
#[derive(Debug)]
pub struct CountingContext {
    /// `None` while an `Auto` run has not walked the rows yet.
    counter: Option<Counter>,
    /// The run's options; `Auto`'s counter is configured from them.
    options: SequencePhaseOptions,
    threads: usize,
    shards: Shards,
    /// Counters drained from every scan so far, plus `Auto`'s decision;
    /// [`CountingContext::flush_into`] moves them into the run's stats.
    pub(crate) tally: MiningStats,
}

impl CountingContext {
    /// The context for one run with `options`' strategy, tree shape,
    /// threads, vertical knobs and shard size. Nothing is read here: `Auto`
    /// is decided by the first walk over the rows, and no index is built
    /// until the first count that needs it.
    pub fn new(options: &SequencePhaseOptions) -> Self {
        let counter = match options.counting {
            CountingStrategy::HashTree => Some(Counter::HashTree(options.tree_params)),
            CountingStrategy::Vertical => Some(Counter::Vertical(options.vertical, None)),
            CountingStrategy::Bitmap => Some(Counter::Bitmap(None)),
            CountingStrategy::Auto => None,
        };
        Self {
            counter,
            options: *options,
            threads: options.parallelism.resolved_threads(),
            shards: Shards {
                shard_customers: options.shard_customers,
                ..Shards::default()
            },
            tally: MiningStats::default(),
        }
    }

    /// Decides `Auto` from `stats`, gathered over every row of `ds`:
    /// records the decision in the tally and returns its counter.
    fn resolve_auto(&mut self, ds: &dyn Dataset, stats: &RowStats) -> Counter {
        let (counter, decision) = stats.decide(ds, &self.options);
        self.tally.auto_decision = Some(decision);
        counter
    }

    /// Counts the support of every candidate in the arena (see
    /// [`count_supports`] for the contract), summing the walk's per-shard
    /// partials in shard order.
    pub fn count(&mut self, ds: &dyn Dataset, candidates: &CandidateArena) -> Vec<u64> {
        let mut counter = match self.counter.take() {
            Some(counter) => counter,
            // No walk has decided `Auto` yet: gather its statistics in a
            // walk of their own.
            None => {
                let mut stats = RowStats::default();
                self.shards
                    .for_each_shard(ds, &mut self.tally, |rows, _, _| stats.gather(rows));
                self.resolve_auto(ds, &stats)
            }
        };
        let mut pass = Pass {
            candidates,
            num_ids: ds.table().len(),
            threads: self.threads,
            tree: None,
        };
        let mut supports = vec![0u64; candidates.num_candidates()];
        self.shards
            .for_each_shard(ds, &mut self.tally, |rows, whole, tally| {
                let partial = counter.count_rows(rows, whole, &mut pass, tally);
                for (total, part) in supports.iter_mut().zip(partial) {
                    *total += part;
                }
            });
        self.counter = Some(counter);
        supports
    }

    /// Pass 2 through this context: the pair join of `L1 × L1`, every
    /// litemset with every litemset. Returns `(n², large 2-sequences)`; see
    /// [`large_two_sequences`] for the counting contract.
    pub fn large_two(&mut self, ds: &dyn Dataset, min_count: u64) -> (u64, Vec<LargeIdSequence>) {
        let n = ds.table().len();
        let mut l1 = CandidateArena::with_capacity(1, n);
        for id in 0..id32(n) {
            l1.push(&[id]);
        }
        (w64(n) * w64(n), self.large_pairs(ds, &l1, &l1, min_count))
    }

    /// The concatenations `x·y` (`x ∈ lk`, `y ∈ lj`) contained in at least
    /// `min_count` customers, with their supports, in `(x, y)` order:
    /// DynamicSome's on-the-fly generation and pass 2 in one join (see
    /// [`crate::algorithms::otf`]). Counted in one walk; its containment
    /// tests go to the tally.
    pub(crate) fn large_pairs(
        &mut self,
        ds: &dyn Dataset,
        lk: &CandidateArena,
        lj: &CandidateArena,
        min_count: u64,
    ) -> Vec<LargeIdSequence> {
        self.large_pairs_capped(ds, lk, lj, min_count, PAIR_DENSE_CAP_BYTES)
    }

    /// [`CountingContext::large_pairs`] with the dense-matrix byte cap as a
    /// parameter. One pair counter serves the whole pass; per walk step,
    /// rows go to the workers in [`PAIR_BATCH_ROWS`] batches, and each
    /// worker's keys are bumped into the counter in chunk order, then shard
    /// order — exact integer counts, so the totals match the unsharded
    /// serial run bit for bit. An undecided `Auto` context gathers its
    /// statistics on the same walk and decides right after it.
    fn large_pairs_capped(
        &mut self,
        ds: &dyn Dataset,
        lk: &CandidateArena,
        lj: &CandidateArena,
        min_count: u64,
        cap_bytes: u64,
    ) -> Vec<LargeIdSequence> {
        let join = PairJoin::new(lk, lj, ds.table().len());
        let mut counts = join.counts(cap_bytes);
        let mut workers = vec![join.worker(); self.threads.max(1)];
        let mut auto_stats = self.counter.is_none().then(RowStats::default);
        self.shards
            .for_each_shard(ds, &mut self.tally, |rows, _, tally| {
                if let Some(stats) = &mut auto_stats {
                    stats.gather(rows);
                }
                for batch in rows.chunks(PAIR_BATCH_ROWS) {
                    map_chunks_with(batch, &mut workers, |chunk, w| w.gather(chunk, &join));
                    for w in &mut workers {
                        tally.containment_tests += w.drain_into(&mut counts);
                    }
                }
            });
        if let Some(stats) = auto_stats {
            self.counter = Some(self.resolve_auto(ds, &stats));
        }
        join.large(counts, min_count)
    }

    /// Moves this run's counters into `stats` (take-semantics: flushing
    /// twice adds nothing twice).
    pub fn flush_into(&mut self, stats: &mut MiningStats) {
        let tally = std::mem::take(&mut self.tally);
        stats.containment_tests += tally.containment_tests;
        stats.probe_nodes += tally.probe_nodes;
        stats.shards_processed += tally.shards_processed;
        stats.shard_bytes += tally.shard_bytes;
        stats.vertical_index_time += tally.vertical_index_time;
        stats.join_ops += tally.join_ops;
        stats.gallop_skips += tally.gallop_skips;
        stats.vertical_peak_bytes = stats.vertical_peak_bytes.max(tally.vertical_peak_bytes);
        stats.bitmap_index_time += tally.bitmap_index_time;
        stats.sstep_ops += tally.sstep_ops;
        stats.lane_words += tally.lane_words;
        stats.carry_fixups += tally.carry_fixups;
        stats.bitmap_words = stats.bitmap_words.max(tally.bitmap_words);
        if tally.auto_decision.is_some() {
            stats.auto_decision = tally.auto_decision;
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
    let options = SequencePhaseOptions {
        counting: strategy,
        tree_params,
        parallelism,
        ..SequencePhaseOptions::default()
    };
    let mut ctx = CountingContext::new(&options);
    let supports = ctx.count(ds, candidates);
    *containment_tests += ctx.tally.containment_tests;
    supports
}

/// Pass 2 (the candidate set is always **all** `|L1|²` ordered litemset
/// pairs — the join over 1-sequences is total and the prune vacuous): the
/// pair join of `L1` with itself counts every pair `⟨a b⟩` while scanning
/// each customer once, instead of probing millions of candidates through
/// the hash tree. This mirrors the special-cased second pass of the original
/// Apriori implementations (a count array instead of a tree). Every
/// strategy uses it, so pass-2 cost is strategy-independent.
///
/// Returns `(number_of_candidate_pairs, large_two_sequences)` with the
/// large sequences in lexicographic id order. `containment_tests` is
/// incremented once per distinct `(a, b)` pair observed per customer.
///
/// One-shot entry point over the whole dataset; algorithm code goes
/// through [`CountingContext::large_two`], which walks the run's shards.
/// Either way the pass allocates one pair counter (a dense matrix up to
/// 8 192 litemsets, a hash map beyond), and workers hand back pair keys,
/// not count matrices.
pub fn large_two_sequences(
    ds: &dyn Dataset,
    min_count: u64,
    parallelism: Parallelism,
    containment_tests: &mut u64,
) -> (u64, Vec<LargeIdSequence>) {
    let options = SequencePhaseOptions {
        parallelism,
        ..SequencePhaseOptions::default()
    };
    let mut ctx = CountingContext::new(&options);
    let out = ctx.large_two(ds, min_count);
    *containment_tests += ctx.tally.containment_tests;
    out
}

/// Probes a prebuilt hash tree over a row slice (one shard or the whole
/// database). Returns `(supports, containment_tests, probe_nodes)`; the
/// tree depends only on the candidate set, so a count builds it once and
/// probes it over every shard.
fn probe_hash_tree(
    customers: &[TransformedCustomer],
    tree: &SequenceHashTree,
    num_litemsets: usize,
    candidates: &CandidateArena,
    threads: usize,
) -> (Vec<u64>, u64, u64) {
    let n = candidates.num_candidates();
    let partials = map_chunks(customers, threads, |chunk| {
        let mut supports = vec![0u64; n];
        let mut tests = 0u64;
        let mut probes = 0u64;
        let mut scratch = ProbeScratch::new(num_litemsets);
        for customer in chunk {
            tree.for_each_contained(
                customer,
                candidates,
                &mut scratch,
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
    let (mut tests_total, mut probes_total) = (0u64, 0u64);
    let supports = sum_partials(
        partials.into_iter().map(|(partial, tests, probes)| {
            tests_total += tests;
            probes_total += probes;
            partial
        }),
        n,
    );
    (supports, tests_total, probes_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contain::customer_contains;
    use crate::types::itemset::Itemset;
    use crate::types::transformed::{
        LitemsetId, LitemsetTable, TransformedCustomer, TransformedDatabase,
    };

    fn arena(rows: &[Vec<LitemsetId>]) -> CandidateArena {
        CandidateArena::from_rows(
            rows.first().map_or(0, |r| r.len()),
            rows.iter().map(|r| r.as_slice()),
        )
    }

    fn options(counting: CountingStrategy, shard_customers: Option<usize>) -> SequencePhaseOptions {
        SequencePhaseOptions {
            counting,
            shard_customers,
            ..SequencePhaseOptions::default()
        }
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
        assert!("direct".parse::<CountingStrategy>().is_err());
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
        for strategy in [
            CountingStrategy::HashTree,
            CountingStrategy::Vertical,
            CountingStrategy::Bitmap,
            CountingStrategy::Auto,
        ] {
            let mut tests = 0;
            let supports = count_supports(
                &db,
                &candidates,
                strategy,
                TreeParams::default(),
                Parallelism::Serial,
                &mut tests,
            );
            assert_eq!(supports, vec![2, 2, 2, 0], "{strategy}");
            // Vertical performs joins and bitmap word smears, not
            // containment tests; on six customers Auto picks the hash tree.
            let horizontal = matches!(
                strategy,
                CountingStrategy::HashTree | CountingStrategy::Auto
            );
            assert_eq!(tests > 0, horizontal, "{strategy}");
        }
    }

    /// `Auto`'s decision for `ds`, made as a run makes it: by pass 2's walk.
    fn auto_decision(ds: &dyn Dataset) -> AutoDecision {
        let mut ctx = CountingContext::new(&options(CountingStrategy::Auto, None));
        let _ = ctx.large_two(ds, 1);
        ctx.tally.auto_decision.expect("pass 2 decides Auto")
    }

    #[test]
    fn auto_picks_hashtree_for_tiny_databases() {
        let decision = auto_decision(&tdb());
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
        assert_eq!(auto_decision(&synth_tdb(100, 8, 4)), dense_decision());
        // 100 customers × 3 transactions over 1000 ids: density 0.003.
        assert_eq!(auto_decision(&synth_tdb(100, 3, 1000)), sparse_decision());
    }

    /// `Auto`'s decision on `synth_tdb(100, 8, 4)`.
    fn dense_decision() -> AutoDecision {
        AutoDecision {
            choice: CountingStrategy::Bitmap,
            customers: 100,
            litemsets: 4,
            mean_len: 8.0,
            density: 2.0,
            bitmap_bytes: 4 * 100 * 8,
            reason: "dense database: word-parallel S-step kernels beat pointer-chasing joins",
        }
    }

    /// `Auto`'s decision on `synth_tdb(100, 3, 1000)`.
    fn sparse_decision() -> AutoDecision {
        AutoDecision {
            choice: CountingStrategy::Vertical,
            customers: 100,
            litemsets: 1000,
            mean_len: 3.0,
            density: 0.003,
            bitmap_bytes: 1000 * 100 * 8,
            reason: "sparse database: id-list joins touch only actual occurrences",
        }
    }

    #[test]
    fn auto_resolution_is_recorded_and_sticks() {
        let db = synth_tdb(100, 8, 4);
        let mut ctx = CountingContext::new(&options(CountingStrategy::Auto, None));
        assert!(
            ctx.tally.auto_decision.is_none(),
            "nothing is read before the first walk"
        );
        let _ = ctx.large_two(&db, 20);
        assert_eq!(ctx.tally.auto_decision, Some(dense_decision()));
        assert!(matches!(ctx.counter, Some(Counter::Bitmap(_))));
        let _ = ctx.count(&db, &arena(&[vec![0, 1, 2]]));
        let mut stats = MiningStats::default();
        ctx.flush_into(&mut stats);
        assert_eq!(stats.auto_decision, Some(dense_decision()));
        assert!(stats.bitmap_words > 0);
    }

    #[test]
    fn leaf_presence_filter_skips_impossible_candidates() {
        let db = tdb();
        // Candidate needs ids {2, 4}; only customer 4 has both, so the hash
        // tree's leaf runs exactly one exact containment test.
        let mut tests = 0;
        let supports = count_supports(
            &db,
            &arena(&[vec![2, 4]]),
            CountingStrategy::HashTree,
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
        let mut ctx = CountingContext::new(&options(CountingStrategy::Vertical, None));
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
        // Cross-check against a brute-force recount of all ordered pairs.
        let expected: Vec<(Vec<LitemsetId>, u64)> = (0..5)
            .flat_map(|a| (0..5).map(move |b| vec![a, b]))
            .map(|pair| {
                let support = db
                    .customers
                    .iter()
                    .filter(|c| customer_contains(c, &pair))
                    .count() as u64;
                (pair, support)
            })
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

    /// `Auto` costs no walk of its own: with every algorithm that reaches a
    /// count, sharded or not, an `Auto` run loads exactly what a run with
    /// the strategy it chose loads, and finds the same patterns.
    #[test]
    fn auto_costs_no_walk_of_its_own() {
        use crate::algorithms::Algorithm;
        use crate::miner::{Miner, MinerConfig};
        use crate::support::MinSupport;
        for (db, min_count, decision) in [
            (synth_tdb(100, 8, 4), 20, dense_decision()),
            (synth_tdb(100, 3, 1000), 2, sparse_decision()),
        ] {
            let ds = Streamed(&db);
            for algorithm in [
                Algorithm::AprioriAll,
                Algorithm::AprioriSome,
                Algorithm::DynamicSome { step: 1 },
                Algorithm::DynamicSome { step: 2 },
            ] {
                for shard_customers in [None, Some(30)] {
                    let mine = |counting| {
                        let mut config = MinerConfig::new(MinSupport::Count(min_count))
                            .algorithm(algorithm)
                            .counting(counting);
                        config.shard_customers = shard_customers;
                        Miner::new(config).mine_dataset(&ds)
                    };
                    let (auto, chosen) = (mine(CountingStrategy::Auto), mine(decision.choice));
                    let label = format!("{algorithm} / shards of {shard_customers:?}");
                    assert_eq!(
                        auto.stats.auto_decision.as_ref(),
                        Some(&decision),
                        "{label}"
                    );
                    assert_eq!(auto.patterns, chosen.patterns, "{label}");
                    assert_eq!(
                        (auto.stats.shards_processed, auto.stats.shard_bytes),
                        (chosen.stats.shards_processed, chosen.stats.shard_bytes),
                        "{label}"
                    );
                }
            }
        }
    }

    /// An unsharded run over a non-resident store decodes the table once:
    /// pass 2, later passes and DynamicSome's on-the-fly pass all read that
    /// one copy.
    #[test]
    fn unsharded_non_resident_run_decodes_the_table_once() {
        use crate::algorithms::Algorithm;
        use crate::miner::{Miner, MinerConfig};
        use crate::support::MinSupport;
        let db = synth_tdb(100, 6, 4);
        let ds = Streamed(&db);
        for algorithm in [Algorithm::AprioriAll, Algorithm::DynamicSome { step: 2 }] {
            for strategy in [
                CountingStrategy::HashTree,
                CountingStrategy::Vertical,
                CountingStrategy::Bitmap,
                CountingStrategy::Auto,
            ] {
                let config = MinerConfig::new(MinSupport::Count(20))
                    .algorithm(algorithm)
                    .counting(strategy);
                let streamed = Miner::new(config.clone()).mine_dataset(&ds);
                let resident = Miner::new(config).mine_dataset(&db);
                assert_eq!(
                    streamed.patterns, resident.patterns,
                    "{algorithm} / {strategy}"
                );
                assert!(
                    streamed.stats.sequence_passes.len() > 2,
                    "{algorithm} / {strategy}"
                );
                assert_eq!(
                    (streamed.stats.shards_processed, streamed.stats.shard_bytes),
                    (1, db.shard_bytes(0..db.num_rows())),
                    "{algorithm} / {strategy}"
                );
            }
        }
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
        let recount: Vec<u64> = candidates
            .iter()
            .map(|cand| {
                db.customers
                    .iter()
                    .filter(|c| customer_contains(c, cand))
                    .count() as u64
            })
            .collect();
        assert_eq!(a, recount);
        assert_eq!(a, vec![2, 2, 2, 2, 1]);
    }

    #[test]
    fn parallel_counting_matches_serial_on_fixture() {
        let db = tdb();
        let candidates = arena(&[vec![0, 1], vec![0, 2], vec![0, 3], vec![0, 4], vec![4, 0]]);
        for strategy in [
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
/// strategy (including `Auto`) — and every strategy matches a brute-force
/// recount.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::contain::customer_contains;
    use crate::types::itemset::Itemset;
    use crate::types::transformed::{
        LitemsetId, LitemsetTable, TransformedCustomer, TransformedDatabase,
    };
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
    fn naive_pass2(db: &TransformedDatabase, min_count: u64) -> (u64, Vec<LargeIdSequence>, u64) {
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
                    large.push(LargeIdSequence {
                        ids: vec![a, b],
                        support,
                    });
                }
            }
        }
        (u64::from(n) * u64::from(n), large, tests)
    }

    /// The pair join by brute force: every `x·y` of `lk × lj` tested
    /// against every customer with [`customer_contains`]; the large ones in
    /// `(x, y)` order.
    fn naive_join(
        db: &TransformedDatabase,
        lk: &CandidateArena,
        lj: &CandidateArena,
        min_count: u64,
    ) -> Vec<LargeIdSequence> {
        let mut large = Vec::new();
        for x in lk.iter() {
            for y in lj.iter() {
                let ids = [x, y].concat();
                let support = db
                    .customers
                    .iter()
                    .filter(|c| customer_contains(c, &ids))
                    .count() as u64;
                if support >= min_count {
                    large.push(LargeIdSequence { ids, support });
                }
            }
        }
        large
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
            let expected: Vec<u64> = candidates
                .iter()
                .map(|cand| {
                    db.customers.iter().filter(|c| customer_contains(c, cand)).count() as u64
                })
                .collect();
            for strategy in [
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
                // Every strategy matches the brute-force recount.
                prop_assert_eq!(&serial, &expected, "{}", strategy);
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

        /// Pass 2 and the pair join of two drawn sides (lengths 1–3)
        /// against brute-force recounts, for every shard size, thread count
        /// and both pair-counter forms (a zero byte cap forces the hash
        /// map).
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
            sides in (
                (1usize..4, proptest::collection::vec((0u8..12, 0u8..12, 0u8..12), 0..10)),
                (1usize..4, proptest::collection::vec((0u8..12, 0u8..12, 0u8..12), 0..10)),
            ),
        ) {
            let db = build_tdb(raw_db);
            let expected = naive_pass2(&db, min_count);
            let mut l1 = CandidateArena::new(1);
            for id in 0..NUM_LITEMSETS as LitemsetId {
                l1.push(&[id]);
            }
            let ((lk_len, lk_raw), (lj_len, lj_raw)) = sides;
            let (lk, lj) = (build_candidates(lk_raw, lk_len), build_candidates(lj_raw, lj_len));
            let expected_join = naive_join(&db, &lk, &lj, min_count);
            let mut join_tests = None;
            for cap in [PAIR_DENSE_CAP_BYTES, 0] {
                for shard in [None, Some(1), Some(3), Some(7)] {
                    for threads in [1usize, 2, 3] {
                        let options = SequencePhaseOptions {
                            parallelism: Parallelism::threads(threads),
                            shard_customers: shard,
                            ..SequencePhaseOptions::default()
                        };
                        let mut ctx = CountingContext::new(&options);
                        let large = ctx.large_pairs_capped(&db, &l1, &l1, min_count, cap);
                        prop_assert_eq!(
                            (l1.num_candidates().pow(2) as u64, large, ctx.tally.containment_tests),
                            expected.clone(),
                            "cap {} shard {:?} threads {}", cap, shard, threads
                        );
                        let mut ctx = CountingContext::new(&options);
                        let large = ctx.large_pairs_capped(&db, &lk, &lj, min_count, cap);
                        prop_assert_eq!(
                            &large, &expected_join,
                            "sides {}×{} cap {} shard {:?} threads {}", lk_len, lj_len, cap, shard, threads
                        );
                        let tests = *join_tests.get_or_insert(ctx.tally.containment_tests);
                        prop_assert_eq!(ctx.tally.containment_tests, tests);
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
