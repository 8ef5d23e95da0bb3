//! The [`Miner`] facade: configure once, run the full five-phase pipeline.

use crate::stats::Stopwatch;

use crate::algorithms::apriori_all::SequencePhaseOptions;
use crate::algorithms::{apriori_all, apriori_some, dynamic_some, Algorithm};
use crate::counting::{CountingStrategy, TreeParams};
use crate::dataset::Dataset;
use crate::phases::litemset::litemset_phase;
use crate::phases::maximal::{maximal_phase, LargeIdSequence};
use crate::phases::transform::transform_phase;
use crate::stats::MiningStats;
use crate::support::MinSupport;
use crate::types::database::Database;
use crate::types::sequence::Sequence;
use crate::types::transformed::{LitemsetTable, TransformedDatabase};
use crate::vertical::VerticalParams;
use seqpat_itemset::Parallelism;

/// Full configuration of a mining run.
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Minimum support threshold.
    pub min_support: MinSupport,
    /// Which sequence-phase algorithm to run.
    pub algorithm: Algorithm,
    /// Candidate-support counting strategy.
    pub counting: CountingStrategy,
    /// Hash-tree shape for tree-based counting.
    pub tree_params: TreeParams,
    /// Vertical-strategy knobs (occurrence-list cache cap).
    pub vertical: VerticalParams,
    /// Knobs of the litemset-phase Apriori run.
    pub apriori: seqpat_itemset::AprioriConfig,
    /// Optional cap on sequence length (`None` = unbounded, the paper's
    /// setting).
    pub max_length: Option<usize>,
    /// When `true`, skip the maximal phase and report **all** large
    /// sequences. Only meaningful with [`Algorithm::AprioriAll`]; the Some
    /// variants deliberately avoid determining non-maximal sequences, so for
    /// them this flag yields whatever their backward phase retained.
    pub include_non_maximal: bool,
    /// Worker threads for support counting (litemset and sequence phases).
    /// Defaults to [`Parallelism::Auto`] (one thread per core). Parallel
    /// runs produce bit-identical results to serial ones. This setting
    /// overrides `apriori.parallelism` so one knob governs the whole
    /// pipeline.
    pub parallelism: Parallelism,
    /// Customers per counting shard (`None` = count the whole database at
    /// once). Sharding bounds the counting passes' peak memory at one
    /// shard's rows plus its scratch index; supports and patterns are
    /// bit-identical to the unsharded run.
    pub shard_customers: Option<usize>,
}

impl MinerConfig {
    /// A configuration with the given support threshold and the defaults the
    /// paper's experiments use: AprioriAll, hash-tree counting, no caps.
    pub fn new(min_support: MinSupport) -> Self {
        Self {
            min_support,
            algorithm: Algorithm::AprioriAll,
            counting: CountingStrategy::default(),
            tree_params: TreeParams::default(),
            vertical: VerticalParams::default(),
            apriori: seqpat_itemset::AprioriConfig::default(),
            max_length: None,
            include_non_maximal: false,
            parallelism: Parallelism::default(),
            shard_customers: None,
        }
    }

    /// Selects the sequence-phase algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the counting strategy.
    pub fn counting(mut self, counting: CountingStrategy) -> Self {
        self.counting = counting;
        self
    }

    /// Sets the vertical strategy's knobs.
    pub fn vertical(mut self, vertical: VerticalParams) -> Self {
        self.vertical = vertical;
        self
    }

    /// Caps the sequence length.
    pub fn max_length(mut self, cap: usize) -> Self {
        self.max_length = Some(cap);
        self
    }

    /// Requests all large sequences instead of only the maximal ones.
    pub fn include_non_maximal(mut self, yes: bool) -> Self {
        self.include_non_maximal = yes;
        self
    }

    /// Sets the worker-thread policy for support counting.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Shards every counting pass to `shard` customers at a time.
    pub fn shard_customers(mut self, shard: usize) -> Self {
        self.shard_customers = Some(shard);
        self
    }
}

/// One mined pattern: a sequence and its customer support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// The sequence, in original item space.
    pub sequence: Sequence,
    /// Number of supporting customers.
    pub support: u64,
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.sequence.fmt(f)
    }
}

/// The result of a mining run.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// The answer: maximal large sequences (or all large sequences with
    /// [`MinerConfig::include_non_maximal`]), sorted by length then
    /// lexicographically.
    pub patterns: Vec<Pattern>,
    /// The same answer in **litemset-id space** (ids + supports), sorted by
    /// length then lexicographically by ids. This is the form the serving
    /// layer compiles into a prefix trie (`seqpat-serve`): ids are dense
    /// `u32`s, so the trie never touches item-space itemsets on its hot
    /// path.
    pub id_patterns: Vec<crate::phases::maximal::LargeIdSequence>,
    /// The litemset table the id patterns are expressed over. Carried out
    /// of the run so downstream consumers (index serialization, query
    /// parsing) can map between id space and item space without re-mining.
    pub table: LitemsetTable,
    /// Customers in the mined database (the support denominator).
    pub num_customers: usize,
    /// The resolved absolute support threshold.
    pub min_support_count: u64,
    /// Phase timings and per-pass counters.
    pub stats: MiningStats,
}

impl MiningResult {
    /// Support of `pattern` as a fraction of customers.
    pub fn support_fraction(&self, pattern: &Pattern) -> f64 {
        if self.num_customers == 0 {
            0.0
        } else {
            pattern.support as f64 / self.num_customers as f64
        }
    }
}

/// Runs the five-phase pipeline of the paper.
#[derive(Debug, Clone)]
pub struct Miner {
    config: MinerConfig,
}

impl Miner {
    /// Creates a miner with the given configuration.
    pub fn new(config: MinerConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Mines `db` end to end: litemset → transform → sequence → maximal.
    /// (`db` is already past the sort phase — [`Database::from_rows`] runs
    /// it during construction.)
    pub fn mine(&self, db: &Database) -> MiningResult {
        let mut stats = MiningStats::default();
        let min_count = self.config.min_support.to_count(db.num_customers());

        let t0 = Stopwatch::start();
        // The miner-level knob governs the litemset phase too.
        let mut apriori = self.config.apriori.clone();
        apriori.parallelism = self.config.parallelism;
        let lit = litemset_phase(db, min_count, &apriori);
        stats.litemset_time = t0.elapsed();
        stats.litemset_passes = lit.passes;

        let t1 = Stopwatch::start();
        let tdb = transform_phase(db, lit.table);
        stats.transform_time = t1.elapsed();

        self.mine_transformed_inner(&tdb, min_count, db.num_customers(), stats)
    }

    /// Mines an already-transformed database (used by the harness to
    /// time the sequence phase in isolation and by the incremental
    /// examples). `num_customers` of the transformed database is used as
    /// the support denominator.
    pub fn mine_transformed(&self, tdb: &TransformedDatabase) -> MiningResult {
        let min_count = self.config.min_support.to_count(tdb.total_customers);
        self.mine_transformed_inner(tdb, min_count, tdb.total_customers, MiningStats::default())
    }

    /// Mines any [`Dataset`] backend — resident or on-disk — through the
    /// sequence and maximal phases (litemset + transform are assumed done:
    /// the backend stores their output). With an on-disk backend plus
    /// [`MinerConfig::shard_customers`], the run never holds more than one
    /// shard of customer rows in memory, and the patterns are bit-identical
    /// to mining the same data resident.
    pub fn mine_dataset(&self, ds: &dyn Dataset) -> MiningResult {
        let min_count = self.config.min_support.to_count(ds.total_customers());
        self.mine_transformed_inner(ds, min_count, ds.total_customers(), MiningStats::default())
    }

    fn mine_transformed_inner(
        &self,
        ds: &dyn Dataset,
        min_count: u64,
        num_customers: usize,
        mut stats: MiningStats,
    ) -> MiningResult {
        let options = SequencePhaseOptions {
            counting: self.config.counting,
            tree_params: self.config.tree_params,
            max_length: self.config.max_length,
            parallelism: self.config.parallelism,
            vertical: self.config.vertical,
            shard_customers: self.config.shard_customers,
        };
        stats.threads_used = self.config.parallelism.resolved_threads();
        stats.num_litemsets = ds.table().len() as u64;

        let t2 = Stopwatch::start();
        let large: Vec<LargeIdSequence> = match self.config.algorithm {
            Algorithm::AprioriAll => apriori_all(ds, min_count, &options, &mut stats),
            Algorithm::AprioriSome => apriori_some(ds, min_count, &options, &mut stats),
            Algorithm::DynamicSome { step } => {
                dynamic_some(ds, min_count, step, &options, &mut stats)
            }
        };
        stats.sequence_time = t2.elapsed();
        stats.large_sequences = large.len() as u64;

        let t3 = Stopwatch::start();
        let final_set = if self.config.include_non_maximal {
            large
        } else {
            maximal_phase(large, ds.table())
        };
        stats.maximal_time = t3.elapsed();
        stats.maximal_sequences = final_set.len() as u64;
        stats.peak_rss_bytes = crate::stats::peak_rss_bytes();

        let mut patterns: Vec<Pattern> = final_set
            .iter()
            .map(|s| Pattern {
                sequence: ds.table().to_sequence(&s.ids),
                support: s.support,
            })
            .collect();
        patterns.sort_by(|a, b| {
            (a.sequence.len(), a.sequence.elements())
                .cmp(&(b.sequence.len(), b.sequence.elements()))
        });
        let mut id_patterns = final_set;
        id_patterns.sort_by(|a, b| (a.ids.len(), &a.ids).cmp(&(b.ids.len(), &b.ids)));

        MiningResult {
            patterns,
            id_patterns,
            table: ds.table().clone(),
            num_customers,
            min_support_count: min_count,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_db() -> Database {
        Database::from_rows(vec![
            (1, 1, vec![30]),
            (1, 2, vec![90]),
            (2, 1, vec![10, 20]),
            (2, 2, vec![30]),
            (2, 3, vec![40, 60, 70]),
            (3, 1, vec![30, 50, 70]),
            (4, 1, vec![30]),
            (4, 2, vec![40, 70]),
            (4, 3, vec![90]),
            (5, 1, vec![90]),
        ])
    }

    fn answer(config: MinerConfig) -> Vec<String> {
        let result = Miner::new(config).mine(&paper_db());
        result
            .patterns
            .iter()
            .map(|p| format!("{}:{}", p, p.support))
            .collect()
    }

    #[test]
    fn all_three_algorithms_give_the_paper_answer() {
        let expected = vec!["<(30)(40 70)>:2", "<(30)(90)>:2"];
        for algorithm in [
            Algorithm::AprioriAll,
            Algorithm::AprioriSome,
            Algorithm::DynamicSome { step: 2 },
        ] {
            let got = answer(MinerConfig::new(MinSupport::Fraction(0.25)).algorithm(algorithm));
            assert_eq!(got, expected, "{algorithm}");
        }
    }

    #[test]
    fn include_non_maximal_reports_all_large_sequences() {
        let result =
            Miner::new(MinerConfig::new(MinSupport::Fraction(0.25)).include_non_maximal(true))
                .mine(&paper_db());
        assert_eq!(result.patterns.len(), 9);
        // Sorted by length first.
        assert!(result.patterns[0].sequence.len() <= result.patterns[8].sequence.len());
    }

    #[test]
    fn result_metadata() {
        let result = Miner::new(MinerConfig::new(MinSupport::Fraction(0.25))).mine(&paper_db());
        assert_eq!(result.num_customers, 5);
        assert_eq!(result.min_support_count, 2);
        assert_eq!(result.stats.maximal_sequences, 2);
        assert!(result.stats.num_litemsets == 5);
        let p = &result.patterns[0];
        let f = result.support_fraction(p);
        assert!((f - 0.4).abs() < 1e-12);
    }

    #[test]
    fn num_litemsets_is_set_on_every_entry_point() {
        let db = paper_db();
        let miner = Miner::new(MinerConfig::new(MinSupport::Fraction(0.25)));
        let lit = litemset_phase(&db, 2, &Default::default());
        let tdb = transform_phase(&db, lit.table);
        assert_eq!(miner.mine(&db).stats.num_litemsets, 5);
        assert_eq!(miner.mine_transformed(&tdb).stats.num_litemsets, 5);
        assert_eq!(miner.mine_dataset(&tdb).stats.num_litemsets, 5);
    }

    #[test]
    fn count_threshold_variant() {
        let got = answer(MinerConfig::new(MinSupport::Count(4)));
        // Only (30) has support ≥ 4.
        assert_eq!(got, vec!["<(30)>:4"]);
    }

    #[test]
    fn empty_database() {
        let result =
            Miner::new(MinerConfig::new(MinSupport::Fraction(0.5))).mine(&Database::default());
        assert!(result.patterns.is_empty());
        assert_eq!(result.num_customers, 0);
    }

    #[test]
    fn parallel_mining_matches_serial() {
        let db = paper_db();
        let serial = Miner::new(
            MinerConfig::new(MinSupport::Fraction(0.25)).parallelism(Parallelism::Serial),
        )
        .mine(&db);
        assert_eq!(serial.stats.threads_used, 1);
        for threads in [2, 3, 7] {
            let parallel = Miner::new(
                MinerConfig::new(MinSupport::Fraction(0.25))
                    .parallelism(Parallelism::threads(threads)),
            )
            .mine(&db);
            assert_eq!(parallel.patterns, serial.patterns);
            assert_eq!(
                parallel.stats.containment_tests,
                serial.stats.containment_tests
            );
            assert_eq!(parallel.stats.threads_used, threads);
        }
    }

    #[test]
    fn all_strategies_give_the_paper_answer_for_all_algorithms() {
        let expected = vec!["<(30)(40 70)>:2", "<(30)(90)>:2"];
        for algorithm in [
            Algorithm::AprioriAll,
            Algorithm::AprioriSome,
            Algorithm::DynamicSome { step: 2 },
        ] {
            for counting in [
                CountingStrategy::HashTree,
                CountingStrategy::Vertical,
                CountingStrategy::Bitmap,
                CountingStrategy::Auto,
            ] {
                let got = answer(
                    MinerConfig::new(MinSupport::Fraction(0.25))
                        .algorithm(algorithm)
                        .counting(counting),
                );
                assert_eq!(got, expected, "{algorithm} with {counting}");
            }
        }
    }

    #[test]
    fn id_patterns_mirror_item_space_patterns() {
        let result = Miner::new(MinerConfig::new(MinSupport::Fraction(0.25))).mine(&paper_db());
        assert_eq!(result.id_patterns.len(), result.patterns.len());
        for p in &result.id_patterns {
            let seq = result.table.to_sequence(&p.ids);
            assert!(
                result
                    .patterns
                    .iter()
                    .any(|q| q.sequence == seq && q.support == p.support),
                "id pattern {:?} has no item-space twin",
                p.ids
            );
        }
        // Sorted by length, then lexicographically by ids.
        for w in result.id_patterns.windows(2) {
            assert!((w[0].ids.len(), &w[0].ids) <= (w[1].ids.len(), &w[1].ids));
        }
    }

    #[test]
    fn mine_transformed_matches_mine() {
        let db = paper_db();
        let config = MinerConfig::new(MinSupport::Fraction(0.25));
        let full = Miner::new(config.clone()).mine(&db);
        let min_count = config.min_support.to_count(db.num_customers());
        let lit = crate::phases::litemset::litemset_phase(&db, min_count, &config.apriori);
        let tdb = crate::phases::transform::transform_phase(&db, lit.table);
        let partial = Miner::new(config).mine_transformed(&tdb);
        assert_eq!(full.patterns, partial.patterns);
    }
}
