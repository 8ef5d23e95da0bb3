//! The three workloads and the inputs each one draws from a seed.
//!
//! Every workload fixes the generator's pattern tables (its corpus) with
//! [`CORPUS_SEED`] and lets `--seed` choose which customers are drawn. The
//! corpus alone moved the `sparse-pairs` mining time between 4.0 and 8.3 s
//! over ten seeds, which would drown any change worth measuring. The seed
//! picks `customers` of a pool of 1.25 × `customers` drawn from one corpus
//! with `seqpat_datagen::stream`; with a pool twice as large, the number of
//! distinct pass-2 pairs sometimes crossed a hash-map growth step and the
//! peak resident set of one seed in five jumped from 273 to 328 MB.

use seqpat_core::{Algorithm, CountingStrategy, CustomerSequence, MinSupport, MinerConfig};
use seqpat_core::{Parallelism, Pattern};
use seqpat_datagen::{stream, GenParams, QueryWorkloadParams};

/// Seed of the generator's pattern tables, the same for every run.
pub const CORPUS_SEED: u64 = 42;

/// How the measured operation reads its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// SPMF file → resident database → `Miner::mine`.
    Resident,
    /// `SEQPATC1` colstore → `Miner::mine_dataset` in shards.
    Sharded,
    /// `SEQPATS1` index → top-k lookups for a query set.
    Serve,
}

/// One workload: a dataset shape, a threshold and a way to mine or serve.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Paper dataset name (`Cxx-Txx-Sxx-Ixx`).
    pub dataset: &'static str,
    pub customers: usize,
    /// Minimum support as `numerator / denominator` of the customers.
    pub minsup: (u64, u64),
    pub algorithm: Algorithm,
    pub strategy: CountingStrategy,
    pub shard_customers: Option<usize>,
}

/// Queries drawn for `serve-replay` (`seqpat_datagen::query_workload`).
pub const QUERIES: QueryWorkloadParams = QueryWorkloadParams {
    count: 100_000,
    skew: 1.0,
    miss_rate: 0.1,
};
/// Times the query set is answered per measured operation.
pub const REPLAYS: usize = 40;
/// Predictions asked for per query.
pub const TOP_K: usize = 5;

const BASE: Workload = Workload {
    name: "sparse-pairs",
    kind: Kind::Resident,
    dataset: "C10-T2.5-S4-I1.25",
    customers: 10_000,
    minsup: (33, 10_000),
    algorithm: Algorithm::AprioriAll,
    strategy: CountingStrategy::HashTree,
    shard_customers: None,
};

/// `dense-lattice` (C20-T2.5-S8-I1.25 over 200 items, minsup 5 %,
/// AprioriSome with bitmap counting) was a fourth workload; its `wall_s`
/// spread too far between runs on a shared two-CPU host to hold any bound
/// (e2ebench/README.md, "Workloads and seeds").
pub const WORKLOADS: [Workload; 3] = [
    BASE,
    Workload {
        name: "sharded-disk",
        kind: Kind::Sharded,
        customers: 100_000,
        minsup: (5, 1_000),
        strategy: CountingStrategy::Auto,
        shard_customers: Some(1_000),
        ..BASE
    },
    Workload {
        name: "serve-replay",
        kind: Kind::Serve,
        ..BASE
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    fn pool(&self) -> usize {
        self.customers * 5 / 4
    }

    /// Generator parameters of the customer pool.
    pub fn pool_params(&self) -> GenParams {
        GenParams::paper_dataset(self.dataset)
            .expect("workload datasets are paper datasets")
            .customers(self.pool())
    }

    /// The customers of this workload for `seed`, in pool order.
    pub fn customers(&self, seed: u64) -> Vec<CustomerSequence> {
        let keep = chosen(self.pool(), self.customers, seed);
        stream(&self.pool_params(), CORPUS_SEED)
            .zip(keep)
            .filter_map(|(customer, kept)| kept.then_some(customer))
            .collect()
    }

    pub fn min_support(&self) -> MinSupport {
        MinSupport::Fraction(self.minsup.0 as f64 / self.minsup.1 as f64)
    }

    /// Smallest support count meeting the threshold over `customers`,
    /// in integers: `ceil(customers × num / den)`.
    pub fn min_count(&self, customers: usize) -> u64 {
        let (num, den) = self.minsup;
        (customers as u64 * num).div_ceil(den).max(1)
    }

    /// The miner configuration of the measured operation: one thread,
    /// since thread timings on a small shared host are not steady.
    pub fn miner_config(&self) -> MinerConfig {
        let mut config = MinerConfig::new(self.min_support())
            .algorithm(self.algorithm)
            .counting(self.strategy)
            .parallelism(Parallelism::Serial);
        if let Some(shard) = self.shard_customers {
            config = config.shard_customers(shard);
        }
        config
    }
}

/// Marks `n` of `pool` positions, chosen by a seeded hash of each position.
fn chosen(pool: usize, n: usize, seed: u64) -> Vec<bool> {
    let mut keys: Vec<(u64, usize)> = (0..pool)
        .map(|i| (splitmix(seed ^ splitmix(i as u64)), i))
        .collect();
    if n < pool {
        keys.select_nth_unstable(n);
    }
    let mut keep = vec![false; pool];
    for &(_, i) in &keys[..n.min(pool)] {
        keep[i] = true;
    }
    keep
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Raw customers as plain item vectors, for the checks.
pub fn raw(customers: &[CustomerSequence]) -> Vec<Vec<Vec<u32>>> {
    customers
        .iter()
        .map(|c| c.itemsets().map(|set| set.items().to_vec()).collect())
        .collect()
}

/// A mined pattern as plain item vectors plus its support.
pub type RawPattern = (Vec<Vec<u32>>, u64);

pub fn raw_patterns(patterns: &[Pattern]) -> Vec<RawPattern> {
    patterns
        .iter()
        .map(|p| {
            let elements = p
                .sequence
                .elements()
                .iter()
                .map(|set| set.items().to_vec())
                .collect();
            (elements, p.support)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_picks_exactly_n_of_the_pool() {
        let a = chosen(1_000, 500, 1);
        let b = chosen(1_000, 500, 2);
        assert_eq!(a.iter().filter(|&&k| k).count(), 500);
        assert_eq!(b.iter().filter(|&&k| k).count(), 500);
        assert_ne!(a, b);
        assert_eq!(a, chosen(1_000, 500, 1));
    }

    #[test]
    fn min_count_rounds_up() {
        let w = WORKLOADS[0];
        assert_eq!(w.min_count(10_000), 33);
        assert_eq!(w.min_count(10_001), 34);
        assert_eq!(WORKLOADS[1].min_count(100_000), 500);
    }
}
