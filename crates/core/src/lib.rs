//! # seqpat-core — Mining Sequential Patterns (Agrawal & Srikant, ICDE 1995)
//!
//! A from-scratch, faithful implementation of the paper that created the
//! sequential-pattern-mining problem. Given a database of customer
//! transactions, the library finds all **maximal sequences of itemsets**
//! whose support (fraction of customers whose transaction history contains
//! the sequence) meets a user threshold.
//!
//! ## The five phases (paper §3)
//!
//! 1. **Sort** ([`phases::sort`]) — raw `(customer, time, items)` rows are
//!    grouped into time-ordered customer sequences.
//! 2. **Litemset** ([`phases::litemset`]) — all *large itemsets* are found
//!    with customer-level support (substrate: the Apriori miner in
//!    `seqpat-itemset`) and mapped to contiguous integer ids.
//! 3. **Transformation** ([`phases::transform`]) — each transaction is
//!    replaced by the set of litemset ids it contains, so containment tests
//!    in the sequence phase become integer-set operations.
//! 4. **Sequence** ([`algorithms`]) — the large sequences are found by one
//!    of the paper's three algorithms: [`algorithms::apriori_all()`],
//!    [`algorithms::apriori_some()`] or [`algorithms::dynamic_some()`].
//! 5. **Maximal** ([`phases::maximal`]) — sequences contained in another
//!    large sequence are pruned (AprioriSome/DynamicSome fold most of this
//!    into their backward passes).
//!
//! ## Quick start
//!
//! ```
//! use seqpat_core::{Database, Miner, MinerConfig, Algorithm, MinSupport};
//!
//! // The running example of the ICDE'95 paper (§2, Figures 1-3).
//! let db = Database::from_rows(vec![
//!     (1, 1, vec![30]), (1, 2, vec![90]),
//!     (2, 1, vec![10, 20]), (2, 2, vec![30]), (2, 3, vec![40, 60, 70]),
//!     (3, 1, vec![30, 50, 70]),
//!     (4, 1, vec![30]), (4, 2, vec![40, 70]), (4, 3, vec![90]),
//!     (5, 1, vec![90]),
//! ]);
//! let config = MinerConfig::new(MinSupport::Fraction(0.25)).algorithm(Algorithm::AprioriAll);
//! let result = Miner::new(config).mine(&db);
//! let mut found: Vec<String> = result.patterns.iter().map(|p| p.to_string()).collect();
//! found.sort();
//! // The paper's answer: ⟨(30)(90)⟩ and ⟨(30)(40 70)⟩.
//! assert_eq!(found, vec!["<(30)(40 70)>", "<(30)(90)>"]);
//! ```
//!
//! All three algorithms return identical answers; they differ only in how
//! many candidates they count (see the experiment harness in `seqpat-bench`).

pub mod algorithms;
pub mod arena;
pub mod bitmap;
pub mod contain;
pub mod counting;
pub mod dataset;
pub mod fxhash;
pub mod hash_tree;
pub mod miner;
pub mod naive;
pub mod phases;
pub mod stats;
pub mod support;
pub mod types;
pub mod vertical;

pub use algorithms::Algorithm;
pub use arena::CandidateArena;
pub use bitmap::{BitmapIndex, BitmapState};
pub use counting::{AutoDecision, CountingContext, CountingStrategy};
pub use dataset::{shard_ranges, Dataset, ShardScratch};
pub use miner::{Miner, MinerConfig, MiningResult, Pattern};
pub use phases::maximal::LargeIdSequence;
pub use phases::transform::TransformContext;
pub use seqpat_itemset::cast;
pub use seqpat_itemset::Parallelism;
pub use stats::{MiningStats, SequencePassStats};
pub use support::MinSupport;
pub use types::database::{CustomerSequence, Database, Transaction};
pub use types::itemset::{Item, Itemset};
pub use types::sequence::Sequence;
pub use types::transformed::{LitemsetId, LitemsetTable, TransformedCustomer, TransformedDatabase};
pub use vertical::VerticalParams;
