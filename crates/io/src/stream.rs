//! Streaming colstore construction: the litemset and transformation phases
//! over a *replayable* customer stream, with peak memory bounded by one
//! batch of customers plus the candidate tables — never the database.
//!
//! The in-memory pipeline ([`seqpat_core::phases::litemset::litemset_phase`]
//! then [`seqpat_core::phases::transform::transform_phase`]) needs the whole
//! [`seqpat_core::Database`] resident. This module reruns the same Apriori
//! passes by
//! streaming the customers once per pass: per-batch candidate supports are
//! exact counts, and supports are additive across disjoint customer batches,
//! so the summed totals — and therefore the large itemsets, their ids, and
//! every transformed row — are identical to the in-memory build.
//!
//! The source must yield the *same customers in the same order on every
//! replay* (the contract `seqpat-datagen`'s `stream(params, seed)` and
//! re-reading a file both satisfy).

use std::path::Path;

use crate::colstore::ColstoreWriter;
use crate::error::IoError;
use seqpat_core::phases::transform::TransformContext;
use seqpat_core::{CustomerSequence, Item, Itemset, LitemsetTable, MinSupport};
use seqpat_itemset::{AprioriConfig, CustomerTransactions, LaterPasses};

/// What a finished streaming build produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildSummary {
    /// Customers streamed (rows written and support denominator alike).
    pub total_customers: u64,
    /// Large itemsets in the table.
    pub litemsets: usize,
    /// Apriori passes run over the stream (pass 1 included).
    pub passes: usize,
}

/// Builds a colstore file at `path` from a replayable customer stream.
///
/// `replay` is called once per Apriori pass plus once for the final
/// transform pass; each call must yield the same customers in the same
/// order. `batch_customers` bounds how many customers are resident at a
/// time (clamped to at least 1). The produced file opens to a dataset
/// whose litemset table and rows are identical to running the in-memory
/// litemset + transform phases on the collected stream.
pub fn build_colstore<I, F>(
    replay: F,
    min_count: u64,
    config: &AprioriConfig,
    batch_customers: usize,
    path: impl AsRef<Path>,
) -> Result<BuildSummary, IoError>
where
    F: Fn() -> I,
    I: Iterator<Item = CustomerSequence>,
{
    let batch = batch_customers.max(1);

    // --- Pass 1: single-item customer supports (and the denominator). ---
    // A BTreeMap keeps the item order deterministic without a sort pass.
    let mut item_counts: std::collections::BTreeMap<Item, u64> = std::collections::BTreeMap::new();
    let mut total_customers = 0u64;
    for customer in replay() {
        total_customers += 1;
        let mut distinct: Vec<Item> = customer
            .itemsets()
            .flat_map(|set| set.items().iter().copied())
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        for item in distinct {
            *item_counts.entry(item).or_insert(0) += 1;
        }
    }
    let l1: Vec<(Item, u64)> = item_counts
        .into_iter()
        .filter(|&(_, support)| support >= min_count.max(1))
        .collect();

    // --- Passes 2..: the in-memory miner's passes, each reading one
    // replay batch by batch. Per-batch counts are exact and add up across
    // disjoint batches, so the large itemsets equal the in-memory pass. ---
    let mut passes = 1usize;
    let mut later = LaterPasses::new(l1, min_count);
    let mut matrix: Vec<CustomerTransactions> = Vec::with_capacity(batch);
    let mut scan = |count: &mut dyn FnMut(&[CustomerTransactions])| {
        passes += 1;
        // seqpat-lint: allow(no-alloc-in-hot-loop) one replay per pass is the streaming contract; whatever the source allocates to restart is per pass, not per customer
        for_each_batch(replay(), batch, &mut matrix, count);
    };
    while later.step(config, &mut scan).is_some() {}
    let mut all_large = later.into_large();

    // Same global order as the in-memory litemset phase: lexicographic by
    // items, which makes litemset ids identical across backends.
    all_large.sort_by(|a, b| a.items.cmp(&b.items));
    let table = LitemsetTable::new(
        all_large
            .into_iter()
            .map(|l| (Itemset::from_sorted(l.items), l.support))
            .collect(),
    );

    // --- Final pass: transform each customer and spill it to the store. ---
    let ctx = TransformContext::new(&table);
    let mut writer = ColstoreWriter::create(path)?;
    for customer in replay() {
        writer.push_row(&ctx.transform_customer(&customer))?;
    }
    let rows = writer.rows_written();
    if rows != total_customers {
        return Err(IoError::parse(
            0,
            format!("stream replay yielded {rows} customers, pass 1 saw {total_customers}"),
        ));
    }
    let litemsets = table.len();
    writer.finish(&table, total_customers)?;
    Ok(BuildSummary {
        total_customers,
        litemsets,
        passes,
    })
}

/// Feeds `f` batches of at most `batch` customers, as the item-matrix view
/// the `seqpat-itemset` counters consume, built in the caller's `matrix`
/// (left empty).
fn for_each_batch<I>(
    stream: I,
    batch: usize,
    matrix: &mut Vec<CustomerTransactions>,
    f: &mut dyn FnMut(&[CustomerTransactions]),
) where
    I: Iterator<Item = CustomerSequence>,
{
    matrix.clear();
    for customer in stream {
        matrix.push(
            customer
                .itemsets()
                // seqpat-lint: allow(no-alloc-in-hot-loop) batch materialization — the counters consume owned rows and the batch spine is reused across batches
                .map(|set| set.items().to_vec())
                .collect(),
        );
        if matrix.len() == batch {
            f(matrix);
            matrix.clear();
        }
    }
    if !matrix.is_empty() {
        f(matrix);
        matrix.clear();
    }
}

/// Convenience: the denominator-aware minimum count for a fractional
/// support over `total_customers` customers — exactly
/// [`MinSupport::Fraction`]'s rounding, so streamed and in-memory runs
/// resolve the same threshold.
pub fn min_count_for(total_customers: u64, fraction: f64) -> u64 {
    MinSupport::Fraction(fraction).to_count(usize::try_from(total_customers).unwrap_or(usize::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colstore::ColstoreDataset;
    use seqpat_core::phases::litemset::litemset_phase;
    use seqpat_core::phases::transform::transform_phase;
    use seqpat_core::{Database, Dataset, ShardScratch};

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

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("seqpat-stream-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn streamed_build_matches_in_memory_phases() {
        let db = paper_db();
        let config = AprioriConfig::default();
        for batch in [1usize, 2, 3, 100] {
            let path = tmp_path(&format!("paper-{batch}.colstore"));
            let summary =
                build_colstore(|| db.customers().iter().cloned(), 2, &config, batch, &path)
                    .unwrap();
            assert_eq!(summary.total_customers, 5);

            let expected = transform_phase(&db, litemset_phase(&db, 2, &config).table);
            let ds = ColstoreDataset::open(&path).unwrap();
            assert_eq!(ds.total_customers(), expected.total_customers);
            assert_eq!(ds.table().len(), expected.table.len());
            for id in 0..expected.table.len() as u32 {
                assert_eq!(ds.table().itemset(id), expected.table.itemset(id));
                assert_eq!(ds.table().support(id), expected.table.support(id));
            }
            let mut scratch = ShardScratch::new();
            let rows = ds.load_shard(0..ds.num_rows(), &mut scratch);
            assert_eq!(rows, &expected.customers[..], "batch {batch}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn min_count_for_matches_fraction_semantics() {
        assert_eq!(min_count_for(5, 0.25), 2);
        assert_eq!(min_count_for(100, 0.01), 1);
        assert_eq!(min_count_for(0, 0.5), 1);
        assert_eq!(min_count_for(1000, 0.005), 5);
    }
}
