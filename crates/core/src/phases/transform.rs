//! Transformation phase (paper §3, phase 3).
//!
//! Each transaction is replaced by the set of litemset ids contained in it.
//! Transactions containing no large itemset disappear; customers whose
//! entire history disappears remain in the database with an empty element
//! list because they still count in the support denominator. The paper
//! motivates this phase with the cost of repeated subset tests during
//! support counting — after transformation, testing whether a customer
//! supports a candidate is pure integer work.

use crate::fxhash::FxHashMap;
use crate::types::database::{CustomerSequence, Database};
use crate::types::itemset::{Item, Itemset};
use crate::types::transformed::{
    LitemsetId, LitemsetTable, TransformedCustomer, TransformedDatabase,
};

/// Reusable per-customer transformer: the litemset table plus its
/// first-item anchor index.
///
/// [`transform_phase`] builds one and maps every customer through it;
/// streaming converters (seqpat-io's colstore builder) build one and feed
/// customers through it one batch at a time, producing rows identical to
/// the in-memory phase.
pub struct TransformContext<'a> {
    table: &'a LitemsetTable,
    // Index litemsets by their smallest item: a litemset can only be
    // contained in a transaction that holds its first item, so each
    // transaction tests only the litemsets anchored at one of its items
    // instead of the whole table (the table is often in the thousands, a
    // transaction has a handful of items).
    by_first_item: FxHashMap<Item, Vec<LitemsetId>>,
}

impl<'a> TransformContext<'a> {
    /// Builds the anchor index over `table`.
    pub fn new(table: &'a LitemsetTable) -> Self {
        let mut by_first_item: FxHashMap<Item, Vec<LitemsetId>> = FxHashMap::default();
        for (id, set, _) in table.iter() {
            by_first_item.entry(set.items()[0]).or_default().push(id);
        }
        Self {
            table,
            by_first_item,
        }
    }

    /// Transforms one customer sequence: per transaction, the sorted set of
    /// litemset ids contained in it (empty transactions dropped, empty
    /// customers kept — they still count in the support denominator).
    pub fn transform_customer(&self, customer: &CustomerSequence) -> TransformedCustomer {
        let mut elements: Vec<Vec<LitemsetId>> = Vec::with_capacity(customer.transactions.len());
        for transaction in &customer.transactions {
            let mut ids: Vec<LitemsetId> = Vec::new();
            self.contained_ids(&transaction.items, &mut ids);
            if !ids.is_empty() {
                elements.push(ids);
            }
        }
        TransformedCustomer {
            customer_id: customer.customer_id,
            elements,
        }
    }

    /// Replaces `ids` with the ascending ids of every litemset contained
    /// in `items`. The maximal phase expands pattern elements with it.
    pub fn contained_ids(&self, items: &Itemset, ids: &mut Vec<LitemsetId>) {
        ids.clear();
        for &item in items.items() {
            if let Some(anchored) = self.by_first_item.get(&item) {
                for &id in anchored {
                    if self.table.itemset(id).is_subset_of(items) {
                        ids.push(id);
                    }
                }
            }
        }
        ids.sort_unstable();
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }
}

/// Runs the transformation phase.
pub fn transform_phase(db: &Database, table: LitemsetTable) -> TransformedDatabase {
    let customers = {
        let ctx = TransformContext::new(&table);
        db.customers()
            .iter()
            .map(|c| ctx.transform_customer(c))
            .collect()
    };
    TransformedDatabase {
        customers,
        table,
        total_customers: db.num_customers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::litemset::{litemset_phase, tests::paper_db};
    use seqpat_itemset::AprioriConfig;

    fn transformed() -> TransformedDatabase {
        let db = paper_db();
        let out = litemset_phase(&db, 2, &AprioriConfig::default());
        transform_phase(&db, out.table)
    }

    #[test]
    fn paper_figure5_transformation() {
        // Ids (lexicographic): 0=(30) 1=(40) 2=(40 70) 3=(70) 4=(90).
        // Paper Figure 5: customer 2's transformed sequence is
        // ⟨{(30)} {(40),(70),(40 70)}⟩ — (10 20) disappears.
        let t = transformed();
        let c2 = &t.customers[1];
        assert_eq!(c2.elements, vec![vec![0], vec![1, 2, 3]]);
    }

    #[test]
    fn customer_with_only_small_items_keeps_denominator_slot() {
        let db = Database::from_rows(vec![
            (1, 1, vec![1]),
            (1, 2, vec![1]),
            (2, 1, vec![99]), // unique item, never large at min_count 2
            (3, 1, vec![1]),
        ]);
        let out = litemset_phase(&db, 2, &AprioriConfig::default());
        let t = transform_phase(&db, out.table);
        assert_eq!(t.total_customers, 3);
        assert_eq!(t.customers.len(), 3);
        assert!(t.customers[1].elements.is_empty());
    }

    #[test]
    fn all_five_customers_transformed() {
        let t = transformed();
        assert_eq!(t.customers.len(), 5);
        assert_eq!(t.total_customers, 5);
        // Customer 1: ⟨(30)(90)⟩ → ⟨{0}{4}⟩.
        assert_eq!(t.customers[0].elements, vec![vec![0], vec![4]]);
        // Customer 3: single transaction (30 50 70) → {0, 3}.
        assert_eq!(t.customers[2].elements, vec![vec![0, 3]]);
        // Customer 5: ⟨(90)⟩ → ⟨{4}⟩.
        assert_eq!(t.customers[4].elements, vec![vec![4]]);
    }

    #[test]
    fn to_sequence_maps_ids_back() {
        let t = transformed();
        let seq = t.to_sequence(&[0, 2]);
        assert_eq!(seq.to_string(), "<(30)(40 70)>");
    }
}
