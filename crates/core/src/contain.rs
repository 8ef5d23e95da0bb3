//! Containment kernels — the paper's `⊑` relation in both spaces.
//!
//! All kernels use **greedy earliest-match** scanning, which is exact for
//! the subsequence relation: if any embedding of the needle into the hay
//! exists, the embedding that always picks the earliest feasible hay element
//! also exists (a straightforward exchange argument — moving a match left
//! never invalidates later matches). [`customer_contains_before`] is the
//! mirror image: greedy latest-match from the end.

use crate::types::itemset::Itemset;
use crate::types::transformed::{LitemsetId, TransformedCustomer};

/// `needle ⊑ hay` over itemset sequences (paper §2): indices
/// `i1 < … < in` must exist with `needle[j] ⊆ hay[i_j]`.
pub fn sequence_contains(hay: &[Itemset], needle: &[Itemset]) -> bool {
    // `any` consumes the iterator up to and including the first match, so
    // each needle element resumes scanning strictly after the previous
    // match — exactly the greedy earliest-match embedding.
    let mut hay_iter = hay.iter();
    needle.iter().all(|n| hay_iter.any(|h| n.is_subset_of(h)))
}

/// Plain subsequence over litemset ids with **equality** element matching.
/// This is the relation used while *growing* candidates in the transformed
/// space, where each sequence element is exactly one litemset.
pub fn id_subsequence(hay: &[LitemsetId], needle: &[LitemsetId]) -> bool {
    let mut hay_iter = hay.iter();
    needle.iter().all(|&n| hay_iter.any(|&h| h == n))
}

/// Element sizes up to this length are membership-tested with a linear
/// scan instead of a binary search: typical transformed transactions hold
/// a handful of litemset ids, where the scan's predictable forward walk
/// beats the binary search's data-dependent branches and lets the hash-tree
/// probe's leaf verification stay in one cache line.
const LINEAR_SCAN_MAX: usize = 8;

/// Membership of `id` in one ascending-sorted element: linear scan with
/// early exit for short elements, binary search past [`LINEAR_SCAN_MAX`].
/// Both arms are exact, so the hybrid is invisible to every caller.
#[inline]
fn element_contains(element: &[LitemsetId], id: LitemsetId) -> bool {
    debug_assert!(
        element.windows(2).all(|w| w[0] < w[1]),
        "transformed elements hold ascending unique litemset ids"
    );
    if element.len() <= LINEAR_SCAN_MAX {
        for &h in element {
            if h >= id {
                return h == id;
            }
        }
        false
    } else {
        element.binary_search(&id).is_ok()
    }
}

/// Is the candidate id-sequence contained in a transformed customer
/// sequence? `candidate[j]` must occur in some element (transaction) of the
/// customer, at strictly increasing transaction positions. Elements store
/// ascending ids, so membership is a hybrid scan (`element_contains`).
pub fn customer_contains(customer: &TransformedCustomer, candidate: &[LitemsetId]) -> bool {
    customer_contains_from(customer, candidate, 0).is_some()
}

/// Like [`customer_contains`] but starts matching at transaction index
/// `start` and returns the index of the transaction that matched the *last*
/// candidate element (earliest-match). The pair join
/// ([`crate::algorithms::otf`]) reads a sequence's earliest end from it.
pub fn customer_contains_from(
    customer: &TransformedCustomer,
    candidate: &[LitemsetId],
    start: usize,
) -> Option<usize> {
    debug_assert!(
        start <= customer.elements.len(),
        "the scan cursor starts within the customer (the while guard keeps it there)"
    );
    let mut pos = start;
    let mut last = None;
    'outer: for &id in candidate {
        while pos < customer.elements.len() {
            let element = &customer.elements[pos];
            pos += 1;
            if element_contains(element, id) {
                last = Some(pos - 1);
                continue 'outer;
            }
        }
        return None;
    }
    last
}

/// The reverse twin of [`customer_contains_from`]: matches the candidate
/// within the transactions before index `end`, latest-match, and returns
/// the index of the transaction that matched the *first* candidate element.
/// Greedy latest matching is exact by the mirrored exchange argument. The
/// pair join ([`crate::algorithms::otf`]) reads a sequence's latest start
/// from it.
pub fn customer_contains_before(
    customer: &TransformedCustomer,
    candidate: &[LitemsetId],
    end: usize,
) -> Option<usize> {
    debug_assert!(
        end <= customer.elements.len(),
        "the scan cursor ends within the customer"
    );
    let mut pos = end;
    let mut first = None;
    'outer: for &id in candidate.iter().rev() {
        while pos > 0 {
            pos -= 1;
            if element_contains(&customer.elements[pos], id) {
                first = Some(pos);
                continue 'outer;
            }
        }
        return None;
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::itemset::Itemset;

    fn isets(v: Vec<Vec<u32>>) -> Vec<Itemset> {
        v.into_iter().map(Itemset::new).collect()
    }

    #[test]
    fn sequence_contains_with_subsets() {
        let hay = isets(vec![vec![7], vec![3, 8], vec![9], vec![4, 5, 6], vec![8]]);
        let needle = isets(vec![vec![3], vec![4, 5], vec![8]]);
        assert!(sequence_contains(&hay, &needle));
        let bad = isets(vec![vec![3], vec![5], vec![9]]);
        assert!(!sequence_contains(&hay, &bad)); // 9 occurs before the 5-match? 9 at idx 2, 5 at idx 3 → fails
    }

    #[test]
    fn sequence_contains_empty_needle_is_true() {
        let hay = isets(vec![vec![1]]);
        assert!(sequence_contains(&hay, &[]));
    }

    #[test]
    fn greedy_does_not_miss_later_embeddings() {
        // Needle ⟨(1)(1 2)⟩ in hay ⟨(1 2)(1 2)⟩: greedy matches (1)→hay[0],
        // then (1 2)→hay[1]. A naive non-greedy matcher could bind (1 2) to
        // hay[0] and fail.
        let hay = isets(vec![vec![1, 2], vec![1, 2]]);
        let needle = isets(vec![vec![1], vec![1, 2]]);
        assert!(sequence_contains(&hay, &needle));
    }

    #[test]
    fn id_subsequence_basic() {
        assert!(id_subsequence(&[1, 2, 3, 4], &[2, 4]));
        assert!(!id_subsequence(&[1, 2, 3, 4], &[4, 2]));
        assert!(id_subsequence(&[1, 1, 2], &[1, 1]));
        assert!(!id_subsequence(&[1, 2], &[1, 1]));
        assert!(id_subsequence(&[], &[]));
        assert!(!id_subsequence(&[], &[1]));
    }

    #[test]
    fn element_contains_agrees_with_binary_search_on_both_arms() {
        // Short (linear-scan) arm, including early exit past the id.
        let short: Vec<LitemsetId> = vec![2, 5, 9];
        for id in 0..12 {
            assert_eq!(
                element_contains(&short, id),
                short.binary_search(&id).is_ok(),
                "short element, id {id}"
            );
        }
        // Long (binary-search) arm: strictly more than LINEAR_SCAN_MAX ids.
        let long: Vec<LitemsetId> = (0..=2 * LINEAR_SCAN_MAX as u32).map(|i| 2 * i).collect();
        assert!(long.len() > LINEAR_SCAN_MAX);
        for id in 0..4 * LINEAR_SCAN_MAX as u32 {
            assert_eq!(
                element_contains(&long, id),
                long.binary_search(&id).is_ok(),
                "long element, id {id}"
            );
        }
        assert!(!element_contains(&[], 0));
    }

    #[test]
    fn customer_contains_strictly_increasing_transactions() {
        let c = TransformedCustomer {
            customer_id: 1,
            elements: vec![vec![0, 1], vec![2], vec![0]],
        };
        assert!(customer_contains(&c, &[0, 2]));
        assert!(customer_contains(&c, &[1, 2, 0]));
        assert!(customer_contains(&c, &[0, 0])); // elements 0 and 2
        assert!(!customer_contains(&c, &[2, 1])); // wrong order
        assert!(!customer_contains(&c, &[0, 1])); // 0 and 1 share one transaction
    }

    #[test]
    fn customer_contains_from_reports_end_position() {
        let c = TransformedCustomer {
            customer_id: 1,
            elements: vec![vec![5], vec![6], vec![5], vec![7]],
        };
        assert_eq!(customer_contains_from(&c, &[5], 0), Some(0));
        assert_eq!(customer_contains_from(&c, &[5], 1), Some(2));
        assert_eq!(customer_contains_from(&c, &[5, 7], 0), Some(3));
        assert_eq!(customer_contains_from(&c, &[7, 5], 0), None);
        assert_eq!(customer_contains_from(&c, &[5], 3), None);
    }

    #[test]
    fn customer_contains_before_reports_start_position() {
        let c = TransformedCustomer {
            customer_id: 1,
            elements: vec![vec![5], vec![6], vec![5], vec![7]],
        };
        assert_eq!(customer_contains_before(&c, &[5], 4), Some(2));
        assert_eq!(customer_contains_before(&c, &[5], 2), Some(0));
        assert_eq!(customer_contains_before(&c, &[5, 7], 4), Some(2));
        assert_eq!(customer_contains_before(&c, &[5, 6], 4), Some(0));
        assert_eq!(customer_contains_before(&c, &[5, 5], 4), Some(0));
        assert_eq!(customer_contains_before(&c, &[7, 5], 4), None);
        assert_eq!(customer_contains_before(&c, &[7], 3), None);
        assert_eq!(customer_contains_before(&c, &[5], 0), None);
    }
}
