//! Output checks, computed apart from the program.
//!
//! Mining: every reported support is recounted with this file's own
//! containment test over the raw customers; no reported pattern may be
//! contained in another; every 1-item and ordered 2-item sequence that this
//! file's own counting finds frequent must be contained in some reported
//! pattern; and at least one pattern must be reported.
//!
//! Serving: every distinct query's answer must equal the one a prefix map
//! built here from the mined pattern list gives (max support per next id,
//! ranked by support descending, then id ascending), and the replay's hit
//! count and answer digest must match the same map.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::workload::RawPattern;

/// `a ⊆ b` for ascending item vectors.
fn subset(a: &[u32], b: &[u32]) -> bool {
    let mut rest = b.iter();
    a.iter().all(|x| rest.by_ref().any(|y| y == x))
}

/// `pattern ⊑ sequence`: the pattern's elements are subsets of strictly
/// increasing elements of the sequence (earliest match first, which is
/// optimal for subsequence containment).
fn contained(pattern: &[Vec<u32>], sequence: &[Vec<u32>]) -> bool {
    let mut at = 0;
    for element in pattern {
        match sequence[at..].iter().position(|t| subset(element, t)) {
            Some(offset) => at += offset + 1,
            None => return false,
        }
    }
    true
}

/// What the mining check found, for the run's log.
#[derive(Debug)]
pub struct MiningSummary {
    pub patterns: usize,
    pub frequent_items: usize,
    pub frequent_pairs: usize,
}

pub fn check_patterns(
    customers: &[Vec<Vec<u32>>],
    min_count: u64,
    patterns: &[RawPattern],
) -> Result<MiningSummary, String> {
    if patterns.is_empty() {
        return Err("no pattern reported".into());
    }
    // Customer support of every item, then a customer bitset per frequent
    // item: a pattern is only recounted on the customers holding all of
    // its items somewhere. Every item of a large pattern is frequent.
    let distinct_items: Vec<Vec<u32>> = customers
        .iter()
        .map(|sequence| {
            let mut items: Vec<u32> = sequence.iter().flatten().copied().collect();
            items.sort_unstable();
            items.dedup();
            items
        })
        .collect();
    let mut item_support: HashMap<u32, u64> = HashMap::new();
    for items in &distinct_items {
        for &item in items {
            *item_support.entry(item).or_insert(0) += 1;
        }
    }
    let mut frequent: Vec<u32> = item_support
        .iter()
        .filter(|&(_, &n)| n >= min_count)
        .map(|(&item, _)| item)
        .collect();
    frequent.sort_unstable();
    let dense: HashMap<u32, usize> = frequent.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    let words = customers.len().div_ceil(64);
    let mut bitsets = vec![0u64; frequent.len() * words];
    for (c, items) in distinct_items.iter().enumerate() {
        for item in items {
            if let Some(&d) = dense.get(item) {
                bitsets[d * words + c / 64] |= 1 << (c % 64);
            }
        }
    }

    let mut holders = vec![0u64; words];
    for (elements, support) in patterns {
        if elements.is_empty() || elements.iter().any(|e| e.is_empty()) {
            return Err(format!("empty pattern or element in {elements:?}"));
        }
        if elements.iter().any(|e| e.windows(2).any(|w| w[0] >= w[1])) {
            return Err(format!(
                "element items not strictly ascending in {elements:?}"
            ));
        }
        holders.fill(u64::MAX);
        for item in elements.iter().flatten() {
            let Some(&d) = dense.get(item) else {
                return Err(format!("{elements:?} holds infrequent item {item}"));
            };
            for (h, b) in holders.iter_mut().zip(&bitsets[d * words..(d + 1) * words]) {
                *h &= b;
            }
        }
        let mut recount = 0u64;
        for (w, &bits) in holders.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let c = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if c < customers.len() && contained(elements, &customers[c]) {
                    recount += 1;
                }
            }
        }
        if recount != *support {
            return Err(format!(
                "support of {elements:?} reported {support}, recounted {recount}"
            ));
        }
        if recount < min_count {
            return Err(format!(
                "{elements:?} has support {recount} below the minimum {min_count}"
            ));
        }
    }

    // Antichain: containment needs a pattern with at least as many
    // elements and at least as many items.
    let sizes: Vec<(usize, usize)> = patterns
        .iter()
        .map(|(e, _)| (e.len(), e.iter().map(Vec::len).sum()))
        .collect();
    for (i, (a, _)) in patterns.iter().enumerate() {
        for (j, (b, _)) in patterns.iter().enumerate() {
            if i != j && sizes[i].0 <= sizes[j].0 && sizes[i].1 <= sizes[j].1 && contained(a, b) {
                return Err(format!("{a:?} is contained in reported pattern {b:?}"));
            }
        }
    }

    // Frequent ordered 2-item sequences <(a)(b)>, counted here: a customer
    // supports one when a's first transaction precedes b's last.
    let f = frequent.len();
    let mut pair_counts = vec![0u32; f * f];
    let mut first = vec![usize::MAX; f];
    let mut last = vec![0usize; f];
    let mut seen: Vec<usize> = Vec::new();
    for sequence in customers {
        seen.clear();
        for (t, element) in sequence.iter().enumerate() {
            for item in element {
                if let Some(&d) = dense.get(item) {
                    if first[d] == usize::MAX {
                        first[d] = t;
                        seen.push(d);
                    }
                    last[d] = t;
                }
            }
        }
        for &a in &seen {
            for &b in &seen {
                if first[a] < last[b] {
                    pair_counts[a * f + b] += 1;
                }
            }
        }
        for &d in &seen {
            first[d] = usize::MAX;
        }
    }
    let frequent_pairs: Vec<(u32, u32)> = (0..f * f)
        .filter(|&i| u64::from(pair_counts[i]) >= min_count)
        .map(|i| (frequent[i / f], frequent[i % f]))
        .collect();
    let mut covered_items: HashSet<u32> = HashSet::new();
    let mut covered_pairs: HashSet<(u32, u32)> = HashSet::new();
    for (elements, _) in patterns {
        for (i, earlier) in elements.iter().enumerate() {
            covered_items.extend(earlier.iter().copied());
            for later in &elements[i + 1..] {
                for &a in earlier {
                    for &b in later {
                        covered_pairs.insert((a, b));
                    }
                }
            }
        }
    }
    let missing_items: Vec<u32> = frequent
        .iter()
        .filter(|item| !covered_items.contains(item))
        .copied()
        .collect();
    if let Some(item) = missing_items.first() {
        return Err(format!(
            "frequent item {item} is in no reported pattern ({} such items)",
            missing_items.len()
        ));
    }
    let missing_pairs: Vec<(u32, u32)> = frequent_pairs
        .iter()
        .filter(|pair| !covered_pairs.contains(pair))
        .copied()
        .collect();
    if let Some((a, b)) = missing_pairs.first() {
        return Err(format!(
            "frequent sequence <({a})({b})> is in no reported pattern ({} such pairs)",
            missing_pairs.len()
        ));
    }
    Ok(MiningSummary {
        patterns: patterns.len(),
        frequent_items: frequent.len(),
        frequent_pairs: frequent_pairs.len(),
    })
}

/// One ranked answer: `(next id, support)` pairs.
pub type Answer = Vec<(u32, u64)>;

/// Expected top-`k` answers for every proper prefix of the patterns.
pub fn prefix_map(patterns: &[(Vec<u32>, u64)], k: usize) -> HashMap<Vec<u32>, Answer> {
    let mut best: HashMap<Vec<u32>, BTreeMap<u32, u64>> = HashMap::new();
    for (ids, support) in patterns {
        for len in 0..ids.len() {
            let entry = best.entry(ids[..len].to_vec()).or_default();
            let slot = entry.entry(ids[len]).or_insert(0);
            *slot = (*slot).max(*support);
        }
    }
    best.into_iter()
        .map(|(prefix, next)| {
            let mut ranked: Answer = next.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked.truncate(k);
            (prefix, ranked)
        })
        .collect()
}

/// Folds one answer into a running, order-sensitive digest.
pub fn fold_answer(digest: u64, answer: impl IntoIterator<Item = (u32, u64)>) -> u64 {
    answer
        .into_iter()
        .fold(digest.wrapping_mul(0x100_0000_01B3), |d, (id, support)| {
            (d ^ u64::from(id))
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(support)
        })
}

/// What the serving check found, for the run's log.
#[derive(Debug)]
pub struct ServeSummary {
    pub distinct_queries: usize,
    pub hits: u64,
    pub misses: u64,
}

/// Checks the answers to the distinct queries and the replay's hit count
/// and digest (one pass over `queries`, in order).
pub fn check_answers(
    patterns: &[(Vec<u32>, u64)],
    k: usize,
    queries: &[Vec<u32>],
    answers: &[(Vec<u32>, Answer)],
    replay_hits: u64,
    replay_digest: u64,
) -> Result<ServeSummary, String> {
    let expected = prefix_map(patterns, k);
    let empty: Answer = Vec::new();
    let expect = |q: &[u32]| expected.get(q).unwrap_or(&empty);
    let distinct: HashSet<&[u32]> = queries.iter().map(Vec::as_slice).collect();
    let answered: HashSet<&[u32]> = answers.iter().map(|(q, _)| q.as_slice()).collect();
    if answered.len() != answers.len() {
        return Err("a query is answered twice".into());
    }
    if answered != distinct {
        return Err(format!(
            "{} distinct queries but {} answered, or a different set",
            distinct.len(),
            answered.len()
        ));
    }
    for (q, got) in answers {
        if got != expect(q) {
            return Err(format!(
                "query {q:?}: answered {got:?}, expected {:?}",
                expect(q)
            ));
        }
    }
    let mut hits = 0u64;
    let mut digest = 0u64;
    for q in queries {
        let answer = expect(q);
        hits += u64::from(!answer.is_empty());
        digest = fold_answer(digest, answer.iter().copied());
    }
    let misses = queries.len() as u64 - hits;
    if (replay_hits, replay_digest) != (hits, digest) {
        return Err(format!(
            "replay reported {replay_hits} hits and digest {replay_digest:#x}, expected {hits} and {digest:#x}"
        ));
    }
    if hits == 0 || misses == 0 {
        return Err(format!(
            "{hits} hits and {misses} misses: both must be non-zero"
        ));
    }
    Ok(ServeSummary {
        distinct_queries: distinct.len(),
        hits,
        misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{raw, raw_patterns};
    use seqpat_core::{Database, MinSupport, Miner, MinerConfig};
    use seqpat_datagen::{generate, query_workload, GenParams, QueryWorkloadParams};
    use seqpat_serve::{PatternTrie, Prediction};

    const MIN_COUNT: u64 = 10;

    fn mined() -> (Vec<Vec<Vec<u32>>>, seqpat_core::MiningResult) {
        let params = GenParams::paper_dataset("C10-T2.5-S4-I1.25")
            .unwrap()
            .customers(300)
            .items(60);
        let db: Database = generate(&params, 7);
        let result = Miner::new(MinerConfig::new(MinSupport::Count(MIN_COUNT))).mine(&db);
        (raw(db.customers()), result)
    }

    #[test]
    fn containment_is_ordered_and_subset_aware() {
        let seq = vec![vec![1, 2], vec![3], vec![1, 4]];
        assert!(contained(&[vec![1], vec![4]], &seq));
        assert!(contained(&[vec![2], vec![1, 4]], &seq));
        assert!(!contained(&[vec![3], vec![2]], &seq));
        assert!(!contained(&[vec![1, 3]], &seq));
    }

    #[test]
    fn mining_check_accepts_the_miner_and_rejects_tampering() {
        let (customers, result) = mined();
        let patterns = raw_patterns(&result.patterns);
        let summary = check_patterns(&customers, MIN_COUNT, &patterns).unwrap();
        assert!(summary.frequent_pairs > 0);

        let mut off_by_one = patterns.clone();
        off_by_one[0].1 += 1;
        let err = check_patterns(&customers, MIN_COUNT, &off_by_one).unwrap_err();
        assert!(err.contains("recounted"), "{err}");

        // A maximal pattern of at most two single-item elements is the only
        // cover of its own 1- or 2-item sequence, so dropping it must show.
        let victim = patterns
            .iter()
            .position(|(e, _)| e.len() <= 2 && e.iter().all(|x| x.len() == 1))
            .expect("the small dataset has a short maximal pattern");
        let mut dropped = patterns.clone();
        dropped.remove(victim);
        let err = check_patterns(&customers, MIN_COUNT, &dropped).unwrap_err();
        assert!(err.contains("in no reported pattern"), "{err}");

        // A non-maximal pattern breaks the antichain.
        let mut extra = patterns.clone();
        let (long, _) = patterns.iter().max_by_key(|(e, _)| e.len()).unwrap();
        let prefix = vec![long[0].clone()];
        let support = customers.iter().filter(|c| contained(&prefix, c)).count() as u64;
        extra.push((prefix, support));
        let err = check_patterns(&customers, MIN_COUNT, &extra).unwrap_err();
        assert!(err.contains("is contained in"), "{err}");

        assert!(check_patterns(&customers, MIN_COUNT, &[]).is_err());
    }

    #[test]
    fn serving_check_accepts_the_trie_and_rejects_a_reordered_answer() {
        let (_, result) = mined();
        let patterns: Vec<(Vec<u32>, u64)> = result
            .id_patterns
            .iter()
            .map(|p| (p.ids.clone(), p.support))
            .collect();
        let trie = PatternTrie::build(
            &result.id_patterns,
            result.table.clone(),
            result.num_customers as u64,
        )
        .unwrap();
        let params = QueryWorkloadParams {
            count: 2_000,
            skew: 1.0,
            miss_rate: 0.1,
        };
        let queries = query_workload(&result.id_patterns, &params, 3);
        let mut out = [Prediction::default(); 5];
        let mut hits = 0;
        let mut digest = 0;
        for q in &queries {
            let n = trie.predict_into(q, &mut out);
            hits += u64::from(n > 0);
            digest = fold_answer(digest, out[..n].iter().map(|p| (p.id, p.support)));
        }
        let mut distinct = queries.clone();
        distinct.sort();
        distinct.dedup();
        let answers: Vec<(Vec<u32>, Answer)> = distinct
            .into_iter()
            .map(|q| {
                let a = trie
                    .predict(&q, 5)
                    .iter()
                    .map(|p| (p.id, p.support))
                    .collect();
                (q, a)
            })
            .collect();
        check_answers(&patterns, 5, &queries, &answers, hits, digest).unwrap();

        let mut reordered = answers.clone();
        let i = reordered.iter().position(|(_, a)| a.len() >= 2).unwrap();
        reordered[i].1.swap(0, 1);
        let err = check_answers(&patterns, 5, &queries, &reordered, hits, digest).unwrap_err();
        assert!(err.contains("expected"), "{err}");

        let err = check_answers(&patterns, 5, &queries, &answers, hits + 1, digest).unwrap_err();
        assert!(err.contains("replay reported"), "{err}");
    }
}
