//! Criterion micro-benchmarks for the hot kernels: containment tests,
//! candidate generation, the two hash trees, and the bitmap strategy's
//! S-step / AND-extension word kernels.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use seqpat_core::bitmap::{smear_and_words, sstep, support_hits_words};
use seqpat_core::contain::{customer_contains, id_subsequence, sequence_contains};
use seqpat_core::hash_tree::{ProbeScratch, SequenceHashTree};
use seqpat_core::types::transformed::{LitemsetTable, TransformedCustomer, TransformedDatabase};
use seqpat_core::vertical::VerticalState;
use seqpat_core::{BitmapState, CandidateArena, Itemset, VerticalParams};

fn pseudo_random(seed: u32) -> impl FnMut(u32) -> u32 {
    let mut x = seed | 1;
    move |m: u32| {
        x = x.wrapping_mul(48271) % 0x7fffffff;
        x % m
    }
}

fn bench_sequence_contains(c: &mut Criterion) {
    let mut rnd = pseudo_random(11);
    let hay: Vec<Itemset> = (0..50)
        .map(|_| Itemset::new((0..3).map(|_| rnd(100)).collect()))
        .collect();
    let needle: Vec<Itemset> = (0..5).map(|_| Itemset::new(vec![rnd(100)])).collect();
    c.bench_function("sequence_contains/50x5", |b| {
        b.iter(|| sequence_contains(black_box(&hay), black_box(&needle)))
    });
}

fn bench_id_subsequence(c: &mut Criterion) {
    let mut rnd = pseudo_random(13);
    let hay: Vec<u32> = (0..200).map(|_| rnd(50)).collect();
    let needle: Vec<u32> = (0..8).map(|_| rnd(50)).collect();
    c.bench_function("id_subsequence/200x8", |b| {
        b.iter(|| id_subsequence(black_box(&hay), black_box(&needle)))
    });
}

fn make_customer(n_trans: usize, ids_per_trans: usize, universe: u32) -> TransformedCustomer {
    let mut rnd = pseudo_random(17);
    TransformedCustomer {
        customer_id: 0,
        elements: (0..n_trans)
            .map(|_| {
                let mut e: Vec<u32> = (0..ids_per_trans).map(|_| rnd(universe)).collect();
                e.sort_unstable();
                e.dedup();
                e
            })
            .collect(),
    }
}

fn bench_customer_contains(c: &mut Criterion) {
    let customer = make_customer(20, 5, 64);
    let mut rnd = pseudo_random(19);
    let candidates: Vec<Vec<u32>> = (0..64).map(|_| (0..3).map(|_| rnd(64)).collect()).collect();
    c.bench_function("customer_contains/20x5/64cands", |b| {
        b.iter(|| {
            let mut hits = 0;
            for cand in &candidates {
                if customer_contains(black_box(&customer), black_box(cand)) {
                    hits += 1;
                }
            }
            hits
        })
    });
}

fn bench_sequence_hash_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequence_hash_tree");
    let universe = 128;
    for n_candidates in [256usize, 2048] {
        let mut rnd = pseudo_random(23);
        let mut candidates: Vec<Vec<u32>> = (0..n_candidates)
            .map(|_| (0..3).map(|_| rnd(universe)).collect())
            .collect();
        candidates.sort();
        candidates.dedup();
        let candidates = CandidateArena::from_rows(3, candidates.iter().map(|c| c.as_slice()));
        let customer = make_customer(15, 4, universe);
        group.bench_with_input(
            BenchmarkId::new("build", n_candidates),
            &candidates,
            |b, cands| b.iter(|| SequenceHashTree::build(black_box(cands), 16, 32)),
        );
        let tree = SequenceHashTree::build(&candidates, 16, 32);
        group.bench_with_input(
            BenchmarkId::new("probe", n_candidates),
            &candidates,
            |b, cands| {
                let mut seen = ProbeScratch::new(universe as usize);
                b.iter(|| {
                    let mut verify = 0u64;
                    let mut probes = 0u64;
                    let mut hits = 0u32;
                    tree.for_each_contained(
                        black_box(&customer),
                        cands,
                        &mut seen,
                        &mut verify,
                        &mut probes,
                        &mut |_| hits += 1,
                    );
                    (verify, probes, hits)
                })
            },
        );
    }
    group.finish();
}

fn bench_candidate_generation(c: &mut Criterion) {
    // L2 over a 40-litemset alphabet → a realistic join input.
    let mut rnd = pseudo_random(29);
    let mut l2: Vec<Vec<u32>> = (0..400).map(|_| vec![rnd(40), rnd(40)]).collect();
    l2.sort();
    l2.dedup();
    let l2 = CandidateArena::from_rows(2, l2.iter().map(|c| c.as_slice()));
    c.bench_function("apriori_generate_sequences/L2~400", |b| {
        b.iter(|| seqpat_core::algorithms::candidate::generate(black_box(&l2)))
    });

    let mut l3: Vec<Vec<u32>> = (0..300).map(|_| vec![rnd(20), rnd(20), rnd(20)]).collect();
    l3.sort();
    l3.dedup();
    let l3 = CandidateArena::from_rows(3, l3.iter().map(|c| c.as_slice()));
    c.bench_function("apriori_generate_sequences/L3~300", |b| {
        b.iter(|| seqpat_core::algorithms::candidate::generate(black_box(&l3)))
    });
}

fn bench_itemset_hash_tree(c: &mut Criterion) {
    let mut rnd = pseudo_random(31);
    let mut candidates: Vec<Vec<u32>> = (0..1000)
        .map(|_| {
            let a = rnd(200);
            let b = a + 1 + rnd(50);
            vec![a, b]
        })
        .collect();
    candidates.sort();
    candidates.dedup();
    let tree = seqpat_itemset::HashTree::build(&candidates, 16, 32);
    let transaction: Vec<u32> = {
        let mut t: Vec<u32> = (0..12).map(|_| rnd(250)).collect();
        t.sort_unstable();
        t.dedup();
        t
    };
    let mut scratch = seqpat_itemset::hash_tree::ProbeScratch::new(256);
    c.bench_function("itemset_hash_tree/probe_1000", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            tree.for_each_contained(black_box(&transaction), &mut scratch, &mut |_| hits += 1);
            hits
        })
    });
}

fn bench_sstep(c: &mut Criterion) {
    // Pure smear kernel over a word array: the inner loop of every bitmap
    // counting pass. Words carry 0–2 set bits, like real sparse frontiers.
    let mut rnd = pseudo_random(37);
    let words: Vec<u64> = (0..4096)
        .map(|_| (1u64 << rnd(64)) | (1u64 << rnd(64)))
        .collect();
    c.bench_function("bitmap_sstep/4096words", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &w in black_box(&words).iter() {
                acc ^= sstep(w);
            }
            acc
        })
    });
}

fn bench_sstep_and_extension(c: &mut Criterion) {
    // One S-step + AND extension over two-word customer spans, including
    // the cross-word carry and the non-zero support test — the fused form
    // the counting kernel runs per candidate per customer.
    let mut rnd = pseudo_random(41);
    let frontier: Vec<u64> = (0..2048).map(|_| 1u64 << rnd(64)).collect();
    let bits: Vec<u64> = (0..2048)
        .map(|_| (1u64 << rnd(64)) | (1u64 << rnd(64)) | (1u64 << rnd(64)))
        .collect();
    c.bench_function("bitmap_sstep_and/1024spans_x2words", |b| {
        b.iter(|| {
            let mut supported = 0u32;
            let spans = black_box(&frontier)
                .chunks_exact(2)
                .zip(black_box(&bits).chunks_exact(2));
            for (f, m) in spans {
                let w0 = sstep(f[0]) & m[0];
                let smeared = if f[0] != 0 { u64::MAX } else { sstep(f[1]) };
                let w1 = smeared & m[1];
                if w0 | w1 != 0 {
                    supported += 1;
                }
            }
            supported
        })
    });
}

fn bench_bitmap_lanes(c: &mut Criterion) {
    // The unrolled lane kernels in isolation (one word = one customer
    // span): the per-variant counterpart of the scalar bitmap_sstep cell.
    let mut rnd = pseudo_random(61);
    let base: Vec<u64> = (0..4096).map(|_| 1u64 << rnd(64)).collect();
    let bits: Vec<u64> = (0..4096)
        .map(|_| (1u64 << rnd(64)) | (1u64 << rnd(64)) | (1u64 << rnd(64)))
        .collect();
    let mut frontier = base.clone();
    c.bench_function("bitmap_lanes/smear_and/4096words", |b| {
        b.iter(|| {
            frontier.copy_from_slice(black_box(&base));
            smear_and_words(&mut frontier, black_box(&bits));
        })
    });
    c.bench_function("bitmap_lanes/support_hits/4096words", |b| {
        b.iter(|| support_hits_words(black_box(&base), black_box(&bits)))
    });
}

/// Synthetic transformed database shared by the vertical-join benches:
/// `customers` customers × `len` single-id transactions over `universe`
/// ids. When `hot_every > 0`, one designated hot id additionally occurs in
/// every `hot_every`-th transaction, skewing its occurrence list — the
/// regime the galloping join path is built for.
fn vertical_tdb(
    customers: usize,
    len: usize,
    universe: u32,
    hot_every: usize,
) -> TransformedDatabase {
    let mut rnd = pseudo_random(47);
    let table = LitemsetTable::new(
        (0..universe)
            .map(|i| (Itemset::new(vec![i + 1]), 1))
            .collect(),
    );
    let customers: Vec<TransformedCustomer> = (0..customers)
        .map(|i| TransformedCustomer {
            customer_id: i as u64 + 1,
            elements: (0..len)
                .map(|t| {
                    let mut e = vec![rnd(universe)];
                    if hot_every > 0 && t % hot_every == 0 && e[0] != 0 {
                        e.push(0);
                        e.sort_unstable();
                    }
                    e
                })
                .collect(),
        })
        .collect();
    TransformedDatabase {
        total_customers: customers.len(),
        customers,
        table,
    }
}

fn bench_vertical_count(c: &mut Criterion) {
    // End-to-end vertical support counting over occurrence-list joins:
    // 512 customers of 40 transactions, 3-sequence candidates over a
    // 48-id alphabet — the merge-join inner loop dominates.
    let universe = 48u32;
    let tdb = vertical_tdb(512, 40, universe, 0);
    let mut rnd = pseudo_random(53);
    let mut candidates: Vec<Vec<u32>> = (0..256)
        .map(|_| (0..3).map(|_| rnd(universe)).collect())
        .collect();
    candidates.sort();
    candidates.dedup();
    let candidates = CandidateArena::from_rows(3, candidates.iter().map(|c| c.as_slice()));
    let mut state = VerticalState::build(&tdb, VerticalParams::default());
    c.bench_function("vertical_count/512x40/~250cands", |b| {
        b.iter(|| state.count(black_box(&candidates), 1))
    });

    // Skewed cell: id 0 occurs in every second transaction of every
    // customer, so its occurrence list dwarfs every prefix list — the
    // galloping-join regime.
    let tdb = vertical_tdb(512, 40, universe, 2);
    let mut rnd = pseudo_random(59);
    let mut skewed: Vec<Vec<u32>> = (0..128)
        .map(|_| vec![1 + rnd(universe - 1), 1 + rnd(universe - 1), 0])
        .collect();
    skewed.sort();
    skewed.dedup();
    let skewed = CandidateArena::from_rows(3, skewed.iter().map(|c| c.as_slice()));
    let mut state = VerticalState::build(&tdb, VerticalParams::default());
    c.bench_function("vertical_count/512x40/skewed_hot_id", |b| {
        b.iter(|| state.count(black_box(&skewed), 1))
    });
}

fn bench_bitmap_count(c: &mut Criterion) {
    // End-to-end bitmap support counting: 256 customers of 96 transactions
    // (two-word spans) against 3-sequence candidates over a 32-id alphabet.
    let universe = 32u32;
    let mut rnd = pseudo_random(43);
    let customers: Vec<TransformedCustomer> = (0..256)
        .map(|i| TransformedCustomer {
            customer_id: i as u64 + 1,
            elements: (0..96).map(|_| vec![rnd(universe)]).collect(),
        })
        .collect();
    let table = LitemsetTable::new(
        (0..universe)
            .map(|i| (Itemset::new(vec![i + 1]), 1))
            .collect(),
    );
    let tdb = TransformedDatabase {
        total_customers: customers.len(),
        customers,
        table,
    };
    let mut candidates: Vec<Vec<u32>> = (0..256)
        .map(|_| (0..3).map(|_| rnd(universe)).collect())
        .collect();
    candidates.sort();
    candidates.dedup();
    let candidates = CandidateArena::from_rows(3, candidates.iter().map(|c| c.as_slice()));
    let mut state = BitmapState::build(&tdb);
    c.bench_function("bitmap_count/256x96/~250cands", |b| {
        b.iter(|| state.count(black_box(&candidates), 1))
    });
}

criterion_group!(
    kernels,
    bench_sequence_contains,
    bench_id_subsequence,
    bench_customer_contains,
    bench_sequence_hash_tree,
    bench_candidate_generation,
    bench_itemset_hash_tree,
    bench_sstep,
    bench_sstep_and_extension,
    bench_bitmap_lanes,
    bench_vertical_count,
    bench_bitmap_count
);
criterion_main!(kernels);
