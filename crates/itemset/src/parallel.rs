//! Deterministic multi-core execution for customer-sharded counting.
//!
//! Support is counted per customer, each customer at most once, so every
//! counting loop in the workspace is embarrassingly parallel across
//! customers. This module provides the two pieces the counters need:
//!
//! * [`Parallelism`] — the user-facing knob (serial, explicit thread
//!   count, or auto-detect), carried on `AprioriConfig` and
//!   `MinerConfig`;
//! * [`map_chunks`] — scoped-thread map over contiguous slice chunks with
//!   results returned **in chunk order**, so reductions are deterministic
//!   and parallel runs produce bit-identical outputs to serial runs.
//!
//! Zero dependencies: built on `std::thread::scope`, which keeps the
//! workspace reproducible offline and lets threads borrow the shared
//! read-only inputs (candidate lists, hash trees) without `Arc`.

use std::num::NonZeroUsize;

/// How many threads counting loops may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded, no scoped threads spawned at all.
    Serial,
    /// Exactly this many worker threads (capped at the number of
    /// customers; chunks are contiguous customer ranges).
    Threads(NonZeroUsize),
    /// One thread per available core, via
    /// [`std::thread::available_parallelism`]. Falls back to serial when
    /// the hardware cannot be queried.
    #[default]
    Auto,
}

impl Parallelism {
    /// Convenience constructor; `threads == 0` means [`Parallelism::Auto`],
    /// `1` means [`Parallelism::Serial`].
    pub fn threads(threads: usize) -> Self {
        match NonZeroUsize::new(threads) {
            None => Parallelism::Auto,
            Some(n) if n.get() == 1 => Parallelism::Serial,
            Some(n) => Parallelism::Threads(n),
        }
    }

    /// The concrete worker count this configuration resolves to.
    pub fn resolved_threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.get(),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Serial => write!(f, "serial"),
            Parallelism::Threads(n) => write!(f, "{n}"),
            Parallelism::Auto => write!(f, "auto"),
        }
    }
}

/// Runs `map` over contiguous chunks of `items`, one chunk per worker, and
/// returns the per-chunk results **in chunk order**.
///
/// The chunking is a pure function of `items.len()` and `threads`
/// (`ceil(len / workers)` items per chunk, workers capped at `len`), and
/// results are collected by joining workers in spawn order — never in
/// completion order — so any fold over the returned vector is
/// deterministic regardless of OS scheduling. With `threads <= 1`, or too
/// few items to split, `map` runs on the calling thread and no threads
/// are spawned.
pub fn map_chunks<T, R, M>(items: &[T], threads: usize, map: M) -> Vec<R>
where
    T: Sync,
    R: Send,
    M: Fn(&[T]) -> R + Sync,
{
    let workers = threads.min(items.len()).max(1);
    let mut results: Vec<Option<R>> = (0..workers).map(|_| None).collect();
    map_chunks_with(items, &mut results, |chunk, slot| *slot = Some(map(chunk)));
    results.into_iter().flatten().collect()
}

/// [`map_chunks`] with one caller-owned scratch value per worker: chunk
/// `i` is mapped with `&mut scratch[i]`, so buffers outlive the call and
/// are reused by the next one (a pass that feeds batch after batch through
/// here allocates its worker buffers once). The chunking is
/// [`map_chunks`]'s, with `scratch.len()` as the thread count; scratch
/// values past the last chunk are left untouched.
pub fn map_chunks_with<T, S, M>(items: &[T], scratch: &mut [S], map: M)
where
    T: Sync,
    S: Send,
    M: Fn(&[T], &mut S) + Sync,
{
    let workers = scratch.len().min(items.len()).max(1);
    let Some(first) = scratch.first_mut() else {
        return;
    };
    if workers == 1 {
        map(items, first);
        return;
    }
    let map = &map;
    // Each chunk paired with its own scratch before any thread starts:
    // every worker moves in exactly one `&mut S`, none is shared.
    let jobs: Vec<(&[T], &mut S)> = items
        .chunks(items.len().div_ceil(workers))
        .zip(scratch.iter_mut())
        .collect();
    std::thread::scope(move |scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            // seqpat-lint: allow(no-spawn-in-kernels) the one sanctioned fan-out point — every kernel parallelizes through it (map_chunks included), and scoped threads join before it returns
            .map(|(chunk, s)| scope.spawn(move || map(chunk, s)))
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Sums equal-length per-chunk count vectors element-wise, consuming them
/// **in iteration order** (pair with [`map_chunks`], whose results arrive
/// in chunk order). Integer `+=` is exact, so the totals are bit-identical
/// to a serial count regardless of how the input was chunked.
///
/// This is the one chunk-merge reducer shared by every counting loop in
/// the workspace (itemset supports, sequence supports, pair matrices,
/// vertical-join partials); side effects — draining a per-chunk test
/// counter, say — belong in the iterator adapter feeding it.
pub fn sum_partials<T, I>(partials: I, len: usize) -> Vec<T>
where
    T: Copy + Default + std::ops::AddAssign,
    I: IntoIterator<Item = Vec<T>>,
{
    let mut totals = vec![T::default(); len];
    for partial in partials {
        debug_assert_eq!(partial.len(), len, "partial length mismatch");
        for (total, v) in totals.iter_mut().zip(partial) {
            *total += v;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution() {
        assert_eq!(Parallelism::Serial.resolved_threads(), 1);
        assert_eq!(
            Parallelism::Threads(NonZeroUsize::new(5).unwrap()).resolved_threads(),
            5
        );
        assert!(Parallelism::Auto.resolved_threads() >= 1);
        assert_eq!(Parallelism::threads(0), Parallelism::Auto);
        assert_eq!(Parallelism::threads(1), Parallelism::Serial);
        assert_eq!(
            Parallelism::threads(3),
            Parallelism::Threads(NonZeroUsize::new(3).unwrap())
        );
    }

    #[test]
    fn chunk_results_arrive_in_order() {
        let items: Vec<u64> = (0..101).collect();
        for threads in [1, 2, 3, 7, 16, 200] {
            let sums = map_chunks(&items, threads, |chunk| chunk.iter().sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), items.iter().sum::<u64>());
            assert!(sums.len() <= threads.min(items.len()));
            // First chunk holds the smallest items — order is positional.
            let firsts = map_chunks(&items, threads, |chunk| chunk[0]);
            let mut sorted = firsts.clone();
            sorted.sort_unstable();
            assert_eq!(firsts, sorted);
        }
    }

    #[test]
    fn sum_partials_is_elementwise_and_order_independent_for_integers() {
        let partials = vec![vec![1u64, 0, 2], vec![0, 5, 1], vec![3, 0, 0]];
        assert_eq!(sum_partials(partials, 3), vec![4, 5, 3]);
        let none: Vec<Vec<u32>> = Vec::new();
        assert_eq!(sum_partials(none, 2), vec![0u32, 0]);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: [u8; 0] = [];
        assert_eq!(map_chunks(&empty, 8, |c| c.len()), vec![0]);
        assert_eq!(map_chunks(&[42u8], 8, |c| c.len()), vec![1]);
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let items: Vec<u32> = (0..997).map(|i| i * 31 % 113).collect();
        let reduce = |threads: usize| -> Vec<u64> {
            let partials = map_chunks(&items, threads, |chunk| {
                let mut hist = vec![0u64; 113];
                for &x in chunk {
                    hist[x as usize] += 1;
                }
                hist
            });
            partials.into_iter().fold(vec![0u64; 113], |mut acc, h| {
                for (a, v) in acc.iter_mut().zip(h) {
                    *a += v;
                }
                acc
            })
        };
        let serial = reduce(1);
        for threads in [2, 3, 7] {
            assert_eq!(reduce(threads), serial);
        }
    }
}
