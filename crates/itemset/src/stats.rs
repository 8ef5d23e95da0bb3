//! Phase timing for the mining pipelines.
//!
//! All wall-clock reads in the mining code go through [`Stopwatch`]: this
//! file is the wall-clock effect's sanctioned zone in seqpat-lint, and
//! `no-wall-clock-in-kernels` reports any kernel that reaches a clock read,
//! through this layer or not. Timing lives here (and in the bench/CLI
//! crates), never inside kernels.

use std::time::{Duration, Instant};

/// A started wall-clock timer. The only sanctioned way for mining code to
/// measure phase durations.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }
}
