//! The sequence phase (paper §4): the three mining algorithms.
//!
//! All three operate on the transformed database, where a *k-sequence* is a
//! vector of `k` litemset ids, and produce large id-sequences:
//!
//! * [`apriori_all()`] counts **every** large sequence length by length — the
//!   baseline the paper measures the others against.
//! * [`apriori_some()`] counts only *some* lengths going forward (skipping
//!   ahead by the [`next`] heuristic) and picks up skipped lengths going
//!   backward, where candidates contained in an already-found longer large
//!   sequence need no counting at all — a win when most large sequences are
//!   non-maximal.
//! * [`dynamic_some()`] jumps in fixed `step`s and generates the jumped-to
//!   candidates **on the fly** from pairs of known large sequences while
//!   scanning each customer ([`otf`]). Every pair is a candidate, the flood
//!   the paper measured at low support; the join on endpoints counts them
//!   without a test per pair.
//!
//! The algorithms return *supersets of the maximal large sequences* (for
//! AprioriAll, the complete large set); the maximal phase finishes the job.

pub mod apriori_all;
pub mod apriori_some;
pub mod backward;
pub mod candidate;
pub mod dynamic_some;
pub mod next;
pub mod otf;

#[cfg(test)]
mod proptests;

pub use apriori_all::apriori_all;
pub use apriori_some::apriori_some;
pub use dynamic_some::dynamic_some;

/// Which sequence-phase algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Count all lengths (paper §4.1).
    AprioriAll,
    /// Skip lengths forward, fill in backward (paper §4.2).
    AprioriSome,
    /// Jump by `step` with on-the-fly candidate generation (paper §4.3).
    DynamicSome {
        /// Jump width; the paper's experiments use 2 or 3.
        step: usize,
    },
}

impl Algorithm {
    /// Short human-readable name used by the harness and CLI.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::AprioriAll => "apriori-all",
            Algorithm::AprioriSome => "apriori-some",
            Algorithm::DynamicSome { .. } => "dynamic-some",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::DynamicSome { step } => write!(f, "dynamic-some(step={step})"),
            Algorithm::AprioriAll | Algorithm::AprioriSome => f.write_str(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_display() {
        assert_eq!(Algorithm::AprioriAll.name(), "apriori-all");
        assert_eq!(Algorithm::AprioriSome.to_string(), "apriori-some");
        assert_eq!(
            Algorithm::DynamicSome { step: 3 }.to_string(),
            "dynamic-some(step=3)"
        );
    }
}
