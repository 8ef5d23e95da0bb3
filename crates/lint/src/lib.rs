//! `seqpat-lint` — the workspace's own static-analysis gate.
//!
//! A dependency-free static analyzer with one front end: a hand-rolled
//! lexer feeds a recursive-descent item parser, once per file, and every
//! later stage reads the parsed file. Per file, the parser's facts drive
//! the cast and RNG rules, the suppression scanner reads its comment
//! tokens, and a dataflow pass walks its fns. Across files, the parsed
//! workspace forms a symbol table and call graph; an SCC-condensed
//! fixpoint infers a per-fn effect set (panics, allocates, does-io,
//! wall-clock, spawns, locks) that drives the semantic rules (panic
//! reachability from kernel code, kernel purity for I/O / wall-clock /
//! thread spawns, hot-loop allocation discipline, exhaustive strategy
//! dispatch, stale-suppression hygiene). A determinism stage audits the
//! parallel paths: closure-capture analysis over fan-out sites
//! (`shared-mutable-capture-in-parallel`), a reducer audit
//! (`order-sensitive-reduction`), and intraprocedural taint tracking from
//! hash-iteration order to output sinks (`nondeterministic-iteration-flow`),
//! rendered into the `determinism.json` artifact. The rules enforce the
//! invariants the equivalence suites rely on: panic-free, clock-free and
//! cast-checked counting kernels, bit-identical parallel reductions,
//! randomness confined to datagen, and full `MiningStats` coverage in the
//! CLI. See DESIGN.md §"Correctness tooling" for the contracts and
//! `rules::RULES` for the registry.

pub mod callgraph;
pub mod dataflow;
pub mod determinism;
pub mod effects;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;
