//! The seqpat lint rule registry, the path predicates that scope the
//! rules, and the per-file rules over parser facts.
//!
//! Every rule reads [`crate::parser::ParsedFile`]s: the per-file rules here
//! (lossy casts in kernel files, RNG construction outside datagen, and the
//! cross-file `MiningStats` coverage check) read fact lists and tokens the
//! one parse collected; the workspace rules live in `semantic`, `effects`,
//! `dataflow`, and `determinism`. The registry below covers every tier.
//! Anything a rule gets wrong can be silenced at the site with an
//! allow-comment naming the rule (see `engine` for the grammar).

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::parser::ParsedFile;

/// Rule: no bare `as <integer>` casts in kernel files.
pub const NO_LOSSY_CASTS_IN_KERNELS: &str = "no-lossy-casts-in-kernels";
/// Rule: every public `MiningStats` field is surfaced by the CLI printer.
pub const STATS_COVERAGE: &str = "stats-coverage";
/// Meta rule reported for malformed/unjustified suppression comments.
pub const SUPPRESSION: &str = "suppression";
/// Rule: no panic construct in a kernel fn or in any fn reachable from one
/// through the workspace call graph, and no slice indexing in a kernel fn
/// that states no `debug_assert!` invariant.
pub const TRANSITIVE_PANIC_REACHABILITY: &str = "transitive-panic-reachability";
/// Rule: no allocation in the innermost loop of a kernel fn.
pub const NO_ALLOC_IN_HOT_LOOP: &str = "no-alloc-in-hot-loop";
/// Rule: `match` on the strategy/parallelism/algorithm enums must name
/// every variant (no catch-all arm).
pub const EXHAUSTIVE_STRATEGY_MATCH: &str = "exhaustive-strategy-match";
/// Rule: no file/stdio I/O reachable from a compute-kernel fn (effect
/// query; the I/O plumbing files are the sanctioned zone).
pub const NO_IO_IN_KERNELS: &str = "no-io-in-kernels";
/// Rule: no wall-clock read reachable from a kernel fn (effect query).
pub const NO_WALL_CLOCK_IN_KERNELS: &str = "no-wall-clock-in-kernels";
/// Rule: no thread spawn reachable from a kernel fn — kernels are leaf
/// compute; fan-out is owned by one justified-suppressed site.
pub const NO_SPAWN_IN_KERNELS: &str = "no-spawn-in-kernels";
/// Meta rule: an allow-comment whose rule no longer fires on the covered
/// line(s) must be deleted.
pub const STALE_SUPPRESSION: &str = "stale-suppression";
/// Rule: a closure handed to a parallel fan-out (`thread::scope`/`spawn`/
/// `map_chunks`) must not capture `&mut` state or interior-mutable shared
/// state — racing writers make chunk results timing-dependent.
pub const SHARED_MUTABLE_CAPTURE: &str = "shared-mutable-capture-in-parallel";
/// Rule: partial-merge fns (merge*/combine*/reduce*/*_partials) must combine
/// chunk results with associative + commutative ops only.
pub const ORDER_SENSITIVE_REDUCTION: &str = "order-sensitive-reduction";
/// Rule: hash-container iteration order must not flow to an order-sensitive
/// sink without normalization (the dataflow successor of the retired lexical
/// `deterministic-iteration` heuristic).
pub const NONDET_ITERATION_FLOW: &str = "nondeterministic-iteration-flow";
/// Rule: RNG construction (thread_rng/from_entropy/OsRng/seed_from_u64/…)
/// is confined to datagen, bench, the rand shims, and tests.
pub const UNSEEDED_RANDOMNESS: &str = "unseeded-randomness-outside-datagen";

/// How a rule's findings gate the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Findings fail the run (and CI).
    Deny,
    /// Findings are reported but do not fail the run.
    Warn,
}

impl Severity {
    /// Lowercase name, as printed by `--list-rules` and the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }

    /// The SARIF `level` for this severity.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Deny => "error",
            Severity::Warn => "warning",
        }
    }
}

/// Where a rule runs: over one parsed file, or over the whole parsed
/// workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Per-file: the parser's facts and tokens of one file.
    File,
    /// Workspace-wide: call graph, effect table, or a cross-file check.
    Semantic,
    /// About the lint comments themselves.
    Meta,
}

impl Tier {
    /// Lowercase name, as printed by `--list-rules`.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::File => "file",
            Tier::Semantic => "semantic",
            Tier::Meta => "meta",
        }
    }
}

/// Registry entry for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name (one of the constants above).
    pub name: &'static str,
    /// Whether findings fail the run.
    pub severity: Severity,
    /// Which analysis layer produces the findings.
    pub tier: Tier,
    /// Whether an allow-comment may silence the rule. Meta rules are not
    /// suppressible: a suppression cannot vouch for itself.
    pub suppressible: bool,
    /// One-line description for `--list-rules` and SARIF.
    pub desc: &'static str,
}

/// Every rule, in `--list-rules` order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: NO_LOSSY_CASTS_IN_KERNELS,
        severity: Severity::Deny,
        tier: Tier::File,
        suppressible: true,
        desc: "kernel files must use the cast helpers (cast::idx/w64/id32) or \
               try_into instead of bare `as <integer>` casts",
    },
    RuleInfo {
        name: STATS_COVERAGE,
        severity: Severity::Deny,
        tier: Tier::Semantic,
        suppressible: true,
        desc: "every public MiningStats field must be referenced by the CLI \
               --stats printer",
    },
    RuleInfo {
        name: TRANSITIVE_PANIC_REACHABILITY,
        severity: Severity::Deny,
        tier: Tier::Semantic,
        suppressible: true,
        desc: "no unwrap()/expect()/panic-family macro in a kernel fn or any fn \
               it reaches through the workspace call graph, and no slice \
               indexing in a kernel fn without a debug_assert! invariant",
    },
    RuleInfo {
        name: NO_ALLOC_IN_HOT_LOOP,
        severity: Severity::Warn,
        tier: Tier::Semantic,
        suppressible: true,
        desc: "no Vec::new/push/collect/to_vec/clone/format! in the innermost \
               loop (or per-element closure) of a kernel fn",
    },
    RuleInfo {
        name: EXHAUSTIVE_STRATEGY_MATCH,
        severity: Severity::Deny,
        tier: Tier::Semantic,
        suppressible: true,
        desc: "match on CountingStrategy/Parallelism/Algorithm must name every \
               variant — no `_` or binding catch-all arm",
    },
    RuleInfo {
        name: NO_IO_IN_KERNELS,
        severity: Severity::Deny,
        tier: Tier::Semantic,
        suppressible: true,
        desc: "no file/stdio I/O effect reachable from a compute-kernel fn \
               through the call graph (crates/io, the CLI, and format.rs are \
               the sanctioned zone)",
    },
    RuleInfo {
        name: NO_WALL_CLOCK_IN_KERNELS,
        severity: Severity::Deny,
        tier: Tier::Semantic,
        suppressible: true,
        desc: "no Instant/SystemTime/elapsed effect reachable from a kernel fn \
               through the call graph",
    },
    RuleInfo {
        name: NO_SPAWN_IN_KERNELS,
        severity: Severity::Deny,
        tier: Tier::Semantic,
        suppressible: true,
        desc: "no thread-spawn effect reachable from a kernel fn — kernels are \
               leaf compute; fan-out belongs to the one suppressed map_chunks \
               site",
    },
    RuleInfo {
        name: SHARED_MUTABLE_CAPTURE,
        severity: Severity::Deny,
        tier: Tier::File,
        suppressible: true,
        desc: "closures handed to thread::scope/spawn/map_chunks must not \
               capture &mut or interior-mutable (Mutex/RefCell/Atomic*) shared \
               state",
    },
    RuleInfo {
        name: ORDER_SENSITIVE_REDUCTION,
        severity: Severity::Deny,
        tier: Tier::File,
        suppressible: true,
        desc: "partial-merge fns (merge*/combine*/reduce*/*_partials) must \
               combine chunk results associatively and commutatively — no \
               -=//=/%=, no float +=/*=",
    },
    RuleInfo {
        name: NONDET_ITERATION_FLOW,
        severity: Severity::Deny,
        tier: Tier::File,
        suppressible: true,
        desc: "hash-container iteration order must not reach an output, a \
               format!, a float accumulator, or a general fold without a sort \
               or order-insensitive reduction on the way",
    },
    RuleInfo {
        name: UNSEEDED_RANDOMNESS,
        severity: Severity::Deny,
        tier: Tier::File,
        suppressible: true,
        desc: "RNG construction (thread_rng/from_entropy/OsRng/seed_from_u64) \
               is confined to crates/datagen, crates/bench, the rand/proptest \
               shims, and test code",
    },
    RuleInfo {
        name: STALE_SUPPRESSION,
        severity: Severity::Deny,
        tier: Tier::Meta,
        suppressible: false,
        desc: "an allow() comment whose rule no longer fires on the covered \
               line(s) must be removed",
    },
    RuleInfo {
        name: SUPPRESSION,
        severity: Severity::Deny,
        tier: Tier::Meta,
        suppressible: false,
        desc: "allow() comments must be well-formed, name known suppressible \
               rules, and carry a justification",
    },
];

/// Registry entry for `name`, if it is a rule.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// True if `name` is any rule name (suppressible or not).
pub fn is_known_rule(name: &str) -> bool {
    rule_info(name).is_some()
}

/// Severity of a rule, defaulting to deny for unknown names (there are
/// none, but the total function keeps call sites simple).
pub fn severity_of(name: &str) -> Severity {
    rule_info(name).map_or(Severity::Deny, |r| r.severity)
}

/// Parses a `--rules` comma list into rule names, rejecting unknown names
/// with an error that lists the registry (instead of silently filtering
/// every finding away).
pub fn parse_rule_filter(list: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if !is_known_rule(name) {
            let known: Vec<&str> = RULES.iter().map(|r| r.name).collect();
            return Err(format!(
                "unknown rule `{name}`; known rules: {}",
                known.join(", ")
            ));
        }
        out.push(name.to_string());
    }
    if out.is_empty() {
        return Err("empty --rules filter; pass a comma-separated rule list".to_string());
    }
    Ok(out)
}

/// One lint finding, attributed to a workspace-relative path and line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of the constants above).
    pub rule: &'static str,
    /// Human-readable explanation of the finding.
    pub message: String,
    /// Minimal witness chain for effect-query findings (`--explain`), e.g.
    /// `"count_pass -> helper -> deep"`. `None` when a finding has no chain.
    pub chain: Option<String>,
}

/// Basenames of the counting-kernel files, where the kernel rules apply.
/// `trie.rs` and `lookup.rs` are the serve layer's index builder and query
/// hot path (`crates/serve`), held to the same discipline; `readat.rs` is
/// the positioned-read shim on the shard hot path.
const KERNEL_BASENAMES: &[&str] = &[
    "counting.rs",
    "vertical.rs",
    "bitmap.rs",
    "arena.rs",
    "hash_tree.rs",
    "contain.rs",
    "dataset.rs",
    "colstore.rs",
    "trie.rs",
    "lookup.rs",
    "readat.rs",
];

/// Path suffixes of kernel files matched by full suffix rather than
/// basename, so an unrelated `stream.rs` elsewhere never inherits kernel
/// discipline by name collision.
const KERNEL_PATH_SUFFIXES: &[&str] = &["io/src/stream.rs"];

/// Basenames/suffixes of the kernel files that ARE the I/O layer: they obey
/// every kernel rule except `no-io-in-kernels`, whose sanctioned zone they
/// define (positioned shard reads are their entire purpose).
const IO_PLUMBING_BASENAMES: &[&str] = &["colstore.rs", "readat.rs"];

/// Hash-container type names (order of iteration is nondeterministic).
/// Shared with the `dataflow` taint analysis.
pub(crate) const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

fn basename(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// True for the counting-kernel files (by basename or path suffix).
pub fn is_kernel_path(path: &str) -> bool {
    KERNEL_BASENAMES.contains(&basename(path))
        || KERNEL_PATH_SUFFIXES.iter().any(|s| path.ends_with(s))
}

/// True for the kernel files that are themselves the I/O layer (colstore,
/// readat, the streaming colstore builder).
pub fn is_io_plumbing_path(path: &str) -> bool {
    IO_PLUMBING_BASENAMES.contains(&basename(path))
        || KERNEL_PATH_SUFFIXES.iter().any(|s| path.ends_with(s))
}

/// True for the compute kernels: kernel files minus the I/O plumbing. These
/// are the entry points of the `no-io-in-kernels` effect query.
pub fn is_compute_kernel_path(path: &str) -> bool {
    is_kernel_path(path) && !is_io_plumbing_path(path)
}

/// Sanctioned zone of the `DoesIo` effect: intrinsic I/O sites in these
/// files are expected (the I/O layer, the CLI/bench front ends, datagen's
/// writers, and the serializers). A kernel may still not *reach* them —
/// that is the boundary finding — but the sites themselves are not flagged.
pub fn is_io_sanctioned_path(path: &str) -> bool {
    path.starts_with("crates/io/")
        || path.starts_with("crates/cli/")
        || path.starts_with("crates/bench/")
        || path.starts_with("crates/datagen/")
        || basename(path) == "format.rs"
}

/// Sanctioned zone of the `WallClock` effect: the stats layer, the bench
/// and CLI front ends, and the criterion shim.
pub fn is_clock_sanctioned_path(path: &str) -> bool {
    basename(path) == "stats.rs"
        || path.starts_with("crates/bench/")
        || path.starts_with("crates/cli/")
        || path.starts_with("crates/criterion-compat/")
}

/// Paths whose whole contents are test code: integration-test trees and the
/// property-test module kept in its own file.
pub fn is_test_path(path: &str) -> bool {
    path.contains("/tests/") || path.starts_with("tests/") || basename(path) == "proptests.rs"
}

/// Sanctioned zone of RNG construction: the synthetic-data generator, the
/// bench harness, and the rand/proptest shims (which *define* the
/// constructor names as trait methods).
pub fn is_random_sanctioned_path(path: &str) -> bool {
    path.starts_with("crates/datagen/")
        || path.starts_with("crates/bench/")
        || path.starts_with("crates/rand-compat/")
        || path.starts_with("crates/proptest-compat/")
}

/// Crates no product crate depends on: the linter itself and the vendored
/// test/bench shims (criterion/proptest API look-alikes). Their method
/// names deliberately collide with std and external APIs (`iter`, `get`,
/// `push`, …), so name-based resolution *into* them from another crate is
/// always spurious — a `.iter()` in `crates/core` cannot land in a crate
/// core does not link against. Calls within the same crate resolve
/// normally.
const SELF_CONTAINED_CRATES: &[&str] = &[
    "crates/lint/",
    "crates/criterion-compat/",
    "crates/proptest-compat/",
];

/// The self-contained-crate prefix of `path`, if any.
pub fn self_contained_crate(path: &str) -> Option<&'static str> {
    SELF_CONTAINED_CRATES
        .iter()
        .find(|p| path.starts_with(**p))
        .copied()
}

/// The per-file rules over one parsed file's facts:
/// `no-lossy-casts-in-kernels` and `unseeded-randomness-outside-datagen`.
pub fn file_rules(file: &ParsedFile) -> Vec<Violation> {
    let kernel = is_kernel_path(&file.path);
    let random_ok = is_random_sanctioned_path(&file.path);
    let mut found: Vec<(&'static str, u32, String)> = Vec::new();
    for sites in file.fns.iter().map(|f| &f.sites).chain([&file.loose]) {
        if kernel {
            for c in &sites.casts {
                found.push((
                    NO_LOSSY_CASTS_IN_KERNELS,
                    c.line,
                    format!(
                        "bare `as {}` cast in a kernel file; use the cast helpers \
                         (cast::idx / cast::w64 / cast::id32) or `try_into`",
                        c.what
                    ),
                ));
            }
        }
        if !random_ok {
            for r in &sites.rngs {
                found.push((
                    UNSEEDED_RANDOMNESS,
                    r.line,
                    format!(
                        "`{}` constructs randomness outside the sanctioned zone \
                         (crates/datagen, crates/bench, the rand/proptest shims, tests); \
                         product output must be a function of the input data",
                        r.what
                    ),
                ));
            }
        }
    }
    found
        .into_iter()
        .map(|(rule, line, message)| Violation {
            path: file.path.clone(),
            line,
            rule,
            message,
            chain: None,
        })
        .collect()
}

/// Rule: stats-coverage. Reads the public fields of `MiningStats` out of
/// `stats` (core's stats.rs) and requires each field ident to appear
/// somewhere in `cli` (the CLI, which owns the `--stats` printer).
pub fn stats_coverage(stats: &ParsedFile, cli: &ParsedFile) -> Vec<Violation> {
    let cli_idents: BTreeSet<&str> = cli
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text(&cli.src))
        .collect();
    mining_stats_fields(stats)
        .into_iter()
        .filter(|(name, _)| !cli_idents.contains(name))
        .map(|(name, line)| Violation {
            path: stats.path.clone(),
            line,
            rule: STATS_COVERAGE,
            message: format!(
                "public MiningStats field `{name}` is never referenced by the CLI; \
                 surface it in the --stats printer"
            ),
            chain: None,
        })
        .collect()
}

/// `(name, line)` of each `pub` field of `struct MiningStats` in `file`.
fn mining_stats_fields(file: &ParsedFile) -> Vec<(&str, u32)> {
    let txt = |i: usize| file.txt(i);
    let mut fields = Vec::new();
    let Some(i) = (0..file.code.len())
        .find(|&i| txt(i) == "struct" && txt(i + 1) == "MiningStats" && txt(i + 2) == "{")
    else {
        return fields;
    };
    let mut depth: u32 = 1;
    let mut j = i + 3;
    while j < file.code.len() && depth > 0 {
        match txt(j) {
            "{" => depth += 1,
            "}" => depth -= 1,
            "pub"
                if depth == 1
                    && file.kind(j + 1) == Some(TokenKind::Ident)
                    && txt(j + 2) == ":"
                    && txt(j + 3) != ":" =>
            {
                fields.push((txt(j + 1), file.line(j + 1)));
            }
            _ => {}
        }
        j += 1;
    }
    fields
}
