//! The call-graph / AST driven rules, written as declarative queries
//! against the inferred effect table ([`crate::effects`]).
//!
//! These run over the whole parsed workspace at once (unlike the per-file
//! rules in [`crate::rules`] and [`crate::dataflow`]). The effect-query rules come in two
//! finding shapes, which is what keeps suppression site-granular:
//!
//! * **source-site** findings — an *unsanctioned* intrinsic site (a stray
//!   `println!`, `.elapsed()`, `spawn`) in a fn reachable from the rule's
//!   kernel entry points, reported at the site itself with the minimal
//!   entry→site witness chain;
//! * **boundary** findings — a call from a kernel fn into a callee whose
//!   effect is *purely sanctioned* (e.g. `Stopwatch::start`, whose
//!   `Instant::now()` lives legitimately in stats.rs), reported at the
//!   kernel call line: the sanctioned site is fine where it is, the kernel
//!   reaching it is the violation.
//!
//! The exhaustive-match rule cross-references `match` arms against the
//! workspace's own enum declarations. The meta rule `stale-suppression`
//! lives in the engine because it is defined by what the other rules did
//! (not) do.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::effects::{Effect, EffectTable};
use crate::parser::ParsedFile;
use crate::rules::{self, Violation};

/// Enums whose dispatch sites must stay exhaustive: adding a variant has to
/// fail lint at every `match` until the new case is handled explicitly.
pub const TARGET_ENUMS: &[&str] = &["CountingStrategy", "Parallelism", "Algorithm"];

/// Rule: transitive-panic-reachability.
///
/// An effect query: entry points are all non-test fns defined in kernel
/// files; every intrinsic `Panics` site in a fn reachable from an entry
/// point — the kernel fns themselves included — is flagged with its minimal
/// witness chain. Slice indexing in a kernel fn that states no
/// `debug_assert!` invariant is flagged too: a panic the effect lattice
/// does not model, so it is checked in the kernel fn only. Kernel-file code
/// outside every fn body (a `static` initialiser, an item macro) reaches
/// no call graph; its panic and indexing sites are flagged where they are.
pub fn transitive_panic(
    files: &[ParsedFile],
    graph: &CallGraph,
    fx: &EffectTable,
) -> Vec<Violation> {
    let entries = graph.nodes_where(|fi, _| rules::is_kernel_path(&files[fi].path));
    let parents = graph.reachable_with_parents(&entries);
    let mut out = Vec::new();
    for site in fx.sites.iter().filter(|s| s.effect == Effect::Panics) {
        let Some(&parent) = parents.get(&site.node) else {
            continue;
        };
        let (fi, gi) = graph.nodes[site.node];
        let name = &files[fi].fns[gi].name;
        let chain = graph.chain(files, &parents, site.node);
        let message = if parent == site.node {
            format!(
                "{} in kernel fn `{name}`; use match/if-let or `unwrap_or*`, or \
                 suppress at this site with a justification if the branch is \
                 provably unreachable",
                site.what
            )
        } else {
            format!(
                "{} in `{name}` is reachable from kernel code ({chain}); \
                 restructure, or suppress at this site with a justification",
                site.what
            )
        };
        out.push(Violation {
            path: files[fi].path.clone(),
            line: site.line,
            rule: rules::TRANSITIVE_PANIC_REACHABILITY,
            message,
            chain: Some(chain),
        });
    }
    let indexing = "with no `debug_assert!` stating the bound invariant; add one \
                    (or use `.get()`)";
    for &n in &entries {
        let (fi, gi) = graph.nodes[n];
        let f = &files[fi].fns[gi];
        for &line in &f.sites.indexes {
            out.push(Violation {
                path: files[fi].path.clone(),
                line,
                rule: rules::TRANSITIVE_PANIC_REACHABILITY,
                message: format!("slice indexing in kernel fn `{}` {indexing}", f.name),
                chain: Some(f.name.clone()),
            });
        }
    }
    for file in files.iter().filter(|f| rules::is_kernel_path(&f.path)) {
        let loose = &file.loose;
        let panics = loose.panics.iter().map(|p| {
            let message = format!(
                "{} in kernel-file code outside the call graph; use match/if-let or \
                 `unwrap_or*`, or suppress at this site with a justification",
                p.what
            );
            (p.line, message)
        });
        let indexes = loose.indexes.iter().map(|&line| {
            let message = format!("slice indexing in kernel-file code {indexing}");
            (line, message)
        });
        for (line, message) in panics.chain(indexes) {
            out.push(Violation {
                path: file.path.clone(),
                line,
                rule: rules::TRANSITIVE_PANIC_REACHABILITY,
                message,
                chain: None,
            });
        }
    }
    out
}

/// One effect-purity rule: kernels in `in_scope` must not reach `effect`.
pub struct EffectRule {
    /// Rule name (a `rules::` constant).
    pub rule: &'static str,
    /// The lattice element the rule queries.
    pub effect: Effect,
    /// Human noun for messages, e.g. "I/O".
    pub noun: &'static str,
    /// Which files' fns are the rule's entry points.
    pub in_scope: fn(&str) -> bool,
}

/// The three kernel-purity effect rules.
pub const EFFECT_RULES: &[EffectRule] = &[
    EffectRule {
        rule: rules::NO_IO_IN_KERNELS,
        effect: Effect::DoesIo,
        noun: "I/O",
        in_scope: rules::is_compute_kernel_path,
    },
    EffectRule {
        rule: rules::NO_WALL_CLOCK_IN_KERNELS,
        effect: Effect::WallClock,
        noun: "wall-clock time",
        in_scope: rules::is_kernel_path,
    },
    EffectRule {
        rule: rules::NO_SPAWN_IN_KERNELS,
        effect: Effect::Spawns,
        noun: "thread spawns",
        in_scope: rules::is_kernel_path,
    },
];

/// Rules: no-io-in-kernels / no-wall-clock-in-kernels / no-spawn-in-kernels.
///
/// For each rule: source-site findings at unsanctioned intrinsic sites
/// reachable from the rule's kernel entries, then boundary findings at
/// kernel call sites whose callee carries the effect purely from sanctioned
/// sites (skipped when the same line already got a source-site finding —
/// `watch.elapsed()` is both an intrinsic site and a resolved call).
pub fn effect_purity(files: &[ParsedFile], graph: &CallGraph, fx: &EffectTable) -> Vec<Violation> {
    let mut out = Vec::new();
    for spec in EFFECT_RULES {
        let entries = graph.nodes_where(|fi, _| (spec.in_scope)(&files[fi].path));
        let parents = graph.reachable_with_parents(&entries);
        let mut site_lines: BTreeSet<(usize, u32)> = BTreeSet::new();
        for site in fx
            .sites
            .iter()
            .filter(|s| s.effect == spec.effect && !s.sanctioned)
        {
            if !parents.contains_key(&site.node) {
                continue;
            }
            let (fi, gi) = graph.nodes[site.node];
            let chain = graph.chain(files, &parents, site.node);
            site_lines.insert((fi, site.line));
            out.push(Violation {
                path: files[fi].path.clone(),
                line: site.line,
                rule: spec.rule,
                message: format!(
                    "{} in `{}` is reachable from kernel code ({chain}); kernels \
                     must stay free of {} — restructure, or suppress at this \
                     site with a justification",
                    site.what, files[fi].fns[gi].name, spec.noun
                ),
                chain: Some(chain),
            });
        }
        for &n in &entries {
            let (fi, gi) = graph.nodes[n];
            let f = &files[fi].fns[gi];
            for (ci, c) in f.calls.iter().enumerate() {
                if site_lines.contains(&(fi, c.line)) {
                    continue;
                }
                for &g in graph.resolved_targets(n, ci) {
                    let (gfi, _) = graph.nodes[g];
                    if (spec.in_scope)(&files[gfi].path)
                        || !fx.inferred[g].contains(spec.effect)
                        || fx.inferred_unsanctioned[g].contains(spec.effect)
                    {
                        continue;
                    }
                    let witness = fx
                        .witness(files, graph, g, spec.effect)
                        .unwrap_or_else(|| files[gfi].fns[graph.nodes[g].1].name.clone());
                    let chain = format!("{} -> {witness}", f.name);
                    out.push(Violation {
                        path: files[fi].path.clone(),
                        line: c.line,
                        rule: spec.rule,
                        message: format!(
                            "call to `{}` in kernel fn `{}` reaches {} ({chain}); \
                             restructure, or suppress at this call site with a \
                             justification",
                            c.name, f.name, spec.noun
                        ),
                        chain: Some(chain),
                    });
                    break;
                }
            }
        }
    }
    out
}

/// Rule: no-alloc-in-hot-loop (intraprocedural half).
///
/// Allocation sites whose smallest enclosing loop scope (lexical loop or
/// closure body) is innermost, in non-test fns of kernel files.
pub fn no_alloc_in_hot_loop(files: &[ParsedFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        if !rules::is_kernel_path(&file.path) {
            continue;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            for a in &f.allocs {
                if !a.in_innermost_loop {
                    continue;
                }
                out.push(Violation {
                    path: file.path.clone(),
                    line: a.line,
                    rule: rules::NO_ALLOC_IN_HOT_LOOP,
                    message: format!(
                        "{} in the innermost loop of kernel fn `{}`; hoist into a \
                         reusable scratch buffer, or suppress with a justification",
                        a.what, f.name
                    ),
                    chain: None,
                });
            }
        }
    }
    out
}

/// Rule: no-alloc-in-hot-loop (interprocedural half).
///
/// A path/free-fn call in the innermost loop of a kernel fn whose resolved
/// callee carries the `Allocates` effect fires at the call line. Method
/// calls are exempt: name-based method resolution is too ambiguous to pin
/// an allocation on (`.count()` could be an iterator reduction or a
/// counting-state method), and the intraprocedural half already covers the
/// allocating method names directly.
pub fn alloc_calls_in_hot_loop(
    files: &[ParsedFile],
    graph: &CallGraph,
    fx: &EffectTable,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (n, &(fi, gi)) in graph.nodes.iter().enumerate() {
        if !rules::is_kernel_path(&files[fi].path) {
            continue;
        }
        let f = &files[fi].fns[gi];
        for (ci, c) in f.calls.iter().enumerate() {
            if !c.in_innermost_loop || c.is_method {
                continue;
            }
            for &g in graph.resolved_targets(n, ci) {
                if g == n || !fx.inferred[g].contains(Effect::Allocates) {
                    continue;
                }
                let witness = fx
                    .witness(files, graph, g, Effect::Allocates)
                    .unwrap_or_else(|| files[graph.nodes[g].0].fns[graph.nodes[g].1].name.clone());
                let chain = format!("{} -> {witness}", f.name);
                out.push(Violation {
                    path: files[fi].path.clone(),
                    line: c.line,
                    rule: rules::NO_ALLOC_IN_HOT_LOOP,
                    message: format!(
                        "`{}()` called in the innermost loop of kernel fn `{}` may \
                         allocate ({chain}); hoist the call or its buffers, or \
                         suppress with a justification",
                        c.name, f.name
                    ),
                    chain: Some(chain),
                });
                break;
            }
        }
    }
    out
}

/// Rule: exhaustive-strategy-match.
///
/// A `match` is *targeted* when any arm pattern's leading path starts with
/// one of [`TARGET_ENUMS`] (or `Self` inside an impl of one). A targeted
/// match must name every variant of that enum and must not have a
/// wildcard/binding catch-all arm.
pub fn exhaustive_strategy_match(files: &[ParsedFile]) -> Vec<Violation> {
    // Variant lists come from the workspace's own enum declarations, so the
    // rule stays self-contained (fixtures declare their own mini-enums).
    let mut variants: BTreeMap<&str, &[String]> = BTreeMap::new();
    for file in files {
        for e in &file.enums {
            if TARGET_ENUMS.contains(&e.name.as_str()) {
                variants.insert(e.name.as_str(), &e.variants);
            }
        }
    }
    let mut out = Vec::new();
    for file in files {
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            for m in &f.matches {
                let target = m.arms.iter().find_map(|arm| {
                    let h0 = arm.head.first()?;
                    if arm.head.len() < 2 {
                        return None;
                    }
                    if variants.contains_key(h0.as_str()) {
                        return Some(h0.as_str());
                    }
                    if h0 == "Self" {
                        let it = f.impl_type.as_deref()?;
                        if variants.contains_key(it) {
                            return Some(it);
                        }
                    }
                    None
                });
                let Some(enum_name) = target else { continue };
                let vars = variants[enum_name];
                let named: BTreeSet<&str> = m
                    .arms
                    .iter()
                    .filter(|arm| {
                        arm.head.len() >= 2 && (arm.head[0] == enum_name || arm.head[0] == "Self")
                    })
                    .map(|arm| arm.head[1].as_str())
                    .collect();
                if let Some(wild) = m.arms.iter().find(|a| a.wildcard) {
                    out.push(Violation {
                        path: file.path.clone(),
                        line: wild.line.max(m.line),
                        rule: rules::EXHAUSTIVE_STRATEGY_MATCH,
                        message: format!(
                            "match on `{enum_name}` in `{}` has a catch-all arm; name \
                             every variant so adding one fails lint at this dispatch site",
                            f.name
                        ),
                        chain: None,
                    });
                    continue;
                }
                let missing: Vec<&str> = vars
                    .iter()
                    .map(String::as_str)
                    .filter(|v| !named.contains(v))
                    .collect();
                if !missing.is_empty() {
                    out.push(Violation {
                        path: file.path.clone(),
                        line: m.line,
                        rule: rules::EXHAUSTIVE_STRATEGY_MATCH,
                        message: format!(
                            "match on `{enum_name}` in `{}` does not name variant(s) {}; \
                             handle them explicitly",
                            f.name,
                            missing
                                .iter()
                                .map(|v| format!("`{v}`"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                        chain: None,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects;
    use crate::parser::parse_file;

    fn parsed(sources: &[(&str, &str)]) -> Vec<ParsedFile> {
        sources.iter().map(|(p, s)| parse_file(p, s)).collect()
    }

    fn analyzed(sources: &[(&str, &str)]) -> (Vec<ParsedFile>, CallGraph, EffectTable) {
        let files = parsed(sources);
        let g = CallGraph::build(&files);
        let fx = effects::infer(&files, &g);
        (files, g, fx)
    }

    #[test]
    fn transitive_chain_is_caught_and_kernel_sites_are_reported_once() {
        let (files, g, fx) = analyzed(&[
            (
                "crates/core/src/counting.rs",
                "pub fn count_supports() { helper(); local.unwrap(); }\n",
            ),
            (
                "crates/core/src/helpers.rs",
                "pub fn helper() { x.unwrap(); }\n",
            ),
        ]);
        let v = transitive_panic(&files, &g, &fx);
        assert_eq!(v.len(), 2, "{v:?}");
        let kernel = v
            .iter()
            .find(|v| v.path == "crates/core/src/counting.rs")
            .unwrap();
        assert!(kernel.message.contains("kernel fn `count_supports`"));
        assert_eq!(kernel.chain.as_deref(), Some("count_supports"));
        let helper = v
            .iter()
            .find(|v| v.path == "crates/core/src/helpers.rs")
            .unwrap();
        assert!(helper.message.contains("count_supports -> helper"));
        assert_eq!(helper.chain.as_deref(), Some("count_supports -> helper"));
    }

    #[test]
    fn unreachable_panics_are_not_flagged() {
        let (files, g, fx) = analyzed(&[
            (
                "crates/core/src/counting.rs",
                "pub fn count_supports() {}\n",
            ),
            (
                "crates/core/src/misc.rs",
                "pub fn island() { x.unwrap(); }\n",
            ),
        ]);
        assert!(transitive_panic(&files, &g, &fx).is_empty());
    }

    #[test]
    fn unguarded_kernel_indexing_fires_and_a_debug_assert_guards_it() {
        let (files, g, fx) = analyzed(&[
            (
                "crates/core/src/counting.rs",
                "pub fn bare(v: &[u32], i: usize) -> u32 { v[i] }\n\
                 pub fn guarded(v: &[u32], i: usize) -> u32 {\n\
                 debug_assert!(i < v.len());\n\
                 v[i]\n\
                 }\n",
            ),
            (
                "crates/core/src/misc.rs",
                "pub fn plain(v: &[u32]) -> u32 { v[0] }\n",
            ),
        ]);
        let v = transitive_panic(&files, &g, &fx);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("slice indexing in kernel fn `bare`"));
    }

    #[test]
    fn io_source_site_fires_with_a_witness_chain() {
        let (files, g, fx) = analyzed(&[
            (
                "crates/core/src/counting.rs",
                "pub fn count_pass() { helper(); }\n",
            ),
            (
                "crates/core/src/helpers.rs",
                "pub fn helper() { println!(\"dbg\"); }\n",
            ),
        ]);
        let v = effect_purity(&files, &g, &fx);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, rules::NO_IO_IN_KERNELS);
        assert_eq!(v[0].path, "crates/core/src/helpers.rs");
        assert_eq!(v[0].chain.as_deref(), Some("count_pass -> helper"));
    }

    #[test]
    fn sanctioned_callee_yields_a_boundary_finding_at_the_kernel_line() {
        let (files, g, fx) = analyzed(&[
            (
                "crates/core/src/vertical.rs",
                "pub fn build_slice() {\n    Stopwatch::start();\n}\n",
            ),
            (
                "crates/itemset/src/stats.rs",
                "impl Stopwatch { pub fn start() -> Stopwatch { Instant::now(); Stopwatch } }\n",
            ),
        ]);
        let v = effect_purity(&files, &g, &fx);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, rules::NO_WALL_CLOCK_IN_KERNELS);
        // Reported at the kernel's call line, not inside stats.rs.
        assert_eq!(v[0].path, "crates/core/src/vertical.rs");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("Instant"), "{}", v[0].message);
    }

    #[test]
    fn io_plumbing_is_exempt_from_the_io_rule_but_not_its_callers() {
        let (files, g, fx) = analyzed(&[
            (
                "crates/io/src/readat.rs",
                "pub fn read_block() { std::fs::read(\"x\"); }\n",
            ),
            (
                "crates/core/src/counting.rs",
                "pub fn count_sharded() { read_block(); }\n",
            ),
        ]);
        let v = effect_purity(&files, &g, &fx);
        // readat.rs's own fs::read is sanctioned (no source-site finding);
        // the compute kernel calling into it is the boundary violation.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, rules::NO_IO_IN_KERNELS);
        assert_eq!(v[0].path, "crates/core/src/counting.rs");
    }

    #[test]
    fn spawn_fires_once_at_the_source_site_for_all_kernel_callers() {
        let (files, g, fx) = analyzed(&[
            (
                "crates/core/src/counting.rs",
                "pub fn count_a() { map_chunks(); }\npub fn count_b() { map_chunks(); }\n",
            ),
            (
                "crates/itemset/src/parallel.rs",
                "pub fn map_chunks() { scope.spawn(|| {});\n}\n",
            ),
        ]);
        let v: Vec<_> = effect_purity(&files, &g, &fx)
            .into_iter()
            .filter(|v| v.rule == rules::NO_SPAWN_IN_KERNELS)
            .collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].path, "crates/itemset/src/parallel.rs");
    }

    #[test]
    fn hot_loop_call_into_allocating_fn_fires_interprocedurally() {
        let (files, g, fx) = analyzed(&[
            (
                "crates/core/src/counting.rs",
                "pub fn count(xs: &[u32]) {\n    for x in xs {\n        boxed(*x);\n    }\n}\n",
            ),
            (
                "crates/core/src/helpers.rs",
                "pub fn boxed(x: u32) -> Vec<u32> { vec![x] }\n",
            ),
        ]);
        let v = alloc_calls_in_hot_loop(&files, &g, &fx);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, rules::NO_ALLOC_IN_HOT_LOOP);
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("boxed"), "{}", v[0].message);
    }

    #[test]
    fn hot_loop_calls_into_clean_fns_do_not_fire() {
        let (files, g, fx) = analyzed(&[
            (
                "crates/core/src/counting.rs",
                "pub fn count(xs: &[u32]) {\n    for x in xs {\n        pure(*x);\n    }\n}\n",
            ),
            (
                "crates/core/src/helpers.rs",
                "pub fn pure(x: u32) -> u32 { x }\n",
            ),
        ]);
        assert!(alloc_calls_in_hot_loop(&files, &g, &fx).is_empty());
    }

    #[test]
    fn hot_loop_allocs_fire_only_in_kernel_files() {
        let src = "fn f(n: usize) { for i in 0..n { let v = vec![i]; } }\n";
        let kernel = parsed(&[("crates/core/src/vertical.rs", src)]);
        assert_eq!(no_alloc_in_hot_loop(&kernel).len(), 1);
        let plain = parsed(&[("crates/core/src/miner.rs", src)]);
        assert!(no_alloc_in_hot_loop(&plain).is_empty());
    }

    #[test]
    fn wildcard_match_on_a_target_enum_fires() {
        let files = parsed(&[(
            "x.rs",
            r#"
pub enum CountingStrategy { Direct, HashTree, Vertical }
fn dispatch(s: CountingStrategy) -> u32 {
    match s {
        CountingStrategy::Direct => 1,
        _ => 0,
    }
}
"#,
        )]);
        let v = exhaustive_strategy_match(&files);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("catch-all"));
    }

    #[test]
    fn missing_variant_fires_and_full_match_is_clean() {
        let files = parsed(&[(
            "x.rs",
            r#"
pub enum Algorithm { All, SomeA, Dynamic }
fn partial(a: Algorithm) -> u32 {
    match a {
        Algorithm::All => 1,
        Algorithm::SomeA => 2,
    }
}
fn full(a: Algorithm) -> u32 {
    match a {
        Algorithm::All => 1,
        Algorithm::SomeA => 2,
        Algorithm::Dynamic => 3,
    }
}
"#,
        )]);
        let v = exhaustive_strategy_match(&files);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("`Dynamic`"));
    }

    #[test]
    fn option_wrapped_matches_are_not_targeted() {
        let files = parsed(&[(
            "x.rs",
            r#"
pub enum Parallelism { Serial, Auto }
fn f(p: Option<Parallelism>) -> u32 {
    match p {
        Some(x) => 1,
        None => 0,
    }
}
"#,
        )]);
        assert!(exhaustive_strategy_match(&files).is_empty());
    }

    #[test]
    fn self_matches_inside_the_enum_impl_are_targeted() {
        let files = parsed(&[(
            "x.rs",
            r#"
pub enum Parallelism { Serial, Auto }
impl Parallelism {
    fn n(&self) -> u32 {
        match self {
            Self::Serial => 1,
        }
    }
}
"#,
        )]);
        let v = exhaustive_strategy_match(&files);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("`Auto`"));
    }
}
