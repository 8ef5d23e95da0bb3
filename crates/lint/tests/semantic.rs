//! End-to-end semantic-rule runs over the fixture mini-workspace in
//! `tests/fixture_ws/`. Its files sit under a `/tests/` path, so real
//! workspace lint runs skip them wholesale; here they are linted directly
//! by pointing [`engine::run`] at the fixture root.

use std::path::{Path, PathBuf};

use seqpat_lint::engine::{self, to_sarif, Report};
use seqpat_lint::rules;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixture_ws")
}

fn fixture_report() -> Report {
    engine::run(&fixture_root()).expect("fixture workspace is readable")
}

/// 1-based line of the first occurrence of `needle` in a fixture file, so
/// assertions track the fixture source instead of hard-coding line numbers.
fn line_of(rel: &str, needle: &str) -> u32 {
    let src = std::fs::read_to_string(fixture_root().join(rel)).expect("fixture file exists");
    let line = src
        .lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("{needle:?} not found in {rel}"));
    u32::try_from(line).expect("fixture files are small") + 1
}

fn rule_hits<'r>(report: &'r Report, rule: &str) -> Vec<&'r rules::Violation> {
    report
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .collect()
}

#[test]
fn transitive_panic_fires_through_reexport_and_alias_chain() {
    let report = fixture_report();
    let hits = rule_hits(&report, rules::TRANSITIVE_PANIC_REACHABILITY);
    assert_eq!(
        hits.len(),
        2,
        "two seeded panic sites: {:?}",
        report.violations
    );
    let support = hits
        .iter()
        .find(|v| v.path == "crates/engine/src/support.rs")
        .expect("seeded support.rs unwrap fires");
    assert_eq!(
        support.line,
        line_of("crates/engine/src/support.rs", ".unwrap()")
    );
    // The chain crosses the `pub use` in prelude.rs (or the `use … as …`
    // alias — both routes land on the same helper pair).
    assert!(
        support.message.contains("resolve_support -> deep_lookup"),
        "chain names the route: {}",
        support.message
    );
    // The second seed hides behind the prelude re-export of `via` plus a
    // method-call hop: the chain must cross both.
    let hop = hits
        .iter()
        .find(|v| v.path == "crates/engine/src/hop.rs")
        .expect("seeded hop.rs unwrap fires");
    assert_eq!(hop.line, line_of("crates/engine/src/hop.rs", ".unwrap()"));
    assert!(
        hop.message.contains("via -> finish"),
        "chain crosses the method hop: {}",
        hop.message
    );
    assert_eq!(hop.chain.as_deref(), Some("count_hopped -> via -> finish"));
    // The unwraps are NOT in kernel files: only the call graph can see
    // these findings.
    assert!(hits.iter().all(|v| !rules::is_kernel_path(&v.path)));
}

#[test]
fn mutual_recursion_converges_and_the_alias_keeps_the_io_chain() {
    let report = fixture_report();
    let hits = rule_hits(&report, rules::NO_IO_IN_KERNELS);
    assert_eq!(hits.len(), 1, "{:?}", report.violations);
    let v = hits[0];
    // The `println!` sits inside the ping/pong SCC; the kernel reaches it
    // through `use crate::recurse::ping as trace_ping`. The finding lands
    // at the source site with the minimal entry→site witness chain.
    assert_eq!(v.path, "crates/engine/src/recurse.rs");
    assert_eq!(
        v.line,
        line_of("crates/engine/src/recurse.rs", "trace floor")
    );
    assert_eq!(v.chain.as_deref(), Some("count_traced -> ping"));
    // The other purity rules have nothing to find in the fixture.
    assert!(rule_hits(&report, rules::NO_WALL_CLOCK_IN_KERNELS).is_empty());
    assert!(rule_hits(&report, rules::NO_SPAWN_IN_KERNELS).is_empty());
}

#[test]
fn alloc_rule_fires_in_innermost_loop_and_spares_hoisted_buffers() {
    let report = fixture_report();
    let hits = rule_hits(&report, rules::NO_ALLOC_IN_HOT_LOOP);
    assert!(
        !hits.is_empty(),
        "seeded alloc found: {:?}",
        report.violations
    );
    assert!(hits
        .iter()
        .all(|v| v.path == "crates/engine/src/counting.rs"));
    let seeded = line_of("crates/engine/src/counting.rs", "seeded: fresh alloc");
    assert!(
        hits.iter().any(|v| v.line == seeded),
        "the per-iteration Vec::new fires: {hits:?}"
    );
    // The hoisted buffer and its in-loop pushes stay silent.
    let hoisted_push = line_of("crates/engine/src/counting.rs", "out.push(x)");
    assert!(hits.iter().all(|v| v.line != hoisted_push));
    assert!(hits.iter().all(|v| v.line >= seeded));
}

#[test]
fn exhaustive_match_catches_wildcard_and_missing_variant() {
    let report = fixture_report();
    let hits = rule_hits(&report, rules::EXHAUSTIVE_STRATEGY_MATCH);
    assert_eq!(hits.len(), 2, "two seeded matches: {:?}", report.violations);
    assert!(hits
        .iter()
        .all(|v| v.path == "crates/engine/src/strategy.rs"));
    assert!(hits.iter().any(|v| v.message.contains("catch-all")));
    assert!(hits.iter().any(|v| v.message.contains("`Auto`")));
    // The match in counting.rs names every variant and stays silent.
    assert!(hits
        .iter()
        .all(|v| v.path != "crates/engine/src/counting.rs"));
}

#[test]
fn stale_suppression_is_reported_at_the_allow_comment() {
    let report = fixture_report();
    let hits = rule_hits(&report, rules::STALE_SUPPRESSION);
    assert_eq!(hits.len(), 1, "{:?}", report.violations);
    let v = hits[0];
    assert_eq!(v.path, "crates/engine/src/stale.rs");
    assert_eq!(
        v.line,
        line_of("crates/engine/src/stale.rs", "seqpat-lint: allow")
    );
    assert!(v.message.contains("nondeterministic-iteration-flow"));
}

#[test]
fn tricky_parse_files_stay_silent() {
    let report = fixture_report();
    for quiet in ["tricky.rs", "prelude.rs", "lib.rs"] {
        assert!(
            report.violations.iter().all(|v| !v.path.ends_with(quiet)),
            "{quiet} must lint clean: {:?}",
            report.violations
        );
    }
}

#[test]
fn fixture_report_covers_every_file_and_renders_to_sarif() {
    let report = fixture_report();
    assert_eq!(report.files_scanned, 13);
    assert!(report.has_deny(), "deny-severity seeds are present");
    let sarif = to_sarif(&report);
    // The driver advertises every rule; results carry the seeded findings.
    for info in rules::RULES {
        assert!(sarif.contains(info.name), "driver lists {}", info.name);
    }
    assert!(sarif.contains("\"level\": \"error\""));
    assert!(sarif.contains("crates/engine/src/support.rs"));
}
