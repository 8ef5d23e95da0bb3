//! End-to-end coverage for the determinism-analysis stage: the four rules
//! over the fixture workspace, the `determinism.json` artifact's content
//! and byte-stability, and the `--rules` filter contract.

use std::path::{Path, PathBuf};

use seqpat_lint::dataflow;
use seqpat_lint::engine::{self, Report};
use seqpat_lint::parser::parse_file;
use seqpat_lint::rules;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixture_ws")
}

fn fixture_report() -> Report {
    engine::run(&fixture_root()).expect("fixture workspace is readable")
}

/// 1-based line of the first occurrence of `needle` in a fixture file.
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
fn shared_mutable_capture_fires_on_mut_and_interior_mut_seeds() {
    let report = fixture_report();
    let hits = rule_hits(&report, rules::SHARED_MUTABLE_CAPTURE);
    assert_eq!(hits.len(), 2, "{:?}", report.violations);
    assert!(hits
        .iter()
        .all(|v| v.path == "crates/engine/src/capture.rs"));
    // The `&mut totals` capture, with its fn -> sink -> capture chain.
    let muts = hits
        .iter()
        .find(|v| v.message.contains("`totals`"))
        .expect("the &mut capture fires");
    assert_eq!(
        muts.chain.as_deref(),
        Some(format!(
            "count_bad -> map_chunks(closure@L{}) -> &mut totals",
            muts.line
        ))
        .as_deref()
    );
    // The shared atomic counter.
    let atomic = hits
        .iter()
        .find(|v| v.message.contains("`hits`"))
        .expect("the interior-mut capture fires");
    assert!(atomic.message.contains("interior-mutable"));
    // The chunk-owned scratch in count_good stays silent.
    let good_line = line_of("crates/engine/src/capture.rs", "let mut local");
    assert!(hits.iter().all(|v| v.line < good_line));
}

#[test]
fn order_sensitive_reduction_fires_on_the_float_merge_only() {
    let report = fixture_report();
    let hits = rule_hits(&report, rules::ORDER_SENSITIVE_REDUCTION);
    assert_eq!(hits.len(), 1, "{:?}", report.violations);
    let v = hits[0];
    assert_eq!(v.path, "crates/engine/src/reducer.rs");
    assert!(v.message.contains("merge_scores"));
    assert!(v.message.contains("float `+=`"));
    // The integer merge two fns down combines the same way and is clean.
    assert!(!v.message.contains("merge_counts"));
}

#[test]
fn iteration_flow_fires_on_escaping_order_and_spares_normalized_flows() {
    let report = fixture_report();
    let hits = rule_hits(&report, rules::NONDET_ITERATION_FLOW);
    assert_eq!(hits.len(), 2, "{:?}", report.violations);
    assert!(hits.iter().all(|v| v.path == "crates/engine/src/flow.rs"));
    let escape = hits
        .iter()
        .find(|v| v.message.contains("`out`"))
        .expect("the unsorted export fires");
    let chain = escape.chain.as_deref().expect("flow findings carry chains");
    assert!(chain.contains("hash container `m`"), "witness: {chain}");
    let concat = hits
        .iter()
        .find(|v| v.message.contains("string `s`"))
        .expect("the string concat fires");
    assert_eq!(
        concat.line,
        line_of("crates/engine/src/flow.rs", "s.push_str")
    );
    // export_good (collect + sort) and total (.sum()) stay silent.
    let good_line = line_of("crates/engine/src/flow.rs", "rows.sort_unstable");
    assert!(hits.iter().all(|v| v.line < good_line));
}

#[test]
fn unseeded_randomness_fires_outside_test_code_only() {
    let report = fixture_report();
    let hits = rule_hits(&report, rules::UNSEEDED_RANDOMNESS);
    assert_eq!(hits.len(), 1, "{:?}", report.violations);
    let v = hits[0];
    assert_eq!(v.path, "crates/engine/src/rng.rs");
    assert_eq!(
        v.line,
        line_of("crates/engine/src/rng.rs", "let mut rng = thread_rng();")
    );
    // The identical construction inside #[cfg(test)] is sanctioned, and the
    // `use` line naming thread_rng is not a construction site.
    let test_line = line_of("crates/engine/src/rng.rs", "fn jitter_stays_close");
    assert!(hits.iter().all(|v| v.line < test_line));
}

#[test]
fn determinism_json_is_byte_identical_and_audits_every_fanout_site() {
    let first = fixture_report();
    let second = fixture_report();
    assert!(!first.determinism_json.is_empty());
    assert_eq!(
        first.determinism_json, second.determinism_json,
        "the artifact must be a pure function of the sources"
    );
    let json = &first.determinism_json;
    assert!(json.contains("\"schema\": \"seqpat-determinism-v1\""));
    // All three fan-out sites in capture.rs appear, with verdicts.
    assert!(json.contains("\"fn\": \"count_bad\""));
    assert!(json.contains("\"verdict\": \"shared-mutable\""));
    assert!(json.contains("\"fn\": \"count_good\""));
    assert!(json.contains("\"verdict\": \"ok\""));
    assert!(json.contains("\"mode\": \"by-mut-ref\""));
    assert!(json.contains("\"interior_mut\": true"));
    // Both reducers are audited with their verdicts.
    assert!(json.contains("\"fn\": \"merge_scores\""));
    assert!(json.contains("\"verdict\": \"order-sensitive\""));
    assert!(json.contains("\"fn\": \"merge_counts\""));
    assert!(json.contains("\"verdict\": \"order-insensitive\""));
}

#[test]
fn scope_closure_shadowing_a_param_is_not_a_capture() {
    // The real map_chunks rebinds the closure into a scope-local (`let map
    // = &map;`) before spawning: the spawn closure captures the local, the
    // local shadows the param, and no shared-mutable finding fires.
    let src = r#"
pub fn map_chunks(items: &[u32], f: impl Fn(&[u32]) -> u64 + Sync) -> Vec<u64> {
    let map = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(2)
            .map(|chunk| {
                let map = &map;
                s.spawn(move || map(chunk))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}
"#;
    let (violations, _) = engine::lint_source("crates/itemset/src/parallel.rs", src);
    assert!(
        violations
            .iter()
            .all(|v| v.rule != rules::SHARED_MUTABLE_CAPTURE),
        "{violations:?}"
    );
}

#[test]
fn reduction_audit_flags_subtraction_and_division_regardless_of_type() {
    let src = r#"
pub fn merge_delta(total: &mut [u64], partial: &[u64]) {
    for (t, p) in total.iter_mut().zip(partial) {
        *t -= *p;
    }
}
"#;
    let (violations, audits) =
        dataflow::reduction_audit(&parse_file("crates/core/src/agg.rs", src));
    assert_eq!(violations.len(), 1);
    assert!(violations[0].message.contains("`-=`"));
    assert_eq!(audits.len(), 1);
    assert!(audits[0].order_sensitive);

    // Non-reducer fn names are not audited at all.
    let plain = "pub fn apply_delta(t: &mut u64, p: u64) { *t -= p; }\n";
    let (v2, a2) = dataflow::reduction_audit(&parse_file("crates/core/src/agg.rs", plain));
    assert!(v2.is_empty());
    assert!(a2.is_empty());
}

#[test]
fn rule_filter_rejects_unknown_names_and_accepts_known_ones() {
    let err = rules::parse_rule_filter("no-lossy-casts-in-kernels,not-a-rule")
        .expect_err("unknown names must be rejected");
    assert!(err.contains("not-a-rule"), "{err}");
    assert!(err.contains(rules::SHARED_MUTABLE_CAPTURE), "{err}");

    let names = rules::parse_rule_filter(
        " order-sensitive-reduction , unseeded-randomness-outside-datagen ",
    )
    .expect("known names parse");
    assert_eq!(
        names,
        vec![
            rules::ORDER_SENSITIVE_REDUCTION.to_string(),
            rules::UNSEEDED_RANDOMNESS.to_string()
        ]
    );

    // The retired lexical rule is gone from the registry.
    assert!(rules::parse_rule_filter("deterministic-iteration").is_err());
    assert!(rules::parse_rule_filter("").is_err());
}

#[test]
fn suppressing_a_determinism_finding_works_and_stale_gate_guards_it() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for k in m.keys() {
        // seqpat-lint: allow(nondeterministic-iteration-flow) callers sort downstream of this export
        out.push(*k);
    }
    out
}
"#;
    let (violations, suppressed) = engine::lint_source("crates/core/src/miner.rs", src);
    assert!(
        violations
            .iter()
            .all(|v| v.rule != rules::NONDET_ITERATION_FLOW),
        "{violations:?}"
    );
    assert!(suppressed >= 1);
}
