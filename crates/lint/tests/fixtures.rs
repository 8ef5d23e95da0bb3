//! Fixture tests for every lint rule: seeded violations are caught, clean
//! idioms are not, suppressions work, and the token-driven checks do not
//! false-positive on tricky token streams.
//!
//! Fixtures are inline strings linted under fake workspace paths — this
//! file lives under `tests/`, which the real lint run whole-file-exempts,
//! so the seeded violations below never show up in `seqpat-lint` output.

use seqpat_lint::dataflow;
use seqpat_lint::engine::{lint_source, lint_sources, to_json, Report};
use seqpat_lint::parser::parse_file;
use seqpat_lint::rules;

const KERNEL: &str = "crates/core/src/counting.rs";
const NON_KERNEL: &str = "crates/core/src/miner.rs";

/// Distinct rule names fired on `src` at `path`.
fn fired(path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(path, src).0.iter().map(|v| v.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

// ---- transitive-panic-reachability in kernel files -----------------------

#[test]
fn unwrap_and_expect_fire_only_in_kernel_files() {
    let src = r#"
fn f(v: &[u32]) -> u32 {
    let a = v.first().unwrap();
    let b = v.last().expect("non-empty");
    a + b
}
"#;
    assert_eq!(
        fired(KERNEL, src),
        vec![rules::TRANSITIVE_PANIC_REACHABILITY]
    );
    assert!(fired(NON_KERNEL, src).is_empty());
}

#[test]
fn panic_family_macros_fire() {
    for mac in [
        "panic!(\"boom\")",
        "unreachable!()",
        "todo!()",
        "unimplemented!()",
    ] {
        let src = format!("fn f() {{ {mac}; }}\n");
        assert_eq!(
            fired(KERNEL, &src),
            vec![rules::TRANSITIVE_PANIC_REACHABILITY],
            "{mac}"
        );
    }
}

#[test]
fn slice_indexing_needs_a_debug_assert_in_the_fn() {
    let bare = "fn f(v: &[u32], i: usize) -> u32 { v[i] }\n";
    assert_eq!(
        fired(KERNEL, bare),
        vec![rules::TRANSITIVE_PANIC_REACHABILITY]
    );

    let guarded = r#"
fn f(v: &[u32], i: usize) -> u32 {
    debug_assert!(i < v.len(), "index in range");
    v[i]
}
"#;
    assert!(fired(KERNEL, guarded).is_empty());
}

#[test]
fn a_kernel_unwrap_is_one_finding_under_the_transitive_rule() {
    let src = "fn f(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n";
    let (kept, suppressed) = lint_source(KERNEL, src);
    assert_eq!(suppressed, 0);
    assert_eq!(kept.len(), 1, "{kept:?}");
    assert_eq!(kept[0].rule, rules::TRANSITIVE_PANIC_REACHABILITY);
    assert_eq!(kept[0].line, 2);
}

#[test]
fn a_long_signature_does_not_hide_the_debug_assert_guard() {
    // Past 400 signature tokens the body and its guard are still found.
    let params: Vec<String> = (0..110).map(|k| format!("p{k}: u32")).collect();
    let src = format!(
        "fn f(v: &[u32], i: usize, {}) -> u32 {{\n    \
         debug_assert!(i < v.len(), \"index in range\");\n    v[i]\n}}\n",
        params.join(", ")
    );
    assert!(
        fired(KERNEL, &src).is_empty(),
        "{:?}",
        lint_source(KERNEL, &src)
    );
    let bare = format!(
        "fn f(v: &[u32], i: usize, {}) -> u32 {{ v[i] }}\n",
        params.join(", ")
    );
    assert_eq!(
        fired(KERNEL, &bare),
        vec![rules::TRANSITIVE_PANIC_REACHABILITY]
    );
}

#[test]
fn cfg_test_modules_and_tests_dirs_are_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    fn f(v: &[u32]) -> u32 { v.first().unwrap() + v[0] }
}
"#;
    assert!(fired(KERNEL, src).is_empty());
    let loose = "fn f() { panic!(\"anywhere\"); }\n";
    assert!(fired("crates/core/tests/integration.rs", loose).is_empty());
    assert!(fired("crates/core/src/proptests.rs", loose).is_empty());
}

/// `(line, rule)` of every finding on `src` at `path`.
fn hits(path: &str, src: &str) -> Vec<(u32, &'static str)> {
    lint_source(path, src)
        .0
        .iter()
        .map(|v| (v.line, v.rule))
        .collect()
}

#[test]
fn item_initializers_and_item_macros_are_checked() {
    let src = r#"
const M: u32 = N as u32;
static R: LazyLock<u32> = LazyLock::new(|| S.parse().unwrap());
const T: u32 = TABLE[3];
"#;
    assert_eq!(
        hits(KERNEL, src),
        vec![
            (2, rules::NO_LOSSY_CASTS_IN_KERNELS),
            (3, rules::TRANSITIVE_PANIC_REACHABILITY),
            (4, rules::TRANSITIVE_PANIC_REACHABILITY),
        ]
    );
    let rng =
        "thread_local! {\n    static RNG: RefCell<ThreadRng> = RefCell::new(thread_rng());\n}\n";
    assert_eq!(hits(NON_KERNEL, rng), vec![(2, rules::UNSEEDED_RANDOMNESS)]);
    assert!(fired("crates/datagen/src/gen.rs", rng).is_empty());
    assert!(fired(NON_KERNEL, &format!("#[cfg(test)]\n{rng}")).is_empty());
}

#[test]
fn only_exactly_cfg_test_is_test_code() {
    for cfg in ["not(test)", "any(test, feature = \"x\")"] {
        let src = format!("#[cfg({cfg})]\nfn f(n: usize) -> u32 {{\n    n as u32\n}}\n");
        assert_eq!(
            hits(KERNEL, &src),
            vec![(3, rules::NO_LOSSY_CASTS_IN_KERNELS)],
            "{cfg}"
        );
    }
}

#[test]
fn a_site_pushed_out_of_its_fn_by_a_mislexed_char_is_still_found() {
    // The lexer reads `'—` as a lifetime, so the next quote opens a char
    // literal that swallows the `{` after it; the fn body then closes early
    // and the `.unwrap()` lands outside it.
    let src = r#"pub fn a(c: char, v: &[u32]) -> u32 {
    if c == '—' {
        let _r: &'static str = "x";
    }
    v.first().copied().unwrap()
}
"#;
    assert_eq!(
        hits(KERNEL, src),
        vec![(5, rules::TRANSITIVE_PANIC_REACHABILITY)]
    );
}

// ---- rule: nondeterministic-iteration-flow (dataflow) --------------------

/// Distinct rule names fired by the iteration-flow analysis on `src`.
fn flow_fired(src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = dataflow::flow_violations(&parse_file(NON_KERNEL, src))
        .iter()
        .map(|v| v.rule)
        .collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn hash_iteration_reaching_the_returned_vec_fires_with_a_chain() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for k in m.keys() {
        out.push(*k);
    }
    out
}
"#;
    let hits = dataflow::flow_violations(&parse_file(NON_KERNEL, src));
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, rules::NONDET_ITERATION_FLOW);
    let chain = hits[0]
        .chain
        .as_deref()
        .expect("flow findings carry chains");
    assert!(chain.contains("hash container `m`"), "{chain}");
    assert!(chain.contains("appends in hash order"), "{chain}");
}

#[test]
fn sorted_collect_kills_the_taint() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut keys: Vec<u32> = m.keys().copied().collect();
    keys.sort_unstable();
    keys
}
"#;
    assert!(flow_fired(src).is_empty());
}

#[test]
fn order_insensitive_reductions_over_hash_maps_are_clean() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> usize {
    m.iter().count()
}
"#;
    assert!(flow_fired(src).is_empty());
    let sum = r#"
use std::collections::HashMap;
fn g(m: &HashMap<u32, u32>) -> u32 {
    let total: u32 = m.values().sum();
    total
}
"#;
    assert!(flow_fired(sum).is_empty());
}

#[test]
fn hash_typed_let_binding_is_tracked_through_the_loop() {
    let src = r#"
fn f(rows: &[u32]) -> Vec<u32> {
    let mut m = std::collections::HashMap::<u32, u32>::new();
    for r in rows {
        m.insert(*r, 1);
    }
    let mut out = Vec::new();
    for k in m.keys() {
        out.push(*k);
    }
    out
}
"#;
    assert_eq!(flow_fired(src), vec![rules::NONDET_ITERATION_FLOW]);
}

#[test]
fn float_accumulation_of_hash_ordered_values_fires() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, f64>, acc: f64) -> f64 {
    let mut acc = acc;
    for v in m.values() {
        acc += *v;
    }
    acc
}
"#;
    // The shadowing `let mut acc = acc;` keeps `acc` float-typed via the
    // param; the += of the tainted loop binder is the sink.
    let hits = dataflow::flow_violations(&parse_file(NON_KERNEL, src));
    assert!(
        hits.iter()
            .any(|v| v.message.contains("float accumulation")),
        "{hits:?}"
    );
}

#[test]
fn general_fold_over_a_hash_container_fires_but_sum_does_not() {
    let folded = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> u32 {
    m.iter().fold(0, |a, (_, v)| a.wrapping_mul(31).wrapping_add(*v))
}
"#;
    assert_eq!(flow_fired(folded), vec![rules::NONDET_ITERATION_FLOW]);
}

#[test]
fn direct_extend_from_hash_iter_taints_the_receiver() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>, out: &mut Vec<(u32, u32)>) {
    out.extend(m.iter().map(|(k, v)| (*k, *v)));
}
"#;
    assert_eq!(flow_fired(src), vec![rules::NONDET_ITERATION_FLOW]);
    let sorted = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>, out: &mut Vec<(u32, u32)>) {
    out.extend(m.iter().map(|(k, v)| (*k, *v)));
    out.sort_unstable();
}
"#;
    assert!(flow_fired(sorted).is_empty());
}

// ---- rule 3: no-lossy-casts-in-kernels -----------------------------------

#[test]
fn bare_int_casts_fire_only_in_kernel_files() {
    let src = "fn f(n: usize) -> u32 { n as u32 }\n";
    assert_eq!(fired(KERNEL, src), vec![rules::NO_LOSSY_CASTS_IN_KERNELS]);
    assert!(fired(NON_KERNEL, src).is_empty());
}

#[test]
fn float_casts_and_debug_assert_interiors_are_clean() {
    let to_float = "fn f(n: usize) -> f64 { n as f64 }\n";
    assert!(fired(KERNEL, to_float).is_empty());
    let inside_assert = r#"
fn f(n: usize, m: u64) {
    debug_assert!(m <= n as u64, "fits");
}
"#;
    assert!(fired(KERNEL, inside_assert).is_empty());
}

// ---- no-wall-clock-in-kernels --------------------------------------------

#[test]
fn instant_fires_in_kernel_files_only() {
    let src = "use std::time::Instant;\nfn f() -> Instant { Instant::now() }\n";
    assert_eq!(fired(KERNEL, src), vec![rules::NO_WALL_CLOCK_IN_KERNELS]);
    assert!(fired(NON_KERNEL, src).is_empty());
    assert!(fired("crates/core/src/stats.rs", src).is_empty());
    assert!(fired("crates/itemset/src/stats.rs", src).is_empty());
    assert!(fired("crates/bench/src/harness.rs", src).is_empty());
    assert!(fired("crates/cli/src/main.rs", src).is_empty());
}

#[test]
fn system_time_fires_too() {
    let src = "fn f() { let _ = std::time::SystemTime::now(); }\n";
    assert_eq!(fired(KERNEL, src), vec![rules::NO_WALL_CLOCK_IN_KERNELS]);
    assert!(fired(NON_KERNEL, src).is_empty());
}

// ---- stats-coverage --------------------------------------------------------

/// Lints a `MiningStats` definition beside a CLI printer.
fn stats_findings(stats: &str, cli: &str) -> Vec<rules::Violation> {
    let inputs = [
        ("crates/core/src/stats.rs".to_string(), stats.to_string()),
        ("crates/cli/src/main.rs".to_string(), cli.to_string()),
    ];
    let (violations, ..) = lint_sources(&inputs);
    violations
}

#[test]
fn unprinted_stats_fields_are_reported() {
    let stats = r#"
pub struct MiningStats {
    pub covered_time: u64,
    pub missing_count: u64,
}
"#;
    let cli = r#"
fn print_stats(s: &MiningStats) {
    eprintln!("{}", s.covered_time);
}
"#;
    let violations = stats_findings(stats, cli);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].rule, rules::STATS_COVERAGE);
    assert!(violations[0].message.contains("missing_count"));
}

#[test]
fn fully_printed_stats_are_clean() {
    let stats = "pub struct MiningStats {\n    pub a: u64,\n    pub b: u64,\n}\n";
    let cli = "fn p(s: &MiningStats) { eprintln!(\"{} {}\", s.a, s.b); }\n";
    assert!(stats_findings(stats, cli).is_empty());
}

// ---- suppressions --------------------------------------------------------

#[test]
fn justified_suppression_on_previous_line_silences_the_finding() {
    let src = r#"
fn f(v: &[u32]) -> u32 {
    // seqpat-lint: allow(transitive-panic-reachability) the caller guarantees v is non-empty
    v.first().unwrap()
}
"#;
    let (kept, suppressed) = lint_source(KERNEL, src);
    assert!(kept.is_empty(), "kept: {kept:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn same_line_suppression_works() {
    let src = "fn f(v: &[u32]) -> u32 { v.first().unwrap() } // seqpat-lint: allow(transitive-panic-reachability) fixture site\n";
    let (kept, suppressed) = lint_source(KERNEL, src);
    assert!(kept.is_empty(), "kept: {kept:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn suppression_does_not_leak_past_the_next_line() {
    let src = r#"
fn f(v: &[u32]) -> u32 {
    // seqpat-lint: allow(transitive-panic-reachability) only the next line is covered
    let a = v.first().unwrap();

    let b = v.last().unwrap();
    a + b
}
"#;
    let (kept, suppressed) = lint_source(KERNEL, src);
    assert_eq!(suppressed, 1);
    assert_eq!(kept.len(), 1);
    assert_eq!(kept[0].rule, rules::TRANSITIVE_PANIC_REACHABILITY);
}

#[test]
fn unjustified_suppression_is_a_meta_violation_and_does_not_suppress() {
    let src = r#"
fn f(v: &[u32]) -> u32 {
    // seqpat-lint: allow(transitive-panic-reachability)
    v.first().unwrap()
}
"#;
    let (kept, suppressed) = lint_source(KERNEL, src);
    assert_eq!(suppressed, 0);
    let rule_names: Vec<&str> = kept.iter().map(|v| v.rule).collect();
    assert!(rule_names.contains(&rules::SUPPRESSION));
    assert!(rule_names.contains(&rules::TRANSITIVE_PANIC_REACHABILITY));
}

#[test]
fn unknown_rule_in_suppression_is_a_meta_violation() {
    let src = "// seqpat-lint: allow(no-such-rule) misspelled\nfn f() {}\n";
    let (kept, _) = lint_source(KERNEL, src);
    assert_eq!(kept.len(), 1);
    assert_eq!(kept[0].rule, rules::SUPPRESSION);
    assert!(kept[0].message.contains("no-such-rule"));
}

#[test]
fn retired_rule_names_in_suppressions_are_unknown() {
    for retired in ["no-panic-in-kernels", "no-wall-clock-outside-stats"] {
        let src = format!("// seqpat-lint: allow({retired}) an old allow-comment\nfn f() {{}}\n");
        let (kept, _) = lint_source(KERNEL, &src);
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].rule, rules::SUPPRESSION);
        assert!(
            kept[0].message.contains("unknown rule"),
            "{}",
            kept[0].message
        );
    }
}

#[test]
fn wrong_rule_name_does_not_suppress_a_different_finding() {
    let src = r#"
fn f(n: usize) -> u32 {
    // seqpat-lint: allow(transitive-panic-reachability) names the wrong rule for a cast
    n as u32
}
"#;
    let (kept, suppressed) = lint_source(KERNEL, src);
    assert_eq!(suppressed, 0);
    let rule_names: Vec<&str> = kept.iter().map(|v| v.rule).collect();
    assert!(rule_names.contains(&rules::NO_LOSSY_CASTS_IN_KERNELS));
    // The unused allow-comment is itself now a finding.
    assert!(rule_names.contains(&rules::STALE_SUPPRESSION));
}

// ---- lexing corner cases: no false positives -----------------------------

#[test]
fn panicky_text_inside_strings_and_comments_is_ignored() {
    let src = r##"
fn f() -> &'static str {
    // this comment mentions panic!("x") and .unwrap() and m.iter()
    let plain = "call .unwrap() then panic!(\"boom\") as u32 [0]";
    let raw = r#"Instant::now() and v[i] and "quoted" text"#;
    let _ = plain;
    raw
}
"##;
    assert!(fired(KERNEL, src).is_empty());
}

#[test]
fn lifetimes_and_char_literals_do_not_confuse_the_lexer() {
    let src = r#"
fn f<'a>(x: &'a [u32]) -> usize {
    let quote = '\'';
    let dquote = '"';
    let _ = (quote, dquote);
    x.len()
}
"#;
    assert!(fired(KERNEL, src).is_empty());
}

#[test]
fn range_expressions_are_not_float_literals() {
    let src = r#"
fn f(n: usize) -> usize {
    let mut total = 0;
    for i in 0..n {
        total += i;
    }
    total
}
"#;
    assert!(fired(KERNEL, src).is_empty());
}

#[test]
fn nested_block_comments_hide_their_contents() {
    let src = "/* outer /* inner panic!() */ still comment .unwrap() */\nfn f() {}\n";
    assert!(fired(KERNEL, src).is_empty());
}

// ---- report rendering ----------------------------------------------------

#[test]
fn json_output_escapes_and_counts() {
    let report = Report {
        violations: lint_source(KERNEL, "fn f() { panic!(\"quoted \\\"x\\\"\"); }\n").0,
        suppressed: 2,
        files_scanned: 1,
        effects_json: String::new(),
        determinism_json: String::new(),
    };
    let json = to_json(&report);
    assert!(json.contains("\"violation_count\": 1"));
    assert!(json.contains("\"suppressed\": 2"));
    assert!(json.contains("\"rule\": \"transitive-panic-reachability\""));
    assert!(json.contains("\"line\": 1"));
}
