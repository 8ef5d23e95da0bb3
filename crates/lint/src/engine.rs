//! Workspace walk, the one parse per file, suppression handling, rule
//! orchestration, and report assembly.
//!
//! Suppression grammar (inside any non-doc comment):
//!
//! ```text
//! // seqpat-lint: allow(transitive-panic-reachability, nondeterministic-iteration-flow) why this site is fine
//! ```
//!
//! The justification after `)` is mandatory. A suppression covers its own
//! line; when the comment is the first thing on its line it covers the next
//! line instead (the usual "comment above the offending line" style covers
//! both). Malformed, unknown-rule, or unjustified suppressions are reported
//! under the meta rule `suppression` and are not themselves suppressible.
//! A valid suppression that silences nothing is reported under
//! `stale-suppression` — allow-comments must stay honest as code moves.
//! Doc comments and test items (`#[cfg(test)]`, `#[test]`) are exempt from
//! both: a grammar example in a doc comment is not a live suppression.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::dataflow;
use crate::determinism;
use crate::effects;
use crate::lexer::{Token, TokenKind};
use crate::parser::{self, ParsedFile};
use crate::rules::{self, Violation};
use crate::semantic;

/// Result of linting the workspace.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed violations (including meta findings), sorted by path,
    /// line, rule.
    pub violations: Vec<Violation>,
    /// Count of findings silenced by valid suppression comments.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The deterministic per-fn effect table (`effects.json` artifact):
    /// a pure function of the scanned sources, byte-identical across runs.
    pub effects_json: String,
    /// The determinism audit (`determinism.json` artifact): every parallel
    /// fan-out site with its audited captures, every partial-merge reducer
    /// with its verdict. Also byte-identical across runs.
    pub determinism_json: String,
}

impl Report {
    /// True when any violation's rule is deny-severity (the exit/CI gate).
    pub fn has_deny(&self) -> bool {
        self.violations
            .iter()
            .any(|v| rules::severity_of(v.rule) == rules::Severity::Deny)
    }
}

/// One parsed allow-comment.
struct Suppression {
    /// Line the comment starts on.
    line: u32,
    /// Whether the comment is the first token on its line (then it covers
    /// the following line too).
    covers_next: bool,
    rules: Vec<String>,
}

impl Suppression {
    fn covers(&self, line: u32) -> bool {
        line == self.line || (self.covers_next && line == self.line + 1)
    }
}

/// Lints every `.rs` file under `root`.
pub fn run(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut inputs: Vec<(String, String)> = Vec::new();
    for file in &files {
        let Ok(src) = fs::read_to_string(file) else {
            // Non-UTF-8 or unreadable; nothing for a Rust linter to do.
            continue;
        };
        inputs.push((rel_path(root, file), src));
    }
    let files_scanned = inputs.len();
    let (violations, suppressed, effects_json, determinism_json) = lint_sources(&inputs);
    Ok(Report {
        violations,
        suppressed,
        files_scanned,
        effects_json,
        determinism_json,
    })
}

/// The full lint pipeline over in-memory `(rel_path, source)` pairs: one
/// parse per file, suppression handling, the per-file rules and dataflow,
/// effect inference, the call-graph rules, the determinism analyses, and
/// stale-suppression accounting. Test-path files are skipped wholesale.
/// Returns the kept violations (sorted, deduped), the count of findings
/// silenced by valid suppressions, and the rendered `effects.json` and
/// `determinism.json` artifacts.
pub fn lint_sources(inputs: &[(String, String)]) -> (Vec<Violation>, usize, String, String) {
    let mut all: Vec<Violation> = Vec::new();
    let mut sups_by_path: BTreeMap<&str, Vec<Suppression>> = BTreeMap::new();
    let mut parsed: Vec<ParsedFile> = Vec::new();
    let mut reducer_audits: Vec<dataflow::ReducerAudit> = Vec::new();

    for (rel, src) in inputs {
        if rules::is_test_path(rel) {
            continue;
        }
        let file = parser::parse_file(rel, src);
        let (sups, mut meta) = parse_suppressions(&file);
        sups_by_path.insert(rel.as_str(), sups);
        all.append(&mut meta);
        all.append(&mut rules::file_rules(&file));
        all.append(&mut dataflow::flow_violations(&file));
        let (mut red, mut audits) = dataflow::reduction_audit(&file);
        all.append(&mut red);
        reducer_audits.append(&mut audits);
        parsed.push(file);
    }

    // Cross-file rule: core's stats.rs fields vs the CLI printer.
    let find = |want: &str| parsed.iter().find(|f| f.path == want);
    if let (Some(stats), Some(cli)) = (
        find("crates/core/src/stats.rs"),
        find("crates/cli/src/main.rs"),
    ) {
        all.append(&mut rules::stats_coverage(stats, cli));
    }

    // Effect inference and the call-graph rules over the parsed workspace.
    let graph = CallGraph::build(&parsed);
    let fx = effects::infer(&parsed, &graph);
    let effects_json = effects::to_json(&parsed, &graph, &fx);
    all.append(&mut semantic::transitive_panic(&parsed, &graph, &fx));
    all.append(&mut semantic::no_alloc_in_hot_loop(&parsed));
    all.append(&mut semantic::alloc_calls_in_hot_loop(&parsed, &graph, &fx));
    all.append(&mut semantic::effect_purity(&parsed, &graph, &fx));
    all.append(&mut semantic::exhaustive_strategy_match(&parsed));
    all.append(&mut determinism::shared_mutable_capture(&parsed));
    let determinism_json = determinism::to_json(&parsed, &reducer_audits);
    all.sort();
    all.dedup();

    let mut suppressed = 0usize;
    // (path, suppression line, rule name) triples that earned their keep.
    let mut used: BTreeSet<(String, u32, String)> = BTreeSet::new();
    // Apply suppressions, tracking which earned use.
    let mut kept = Vec::new();
    for v in all {
        let matched = if rules::rule_info(v.rule).is_some_and(|r| !r.suppressible) {
            None
        } else {
            sups_by_path.get(v.path.as_str()).and_then(|sups| {
                sups.iter()
                    .find(|s| s.covers(v.line) && s.rules.iter().any(|r| r == v.rule))
            })
        };
        match matched {
            Some(s) => {
                used.insert((v.path.clone(), s.line, v.rule.to_string()));
                suppressed += 1;
            }
            None => kept.push(v),
        }
    }

    // Stale-suppression: every named rule of every valid suppression must
    // have silenced at least one finding.
    for (path, sups) in &sups_by_path {
        for s in sups {
            for r in &s.rules {
                if !used.contains(&(path.to_string(), s.line, r.clone())) {
                    kept.push(Violation {
                        path: path.to_string(),
                        line: s.line,
                        rule: rules::STALE_SUPPRESSION,
                        message: format!(
                            "suppression allows `{r}` but no such finding fires on the \
                             covered line(s); delete or update the allow-comment"
                        ),
                        chain: None,
                    });
                }
            }
        }
    }

    kept.sort();
    kept.dedup();
    (kept, suppressed, effects_json, determinism_json)
}

/// Lints one in-memory file: the per-file slice of [`lint_sources`] (the
/// cross-file stats-coverage rule and the workspace call graph see only
/// this file). Returns the kept violations and the suppressed count.
pub fn lint_source(rel: &str, src: &str) -> (Vec<Violation>, usize) {
    let (violations, suppressed, _, _) = lint_sources(&[(rel.to_string(), src.to_string())]);
    (violations, suppressed)
}

/// Workspace-relative path with `/` separators.
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// True for `///`, `//!`, `/**`, `/*!` comments — documentation, where a
/// suppression-shaped line is an example, not a directive.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/*!")
        || (text.starts_with("/**") && text != "/**/")
}

/// Extracts suppression comments from `file`, returning them plus meta
/// violations for malformed/unknown/unjustified ones. Doc comments and
/// test items are skipped entirely.
fn parse_suppressions(file: &ParsedFile) -> (Vec<Suppression>, Vec<Violation>) {
    let mut sups = Vec::new();
    let mut meta = Vec::new();
    for (i, tok) in file.tokens.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = tok.text(&file.src);
        if is_doc_comment(text) || file.in_test(tok.start) {
            continue;
        }
        let Some(at) = text.find("seqpat-lint:") else {
            continue;
        };
        let rest = text[at + "seqpat-lint:".len()..].trim_start();
        let mut bad = |msg: String| {
            meta.push(Violation {
                path: file.path.clone(),
                line: tok.line,
                rule: rules::SUPPRESSION,
                message: msg,
                chain: None,
            });
        };
        let Some(args) = rest.strip_prefix("allow") else {
            bad("malformed seqpat-lint comment: expected `allow(<rule>)`".to_string());
            continue;
        };
        let args = args.trim_start();
        let Some(args) = args.strip_prefix('(') else {
            bad("malformed seqpat-lint comment: expected `(` after `allow`".to_string());
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("malformed seqpat-lint comment: unclosed `allow(`".to_string());
            continue;
        };
        let (rule_list, after) = args.split_at(close);
        let mut rule_names = Vec::new();
        for raw in rule_list.split(',') {
            let name = raw.trim();
            if name.is_empty() {
                continue;
            }
            match rules::rule_info(name) {
                Some(info) if info.suppressible => rule_names.push(name.to_string()),
                Some(_) => bad(format!(
                    "rule `{name}` cannot be suppressed (meta rules keep the \
                     suppression system honest)"
                )),
                None => bad(format!(
                    "suppression names unknown rule `{name}` (see --list-rules)"
                )),
            }
        }
        let justification = after[1..]
            .trim_start_matches(|c: char| {
                c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':' | '.')
            })
            .trim_end_matches("*/")
            .trim();
        if justification.is_empty() {
            bad(
                "suppression lacks a justification: write why the site is sound after \
                 the closing `)`"
                    .to_string(),
            );
            continue;
        }
        if rule_names.is_empty() {
            continue;
        }
        sups.push(Suppression {
            line: tok.line,
            covers_next: comment_starts_line(&file.tokens, i),
            rules: rule_names,
        });
    }
    (sups, meta)
}

/// True if no code token precedes comment `i` on its line.
fn comment_starts_line(tokens: &[Token], i: usize) -> bool {
    let line = tokens[i].line;
    tokens[..i]
        .iter()
        .rev()
        .take_while(|t| t.line == line)
        .all(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
}

/// Renders the report as stable, dependency-free JSON.
pub fn to_json(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    s.push_str(&format!("  \"suppressed\": {},\n", report.suppressed));
    s.push_str(&format!(
        "  \"violation_count\": {},\n",
        report.violations.len()
    ));
    s.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"rule\": \"{}\", ", json_escape(v.rule)));
        s.push_str(&format!(
            "\"severity\": \"{}\", ",
            rules::severity_of(v.rule).as_str()
        ));
        s.push_str(&format!("\"path\": \"{}\", ", json_escape(&v.path)));
        s.push_str(&format!("\"line\": {}, ", v.line));
        s.push_str(&format!("\"message\": \"{}\"", json_escape(&v.message)));
        if let Some(chain) = &v.chain {
            s.push_str(&format!(", \"chain\": \"{}\"", json_escape(chain)));
        }
        s.push('}');
    }
    if !report.violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Renders every finding of `rule` with its full witness chain — the
/// `--explain <rule>` view. Deterministic: findings arrive sorted from the
/// report, and chains are hop-minimal with deterministic tie-breaks.
pub fn explain(report: &Report, rule: &str) -> String {
    let mut s = String::new();
    let hits: Vec<&Violation> = report
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .collect();
    s.push_str(&format!("rule `{rule}`: {} finding(s)\n", hits.len()));
    for v in &hits {
        s.push_str(&format!("\n{}:{}\n", v.path, v.line));
        s.push_str(&format!("  {}\n", v.message));
        if let Some(chain) = &v.chain {
            s.push_str(&format!("  witness: {chain}\n"));
        }
    }
    if hits.is_empty() {
        s.push_str("nothing to explain: the workspace is clean for this rule\n");
    }
    s
}

/// Renders the report as minimal SARIF 2.1.0 (one run, one driver, all
/// rules listed, one result per violation).
pub fn to_sarif(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"seqpat-lint\",\n");
    s.push_str("          \"rules\": [");
    for (i, r) in rules::RULES.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n            {");
        s.push_str(&format!("\"id\": \"{}\", ", json_escape(r.name)));
        s.push_str(&format!(
            "\"shortDescription\": {{\"text\": \"{}\"}}, ",
            json_escape(r.desc)
        ));
        s.push_str(&format!(
            "\"defaultConfiguration\": {{\"level\": \"{}\"}}",
            r.severity.sarif_level()
        ));
        s.push('}');
    }
    s.push_str("\n          ]\n        }\n      },\n");
    s.push_str("      \"results\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n        {");
        s.push_str(&format!("\"ruleId\": \"{}\", ", json_escape(v.rule)));
        s.push_str(&format!(
            "\"level\": \"{}\", ",
            rules::severity_of(v.rule).sarif_level()
        ));
        s.push_str(&format!(
            "\"message\": {{\"text\": \"{}\"}}, ",
            json_escape(&v.message)
        ));
        s.push_str(&format!(
            "\"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
             {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]",
            json_escape(&v.path),
            v.line.max(1)
        ));
        s.push('}');
    }
    if !report.violations.is_empty() {
        s.push_str("\n      ");
    }
    s.push_str("]\n    }\n  ]\n}\n");
    s
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
