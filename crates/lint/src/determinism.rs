//! The parallel-fan-out capture audit and the `determinism.json` artifact.
//!
//! The parser records every closure with its capture set
//! ([`crate::parser::ClosureSite`]); this module judges the ones handed to a
//! parallel sink (`thread::scope`, `spawn`, `map_chunks`). A closure that
//! runs on another thread while capturing `&mut` state — or interior-mutable
//! state (`Mutex`/`RefCell`/`Atomic*`), whose writes race by design — makes
//! chunk results depend on scheduling, which breaks the bit-identical
//! contract every parallel path in this workspace claims. Each such capture
//! is a `shared-mutable-capture-in-parallel` finding with a witness chain
//! `fn -> sink(closure@line) -> capture`.
//!
//! [`to_json`] renders the full audit — every fan-out site with its
//! captures and verdict, plus the reducer verdicts from
//! [`crate::dataflow::reduction_audit`] — as the `determinism.json`
//! artifact. The artifact is a pure function of the scanned sources: files
//! arrive sorted from the engine and closures/reducers are in source order,
//! so consecutive runs are byte-identical.

use crate::dataflow::ReducerAudit;
use crate::engine::json_escape;
use crate::parser::{CaptureMode, ParsedFile};
use crate::rules::{self, Violation};

/// Call names that hand a closure to another thread (or to the chunked
/// fan-out helper built on them).
const PARALLEL_SINKS: &[&str] = &["spawn", "scope", "map_chunks", "map_chunks_with"];

/// True when `handed_to` names a parallel sink.
fn is_parallel_sink(handed_to: Option<&str>) -> bool {
    handed_to.is_some_and(|h| PARALLEL_SINKS.contains(&h))
}

/// The `shared-mutable-capture-in-parallel` rule over the parsed workspace.
pub fn shared_mutable_capture(parsed: &[ParsedFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in parsed {
        for def in file.fns.iter().filter(|d| !d.is_test) {
            for closure in &def.closures {
                if !is_parallel_sink(closure.handed_to.as_deref()) {
                    continue;
                }
                let sink = closure.handed_to.as_deref().unwrap_or("?");
                for cap in &closure.captures {
                    let (bad, how) = match (cap.mode, cap.interior_mut) {
                        (CaptureMode::ByMutRef, _) => (true, "&mut"),
                        (_, true) => (true, "interior-mutable"),
                        _ => (false, ""),
                    };
                    if !bad {
                        continue;
                    }
                    out.push(Violation {
                        path: file.path.clone(),
                        line: closure.line,
                        rule: rules::SHARED_MUTABLE_CAPTURE,
                        message: format!(
                            "closure handed to `{sink}` captures `{}` ({how}, {}); \
                             parallel chunks racing on shared state make results \
                             scheduling-dependent — give each chunk its own buffer \
                             and merge with an order-insensitive reducer",
                            cap.name,
                            cap.mode.as_str()
                        ),
                        chain: Some(format!(
                            "{} -> {sink}(closure@L{}) -> {how} {}",
                            def.name, closure.line, cap.name
                        )),
                    });
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Renders the determinism audit artifact (`--determinism-out`), schema
/// `seqpat-determinism-v1`. Byte-identical across runs over the same
/// sources.
pub fn to_json(parsed: &[ParsedFile], reducers: &[ReducerAudit]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"seqpat-determinism-v1\",\n");

    s.push_str("  \"fanout_sites\": [");
    let mut first = true;
    for file in parsed {
        for def in file.fns.iter().filter(|d| !d.is_test) {
            for closure in &def.closures {
                if !is_parallel_sink(closure.handed_to.as_deref()) {
                    continue;
                }
                let shared_mut = closure
                    .captures
                    .iter()
                    .any(|c| c.mode == CaptureMode::ByMutRef || c.interior_mut);
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str("\n    {");
                s.push_str(&format!("\"path\": \"{}\", ", json_escape(&file.path)));
                s.push_str(&format!("\"line\": {}, ", closure.line));
                s.push_str(&format!("\"fn\": \"{}\", ", json_escape(&def.name)));
                s.push_str(&format!(
                    "\"handed_to\": \"{}\", ",
                    json_escape(closure.handed_to.as_deref().unwrap_or(""))
                ));
                s.push_str(&format!("\"move\": {}, ", closure.is_move));
                s.push_str("\"captures\": [");
                for (i, c) in closure.captures.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&format!(
                        "{{\"name\": \"{}\", \"mode\": \"{}\", \"interior_mut\": {}}}",
                        json_escape(&c.name),
                        c.mode.as_str(),
                        c.interior_mut
                    ));
                }
                s.push_str("], ");
                s.push_str(&format!(
                    "\"verdict\": \"{}\"",
                    if shared_mut { "shared-mutable" } else { "ok" }
                ));
                s.push('}');
            }
        }
    }
    if !first {
        s.push_str("\n  ");
    }
    s.push_str("],\n");

    s.push_str("  \"reducers\": [");
    for (i, r) in reducers.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"path\": \"{}\", ", json_escape(&r.path)));
        s.push_str(&format!("\"fn\": \"{}\", ", json_escape(&r.fn_name)));
        s.push_str(&format!("\"line\": {}, ", r.line));
        s.push_str(&format!(
            "\"verdict\": \"{}\", ",
            if r.order_sensitive {
                "order-sensitive"
            } else {
                "order-insensitive"
            }
        ));
        s.push_str("\"ops\": [");
        for (j, op) in r.ops.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\"", json_escape(op)));
        }
        s.push_str("]}");
    }
    if !reducers.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}
