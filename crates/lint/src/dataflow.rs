//! Intraprocedural order-sensitivity dataflow.
//!
//! Two analyses over one parsed file's fns, both intraprocedural:
//!
//! * **Iteration flow** (`nondeterministic-iteration-flow`): def-use taint
//!   tracking from hash-container iteration sources (`iter`/`keys`/`values`/
//!   `drain` on `HashMap`/`HashSet`/`FxHash*`, and `for … in` over such a
//!   container) to order-sensitive sinks. Taint propagates through `let`
//!   bindings and pushes into buffers; it is killed by normalization — a
//!   `sort*` call, a BTree collect, or an order-insensitive reduction
//!   (`sum`/`count`/`min`/`max`/`all`/`any`/`sum_partials`). Sinks are:
//!   formatting/printing a tainted value, float accumulation of a tainted
//!   value, a general `fold`/`reduce` over a tainted iterator, string
//!   concatenation, and — the deferred case — a tainted buffer reaching the
//!   fn result (returned or written through a `&mut` param) without a sort.
//!
//! * **Reduction audit** (`order-sensitive-reduction`): partial-merge fns
//!   (named `merge*`/`combine*`/`reduce*`/`*_partials`) must combine chunk
//!   results with associative + commutative ops only. `-=`/`/=`/`%=` always
//!   fire; `+=`/`*=` fire when the fn handles floats (float addition is not
//!   associative, so re-chunking changes the result bit-for-bit).
//!
//! Both analyses render step-by-step witness chains into
//! [`Violation::chain`], and the reduction audit feeds the
//! `determinism.json` artifact.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::parser::{FnDef, ParsedFile};
use crate::rules::{self, Violation};

/// Methods that expose a hash container's (nondeterministic) iteration
/// order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Order-insensitive reductions: folding a hash iteration into one of these
/// is deterministic.
const REDUCERS: &[&str] = &[
    "sum",
    "count",
    "min",
    "max",
    "all",
    "any",
    "fold_first",
    "len",
];

/// Buffer methods that append in iteration order: pushing tainted data
/// through one taints the receiver.
const APPEND_METHODS: &[&str] = &["push", "extend", "extend_from_slice", "append", "push_str"];

/// Macros that render values into human-visible or serialized output.
const FORMAT_MACROS: &[&str] = &[
    "format", "println", "eprintln", "print", "eprint", "write", "writeln",
];

/// One audited partial-merge fn, for the determinism.json artifact.
#[derive(Debug)]
pub struct ReducerAudit {
    /// Workspace-relative path.
    pub path: String,
    /// Reducer fn name.
    pub fn_name: String,
    /// 1-based line of the fn name.
    pub line: u32,
    /// True when the reducer combines partials with a non-associative or
    /// non-commutative op.
    pub order_sensitive: bool,
    /// The ops behind the verdict, e.g. "`+=` on a float".
    pub ops: Vec<String>,
}

/// True for fn names that merge per-chunk partials into a combined result.
fn is_reducer_name(name: &str) -> bool {
    name.starts_with("merge")
        || name.starts_with("combine")
        || name.starts_with("reduce")
        || name.ends_with("_partials")
}

/// What a tracked binding holds, as far as the token stream shows.
#[derive(Debug, Clone, Copy, Default)]
struct Binding {
    /// Type/initializer mentions a hash container.
    hash: bool,
    /// Type/initializer mentions `f32`/`f64` (or a float literal).
    float: bool,
    /// Type/initializer mentions `String`.
    string: bool,
    /// `&mut` parameter — writes through it escape the fn.
    mut_ref_param: bool,
}

/// Ordered witness steps for one taint chain: `(line, rendered step)`.
type Chain = Vec<(u32, String)>;

/// The non-test fns of `file` that have a body, with the body span.
fn live_fns(file: &ParsedFile) -> impl Iterator<Item = (&FnDef, (usize, usize))> {
    file.fns
        .iter()
        .filter(|f| !f.is_test)
        .filter_map(|f| Some((f, f.body?)))
}

/// Runs the iteration-flow analysis over one file, returning
/// `nondeterministic-iteration-flow` findings.
pub fn flow_violations(file: &ParsedFile) -> Vec<Violation> {
    let hash_fns = file.hash_returning_fns();
    let mut out = Vec::new();
    for (item, body) in live_fns(file) {
        file.analyze_fn(item, body, &hash_fns, &mut out);
    }
    out
}

/// Runs the reduction audit over one file: `order-sensitive-reduction`
/// findings plus the per-reducer audit entries for determinism.json.
pub fn reduction_audit(file: &ParsedFile) -> (Vec<Violation>, Vec<ReducerAudit>) {
    let mut violations = Vec::new();
    let mut audits = Vec::new();
    for (item, body) in live_fns(file).filter(|(f, _)| is_reducer_name(&f.name)) {
        file.audit_reducer(item, body, &mut violations, &mut audits);
    }
    (violations, audits)
}

// The analyses walk the parsed file's token cursor directly.
impl ParsedFile {
    /// Names of fns in this file whose return type mentions a hash type.
    fn hash_returning_fns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (item, _) in live_fns(self) {
            let (s0, s1) = item.sig;
            let mut after_arrow = false;
            for k in s0..s1 {
                match self.txt(k) {
                    "-" if self.txt(k + 1) == ">" => after_arrow = true,
                    s if after_arrow && rules::HASH_TYPES.contains(&s) => {
                        out.insert(item.name.clone());
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Bindings declared by the signature `[s0, s1)`: params with their
    /// type-derived kind flags.
    fn param_bindings(&self, s0: usize, s1: usize) -> BTreeMap<String, Binding> {
        let mut out = BTreeMap::new();
        let mut k = s0;
        while k < s1 {
            let is_binder = self.kind(k) == Some(TokenKind::Ident)
                && self.txt(k + 1) == ":"
                && self.txt(k + 2) != ":"
                && self.txt(k.wrapping_sub(1)) != ":";
            if !is_binder {
                k += 1;
                continue;
            }
            let name = self.txt(k).trim_start_matches("r#").to_string();
            let mut b = Binding::default();
            let mut depth: i32 = 0;
            let mut t = k + 2;
            b.mut_ref_param = self.txt(t) == "&"
                && (self.txt(t + 1) == "mut"
                    || (self.kind(t + 1) == Some(TokenKind::Lifetime) && self.txt(t + 2) == "mut"));
            while t < s1 {
                match self.txt(t) {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ">" if self.txt(t.wrapping_sub(1)) != "-" => depth -= 1,
                    "," if depth <= 0 => break,
                    s => {
                        if rules::HASH_TYPES.contains(&s) {
                            b.hash = true;
                        }
                        if s == "f32" || s == "f64" {
                            b.float = true;
                        }
                        if s == "String" {
                            b.string = true;
                        }
                    }
                }
                t += 1;
            }
            out.insert(name, b);
            k = t;
        }
        out
    }

    /// Idents the fn's result flows out of: `&mut` params plus returned
    /// locals (`return x;` and the trailing-expression ident).
    fn output_idents(
        &self,
        (b0, b1): (usize, usize),
        bind: &BTreeMap<String, Binding>,
    ) -> BTreeSet<String> {
        let mut out: BTreeSet<String> = bind
            .iter()
            .filter(|(_, b)| b.mut_ref_param)
            .map(|(n, _)| n.clone())
            .collect();
        for k in b0..b1 {
            if self.txt(k) == "return"
                && self.kind(k + 1) == Some(TokenKind::Ident)
                && matches!(self.txt(k + 2), ";" | "}")
            {
                out.insert(self.txt(k + 1).to_string());
            }
        }
        // Trailing expression: the last code token of the body, skipping a
        // final `;` (then it is a statement, not a tail value).
        if b1 > b0 {
            let last = b1 - 1;
            if self.kind(last) == Some(TokenKind::Ident) && self.txt(last) != "self" {
                out.insert(self.txt(last).to_string());
            }
        }
        out
    }

    /// The iteration-flow taint analysis over one fn body.
    fn analyze_fn(
        &self,
        item: &FnDef,
        (b0, b1): (usize, usize),
        hash_fns: &BTreeSet<String>,
        out: &mut Vec<Violation>,
    ) {
        let mut bind = self.param_bindings(item.sig.0, item.sig.1);
        let outputs = self.output_idents((b0, b1), &bind);
        // Taint chains: ident -> ordered witness steps `(line, text)`.
        let mut taint: BTreeMap<String, Chain> = BTreeMap::new();
        let mut findings: Vec<(u32, String, Chain)> = Vec::new();

        let mut ci = b0;
        while ci < b1 {
            let t = self.txt(ci);
            // `let [mut] <pat> (: T)? = <rhs> ;` — bind + propagate/kill.
            if t == "let" && self.kind(ci) == Some(TokenKind::Ident) {
                ci = self.handle_let(ci, b1, hash_fns, &mut bind, &mut taint);
                continue;
            }
            // `for <pat> in <expr> {` — taint binders from hash sources.
            if t == "for" && self.kind(ci) == Some(TokenKind::Ident) && self.txt(ci + 1) != "<" {
                self.handle_for(ci, b1, hash_fns, &bind, &mut taint);
                ci += 1;
                continue;
            }
            if self.kind(ci) != Some(TokenKind::Ident) {
                ci += 1;
                continue;
            }
            let prev = self.txt(ci.wrapping_sub(1));

            // Normalization kill: `x.sort*()` / `x.clear()`.
            if prev != "."
                && self.txt(ci + 1) == "."
                && (self.txt(ci + 2).starts_with("sort") || self.txt(ci + 2) == "clear")
                && self.txt(ci + 3) == "("
            {
                taint.remove(t);
                ci += 1;
                continue;
            }

            // Append sink: `recv.push(…tainted…)` taints the receiver (a
            // later sort still normalizes; unsorted outputs fire at fn end).
            if prev != "."
                && self.txt(ci + 1) == "."
                && APPEND_METHODS.contains(&self.txt(ci + 2))
                && self.txt(ci + 3) == "("
            {
                if let Some(close) = self.match_delim(ci + 3) {
                    if let Some((arg, mut chain)) =
                        self.first_tainted_in(ci + 4, close, &bind, &taint)
                    {
                        let line = self.line(ci);
                        chain.push((
                            line,
                            format!("`{t}.{}(…{arg}…)` appends in hash order", self.txt(ci + 2)),
                        ));
                        // String receivers are concatenation — order is
                        // baked in, no sort can fix it; fire immediately.
                        if self.txt(ci + 2) == "push_str" || bind.get(t).is_some_and(|b| b.string) {
                            findings.push((
                                line,
                                format!(
                                    "hash-ordered `{arg}` is concatenated into string `{t}`; \
                                     the text depends on iteration order — sort the keys first"
                                ),
                                chain,
                            ));
                        } else {
                            taint.entry(t.to_string()).or_insert(chain);
                        }
                        // Nested sinks in the args would re-report the same
                        // flow — this sink owns them.
                        ci = close + 1;
                        continue;
                    }
                }
                ci += 1;
                continue;
            }

            // Format/print sink: a tainted value rendered into output.
            if FORMAT_MACROS.contains(&t) && self.txt(ci + 1) == "!" && self.txt(ci + 2) == "(" {
                if let Some(close) = self.match_delim(ci + 2) {
                    if let Some((arg, mut chain)) =
                        self.first_tainted_in(ci + 3, close, &bind, &taint)
                    {
                        let line = self.line(ci);
                        chain.push((line, format!("`{t}!` renders `{arg}` into output")));
                        findings.push((
                            line,
                            format!(
                                "hash-ordered `{arg}` is formatted by `{t}!`; output \
                                 depends on iteration order — sort before rendering"
                            ),
                            chain,
                        ));
                    }
                    ci = close + 1;
                    continue;
                }
            }

            // Fold sink: a general fold/reduce over a tainted iterator (or
            // directly over a hash binding's iter chain) is order-sensitive
            // unless it is one of the sanctioned reducers.
            if (taint.contains_key(t) || bind.get(t).is_some_and(|b| b.hash))
                && prev != "."
                && self.txt(ci + 1) == "."
                && self.iter_chain_folds(ci + 1, b1)
            {
                let line = self.line(ci);
                let mut chain = taint
                    .get(t)
                    .cloned()
                    .unwrap_or_else(|| vec![(line, format!("`{t}` is a hash container"))]);
                chain.push((line, format!("`{t}` folded with a general closure")));
                findings.push((
                    line,
                    format!(
                        "`fold`/`reduce` over hash-ordered `{t}`; use an order-insensitive \
                         reduction (sum/count/min/max) or sort first"
                    ),
                    chain,
                ));
                ci += 1;
                continue;
            }

            // Float-accumulation sink: `facc += tainted`.
            if bind.get(t).is_some_and(|b| b.float) && prev != "." {
                let mut m = ci + 1;
                if self.txt(m) == "[" {
                    if let Some(c) = self.match_delim(m) {
                        m = c + 1;
                    }
                }
                let compound = matches!(self.txt(m), "+" | "*") && self.txt(m + 1) == "=";
                if compound {
                    // Statement RHS up to `;`.
                    let mut end = m + 2;
                    while end < b1 && self.txt(end) != ";" {
                        end += 1;
                    }
                    if let Some((arg, mut chain)) = self.first_tainted_in(m + 2, end, &bind, &taint)
                    {
                        let line = self.line(ci);
                        chain.push((
                            line,
                            format!(
                                "float `{t} {}= {arg}` accumulates in hash order",
                                self.txt(m)
                            ),
                        ));
                        findings.push((
                            line,
                            format!(
                                "float accumulation of hash-ordered `{arg}` into `{t}`; \
                                 float addition is not associative — sort the iteration first"
                            ),
                            chain,
                        ));
                    }
                }
            }

            ci += 1;
        }

        // Deferred sink: a tainted buffer that escapes the fn unsorted.
        for o in &outputs {
            if let Some(chain) = taint.get(o) {
                let line = chain.last().map_or(item.line, |&(l, _)| l);
                findings.push((
                    line,
                    format!(
                        "hash-ordered data reaches the result `{o}` of `{}` without \
                         normalization; sort `{o}` (or reduce order-insensitively)",
                        item.name
                    ),
                    chain.clone(),
                ));
            }
        }

        for (line, message, chain) in findings {
            out.push(Violation {
                path: self.path.clone(),
                line,
                rule: rules::NONDET_ITERATION_FLOW,
                message,
                chain: Some(render_chain(&self.path, &chain)),
            });
        }
    }

    /// Handles one `let` statement at `ci`; returns the index to resume at.
    fn handle_let(
        &self,
        ci: usize,
        b1: usize,
        hash_fns: &BTreeSet<String>,
        bind: &mut BTreeMap<String, Binding>,
        taint: &mut BTreeMap<String, Chain>,
    ) -> usize {
        let mut j = ci + 1;
        if self.txt(j) == "mut" {
            j += 1;
        }
        if self.kind(j) != Some(TokenKind::Ident) {
            return ci + 1;
        }
        let name = self.txt(j).to_string();
        // Window: annotation + initializer, up to the depth-0 `;`.
        let mut end = j + 1;
        let mut depth: u32 = 0;
        while end < b1 {
            match self.txt(end) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let mut b = Binding::default();
        let mut source: Option<(u32, String)> = None;
        let mut carrier: Option<String> = None;
        let mut normalized = false;
        for k in j + 1..end {
            let s = self.txt(k);
            match self.kind(k) {
                Some(TokenKind::Ident) => {
                    if rules::HASH_TYPES.contains(&s) || hash_fns.contains(s) {
                        b.hash = true;
                    }
                    if s == "f32" || s == "f64" {
                        b.float = true;
                    }
                    if s == "String" {
                        b.string = true;
                    }
                    if s.starts_with("sort") || s.contains("BTree") || s == "sum_partials" {
                        normalized = true;
                    }
                    // Kind flags propagate through rebinding: `let mut acc =
                    // acc;` keeps the param's float-ness, and a `.clone()`
                    // is the same value. `.len()`-style projections drop the
                    // flags (value position only).
                    if self.txt(k.wrapping_sub(1)) != "."
                        && (self.txt(k + 1) != "." || self.txt(k + 2) == "clone")
                    {
                        if let Some(bb) = bind.get(s) {
                            b.float |= bb.float;
                            b.string |= bb.string;
                            b.hash |= bb.hash;
                        }
                    }
                    // Hash-order source: `h.iter()`-family on a hash binding.
                    if bind.get(s).is_some_and(|bb| bb.hash)
                        && self.txt(k + 1) == "."
                        && ITER_METHODS.contains(&self.txt(k + 2))
                        && self.txt(k + 3) == "("
                        && source.is_none()
                    {
                        source = Some((
                            self.line(k),
                            format!("`{s}.{}()` exposes hash-container order", self.txt(k + 2)),
                        ));
                    }
                    if taint.contains_key(s) && self.txt(k.wrapping_sub(1)) != "." {
                        carrier.get_or_insert_with(|| s.to_string());
                    }
                }
                _ => {
                    // `.sum()`-style reducer directly in the chain.
                    if s == "." && REDUCERS.contains(&self.txt(k + 1)) && self.txt(k + 2) == "(" {
                        normalized = true;
                    }
                }
            }
        }
        if self.kind_float_literal(j + 1, end) {
            b.float = true;
        }
        bind.insert(name.clone(), b);
        if normalized {
            taint.remove(&name);
        } else if let Some((line, step)) = source {
            let mut chain = vec![(line, step)];
            chain.push((
                self.line(j),
                format!("`{name}` binds the hash-ordered data"),
            ));
            taint.insert(name, chain);
        } else if let Some(parent) = carrier {
            let mut chain = taint[&parent].clone();
            chain.push((self.line(j), format!("`{name}` derives from `{parent}`")));
            taint.insert(name, chain);
        } else {
            // Rebound to a clean value.
            taint.remove(&name);
        }
        end + 1
    }

    /// Handles one `for <pat> in <expr> {` header at `ci`, tainting the
    /// loop binders when the iterated expression is hash-ordered.
    fn handle_for(
        &self,
        ci: usize,
        b1: usize,
        hash_fns: &BTreeSet<String>,
        bind: &BTreeMap<String, Binding>,
        taint: &mut BTreeMap<String, Chain>,
    ) {
        // Find `in` at depth 0.
        let mut in_at = None;
        let mut k = ci + 1;
        let mut depth: u32 = 0;
        while k < b1 && k < ci + 40 {
            match self.txt(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" | "" | ";" => break,
                "in" if depth == 0 => {
                    in_at = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(in_at) = in_at else { return };
        // Iterated expression: up to the body `{` at depth 0.
        let mut expr_end = in_at + 1;
        let mut depth: u32 = 0;
        while expr_end < b1 {
            match self.txt(expr_end) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => break,
                "" => break,
                _ => {}
            }
            expr_end += 1;
        }
        let mut source: Option<(u32, String)> = None;
        let mut normalized = false;
        for k in in_at + 1..expr_end {
            let s = self.txt(k);
            if self.kind(k) != Some(TokenKind::Ident) {
                if s == "." && REDUCERS.contains(&self.txt(k + 1)) {
                    normalized = true;
                }
                continue;
            }
            if s.starts_with("sort") || s.contains("BTree") {
                normalized = true;
            }
            if self.txt(k.wrapping_sub(1)) == "." {
                continue;
            }
            if bind.get(s).is_some_and(|b| b.hash) || hash_fns.contains(s) {
                source.get_or_insert((
                    self.line(k),
                    format!("`for … in` iterates hash container `{s}`"),
                ));
            } else if let Some(chain) = taint.get(s) {
                let mut c = chain.clone();
                c.push((self.line(k), format!("`for … in` iterates tainted `{s}`")));
                source.get_or_insert((self.line(k), String::new()));
                // Tainted-carrier loops reuse the carrier's chain directly.
                for binder in self.for_binders(ci + 1, in_at) {
                    taint.insert(binder, c.clone());
                }
                return;
            }
        }
        if normalized {
            return;
        }
        if let Some((line, step)) = source {
            for binder in self.for_binders(ci + 1, in_at) {
                taint.insert(binder, vec![(line, step.clone())]);
            }
        }
    }

    /// Loop-binder idents between `for` and `in`.
    fn for_binders(&self, p0: usize, p1: usize) -> Vec<String> {
        let mut out = Vec::new();
        for k in p0..p1 {
            if self.kind(k) == Some(TokenKind::Ident)
                && !matches!(self.txt(k), "mut" | "ref")
                && self
                    .txt(k)
                    .starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                && self.txt(k.wrapping_sub(1)) != "."
                && self.txt(k.wrapping_sub(1)) != ":"
            {
                out.push(self.txt(k).to_string());
            }
        }
        out
    }

    /// First hash-ordered value in `[s, e)` (value position): a tainted
    /// ident, or a direct `h.iter()`-family call on a hash binding. Returns
    /// the ident with the witness chain leading to it.
    fn first_tainted_in(
        &self,
        s: usize,
        e: usize,
        bind: &BTreeMap<String, Binding>,
        taint: &BTreeMap<String, Chain>,
    ) -> Option<(String, Chain)> {
        for k in s..e {
            if self.kind(k) != Some(TokenKind::Ident) || self.txt(k.wrapping_sub(1)) == "." {
                continue;
            }
            let name = self.txt(k);
            if let Some(chain) = taint.get(name) {
                return Some((name.to_string(), chain.clone()));
            }
            if bind.get(name).is_some_and(|b| b.hash)
                && self.txt(k + 1) == "."
                && ITER_METHODS.contains(&self.txt(k + 2))
                && self.txt(k + 3) == "("
            {
                return Some((
                    name.to_string(),
                    vec![(
                        self.line(k),
                        format!(
                            "`{name}.{}()` exposes hash-container order",
                            self.txt(k + 2)
                        ),
                    )],
                ));
            }
        }
        None
    }

    /// True when the method chain starting at the `.` at `ci` reaches a
    /// general `fold(`/`reduce(` before any sanctioned reducer or sort.
    fn iter_chain_folds(&self, mut ci: usize, b1: usize) -> bool {
        while ci + 1 < b1 && self.txt(ci) == "." {
            let m = self.txt(ci + 1);
            if m == "fold" || m == "reduce" {
                return self.txt(ci + 2) == "(";
            }
            if REDUCERS.contains(&m) || m.starts_with("sort") || m == "collect" {
                return false;
            }
            // Skip over `method(…)` to the next link.
            if self.txt(ci + 2) == "(" {
                match self.match_delim(ci + 2) {
                    Some(close) => ci = close + 1,
                    None => return false,
                }
            } else {
                return false;
            }
        }
        false
    }

    /// True when `[s, e)` contains a float literal (a `Number` token with a
    /// decimal point).
    fn kind_float_literal(&self, s: usize, e: usize) -> bool {
        (s..e).any(|k| {
            self.kind(k) == Some(TokenKind::Number)
                && self.txt(k).contains('.')
                && self.txt(k + 1) != "."
        })
    }

    /// The reduction audit for one reducer-named fn.
    fn audit_reducer(
        &self,
        item: &FnDef,
        (b0, b1): (usize, usize),
        violations: &mut Vec<Violation>,
        audits: &mut Vec<ReducerAudit>,
    ) {
        let (s0, s1) = item.sig;
        let float_sig = (s0..s1).any(|k| matches!(self.txt(k), "f32" | "f64"));
        let float_body = (b0..b1)
            .any(|k| matches!(self.txt(k), "f32" | "f64") || self.kind_float_literal(k, k + 1));
        let floaty = float_sig || float_body;
        let mut ops: Vec<String> = Vec::new();
        let mut sensitive = false;
        for k in b0..b1 {
            // Compound assigns: token `=` preceded by the op char. `==`,
            // `<=`, `>=`, `!=`, `=>` never match (`<`/`>`/`!` are not in
            // either op set, and the second `=` of `==` is preceded by `=`).
            if self.txt(k) != "=" || self.txt(k + 1) == "=" {
                continue;
            }
            let op = self.txt(k.wrapping_sub(1));
            match op {
                "-" | "/" | "%" => {
                    sensitive = true;
                    ops.push(format!(
                        "`{op}=` at line {} (not commutative)",
                        self.line(k)
                    ));
                }
                "+" | "*" if floaty => {
                    sensitive = true;
                    ops.push(format!(
                        "float `{op}=` at line {} (not associative)",
                        self.line(k)
                    ));
                }
                "+" | "*" => {
                    ops.push(format!("integer `{op}=` at line {} (ok)", self.line(k)));
                }
                _ => {}
            }
        }
        if sensitive {
            for op in ops.iter().filter(|o| !o.contains("(ok)")) {
                // Attribute the finding to the op's line.
                let line = op
                    .rsplit("line ")
                    .next()
                    .and_then(|r| {
                        r.split(|c: char| !c.is_ascii_digit())
                            .next()
                            .and_then(|n| n.parse().ok())
                    })
                    .unwrap_or(item.line);
                violations.push(Violation {
                    path: self.path.clone(),
                    line,
                    rule: rules::ORDER_SENSITIVE_REDUCTION,
                    message: format!(
                        "partial-merge fn `{}` combines chunk results with {op}; \
                         reducers must be associative and commutative so chunking \
                         cannot change the result",
                        item.name
                    ),
                    chain: Some(format!("{} -> {op}", item.name)),
                });
            }
        }
        audits.push(ReducerAudit {
            path: self.path.clone(),
            fn_name: item.name.clone(),
            line: item.line,
            order_sensitive: sensitive,
            ops,
        });
    }
}

/// Renders witness steps into one `--explain` chain string.
fn render_chain(path: &str, steps: &[(u32, String)]) -> String {
    steps
        .iter()
        .map(|(line, s)| format!("{s} [{path}:{line}]"))
        .collect::<Vec<_>>()
        .join(" -> ")
}
