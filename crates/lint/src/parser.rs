//! Recursive-descent item parser over the lexer's token stream — the
//! lint's one front end.
//!
//! [`parse_file`] lexes a file once and keeps everything the later stages
//! read: the token stream (comments included, for the suppression scanner),
//! the `#[cfg(test)]` spans, the `debug_assert!` interiors, and an
//! item-level view — functions (signature and body spans, and the calls,
//! panic constructs, allocation sites, `match` expressions, casts, RNG
//! constructions, and indexing inside their bodies), enum declarations, and
//! `use … as …` aliases. Code outside every analysed fn body (item
//! initialisers, item macros, `macro_rules!` bodies, signatures) gets the
//! same panic, cast, RNG and indexing scan as a body, into a file-level
//! [`Sites`]. This is not a full Rust parser — it recognizes
//! exactly the item structure the rules need (modules, impls, traits, fns,
//! enums, use-trees) and skips everything else by balanced-delimiter
//! matching, so unknown syntax degrades to "no facts extracted" rather than
//! misparses.
//!
//! Loop-scope model: a *loop scope* is the body of a lexical `for`/`while`/
//! `loop` **or of a closure** (closures passed to iterator adapters and
//! `map_chunks` run per element, so for allocation discipline they count as
//! loops). A scope is *innermost* when no other loop scope nests strictly
//! inside it; an allocation site is "in the innermost loop" when its
//! smallest enclosing loop scope is innermost.

use std::collections::BTreeSet;

use crate::lexer::{lex, Token, TokenKind};

/// Parsed view of one source file. Spans are half-open ranges of *code
/// indices* — positions in the comment-free token sequence — unless they
/// say they are byte spans.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The source text the tokens index into.
    pub(crate) src: String,
    /// Every token, comments included.
    pub(crate) tokens: Vec<Token>,
    /// Indices into `tokens` of the code (non-comment) tokens.
    pub(crate) code: Vec<usize>,
    /// Byte spans of items gated by exactly `#[cfg(test)]`.
    pub(crate) test_spans: Vec<(usize, usize)>,
    /// `debug_assert*!(…)` invocations, from the macro name to its closing
    /// delimiter inclusive. Every site scan skips them.
    debug_asserts: Vec<(usize, usize)>,
    /// Every fn body, nested ones included: its interior and whether it
    /// states a `debug_assert!` invariant.
    fn_bodies: Vec<(usize, usize, bool)>,
    /// Sites in non-test code outside every analysed fn body.
    pub loose: Sites,
    /// Every `fn` item found, in source order (tests included, flagged).
    pub fns: Vec<FnDef>,
    /// Every `enum` declaration found.
    pub enums: Vec<EnumDef>,
    /// `use … as …` renames: (local alias, real last path segment).
    pub aliases: Vec<(String, String)>,
}

/// One `enum` declaration.
#[derive(Debug)]
pub struct EnumDef {
    /// Enum name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
}

/// Panic, cast, RNG-construction and unguarded-indexing sites of one fn
/// body, or of a file's code outside its fn bodies. None of them enter the
/// effect lattice except `panics`.
#[derive(Debug, Default)]
pub struct Sites {
    /// Panic constructs (`.unwrap()`, `.expect()`, `panic!`-family macros).
    pub panics: Vec<Construct>,
    /// Bare `as <integer>` casts; `what` is the target type.
    pub casts: Vec<Construct>,
    /// RNG constructions (`thread_rng()`, `StdRng::seed_from_u64`, …);
    /// `what` is the constructor name.
    pub rngs: Vec<Construct>,
    /// Lines of slice-indexing expressions (`v[i]`, `f(x)[0]`) whose
    /// innermost enclosing fn body states no `debug_assert!`.
    pub indexes: Vec<u32>,
}

/// One `fn` item and the facts extracted from its body. Test fns keep
/// their spans but no body facts.
#[derive(Debug)]
pub struct FnDef {
    /// Name with any `r#` prefix stripped.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// Enclosing `impl Type` / `trait Type` name, if any.
    pub impl_type: Option<String>,
    /// Inside `#[cfg(test)]` / annotated `#[test]` (body facts are skipped).
    pub is_test: bool,
    /// Signature tokens after the name, up to the body `{` or the `;`.
    pub(crate) sig: (usize, usize),
    /// Body interior; `None` for a declaration (trait method decls).
    pub(crate) body: Option<(usize, usize)>,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Panic, cast, RNG and unguarded-indexing sites in the body.
    pub sites: Sites,
    /// I/O macro invocations (`println!`-family).
    pub ios: Vec<Construct>,
    /// Allocation sites in the body.
    pub allocs: Vec<AllocSite>,
    /// `match` expressions in the body.
    pub matches: Vec<MatchExpr>,
    /// Signature parameters: `(name, flattened type text)`.
    pub params: Vec<Param>,
    /// Closure expressions in the body with their capture sets.
    pub closures: Vec<ClosureSite>,
}

/// One fn parameter.
#[derive(Debug)]
pub struct Param {
    /// Binder name (`self` receivers are skipped).
    pub name: String,
    /// Type tokens joined with single spaces, e.g. `& mut Vec < u32 >`.
    pub ty: String,
}

/// How a closure captures one outer binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// Read-only borrow.
    ByRef,
    /// The closure body mutates the binding (assignment, compound assign,
    /// `&mut`, or a mutating-method receiver).
    ByMutRef,
    /// `move` closure taking ownership (and not mutating).
    ByMove,
}

impl CaptureMode {
    /// Kebab-case name, as rendered into determinism.json.
    pub fn as_str(self) -> &'static str {
        match self {
            CaptureMode::ByRef => "by-ref",
            CaptureMode::ByMutRef => "by-mut-ref",
            CaptureMode::ByMove => "by-move",
        }
    }
}

/// One outer binding captured by a closure.
#[derive(Debug)]
pub struct Capture {
    /// Captured binding name.
    pub name: String,
    /// How the closure uses the binding.
    pub mode: CaptureMode,
    /// The binding's type is interior-mutable (`Mutex`/`RefCell`/`Atomic*`…)
    /// or the body calls an interior-mutability method on it
    /// (`lock`/`borrow_mut`/`fetch_add`/`store`…).
    pub interior_mut: bool,
}

/// One closure expression and its capture set.
#[derive(Debug)]
pub struct ClosureSite {
    /// 1-based line of the opening `|` (or the `move` keyword's line).
    pub line: u32,
    /// Whether the closure is a `move` closure.
    pub is_move: bool,
    /// Name of the call this closure is an immediate argument of, e.g.
    /// `spawn` for `scope.spawn(|| …)`. `None` for let-bound closures.
    pub handed_to: Option<String>,
    /// Captured outer bindings, sorted by name.
    pub captures: Vec<Capture>,
}

/// One call site inside a fn body.
#[derive(Debug)]
pub struct CallSite {
    /// Called name (last segment, `r#` stripped).
    pub name: String,
    /// Qualifying path segments before the name (empty for bare calls).
    pub path: Vec<String>,
    /// 1-based line.
    pub line: u32,
    /// True for `.name(…)` method-call syntax.
    pub is_method: bool,
    /// True when the smallest enclosing loop scope exists and is innermost
    /// (same scope model as [`AllocSite::in_innermost_loop`]).
    pub in_innermost_loop: bool,
}

/// One construct a rule may flag, at the line it starts on.
#[derive(Debug)]
pub struct Construct {
    /// 1-based line.
    pub line: u32,
    /// Human-readable description, e.g. "`.unwrap()`" or "`println!`".
    pub what: String,
}

/// One allocation site.
#[derive(Debug)]
pub struct AllocSite {
    /// 1-based line.
    pub line: u32,
    /// Human-readable description, e.g. "`vec!`" or "`.collect()`".
    pub what: String,
    /// True when the smallest enclosing loop scope exists and is innermost.
    pub in_innermost_loop: bool,
}

/// One `match` expression: its line and the (flattened) arm alternatives.
#[derive(Debug)]
pub struct MatchExpr {
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// One entry per `|`-alternative of each arm.
    pub arms: Vec<MatchArm>,
}

/// One arm alternative of a `match`.
#[derive(Debug)]
pub struct MatchArm {
    /// 1-based line the alternative starts on.
    pub line: u32,
    /// Leading path of the pattern, e.g. `["CountingStrategy", "Direct"]`.
    /// Empty for literal/tuple/parenthesized patterns.
    pub head: Vec<String>,
    /// True for `_` or a bare lowercase binding (a catch-all).
    pub wildcard: bool,
}

/// Idents that look like calls when followed by `(` but are keywords.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "move", "mut", "ref", "unsafe", "where", "use", "pub", "mod", "struct", "enum", "trait",
    "type", "const", "static", "dyn", "box", "await", "yield", "union", "fn", "impl",
];

/// Method names that allocate (or may) when invoked.
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_owned", "clone", "to_string"];

/// Growth methods that allocate only when growing a locally-owned buffer.
const GROW_METHODS: &[&str] = &["push", "extend", "extend_from_slice"];

/// Associated constructors on uppercase types that allocate (or may).
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "default"];

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Integer cast targets: a bare `as` to one of these may truncate or wrap.
const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Constructors/methods that mint randomness. `seed_from_u64`/`from_seed`
/// are included because a seeded RNG outside datagen still makes product
/// output depend on the seed plumbing rather than the input data.
const RNG_CONSTRUCTORS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "ThreadRng",
    "seed_from_u64",
    "from_seed",
    "from_rng",
];

/// Idents that may legitimately precede `[` without it being an index
/// expression (array literals after `return`, slice patterns, etc.).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "await", "box", "break", "const", "continue", "dyn", "else", "enum", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static",
    "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// Macros that write to stdout/stderr. `write!`/`writeln!` are deliberately
/// absent: they target `fmt::Write`/`io::Write` alike and cannot be told
/// apart lexically.
const IO_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// Tokens that can directly precede the opening `|` of a closure.
const CLOSURE_STARTERS: &[&str] = &["(", ",", "=", "{", ";", ">", "&", "move", "return", "else"];

/// Types whose values can be mutated through a shared reference. A capture
/// of such a binding is shared mutable state regardless of capture mode.
const INTERIOR_MUT_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
    "UnsafeCell",
];

/// Method names that require a `&mut` receiver: calling one on a captured
/// binding upgrades the capture to [`CaptureMode::ByMutRef`]. `sort*` names
/// are matched by prefix in addition to this list.
const MUT_METHODS: &[&str] = &[
    "push",
    "push_str",
    "insert",
    "remove",
    "extend",
    "extend_from_slice",
    "clear",
    "truncate",
    "resize",
    "retain",
    "append",
    "pop",
    "drain",
    "dedup",
    "fill",
    "copy_from_slice",
    "get_mut",
    "iter_mut",
    "swap",
    "take",
    "set",
];

/// Method names that mutate through a shared reference (lock/cell/atomic
/// APIs): calling one flags the capture as interior-mutable.
const INTERIOR_MUT_METHODS: &[&str] = &[
    "lock",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "store",
    "compare_exchange",
    "get_or_init",
];

/// True when a flattened type-token is (or names) an interior-mutable type.
fn interior_mut_type_token(tok: &str) -> bool {
    INTERIOR_MUT_TYPES.contains(&tok) || tok.starts_with("Atomic")
}

/// One closure expression's spans, before capture analysis.
struct ClosureSpan {
    /// Code index of the opening `|`.
    start: usize,
    /// Parameter list interior (between the `|`s), half-open.
    p0: usize,
    p1: usize,
    /// Body interior, half-open.
    b0: usize,
    b1: usize,
    /// Whether the `move` keyword precedes the parameter list.
    is_move: bool,
}

/// Lexes and parses one file. `rel_path` is carried through for
/// attribution only.
pub fn parse_file(rel_path: &str, src: &str) -> ParsedFile {
    let tokens = lex(src);
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    let mut file = ParsedFile {
        path: rel_path.to_string(),
        src: src.to_string(),
        tokens,
        code,
        test_spans: Vec::new(),
        debug_asserts: Vec::new(),
        fn_bodies: Vec::new(),
        loose: Sites::default(),
        fns: Vec::new(),
        enums: Vec::new(),
        aliases: Vec::new(),
    };
    let end = file.code.len();
    file.debug_asserts = file.debug_assert_spans();
    file.fn_bodies = file.all_fn_bodies();
    file.items(0, end, false, None);
    file.loose = file.loose_sites();
    file
}

impl ParsedFile {
    /// Code token at code index `ci`, if in range.
    pub(crate) fn tok(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).and_then(|&ti| self.tokens.get(ti))
    }

    /// Text of the code token at `ci`, or `""` past the end.
    pub(crate) fn txt(&self, ci: usize) -> &str {
        match self.tok(ci) {
            Some(t) => t.text(&self.src),
            None => "",
        }
    }

    /// Kind of the code token at `ci`.
    pub(crate) fn kind(&self, ci: usize) -> Option<TokenKind> {
        self.tok(ci).map(|t| t.kind)
    }

    /// 1-based line of the code token at `ci` (0 past the end).
    pub(crate) fn line(&self, ci: usize) -> u32 {
        self.tok(ci).map_or(0, |t| t.line)
    }

    /// True when byte offset `byte` lies inside a test item.
    pub(crate) fn in_test(&self, byte: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| byte >= s && byte < e)
    }

    /// Code index of the delimiter closing the one at `open_ci`.
    pub(crate) fn match_delim(&self, open_ci: usize) -> Option<usize> {
        let open = self.txt(open_ci);
        let close = match open {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return None,
        };
        let mut depth: u32 = 0;
        let mut ci = open_ci;
        while ci < self.code.len() {
            let s = self.txt(ci);
            if s == open {
                depth += 1;
            } else if s == close {
                depth -= 1;
                if depth == 0 {
                    return Some(ci);
                }
            }
            ci += 1;
        }
        None
    }

    /// With `ci` at `<`, returns the index just past the matching `>`.
    /// `->` arrows inside do not close the angle bracket.
    fn skip_angles(&self, ci: usize) -> usize {
        let mut depth: u32 = 0;
        let mut k = ci;
        while k < self.code.len() {
            match self.txt(k) {
                "<" => depth += 1,
                ">" if k == 0 || self.txt(k - 1) != "-" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k + 1;
                    }
                }
                "" | ";" | "{" => return k,
                _ => {}
            }
            k += 1;
        }
        k
    }

    /// Walks items in `[ci, end)`, recursing into `mod`/`impl`/`trait`.
    fn items(&mut self, mut ci: usize, end: usize, in_test: bool, impl_type: Option<&str>) {
        while ci < end {
            let mut item_test = in_test;
            let mut cfg_test = false;
            let item_start = ci;
            // Attributes (inner attributes are skipped; `#[test]` and
            // exactly `#[cfg(test)]` mark the following item as test code,
            // and only the latter gives it a test span).
            loop {
                if self.txt(ci) == "#" && self.txt(ci + 1) == "!" && self.txt(ci + 2) == "[" {
                    ci = self.match_delim(ci + 2).map_or(end, |c| c + 1);
                    continue;
                }
                if self.txt(ci) == "#" && self.txt(ci + 1) == "[" {
                    let Some(close) = self.match_delim(ci + 1) else {
                        return;
                    };
                    if close == ci + 6
                        && (ci + 2..close)
                            .map(|k| self.txt(k))
                            .eq(["cfg", "(", "test", ")"])
                    {
                        cfg_test = true;
                    }
                    item_test |= cfg_test || self.txt(ci + 2) == "test";
                    ci = close + 1;
                    continue;
                }
                break;
            }
            // Item modifiers.
            loop {
                match self.txt(ci) {
                    "pub" => {
                        ci += 1;
                        if self.txt(ci) == "(" {
                            ci = self.match_delim(ci).map_or(end, |c| c + 1);
                        }
                    }
                    "unsafe" | "async" | "default" => ci += 1,
                    "extern" => {
                        ci += 1;
                        if self.kind(ci) == Some(TokenKind::Str) {
                            ci += 1;
                        }
                    }
                    "const" if self.txt(ci + 1) == "fn" => ci += 1,
                    _ => break,
                }
            }
            match self.txt(ci) {
                "" => return,
                "fn" => ci = self.item_fn(ci, item_test, impl_type),
                "mod" => {
                    let mut k = ci + 2;
                    if self.txt(k) == "{" {
                        let close = self.match_delim(k).unwrap_or(end);
                        self.items(k + 1, close, item_test, None);
                        k = close;
                    }
                    ci = k + 1;
                }
                "impl" | "trait" => {
                    let is_trait = self.txt(ci) == "impl";
                    let mut k = ci + 1;
                    if self.txt(k) == "<" {
                        k = self.skip_angles(k);
                    }
                    // For `impl`: the self type is the last ident before the
                    // body (segments after `for` win in `impl Trait for T`).
                    // For `trait`: the name is the first ident.
                    let mut ty: Option<String> = if is_trait {
                        None
                    } else {
                        Some(self.txt(k).to_string())
                    };
                    loop {
                        match self.txt(k) {
                            "" => return,
                            "{" | "where" => break,
                            "for" => {
                                ty = None;
                                k += 1;
                            }
                            "<" => k = self.skip_angles(k),
                            s => {
                                if is_trait && self.kind(k) == Some(TokenKind::Ident) {
                                    ty = Some(s.to_string());
                                }
                                k += 1;
                            }
                        }
                    }
                    while self.txt(k) != "{" {
                        if self.txt(k).is_empty() {
                            return;
                        }
                        k = if self.txt(k) == "<" {
                            self.skip_angles(k)
                        } else {
                            k + 1
                        };
                    }
                    let close = self.match_delim(k).unwrap_or(end);
                    self.items(k + 1, close, item_test, ty.as_deref());
                    ci = close + 1;
                }
                "enum" => ci = self.item_enum(ci),
                "use" => ci = self.item_use(ci),
                "struct" | "union" | "static" | "type" | "const" => ci = self.skip_item(ci),
                "macro_rules" => {
                    // `macro_rules! name { … }` — skip the whole blob.
                    let mut k = ci + 1;
                    while !matches!(self.txt(k), "{" | "(" | "[" | "") {
                        k += 1;
                    }
                    ci = self.match_delim(k).map_or(end, |c| c + 1);
                }
                // An unrecognised test item (an item macro) is skipped whole.
                _ if item_test => ci = self.skip_item(ci),
                _ => ci += 1,
            }
            if cfg_test && !in_test {
                let start = self.tok(item_start).map_or(0, |t| t.start);
                let last = ci.min(self.code.len()).saturating_sub(1);
                let stop = self.tok(last).map_or(self.src.len(), |t| t.end);
                self.test_spans.push((start, stop));
            }
        }
    }

    /// With `ci` at an item's first token, the index just past the item:
    /// past its terminating `;` or the end of its `{…}` body.
    fn skip_item(&self, ci: usize) -> usize {
        let mut k = ci + 1;
        loop {
            match self.txt(k) {
                "" => return k,
                ";" => return k + 1,
                "{" => return self.match_delim(k).map_or(self.code.len(), |c| c + 1),
                "(" | "[" => k = self.match_delim(k).map_or(self.code.len(), |c| c + 1),
                "<" => k = self.skip_angles(k),
                _ => k += 1,
            }
        }
    }

    /// With `k` just past a fn name, the index of the body `{`, of the
    /// declaration's `;`, or the end of the file.
    fn sig_end(&self, mut k: usize) -> usize {
        let mut depth: u32 = 0;
        loop {
            match self.txt(k) {
                "" => return k,
                ";" | "{" if depth == 0 => return k,
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "<" if depth == 0 => {
                    k = self.skip_angles(k);
                    continue;
                }
                _ => {}
            }
            k += 1;
        }
    }

    /// Every fn body in the file, nested ones included, with whether it
    /// states a `debug_assert!` invariant.
    fn all_fn_bodies(&self) -> Vec<(usize, usize, bool)> {
        (0..self.code.len())
            .filter(|&ci| self.txt(ci) == "fn" && self.kind(ci + 1) == Some(TokenKind::Ident))
            .filter_map(|ci| {
                let open = self.sig_end(ci + 2);
                if self.txt(open) != "{" {
                    return None;
                }
                let close = self.match_delim(open).unwrap_or(self.code.len());
                let guarded = self
                    .debug_asserts
                    .iter()
                    .any(|&(s, _)| s > open && s < close);
                Some((open + 1, close, guarded))
            })
            .collect()
    }

    /// Parses a `fn` item with `ci` at the `fn` keyword; returns the index
    /// just past the item.
    fn item_fn(&mut self, ci: usize, is_test: bool, impl_type: Option<&str>) -> usize {
        let name = self.txt(ci + 1).trim_start_matches("r#").to_string();
        let line = self.line(ci + 1);
        let mut def = FnDef {
            name,
            line,
            impl_type: impl_type.map(str::to_string),
            is_test,
            sig: (ci + 2, ci + 2),
            body: None,
            calls: Vec::new(),
            sites: Sites::default(),
            ios: Vec::new(),
            allocs: Vec::new(),
            matches: Vec::new(),
            params: Vec::new(),
            closures: Vec::new(),
        };
        def.params = self.fn_params(ci + 2);
        let open = self.sig_end(ci + 2);
        def.sig.1 = open;
        if self.txt(open) != "{" {
            // A declaration (`;`) or a signature running off the file.
            self.fns.push(def);
            return (open + 1).min(self.code.len());
        }
        let close = self.match_delim(open).unwrap_or(self.code.len());
        def.body = Some((open + 1, close));
        if !is_test {
            self.analyze_body(open + 1, close, &mut def);
        }
        self.fns.push(def);
        close + 1
    }

    /// Parses an `enum` item with `ci` at the `enum` keyword.
    fn item_enum(&mut self, ci: usize) -> usize {
        let name = self.txt(ci + 1).to_string();
        let line = self.line(ci + 1);
        let mut k = ci + 2;
        while self.txt(k) != "{" {
            if self.txt(k).is_empty() || self.txt(k) == ";" {
                return k + 1;
            }
            k = if self.txt(k) == "<" {
                self.skip_angles(k)
            } else {
                k + 1
            };
        }
        let Some(close) = self.match_delim(k) else {
            return self.code.len();
        };
        let mut variants = Vec::new();
        let mut j = k + 1;
        while j < close {
            // Variant attributes.
            while self.txt(j) == "#" && self.txt(j + 1) == "[" {
                j = self.match_delim(j + 1).map_or(close, |c| c + 1);
            }
            if j >= close {
                break;
            }
            if self.kind(j) == Some(TokenKind::Ident) {
                variants.push(self.txt(j).to_string());
                j += 1;
                // Payload / discriminant.
                if matches!(self.txt(j), "(" | "{") {
                    j = self.match_delim(j).map_or(close, |c| c + 1);
                }
                while j < close && self.txt(j) != "," {
                    j += 1;
                }
            }
            j += 1;
        }
        self.enums.push(EnumDef {
            name,
            line,
            variants,
        });
        close + 1
    }

    /// Parses a `use` item with `ci` at the `use` keyword, recording
    /// `as`-renames only (plain re-exports resolve by name anyway).
    fn item_use(&mut self, ci: usize) -> usize {
        let mut k = ci + 1;
        let mut brace: u32 = 0;
        let mut last_seg = String::new();
        loop {
            match self.txt(k) {
                "" => return k,
                ";" if brace == 0 => return k + 1,
                "{" => brace += 1,
                "}" => brace = brace.saturating_sub(1),
                "as" => {
                    let alias = self.txt(k + 1).trim_start_matches("r#").to_string();
                    if !alias.is_empty() && !last_seg.is_empty() && alias != "_" {
                        self.aliases.push((alias, last_seg.clone()));
                    }
                    k += 1;
                }
                s => {
                    if self.kind(k) == Some(TokenKind::Ident) {
                        last_seg = s.trim_start_matches("r#").to_string();
                    }
                }
            }
            k += 1;
        }
    }

    /// Extracts the body facts of `def` from the code indices `[b0, b1)`.
    fn analyze_body(&self, b0: usize, b1: usize, def: &mut FnDef) {
        let scopes = self.loop_scopes(b0, b1);
        // A scope is innermost when no other scope nests strictly inside it.
        let innermost: Vec<bool> = scopes
            .iter()
            .map(|s| {
                !scopes
                    .iter()
                    .any(|t| t.0 >= s.0 && t.1 <= s.1 && (t.0 > s.0 || t.1 < s.1))
            })
            .collect();
        // Smallest enclosing loop scope of a site, if any.
        let enclosing = |ci: usize| -> Option<usize> {
            scopes
                .iter()
                .enumerate()
                .filter(|(_, s)| s.0 <= ci && ci < s.1)
                .min_by_key(|(_, s)| s.1 - s.0)
                .map(|(i, _)| i)
        };

        let mut ci = b0;
        while ci < b1 {
            if self.in_debug_assert(ci) {
                ci += 1;
                continue;
            }
            self.scan_site(ci, &mut def.sites);
            if self.kind(ci) != Some(TokenKind::Ident) {
                ci += 1;
                continue;
            }
            let t = self.txt(ci);
            let line = self.line(ci);
            let prev = self.txt(ci.wrapping_sub(1));
            let after_dot = ci > b0 && prev == ".";
            let after_fn = ci > b0 && prev == "fn";
            let bang = self.txt(ci + 1) == "!";

            // I/O macros.
            if bang && IO_MACROS.contains(&t) {
                def.ios.push(Construct {
                    line,
                    what: format!("`{t}!`"),
                });
            }

            // Allocation sites.
            let mut alloc_what: Option<String> = None;
            if bang && (t == "vec" || t == "format") {
                alloc_what = Some(format!("`{t}!`"));
            } else if after_dot && ALLOC_METHODS.contains(&t) && self.paren_after(ci + 1).is_some()
            {
                alloc_what = Some(format!("`.{t}()`"));
            } else if after_dot && GROW_METHODS.contains(&t) && self.txt(ci + 1) == "(" {
                // Growth only counts against a buffer owned by the loop
                // scope itself; pushes into hoisted/param buffers are the
                // fix, not the violation.
                if let Some(si) = enclosing(ci) {
                    let recv = self.txt(ci.wrapping_sub(2)).to_string();
                    let (lo, _) = scopes[si];
                    let owned = self.kind(ci.wrapping_sub(2)) == Some(TokenKind::Ident)
                        && (lo..ci).any(|k| {
                            self.txt(k) == "let"
                                && (self.txt(k + 1) == recv
                                    || (self.txt(k + 1) == "mut" && self.txt(k + 2) == recv))
                        });
                    if owned {
                        alloc_what = Some(format!("`.{t}()` into a loop-local buffer"));
                    }
                }
            } else if ALLOC_CTORS.contains(&t)
                && ci >= 3
                && self.txt(ci - 1) == ":"
                && self.txt(ci - 2) == ":"
                && self.txt(ci + 1) == "("
                && self
                    .txt(ci - 3)
                    .trim_start_matches("r#")
                    .starts_with(|c: char| c.is_ascii_uppercase())
            {
                alloc_what = Some(format!("`{}::{t}()`", self.txt(ci - 3)));
            }
            if let Some(what) = alloc_what {
                let in_innermost_loop = enclosing(ci).is_some_and(|si| innermost[si]);
                def.allocs.push(AllocSite {
                    line,
                    what,
                    in_innermost_loop,
                });
            }

            // Call sites.
            if !bang
                && !after_fn
                && !NON_CALL_KEYWORDS.contains(&t)
                && self.paren_after(ci + 1).is_some()
            {
                let mut path = Vec::new();
                if !after_dot {
                    let mut j = ci;
                    while j >= 3
                        && self.txt(j - 1) == ":"
                        && self.txt(j - 2) == ":"
                        && self.kind(j - 3) == Some(TokenKind::Ident)
                    {
                        path.insert(0, self.txt(j - 3).trim_start_matches("r#").to_string());
                        j -= 3;
                    }
                }
                def.calls.push(CallSite {
                    name: t.trim_start_matches("r#").to_string(),
                    path,
                    line,
                    is_method: after_dot,
                    in_innermost_loop: enclosing(ci).is_some_and(|si| innermost[si]),
                });
            }

            // `match` expressions.
            if t == "match" && !after_dot && !after_fn {
                self.parse_match(ci, b1, def);
            }

            ci += 1;
        }

        self.extract_closures(b0, b1, def);
    }

    /// True when code index `ci` lies inside a `debug_assert!` invocation.
    fn in_debug_assert(&self, ci: usize) -> bool {
        self.debug_asserts.iter().any(|&(s, e)| ci >= s && ci <= e)
    }

    /// Records the panic construct, bare integer cast, RNG construction or
    /// unguarded slice indexing that starts at code index `ci`, if any.
    fn scan_site(&self, ci: usize, sites: &mut Sites) {
        let t = self.txt(ci);
        let line = self.line(ci);
        let prev = self.txt(ci.wrapping_sub(1));
        let next = self.txt(ci + 1);
        if self.kind(ci) != Some(TokenKind::Ident) {
            // `[` right after a value (an ident that is not a keyword, or a
            // closing `)`/`]`/`?`) is an indexing expression; it is guarded
            // when its innermost fn body states a `debug_assert!`.
            let indexes = t == "["
                && match self.kind(ci.wrapping_sub(1)) {
                    Some(TokenKind::Ident) => !NON_INDEX_KEYWORDS.contains(&prev),
                    Some(TokenKind::Punct) => matches!(prev, ")" | "]" | "?"),
                    _ => false,
                };
            let guarded = || {
                self.fn_bodies
                    .iter()
                    .filter(|b| b.0 <= ci && ci < b.1)
                    .max_by_key(|b| b.0)
                    .is_some_and(|b| b.2)
            };
            if indexes && !guarded() {
                sites.indexes.push(line);
            }
            return;
        }
        let site = |what: String| Construct { line, what };
        if next == "!" && PANIC_MACROS.contains(&t) {
            sites.panics.push(site(format!("`{t}!`")));
        }
        if prev == "." && (t == "unwrap" || t == "expect") && next == "(" {
            sites.panics.push(site(format!("`.{t}()`")));
        }
        if t == "as" && INT_TYPES.contains(&next) {
            sites.casts.push(site(next.to_string()));
        }
        // RNG construction: a call `name(`, a path segment `::Name`, or a
        // turbofish `Name::`, outside a `use` line.
        if RNG_CONSTRUCTORS.contains(&t)
            && (next == "("
                || (prev == ":" && self.txt(ci.wrapping_sub(2)) == ":")
                || (next == ":" && self.txt(ci + 2) == ":"))
            && !(0..ci)
                .rev()
                .take(12)
                .map(|k| self.txt(k))
                .take_while(|s| *s != ";" && *s != "}")
                .any(|s| s == "use")
        {
            sites.rngs.push(site(t.to_string()));
        }
    }

    /// The sites of non-test code outside every analysed fn body: item
    /// initialisers, item macros, `macro_rules!` bodies, signatures, and
    /// the bodies of `#[test]` fns no `#[cfg(test)]` gates.
    fn loose_sites(&self) -> Sites {
        let mut skip = vec![false; self.code.len()];
        for f in self.fns.iter().filter(|f| !f.is_test) {
            if let Some((b0, b1)) = f.body {
                skip[b0..b1].fill(true);
            }
        }
        let mut sites = Sites::default();
        for (ci, &analysed) in skip.iter().enumerate() {
            let in_test = self.tok(ci).is_some_and(|t| self.in_test(t.start));
            if !analysed && !in_test && !self.in_debug_assert(ci) {
                self.scan_site(ci, &mut sites);
            }
        }
        sites
    }

    /// Parses the parameter list of a fn whose signature starts at `k`
    /// (the token after the fn name).
    fn fn_params(&self, mut k: usize) -> Vec<Param> {
        if self.txt(k) == "<" {
            k = self.skip_angles(k);
        }
        if self.txt(k) != "(" {
            return Vec::new();
        }
        let Some(close) = self.match_delim(k) else {
            return Vec::new();
        };
        let mut params = Vec::new();
        let mut j = k + 1;
        while j < close {
            // A binder is an ident directly followed by `:` (not `::`) at
            // any nesting — destructured-tuple params are rare enough that
            // only the `name: Type` shape is recognized.
            let is_binder = self.kind(j) == Some(TokenKind::Ident)
                && self.txt(j + 1) == ":"
                && self.txt(j + 2) != ":"
                && self.txt(j.wrapping_sub(1)) != ":";
            if !is_binder {
                j += 1;
                continue;
            }
            let name = self.txt(j).trim_start_matches("r#").to_string();
            // Type text runs to the `,` that closes this parameter.
            let mut ty = String::new();
            let mut depth: i32 = 0;
            let mut angle: i32 = 0;
            let mut t = j + 2;
            while t < close {
                let s = self.txt(t);
                match s {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" => angle += 1,
                    ">" if self.txt(t.wrapping_sub(1)) != "-" => angle -= 1,
                    "," if depth == 0 && angle <= 0 => break,
                    _ => {}
                }
                if !ty.is_empty() {
                    ty.push(' ');
                }
                ty.push_str(s);
                t += 1;
            }
            params.push(Param { name, ty });
            j = t + 1;
        }
        params
    }

    /// Finds every closure in `[b0, b1)` and computes its capture set
    /// against the enclosing fn's bindings (params and `let`s).
    fn extract_closures(&self, b0: usize, b1: usize, def: &mut FnDef) {
        let spans = self.closure_spans(b0, b1);
        if spans.is_empty() {
            return;
        }
        // Outer bindings: (name, code index where visible, interior-mut).
        let mut outer: Vec<(String, usize, bool)> = def
            .params
            .iter()
            .map(|p| {
                let interior = p.ty.split(' ').any(interior_mut_type_token);
                (p.name.clone(), b0, interior)
            })
            .collect();
        let mut ci = b0;
        while ci < b1 {
            if self.txt(ci) == "let" {
                // Binders run to the `=` / `;` closing the pattern; the
                // annotation/initializer window decides interior mutability.
                let mut names = Vec::new();
                let mut j = ci + 1;
                let mut depth: u32 = 0;
                while j < b1 {
                    match self.txt(j) {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                        "=" | ";" if depth == 0 => break,
                        s if self.kind(j) == Some(TokenKind::Ident)
                            && !matches!(s, "mut" | "ref")
                            && s.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') =>
                        {
                            names.push(s.to_string());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let mut interior = false;
                let mut d: u32 = 0;
                for k in ci + 1..(j + 60).min(b1) {
                    match self.txt(k) {
                        "(" | "[" | "{" => d += 1,
                        ")" | "]" | "}" => d = d.saturating_sub(1),
                        ";" if d == 0 && k > j => break,
                        s if interior_mut_type_token(s) => interior = true,
                        _ => {}
                    }
                }
                for name in names {
                    outer.push((name, ci, interior));
                }
            }
            ci += 1;
        }

        for span in &spans {
            let mut shadowed = self.binder_names(span.p0, span.p1);
            self.collect_local_binders(span.b0, span.b1, &mut shadowed);
            // Nested closures' parameters shadow too.
            for nested in &spans {
                if nested.start > span.start && nested.b1 <= span.b1 {
                    shadowed.extend(self.binder_names(nested.p0, nested.p1));
                }
            }
            let mut caps: std::collections::BTreeMap<String, (CaptureMode, bool)> =
                std::collections::BTreeMap::new();
            for k in span.b0..span.b1 {
                if self.kind(k) != Some(TokenKind::Ident) {
                    continue;
                }
                let name = self.txt(k);
                if shadowed.contains(name) {
                    continue;
                }
                // Skip field accesses, path segments, and struct-literal
                // field names: none of them reference an outer binding.
                let prev = self.txt(k.wrapping_sub(1));
                if prev == "." || prev == ":" {
                    continue;
                }
                if self.txt(k + 1) == ":" && self.txt(k + 2) != ":" {
                    continue;
                }
                let Some(&(_, _, interior_ty)) = outer
                    .iter()
                    .rev()
                    .find(|(n, decl, _)| n == name && *decl < span.start)
                else {
                    continue;
                };
                let (mutated, interior_use) = self.mutation_at(k);
                let entry = caps
                    .entry(name.to_string())
                    .or_insert((CaptureMode::ByRef, false));
                if mutated {
                    entry.0 = CaptureMode::ByMutRef;
                }
                if interior_use || interior_ty {
                    entry.1 = true;
                }
            }
            let captures = caps
                .into_iter()
                .map(|(name, (mode, interior_mut))| Capture {
                    name,
                    mode: if span.is_move && mode == CaptureMode::ByRef {
                        CaptureMode::ByMove
                    } else {
                        mode
                    },
                    interior_mut,
                })
                .collect();
            let walk_from = if span.is_move {
                span.start.wrapping_sub(1)
            } else {
                span.start
            };
            def.closures.push(ClosureSite {
                line: self.line(span.start),
                is_move: span.is_move,
                handed_to: self.enclosing_call(walk_from, b0),
                captures,
            });
        }
    }

    /// Whether the ident at `k` is used mutably at this occurrence, and
    /// whether the use goes through an interior-mutability method.
    fn mutation_at(&self, k: usize) -> (bool, bool) {
        let mut mutated = false;
        let mut interior = false;
        // `&mut name`.
        if k >= 2 && self.txt(k - 1) == "mut" && self.txt(k - 2) == "&" {
            mutated = true;
        }
        // Method receiver: `name.method(` / `name[i].method(`.
        let mut m = k + 1;
        if self.txt(m) == "[" {
            if let Some(c) = self.match_delim(m) {
                m = c + 1;
            }
        }
        if self.txt(m) == "."
            && self.kind(m + 1) == Some(TokenKind::Ident)
            && self.txt(m + 2) == "("
        {
            let meth = self.txt(m + 1);
            if MUT_METHODS.contains(&meth) || meth.starts_with("sort") {
                mutated = true;
            }
            if INTERIOR_MUT_METHODS.contains(&meth) {
                interior = true;
            }
        }
        // Assignment / compound assignment: `name = …`, `name += …`,
        // `name[i] -= …` (the index was already skipped above).
        match self.txt(m) {
            "=" if self.txt(m + 1) != "=" => mutated = true,
            "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|"
                if self.txt(m + 1) == "=" && self.txt(m + 2) != "=" =>
            {
                mutated = true;
            }
            _ => {}
        }
        (mutated, interior)
    }

    /// Binder names in a closure parameter list `[p0, p1)`: idents outside
    /// type-annotation positions.
    fn binder_names(&self, p0: usize, p1: usize) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut k = p0;
        while k < p1 {
            match self.txt(k) {
                ":" if self.txt(k + 1) != ":" => {
                    // Skip the annotation until a depth-0 `,`.
                    let mut depth: i32 = 0;
                    k += 1;
                    while k < p1 {
                        match self.txt(k) {
                            "(" | "[" | "{" | "<" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ">" if self.txt(k.wrapping_sub(1)) != "-" => depth -= 1,
                            "," if depth <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                s if self.kind(k) == Some(TokenKind::Ident) && !matches!(s, "mut" | "ref") => {
                    out.insert(s.to_string());
                    k += 1;
                }
                _ => k += 1,
            }
        }
        out
    }

    /// Adds every binder declared inside `[b0, b1)` (`let` patterns, `for`
    /// binders, `match`-arm and `if let` patterns are approximated by their
    /// lowercase idents) to `out`.
    fn collect_local_binders(&self, b0: usize, b1: usize, out: &mut BTreeSet<String>) {
        let mut ci = b0;
        while ci < b1 {
            let t = self.txt(ci);
            if t == "let" {
                let mut j = ci + 1;
                let mut depth: u32 = 0;
                while j < b1 {
                    match self.txt(j) {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                        "=" | ";" if depth == 0 => break,
                        s if self.kind(j) == Some(TokenKind::Ident)
                            && !matches!(s, "mut" | "ref")
                            && s.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') =>
                        {
                            out.insert(s.to_string());
                        }
                        _ => {}
                    }
                    j += 1;
                }
            } else if t == "for" && self.kind(ci) == Some(TokenKind::Ident) {
                let mut j = ci + 1;
                while j < b1 && self.txt(j) != "in" && self.txt(j) != "{" {
                    if self.kind(j) == Some(TokenKind::Ident)
                        && !matches!(self.txt(j), "mut" | "ref")
                    {
                        out.insert(self.txt(j).to_string());
                    }
                    j += 1;
                }
            }
            ci += 1;
        }
    }

    /// Name of the innermost call the token at `k` is an argument of, found
    /// by walking backwards to an unmatched `(` preceded by an ident.
    fn enclosing_call(&self, mut k: usize, b0: usize) -> Option<String> {
        let mut depth: u32 = 0;
        while k > b0 {
            k -= 1;
            match self.txt(k) {
                ")" | "]" | "}" => depth += 1,
                "(" => {
                    if depth > 0 {
                        depth -= 1;
                    } else {
                        return (self.kind(k.wrapping_sub(1)) == Some(TokenKind::Ident)
                            && !NON_CALL_KEYWORDS.contains(&self.txt(k.wrapping_sub(1))))
                        .then(|| {
                            self.txt(k.wrapping_sub(1))
                                .trim_start_matches("r#")
                                .to_string()
                        });
                    }
                }
                "[" | "{" => {
                    if depth > 0 {
                        depth -= 1;
                    } else {
                        return None;
                    }
                }
                ";" if depth == 0 => return None,
                _ => {}
            }
        }
        None
    }

    /// `debug_assert*!(…)` invocations as inclusive code-index spans.
    fn debug_assert_spans(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for ci in 0..self.code.len() {
            if self.kind(ci) == Some(TokenKind::Ident)
                && self.txt(ci).starts_with("debug_assert")
                && self.txt(ci + 1) == "!"
                && matches!(self.txt(ci + 2), "(" | "[" | "{")
            {
                if let Some(close) = self.match_delim(ci + 2) {
                    out.push((ci, close));
                }
            }
        }
        out
    }

    /// Loop scopes in `[b0, b1)` as half-open interior code-index ranges:
    /// `for`/`while`/`loop` bodies and closure bodies.
    fn loop_scopes(&self, b0: usize, b1: usize) -> Vec<(usize, usize)> {
        let mut scopes = Vec::new();
        let mut ci = b0;
        while ci < b1 {
            let t = self.txt(ci);
            if self.kind(ci) == Some(TokenKind::Ident)
                && matches!(t, "for" | "while" | "loop")
                && self.txt(ci + 1) != "<"
            {
                // Header: first `{` outside parens/brackets opens the body.
                let mut k = ci + 1;
                let mut depth: u32 = 0;
                loop {
                    match self.txt(k) {
                        "" | ";" => break,
                        "(" | "[" => {
                            depth += 1;
                            k += 1;
                        }
                        ")" | "]" => {
                            depth = depth.saturating_sub(1);
                            k += 1;
                        }
                        "{" if depth == 0 => {
                            if let Some(close) = self.match_delim(k) {
                                scopes.push((k + 1, close));
                            }
                            break;
                        }
                        _ => k += 1,
                    }
                }
            }
            ci += 1;
        }
        scopes.extend(self.closure_spans(b0, b1).into_iter().map(|c| (c.b0, c.b1)));
        scopes
    }

    /// Closure expressions in `[b0, b1)` with their parameter and body spans.
    fn closure_spans(&self, b0: usize, b1: usize) -> Vec<ClosureSpan> {
        let mut out = Vec::new();
        let mut ci = b0;
        while ci < b1 {
            if self.txt(ci) != "|"
                || ci == b0
                || !CLOSURE_STARTERS.contains(&self.txt(ci.wrapping_sub(1)))
            {
                ci += 1;
                continue;
            }
            // Closure: `|params| body` or `|| body`.
            let params_end = if self.txt(ci + 1) == "|" {
                ci + 1
            } else {
                let mut k = ci + 1;
                let mut depth: u32 = 0;
                loop {
                    match self.txt(k) {
                        "" | ";" | "{" => break,
                        "(" | "[" => {
                            depth += 1;
                            k += 1;
                        }
                        ")" | "]" => {
                            depth = depth.saturating_sub(1);
                            k += 1;
                        }
                        "<" => k = self.skip_angles(k),
                        "|" if depth == 0 => break,
                        _ => k += 1,
                    }
                }
                k
            };
            if self.txt(params_end) != "|" {
                ci += 1;
                continue;
            }
            let mut k = params_end + 1;
            if self.txt(k) == "-" && self.txt(k + 1) == ">" {
                // Return type forces a braced body.
                k += 2;
                while !matches!(self.txt(k), "{" | "" | ";") {
                    k = if self.txt(k) == "<" {
                        self.skip_angles(k)
                    } else {
                        k + 1
                    };
                }
            }
            let body = if self.txt(k) == "{" {
                self.match_delim(k).map(|close| (k + 1, close))
            } else {
                // Expression body: up to a depth-0 `,` `)` `}` `;`.
                let start = k;
                let mut depth: u32 = 0;
                loop {
                    match self.txt(k) {
                        "" => break,
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" if depth == 0 => break,
                        ")" | "]" | "}" => depth -= 1,
                        "," | ";" if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                (k > start).then_some((start, k))
            };
            if let Some((cb0, cb1)) = body {
                out.push(ClosureSpan {
                    start: ci,
                    p0: ci + 1,
                    p1: params_end,
                    b0: cb0,
                    b1: cb1,
                    is_move: self.txt(ci.wrapping_sub(1)) == "move",
                });
            }
            ci += 1;
        }
        out
    }

    /// If a call's argument list opens at `ci` (directly `(` or after a
    /// `::<…>` turbofish), returns the index of the `(`.
    fn paren_after(&self, ci: usize) -> Option<usize> {
        if self.txt(ci) == "(" {
            return Some(ci);
        }
        if self.txt(ci) == ":" && self.txt(ci + 1) == ":" && self.txt(ci + 2) == "<" {
            let j = self.skip_angles(ci + 2);
            if self.txt(j) == "(" {
                return Some(j);
            }
        }
        None
    }

    /// Parses one `match` expression with `ci` at the keyword; records the
    /// arm alternatives on `def`. Nested matches are found by the caller's
    /// flat scan, so this does not recurse.
    fn parse_match(&self, ci: usize, b1: usize, def: &mut FnDef) {
        // Scrutinee: first `{` outside parens/brackets opens the arm block.
        let mut k = ci + 1;
        let mut depth: u32 = 0;
        let open = loop {
            if k >= b1 {
                return;
            }
            match self.txt(k) {
                "" | ";" => return,
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => break k,
                "{" => match self.match_delim(k) {
                    Some(c) => k = c,
                    None => return,
                },
                _ => {}
            }
            k += 1;
        };
        let Some(close) = self.match_delim(open) else {
            return;
        };
        let mut arms = Vec::new();
        let mut k = open + 1;
        while k < close {
            // Pattern region: up to `=>` at depth 0.
            let pat_start = k;
            let mut d: u32 = 0;
            let mut arrow = None;
            let mut j = k;
            while j < close {
                match self.txt(j) {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" | "}" => d = d.saturating_sub(1),
                    "=" if d == 0 && self.txt(j + 1) == ">" => {
                        arrow = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let Some(arrow) = arrow else { break };
            // A depth-0 `if` starts the guard; alternatives end there.
            let mut pat_end = arrow;
            let mut d: u32 = 0;
            for j in pat_start..arrow {
                match self.txt(j) {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" | "}" => d = d.saturating_sub(1),
                    "if" if d == 0 => {
                        pat_end = j;
                        break;
                    }
                    _ => {}
                }
            }
            // Split alternatives at depth-0 `|`.
            let mut alt_start = pat_start;
            let mut d: u32 = 0;
            for j in pat_start..=pat_end {
                let at_end = j == pat_end;
                let split = at_end
                    || match self.txt(j) {
                        "(" | "[" | "{" => {
                            d += 1;
                            false
                        }
                        ")" | "]" | "}" => {
                            d = d.saturating_sub(1);
                            false
                        }
                        "|" => d == 0,
                        _ => false,
                    };
                if split {
                    if j > alt_start {
                        arms.push(self.parse_alt(alt_start, j));
                    }
                    alt_start = j + 1;
                }
            }
            // Arm body: braced (skip) or expression (to a depth-0 `,`).
            let mut j = arrow + 2;
            if self.txt(j) == "{" {
                j = self.match_delim(j).map_or(close, |c| c + 1);
                if self.txt(j) == "," {
                    j += 1;
                }
            } else {
                let mut d: u32 = 0;
                while j < close {
                    match self.txt(j) {
                        "(" | "[" | "{" => d += 1,
                        ")" | "]" | "}" => d = d.saturating_sub(1),
                        "," if d == 0 => {
                            j += 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            k = j.max(k + 1);
        }
        def.matches.push(MatchExpr {
            line: self.line(ci),
            arms,
        });
    }

    /// Parses one arm alternative spanning `[s, e)` into its leading path
    /// and catch-all-ness.
    fn parse_alt(&self, s: usize, e: usize) -> MatchArm {
        let line = self.line(s);
        let mut k = s;
        while k < e && matches!(self.txt(k), "&" | "ref" | "mut" | "box") {
            k += 1;
        }
        if self.txt(k) == "_" {
            return MatchArm {
                line,
                head: Vec::new(),
                wildcard: true,
            };
        }
        let mut head = Vec::new();
        if self.kind(k) == Some(TokenKind::Ident) {
            head.push(self.txt(k).trim_start_matches("r#").to_string());
            k += 1;
            while self.txt(k) == ":" && self.txt(k + 1) == ":" {
                if self.kind(k + 2) == Some(TokenKind::Ident) {
                    head.push(self.txt(k + 2).trim_start_matches("r#").to_string());
                    k += 3;
                } else {
                    break;
                }
            }
        }
        // A single lowercase segment followed by nothing is a bare binding —
        // semantically a catch-all.
        let wildcard = head.len() == 1
            && k >= e
            && head[0].starts_with(|c: char| c.is_ascii_lowercase() || c == '_');
        MatchArm {
            line,
            head,
            wildcard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fns_enums_and_aliases_are_collected() {
        let src = r#"
pub enum CountingStrategy { Direct, HashTree, Auto }
use crate::helpers::run as go;
impl Foo {
    pub fn method(&self) -> u32 { helper() }
}
fn helper() -> u32 { 7 }
"#;
        let f = parse_file("crates/x/src/lib.rs", src);
        assert_eq!(f.enums.len(), 1);
        assert_eq!(f.enums[0].variants, vec!["Direct", "HashTree", "Auto"]);
        assert_eq!(f.aliases, vec![("go".to_string(), "run".to_string())]);
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "method");
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Foo"));
        assert_eq!(f.fns[0].calls.len(), 1);
        assert_eq!(f.fns[0].calls[0].name, "helper");
        assert!(f.fns[1].impl_type.is_none());
    }

    #[test]
    fn impl_trait_for_type_attributes_to_the_type() {
        let src = "impl std::fmt::Display for Bar { fn fmt(&self) {} }\n";
        let f = parse_file("x.rs", src);
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Bar"));
    }

    #[test]
    fn test_code_is_flagged_and_not_analyzed() {
        let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() { v.unwrap(); }
}
fn live() { x.unwrap(); }
"#;
        let f = parse_file("x.rs", src);
        let t = f.fns.iter().find(|g| g.name == "t").unwrap();
        assert!(t.is_test);
        assert!(t.sites.panics.is_empty());
        let live = f.fns.iter().find(|g| g.name == "live").unwrap();
        assert!(!live.is_test);
        assert_eq!(live.sites.panics.len(), 1);
    }

    #[test]
    fn innermost_loop_allocs_are_flagged_but_hoisted_ones_are_not() {
        let src = r#"
fn f(n: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let row = vec![i as u32, j as u32];
            out.push(row);
        }
    }
    out
}
"#;
        let f = parse_file("x.rs", src);
        let g = &f.fns[0];
        let hot: Vec<_> = g.allocs.iter().filter(|a| a.in_innermost_loop).collect();
        // `vec![…]` and the push into `out`? `out` is let-bound *outside*
        // the loop, so only the vec! macro is hot.
        assert_eq!(hot.len(), 1);
        assert!(hot[0].what.contains("vec!"));
        // The top-level Vec::new is not in any loop.
        assert!(g
            .allocs
            .iter()
            .any(|a| a.what.contains("Vec::new") && !a.in_innermost_loop));
    }

    #[test]
    fn closures_count_as_loop_scopes() {
        let src = r#"
fn f(v: &[u32]) -> Vec<Vec<u32>> {
    v.iter().map(|x| vec![*x]).collect()
}
"#;
        let f = parse_file("x.rs", src);
        let g = &f.fns[0];
        assert!(g
            .allocs
            .iter()
            .any(|a| a.what.contains("vec!") && a.in_innermost_loop));
        // The trailing `.collect()` is outside the closure.
        assert!(g
            .allocs
            .iter()
            .any(|a| a.what.contains("collect") && !a.in_innermost_loop));
    }

    #[test]
    fn match_arms_record_heads_and_wildcards() {
        let src = r#"
fn f(s: Strategy) -> u32 {
    match s {
        Strategy::A => 1,
        Strategy::B | Strategy::C => 2,
        _ => 0,
    }
}
"#;
        let f = parse_file("x.rs", src);
        let m = &f.fns[0].matches[0];
        assert_eq!(m.arms.len(), 4);
        assert_eq!(m.arms[0].head, vec!["Strategy", "A"]);
        assert_eq!(m.arms[2].head, vec!["Strategy", "C"]);
        assert!(m.arms[3].wildcard);
    }

    #[test]
    fn guards_do_not_extend_the_pattern_head() {
        let src = r#"
fn f(s: S, n: u32) -> u32 {
    match s {
        S::A if n > 3 => 1,
        other => 0,
    }
}
"#;
        let f = parse_file("x.rs", src);
        let m = &f.fns[0].matches[0];
        assert_eq!(m.arms[0].head, vec!["S", "A"]);
        assert!(!m.arms[0].wildcard);
        assert!(m.arms[1].wildcard);
    }

    #[test]
    fn turbofish_calls_and_qualified_paths_resolve() {
        let src = r#"
fn f() {
    let v = build::<u32>();
    crate::chunk::run_chunks(v);
    std::panic::resume_unwind(Box::new(1));
}
"#;
        let f = parse_file("x.rs", src);
        let calls: Vec<(&str, Vec<&str>)> = f.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.path.iter().map(String::as_str).collect()))
            .collect();
        assert!(calls.contains(&("build", vec![])));
        assert!(calls.contains(&("run_chunks", vec!["crate", "chunk"])));
        assert!(calls.contains(&("resume_unwind", vec!["std", "panic"])));
    }

    #[test]
    fn panic_in_a_path_is_not_a_panic_macro() {
        let src = "fn f(p: Box<dyn std::any::Any>) { std::panic::resume_unwind(p); }\n";
        let f = parse_file("x.rs", src);
        assert!(f.fns[0].sites.panics.is_empty());
    }

    #[test]
    fn debug_assert_interiors_are_skipped() {
        let src = "fn f(v: &[u32]) { debug_assert!(v.first().unwrap() < &10); }\n";
        let f = parse_file("x.rs", src);
        assert!(f.fns[0].sites.panics.is_empty());
    }

    #[test]
    fn closure_mut_capture_and_handed_to_are_recorded() {
        let src = r#"
fn count_bad(items: &[u32], threads: usize) -> Vec<u64> {
    let mut totals = vec![0u64; 4];
    map_chunks(items, threads, |chunk: &[u32]| {
        for &x in chunk {
            totals[(x as usize) % 4] += 1;
        }
    });
    totals
}
"#;
        let f = parse_file("x.rs", src);
        let c = &f.fns[0].closures[0];
        assert_eq!(c.handed_to.as_deref(), Some("map_chunks"));
        assert!(!c.is_move);
        let cap = c.captures.iter().find(|c| c.name == "totals").unwrap();
        assert_eq!(cap.mode, CaptureMode::ByMutRef);
        assert!(!cap.interior_mut);
        // `items`/`threads` appear only outside the closure; `chunk` and
        // `x` are closure-local.
        assert_eq!(c.captures.len(), 1);
    }

    #[test]
    fn move_closures_capture_params_by_move_and_locals_shadow() {
        let src = r#"
fn run<M: Fn(&[u32]) -> u64>(items: &[u32], map: M) -> u64 {
    scope.spawn(move || {
        let mut local = Vec::new();
        local.push(1);
        map(items)
    });
    0
}
"#;
        let f = parse_file("x.rs", src);
        let c = &f.fns[0].closures[0];
        assert!(c.is_move);
        assert_eq!(c.handed_to.as_deref(), Some("spawn"));
        let map = c.captures.iter().find(|c| c.name == "map").unwrap();
        assert_eq!(map.mode, CaptureMode::ByMove);
        // The loop-local scratch buffer is not a capture.
        assert!(c.captures.iter().all(|c| c.name != "local"));
    }

    #[test]
    fn interior_mutability_is_flagged_from_type_and_method() {
        let src = r#"
fn tally(hits: &AtomicU64, cells: &RefCell<Vec<u32>>) {
    spawn(|| hits.fetch_add(1, Ordering::Relaxed));
    spawn(|| cells.borrow_mut().push(1));
}
"#;
        let f = parse_file("x.rs", src);
        let cs = &f.fns[0].closures;
        assert_eq!(cs.len(), 2);
        assert!(cs[0]
            .captures
            .iter()
            .any(|c| c.name == "hits" && c.interior_mut));
        assert!(cs[1]
            .captures
            .iter()
            .any(|c| c.name == "cells" && c.interior_mut));
    }

    #[test]
    fn let_bound_closures_have_no_handed_to() {
        let src = r#"
fn f(n: u32) -> u32 {
    let add = |x: u32| x + n;
    add(3)
}
"#;
        let f = parse_file("x.rs", src);
        let c = &f.fns[0].closures[0];
        assert!(c.handed_to.is_none());
        let n = c.captures.iter().find(|c| c.name == "n").unwrap();
        assert_eq!(n.mode, CaptureMode::ByRef);
    }

    #[test]
    fn fn_params_record_names_and_types() {
        let src = "fn f(a: &mut Vec<u32>, b: usize) -> usize { b }\n";
        let f = parse_file("x.rs", src);
        let p = &f.fns[0].params;
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].name, "a");
        assert_eq!(p[0].ty, "& mut Vec < u32 >");
        assert_eq!(p[1].name, "b");
    }

    #[test]
    fn test_spans_are_exactly_the_cfg_test_items() {
        let src = r#"fn live() {}
#[cfg(test)]
mod tests {
    fn t() {}
}
#[test]
fn u() {}
#[cfg(not(test))]
fn prod() {}
#[cfg(any(test, feature = "x"))]
fn either() {}
#[cfg(test)]
thread_local! { static N: u32 = 0; }
fn after() {}
"#;
        let f = parse_file("x.rs", src);
        let spans: Vec<&str> = f.test_spans.iter().map(|&(s, e)| &src[s..e]).collect();
        assert_eq!(
            spans,
            vec![
                "#[cfg(test)]\nmod tests {\n    fn t() {}\n}",
                "#[cfg(test)]\nthread_local! { static N: u32 = 0; }"
            ]
        );
        assert!(!f.in_test(src.find("live").unwrap()));
        let test_fns: Vec<&str> = f
            .fns
            .iter()
            .filter(|g| g.is_test)
            .map(|g| g.name.as_str())
            .collect();
        assert_eq!(test_fns, vec!["t", "u"]);
        assert!(f.fns.iter().any(|g| g.name == "after"));
    }

    #[test]
    fn casts_rng_constructions_and_indexing_are_collected() {
        let src = r#"
use rand::thread_rng;
fn f(v: &[u32], n: usize) -> u32 {
    let mut rng = thread_rng();
    let x = n as u32 + (n as f64) as u32;
    debug_assert!(v[0] as usize == n);
    fn inner(v: &[u32]) -> u32 { v[1] }
    v[n] + [1u32, 2][0]
}
fn g(v: &[u32]) -> u32 {
    v[2] + [1u32, 2][0]
}
"#;
        let f = parse_file("x.rs", src);
        let s = &f.fns[0].sites;
        assert_eq!(s.rngs.len(), 1);
        assert_eq!(s.rngs[0].line, 4);
        let casts: Vec<&str> = s.casts.iter().map(|c| c.what.as_str()).collect();
        assert_eq!(casts, vec!["u32", "u32"]);
        // The debug_assert guards `f`'s own indexing but not that of the
        // nested fn, whose body states none; the debug_assert interior is
        // not scanned at all.
        assert_eq!(s.indexes, vec![7]);
        // `v[2]` and the literal's `[0]`; the array literal is no index.
        assert_eq!(f.fns[1].sites.indexes, vec![11, 11]);
    }

    #[test]
    fn code_outside_fn_bodies_is_scanned_into_loose_sites() {
        let src = r#"
const M: u32 = N as u32;
static R: LazyLock<u32> = LazyLock::new(|| S.parse().unwrap());
thread_local! { static RNG: RefCell<ThreadRng> = RefCell::new(thread_rng()); }
macro_rules! m {
    ($x:expr) => { $x.unwrap() };
}
const T: u32 = TABLE[3];
fn f() -> u32 { 1 as u32 }
#[cfg(test)]
const U: u32 = N as u32;
"#;
        let f = parse_file("x.rs", src);
        let l = &f.loose;
        let lines = |c: &[Construct]| c.iter().map(|c| c.line).collect::<Vec<_>>();
        assert_eq!(lines(&l.casts), vec![2]);
        assert_eq!(lines(&l.panics), vec![3, 6]);
        assert_eq!(lines(&l.rngs), vec![4]);
        assert_eq!(l.indexes, vec![8]);
        assert_eq!(f.fns[0].sites.casts.len(), 1);
    }

    #[test]
    fn macro_rules_bodies_hold_no_fns() {
        let src = r#"
macro_rules! m {
    ($x:expr) => { $x.unwrap() };
}
fn f() {}
"#;
        let f = parse_file("x.rs", src);
        assert_eq!(f.fns.len(), 1);
        assert!(f.fns[0].sites.panics.is_empty());
    }
}
