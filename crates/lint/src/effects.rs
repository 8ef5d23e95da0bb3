//! Interprocedural effect inference over the workspace call graph.
//!
//! For every non-test `fn` the engine computes a monotone *effect set* —
//! which of [`Effect`]'s six elements the fn may exhibit, directly or
//! through any call chain. Inference is a bottom-up fixpoint over the
//! condensation of [`crate::callgraph::CallGraph`] into strongly connected
//! components (iterative Tarjan, deterministic order): Tarjan emits SCCs
//! callee-first, so a single pass in emission order reaches the fixpoint,
//! with recursion handled by joining every member's intrinsic effects and
//! cross-SCC successors at the component level.
//!
//! Each effect is tracked on two parallel lattices:
//!
//! * `inferred` — the effect reaches the fn from *any* intrinsic site;
//! * `inferred_unsanctioned` — it reaches the fn from an intrinsic site
//!   *outside* the effect's sanctioned zone (stats.rs for wall-clock, the
//!   I/O layer for I/O; see `rules::is_*_sanctioned_path`).
//!
//! The split is what keeps suppression site-granular: a kernel calling
//! `Stopwatch::start` gets a *boundary* finding at its own call line
//! (callee carries the effect, but only from sanctioned sites), while a
//! stray `Instant::now()` in a helper gets a *source-site* finding at the
//! helper line. Suppressing one chain never silences the others.
//!
//! Witness chains are hop-minimal: a reverse multi-source BFS per effect
//! (sources = intrinsic holders, ascending; adjacency sorted) gives every
//! fn its nearest intrinsic site and next hop toward it, so ties break
//! deterministically and `effects.json` is byte-identical across runs.

use crate::callgraph::CallGraph;
use crate::parser::ParsedFile;
use crate::rules;

/// One element of the effect lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// May panic (`unwrap`/`expect`/panic-family macro).
    Panics,
    /// May allocate (vec!/collect/clone/Type::new/loop-local growth).
    Allocates,
    /// May perform file or stdio I/O.
    DoesIo,
    /// May read the wall clock (`Instant`/`SystemTime`/`.elapsed()`).
    WallClock,
    /// May spawn a thread.
    Spawns,
    /// May construct or acquire a lock (`Mutex`/`RwLock`/`.lock()`).
    Locks,
}

impl Effect {
    /// Every effect, in bit/serialization order.
    pub const ALL: [Effect; 6] = [
        Effect::Panics,
        Effect::Allocates,
        Effect::DoesIo,
        Effect::WallClock,
        Effect::Spawns,
        Effect::Locks,
    ];

    fn bit(self) -> u8 {
        match self {
            Effect::Panics => 1,
            Effect::Allocates => 1 << 1,
            Effect::DoesIo => 1 << 2,
            Effect::WallClock => 1 << 3,
            Effect::Spawns => 1 << 4,
            Effect::Locks => 1 << 5,
        }
    }

    /// Lowercase kebab name, as serialized in `effects.json`.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Panics => "panics",
            Effect::Allocates => "allocates",
            Effect::DoesIo => "does-io",
            Effect::WallClock => "wall-clock",
            Effect::Spawns => "spawns",
            Effect::Locks => "locks",
        }
    }

    /// Sanctioned zone of this effect: intrinsic sites in such files carry
    /// the effect on the `inferred` lattice only, not `unsanctioned`.
    fn sanctioned_in(self, path: &str) -> bool {
        match self {
            Effect::DoesIo => rules::is_io_sanctioned_path(path),
            Effect::WallClock => rules::is_clock_sanctioned_path(path),
            // Panics, allocation, spawns, and locks have no sanctioned
            // zone: wherever the site is, the effect is "real" there.
            Effect::Panics | Effect::Allocates | Effect::Spawns | Effect::Locks => false,
        }
    }
}

/// A subset of the six effects; join is bitwise-or (a finite lattice, so
/// the SCC fixpoint terminates trivially).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectSet(u8);

impl EffectSet {
    /// The empty set (lattice bottom).
    pub fn empty() -> EffectSet {
        EffectSet(0)
    }

    /// True if `e` is in the set.
    pub fn contains(self, e: Effect) -> bool {
        self.0 & e.bit() != 0
    }

    /// Adds `e`.
    pub fn insert(&mut self, e: Effect) {
        self.0 |= e.bit();
    }

    /// Lattice join (set union).
    pub fn join(&mut self, other: EffectSet) {
        self.0 |= other.0;
    }

    /// True when no effect is present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Members in [`Effect::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = Effect> {
        Effect::ALL.into_iter().filter(move |e| self.contains(*e))
    }
}

/// One intrinsic effect site: the line where a fn exhibits an effect
/// directly (not through a call).
#[derive(Debug)]
pub struct Site {
    /// Call-graph node the site belongs to.
    pub node: usize,
    /// Which effect.
    pub effect: Effect,
    /// 1-based line.
    pub line: u32,
    /// Human-readable construct, e.g. "`Instant::now()`".
    pub what: String,
    /// True when the site's file is inside the effect's sanctioned zone.
    pub sanctioned: bool,
}

/// Inference result over one call graph.
pub struct EffectTable {
    /// Per node: effects from the node's own sites.
    pub intrinsic: Vec<EffectSet>,
    /// Per node: intrinsic effects from unsanctioned sites only.
    pub intrinsic_unsanctioned: Vec<EffectSet>,
    /// Per node: the fixpoint — effects reachable through any call chain.
    pub inferred: Vec<EffectSet>,
    /// Per node: the fixpoint over unsanctioned sites only.
    pub inferred_unsanctioned: Vec<EffectSet>,
    /// Every intrinsic site, ordered by (node, effect, line).
    pub sites: Vec<Site>,
    /// SCCs in Tarjan emission order (callees before callers).
    pub sccs: Vec<Vec<usize>>,
    /// Per effect (in `Effect::ALL` order), per node: the next hop toward
    /// the nearest intrinsic holder (`node` itself when intrinsic;
    /// `usize::MAX` when the effect is absent).
    next_hop: [Vec<usize>; 6],
}

/// Method names that perform I/O when they do not resolve to a workspace
/// fn (then the effect flows through the resolved callee instead).
const IO_METHODS: &[&str] = &[
    "read",
    "write",
    "read_exact",
    "read_exact_at",
    "write_all",
    "write_fmt",
    "read_to_end",
    "read_to_string",
    "read_line",
    "flush",
    "seek",
    "rewind",
    "sync_all",
    "set_len",
];

/// Path qualifiers that mark a call as I/O regardless of the method name
/// (`File::open`, `fs::read`, `io::stdout`, …).
const IO_QUALIFIERS: &[&str] = &["File", "OpenOptions", "fs", "io"];

/// Path qualifiers that mark a call as a wall-clock read.
const CLOCK_QUALIFIERS: &[&str] = &["Instant", "SystemTime"];

/// Path qualifiers that mark a call as lock construction/acquisition.
const LOCK_QUALIFIERS: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Runs the full inference: intrinsic classification, Tarjan condensation,
/// and the bottom-up fixpoint on both lattices.
pub fn infer(files: &[ParsedFile], graph: &CallGraph) -> EffectTable {
    let n = graph.nodes.len();
    let mut intrinsic = vec![EffectSet::empty(); n];
    let mut intrinsic_unsanctioned = vec![EffectSet::empty(); n];
    let mut sites: Vec<Site> = Vec::new();

    for (node, &(fi, gi)) in graph.nodes.iter().enumerate() {
        let path = files[fi].path.as_str();
        let f = &files[fi].fns[gi];
        let mut add = |effect: Effect, line: u32, what: String| {
            let sanctioned = effect.sanctioned_in(path);
            intrinsic[node].insert(effect);
            if !sanctioned {
                intrinsic_unsanctioned[node].insert(effect);
            }
            sites.push(Site {
                node,
                effect,
                line,
                what,
                sanctioned,
            });
        };
        for p in &f.sites.panics {
            add(Effect::Panics, p.line, p.what.clone());
        }
        for a in &f.allocs {
            add(Effect::Allocates, a.line, a.what.clone());
        }
        for io in &f.ios {
            add(Effect::DoesIo, io.line, io.what.clone());
        }
        for (ci, c) in f.calls.iter().enumerate() {
            let unresolved = graph.resolved_targets(node, ci).is_empty();
            let qual = c.path.last().map(String::as_str);
            let rendered = || {
                if c.is_method {
                    format!("`.{}()`", c.name)
                } else if let Some(q) = qual {
                    format!("`{q}::{}()`", c.name)
                } else {
                    format!("`{}()`", c.name)
                }
            };
            if c.name == "spawn" {
                add(Effect::Spawns, c.line, rendered());
            }
            if (c.is_method && c.name == "lock")
                || qual.is_some_and(|q| LOCK_QUALIFIERS.contains(&q))
            {
                add(Effect::Locks, c.line, rendered());
            }
            // `.elapsed()` is always intrinsic, resolved or not: resolving
            // it to `Stopwatch::elapsed` (whose own body is again
            // `.elapsed()`, a self-loop) would otherwise lose the effect.
            if qual.is_some_and(|q| CLOCK_QUALIFIERS.contains(&q))
                || (c.is_method && c.name == "elapsed")
            {
                add(Effect::WallClock, c.line, rendered());
            }
            let io_shaped = c.path.iter().any(|s| IO_QUALIFIERS.contains(&s.as_str()))
                || IO_METHODS.contains(&c.name.as_str());
            if io_shaped && unresolved {
                add(Effect::DoesIo, c.line, rendered());
            }
        }
    }
    sites.sort_by_key(|a| (a.node, a.effect, a.line));

    let sccs = tarjan_sccs(graph);

    // Bottom-up fixpoint. Tarjan emits SCCs callee-first, so by the time a
    // component is processed every cross-component successor is final; the
    // component-level join handles cycles in one step.
    let mut inferred = intrinsic.clone();
    let mut inferred_unsanctioned = intrinsic_unsanctioned.clone();
    let mut scc_of = vec![usize::MAX; n];
    for (si, scc) in sccs.iter().enumerate() {
        for &m in scc {
            scc_of[m] = si;
        }
    }
    for (si, scc) in sccs.iter().enumerate() {
        let mut all = EffectSet::empty();
        let mut uns = EffectSet::empty();
        for &m in scc {
            all.join(intrinsic[m]);
            uns.join(intrinsic_unsanctioned[m]);
            for &e in graph.edges_of(m) {
                if scc_of[e] != si {
                    all.join(inferred[e]);
                    uns.join(inferred_unsanctioned[e]);
                }
            }
        }
        for &m in scc {
            inferred[m] = all;
            inferred_unsanctioned[m] = uns;
        }
    }

    // Witness next-hop tables: one reverse multi-source BFS per effect from
    // the intrinsic holders (on the `inferred` lattice, sanctioned sites
    // included — a witness chain must exist whenever the effect does).
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for node in 0..n {
        for &e in graph.edges_of(node) {
            rev[e].push(node);
        }
    }
    for r in &mut rev {
        r.sort_unstable();
        r.dedup();
    }
    let next_hop = Effect::ALL.map(|effect| {
        let mut hop = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for node in 0..n {
            if intrinsic[node].contains(effect) {
                hop[node] = node;
                queue.push_back(node);
            }
        }
        while let Some(node) = queue.pop_front() {
            for &caller in &rev[node] {
                if hop[caller] == usize::MAX {
                    hop[caller] = node;
                    queue.push_back(caller);
                }
            }
        }
        hop
    });

    EffectTable {
        intrinsic,
        intrinsic_unsanctioned,
        inferred,
        inferred_unsanctioned,
        sites,
        sccs,
        next_hop,
    }
}

impl EffectTable {
    /// Hop-minimal witness chain from `node` to the nearest intrinsic site
    /// of `effect`, rendered as
    /// `"a -> b -> c (`what` at path:line)"`. `None` when absent.
    pub fn witness(
        &self,
        files: &[ParsedFile],
        graph: &CallGraph,
        node: usize,
        effect: Effect,
    ) -> Option<String> {
        let ei = Effect::ALL.iter().position(|&e| e == effect)?;
        let hops = &self.next_hop[ei];
        if hops.get(node).copied().unwrap_or(usize::MAX) == usize::MAX {
            return None;
        }
        let mut names: Vec<&str> = Vec::new();
        let mut at = node;
        loop {
            let (fi, gi) = graph.nodes[at];
            names.push(files[fi].fns[gi].name.as_str());
            let next = hops[at];
            if next == at {
                break;
            }
            at = next;
        }
        let (fi, _) = graph.nodes[at];
        let site = self
            .sites
            .iter()
            .find(|s| s.node == at && s.effect == effect)?;
        Some(format!(
            "{} ({} at {}:{})",
            names.join(" -> "),
            site.what,
            files[fi].path,
            site.line
        ))
    }
}

/// Iterative Tarjan over nodes in index order with sorted adjacency: the
/// SCC partition *and* its emission order are deterministic, and emission
/// order is callee-first (reverse topological over the condensation).
fn tarjan_sccs(graph: &CallGraph) -> Vec<Vec<usize>> {
    let n = graph.nodes.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next edge position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, 0));
        while let Some(&(v, ei)) = frames.last() {
            if ei == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = graph.edges_of(v).get(ei) {
                frames.last_mut().expect("frame just read").1 += 1;
                if index[w] == UNSET {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// Renders the deterministic `effects.json` artifact: one entry per call
/// graph node in node order, with inferred/unsanctioned/intrinsic effect
/// lists and one witness chain per inferred effect. Pure function of the
/// parsed workspace — byte-identical across runs.
pub fn to_json(files: &[ParsedFile], graph: &CallGraph, table: &EffectTable) -> String {
    let esc = crate::engine::json_escape;
    let list = |set: EffectSet| -> String {
        set.iter()
            .map(|e| format!("\"{}\"", e.name()))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"seqpat-effects-v1\",\n");
    s.push_str(&format!("  \"functions\": {},\n", graph.nodes.len()));
    s.push_str(&format!("  \"sccs\": {},\n", table.sccs.len()));
    s.push_str("  \"fns\": [");
    for (node, &(fi, gi)) in graph.nodes.iter().enumerate() {
        let f = &files[fi].fns[gi];
        if node > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"path\": \"{}\", ", esc(&files[fi].path)));
        s.push_str(&format!("\"fn\": \"{}\", ", esc(&f.name)));
        match &f.impl_type {
            Some(t) => s.push_str(&format!("\"impl\": \"{}\", ", esc(t))),
            None => s.push_str("\"impl\": null, "),
        }
        s.push_str(&format!("\"line\": {}, ", f.line));
        s.push_str(&format!("\"effects\": [{}], ", list(table.inferred[node])));
        s.push_str(&format!(
            "\"unsanctioned\": [{}], ",
            list(table.inferred_unsanctioned[node])
        ));
        s.push_str(&format!("\"intrinsic\": [{}]", list(table.intrinsic[node])));
        let witnesses: Vec<String> = table.inferred[node]
            .iter()
            .filter_map(|e| {
                table
                    .witness(files, graph, node, e)
                    .map(|w| format!("\"{}\": \"{}\"", e.name(), esc(&w)))
            })
            .collect();
        if witnesses.is_empty() {
            s.push('}');
        } else {
            s.push_str(&format!(", \"witness\": {{{}}}}}", witnesses.join(", ")));
        }
    }
    if !graph.nodes.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn setup(sources: &[(&str, &str)]) -> (Vec<ParsedFile>, CallGraph, EffectTable) {
        let files: Vec<ParsedFile> = sources.iter().map(|(p, s)| parse_file(p, s)).collect();
        let graph = CallGraph::build(&files);
        let table = infer(&files, &graph);
        (files, graph, table)
    }

    fn node(files: &[ParsedFile], g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|&(fi, gi)| files[fi].fns[gi].name == name)
            .unwrap()
    }

    #[test]
    fn effects_propagate_up_call_chains() {
        let (files, g, t) = setup(&[
            ("a.rs", "pub fn top() { mid(); }\n"),
            ("b.rs", "pub fn mid() { leaf(); }\n"),
            ("c.rs", "pub fn leaf() { x.unwrap(); let v = vec![1]; }\n"),
        ]);
        let top = node(&files, &g, "top");
        assert!(t.inferred[top].contains(Effect::Panics));
        assert!(t.inferred[top].contains(Effect::Allocates));
        assert!(t.intrinsic[top].is_empty());
    }

    #[test]
    fn mutual_recursion_converges_via_scc_join() {
        let (files, g, t) = setup(&[(
            "a.rs",
            "pub fn ping(n: u32) -> u32 { if n == 0 { println!(\"hi\"); 0 } else { pong(n) } }\n\
             pub fn pong(n: u32) -> u32 { ping(n - 1) }\n",
        )]);
        let ping = node(&files, &g, "ping");
        let pong = node(&files, &g, "pong");
        // Both halves of the cycle carry the I/O effect; only ping is
        // intrinsic. The pair forms one SCC.
        assert!(t.inferred[ping].contains(Effect::DoesIo));
        assert!(t.inferred[pong].contains(Effect::DoesIo));
        assert!(t.intrinsic[ping].contains(Effect::DoesIo));
        assert!(!t.intrinsic[pong].contains(Effect::DoesIo));
        assert!(t.sccs.iter().any(|s| s.len() == 2));
        // A witness exists from inside the cycle and terminates.
        let w = t.witness(&files, &g, pong, Effect::DoesIo).unwrap();
        assert!(w.starts_with("pong -> ping (`println!` at a.rs:"), "{w}");
    }

    #[test]
    fn sanctioned_sites_split_the_lattices() {
        let (files, g, t) = setup(&[
            (
                "crates/itemset/src/stats.rs",
                "impl Stopwatch { pub fn start() -> Stopwatch { Instant::now(); Stopwatch } }\n",
            ),
            (
                "crates/core/src/vertical.rs",
                "pub fn build_slice() { Stopwatch::start(); }\n",
            ),
        ]);
        let b = node(&files, &g, "build_slice");
        assert!(t.inferred[b].contains(Effect::WallClock));
        assert!(!t.inferred_unsanctioned[b].contains(Effect::WallClock));
    }

    #[test]
    fn elapsed_is_intrinsic_despite_self_resolution() {
        let (files, g, t) = setup(&[(
            "crates/itemset/src/stats.rs",
            "impl Stopwatch { pub fn elapsed(&self) -> u64 { self.started.elapsed() } }\n",
        )]);
        let e = node(&files, &g, "elapsed");
        assert!(t.intrinsic[e].contains(Effect::WallClock));
    }

    #[test]
    fn unresolved_io_methods_are_intrinsic_but_resolved_ones_flow() {
        let (files, g, t) = setup(&[
            (
                "crates/io/src/readat.rs",
                "impl ReadAt { pub fn read_exact_at(&self, o: u64) { \
                 std::os::unix::fs::FileExt::read_exact_at(&self.file, o); } }\n",
            ),
            (
                "crates/io/src/colstore.rs",
                "pub fn load_shard(r: &ReadAt) { r.read_exact_at(0); }\n",
            ),
        ]);
        let ra = node(&files, &g, "read_exact_at");
        let ls = node(&files, &g, "load_shard");
        // The fs-qualified full-path call is the intrinsic site; the method
        // call in load_shard resolves to it and only inherits the effect.
        assert!(t.intrinsic[ra].contains(Effect::DoesIo));
        assert!(!t.intrinsic[ls].contains(Effect::DoesIo));
        assert!(t.inferred[ls].contains(Effect::DoesIo));
        // Both are in the sanctioned zone.
        assert!(!t.inferred_unsanctioned[ls].contains(Effect::DoesIo));
    }

    #[test]
    fn spawns_and_locks_are_classified() {
        let (files, g, t) = setup(&[(
            "crates/itemset/src/parallel.rs",
            "pub fn map_chunks() { std::thread::scope(|s| { s.spawn(|| work()); }); }\n\
             pub fn guarded() { let m = Mutex::new(0); m.lock(); }\n",
        )]);
        let mc = node(&files, &g, "map_chunks");
        let gd = node(&files, &g, "guarded");
        assert!(t.intrinsic[mc].contains(Effect::Spawns));
        assert!(t.intrinsic[gd].contains(Effect::Locks));
        assert!(!t.intrinsic[mc].contains(Effect::Locks));
    }

    #[test]
    fn effects_json_is_deterministic_and_names_effects() {
        let sources = [
            ("a.rs", "pub fn top() { leaf(); }\n"),
            ("b.rs", "pub fn leaf() { x.unwrap(); }\n"),
        ];
        let (files, g, t) = setup(&sources);
        let j1 = to_json(&files, &g, &t);
        let (files2, g2, t2) = setup(&sources);
        let j2 = to_json(&files2, &g2, &t2);
        assert_eq!(j1, j2);
        assert!(j1.contains("\"fn\": \"top\""));
        assert!(j1.contains("\"effects\": [\"panics\"]"));
        assert!(j1.contains("top -> leaf (`.unwrap()` at b.rs:1)"));
    }
}
