//! The workspace-wide function-level call graph.
//!
//! Built from the [`crate::parse`] item tree: every call site in every
//! function body is extracted and resolved against the workspace's own
//! functions. Resolution is deliberately name-based (there is no type
//! system here) but *honest about it*: a call that matches more than
//! one candidate at its narrowest scope is recorded as an unresolved
//! edge and surfaced in the report rather than silently dropped, so the
//! transitive rules' blind spots are visible, reviewable facts.
//!
//! Resolution order, most specific wins:
//! - free calls (`helper(..)`): same module → unique in same crate →
//!   unique among crates the file names (`pageforge_*` idents);
//! - method calls (`x.helper(..)`): `self.helper(..)` in an impl block
//!   → unique same-type inherent impl in the caller's crate; otherwise
//!   unique among methods in the caller's crate → unique among visible
//!   crates;
//! - qualified calls (`Type::helper`, `module::helper`): last path
//!   segment must match the candidate's self type, module, or crate
//!   (`Self`/`crate`/`self`/`super` map to the caller's scope).
//!
//! Calls that match *nothing* are external (std / vendored) and are
//! not edges; the workspace cannot panic or lock inside code it does
//! not contain.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Tok, TokKind};
use crate::parse::FnDef;

/// One extracted call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Token index of the callee name in the file's stream.
    pub tok: usize,
    /// 1-based source line of the callee name.
    pub line: u32,
    /// Bare callee name.
    pub name: String,
    /// Path segments before the name (`["Scan", "Table"]` style), empty
    /// for free and method calls.
    pub quals: Vec<String>,
    /// Whether this is a `.name(..)` method call.
    pub method: bool,
    /// For method calls whose receiver is a single identifier
    /// (`recv.name(..)`), that identifier; `None` for chained or
    /// compound receivers (`a.b.name(..)`, `f().name(..)`).
    pub recv: Option<String>,
}

/// A call that matched more than one workspace candidate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Unresolved {
    /// File containing the call.
    pub path: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Callee name as written.
    pub name: String,
    /// How many candidates tied.
    pub candidates: usize,
}

/// The resolved workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All function definitions, in file order.
    pub fns: Vec<FnDef>,
    /// Per-function extracted call sites (token order).
    pub sites: Vec<Vec<CallSite>>,
    /// Per-function `(site index, callee fn index)` resolutions.
    pub resolved: Vec<Vec<(usize, usize)>>,
    /// Per-function deduplicated, sorted callee indices.
    pub edges: Vec<Vec<usize>>,
    /// Ambiguous calls, sorted; reported, never dropped.
    pub unresolved: Vec<Unresolved>,
    /// Calls only the method-receiver tier could resolve (a unique
    /// same-type inherent impl for a `self.name(..)` call that the
    /// crate-wide name tiers would have left ambiguous).
    pub receiver_resolved: usize,
    /// File path → indices of functions defined there.
    pub by_path: BTreeMap<String, Vec<usize>>,
}

/// Identifiers that look like calls but are control flow or bindings.
const CALL_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "dyn", "else", "enum", "fn", "for", "if", "impl",
    "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static", "struct",
    "trait", "type", "union", "unsafe", "use", "where", "while", "yield",
];

impl CallGraph {
    /// Builds the graph over `files` (test-stripped token streams keyed
    /// by workspace-relative path) and their parsed functions.
    pub fn build(files: &[(String, Vec<Tok>)], fns: Vec<FnDef>) -> CallGraph {
        let toks_by_path: BTreeMap<&str, &[Tok]> = files
            .iter()
            .map(|(rel, toks)| (rel.as_str(), toks.as_slice()))
            .collect();
        let visible = visible_crates(files);

        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_path: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
            by_path.entry(f.path.clone()).or_default().push(i);
        }

        let mut sites = Vec::with_capacity(fns.len());
        let mut resolved = Vec::with_capacity(fns.len());
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        let mut unresolved: Vec<Unresolved> = Vec::new();
        let mut receiver_resolved = 0usize;

        for f in &fns {
            let toks = toks_by_path.get(f.path.as_str()).copied().unwrap_or(&[]);
            let fsites = extract_calls(toks, f.body.0, f.body.1);
            let vis = visible.get(&f.path).cloned().unwrap_or_default();
            let mut fres = Vec::new();
            let mut fedges = BTreeSet::new();
            for (si, site) in fsites.iter().enumerate() {
                match resolve(site, f, &fns, &by_name, &vis) {
                    Resolution::Edge(callee) => {
                        fres.push((si, callee));
                        fedges.insert(callee);
                    }
                    Resolution::ReceiverEdge(callee) => {
                        receiver_resolved += 1;
                        fres.push((si, callee));
                        fedges.insert(callee);
                    }
                    Resolution::Ambiguous(n) => unresolved.push(Unresolved {
                        path: f.path.clone(),
                        line: site.line,
                        name: site.name.clone(),
                        candidates: n,
                    }),
                    Resolution::External => {}
                }
            }
            sites.push(fsites);
            resolved.push(fres);
            edges.push(fedges.into_iter().collect());
        }
        unresolved.sort();
        unresolved.dedup();

        CallGraph {
            fns,
            sites,
            resolved,
            edges,
            unresolved,
            receiver_resolved,
            by_path,
        }
    }

    /// Total number of resolved (caller, callee) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// BFS from `roots` (visited in sorted order, so parents — and
    /// therefore reported chains — are deterministic). Returns
    /// `fn index → parent fn index` (`None` for roots).
    pub fn reachable(&self, roots: &[usize]) -> BTreeMap<usize, Option<usize>> {
        let mut sorted: Vec<usize> = roots.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for r in sorted {
            parent.insert(r, None);
            queue.push_back(r);
        }
        while let Some(f) = queue.pop_front() {
            for &callee in &self.edges[f] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                    e.insert(Some(f));
                    queue.push_back(callee);
                }
            }
        }
        parent
    }

    /// The root→`id` chain of qualified names for a reachability map
    /// produced by [`CallGraph::reachable`].
    pub fn chain(&self, parent: &BTreeMap<usize, Option<usize>>, id: usize) -> String {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(Some(p)) = parent.get(&cur) {
            path.push(*p);
            cur = *p;
        }
        path.reverse();
        path.iter()
            .map(|&i| self.fns[i].qual.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Which crates each file can plausibly call into: its own crate plus
/// every `pageforge_<name>` identifier it mentions (extern-crate paths
/// and `use` imports both surface those).
fn visible_crates(files: &[(String, Vec<Tok>)]) -> BTreeMap<String, BTreeSet<String>> {
    let mut map = BTreeMap::new();
    for (rel, toks) in files {
        let (own, _) = crate::parse::module_path(rel);
        let mut vis: BTreeSet<String> = BTreeSet::new();
        vis.insert(own);
        for t in toks {
            if t.kind == TokKind::Ident {
                if let Some(c) = t.text.strip_prefix("pageforge_") {
                    vis.insert(c.to_owned());
                }
            }
        }
        map.insert(rel.clone(), vis);
    }
    map
}

/// Extracts call sites from a body token range. Method calls are
/// `.name(`; free/qualified calls collect their leading `::` path.
/// Macro invocations (`name!`) never match because the name is
/// followed by `!`, not `(`.
pub fn extract_calls(toks: &[Tok], start: usize, end: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in start..end.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        if i > start && toks[i - 1].is_ident("fn") {
            continue; // nested definition, not a call
        }
        if i > start && toks[i - 1].is_punct('.') {
            // A receiver is only trustworthy when it is one bare
            // identifier: `x.name(..)` but not `a.b.name(..)` (the
            // leading `.` means `x` is itself a field access) and not
            // `f().name(..)` (the receiver is an expression).
            let recv = (i >= start + 2
                && toks[i - 2].kind == TokKind::Ident
                && !(i >= start + 3 && toks[i - 3].is_punct('.')))
            .then(|| toks[i - 2].text.clone());
            out.push(CallSite {
                tok: i,
                line: t.line,
                name: t.text.clone(),
                quals: Vec::new(),
                method: true,
                recv,
            });
            continue;
        }
        // Collect `seg :: seg :: name` backwards.
        let mut quals = Vec::new();
        let mut j = i;
        while j >= start + 3
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && toks[j - 3].kind == TokKind::Ident
        {
            quals.push(toks[j - 3].text.clone());
            j -= 3;
        }
        quals.reverse();
        out.push(CallSite {
            tok: i,
            line: t.line,
            name: t.text.clone(),
            quals,
            method: false,
            recv: None,
        });
    }
    out
}

enum Resolution {
    Edge(usize),
    /// An edge that only the receiver tier could pin down — counted
    /// separately so the report can show the tier pulling its weight.
    ReceiverEdge(usize),
    External,
    Ambiguous(usize),
}

fn pick(cands: &[usize]) -> Option<Resolution> {
    match cands.len() {
        0 => None,
        1 => Some(Resolution::Edge(cands[0])),
        n => Some(Resolution::Ambiguous(n)),
    }
}

fn resolve(
    site: &CallSite,
    caller: &FnDef,
    fns: &[FnDef],
    by_name: &BTreeMap<&str, Vec<usize>>,
    visible: &BTreeSet<String>,
) -> Resolution {
    let Some(all) = by_name.get(site.name.as_str()) else {
        return Resolution::External;
    };

    if site.method {
        let methods: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| fns[i].self_ty.is_some())
            .collect();
        let own: Vec<usize> = methods
            .iter()
            .copied()
            .filter(|&i| fns[i].crate_name == caller.crate_name)
            .collect();
        // Receiver tier: `self.name(..)` inside an impl block can only
        // dispatch to an impl of the caller's own type — the one
        // receiver whose type a name-based resolver knows exactly.
        // Runs before the crate tiers so a unique same-type match wins
        // over a same-crate name tie; edges the crate tier would have
        // found anyway stay plain so the tier's count is honest.
        if site.recv.as_deref() == Some("self") {
            if let Some(ty) = caller.self_ty.as_deref() {
                let own_ty: Vec<usize> = own
                    .iter()
                    .copied()
                    .filter(|&i| fns[i].self_ty.as_deref() == Some(ty))
                    .collect();
                if own_ty.len() == 1 {
                    return if own.len() == 1 {
                        Resolution::Edge(own_ty[0])
                    } else {
                        Resolution::ReceiverEdge(own_ty[0])
                    };
                }
            }
        }
        if let Some(r) = pick(&own) {
            return r;
        }
        let vis: Vec<usize> = methods
            .iter()
            .copied()
            .filter(|&i| visible.contains(&fns[i].crate_name))
            .collect();
        return pick(&vis).unwrap_or(Resolution::External);
    }

    if site.quals.is_empty() {
        let free: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| fns[i].self_ty.is_none())
            .collect();
        let same_module: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&i| fns[i].module == caller.module)
            .collect();
        if let Some(r) = pick(&same_module) {
            return r;
        }
        let own: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&i| fns[i].crate_name == caller.crate_name)
            .collect();
        if let Some(r) = pick(&own) {
            return r;
        }
        let vis: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&i| visible.contains(&fns[i].crate_name))
            .collect();
        return pick(&vis).unwrap_or(Resolution::External);
    }

    // Qualified call: match the last path segment against the
    // candidate's self type, module tail, or crate.
    let last = site.quals.last().unwrap().as_str();
    let matches_seg = |i: usize, seg: &str| -> bool {
        let f = &fns[i];
        f.self_ty.as_deref() == Some(seg)
            || f.module.rsplit("::").next() == Some(seg)
            || f.crate_name == seg
            || seg.strip_prefix("pageforge_") == Some(f.crate_name.as_str())
    };
    let cands: Vec<usize> = match last {
        "Self" => match caller.self_ty.as_deref() {
            Some(ty) => all
                .iter()
                .copied()
                .filter(|&i| fns[i].self_ty.as_deref() == Some(ty))
                .collect(),
            None => Vec::new(),
        },
        "crate" => all
            .iter()
            .copied()
            .filter(|&i| fns[i].crate_name == caller.crate_name)
            .collect(),
        "self" => all
            .iter()
            .copied()
            .filter(|&i| fns[i].module == caller.module)
            .collect(),
        "super" => {
            let parent = caller.module.rsplit_once("::").map(|(p, _)| p);
            all.iter()
                .copied()
                .filter(|&i| Some(fns[i].module.as_str()) == parent)
                .collect()
        }
        seg => all
            .iter()
            .copied()
            .filter(|&i| matches_seg(i, seg))
            .collect(),
    };
    if let Some(r) = pick(&cands) {
        if let Resolution::Ambiguous(_) = r {
            let own: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| fns[i].crate_name == caller.crate_name)
                .collect();
            if own.len() == 1 {
                return Resolution::Edge(own[0]);
            }
        }
        return r;
    }
    Resolution::External
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_tests};
    use crate::parse::parse_file;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let files: Vec<(String, Vec<Tok>)> = files
            .iter()
            .map(|(rel, src)| ((*rel).to_owned(), strip_tests(&lex(src))))
            .collect();
        let mut fns = Vec::new();
        for (rel, toks) in &files {
            fns.extend(parse_file(rel, toks));
        }
        CallGraph::build(&files, fns)
    }

    fn idx(g: &CallGraph, qual: &str) -> usize {
        g.fns.iter().position(|f| f.qual == qual).unwrap()
    }

    #[test]
    fn same_module_beats_other_crates() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "pub fn helper() {} pub fn top() { helper(); }",
            ),
            ("crates/b/src/lib.rs", "pub fn helper() {}"),
        ]);
        let top = idx(&g, "a::top");
        assert_eq!(g.edges[top], vec![idx(&g, "a::helper")]);
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn cross_crate_free_call_needs_visibility() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "use pageforge_b::remote; pub fn top() { remote(); }",
            ),
            ("crates/b/src/lib.rs", "pub fn remote() {}"),
            ("crates/c/src/lib.rs", "pub fn unrelated() {}"),
        ]);
        let top = idx(&g, "a::top");
        assert_eq!(g.edges[top], vec![idx(&g, "b::remote")]);
    }

    #[test]
    fn method_calls_resolve_by_unique_name() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct S; impl S { fn only(&self) {} }
             fn top(s: &S) { s.only(); s.len(); }",
        )]);
        let top = idx(&g, "a::top");
        assert_eq!(g.edges[top], vec![idx(&g, "a::S::only")]);
        assert!(g.unresolved.is_empty()); // .len() is external
    }

    #[test]
    fn self_receiver_breaks_same_crate_method_ties() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct S; struct T;
             impl S { fn dup(&self) {} fn top(&self) { self.dup(); } }
             impl T { fn dup(&self) {} }",
        )]);
        let top = idx(&g, "a::S::top");
        assert_eq!(g.edges[top], vec![idx(&g, "a::S::dup")]);
        assert!(g.unresolved.is_empty());
        assert_eq!(g.receiver_resolved, 1);
    }

    #[test]
    fn chained_receivers_are_not_trusted() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct S; struct T;
             impl S { fn dup(&self) {} fn top(&self) { self.inner.dup(); } }
             impl T { fn dup(&self) {} }",
        )]);
        let top = idx(&g, "a::S::top");
        // `self.inner` could be a T: the tie must stay reported.
        assert!(g.edges[top].is_empty());
        assert_eq!(g.unresolved.len(), 1);
        assert_eq!(g.receiver_resolved, 0);
    }

    #[test]
    fn ambiguous_methods_are_reported_not_dropped() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct S; struct T;
             impl S { fn dup(&self) {} }
             impl T { fn dup(&self) {} }
             fn top(s: &S) { s.dup(); }",
        )]);
        let top = idx(&g, "a::top");
        assert!(g.edges[top].is_empty());
        assert_eq!(g.unresolved.len(), 1);
        assert_eq!(g.unresolved[0].name, "dup");
        assert_eq!(g.unresolved[0].candidates, 2);
    }

    #[test]
    fn qualified_calls_match_type_module_and_crate() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "use pageforge_b::util; pub fn top() {
                     util::compute(); pageforge_b::entry(); Widget::new_widget();
                 }
                 struct Widget; impl Widget { fn new_widget() -> Widget { Widget } }",
            ),
            (
                "crates/b/src/lib.rs",
                "pub mod util { pub fn compute() {} } pub fn entry() {}",
            ),
        ]);
        let top = idx(&g, "a::top");
        let mut want = vec![
            idx(&g, "a::Widget::new_widget"),
            idx(&g, "b::entry"),
            idx(&g, "b::util::compute"),
        ];
        want.sort_unstable();
        assert_eq!(g.edges[top], want);
    }

    #[test]
    fn self_calls_resolve_to_own_impl() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct S; impl S { fn new() -> S { S } fn top() { Self::new(); } }
             struct T; impl T { fn new() -> T { T } }",
        )]);
        let top = idx(&g, "a::S::top");
        assert_eq!(g.edges[top], vec![idx(&g, "a::S::new")]);
    }

    #[test]
    fn reachability_chains_are_deterministic() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn root() { mid(); } fn mid() { leaf(); } fn leaf() {}",
        )]);
        let root = idx(&g, "a::root");
        let leaf = idx(&g, "a::leaf");
        let reach = g.reachable(&[root]);
        assert!(reach.contains_key(&leaf));
        assert_eq!(g.chain(&reach, leaf), "a::root -> a::mid -> a::leaf");
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn top() { if (x) { vec![1]; println!(\"{}\", y); return (z); } }",
        )]);
        let top = idx(&g, "a::top");
        assert!(g.sites[top].is_empty());
    }
}
