//! `SPEC-SAFE` — the worker-closure determinism audit.
//!
//! `ordered_map` promises that the worker count never moves a byte:
//! items run on any worker, in any order, and come back in submission
//! order. That only holds if no shared-mutable effect escapes a worker.
//! This rule pins that in CI: every *domain worker closure* (the
//! closure argument of any `ordered_map(..)` call, plus the `spawn`
//! closures inside `sim::shard` itself) is audited, and every write to
//! shared state reachable from it — a mutex acquisition, an atomic
//! RMW/store, a channel send, directly or through any resolved callee —
//! is a finding.
//!
//! The findings that remain at HEAD, carried by justified
//! `analyzer.toml` entries, *are* the sanctioned shared-mutable
//! surface: if the surface grows, a new finding fails CI; if it
//! shrinks, the stale allow entry fails CI.
//!
//! Domain-local interior mutability (`RefCell`, `thread_local!`) is
//! deliberately out of scope: it cannot be observed across workers, so
//! it cannot order results across `--shards` levels.

use std::collections::BTreeSet;

use crate::dataflow::{closure_arg, MarkerKind};
use crate::findings::Finding;
use crate::Workspace;

const HINT: &str = "domain workers may touch only domain-local state or their own result \
     slot; return the value instead, or allowlist the write with a proof that it \
     cannot reorder results across --shards (see ANALYSIS.md)";

/// Runs `SPEC-SAFE` over every domain worker closure in the workspace.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    let graph = &ws.graph;
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();

    for fid in 0..graph.fns.len() {
        let f = &graph.fns[fid];
        let toks = ws.toks(&f.path);
        for (si, site) in graph.sites[fid].iter().enumerate() {
            let is_worker_call = site.name == "ordered_map"
                || (f.path == "crates/sim/src/shard.rs" && site.method && site.name == "spawn");
            if !is_worker_call {
                continue;
            }
            let Some(closure) = closure_arg(toks, site.tok) else {
                continue;
            };
            let (cs, ce) = closure.body;

            // Direct shared-mutable writes inside the closure body.
            for m in &ws.markers[fid] {
                if m.tok < cs || m.tok >= ce {
                    continue;
                }
                let (item, what) = match m.kind {
                    MarkerKind::Lock => (
                        format!("lock:{}", m.detail),
                        format!("acquires mutex class `{}`", m.detail),
                    ),
                    MarkerKind::Atomic => (
                        m.detail.clone(),
                        format!("performs atomic `{}` on shared state", m.detail),
                    ),
                    MarkerKind::Send => ("send".to_owned(), "sends on a channel".to_owned()),
                };
                if !seen.insert((f.path.clone(), m.line, item.clone())) {
                    continue;
                }
                out.push(Finding {
                    rule: "SPEC-SAFE",
                    path: f.path.clone(),
                    line: m.line,
                    item,
                    message: format!("domain worker closure {what}"),
                    hint: HINT,
                });
            }

            // Calls out of the closure that transitively reach one.
            for &(rsi, callee) in &graph.resolved[fid] {
                let rsite = &graph.sites[fid][rsi];
                if rsite.tok < cs || rsite.tok >= ce || !ws.marker_reach[callee] {
                    continue;
                }
                let item = format!("via:{}", rsite.name);
                if !seen.insert((f.path.clone(), rsite.line, item.clone())) {
                    continue;
                }
                let (where_str, what) = describe_reach(ws, callee);
                out.push(Finding {
                    rule: "SPEC-SAFE",
                    path: f.path.clone(),
                    line: rsite.line,
                    item,
                    message: format!(
                        "domain worker closure calls `{}`, which {what} ({where_str})",
                        rsite.name
                    ),
                    hint: HINT,
                });
            }
            let _ = si;
        }
    }
}

/// Deterministic shortest chain from `callee` to a marker-bearing
/// function, with a description of the first marker there.
fn describe_reach(ws: &Workspace, callee: usize) -> (String, String) {
    let graph = &ws.graph;
    let path = graph
        .path_to(callee, |i| !ws.markers[i].is_empty())
        .unwrap_or_else(|| vec![callee]);
    let terminal = *path.last().unwrap_or(&callee);
    let chain = path
        .iter()
        .map(|&i| graph.fns[i].qual.as_str())
        .collect::<Vec<_>>()
        .join(" -> ");
    let what = match ws.markers[terminal].first() {
        Some(m) => match m.kind {
            MarkerKind::Lock => format!("acquires mutex class `{}`", m.detail),
            MarkerKind::Atomic => format!("performs atomic `{}`", m.detail),
            MarkerKind::Send => "sends on a channel".to_owned(),
        },
        None => "reaches shared-mutable state".to_owned(),
    };
    (chain, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_tests};

    fn findings(files: &[(&str, &str)]) -> Vec<(String, String)> {
        let ws = Workspace::build(
            files
                .iter()
                .map(|(rel, src)| ((*rel).to_owned(), strip_tests(&lex(src))))
                .collect(),
        );
        let mut out = Vec::new();
        run(&ws, &mut out);
        out.into_iter().map(|f| (f.path, f.item)).collect()
    }

    #[test]
    fn direct_atomic_lock_and_send_escapes_are_flagged() {
        let src = "fn run(n: usize) {
            ordered_map(threads, n, |i| {
                cursor.fetch_add(1, ord);
                *slots[i].lock().unwrap() = i;
                tx.send(i);
                local[i] += 1;
            });
        }";
        let out = findings(&[("crates/sim/src/system.rs", src)]);
        let items: Vec<&str> = out.iter().map(|(_, i)| i.as_str()).collect();
        assert_eq!(items, ["fetch_add", "lock:slots", "send"]);
    }

    #[test]
    fn transitive_escape_through_a_callee_is_flagged_with_via() {
        let src = "
            fn memo_get() -> u64 { MEMO.lock().unwrap().len() }
            fn synth(i: usize) -> u64 { memo_get() + i as u64 }
            fn run(n: usize) { ordered_map(threads, n, |i| synth(i)); }";
        let out = findings(&[("crates/sim/src/system.rs", src)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, "via:synth");
    }

    #[test]
    fn spawn_closures_in_shard_are_audited() {
        let src = "fn pool(scope: &Scope) {
            scope.spawn(move || loop { cursor.fetch_add(1, ord); });
        }";
        let out = findings(&[("crates/sim/src/shard.rs", src)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, "fetch_add");
    }

    #[test]
    fn domain_local_work_is_clean_and_spawn_elsewhere_is_out_of_scope() {
        let src = "fn run(n: usize) {
            ordered_map(threads, n, |i| pure(i));
            scope.spawn(move || other.fetch_add(1, ord));
        }
        fn pure(i: usize) -> usize { i * 2 }";
        assert!(findings(&[("crates/bench/src/scheduler.rs", src)]).is_empty());
    }
}
