//! `DET-HASH` and `DET-TIME` — the determinism rules.
//!
//! The repo's headline claim is that `results/*.json` is byte-identical
//! across `--jobs` levels, trace on/off, and repeated runs. Two classes
//! of std API quietly break that claim:
//!
//! * **`DET-HASH`** — `std::collections::HashMap`/`HashSet` iterate in
//!   an order seeded per-process (SipHash with a random key). Any
//!   iteration that reaches a result, a tree, or a trace destroys
//!   cross-run identity. Result-affecting crates must use `BTreeMap`/
//!   `BTreeSet` (or `Vec` + sort) instead.
//! * **`DET-TIME`** — wall-clock reads (`Instant::now`, `SystemTime`),
//!   OS randomness (`rand::thread_rng`) and environment reads
//!   (`env::var`) are per-run inputs. They are banned everywhere except
//!   explicitly-allowlisted bench timing code whose output lands in
//!   `results/meta/` (outside the determinism contract). So are thread
//!   starts (`thread::spawn`, `thread::scope`): a simulation runs on one
//!   thread, and the experiment scheduler's allowlisted unit pool is the
//!   only place a thread begins.

use crate::findings::Finding;
use crate::lexer::{Tok, TokKind};

/// Path prefixes of the crates whose code can reach `results/*.json`.
/// `DET-HASH` fires only here; purely-diagnostic crates (obs, faults
/// tooling, the analyzer itself) may hash freely.
pub const RESULT_CRATES: &[&str] = &[
    "crates/bench/",
    "crates/core/",
    "crates/fleet/",
    "crates/ksm/",
    "crates/mem/",
    "crates/sim/",
    "crates/vm/",
    "crates/workloads/",
];

/// Whether `DET-HASH` applies to a workspace-relative path.
pub fn in_result_crate(path: &str) -> bool {
    RESULT_CRATES.iter().any(|p| path.starts_with(p))
}

/// Runs `DET-HASH` over one file's test-stripped token stream.
pub fn det_hash(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    if !in_result_crate(path) {
        return;
    }
    for t in toks {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            out.push(Finding {
                rule: "DET-HASH",
                path: path.to_owned(),
                line: t.line,
                item: t.text.clone(),
                message: format!(
                    "`{}` in a result-affecting crate: iteration order is \
                     seeded per-process and can leak into results",
                    t.text
                ),
                hint: "use BTreeMap/BTreeSet (deterministic order), or allowlist \
                       with a justification proving no iteration reaches results",
            });
        }
    }
}

/// Runs `DET-TIME` over one file's test-stripped token stream.
pub fn det_time(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let mut push = |line: u32, item: &str, what: &str| {
        out.push(Finding {
            rule: "DET-TIME",
            path: path.to_owned(),
            line,
            item: item.to_owned(),
            message: format!("`{item}` {what}"),
            hint: "simulated behaviour must depend only on the seed and config; \
                   wall-clock/env reads belong in bench timing code (allowlisted, \
                   output under results/meta/ only)",
        });
    };
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "Instant" if path2(toks, i, "now") => {
                    push(t.line, "Instant::now", "reads the wall clock");
                    i += 3;
                    continue;
                }
                "SystemTime" => {
                    push(t.line, "SystemTime", "reads the wall clock");
                }
                "thread_rng" => {
                    push(t.line, "thread_rng", "draws OS-seeded randomness");
                }
                "env" if path2(toks, i, "var") || path2(toks, i, "var_os") => {
                    push(
                        t.line,
                        "env::var",
                        "makes behaviour depend on the environment",
                    );
                    i += 3;
                    continue;
                }
                // Thread identity is assigned by the host scheduler, and a
                // thread started inside a simulation would make its event
                // order depend on it too. Each simulation runs whole on
                // one thread.
                "thread" if path2(toks, i, "current") => {
                    push(
                        t.line,
                        "thread::current",
                        "exposes nondeterministic thread identity",
                    );
                    i += 3;
                    continue;
                }
                "thread" if path2(toks, i, "spawn") || path2(toks, i, "scope") => {
                    // `path2` checked that `toks[i + 3]` exists.
                    let item = format!("thread::{}", toks[i + 3].text);
                    push(
                        t.line,
                        &item,
                        "starts a thread; simulations run on one thread and only \
                         the experiment scheduler's unit pool may start one",
                    );
                    i += 3;
                    continue;
                }
                "available_parallelism" => {
                    push(
                        t.line,
                        "available_parallelism",
                        "makes behaviour depend on the host's core count",
                    );
                }
                _ => {}
            }
        }
        i += 1;
    }
}

/// Whether `toks[i]` is followed by `:: <seg>`.
fn path2(toks: &[Tok], i: usize, seg: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(seg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_tests};

    fn run_hash(path: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        det_hash(path, &strip_tests(&lex(src)), &mut out);
        out
    }

    fn run_time(src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        det_time("crates/core/src/x.rs", &strip_tests(&lex(src)), &mut out);
        out
    }

    #[test]
    fn hashmap_flagged_only_in_result_crates() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u8, u8> }";
        assert_eq!(run_hash("crates/ksm/src/x.rs", src).len(), 2);
        assert!(run_hash("crates/obs/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_comment_or_string_is_not_flagged() {
        let src = "// HashMap is banned\nlet s = \"HashMap\";";
        assert!(run_hash("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_test_module_is_not_flagged() {
        let src = "#[cfg(test)]\nmod tests { use std::collections::HashMap; }";
        assert!(run_hash("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn time_rule_catches_all_four_families() {
        let src = "let t = Instant::now();\nlet s = SystemTime::now();\n\
                   let r = rand::thread_rng();\nlet v = std::env::var(\"X\");";
        let items: Vec<_> = run_time(src).into_iter().map(|f| f.item).collect();
        assert_eq!(
            items,
            ["Instant::now", "SystemTime", "thread_rng", "env::var"]
        );
    }

    #[test]
    fn thread_identity_and_core_count_are_flagged() {
        let src = "let id = std::thread::current().id();\n\
                   let n = std::thread::available_parallelism();";
        let items: Vec<_> = run_time(src).into_iter().map(|f| f.item).collect();
        assert_eq!(items, ["thread::current", "available_parallelism"]);
    }

    #[test]
    fn thread_spawn_and_scope_are_flagged() {
        // A thread started inside a simulation fails the rule; the
        // scope's own `s.spawn` is a method call, not a second start.
        let src = "std::thread::scope(|s| { s.spawn(|| {}); });\n\
                   let h = std::thread::spawn(|| 1);";
        let items: Vec<_> = run_time(src).into_iter().map(|f| f.item).collect();
        assert_eq!(items, ["thread::scope", "thread::spawn"]);
    }

    #[test]
    fn env_macro_and_instant_type_position_are_not_flagged() {
        // `env!("...")` is compile-time; a bare `Instant` type annotation
        // without `::now` reads nothing.
        let src = "let p = env!(\"CARGO_MANIFEST_DIR\");\nfn f(t: Instant) {}";
        assert!(run_time(src).is_empty());
    }
}
