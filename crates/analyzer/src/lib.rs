//! pageforge-analyzer — the workspace invariant linter.
//!
//! Every headline number this reproduction reports rests on invariants
//! the type system cannot express: byte-identical results across
//! `--jobs` levels (determinism), graceful degradation instead of
//! aborts on the engine hot path (panic-freedom), OBSERVABILITY.md
//! matching the metrics and trace events the code actually emits
//! (registry consistency), and uniform crate hygiene. This crate
//! *proves them statically*: it lexes every workspace source file and
//! enforces seven rules, with a reviewed, justification-carrying
//! allowlist (`analyzer.toml`) as the only escape hatch.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `DET-HASH`     | no `HashMap`/`HashSet` in result-affecting crates |
//! | `DET-TIME`     | no wall clock / OS rng / env reads / thread starts outside bench |
//! | `PANIC-PATH`   | no `unwrap`/`expect`/panicking macro/indexing on the hot path |
//! | `PANIC-PATH-T` | no explicit panic construct *reachable* from the hot path |
//! | `REG-METRIC`   | metric names ⊆ OBSERVABILITY.md, and nothing documented is dead |
//! | `REG-TRACE`    | trace `(component, kind)` pairs likewise |
//! | `HYG-CRATE`    | every lib crate forbids unsafe and denies missing docs |
//!
//! `PANIC-PATH-T` is flow-aware: the analyzer parses every file into an
//! item tree ([`parse`]) and builds a workspace-wide function-level call
//! graph ([`callgraph`]) with ambiguous calls *reported rather than
//! dropped*.
//!
//! See ANALYSIS.md for the full rationale and the allowlist policy.
//! Run as `cargo run --release -p pageforge-analyzer`; CI runs it as
//! the `analysis` job and fails the build on any finding.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod findings;
pub mod lexer;
pub mod parse;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use callgraph::{CallGraph, Unresolved};
use config::AllowEntry;
use findings::{sort_findings, Finding};
use lexer::Tok;

/// The rule ids an `analyzer.toml` entry may reference. `ALLOW-STALE`
/// is deliberately absent: a stale-entry finding is fixed by deleting
/// the entry, never by allowlisting the allowlist.
pub const RULE_IDS: &[&str] = &[
    "DET-HASH",
    "DET-TIME",
    "PANIC-PATH",
    "PANIC-PATH-T",
    "REG-METRIC",
    "REG-TRACE",
    "HYG-CRATE",
];

/// The parsed, resolved view of the workspace the flow-aware rule runs
/// against: test-stripped token streams and the call graph.
#[derive(Debug)]
pub struct Workspace {
    /// `(workspace-relative path, test-stripped tokens)`, sorted by path.
    pub files: Vec<(String, Vec<Tok>)>,
    /// The resolved call graph over every parsed function.
    pub graph: CallGraph,
}

impl Workspace {
    /// Parses and resolves `files` (test-stripped token streams keyed by
    /// workspace-relative path).
    pub fn build(mut files: Vec<(String, Vec<Tok>)>) -> Workspace {
        files.sort_by(|a, b| a.0.cmp(&b.0));
        let mut fns = Vec::new();
        for (rel, toks) in &files {
            fns.extend(parse::parse_file(rel, toks));
        }
        let graph = CallGraph::build(&files, fns);
        Workspace { files, graph }
    }

    /// The token stream for a workspace-relative path (empty when the
    /// path is unknown).
    pub fn toks(&self, rel: &str) -> &[Tok] {
        self.files
            .iter()
            .find(|(p, _)| p == rel)
            .map(|(_, t)| t.as_slice())
            .unwrap_or(&[])
    }
}

/// The outcome of analysing a workspace.
#[derive(Debug)]
pub struct Report {
    /// Surviving findings (violations not covered by `analyzer.toml`),
    /// plus one `ALLOW-STALE` finding per unused allowlist entry.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files lexed and scanned.
    pub files_scanned: usize,
    /// Number of findings suppressed by `analyzer.toml` entries.
    pub suppressed: usize,
    /// Number of functions in the workspace call graph.
    pub functions: usize,
    /// Number of resolved (caller, callee) call edges.
    pub call_edges: usize,
    /// Ambiguous call sites the resolver surfaced rather than dropped.
    pub unresolved: Vec<Unresolved>,
    /// Method calls only the receiver-resolution tier could pin down.
    pub receiver_resolved: usize,
}

/// Analyses the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`, `crates/`, and `OBSERVABILITY.md`).
///
/// # Errors
///
/// Returns a message for I/O failures, a malformed `analyzer.toml`
/// (missing reasons, unknown keys or rule ids), or OBSERVABILITY.md
/// tables that are missing/empty (which would silently disable the
/// registry rules).
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    let files = enumerate_sources(root)?;
    let files_scanned = files.len();

    let mut findings: Vec<Finding> = Vec::new();
    let mut metric_uses = Vec::new();
    let mut trace_uses = Vec::new();
    let mut stripped: Vec<(String, Vec<Tok>)> = Vec::with_capacity(files.len());

    for abs in &files {
        let rel = rel_path(root, abs);
        let src = fs::read_to_string(abs).map_err(|e| format!("{rel}: {e}"))?;
        let raw = lexer::lex(&src);
        let code = lexer::strip_tests(&raw);

        rules::determinism::det_hash(&rel, &code, &mut findings);
        rules::determinism::det_time(&rel, &code, &mut findings);
        rules::panics::panic_path(&rel, &code, &mut findings);
        if is_crate_root(&rel) {
            rules::hygiene::hyg_crate(&rel, &raw, &mut findings);
        }
        rules::registry::collect_metric_uses(&rel, &code, &mut metric_uses);
        rules::registry::collect_trace_uses(&rel, &code, &mut trace_uses);
        stripped.push((rel, code));
    }

    let ws = Workspace::build(stripped);
    rules::panic_path_t::run(&ws, &mut findings);

    let obs_path = root.join("OBSERVABILITY.md");
    let obs = fs::read_to_string(&obs_path)
        .map_err(|e| format!("OBSERVABILITY.md: {e} (REG rules need the normative tables)"))?;
    let doc = rules::registry::parse_observability(&obs)?;
    findings.extend(rules::registry::check(
        &doc,
        &metric_uses,
        &trace_uses,
        "OBSERVABILITY.md",
    ));

    let allowlist = load_allowlist(root)?;
    let mut used = vec![false; allowlist.len()];
    let mut suppressed = 0usize;
    findings.retain(|f| {
        match allowlist
            .iter()
            .position(|e| e.matches(f.rule, &f.path, &f.item))
        {
            Some(idx) => {
                used[idx] = true;
                suppressed += 1;
                false
            }
            None => true,
        }
    });
    for (entry, used) in allowlist.iter().zip(&used) {
        if !used {
            findings.push(stale_entry_finding(entry));
        }
    }

    sort_findings(&mut findings);
    Ok(Report {
        findings,
        files_scanned,
        suppressed,
        functions: ws.graph.fns.len(),
        call_edges: ws.graph.edge_count(),
        unresolved: ws.graph.unresolved.clone(),
        receiver_resolved: ws.graph.receiver_resolved,
    })
}

/// Renders a report exactly as the CLI prints it: one block per
/// finding, then the call-graph line, then the one-line summary.
/// Golden tests compare this string against checked-in `expected.txt`
/// files.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    for finding in &report.findings {
        out.push_str(&finding.to_string());
        out.push('\n');
    }
    out.push_str(&format!(
        "pageforge-analyzer: call graph: {} functions, {} edges, {} unresolved calls, \
         {} resolved via receiver\n",
        report.functions,
        report.call_edges,
        report.unresolved.len(),
        report.receiver_resolved
    ));
    out.push_str(&format!(
        "pageforge-analyzer: {} files scanned, {} finding(s), {} suppressed by analyzer.toml\n",
        report.files_scanned,
        report.findings.len(),
        report.suppressed
    ));
    out
}

/// Renders a report as the machine-readable JSON document the CI
/// `analysis` job uploads as an artifact. Keys are emitted in sorted
/// (alphabetical) order at every level and the document ends in a
/// newline, so output is byte-stable; `schema` is bumped on any shape
/// change. See ANALYSIS.md § "JSON output" for the schema.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"call_edges\": {},\n", report.call_edges));
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"hint\": {}, \"item\": {}, \"line\": {}, \"message\": {}, \
             \"path\": {}, \"rule\": {}}}",
            json_str(f.hint),
            json_str(&f.item),
            f.line,
            json_str(&f.message),
            json_str(&f.path),
            json_str(f.rule)
        ));
    }
    out.push_str(if report.findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str(&format!("  \"functions\": {},\n", report.functions));
    out.push_str(&format!(
        "  \"receiver_resolved\": {},\n",
        report.receiver_resolved
    ));
    out.push_str("  \"schema\": 2,\n");
    out.push_str(&format!("  \"suppressed\": {},\n", report.suppressed));
    out.push_str("  \"unresolved\": [");
    for (i, u) in report.unresolved.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"candidates\": {}, \"line\": {}, \"name\": {}, \"path\": {}}}",
            u.candidates,
            u.line,
            json_str(&u.name),
            json_str(&u.path)
        ));
    }
    out.push_str(if report.unresolved.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str(&format!(
        "  \"unresolved_calls\": {}\n}}\n",
        report.unresolved.len()
    ));
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars —
/// everything else in this codebase's findings is printable ASCII or
/// UTF-8 that JSON passes through verbatim).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// All `.rs` files under `<root>/src` and `<root>/crates/*/src`, in
/// sorted order so reports (and the analyzer's own exit behaviour) are
/// deterministic. Vendored third-party code, fixtures, integration
/// tests, and build output are outside these roots by construction.
fn enumerate_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut src_dirs = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut names: Vec<PathBuf> = fs::read_dir(&crates)
            .map_err(|e| format!("crates/: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        names.sort();
        src_dirs.extend(names.into_iter().map(|p| p.join("src")));
    }
    let mut files = Vec::new();
    for dir in src_dirs {
        if dir.is_dir() {
            walk_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    // `read_dir` yields entries in filesystem order, which differs
    // across machines; sort before descending so nothing downstream can
    // ever observe inode order.
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (the form rules,
/// reports, and `analyzer.toml` all use).
fn rel_path(root: &Path, abs: &Path) -> String {
    abs.strip_prefix(root)
        .unwrap_or(abs)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Whether a relative path is a library crate root (`src/lib.rs` of the
/// facade crate or of a `crates/<name>` member).
fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    let mut parts = rel.split('/');
    matches!(
        (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next()
        ),
        (Some("crates"), Some(_), Some("src"), Some("lib.rs"), None)
    )
}

/// Loads and validates `<root>/analyzer.toml`; a missing file is an
/// empty allowlist (zero exceptions is the ideal state).
fn load_allowlist(root: &Path) -> Result<Vec<AllowEntry>, String> {
    let path = root.join("analyzer.toml");
    let src = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("analyzer.toml: {e}")),
    };
    let entries = config::parse_allowlist(&src)?;
    for entry in &entries {
        if !RULE_IDS.contains(&entry.rule.as_str()) {
            return Err(format!(
                "analyzer.toml:{}: unknown rule id `{}` (known: {})",
                entry.line,
                entry.rule,
                RULE_IDS.join(", ")
            ));
        }
    }
    Ok(entries)
}

fn stale_entry_finding(entry: &AllowEntry) -> Finding {
    let item = match &entry.item {
        Some(item) => format!("{} {} {item}", entry.rule, entry.path),
        None => format!("{} {}", entry.rule, entry.path),
    };
    Finding {
        rule: "ALLOW-STALE",
        path: "analyzer.toml".to_owned(),
        line: entry.line,
        item,
        message: format!(
            "allowlist entry ({}, {}{}) matched no finding — the code it \
             excused is gone",
            entry.rule,
            entry.path,
            entry
                .item
                .as_deref()
                .map(|i| format!(", item {i}"))
                .unwrap_or_default()
        ),
        hint: "delete the stale [[allow]] entry so the allowlist only ever \
               carries live, justified exceptions",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            findings: vec![Finding {
                rule: "DET-HASH",
                path: "crates/core/src/engine.rs".to_owned(),
                line: 7,
                item: "HashMap".to_owned(),
                message: "say \"no\"".to_owned(),
                hint: "use BTreeMap",
            }],
            files_scanned: 3,
            suppressed: 1,
            functions: 12,
            call_edges: 9,
            unresolved: vec![Unresolved {
                path: "crates/core/src/engine.rs".to_owned(),
                line: 9,
                name: "dup".to_owned(),
                candidates: 2,
            }],
            receiver_resolved: 4,
        }
    }

    #[test]
    fn render_includes_the_call_graph_line() {
        let text = render(&sample_report());
        assert!(text.contains(
            "pageforge-analyzer: call graph: 12 functions, 9 edges, 1 unresolved calls, \
             4 resolved via receiver\n"
        ));
        assert!(text.ends_with(
            "pageforge-analyzer: 3 files scanned, 1 finding(s), 1 suppressed by analyzer.toml\n"
        ));
    }

    #[test]
    fn json_is_sorted_escaped_and_newline_terminated() {
        let json = render_json(&sample_report());
        assert!(json.starts_with("{\n  \"call_edges\": 9,\n  \"files_scanned\": 3,\n"));
        assert!(json.contains("\"message\": \"say \\\"no\\\"\""));
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"receiver_resolved\": 4,\n"));
        assert!(json.contains("\"unresolved_calls\": 1\n}\n"));
        assert!(json.ends_with("}\n"));
        // Keys appear in alphabetical order.
        let order = [
            "call_edges",
            "files_scanned",
            "findings",
            "functions",
            "receiver_resolved",
            "schema",
            "suppressed",
            "unresolved",
            "unresolved_calls",
        ];
        let mut last = 0;
        for key in order {
            let at = json.find(&format!("\"{key}\"")).unwrap();
            assert!(at > last, "{key} out of order");
            last = at;
        }
    }

    #[test]
    fn empty_report_json_has_empty_arrays() {
        let report = Report {
            findings: Vec::new(),
            files_scanned: 0,
            suppressed: 0,
            functions: 0,
            call_edges: 0,
            unresolved: Vec::new(),
            receiver_resolved: 0,
        };
        let json = render_json(&report);
        assert!(json.contains("\"findings\": [],\n"));
        assert!(json.contains("\"unresolved\": [],\n"));
    }

    #[test]
    fn crate_root_detection() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/ksm/src/lib.rs"));
        assert!(!is_crate_root("crates/ksm/src/algorithm.rs"));
        assert!(!is_crate_root("crates/bench/src/bin/lib.rs"));
        assert!(!is_crate_root("src/main.rs"));
    }
}
