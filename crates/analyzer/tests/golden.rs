//! Golden fixture tests: the analyzer's full report over each fixture
//! workspace is compared byte-for-byte against a checked-in
//! `expected.txt`. To regenerate after an intentional behaviour change:
//!
//! ```sh
//! cargo run -q -p pageforge-analyzer -- --root crates/analyzer/fixtures/violations \
//!     > crates/analyzer/fixtures/violations/expected.txt
//! ```

use std::path::PathBuf;

use pageforge_analyzer::{analyze_workspace, render};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// One violation of every rule, a live allowlist entry, and a stale
/// allowlist entry — the full report must match the golden file.
#[test]
fn violations_fixture_matches_golden_report() {
    let report = analyze_workspace(&fixture("violations")).expect("fixture analyses");
    let expected = include_str!("../fixtures/violations/expected.txt");
    assert_eq!(render(&report), expected);
    assert_eq!(
        report.suppressed, 1,
        "the live allowlist entry suppresses DET-TIME"
    );
}

/// Each rule id appears in the violations report (so a rule silently
/// ceasing to fire is caught even if the golden file is regenerated
/// carelessly).
#[test]
fn violations_fixture_exercises_every_rule() {
    let report = analyze_workspace(&fixture("violations")).expect("fixture analyses");
    for rule in [
        "DET-HASH",
        "PANIC-PATH",
        "REG-METRIC",
        "REG-TRACE",
        "HYG-CRATE",
        "ALLOW-STALE",
    ] {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "no {rule} finding in the violations fixture"
        );
    }
    // DET-TIME fires too, but is consumed by the live allowlist entry.
    assert!(!report.findings.iter().any(|f| f.rule == "DET-TIME"));
}

/// A workspace with deterministic collections, fallible access, full
/// hygiene attributes, and a registry that matches the docs is clean.
#[test]
fn clean_fixture_has_no_findings() {
    let report = analyze_workspace(&fixture("clean")).expect("fixture analyses");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.suppressed, 0);
}

/// A panic hidden two calls below a hot-path entry point, in another
/// crate: the transitive rule flags it with its call chain, byte-for-
/// byte against the golden file. The unreachable `cold_path` unwrap in
/// the same crate must not appear.
#[test]
fn panic_t_fixture_matches_golden_report() {
    let report = analyze_workspace(&fixture("panic-t")).expect("fixture analyses");
    let expected = include_str!("../fixtures/panic-t/expected.txt");
    assert_eq!(render(&report), expected);
    assert!(report.findings.iter().all(|f| f.rule == "PANIC-PATH-T"));
    assert_eq!(report.findings.len(), 1);
}

/// The same call shape with the helper degrading gracefully is clean.
#[test]
fn panic_t_clean_twin_has_no_findings() {
    let report = analyze_workspace(&fixture("panic-t-clean")).expect("fixture analyses");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

/// Fixture reports are order-pinned: findings arrive sorted by
/// (path, line, rule, item) regardless of directory-walk or rule-run
/// order, so golden files cannot flake across filesystems.
#[test]
fn fixture_report_order_is_pinned() {
    for name in ["violations", "panic-t"] {
        let report = analyze_workspace(&fixture(name)).expect("fixture analyses");
        let keys: Vec<_> = report
            .findings
            .iter()
            .map(|f| (f.path.clone(), f.line, f.rule, f.item.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "{name} report out of order");
    }
}

/// OBSERVABILITY.md losing its normative tables is a hard error — the
/// registry rules must never be silently disabled by a doc refactor.
#[test]
fn missing_doc_tables_are_a_hard_error() {
    let err = analyze_workspace(&fixture("no-tables")).unwrap_err();
    assert!(err.contains("Metric namespace"), "{err}");
}
