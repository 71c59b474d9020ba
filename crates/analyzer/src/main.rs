//! CLI entry point for the workspace invariant linter.
//!
//! ```sh
//! cargo run --release -p pageforge-analyzer            # from anywhere in the repo
//! cargo run --release -p pageforge-analyzer -- --root /path/to/repo
//! cargo run --release -p pageforge-analyzer -- --json findings.json
//! ```
//!
//! Exit codes: `0` clean, `1` findings (or stale allowlist entries),
//! `2` configuration/I-O error. `--json <file>` additionally writes the
//! machine-readable report (schema in ANALYSIS.md) — human output and
//! exit codes are unchanged.

use std::path::PathBuf;
use std::process::ExitCode;

use pageforge_analyzer::analyze_workspace;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("pageforge-analyzer: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(p) => json = Some(PathBuf::from(p)),
                None => {
                    eprintln!("pageforge-analyzer: --json needs an output path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "pageforge-analyzer — workspace invariant linter\n\n\
                     USAGE: pageforge-analyzer [--root <workspace-root>] [--json <out.json>]\n\n\
                     Rules: DET-HASH, DET-TIME, PANIC-PATH, PANIC-PATH-T, REG-METRIC,\n\
                     REG-TRACE, HYG-CRATE — see ANALYSIS.md.\n\
                     Exceptions live in analyzer.toml and must carry a written\n\
                     justification; stale entries fail the run.\n\
                     --json writes the machine-readable report (findings, call-graph\n\
                     stats, unresolved calls) without changing stdout or exit codes."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pageforge-analyzer: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.map(Ok).unwrap_or_else(discover_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pageforge-analyzer: {e}");
            return ExitCode::from(2);
        }
    };

    match analyze_workspace(&root) {
        Ok(report) => {
            if let Some(path) = json {
                let doc = pageforge_analyzer::render_json(&report);
                if let Err(e) = std::fs::write(&path, doc) {
                    eprintln!("pageforge-analyzer: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            print!("{}", pageforge_analyzer::render(&report));
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pageforge-analyzer: {e}");
            ExitCode::from(2)
        }
    }
}

/// Walks up from the current directory to the first directory that
/// looks like the workspace root (has both `Cargo.toml` and `crates/`).
fn discover_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let mut dir = start.as_path();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(format!(
                    "no workspace root (Cargo.toml + crates/) above {}; pass --root",
                    start.display()
                ))
            }
        }
    }
}
