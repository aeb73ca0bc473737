//! The lint driver: workspace walking, per-path rule scoping, and the
//! report the CLI renders.

use std::path::{Path, PathBuf};

use crate::lexer;
use crate::rules::{self, Finding};

/// Where the workspace root is when nothing is passed explicitly: two
/// levels above this crate's manifest (baked at compile time, correct for
/// in-repo `cargo run -p muppet-check`).
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Which rules apply to a repo-relative path (forward slashes).
/// `None` means the file is exempt from scanning entirely.
fn scopes(path: &str) -> Option<Vec<&'static str>> {
    const EXEMPT_PREFIXES: [&str; 5] = [
        "vendor/", // API-compat shims for absent crates.io deps
        "target/",
        ".git/",
        "crates/core/src/sync",   // the shim IS the sanctioned lock layer
        "crates/check/fixtures/", // deliberately-dirty lint fixtures
    ];
    if EXEMPT_PREFIXES.iter().any(|p| path.starts_with(p)) {
        return None;
    }
    let mut rules = vec!["no-raw-lock"];
    let prod_serving = [
        "crates/runtime/src/",
        "crates/net/src/",
        "crates/slatestore/src/",
        "crates/obs/src/",
        "src/",
    ];
    if prod_serving.iter().any(|p| path.starts_with(p)) {
        rules.push("no-unwrap-in-prod");
        rules.push("lock-across-io");
    }
    if path.starts_with("crates/core/src/") || path.starts_with("crates/workloads/src/") {
        rules.push("no-wallclock-in-deterministic");
    }
    Some(rules)
}

fn run_rule(rule: &str, path: &str, lines: &[lexer::LineInfo]) -> Vec<Finding> {
    match rule {
        "no-raw-lock" => rules::no_raw_lock(path, lines),
        "no-unwrap-in-prod" => rules::no_unwrap_in_prod(path, lines),
        "no-wallclock-in-deterministic" => rules::no_wallclock_in_deterministic(path, lines),
        "lock-across-io" => rules::lock_across_io(path, lines),
        other => panic!("unknown rule `{other}`"),
    }
}

/// Lint one source text as if it lived at `virtual_path` (repo-relative).
/// This is the unit the fixture tests drive directly.
pub fn lint_source(virtual_path: &str, source: &str) -> Vec<Finding> {
    let Some(rules) = scopes(virtual_path) else {
        return Vec::new();
    };
    let lines = lexer::scan(source);
    rules.iter().flat_map(|r| run_rule(r, virtual_path, &lines)).collect()
}

/// The outcome of a lint run.
pub struct Report {
    /// All findings, in path order.
    pub findings: Vec<Finding>,
    /// How many files were scanned (exempt files not counted).
    pub files_scanned: usize,
}

impl Report {
    /// The `file:line: rule: message` lines plus a one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        let files: std::collections::BTreeSet<&str> =
            self.findings.iter().map(|f| f.file.as_str()).collect();
        out.push_str(&format!(
            "muppet-check: {} finding{} in {} file{} ({} files scanned)\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            files.len(),
            if files.len() == 1 { "" } else { "s" },
            self.files_scanned,
        ));
        out
    }

    /// Machine-readable JSON summary (no external deps: hand-rendered).
    pub fn render_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    r#"{{"rule":"{}","file":"{}","line":{},"message":"{}"}}"#,
                    f.rule,
                    esc(&f.file),
                    f.line,
                    esc(&f.message)
                )
            })
            .collect();
        format!(
            r#"{{"files_scanned":{},"finding_count":{},"findings":[{}]}}"#,
            self.files_scanned,
            self.findings.len(),
            findings.join(",")
        )
    }
}

/// Recursively collect every `.rs` file under `root`, repo-relative.
pub(crate) fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

/// Lint the whole workspace under `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let mut scanned = 0;
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if scopes(&rel_str).is_none() {
            continue;
        }
        scanned += 1;
        let source = std::fs::read_to_string(root.join(rel))?;
        findings.extend(lint_source(&rel_str, &source));
    }
    Ok(Report { findings, files_scanned: scanned })
}

/// Lint explicit files (fixture mode). Each file may open with a
/// `// lint-fixture-as: <repo-relative path>` header that sets the
/// virtual path rules are scoped by; without one, the path is used as-is
/// relative to the current directory.
pub fn lint_files(paths: &[String]) -> std::io::Result<Report> {
    let mut findings = Vec::new();
    for p in paths {
        let source = std::fs::read_to_string(p)?;
        let virtual_path = source
            .lines()
            .next()
            .and_then(|l| l.trim().strip_prefix("// lint-fixture-as:"))
            .map(|v| v.trim().to_string())
            .unwrap_or_else(|| p.replace('\\', "/"));
        findings.extend(lint_source(&virtual_path, &source).into_iter().map(|mut f| {
            // Report the real on-disk path so diagnostics stay clickable.
            f.file = p.clone();
            f
        }));
    }
    Ok(Report { findings, files_scanned: paths.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_rules() {
        assert!(scopes("vendor/parking_lot/src/lib.rs").is_none());
        assert!(scopes("crates/core/src/sync/audit.rs").is_none());
        assert!(scopes("crates/check/fixtures/no_raw_lock/flagged.rs").is_none());
        let engine = scopes("crates/runtime/src/engine.rs").unwrap();
        assert!(engine.contains(&"no-raw-lock"));
        assert!(engine.contains(&"no-unwrap-in-prod"));
        assert!(engine.contains(&"lock-across-io"));
        let core = scopes("crates/core/src/reference.rs").unwrap();
        assert!(core.contains(&"no-wallclock-in-deterministic"));
        assert!(!core.contains(&"no-unwrap-in-prod"));
        // The binary slate codec is replay-critical: its byte output must
        // be a pure function of the document, so the wall-clock ban
        // covers it (at-rest bytes and WAL replay both depend on it).
        let mbf = scopes("crates/core/src/mbf.rs").unwrap();
        assert!(mbf.contains(&"no-wallclock-in-deterministic"));
        // Integration tests: raw-lock rule still applies, unwrap rule not.
        let t = scopes("tests/store_pipeline.rs").unwrap();
        assert!(t.contains(&"no-raw-lock"));
        assert!(!t.contains(&"no-unwrap-in-prod"));
    }

    #[test]
    fn workspace_is_lint_clean() {
        // The repo's own acceptance gate, dogfooded as a unit test: the
        // full workspace must produce zero findings.
        let report = lint_workspace(&default_root()).expect("workspace readable");
        assert!(
            report.findings.is_empty(),
            "workspace must be lint-clean:\n{}",
            report.render_text()
        );
        assert!(report.files_scanned > 50, "sanity: walked the real tree");
    }
}
