//! `muppet-check loc`: code and test lines per package, one recipe for
//! every PR's line accounting, and `--ceiling` to hold a package to it.
//!
//! A line counts when its code projection ([`crate::lexer`]) is not
//! blank, so comments, doc comments, blank lines and the inside of a
//! multi-line string literal are excluded. In a package's `src/`,
//! everything from the first `#[cfg(test)]` item on is test code;
//! everything under its `tests/` is test code; other directories
//! (examples, benches, fixtures) are not counted.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::{lexer, lint};

/// One package's line counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageLoc {
    /// The package directory, repo-relative (`.` for the root package).
    pub package: String,
    /// Non-test code lines.
    pub code: usize,
    /// Test code lines.
    pub test: usize,
}

/// `(code, test)` lines of one `src/` file.
pub fn count_source(source: &str) -> (usize, usize) {
    let lines = lexer::scan(source);
    let first_test = lines.iter().position(|l| l.in_test).unwrap_or(lines.len());
    let count = |ls: &[lexer::LineInfo]| ls.iter().filter(|l| !l.code.trim().is_empty()).count();
    (count(&lines[..first_test]), count(&lines[first_test..]))
}

/// Count every package of the workspace under `root`, in path order. A
/// file belongs to the nearest directory above it that holds a
/// `Cargo.toml`, so a package nested in another's `src/` is a row of its
/// own; `vendor/` (shims for absent crates.io dependencies) is not counted.
pub fn count_workspace(root: &Path) -> std::io::Result<Vec<PackageLoc>> {
    let mut files = Vec::new();
    lint::collect_rs(root, root, &mut files)?;
    let mut rows: BTreeMap<PathBuf, (usize, usize)> = BTreeMap::new();
    for rel in files.iter().filter(|rel| !rel.starts_with("vendor")) {
        let is_package = |dir: &&Path| root.join(dir).join("Cargo.toml").is_file();
        let Some(package) = rel.ancestors().skip(1).find(is_package) else { continue };
        let inside = rel.strip_prefix(package).unwrap_or(rel);
        let all_test = match inside.components().next() {
            Some(top) if top.as_os_str() == "src" => false,
            Some(top) if top.as_os_str() == "tests" => true,
            _ => continue,
        };
        let (code, test) = count_source(&std::fs::read_to_string(root.join(rel))?);
        let row = rows.entry(package.to_path_buf()).or_default();
        if all_test {
            row.1 += code + test;
        } else {
            row.0 += code;
            row.1 += test;
        }
    }
    Ok(rows
        .into_iter()
        .map(|(dir, (code, test))| {
            let name = dir.to_string_lossy().replace('\\', "/");
            PackageLoc { package: if name.is_empty() { ".".into() } else { name }, code, test }
        })
        .collect())
}

/// A markdown table: one row per package, then the `runtime` + `net`
/// total ROADMAP item 1 budgets against, then everything.
pub fn render(rows: &[PackageLoc]) -> String {
    let sum = |pick: &dyn Fn(&&PackageLoc) -> bool| {
        rows.iter().filter(pick).fold((0, 0), |(c, t), r| (c + r.code, t + r.test))
    };
    let budgeted = sum(&|r| r.package == "crates/runtime" || r.package == "crates/net");
    let all = sum(&|_| true);
    let mut out = String::from("| package | code lines | test lines |\n|---|---:|---:|\n");
    for r in rows {
        out.push_str(&format!("| `{}` | {} | {} |\n", r.package, r.code, r.test));
    }
    out.push_str(&format!("| **runtime + net** | **{}** | **{}** |\n", budgeted.0, budgeted.1));
    out.push_str(&format!("| all packages | {} | {} |\n", all.0, all.1));
    out
}

/// Parse one `--ceiling <package>=<lines>` value.
pub fn parse_ceiling(arg: &str) -> Result<(String, usize), String> {
    let parsed = arg.split_once('=').and_then(|(package, lines)| {
        Some((package.trim_end_matches('/').to_string(), lines.parse().ok()?))
    });
    parsed.ok_or_else(|| format!("--ceiling wants <package>=<lines>, got `{arg}`"))
}

/// One message per ceiling the counted code lines break: the package, what
/// it has and what it may have. A ceiling on a package that was not
/// counted is broken too — a typo must not pass the gate.
pub fn over_ceiling(rows: &[PackageLoc], ceilings: &[(String, usize)]) -> Vec<String> {
    ceilings
        .iter()
        .filter_map(|(package, ceiling)| match rows.iter().find(|r| r.package == *package) {
            Some(row) if row.code <= *ceiling => None,
            Some(row) => Some(format!(
                "`{package}` has {} code lines, over its ceiling of {ceiling}: shrink it, or \
                 raise the ceiling where it is set and say why",
                row.code
            )),
            None => Some(format!("`{package}` has a ceiling of {ceiling} but is not a package")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_blanks_and_test_modules_are_told_apart() {
        let src = "//! Module doc.\n\nuse std::fmt; // trailing comment\n/* block\n   comment */\n\
                   fn prod() {\n    let s = \"// not a comment\";\n}\n\n#[cfg(test)]\nmod tests {\n\
                   \x20   // a comment\n    #[test]\n    fn t() {}\n}\n";
        // use, fn, let, closing brace | attribute, mod, #[test], fn, brace.
        assert_eq!(count_source(src), (4, 5));
        assert_eq!(count_source(""), (0, 0));
    }

    #[test]
    fn a_ceiling_names_the_package_and_both_numbers() {
        let rows = [
            PackageLoc { package: "crates/net".into(), code: 1910, test: 5 },
            PackageLoc { package: "crates/runtime".into(), code: 4926, test: 9 },
        ];
        let ceilings = |args: &[&str]| -> Vec<(String, usize)> {
            args.iter().map(|a| parse_ceiling(a).expect("well-formed")).collect()
        };
        let at = ceilings(&["crates/runtime=4926", "crates/net/=1910"]);
        assert!(over_ceiling(&rows, &at).is_empty(), "at the ceiling is inside it");
        let broken = over_ceiling(&rows, &ceilings(&["crates/net=1910", "crates/runtime=4925"]));
        assert_eq!(broken.len(), 1);
        assert!(
            ["`crates/runtime`", "4926", "4925"].iter().all(|part| broken[0].contains(part)),
            "{broken:?}"
        );
        assert_eq!(over_ceiling(&rows, &ceilings(&["crates/runtim=9999"])).len(), 1);
        for malformed in ["crates/net", "crates/net=", "crates/net=many", "=12x"] {
            assert!(parse_ceiling(malformed).is_err(), "{malformed}");
        }
    }

    #[test]
    fn the_workspace_is_counted_per_package() {
        let rows = count_workspace(&crate::lint::default_root()).expect("workspace readable");
        let row = |name: &str| rows.iter().find(|r| r.package == name).expect(name).clone();
        assert!(row("crates/net").code > 1_000 && row("crates/net").test > 500);
        assert!(row("crates/runtime").code > row("crates/net").code);
        assert!(row(".").test > 1_000, "the root package's tests/ are test lines");
        // A package nested in another's src/ is its own row, counted once.
        assert!(row("crates/bench/src/bin/e2e").code > 1_000);
        assert!(!rows.iter().any(|r| r.package.starts_with("vendor")));
        let table = render(&rows);
        assert!(table.contains("| **runtime + net** |"), "{table}");
    }
}
