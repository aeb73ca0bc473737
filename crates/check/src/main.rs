//! `muppet-check` CLI.
//!
//! ```text
//! cargo run -p muppet-check -- lint            # lint the workspace
//! cargo run -p muppet-check -- lint --json     # machine-readable summary
//! cargo run -p muppet-check -- lint FILE...    # lint explicit files
//!                                              # (honors `// lint-fixture-as:` headers)
//! cargo run -p muppet-check -- lint --root DIR # lint another tree
//! cargo run -p muppet-check -- loc [--root DIR] # code/test lines per package
//! ```
//!
//! Exit code 0 = clean, 1 = findings, 2 = usage/IO error.

use muppet_check::{lint, loc};

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn run(args: Vec<String>) -> i32 {
    let mut args = args.into_iter().peekable();
    let command = args.next();
    match command.as_deref() {
        Some("lint") | Some("loc") => {}
        Some("--help") | Some("-h") | None => {
            eprintln!(
                "usage: muppet-check lint [--json] [--root DIR] [FILE...]\n       \
                 muppet-check loc [--root DIR]\n\nrules: {}",
                muppet_check::rules::RULES.join(", ")
            );
            return if args.len() == 0 { 2 } else { 0 };
        }
        Some(other) => {
            eprintln!("muppet-check: unknown command `{other}` (try `lint` or `loc`)");
            return 2;
        }
    }
    let mut json = false;
    let mut root = lint::default_root();
    let mut files: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = dir.into(),
                None => {
                    eprintln!("muppet-check: --root needs a directory");
                    return 2;
                }
            },
            f => files.push(f.to_string()),
        }
    }
    if command.as_deref() == Some("loc") {
        return match loc::count_workspace(&root) {
            Ok(rows) => {
                print!("{}", loc::render(&rows));
                0
            }
            Err(e) => {
                eprintln!("muppet-check: {e}");
                2
            }
        };
    }
    let report =
        if files.is_empty() { lint::lint_workspace(&root) } else { lint::lint_files(&files) };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("muppet-check: {e}");
            return 2;
        }
    };
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.findings.is_empty() {
        0
    } else {
        1
    }
}
