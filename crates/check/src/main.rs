//! `muppet-check` CLI.
//!
//! ```text
//! cargo run -p muppet-check -- lint            # lint the workspace
//! cargo run -p muppet-check -- lint --json     # machine-readable summary
//! cargo run -p muppet-check -- lint FILE...    # lint explicit files
//!                                              # (honors `// lint-fixture-as:` headers)
//! cargo run -p muppet-check -- lint --root DIR # lint another tree
//! cargo run -p muppet-check -- loc [--root DIR] # code/test lines per package
//!     [--ceiling PACKAGE=LINES]...             # fail if a package's code lines exceed
//! ```
//!
//! Exit code 0 = clean, 1 = findings or a broken ceiling, 2 = usage/IO error.

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
                 muppet-check loc [--root DIR] [--ceiling PACKAGE=LINES]...\n\nrules: {}",
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
    let mut ceilings: Vec<(String, usize)> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--ceiling" => match loc::parse_ceiling(&args.next().unwrap_or_default()) {
                Ok(ceiling) => ceilings.push(ceiling),
                Err(e) => {
                    eprintln!("muppet-check: {e}");
                    return 2;
                }
            },
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
                let broken = loc::over_ceiling(&rows, &ceilings);
                broken.iter().for_each(|message| eprintln!("muppet-check: {message}"));
                i32::from(!broken.is_empty())
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
