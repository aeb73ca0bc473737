//! `e2e` — the open-loop end-to-end benchmark of a 3-node loopback
//! cluster, with a per-layer ledger. See README.md beside this crate for
//! the metric and workload definitions.
//!
//! ```text
//! e2e [run] --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2e all [--smoke] [--seed <n>] [--seconds <s>]
//! e2e layers --workload <name> [--seed <n>]
//! e2e repeat <N> [--seed <n>] [--seconds <s>] [--same-seed]
//! e2e manifest          # BENCHMARK.json, from the tables in report.rs
//! ```
//!
//! `run` prints its report on stderr and, as the last line of stdout, one
//! JSON object `{correct, attempted, failed, metrics}`; it exits non-zero
//! when any operation failed.

mod cluster;
mod hist;
mod layers;
mod openloop;
mod probe;
mod proc;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use run::Options;
use spec::{Spec, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: a nominal 2 s flood and two 10 s
/// open-loop phases.
const DEFAULT_SECONDS: f64 = 22.0;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    same_seed: bool,
    repeats: usize,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: e2e [run] --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--trace-out <file>]\n       e2e all [--smoke] [--seed <n>] [--seconds <s>]\n       \
         e2e layers --workload <name> [--seed <n>]\n       \
         e2e repeat <N> [--seed <n>] [--seconds <s>] [--same-seed]\n       e2e manifest",
        WORKLOADS.map(|w| w.name).join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1).peekable();
    let command = match raw.peek() {
        Some(first) if !first.starts_with("--") => raw.next().unwrap_or_default(),
        _ => "run".to_string(),
    };
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        same_seed: false,
        repeats: 5,
        trace_out: None,
    };
    if args.command == "repeat" {
        let n = raw.next().ok_or("repeat wants a count")?;
        args.repeats = n.parse().map_err(|_| format!("repeat wants a count, got {n:?}"))?;
    }
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or(format!("{flag} wants a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed wants a whole number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--same-seed" => args.same_seed = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Run directories live beside the binary, inside the build's target
/// directory: inside the checkout, on the build's disk, never committed.
fn run_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe.parent().and_then(|p| p.parent()).ok_or("binary has no target directory")?;
    Ok(target.join("e2e-run"))
}

fn workload(args: &Args) -> Result<&'static Spec, String> {
    let name = args.workload.as_deref().ok_or_else(usage)?;
    spec::find(name).ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))
}

fn options(args: &Args, seed: u64, trace: bool) -> Result<Options, String> {
    Ok(Options {
        seed,
        seconds: args.seconds,
        trace,
        smoke: args.smoke,
        trace_out: args.trace_out.clone(),
        run_root: run_root()?,
    })
}

fn run_one(spec: &'static Spec, opts: &Options) -> Result<Outcome, String> {
    let outcome = run::run(spec, opts)?;
    eprint!("{}", outcome.render());
    Ok(outcome)
}

fn main_inner() -> Result<bool, String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "run" => {
            let outcome = run_one(workload(&args)?, &options(&args, args.seed, args.trace)?)?;
            println!("{}", outcome.result_line()?);
            Ok(outcome.correct())
        }
        "all" => {
            // Every workload, untraced then traced; one tagged result line
            // each, which is what the smoke test reads.
            let mut ok = true;
            for spec in &WORKLOADS {
                for trace in [false, true] {
                    let outcome = run_one(spec, &options(&args, args.seed, trace)?)?;
                    println!("RESULT {} {} {}", spec.name, trace as u8, outcome.result_line()?);
                    ok &= outcome.correct();
                }
            }
            Ok(ok)
        }
        "layers" => {
            let spec = workload(&args)?;
            let events = spec.events(4_096, args.seed);
            let slates = run::sample_slates(spec, &events)?;
            let dir = run_root()?.join(format!("{}-layers", std::process::id()));
            let frame_len = (spec.rate_base * openloop::TICK_US as f64 / 1e6).round() as usize;
            let costs = layers::measure(&events, &slates, spec.terminal(), frame_len, 256, &dir)?;
            for m in costs.metrics() {
                println!("{:<34} {:>14.1} {}", m.name, m.value, m.unit);
            }
            Ok(true)
        }
        "repeat" => stats::repeat(&stats::Repeat {
            n: args.repeats,
            same_seed: args.same_seed,
            template: options(&args, args.seed, false)?,
        }),
        "manifest" => {
            print!("{}", report::manifest(DEFAULT_SECONDS));
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e: operations failed (see ops_failed above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
