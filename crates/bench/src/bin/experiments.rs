//! The experiment harness CLI: regenerates every figure / quantified claim
//! of the paper (DESIGN.md §4).
//!
//! ```sh
//! cargo run -p muppet-bench --release --bin experiments            # all
//! cargo run -p muppet-bench --release --bin experiments -- x5 x7  # some
//! cargo run -p muppet-bench --release --bin experiments -- all --quick
//! ```

use muppet_bench::{run_experiment, Scale, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::QUICK } else { Scale::FULL };
    let requested: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();

    let to_run: Vec<&str> = if requested.is_empty() || requested == ["all"] {
        ALL_EXPERIMENTS.to_vec()
    } else {
        requested
    };

    println!("Muppet experiment harness — reproducing the paper's evaluation surface");
    println!("(figures 1–4 + §4/§5 operational claims; see DESIGN.md §4)");
    if quick {
        println!("[quick mode: event counts divided by {}]", Scale::QUICK.divisor);
    }

    let t0 = std::time::Instant::now();
    let mut unknown = Vec::new();
    for id in to_run {
        if !run_experiment(id, scale) {
            unknown.push(id.to_string());
        }
    }
    if !unknown.is_empty() {
        eprintln!("\nunknown experiment ids: {unknown:?}; known: {ALL_EXPERIMENTS:?}");
        std::process::exit(2);
    }
    println!("\nall requested experiments completed in {:.1?}", t0.elapsed());
}
