//! # muppet-bench — the experiment harness
//!
//! Regenerates every figure and quantified claim of the paper's evaluation
//! surface (the paper is an experience report: Figures 1–4 plus §4–§5's
//! operational claims; see DESIGN.md §4 for the full index).
//!
//! Run everything: `cargo run -p muppet-bench --release --bin experiments`
//! Run one:        `cargo run -p muppet-bench --release --bin experiments -- x5`
//! Quick mode:     `... -- all --quick` (smaller event counts)
//!
//! Performance is measured end to end by the e2e benchmark
//! (`src/bin/e2e`, declared in `BENCHMARK.json`).

pub mod experiments;
pub mod harness;
pub mod table;

/// All experiment ids in run order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "f1a", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10", "x11", "x12", "x13", "x14",
];

/// Scale knob: `--quick` divides event counts for CI-speed runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Divide nominal event counts by this factor.
    pub divisor: usize,
}

impl Scale {
    /// Full-size experiments.
    pub const FULL: Scale = Scale { divisor: 1 };
    /// Reduced size for smoke runs.
    pub const QUICK: Scale = Scale { divisor: 10 };

    /// Scale an event count.
    pub fn events(&self, nominal: usize) -> usize {
        (nominal / self.divisor).max(100)
    }
}

/// Dispatch one experiment by id. Unknown ids return false.
pub fn run_experiment(id: &str, scale: Scale) -> bool {
    match id {
        "f1a" => experiments::f1a_workflow_graphs::run(scale),
        "x1" => experiments::x1_distributed_execution::run(scale),
        "x2" => experiments::x2_retailer_counts::run(scale),
        "x3" => experiments::x3_hot_topics::run(scale),
        "x4" => experiments::x4_scale_latency::run(scale),
        "x5" => experiments::x5_engine_generations::run(scale),
        "x6" => experiments::x6_cache_and_devices::run(scale),
        "x7" => experiments::x7_flush_policies::run(scale),
        "x8" => experiments::x8_quorum::run(scale),
        "x9" => experiments::x9_ttl_growth::run(scale),
        "x10" => experiments::x10_machine_failure::run(scale),
        "x11" => experiments::x11_overflow::run(scale),
        "x12" => experiments::x12_hotspot_splitting::run(scale),
        "x13" => experiments::x13_slate_sizes::run(scale),
        "x14" => experiments::x14_http_reads::run(scale),
        _ => return false,
    }
    true
}
