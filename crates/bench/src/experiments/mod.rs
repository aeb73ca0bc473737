//! One module per reproduced figure / claim. See DESIGN.md §4 for the
//! experiment index.

pub mod f1a_workflow_graphs;
pub mod x10_machine_failure;
pub mod x11_overflow;
pub mod x12_hotspot_splitting;
pub mod x13_slate_sizes;
pub mod x14_http_reads;
pub mod x1_distributed_execution;
pub mod x2_retailer_counts;
pub mod x3_hot_topics;
pub mod x4_scale_latency;
pub mod x5_engine_generations;
pub mod x6_cache_and_devices;
pub mod x7_flush_policies;
pub mod x8_quorum;
pub mod x9_ttl_growth;

/// Print a standard experiment banner.
pub(crate) fn banner(id: &str, title: &str, paper_ref: &str) {
    println!("\n=== {id}: {title}");
    println!("    paper: {paper_ref}\n");
}
