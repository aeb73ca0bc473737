//! # muppet-apps — the paper's example MapUpdate applications
//!
//! Faithful Rust ports of every application the paper describes:
//!
//! | Module | Paper reference |
//! |---|---|
//! | [`retailer`] | Example 1 / Example 4 / Figure 1(b) / Figures 3–4: count Foursquare checkins per retailer |
//! | [`hot_topics`] | Example 2 / Example 5 / Figure 1(c): detect hot Twitter topics per minute |
//! | [`reputation`] | Example 3: maintain per-user reputation scores |
//! | [`top_urls`] | §2: "maintaining the top-ten URLs being passed around on Twitter" |
//! | [`http_counters`] | §2: "live counters of the number of HTTP requests made to various parts of a Web site" |
//! | [`split_counter`] | §5 Example 6: hotspot relief by splitting an associative/commutative count across keys |
//!
//! Every module exposes its `workflow()` plus operator constructors, usable
//! with both the deterministic [`muppet_core::reference::ReferenceExecutor`]
//! and the `muppet-runtime` engines. Operators read event values with
//! [`muppet_core::json::scan`]: DESIGN.md §8 "Operators read fields".

pub mod hot_topics;
pub mod http_counters;
pub mod reputation;
pub mod retailer;
pub mod split_counter;
pub mod top_urls;
