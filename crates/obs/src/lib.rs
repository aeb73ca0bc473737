//! Observability substrate (§4.5, §6): the unified metrics registry the
//! engines, caches, transports and stores hang their counters on.
//!
//! The paper's operational story at Kosmix — spotting hot keys, queue
//! buildup, and slow machines in production — needs three things the
//! processing path must provide without slowing down:
//!
//! * **[`Registry`]** — named [`Counter`]/[`Histogram`] handles (plain
//!   atomics, zero allocation to record) plus pull-style *collectors* for
//!   state that is not a count or lives elsewhere (every gauge, wire
//!   stats, WAL sync counts). One [`Registry::render`] call produces the
//!   Prometheus text exposition.
//! * **[`SpaceSaving`]** — the fixed-size heavy-hitters sketch behind
//!   per-⟨op, key⟩ rate telemetry (the hot-key signal ROADMAP item 5's
//!   auto-splitting will act on).
//! * **[`Logger`]** — leveled, optionally JSON-lines structured logging
//!   with machine/epoch/op fields, replacing scattered `eprintln!`s.
//!
//! Everything here is engine-agnostic: no dependency on the runtime
//! crates, so every layer of the workspace can use it.

mod histogram;
mod logger;
mod registry;
mod sketch;

pub use histogram::{Histogram, LatencySummary, BUCKETS};
pub use logger::{FieldValue, Level, Logger};
pub use registry::{
    parse_exposition, Counter, HistogramSnapshot, ParsedSample, Registry, Sample, Sampler, Value,
};
pub use sketch::{HeavyHitter, SpaceSaving};
