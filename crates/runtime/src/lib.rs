//! # muppet-runtime — the Muppet execution engines
//!
//! This crate executes MapUpdate applications (defined with `muppet-core`)
//! on a simulated cluster of machines, reproducing both generations of the
//! system described in §4 of the paper:
//!
//! * **Muppet 1.0** ([`engine::EngineKind::Muppet1`]): each worker is bound
//!   to a single map or update function (the conductor/JVM pair of §4.5,
//!   here one thread per worker); events route via a per-function hash ring;
//!   every updater-worker keeps its *own* slate cache — fragmenting the
//!   machine's cache budget exactly as §4.5 laments.
//! * **Muppet 2.0** ([`engine::EngineKind::Muppet2`]): per machine, a pool
//!   of worker threads each able to run any function; incoming events hash
//!   to a *primary and secondary* queue (two-choice dispatch, [`dispatch`]),
//!   bounding slate contention to two workers while relieving hot-key
//!   queues; all slates live in one central per-machine cache ([`cache`]).
//!
//! Shared infrastructure:
//!
//! * [`queue`] — bounded worker queues with the §4.3 overflow hooks;
//! * [`overflow`] — drop / overflow-stream / source-throttling policies;
//! * [`master`] — the failure master: workers report unreachable machines,
//!   the master broadcasts, rings drop the dead machine (§4.3);
//! * [`cache`] — LRU slate caches with write-through / interval / on-evict
//!   flush policies into the `muppet-slatestore` cluster (§4.2);
//! * [`http`] — the per-node HTTP server for live slate reads (§4.4);
//! * `stats` — the engine's registry and the handles it records into.
//!
//! The cluster runs in one process or, over TCP, one machine per process
//! ([`engine::TransportKind`]); the engine decides which machines are
//! local and calls the wire only for the others. DESIGN.md §1 lists what
//! is simulated, §5 the wire.

pub mod cache;
pub mod dispatch;
pub mod dlq;
pub mod engine;
pub mod http;
mod ingest;
pub mod ingestlog;
mod ledger;
pub mod lru;
pub mod master;
mod membership;
pub mod netstore;
pub mod overflow;
mod placement;
pub mod queue;
mod send;
mod split;
mod stats;
mod worker;

pub use cache::{FlushPolicy, SlateCache};
pub use engine::{Engine, EngineConfig, EngineKind, EngineStats, TransportKind};
pub use overflow::OverflowPolicy;
