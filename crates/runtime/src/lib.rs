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
//! The cluster runs over a pluggable wire ([`muppet_net::Transport`],
//! selected via [`engine::TransportKind`]): by default *in-process* —
//! machines are actor-like structs whose worker threads are real OS
//! threads, and inter-machine "networking" is direct queue hand-off — or
//! over real TCP, where each engine process owns one machine of a static
//! cluster (`muppetd`) and failure detection rides on actual connection
//! errors. The distribution logic — hash rings, direct worker→worker event
//! passing, failure detection on send — is the paper's either way. See
//! DESIGN.md §1 for the simulation substitution notes and §5 for the
//! transport.

pub mod cache;
pub mod dispatch;
pub mod dlq;
pub mod engine;
pub mod http;
pub mod ingestlog;
pub mod lru;
pub mod master;
pub mod netstore;
pub mod overflow;
mod placement;
pub mod queue;
mod stats;

pub use cache::{FlushPolicy, SlateCache};
pub use engine::{Engine, EngineConfig, EngineKind, EngineStats, TransportKind};
pub use overflow::OverflowPolicy;
