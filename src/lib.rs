//! # Muppet — MapReduce-style processing of fast data
//!
//! A from-scratch Rust reproduction of *Muppet* (Lam et al., VLDB 2012) and
//! its **MapUpdate** programming model.
//!
//! MapUpdate generalizes MapReduce to unbounded streams:
//!
//! * **Map** functions subscribe to streams and emit zero or more events per
//!   input event — stateless, like MapReduce mappers.
//! * **Update** functions subscribe to streams and, per event key, maintain a
//!   **slate**: a continuously-updated summary of every event with that key
//!   seen so far. Slates are first-class: cached in memory, persisted to a
//!   key-value store, and readable live over HTTP.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`](muppet_core) — the programming model, workflow graphs, and a
//!   deterministic reference executor.
//! * [`obs`](muppet_obs) — the observability substrate: the unified
//!   metrics registry behind `GET /metrics`, the space-saving hot-key
//!   sketch, and leveled structured logging.
//! * [`net`](muppet_net) — the wire between processes: the `Transport`
//!   trait and its TCP implementation, binary framing, topology config,
//!   and the §4.3 failure frames (run a real cluster with the `muppetd`
//!   binary).
//! * [`slatestore`](muppet_slatestore) — the Cassandra-like LSM store that
//!   persists slates (memtable/WAL/SSTables/compaction/TTL/quorum).
//! * [`runtime`](muppet_runtime) — the Muppet 1.0 and 2.0 engines: hashed
//!   event routing, slate caches, failure handling, overflow policies, and
//!   the HTTP slate-read service.
//! * [`workloads`](muppet_workloads) — synthetic Twitter/Foursquare-style
//!   feeds used in place of the proprietary streams.
//! * [`apps`](muppet_apps) — the paper's example applications.
//!
//! ## Quickstart
//!
//! ```
//! use muppet::prelude::*;
//!
//! // Count words per key with an updater (cf. Figure 4 of the paper).
//! struct CountUpdater;
//! impl Updater for CountUpdater {
//!     fn name(&self) -> &str { "counter" }
//!     fn update(&self, ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
//!         let n = slate.as_str().and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
//!         slate.replace((n + 1).to_string().into_bytes());
//!         let _ = ctx; let _ = event;
//!     }
//! }
//!
//! let mut wf = Workflow::builder("quickstart");
//! wf.external_stream("S1");
//! wf.updater("counter", &["S1"]);
//! let wf = wf.build().unwrap();
//!
//! let mut exec = ReferenceExecutor::new(&wf);
//! exec.register_updater(CountUpdater);
//! exec.push_external("S1", Event::new("S1", 1, Key::from("walmart"), b"checkin".to_vec()));
//! exec.push_external("S1", Event::new("S1", 2, Key::from("walmart"), b"checkin".to_vec()));
//! exec.run_to_completion().unwrap();
//! assert_eq!(exec.slate("counter", &Key::from("walmart")).unwrap().as_str(), Some("2"));
//! ```

pub use muppet_apps as apps;
pub use muppet_core as core;
pub use muppet_net as net;
pub use muppet_obs as obs;
pub use muppet_runtime as runtime;
pub use muppet_slatestore as slatestore;
pub use muppet_workloads as workloads;

/// One-stop imports for building and running MapUpdate applications.
pub mod prelude {
    pub use muppet_core::{
        event::{Event, Key, StreamId, Timestamp},
        json::Json,
        operator::{Emitter, FnMapper, FnUpdater, Mapper, Updater},
        reference::ReferenceExecutor,
        slate::Slate,
        workflow::{Workflow, WorkflowBuilder},
        Codec, CodecChoice,
    };
    pub use muppet_net::topology::{NodeSpec, Topology};
    pub use muppet_obs::{Level, Logger, Registry};
    pub use muppet_runtime::{
        cache::FlushPolicy,
        engine::{Engine, EngineConfig, EngineKind, EngineStats, OperatorSet, TransportKind},
        http::HttpSlateServer,
        overflow::OverflowPolicy,
    };
    pub use muppet_slatestore::cluster::{Consistency, StoreCluster, StoreConfig};
}
