//! # muppet-core — the MapUpdate programming model
//!
//! This crate defines the data model and programming interfaces of
//! **MapUpdate**, the MapReduce-style framework for fast data introduced by
//! the Muppet paper (Lam et al., VLDB 2012), plus a deterministic
//! *reference executor* that delivers one event at a time and realizes the
//! paper's "well-defined" semantics exactly (Section 3):
//!
//! * events are tuples ⟨sid, ts, k, v⟩ ([`event::Event`]);
//! * a *stream* is the sequence of events with one sid in increasing
//!   timestamp order, with a deterministic tie-breaking procedure;
//! * *map* functions ([`operator::Mapper`]) consume events and emit events;
//! * *update* functions ([`operator::Updater`]) additionally receive the
//!   **slate** ([`slate::Slate`]) for the event's key — the summary of all
//!   events with that key the updater has seen so far;
//! * applications are workflows ([`workflow::Workflow`]) — directed graphs
//!   (cycles allowed) of map/update functions connected by streams;
//! * every output event carries a timestamp strictly greater than its input
//!   event, which keeps cyclic workflows well-defined.
//!
//! The distributed runtime lives in `muppet-runtime`; the durable slate
//! store lives in `muppet-slatestore`. Both build exclusively on the types
//! defined here, and both are tested against [`reference::ReferenceExecutor`]
//! as the golden model.
//!
//! The crate is dependency-light by design: JSON (used throughout the paper
//! for slate and feed payloads) and binary codecs are implemented here.

pub mod codec;
pub mod config;
pub mod error;
pub mod event;
pub mod hash;
pub mod json;
pub mod mbf;
pub mod operator;
pub mod reference;
pub mod slate;
pub mod sync;
pub mod time;
pub mod workflow;

pub use error::{Error, Result};
pub use event::{Event, Key, StreamId, Timestamp};
pub use json::Json;
pub use mbf::{Codec, CodecChoice};
pub use operator::{combine_decimal_sum, CombinedUpdate, Emitter, Mapper, Updater};
pub use reference::ReferenceExecutor;
pub use slate::Slate;
pub use workflow::{Workflow, WorkflowBuilder};
