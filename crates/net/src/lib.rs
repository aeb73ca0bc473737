//! # muppet-net — the Muppet wire
//!
//! The seed reproduced §4's distribution *logic* over an in-process
//! simulated cluster; this crate supplies the missing wire. It defines:
//!
//! * [`transport::Transport`] — the cluster communication abstraction:
//!   direct worker→worker event passing (§4.1), the master failure channel
//!   (§4.3), and remote slate/store reads (§4.4);
//! * [`transport::InProcessTransport`] — the original synchronous queue
//!   hand-off, refactored behind the trait with identical semantics;
//! * [`tcp::TcpTransport`] — real TCP sockets with length-prefixed binary
//!   framing ([`frame`], reusing `muppet-core::codec`): per-peer batching
//!   senders that coalesce events into `Events` frames, flushed on
//!   size, on producer demand, or at an age ceiling
//!   ([`tcp::BatchConfig`], [`tcp::FlushReason`]), with bounded outboxes
//!   (backpressure, not buffering), connection pooling for
//!   request/response frames, and send-failure surfacing so the §4.3
//!   failure protocol triggers on actual connection errors — with every
//!   event of a failed batch accounted individually;
//! * [`topology::Topology`] — static cluster layout (TOML subset or peer
//!   list) for `muppetd` processes.
//!
//! The engine side plugs in via [`transport::ClusterHandler`]; see
//! `muppet-runtime::engine` and DESIGN.md §5.

pub mod frame;
pub mod tcp;
pub mod topology;
pub mod transport;

pub use frame::{
    Frame, MembershipPhase, MembershipUpdate, StoreGetItem, StorePutItem, WireEvent, MAX_FORWARDS,
};
pub use tcp::{BatchConfig, FlushReason, TcpListenerHandle, TcpStats, TcpTransport};
pub use topology::{NodeSpec, Topology};
pub use transport::{ClusterHandler, InProcessTransport, MachineId, NetError, Transport};
