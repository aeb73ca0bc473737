//! # muppet-net — the Muppet wire between processes
//!
//! [`transport`] (the [`Transport`] and [`ClusterHandler`] traits),
//! [`tcp`] (the one implementation), [`frame`] (the frames) and
//! [`topology`] (the cluster layout). An engine whose machines all live
//! in one process has no wire. DESIGN.md §5.

pub mod frame;
pub mod tcp;
pub mod topology;
pub mod transport;

pub use frame::{
    Frame, MembershipPhase, MembershipUpdate, StoreGetItem, StorePutItem, WireEvent, MAX_FORWARDS,
};
pub use tcp::{BatchConfig, FlushReason, TcpListenerHandle, TcpStats, TcpTransport};
pub use topology::{NodeSpec, Topology};
pub use transport::{ClusterHandler, MachineId, NetError, Transport};
