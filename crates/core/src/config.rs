//! The two §4.2 durability knobs that both the engine and the slate
//! store read: when dirty slates reach the store ([`FlushPolicy`]) and
//! how many replicas answer one store read or write ([`Consistency`]).
//!
//! An application is described in code: its workflow graph with
//! [`Workflow::builder`](crate::workflow::Workflow::builder), its engine
//! with `EngineConfig`. DESIGN.md's knob table sorts every engine field
//! and `muppetd` flag.

/// When dirty slates reach the key-value store (§4.2 "the application can
/// set the flushing interval, ranging from 'immediate write-through' to
/// 'only when evicted from cache'").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Every slate mutation writes to the store before the worker moves on.
    WriteThrough,
    /// A background flusher sweeps dirty slates every `ms` milliseconds
    /// ("a thread to provide background I/O to the durable key-value
    /// store", §4.5).
    IntervalMs(u64),
    /// Slates reach the store only when evicted (maximum write coalescing,
    /// maximum crash loss).
    OnEvict,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy::IntervalMs(100)
    }
}

/// Quorum required for one store read or write (§4.2: "any single machine
/// ... a majority of replicas ... or all of the replicas").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Consistency {
    /// Any single replica.
    One,
    /// A majority of the replica set.
    #[default]
    Quorum,
    /// Every replica.
    All,
}

impl Consistency {
    /// Acks required out of `replicas`.
    pub fn required(self, replicas: usize) -> usize {
        match self {
            Consistency::One => 1, // any single replica (replicas is validated >= 1)
            Consistency::Quorum => replicas / 2 + 1,
            Consistency::All => replicas,
        }
    }
}
