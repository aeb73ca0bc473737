//! Queue-overflow policies (§4.3, §5).
//!
//! When worker A cannot place an event on worker B's full queue, "A has to
//! invoke a queue overflow mechanism", which can:
//!
//! 1. **drop** the incoming events (logged for later processing/debugging);
//! 2. redirect them to an **overflow stream** "whose recipients can process
//!    such events ... for example by substituting expensive operations ...
//!    with approximate operations that are cheaper to execute";
//! 3. **slow down the pace of passing events** — implemented as *source
//!    throttling* only (§5): internal throttling "can quickly introduce
//!    deadlocks" in cyclic workflows, so only external stream intake
//!    blocks; internal events force through.

/// What to do when a destination queue is full.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Drop the event and log it (the paper's default posture: "low latency
    /// is far more important ... failing to process some tweets is
    /// acceptable").
    #[default]
    DropAndLog,
    /// Publish the event into the named (degraded-service) stream instead.
    /// If the overflow stream's queues are also full, the event drops.
    OverflowStream(String),
    /// Block external `submit` calls while queues are full; force internal
    /// events through regardless (deadlock-free by §5's argument).
    SourceThrottle,
}

/// The action an engine should take for one overflowing event. Produced by
/// [`OverflowPolicy::decide`]; kept as data so engines and tests share the
/// exact decision logic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OverflowAction {
    /// Count and drop.
    Drop,
    /// Re-route to this stream.
    Redirect(String),
    /// Enqueue beyond capacity (internal event under throttling).
    ForceThrough,
    /// Block the producer until space frees (external event under
    /// throttling).
    BlockProducer,
}

impl OverflowPolicy {
    /// Decide the action for an event that found its queue full.
    /// `external` marks events entering from outside (vs. operator
    /// emissions); `already_redirected` guards against redirect loops when
    /// the overflow stream itself overflows.
    pub fn decide(&self, external: bool, already_redirected: bool) -> OverflowAction {
        match self {
            OverflowPolicy::DropAndLog => OverflowAction::Drop,
            OverflowPolicy::OverflowStream(stream) => {
                if already_redirected {
                    OverflowAction::Drop
                } else {
                    OverflowAction::Redirect(stream.clone())
                }
            }
            OverflowPolicy::SourceThrottle => {
                if external {
                    OverflowAction::BlockProducer
                } else {
                    OverflowAction::ForceThrough
                }
            }
        }
    }
}

/// A bounded log of dropped events for "later processing and debugging"
/// (§4.3). Keeps the most recent `capacity` descriptions.
#[derive(Debug)]
pub struct DropLog {
    entries: muppet_core::sync::Mutex<std::collections::VecDeque<String>>,
    capacity: usize,
}

impl DropLog {
    /// A log retaining up to `capacity` recent drops.
    pub fn new(capacity: usize) -> Self {
        DropLog {
            entries: muppet_core::sync::Mutex::new(std::collections::VecDeque::new()),
            capacity,
        }
    }

    /// Record a dropped event.
    pub fn log(&self, description: String) {
        let mut entries = self.entries.lock();
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(description);
    }

    /// Snapshot of the retained (most recent) drop descriptions.
    pub fn recent(&self) -> Vec<String> {
        self.entries.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_policy_always_drops() {
        let p = OverflowPolicy::DropAndLog;
        assert_eq!(p.decide(true, false), OverflowAction::Drop);
        assert_eq!(p.decide(false, true), OverflowAction::Drop);
    }

    #[test]
    fn overflow_stream_redirects_once() {
        let p = OverflowPolicy::OverflowStream("S_degraded".into());
        assert_eq!(p.decide(false, false), OverflowAction::Redirect("S_degraded".into()));
        // The overflow stream itself overflowed: no infinite loop.
        assert_eq!(p.decide(false, true), OverflowAction::Drop);
    }

    #[test]
    fn throttle_blocks_only_external_sources() {
        let p = OverflowPolicy::SourceThrottle;
        assert_eq!(p.decide(true, false), OverflowAction::BlockProducer);
        // Internal events force through — §5's deadlock argument: an
        // updater emitting 10k events into its own input must not block on
        // itself.
        assert_eq!(p.decide(false, false), OverflowAction::ForceThrough);
    }

    #[test]
    fn drop_log_retains_the_most_recent() {
        let log = DropLog::new(3);
        for i in 0..10 {
            log.log(format!("event-{i}"));
        }
        assert_eq!(log.recent(), vec!["event-7", "event-8", "event-9"]);
    }

    #[test]
    fn default_policy_is_drop() {
        assert_eq!(OverflowPolicy::default(), OverflowPolicy::DropAndLog);
    }
}
