//! The deterministic reference executor.
//!
//! Section 3 argues that a MapUpdate application is *well-defined* — it
//! generates well-defined streams and slate-update sequences — provided:
//!
//! 1. map and update functions are deterministic;
//! 2. events are fed to each function in increasing timestamp order with a
//!    deterministic tie-break; and
//! 3. output timestamps strictly exceed input timestamps (so cycles make
//!    progress).
//!
//! "Ideally, a MapUpdate implementation should produce these exact streams
//! and slate updates. Due to practical constraints, however, it often can
//! only approximate them." This module *is* the ideal: a single-threaded
//! executor that realizes the exact semantics. The distributed engines in
//! `muppet-runtime` are tested against it — exact equality for loss-free
//! runs of order-insensitive (commutative) applications, bounded deviation
//! otherwise.
//!
//! How pending events are ordered (two sorted lanes merged at pop, a heap
//! for stragglers) is DESIGN.md §3, "The reference executor".

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::error::{Error, Result};
use crate::event::{Event, Key, StreamId};
use crate::hash::FxHashMap;
use crate::operator::{Mapper, Updater, VecEmitter};
use crate::slate::Slate;
use crate::workflow::{OpId, OpKind, Workflow};

/// Default bound on delivered events, so accidental self-feeding loops in
/// tests fail fast instead of spinning forever.
pub const DEFAULT_STEP_BUDGET: u64 = 10_000_000;

/// Heap entry: min-order by `(ts, seq)`.
#[derive(PartialEq, Eq)]
struct ByOrder(Event);

impl Ord for ByOrder {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.order().cmp(&other.0.order())
    }
}

impl PartialOrd for ByOrder {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The lane external events are admitted to.
const EXTERNAL: usize = 0;
/// The lane operator emissions are admitted to.
const EMITTED: usize = 1;

/// Admitted, undelivered events: one FIFO lane per admission source, each
/// sorted by `(ts, seq)`, and a heap for an admission that would land
/// behind its lane's tail.
#[derive(Default)]
struct Pending {
    lanes: [VecDeque<Event>; 2],
    behind: BinaryHeap<Reverse<ByOrder>>,
}

impl Pending {
    /// Queue `event` on `lane`. Returns `false` when it lands behind the
    /// lane's tail and goes to the heap instead.
    fn push(&mut self, lane: usize, event: Event) -> bool {
        let lane = &mut self.lanes[lane];
        // `seq` grows with every admission, so a tie on `ts` is in order.
        if lane.back().is_some_and(|tail| tail.ts > event.ts) {
            self.behind.push(Reverse(ByOrder(event)));
            return false;
        }
        lane.push_back(event);
        true
    }

    /// Remove the least pending event by `(ts, seq)`: the least of the two
    /// lane heads and the heap's top.
    fn pop(&mut self) -> Option<Event> {
        let heads = [
            self.lanes[EXTERNAL].front(),
            self.lanes[EMITTED].front(),
            self.behind.peek().map(|Reverse(ByOrder(e))| e),
        ];
        let (_, from) =
            heads.iter().enumerate().filter_map(|(i, e)| Some((e.as_ref()?.order(), i))).min()?;
        match from {
            EXTERNAL | EMITTED => self.lanes[from].pop_front(),
            _ => self.behind.pop().map(|Reverse(ByOrder(e))| e),
        }
    }
}

/// A registered operator implementation.
enum Operator {
    Map(Box<dyn Mapper>),
    Update(Box<dyn Updater>),
}

/// Counters describing a finished reference run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Events admitted (external + emitted).
    pub admitted: u64,
    /// Operator invocations (one event can fan out to several subscribers).
    pub deliveries: u64,
    /// Events emitted by operators.
    pub emitted: u64,
    /// Admissions that landed behind their lane's tail and were ordered by
    /// the heap (DESIGN.md §3): 0 when externals arrive in `ts` order.
    pub out_of_order: u64,
}

/// The single-threaded golden-model executor.
pub struct ReferenceExecutor<'wf> {
    wf: &'wf Workflow,
    /// Indexed by [`OpId`]; `None` until registered.
    ops: Vec<Option<Operator>>,
    /// Each updater's slates, indexed by [`OpId`] (a mapper's stays empty).
    slates: Vec<FxHashMap<Key, Slate>>,
    pending: Pending,
    next_seq: u64,
    /// Reused across deliveries and built over the workflow's streams, so
    /// a step allocates nothing of its own.
    emitter: VecEmitter<'wf>,
    record_streams: Vec<StreamId>,
    recorded: FxHashMap<StreamId, Vec<Event>>,
    stats: RunStats,
    step_budget: u64,
}

impl<'wf> ReferenceExecutor<'wf> {
    /// Build an executor for `wf`. Operator implementations must then be
    /// registered for every declared operator before running.
    pub fn new(wf: &'wf Workflow) -> Self {
        let n = wf.ops().len();
        ReferenceExecutor {
            wf,
            ops: std::iter::repeat_with(|| None).take(n).collect(),
            slates: std::iter::repeat_with(FxHashMap::default).take(n).collect(),
            pending: Pending::default(),
            next_seq: 0,
            emitter: VecEmitter::with_streams(wf.streams()),
            record_streams: Vec::new(),
            recorded: FxHashMap::default(),
            stats: RunStats::default(),
            step_budget: DEFAULT_STEP_BUDGET,
        }
    }

    /// Cap the number of delivered events (loop safety). The default is
    /// [`DEFAULT_STEP_BUDGET`].
    pub fn with_step_budget(mut self, budget: u64) -> Self {
        self.step_budget = budget;
        self
    }

    /// Record every event that flows through `stream` (for assertions and
    /// replay comparisons).
    pub fn record_stream(&mut self, stream: &str) {
        self.record_streams.push(StreamId::from(stream));
    }

    /// Register a map implementation; its `name()` must match a declared
    /// map function.
    pub fn register_mapper(&mut self, mapper: impl Mapper) -> &mut Self {
        self.register_mapper_boxed(Box::new(mapper)).expect("mapper not declared in workflow");
        self
    }

    /// Register a boxed mapper, returning an error on mismatches.
    pub fn register_mapper_boxed(&mut self, mapper: Box<dyn Mapper>) -> Result<()> {
        let id = self.declared(mapper.name(), OpKind::Map, "a map function")?;
        self.ops[id] = Some(Operator::Map(mapper));
        Ok(())
    }

    /// Register an update implementation; its `name()` must match a
    /// declared update function.
    pub fn register_updater(&mut self, updater: impl Updater) -> &mut Self {
        self.register_updater_boxed(Box::new(updater)).expect("updater not declared in workflow");
        self
    }

    /// Register a boxed updater, returning an error on mismatches.
    pub fn register_updater_boxed(&mut self, updater: Box<dyn Updater>) -> Result<()> {
        let id = self.declared(updater.name(), OpKind::Update, "an update function")?;
        self.ops[id] = Some(Operator::Update(updater));
        Ok(())
    }

    /// The id of the operator declared as `name`, if it is of `kind`.
    fn declared(&self, name: &str, kind: OpKind, expected: &str) -> Result<OpId> {
        let id = self.wf.op_id(name).ok_or_else(|| Error::UnknownOperator(name.to_string()))?;
        if self.wf.op(id).kind != kind {
            return Err(Error::OperatorMismatch {
                expected: expected.into(),
                got: name.to_string(),
            });
        }
        Ok(id)
    }

    /// Admit an external event. Only declared external streams accept
    /// outside events.
    pub fn push_external(&mut self, stream: &str, event: Event) {
        self.push_external_batch(stream, [event]);
    }

    /// Admit a batch of external events into one stream.
    pub fn push_external_batch(&mut self, stream: &str, events: impl IntoIterator<Item = Event>) {
        assert!(
            self.wf.is_external(stream),
            "stream {stream} is not external; operators publish internal events"
        );
        let id = StreamId::from(stream);
        for mut event in events {
            event.stream = id.clone();
            self.admit(EXTERNAL, event);
        }
    }

    fn admit(&mut self, lane: usize, mut event: Event) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        self.stats.admitted += 1;
        if !self.pending.push(lane, event) {
            self.stats.out_of_order += 1;
        }
    }

    /// Deliver the globally-least pending event to all subscribers.
    /// Returns `false` when no events remain.
    pub fn step(&mut self) -> Result<bool> {
        let Some(event) = self.pending.pop() else {
            return Ok(false);
        };
        if self.record_streams.contains(&event.stream) {
            self.recorded.entry(event.stream.clone()).or_default().push(event.clone());
        }
        let wf = self.wf;
        let mut emitter = std::mem::take(&mut self.emitter);
        for &op_id in wf.subscribers_of(event.stream.as_str()) {
            self.stats.deliveries += 1;
            if self.stats.deliveries > self.step_budget {
                return Err(Error::LoopBudgetExceeded { steps: self.step_budget });
            }
            match &self.ops[op_id] {
                Some(Operator::Map(mapper)) => mapper.map(&mut emitter, &event),
                Some(Operator::Update(updater)) => {
                    let slate =
                        self.slates[op_id].entry(event.key.clone()).or_insert_with(Slate::empty);
                    updater.update(&mut emitter, &event, slate);
                }
                None => return Err(Error::UnknownOperator(wf.op(op_id).name.clone())),
            }
            // Admit this operator's emissions before running the next
            // subscriber, so seq order is (op order, emission order) — a
            // fixed deterministic rule.
            for rec in emitter.drain() {
                if wf.is_external(rec.stream.as_str()) {
                    return Err(Error::ExternalStreamViolation(rec.stream.as_str().to_string()));
                }
                if !wf.has_stream(rec.stream.as_str()) {
                    return Err(Error::UnknownStream(rec.stream.as_str().to_string()));
                }
                self.stats.emitted += 1;
                self.admit(EMITTED, Event::new(rec.stream, event.ts + 1, rec.key, rec.value));
            }
        }
        self.emitter = emitter;
        Ok(true)
    }

    /// Run until no pending events remain (or the step budget trips).
    pub fn run_to_completion(&mut self) -> Result<RunStats> {
        while self.step()? {}
        Ok(self.stats)
    }

    /// The slate for ⟨updater, key⟩, if any exists.
    pub fn slate(&self, updater: &str, key: &Key) -> Option<&Slate> {
        self.slates[self.wf.op_id(updater)?].get(key)
    }

    /// All ⟨key, slate⟩ pairs of one updater, in key order.
    pub fn slates_of(&self, updater: &str) -> Vec<(&Key, &Slate)> {
        let Some(id) = self.wf.op_id(updater) else {
            return Vec::new();
        };
        let mut slates: Vec<(&Key, &Slate)> = self.slates[id].iter().collect();
        slates.sort_unstable_by(|a, b| a.0.cmp(b.0));
        slates
    }

    /// Number of live slates across all updaters.
    pub fn slate_count(&self) -> usize {
        self.slates.iter().map(|slates| slates.len()).sum()
    }

    /// Events recorded on `stream` (requires a prior
    /// [`record_stream`](Self::record_stream) call).
    pub fn recorded(&self, stream: &str) -> &[Event] {
        self.recorded.get(stream).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Run statistics so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Emitter, FnMapper, FnUpdater};

    fn counting_workflow() -> Workflow {
        let mut b = Workflow::builder("count");
        b.external_stream("S1");
        b.mapper_publishing("M1", &["S1"], &["S2"]);
        b.updater("U1", &["S2"]);
        b.build().unwrap()
    }

    fn passthrough_mapper() -> FnMapper<impl Fn(&mut dyn Emitter, &Event) + Send + Sync> {
        FnMapper::new("M1", |ctx: &mut dyn Emitter, ev: &Event| {
            ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
        })
    }

    fn counter_updater() -> FnUpdater<impl Fn(&mut dyn Emitter, &Event, &mut Slate) + Send + Sync> {
        FnUpdater::new("U1", |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            slate.incr_counter(1);
        })
    }

    #[test]
    fn counts_events_per_key() {
        let wf = counting_workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(passthrough_mapper());
        exec.register_updater(counter_updater());
        for (i, key) in ["walmart", "bestbuy", "walmart", "walmart"].iter().enumerate() {
            exec.push_external("S1", Event::new("S1", i as u64 + 1, Key::from(*key), "checkin"));
        }
        let stats = exec.run_to_completion().unwrap();
        assert_eq!(exec.slate("U1", &Key::from("walmart")).unwrap().counter(), 3);
        assert_eq!(exec.slate("U1", &Key::from("bestbuy")).unwrap().counter(), 1);
        assert_eq!(exec.slate("U1", &Key::from("jcpenney")), None);
        assert_eq!(stats.admitted, 8, "4 external + 4 mapped");
        assert_eq!(stats.deliveries, 8);
        assert_eq!(stats.emitted, 4);
        assert_eq!(stats.out_of_order, 0, "in-order externals never reach the heap");
        assert_eq!(exec.slate_count(), 2);
    }

    #[test]
    fn timestamp_order_across_streams() {
        // §3's two-stream example: events feed in global ts order.
        let mut b = Workflow::builder("merge");
        b.external_stream("A");
        b.external_stream("B");
        b.updater("U", &["A", "B"]);
        let wf = b.build().unwrap();
        let mut exec = ReferenceExecutor::new(&wf);
        // Updater appends "<stream>@<ts>" to its slate to expose order.
        exec.register_updater(FnUpdater::new(
            "U",
            |_: &mut dyn Emitter, ev: &Event, slate: &mut Slate| {
                let mut s = slate.as_str().unwrap_or("").to_string();
                s.push_str(&format!("{}@{};", ev.stream, ev.ts));
                slate.replace(s.into_bytes());
            },
        ));
        // Push out of order; the executor must reorder by ts.
        exec.push_external("B", Event::new("B", 25, Key::from("k"), ""));
        exec.push_external("A", Event::new("A", 21, Key::from("k"), ""));
        exec.push_external("A", Event::new("A", 30, Key::from("k"), ""));
        let stats = exec.run_to_completion().unwrap();
        assert_eq!(exec.slate("U", &Key::from("k")).unwrap().as_str(), Some("A@21;B@25;A@30;"));
        assert_eq!(stats.out_of_order, 1, "A@21 lands behind B@25 and is ordered by the heap");
    }

    #[test]
    fn ties_break_by_admission_order() {
        let mut b = Workflow::builder("tie");
        b.external_stream("S");
        b.updater("U", &["S"]);
        let wf = b.build().unwrap();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_updater(FnUpdater::new(
            "U",
            |_: &mut dyn Emitter, ev: &Event, slate: &mut Slate| {
                let mut s = slate.as_str().unwrap_or("").to_string();
                s.push_str(ev.value_str().unwrap());
                slate.replace(s.into_bytes());
            },
        ));
        for payload in ["a", "b", "c"] {
            exec.push_external("S", Event::new("S", 7, Key::from("k"), payload));
        }
        exec.run_to_completion().unwrap();
        assert_eq!(exec.slate("U", &Key::from("k")).unwrap().as_str(), Some("abc"));
    }

    #[test]
    fn output_ts_exceeds_input_ts() {
        let wf = counting_workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.record_stream("S2");
        exec.register_mapper(passthrough_mapper());
        exec.register_updater(counter_updater());
        exec.push_external("S1", Event::new("S1", 100, Key::from("k"), "x"));
        exec.run_to_completion().unwrap();
        let recorded = exec.recorded("S2");
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0].ts, 101, "output ts = input ts + 1");
    }

    #[test]
    fn cyclic_workflow_terminates_when_bounded() {
        // U republishes each event with a countdown; cycle ends at zero.
        let mut b = Workflow::builder("loop");
        b.external_stream("S1");
        b.mapper_publishing("M", &["S1"], &["S2"]);
        b.updater_publishing("U", &["S2"], &["S2"]);
        let wf = b.build().unwrap();
        assert!(wf.has_declared_cycle());
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(FnMapper::new("M", |ctx: &mut dyn Emitter, ev: &Event| {
            ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
        }));
        exec.register_updater(FnUpdater::new(
            "U",
            |ctx: &mut dyn Emitter, ev: &Event, slate: &mut Slate| {
                let n: u32 = ev.value_str().unwrap().parse().unwrap();
                slate.incr_counter(1);
                if n > 0 {
                    ctx.publish("S2", ev.key.clone(), (n - 1).to_string().into_bytes());
                }
            },
        ));
        exec.push_external("S1", Event::new("S1", 1, Key::from("k"), "5"));
        exec.run_to_completion().unwrap();
        // Visits: 5,4,3,2,1,0 → six updates.
        assert_eq!(exec.slate("U", &Key::from("k")).unwrap().counter(), 6);
    }

    #[test]
    fn runaway_loop_hits_budget() {
        let mut b = Workflow::builder("runaway");
        b.external_stream("S1");
        b.updater_publishing("U", &["S1", "S2"], &["S2"]);
        let wf = b.build().unwrap();
        let mut exec = ReferenceExecutor::new(&wf).with_step_budget(1000);
        exec.register_updater(FnUpdater::new(
            "U",
            |ctx: &mut dyn Emitter, ev: &Event, _: &mut Slate| {
                ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
            },
        ));
        exec.push_external("S1", Event::new("S1", 1, Key::from("k"), "x"));
        let err = exec.run_to_completion().unwrap_err();
        assert_eq!(err, Error::LoopBudgetExceeded { steps: 1000 });
    }

    #[test]
    fn publishing_to_external_or_unknown_stream_errors() {
        let mut b = Workflow::builder("bad-publish");
        b.external_stream("S1");
        b.mapper("M", &["S1"]);
        let wf = b.build().unwrap();

        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(FnMapper::new("M", |ctx: &mut dyn Emitter, ev: &Event| {
            ctx.publish("S1", ev.key.clone(), vec![]);
        }));
        exec.push_external("S1", Event::new("S1", 1, Key::from("k"), "x"));
        assert!(matches!(exec.run_to_completion(), Err(Error::ExternalStreamViolation(_))));

        let mut exec2 = ReferenceExecutor::new(&wf);
        exec2.register_mapper(FnMapper::new("M", |ctx: &mut dyn Emitter, ev: &Event| {
            ctx.publish("S999", ev.key.clone(), vec![]);
        }));
        exec2.push_external("S1", Event::new("S1", 1, Key::from("k"), "x"));
        assert!(matches!(exec2.run_to_completion(), Err(Error::UnknownStream(_))));
    }

    #[test]
    #[should_panic(expected = "not external")]
    fn pushing_into_internal_stream_panics() {
        let wf = counting_workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.push_external("S2", Event::new("S2", 1, Key::from("k"), "x"));
    }

    #[test]
    fn registration_validates_kind_and_name() {
        let wf = counting_workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        // Mapper registered under an updater's name → mismatch.
        let err = exec
            .register_mapper_boxed(Box::new(FnMapper::new(
                "U1",
                |_: &mut dyn Emitter, _: &Event| {},
            )))
            .unwrap_err();
        assert!(matches!(err, Error::OperatorMismatch { .. }));
        let err = exec
            .register_updater_boxed(Box::new(FnUpdater::new(
                "M1",
                |_: &mut dyn Emitter, _: &Event, _: &mut Slate| {},
            )))
            .unwrap_err();
        assert!(matches!(err, Error::OperatorMismatch { .. }));
        let err = exec
            .register_mapper_boxed(Box::new(FnMapper::new(
                "Zed",
                |_: &mut dyn Emitter, _: &Event| {},
            )))
            .unwrap_err();
        assert!(matches!(err, Error::UnknownOperator(_)));
    }

    #[test]
    fn unregistered_operator_fails_at_delivery() {
        let wf = counting_workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(passthrough_mapper());
        // U1 missing.
        exec.push_external("S1", Event::new("S1", 1, Key::from("k"), "x"));
        assert!(matches!(exec.run_to_completion(), Err(Error::UnknownOperator(_))));
    }

    #[test]
    fn two_runs_are_bit_identical() {
        // Determinism: identical inputs ⟹ identical slates and streams.
        let run = || {
            let wf = counting_workflow();
            let mut exec = ReferenceExecutor::new(&wf);
            exec.record_stream("S2");
            exec.register_mapper(passthrough_mapper());
            exec.register_updater(counter_updater());
            let keys = ["a", "b", "a", "c", "b", "a"];
            for (i, k) in keys.iter().enumerate() {
                exec.push_external("S1", Event::new("S1", (i / 2) as u64, Key::from(*k), "x"));
            }
            exec.run_to_completion().unwrap();
            let slates: Vec<(String, u64)> = exec
                .slates_of("U1")
                .into_iter()
                .map(|(k, s)| (k.as_str().unwrap().to_string(), s.counter()))
                .collect();
            let stream: Vec<(u64, u64, String)> = exec
                .recorded("S2")
                .iter()
                .map(|e| (e.ts, e.seq, e.key.as_str().unwrap().to_string()))
                .collect();
            (slates, stream)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn slates_of_lists_only_that_updater() {
        let mut b = Workflow::builder("two-updaters");
        b.external_stream("S1");
        b.updater("U1", &["S1"]);
        b.updater("U2", &["S1"]);
        let wf = b.build().unwrap();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_updater(FnUpdater::new(
            "U1",
            |_: &mut dyn Emitter, _: &Event, s: &mut Slate| {
                s.incr_counter(1);
            },
        ));
        exec.register_updater(FnUpdater::new(
            "U2",
            |_: &mut dyn Emitter, _: &Event, s: &mut Slate| {
                s.incr_counter(2);
            },
        ));
        exec.push_external("S1", Event::new("S1", 1, Key::from("k"), "x"));
        exec.run_to_completion().unwrap();
        // §3: each ⟨updater, key⟩ pair has its own slate.
        assert_eq!(exec.slate("U1", &Key::from("k")).unwrap().counter(), 1);
        assert_eq!(exec.slate("U2", &Key::from("k")).unwrap().counter(), 2);
        assert_eq!(exec.slates_of("U1").len(), 1);
        assert_eq!(exec.slates_of("nonexistent").len(), 0);
    }
}
