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
//! only approximate them." This module *is* the ideal: an executor that
//! delivers one event at a time and realizes the exact semantics. The
//! distributed engines in `muppet-runtime` are tested against it — exact
//! equality for loss-free runs of order-insensitive (commutative)
//! applications, bounded deviation otherwise.
//!
//! How pending events are ordered (two sorted lanes merged at pop, a heap
//! for stragglers) is DESIGN.md §3, "The reference executor". A run may
//! call the mappers fed only by external streams ahead of delivery, on one
//! helper thread; every function still sees its events in the same order
//! (DESIGN.md §3, "Mapping ahead").

use std::cmp::Reverse;
use std::collections::vec_deque::Drain;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;
use std::panic;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, ScopedJoinHandle};

use crate::error::{Error, Result};
use crate::event::{EmitRecord, Event, Key, StreamId, Timestamp};
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

    /// Where the least pending event by `(ts, seq)` is — the least of the
    /// two lane heads and the heap's top: a lane, or the heap (2), with
    /// `external` standing for the external lane's head.
    fn least(&self, external: Option<&Event>) -> Option<usize> {
        let heads = [
            external,
            self.lanes[EMITTED].front(),
            self.behind.peek().map(|Reverse(ByOrder(e))| e),
        ];
        let (_, from) =
            heads.iter().enumerate().filter_map(|(i, e)| Some((e.as_ref()?.order(), i))).min()?;
        Some(from)
    }

    /// Remove the head of a source [`least`](Self::least) named.
    fn take(&mut self, from: usize) -> Event {
        let event = match from {
            EXTERNAL | EMITTED => self.lanes[from].pop_front(),
            _ => self.behind.pop().map(|Reverse(ByOrder(e))| e),
        };
        event.expect("the least source has a head")
    }
}

/// External events the map-ahead helper maps per hand-off.
const CHUNK: usize = 1024;

/// What the mappers that run ahead emitted for a run of external events:
/// `counts` holds one entry per ⟨event, mapper⟩ call, in delivery order,
/// and `records` those calls' records.
struct Chunk {
    records: VecDeque<EmitRecord>,
    counts: VecDeque<usize>,
}

/// The helper thread's loop: walk `lane` in order, call `mappers`
/// (indexed by [`OpId`]) on each event, and hand their records over
/// `full` a chunk at a time, reusing the buffers that come back on
/// `empty`. It stops early when the delivering thread hangs up.
fn map_ahead(
    wf: &Workflow,
    mappers: &[Option<Arc<dyn Mapper>>],
    lane: &VecDeque<Event>,
    full: SyncSender<Chunk>,
    empty: Receiver<Chunk>,
) {
    let mut emitter = VecEmitter::with_streams(wf.streams());
    let mut events = lane.iter();
    while events.len() > 0 {
        let mut chunk = match empty.try_recv() {
            Ok(chunk) => chunk,
            Err(TryRecvError::Empty) => Chunk {
                records: VecDeque::with_capacity(CHUNK),
                counts: VecDeque::with_capacity(CHUNK),
            },
            Err(TryRecvError::Disconnected) => return,
        };
        for event in events.by_ref().take(CHUNK) {
            for &op in wf.subscribers_of(event.stream.as_str()) {
                if let Some(mapper) = &mappers[op] {
                    mapper.map(&mut emitter, event);
                    chunk.counts.push_back(emitter.len());
                    chunk.records.extend(emitter.drain());
                }
            }
        }
        if full.send(chunk).is_err() {
            return;
        }
    }
}

/// The delivering thread's end of a run that maps ahead. It delivers the
/// external lane by index: the helper reads the same lane.
struct Ahead<'scope, 'lane> {
    /// Whether the helper maps for each operator, by [`OpId`].
    runs: Vec<bool>,
    lane: &'lane VecDeque<Event>,
    /// The index of the next external to deliver.
    next: usize,
    /// The helper's records not yet admitted, and their per-call counts.
    records: VecDeque<EmitRecord>,
    counts: VecDeque<usize>,
    full: Receiver<Chunk>,
    empty: Sender<Chunk>,
    helper: Option<ScopedJoinHandle<'scope, ()>>,
}

impl Ahead<'_, '_> {
    /// The records of the helper's next mapper call.
    fn next_call(&mut self) -> Drain<'_, EmitRecord> {
        while self.counts.is_empty() {
            let Ok(mut chunk) = self.full.recv() else {
                // The helper hung up before mapping the event delivered:
                // a mapper panicked.
                let helper = self.helper.take().expect("the helper is joined once");
                match helper.join() {
                    Err(payload) => panic::resume_unwind(payload),
                    Ok(()) => unreachable!("the helper maps every external delivered"),
                }
            };
            mem::swap(&mut self.records, &mut chunk.records);
            mem::swap(&mut self.counts, &mut chunk.counts);
            // Fails only once the helper is done.
            let _ = self.empty.send(chunk);
        }
        let n = self.counts.pop_front().expect("a count was just received");
        self.records.drain(..n)
    }

    /// Hang up and join the helper. A panic it met past the last delivery
    /// is dropped: stepping would not have called that mapper.
    fn finish(mut self) {
        let helper = self.helper.take();
        drop(self);
        if let Some(helper) = helper {
            let _ = helper.join();
        }
    }
}

/// A registered operator implementation.
enum Operator {
    Map(Arc<dyn Mapper>),
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

/// The golden-model executor: one delivery at a time, in `(ts, seq)`
/// order.
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
        self.ops[id] = Some(Operator::Map(mapper.into()));
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
        let events = events.into_iter();
        self.pending.lanes[EXTERNAL].reserve(events.size_hint().0);
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
        self.deliver(None)
    }

    /// [`step`](Self::step), taking the externals and the records of the
    /// mappers that run ahead from `ahead`.
    fn deliver(&mut self, mut ahead: Option<&mut Ahead<'_, '_>>) -> Result<bool> {
        let head = match ahead.as_deref() {
            Some(ahead) => ahead.lane.get(ahead.next),
            None => self.pending.lanes[EXTERNAL].front(),
        };
        let popped;
        let event = match (self.pending.least(head), ahead.as_deref_mut()) {
            (None, _) => return Ok(false),
            (Some(EXTERNAL), Some(ahead)) => {
                ahead.next += 1;
                &ahead.lane[ahead.next - 1]
            }
            (Some(from), _) => {
                popped = self.pending.take(from);
                &popped
            }
        };
        if self.record_streams.contains(&event.stream) {
            self.recorded.entry(event.stream.clone()).or_default().push(event.clone());
        }
        let wf = self.wf;
        let mut emitter = mem::take(&mut self.emitter);
        for &op_id in wf.subscribers_of(event.stream.as_str()) {
            self.stats.deliveries += 1;
            if self.stats.deliveries > self.step_budget {
                return Err(Error::LoopBudgetExceeded { steps: self.step_budget });
            }
            match &self.ops[op_id] {
                Some(Operator::Map(mapper)) => match ahead.as_deref_mut() {
                    Some(ahead) if ahead.runs[op_id] => {
                        self.admit_emitted(ahead.next_call(), event.ts)?;
                    }
                    _ => mapper.map(&mut emitter, event),
                },
                Some(Operator::Update(updater)) => {
                    let slate =
                        self.slates[op_id].entry(event.key.clone()).or_insert_with(Slate::empty);
                    updater.update(&mut emitter, event, slate);
                }
                None => return Err(Error::UnknownOperator(wf.op(op_id).name.clone())),
            }
            // Admit this operator's emissions before running the next
            // subscriber, so seq order is (op order, emission order) — a
            // fixed deterministic rule.
            self.admit_emitted(emitter.drain(), event.ts)?;
        }
        self.emitter = emitter;
        Ok(true)
    }

    /// Validate and admit one call's emissions, stamped `ts + 1`.
    fn admit_emitted(
        &mut self,
        records: impl Iterator<Item = EmitRecord>,
        ts: Timestamp,
    ) -> Result<()> {
        for rec in records {
            if self.wf.is_external(rec.stream.as_str()) {
                return Err(Error::ExternalStreamViolation(rec.stream.as_str().to_string()));
            }
            if !self.wf.has_stream(rec.stream.as_str()) {
                return Err(Error::UnknownStream(rec.stream.as_str().to_string()));
            }
            self.stats.emitted += 1;
            self.admit(EMITTED, Event::new(rec.stream, ts + 1, rec.key, rec.value));
        }
        Ok(())
    }

    /// Run until no pending events remain (or the step budget trips).
    ///
    /// With at least a chunk (1024) of external events pending, all in lane
    /// order, the mappers subscribed to external streams only run ahead on
    /// a helper thread (DESIGN.md §3, "Mapping ahead"). A mapper's panic is
    /// re-raised here with its own payload.
    pub fn run_to_completion(&mut self) -> Result<RunStats> {
        let Some(mappers) = self.mappers_ahead() else {
            return self.drive(None);
        };
        let wf = self.wf;
        let runs = mappers.iter().map(Option::is_some).collect();
        let mut lane = mem::take(&mut self.pending.lanes[EXTERNAL]);
        let mut delivered = 0;
        let ran = thread::scope(|scope| {
            let (full_tx, full) = mpsc::sync_channel(1);
            let (empty, empty_rx) = mpsc::channel();
            let lane = &lane;
            let helper = thread::Builder::new()
                .name("muppet-ref-map".into())
                .spawn_scoped(scope, move || map_ahead(wf, &mappers, lane, full_tx, empty_rx))
                .expect("spawn the map-ahead thread");
            let mut ahead = Ahead {
                runs,
                lane,
                next: 0,
                records: VecDeque::new(),
                counts: VecDeque::new(),
                full,
                empty,
                helper: Some(helper),
            };
            let ran = self.drive(Some(&mut ahead));
            delivered = ahead.next;
            ahead.finish();
            ran
        });
        // Nothing is admitted to the external lane during a run.
        lane.drain(..delivered);
        self.pending.lanes[EXTERNAL] = lane;
        ran
    }

    fn drive(&mut self, mut ahead: Option<&mut Ahead<'_, '_>>) -> Result<RunStats> {
        while self.deliver(ahead.as_deref_mut())? {}
        Ok(self.stats)
    }

    /// The mappers a run may call ahead, by [`OpId`]: registered mappers
    /// whose streams are all external. `None` when there is none, or when
    /// fewer than [`CHUNK`] externals are pending or one is in the heap,
    /// so that externals would not be delivered in lane order.
    fn mappers_ahead(&self) -> Option<Vec<Option<Arc<dyn Mapper>>>> {
        let wf = self.wf;
        let external = |stream: &StreamId| wf.is_external(stream.as_str());
        if self.pending.lanes[EXTERNAL].len() < CHUNK
            || self.pending.behind.iter().any(|Reverse(ByOrder(e))| external(&e.stream))
        {
            return None;
        }
        let mappers: Vec<_> = self
            .ops
            .iter()
            .zip(wf.ops())
            .map(|(op, decl)| match op {
                Some(Operator::Map(mapper)) if decl.subscribes.iter().all(external) => {
                    Some(Arc::clone(mapper))
                }
                _ => None,
            })
            .collect();
        mappers.iter().any(Option::is_some).then_some(mappers)
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
