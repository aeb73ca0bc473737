//! Map and Update functions — the user-written code of a MapUpdate
//! application, transliterated from the paper's Java interfaces
//! (Appendix A, Figures 3 and 4).
//!
//! Both operator kinds subscribe to one or more streams and are fed events
//! in increasing timestamp order. Both may publish new events. Only
//! updaters receive a [`Slate`]. Implementations must be `Send + Sync`
//! because Muppet 2.0 constructs each function once and shares it across
//! every worker thread on the machine (§4.5).

use bytes::Bytes;

use crate::event::{EmitRecord, Event, Key, StreamId};
use crate::slate::{parse_decimal, Slate};

/// The event-publication context handed to operators — the analogue of the
/// paper's `PerformerUtilities` submitter.
///
/// Output timestamps are assigned by the runtime as *input ts + 1*, which
/// enforces §3's rule that "each output event has a timestamp greater than
/// the timestamp of the input event" and keeps cyclic workflows
/// well-defined. Operators only choose the destination stream, key, and
/// payload.
pub trait Emitter {
    /// Publish an event to `stream` (cf. `submitter.publish("S_2", ...)` in
    /// Figure 3). The runtime may reject unknown or external streams; such
    /// errors surface when the executor processes the emission, not here.
    fn publish(&mut self, stream: &str, key: Key, value: Vec<u8>);

    /// Publish with a shared payload, avoiding a copy on fan-out.
    fn publish_shared(&mut self, stream: &str, key: Key, value: Bytes);
}

/// A buffering [`Emitter`] that records emissions for the executor to admit
/// afterwards. This is what both the reference executor and the runtime
/// engines pass into operators.
///
/// Built [`with_streams`](VecEmitter::with_streams) over a workflow's
/// declared streams, a publish to one of them clones that stream's id; only
/// a publish to an undeclared name allocates one.
#[derive(Debug, Default)]
pub struct VecEmitter<'s> {
    records: Vec<EmitRecord>,
    streams: &'s [StreamId],
}

impl<'s> VecEmitter<'s> {
    /// An empty emitter buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty emitter buffer whose publishes to `streams` share their ids.
    pub fn with_streams(streams: &'s [StreamId]) -> Self {
        VecEmitter { records: Vec::new(), streams }
    }

    fn stream_id(&self, stream: &str) -> StreamId {
        match self.streams.iter().find(|s| s.as_str() == stream) {
            Some(id) => id.clone(),
            None => StreamId::from(stream),
        }
    }

    /// Drain the buffered emissions.
    pub fn take(&mut self) -> Vec<EmitRecord> {
        std::mem::take(&mut self.records)
    }

    /// Drain the buffered emissions, keeping the allocation for the next.
    pub fn drain(&mut self) -> std::vec::Drain<'_, EmitRecord> {
        self.records.drain(..)
    }

    /// Number of buffered emissions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Reuse the allocation across events (hot path in the engines).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Borrow the buffered emissions without draining.
    pub fn records(&self) -> &[EmitRecord] {
        &self.records
    }
}

impl Emitter for VecEmitter<'_> {
    fn publish(&mut self, stream: &str, key: Key, value: Vec<u8>) {
        self.publish_shared(stream, key, Bytes::from(value));
    }

    fn publish_shared(&mut self, stream: &str, key: Key, value: Bytes) {
        let stream = self.stream_id(stream);
        self.records.push(EmitRecord { stream, key, value });
    }
}

/// A map function: stateless, event in → zero or more events out (§3).
///
/// The Rust port of the paper's `Mapper` interface (Figure 3). `map` takes
/// `&self` — Muppet 2.0 shares a single instance across threads, so any
/// internal state must be synchronized (and the paper discourages operator
/// state outside slates entirely).
pub trait Mapper: Send + Sync + 'static {
    /// Unique name of this map function within the application. Names
    /// identify functions because the same implementation can be reused as
    /// different functions (Appendix A).
    fn name(&self) -> &str;

    /// Process one event; publish outputs via `ctx`.
    fn map(&self, ctx: &mut dyn Emitter, event: &Event);
}

/// An update function: stateful via its per-key [`Slate`] (§3).
///
/// The Rust port of the paper's `Updater` interface (Figure 4). When the
/// slate for ⟨self, event.key⟩ does not exist yet (first event, or TTL
/// expiry), `update` receives an empty slate and must initialize it.
pub trait Updater: Send + Sync + 'static {
    /// Unique name of this update function within the application.
    fn name(&self) -> &str;

    /// Process one event, mutating the slate for `event.key` and optionally
    /// publishing new events.
    fn update(&self, ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate);

    /// Slate time-to-live in seconds; `None` means "forever" (the default,
    /// §3). The runtime and the key-value store garbage-collect slates not
    /// written for longer than this, resetting them to empty.
    fn slate_ttl_secs(&self) -> Option<u64> {
        None
    }

    /// Optional associative merge over this updater's *event payloads* (the
    /// classic MapReduce combiner, declared rather than inferred). `None`
    /// (the default) means the updater does not combine and every event is
    /// delivered individually.
    ///
    /// The contract for a `Some(merged)` return is fold-equivalence: for any
    /// run of same-key events `e1..en`, delivering one event whose payload is
    /// `combine(..combine(e1, e2).., en)` must leave the slate bit-identical
    /// to delivering `e1..en` one at a time. The runtime exploits this in the
    /// sender outbox, the local dispatch drain, and hot-key split/merge; an
    /// updater that also wants dynamic key splitting must additionally make
    /// `combine` total over *slate byte images* (e.g. decimal counter text),
    /// because split subslates are merged on read through the same function.
    ///
    /// Returning `None` from any particular call vetoes the fold for that
    /// pair — both payloads are then delivered individually.
    fn combine(&self, _acc: &[u8], _next: &[u8]) -> Option<Vec<u8>> {
        None
    }

    /// True when this updater declares a combiner. Implementations that
    /// override [`Updater::combine`] must override this too; the runtime
    /// uses it as a cheap gate before attempting any fold.
    fn combines(&self) -> bool {
        false
    }
}

/// A pre-aggregated delta: the payload of one wire/dispatch event that
/// absorbed `count` original events through a declared [`Updater::combine`].
/// Carried alongside the folded event so receivers can account for the
/// original event count (loss ledgers, metrics) without unfolding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinedUpdate {
    /// The folded payload, `combine`-equivalent to the absorbed run.
    pub value: Bytes,
    /// How many original events this payload absorbed (≥ 1).
    pub count: u64,
}

/// Blanket adapters so closures can serve as quick mappers in tests and
/// examples: `FnMapper::new("M1", |ctx, ev| ...)`.
pub struct FnMapper<F> {
    name: String,
    f: F,
}

impl<F> FnMapper<F>
where
    F: Fn(&mut dyn Emitter, &Event) + Send + Sync + 'static,
{
    /// Wrap a closure as a named [`Mapper`].
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnMapper { name: name.into(), f }
    }
}

impl<F> Mapper for FnMapper<F>
where
    F: Fn(&mut dyn Emitter, &Event) + Send + Sync + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, ctx: &mut dyn Emitter, event: &Event) {
        (self.f)(ctx, event)
    }
}

/// Boxed combiner closure carried by [`FnUpdater::with_combiner`].
type CombineFn = Box<dyn Fn(&[u8], &[u8]) -> Option<Vec<u8>> + Send + Sync>;

/// Closure adapter for updaters: `FnUpdater::new("U1", |ctx, ev, slate| ...)`.
pub struct FnUpdater<F> {
    name: String,
    ttl_secs: Option<u64>,
    combiner: Option<CombineFn>,
    f: F,
}

impl<F> FnUpdater<F>
where
    F: Fn(&mut dyn Emitter, &Event, &mut Slate) + Send + Sync + 'static,
{
    /// Wrap a closure as a named [`Updater`].
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnUpdater { name: name.into(), ttl_secs: None, combiner: None, f }
    }

    /// Set the slate TTL (seconds).
    pub fn with_ttl_secs(mut self, secs: u64) -> Self {
        self.ttl_secs = Some(secs);
        self
    }

    /// Declare an associative payload combiner (see [`Updater::combine`]).
    pub fn with_combiner(
        mut self,
        c: impl Fn(&[u8], &[u8]) -> Option<Vec<u8>> + Send + Sync + 'static,
    ) -> Self {
        self.combiner = Some(Box::new(c));
        self
    }
}

impl<F> Updater for FnUpdater<F>
where
    F: Fn(&mut dyn Emitter, &Event, &mut Slate) + Send + Sync + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn update(&self, ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        (self.f)(ctx, event, slate)
    }

    fn slate_ttl_secs(&self) -> Option<u64> {
        self.ttl_secs
    }

    fn combine(&self, acc: &[u8], next: &[u8]) -> Option<Vec<u8>> {
        self.combiner.as_ref().and_then(|c| c(acc, next))
    }

    fn combines(&self) -> bool {
        self.combiner.is_some()
    }
}

/// The decimal-text sum combiner shared by counter-style updaters: both
/// inputs parse as decimal u64 text (the [`Slate::incr_counter`] byte
/// representation and the usual `{delta}`-as-text payload), the output is
/// their sum as decimal text. Total over slate byte images, so updaters
/// built on it are eligible for dynamic key splitting.
pub fn combine_decimal_sum(acc: &[u8], next: &[u8]) -> Option<Vec<u8>> {
    let sum = parse_decimal(acc)?.checked_add(parse_decimal(next)?)?;
    let mut out = Vec::with_capacity(20);
    crate::json::write_decimal(&mut out, sum);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_emitter_buffers_in_order() {
        let mut em = VecEmitter::new();
        assert!(em.is_empty());
        em.publish("S2", Key::from("a"), b"1".to_vec());
        em.publish_shared("S3", Key::from("b"), Bytes::from_static(b"2"));
        assert_eq!(em.len(), 2);
        let recs = em.take();
        assert_eq!(recs[0].stream.as_str(), "S2");
        assert_eq!(recs[0].key, Key::from("a"));
        assert_eq!(recs[1].stream.as_str(), "S3");
        assert_eq!(recs[1].value.as_ref(), b"2");
        assert!(em.is_empty());
    }

    #[test]
    fn vec_emitter_shares_declared_stream_ids() {
        let declared = [StreamId::from("S2")];
        let mut em = VecEmitter::with_streams(&declared);
        em.publish("S2", Key::from("a"), b"1".to_vec());
        em.publish_shared("S9", Key::from("b"), Bytes::from_static(b"2"));
        let recs = em.take();
        assert_eq!(recs[0].stream.as_str().as_ptr(), declared[0].as_str().as_ptr());
        assert_eq!(recs[1].stream.as_str(), "S9");
    }

    #[test]
    fn fn_mapper_runs_closure() {
        let m = FnMapper::new("M1", |ctx: &mut dyn Emitter, ev: &Event| {
            ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
        });
        assert_eq!(m.name(), "M1");
        let mut em = VecEmitter::new();
        let ev = Event::new("S1", 5, Key::from("k"), "v");
        m.map(&mut em, &ev);
        assert_eq!(em.records().len(), 1);
        assert_eq!(em.records()[0].stream.as_str(), "S2");
    }

    #[test]
    fn fn_updater_mutates_slate_and_reports_ttl() {
        let u = FnUpdater::new("U1", |_ctx: &mut dyn Emitter, _ev: &Event, slate: &mut Slate| {
            slate.incr_counter(1);
        })
        .with_ttl_secs(3600);
        assert_eq!(u.name(), "U1");
        assert_eq!(u.slate_ttl_secs(), Some(3600));
        let mut em = VecEmitter::new();
        let mut slate = Slate::empty();
        let ev = Event::new("S2", 5, Key::from("walmart"), "checkin");
        u.update(&mut em, &ev, &mut slate);
        u.update(&mut em, &ev, &mut slate);
        assert_eq!(slate.counter(), 2);
        assert!(em.is_empty());
    }

    #[test]
    fn operators_are_object_safe() {
        // The engines hold `Arc<dyn Mapper>` / `Arc<dyn Updater>`.
        let m: std::sync::Arc<dyn Mapper> =
            std::sync::Arc::new(FnMapper::new("M", |_: &mut dyn Emitter, _: &Event| {}));
        let u: std::sync::Arc<dyn Updater> = std::sync::Arc::new(FnUpdater::new(
            "U",
            |_: &mut dyn Emitter, _: &Event, _: &mut Slate| {},
        ));
        assert_eq!(m.name(), "M");
        assert_eq!(u.name(), "U");
        assert_eq!(u.slate_ttl_secs(), None);
    }

    #[test]
    fn combiner_defaults_off_and_opt_in_folds() {
        let plain = FnUpdater::new("U", |_: &mut dyn Emitter, _: &Event, s: &mut Slate| {
            s.incr_counter(1);
        });
        assert!(!plain.combines());
        assert_eq!(plain.combine(b"1", b"2"), None);

        let combining = FnUpdater::new("U", |_: &mut dyn Emitter, ev: &Event, s: &mut Slate| {
            let d: u64 = std::str::from_utf8(&ev.value).unwrap().trim().parse().unwrap();
            s.incr_counter(d);
        })
        .with_combiner(combine_decimal_sum);
        assert!(combining.combines());
        assert_eq!(combining.combine(b"3", b"4"), Some(b"7".to_vec()));
        // Non-numeric payloads veto the fold rather than corrupting it.
        assert_eq!(combining.combine(b"3", b"x"), None);

        // Fold-equivalence: one combined delivery ≡ the per-event run.
        let mut em = VecEmitter::new();
        let mut folded = Slate::empty();
        let merged = combining.combine(combining.combine(b"1", b"1").unwrap().as_slice(), b"1");
        let ev = Event::new("S2", 5, Key::from("k"), merged.unwrap());
        combining.update(&mut em, &ev, &mut folded);
        let mut one_by_one = Slate::empty();
        for _ in 0..3 {
            let ev = Event::new("S2", 5, Key::from("k"), "1");
            combining.update(&mut em, &ev, &mut one_by_one);
        }
        assert_eq!(folded.bytes(), one_by_one.bytes());
    }

    #[test]
    fn combined_update_carries_count() {
        let cu = CombinedUpdate { value: Bytes::from_static(b"12"), count: 12 };
        assert_eq!(cu.clone(), cu);
        assert_eq!(cu.count, 12);
    }

    #[test]
    fn combining_updaters_stay_object_safe() {
        let u: std::sync::Arc<dyn Updater> = std::sync::Arc::new(
            FnUpdater::new("U", |_: &mut dyn Emitter, _: &Event, _: &mut Slate| {})
                .with_combiner(combine_decimal_sum),
        );
        assert!(u.combines());
        assert_eq!(u.combine(b"10", b"1"), Some(b"11".to_vec()));
    }

    #[test]
    fn emitter_clear_reuses_buffer() {
        let mut em = VecEmitter::new();
        em.publish("S2", Key::from("a"), vec![1]);
        em.clear();
        assert!(em.is_empty());
        em.publish("S2", Key::from("b"), vec![2]);
        assert_eq!(em.len(), 1);
    }
}
