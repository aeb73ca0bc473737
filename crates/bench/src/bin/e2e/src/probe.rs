//! The bench's measuring points: one shared [`Probe`] (clock, per-phase
//! latency histograms, span buffer) and the [`Timed`] operator wrapper
//! that feeds it. Everything here sits outside the program: operators are
//! wrapped, `submit_many`/`http_get` calls are bracketed by the caller.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use muppet_core::event::{Event, Key};
use muppet_core::operator::{Emitter, Mapper, Updater};
use muppet_core::slate::Slate;
use muppet_core::sync::Mutex;

use crate::hist::Hist;

/// The paper's §5 latency limit: a delivery later than this misses it.
pub const LIMIT_US: u64 = 2_000_000;

/// Which histogram a terminal delivery lands in. Phases are switched only
/// while the cluster is quiescent, so a sample never lands in the phase
/// after the one that issued its event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Set-up traffic (pre-population, warm-up): recorded, never reported.
    Setup = 0,
    Flood = 1,
    Base = 2,
    Peak = 3,
    /// The traced repeat of `Base`.
    Traced = 4,
}

const PHASES: usize = 5;
/// One-second windows kept per phase; later seconds share the last one.
const WINDOWS: usize = 32;

/// Span kinds below this are operator indices (position in the workflow's
/// operator chain); these two bracket calls the bench makes itself.
pub const KIND_SUBMIT: u8 = 250;
pub const KIND_HTTP: u8 = 251;

/// One traced interval. `id` is the source event's due time in µs (the
/// trace identifier every hop of one event shares); a `submit` span
/// covers a frame and carries the first and last due time in it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: u8,
    pub id: u64,
    /// `submit`: last due time in the frame. Operators: records emitted.
    /// `http_get`: 1 if the read was answered by the owner itself.
    pub aux: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

const SPAN_SHARDS: usize = 16;

thread_local! {
    static SPAN_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}
static NEXT_SPAN_SHARD: AtomicUsize = AtomicUsize::new(0);

pub struct Probe {
    t0: Instant,
    phase: AtomicUsize,
    tracing: AtomicBool,
    latency: [Hist; PHASES],
    /// The same samples by the second of the phase they completed in.
    windows: Vec<Hist>,
    phase_origin_us: AtomicU64,
    /// Preallocated span buffers, one per thread (modulo the shard count);
    /// a full shard drops and counts instead of growing under load.
    spans: Vec<Mutex<Vec<Span>>>,
    spans_dropped: AtomicU64,
}

impl Probe {
    /// Room for `span_capacity` spans is reserved in every thread shard a
    /// third over: the six worker threads record nearly all of them, and
    /// reserved pages cost nothing until written.
    pub fn new(span_capacity: usize) -> Arc<Probe> {
        let per_shard = span_capacity / 3 + 1;
        Arc::new(Probe {
            t0: Instant::now(),
            phase: AtomicUsize::new(Phase::Setup as usize),
            tracing: AtomicBool::new(false),
            latency: std::array::from_fn(|_| Hist::new()),
            windows: (0..PHASES * WINDOWS).map(|_| Hist::new()).collect(),
            phase_origin_us: AtomicU64::new(0),
            spans: (0..SPAN_SHARDS).map(|_| Mutex::new(Vec::with_capacity(per_shard))).collect(),
            spans_dropped: AtomicU64::new(0),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn now_us(&self) -> u64 {
        self.now_ns() / 1_000
    }

    /// The instant `us` microseconds after the probe's origin.
    pub fn instant_at(&self, us: u64) -> Instant {
        self.t0 + std::time::Duration::from_micros(us)
    }

    // Phase and tracing are switches read on the hot path; they publish
    // no other data, and they only change while the cluster is idle.
    pub fn set_phase(&self, phase: Phase) {
        self.phase_origin_us.store(self.now_us(), Ordering::Relaxed);
        self.phase.store(phase as usize, Ordering::Relaxed);
    }

    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    pub fn latency(&self, phase: Phase) -> &Hist {
        &self.latency[phase as usize]
    }

    /// The first `seconds` one-second windows of `phase`.
    pub fn latency_windows(&self, phase: Phase, seconds: usize) -> &[Hist] {
        let first = phase as usize * WINDOWS;
        &self.windows[first..first + seconds.min(WINDOWS)]
    }

    fn record_delivery(&self, due_us: u64, end_ns: u64) {
        let end_us = end_ns / 1_000;
        let latency = end_us.saturating_sub(due_us);
        let phase = self.phase.load(Ordering::Relaxed);
        let second =
            end_us.saturating_sub(self.phase_origin_us.load(Ordering::Relaxed)) / 1_000_000;
        self.latency[phase].record(latency);
        self.windows[phase * WINDOWS + (second as usize).min(WINDOWS - 1)].record(latency);
    }

    pub fn push_span(&self, span: Span) {
        let shard = SPAN_SHARD.with(|cell| {
            if cell.get() == usize::MAX {
                cell.set(NEXT_SPAN_SHARD.fetch_add(1, Ordering::Relaxed) % SPAN_SHARDS);
            }
            cell.get()
        });
        let mut buf = self.spans[shard].lock();
        if buf.len() < buf.capacity() {
            buf.push(span);
        } else {
            self.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take every recorded span (any order) and the number dropped.
    pub fn take_spans(&self) -> (Vec<Span>, u64) {
        let mut all = Vec::new();
        for shard in &self.spans {
            all.append(&mut shard.lock());
        }
        (all, self.spans_dropped.swap(0, Ordering::Relaxed))
    }
}

/// Counts what an operator publishes on its way to the real emitter.
struct CountingEmitter<'a> {
    inner: &'a mut dyn Emitter,
    emitted: u64,
}

impl Emitter for CountingEmitter<'_> {
    fn publish(&mut self, stream: &str, key: Key, value: Vec<u8>) {
        self.emitted += 1;
        self.inner.publish(stream, key, value);
    }

    fn publish_shared(&mut self, stream: &str, key: Key, value: Bytes) {
        self.emitted += 1;
        self.inner.publish_shared(stream, key, value);
    }
}

/// A mapper or updater with the bench's clock around it.
///
/// The engine stamps a derived event `ts + 1` per hop and a folded
/// delivery with the newest `ts` of the fold, and the bench set the source
/// event's `ts` to its due time, so an operator at workflow depth `d`
/// recovers that due time as `ts - d`. The terminal updater records
/// `now - due` on return from `update`: latency from the newest
/// contributing event, with no program change.
pub struct Timed<O> {
    inner: O,
    /// Position in the workflow's chain, which is also the span kind.
    depth: u8,
    terminal: bool,
    probe: Arc<Probe>,
}

impl<O> Timed<O> {
    pub fn new(inner: O, depth: u8, terminal: bool, probe: &Arc<Probe>) -> Timed<O> {
        Timed { inner, depth, terminal, probe: Arc::clone(probe) }
    }

    fn due_us(&self, event: &Event) -> u64 {
        event.ts.saturating_sub(self.depth as u64)
    }
}

impl<M: Mapper> Mapper for Timed<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn map(&self, ctx: &mut dyn Emitter, event: &Event) {
        if !self.probe.tracing() {
            return self.inner.map(ctx, event);
        }
        let start_ns = self.probe.now_ns();
        let mut counting = CountingEmitter { inner: ctx, emitted: 0 };
        self.inner.map(&mut counting, event);
        let end_ns = self.probe.now_ns();
        self.probe.push_span(Span {
            kind: self.depth,
            id: self.due_us(event),
            aux: counting.emitted,
            start_ns,
            end_ns,
        });
    }
}

impl<U: Updater> Updater for Timed<U> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn update(&self, ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        let tracing = self.probe.tracing();
        let start_ns = if tracing { self.probe.now_ns() } else { 0 };
        self.inner.update(ctx, event, slate);
        if !(tracing || self.terminal) {
            return;
        }
        let end_ns = self.probe.now_ns();
        let due_us = self.due_us(event);
        if self.terminal {
            self.probe.record_delivery(due_us, end_ns);
        }
        if tracing {
            self.probe.push_span(Span { kind: self.depth, id: due_us, aux: 0, start_ns, end_ns });
        }
    }

    fn slate_ttl_secs(&self) -> Option<u64> {
        self.inner.slate_ttl_secs()
    }

    fn combine(&self, acc: &[u8], next: &[u8]) -> Option<Vec<u8>> {
        self.inner.combine(acc, next)
    }

    fn combines(&self) -> bool {
        self.inner.combines()
    }
}
