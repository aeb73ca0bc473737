//! The `lock-audit` runtime: lock-order graph, held-lock stacks, and
//! IO-under-lock detection. Compiled only under the `lock-audit` feature;
//! the sibling no-op module in `sync/mod.rs` serves default builds.
//!
//! Every lock constructed through [`super::Mutex`]/[`super::RwLock`] is
//! classed by its construction site (`file:line:col`, captured via
//! `#[track_caller]`). Each acquisition:
//!
//! 1. is a schedule-perturbation [`point`]: fires the installed hook;
//! 2. records a ⟨held-class → acquired-class⟩ edge for every lock the
//!    thread currently holds, with the acquiring backtrace sampled the
//!    first time each edge appears;
//! 3. runs cycle detection over the global order graph — a cycle means
//!    two threads can acquire the same classes in opposite orders, i.e. a
//!    potential deadlock — and records any cycle as a violation carrying
//!    the sampled backtraces of every edge on the path;
//! 4. pushes the class onto the thread's held stack (popped on guard
//!    drop, released/re-pushed around condvar waits).
//!
//! Known limitations, by design: acquisitions of two locks from the same
//! construction site (e.g. two shards of one sharded cache) are exempt
//! from cycle detection — same-class nesting needs a rank annotation
//! lockdep-style, which no current code path requires; and read/write
//! lock modes are not distinguished in the graph (a read-read "cycle"
//! is reported even though it could not deadlock alone — treat it as an
//! ordering smell, not a false positive to suppress).

use core::panic::Location;
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex as StdMutex;

/// How a lock was acquired. Recorded for diagnostics; the order graph
/// does not currently distinguish modes (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Mutex::lock` / `Mutex::try_lock`.
    Mutex,
    /// `RwLock::read`.
    RwRead,
    /// `RwLock::write`.
    RwWrite,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Mutex => "mutex",
            Kind::RwRead => "rwlock.read",
            Kind::RwWrite => "rwlock.write",
        }
    }
}

/// A lock class: the construction site of the lock.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Class {
    file: &'static str,
    line: u32,
    col: u32,
}

impl Class {
    fn of(site: &'static Location<'static>) -> Class {
        Class { file: site.file(), line: site.line(), col: site.column() }
    }

    fn name(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.col)
    }
}

struct HeldEntry {
    class: Class,
    kind: Kind,
    /// Distinguishes this acquisition from other live guards of the same
    /// class on this thread, so out-of-order guard drops pop the right
    /// entry.
    token_id: u64,
}

thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
    static IO_ALLOWED_DEPTH: Cell<u32> = const { Cell::new(0) };
}

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// First-seen sample of one order-graph edge.
struct EdgeSample {
    thread: String,
    backtrace: String,
}

#[derive(Default)]
struct Graph {
    /// holder class → (acquired class → first-seen sample).
    edges: HashMap<Class, HashMap<Class, EdgeSample>>,
}

impl Graph {
    /// Is `to` reachable from `from` over recorded edges?
    fn reaches(&self, from: Class, to: Class) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![from];
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            if let Some(next) = self.edges.get(&node) {
                for &n in next.keys() {
                    if !seen.contains(&n) {
                        seen.push(n);
                        stack.push(n);
                    }
                }
            }
        }
        false
    }

    /// One shortest edge path from `from` to `to` (for cycle reports).
    fn path(&self, from: Class, to: Class) -> Vec<(Class, Class)> {
        let mut queue = std::collections::VecDeque::from([from]);
        let mut prev: HashMap<Class, Class> = HashMap::new();
        while let Some(node) = queue.pop_front() {
            if node == to {
                break;
            }
            if let Some(next) = self.edges.get(&node) {
                for &n in next.keys() {
                    if n != from && !prev.contains_key(&n) {
                        prev.insert(n, node);
                        queue.push_back(n);
                    }
                }
            }
        }
        let mut hops = Vec::new();
        let mut at = to;
        while let Some(&p) = prev.get(&at) {
            hops.push((p, at));
            at = p;
        }
        hops.reverse();
        hops
    }
}

static GRAPH: StdMutex<Option<Graph>> = StdMutex::new(None);
static ORDER_CYCLES: StdMutex<Vec<String>> = StdMutex::new(Vec::new());
static IO_EVENTS: StdMutex<Vec<String>> = StdMutex::new(Vec::new());
static SCHED_HOOK: AtomicUsize = AtomicUsize::new(0);

fn lock_graph() -> std::sync::MutexGuard<'static, Option<Graph>> {
    // The audit's own lock is a raw std mutex on purpose: routing it
    // through the shim would recurse into the audit.
    GRAPH.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether the audit layer is compiled in.
pub const fn enabled() -> bool {
    true
}

/// Install (or clear, with `None`) the schedule-perturbation hook fired
/// at every [`point`]. Used by the `muppet-check` interleaving harness to
/// jitter schedules through the real code.
pub fn set_sched_hook(hook: Option<fn()>) {
    SCHED_HOOK.store(hook.map_or(0, |f| f as usize), Ordering::SeqCst);
}

/// RAII token for one live acquisition; dropping pops the held-stack
/// entry it pushed.
pub(super) struct HeldToken {
    id: u64,
}

impl HeldToken {
    /// Pop the held entry for the duration of a condvar wait (the mutex
    /// is released while waiting). The returned value re-pushes on
    /// [`WaitReacquire::reacquired`].
    pub(super) fn release_for_wait(&mut self) -> WaitReacquire {
        let entry = remove_entry(self.id);
        WaitReacquire { class_kind: entry.map(|e| (e.class, e.kind)) }
    }
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        remove_entry(self.id);
    }
}

/// Proof that a condvar wait released the mutex; converts back into a
/// [`HeldToken`] when the wait returns and the mutex is re-held.
pub(super) struct WaitReacquire {
    class_kind: Option<(Class, Kind)>,
}

impl WaitReacquire {
    pub(super) fn reacquired(self) -> HeldToken {
        match self.class_kind {
            // Re-entering the mutex after a wait is a real acquisition:
            // run the full order check again.
            Some((class, kind)) => acquire_class(class, kind),
            None => HeldToken { id: 0 },
        }
    }
}

fn remove_entry(id: u64) -> Option<HeldEntry> {
    if id == 0 {
        return None;
    }
    HELD.try_with(|held| {
        let mut held = held.borrow_mut();
        let at = held.iter().rposition(|e| e.token_id == id)?;
        Some(held.remove(at))
    })
    .ok()
    .flatten()
}

/// A schedule-perturbation point: fire the installed hook, if any. Every
/// shim acquisition is one; the runtime marks the protocol steps no shim
/// lock follows (DESIGN.md §12).
pub fn point() {
    let hook = SCHED_HOOK.load(Ordering::Relaxed);
    if hook != 0 {
        // SAFETY: only `set_sched_hook` stores here, and it stores either
        // 0 or a valid `fn()` pointer.
        let hook: fn() = unsafe { std::mem::transmute(hook) };
        hook();
    }
}

/// The acquisition probe called by every shim lock method.
pub(super) fn on_acquire(site: &'static Location<'static>, kind: Kind) -> HeldToken {
    point();
    acquire_class(Class::of(site), kind)
}

fn acquire_class(class: Class, kind: Kind) -> HeldToken {
    let holders: Vec<Class> =
        HELD.try_with(|held| held.borrow().iter().map(|e| e.class).collect()).unwrap_or_default();
    for holder in holders {
        if holder != class {
            record_edge(holder, class, kind);
        }
    }
    let id = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    let pushed = HELD
        .try_with(|held| {
            held.borrow_mut().push(HeldEntry { class, kind, token_id: id });
        })
        .is_ok();
    HeldToken { id: if pushed { id } else { 0 } }
}

fn record_edge(holder: Class, acquired: Class, kind: Kind) {
    let mut graph = lock_graph();
    let graph = graph.get_or_insert_with(Graph::default);
    let out = graph.edges.entry(holder).or_default();
    if out.contains_key(&acquired) {
        return; // steady state: edge already known, nothing to do
    }
    out.insert(
        acquired,
        EdgeSample {
            thread: std::thread::current().name().unwrap_or("<unnamed>").to_string(),
            backtrace: format!("{}", Backtrace::force_capture()),
        },
    );
    // The new edge holder→acquired closes a cycle iff holder was already
    // reachable from acquired.
    if graph.reaches(acquired, holder) {
        let mut report = format!(
            "lock-order cycle: {} ({}) acquired while holding {} — reverse path exists:\n",
            acquired.name(),
            kind.label(),
            holder.name(),
        );
        let mut hops = graph.path(acquired, holder);
        hops.push((holder, acquired));
        for (from, to) in hops {
            let sample = graph.edges.get(&from).and_then(|m| m.get(&to));
            let _ = writeln!(report, "  {} -> {}", from.name(), to.name());
            if let Some(s) = sample {
                let _ = writeln!(
                    report,
                    "    first seen on thread `{}`; acquisition backtrace:\n{}",
                    s.thread,
                    indent(&s.backtrace, 6)
                );
            }
        }
        drop(graph);
        ORDER_CYCLES.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(report.clone());
        eprintln!("[lock-audit] {report}");
    }
}

fn indent(text: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    text.lines().map(|l| format!("{pad}{l}\n")).collect()
}

/// Record a blocking-IO call (fsync and friends). If the calling thread
/// holds any shim lock and the site is not wrapped in [`io_allowed`], an
/// IO-under-lock violation is recorded with the held classes and the
/// calling backtrace.
pub fn blocking_io(what: &'static str) {
    if IO_ALLOWED_DEPTH.with(|d| d.get()) > 0 {
        return;
    }
    let held: Vec<String> = HELD
        .try_with(|held| held.borrow().iter().map(|e| e.class.name()).collect())
        .unwrap_or_default();
    if held.is_empty() {
        return;
    }
    let report = format!(
        "{what} while holding [{}] on thread `{}`; backtrace:\n{}",
        held.join(", "),
        std::thread::current().name().unwrap_or("<unnamed>"),
        indent(&format!("{}", Backtrace::force_capture()), 4)
    );
    IO_EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(report.clone());
    eprintln!("[lock-audit] io-under-lock: {report}");
}

/// Run `f` with IO-under-lock reporting suppressed — for sites where
/// holding a lock across IO is the design (e.g. the ingest WAL's
/// sync-each mode, whose definition is one fsync per record written).
pub fn io_allowed<R>(f: impl FnOnce() -> R) -> R {
    IO_ALLOWED_DEPTH.with(|d| d.set(d.get() + 1));
    let result = f();
    IO_ALLOWED_DEPTH.with(|d| d.set(d.get() - 1));
    result
}

/// Every lock-order cycle observed since start (or [`reset`]).
pub fn order_cycles() -> Vec<String> {
    ORDER_CYCLES.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

/// Every IO-under-lock event observed since start (or [`reset`]).
pub fn io_under_lock_events() -> Vec<String> {
    IO_EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

/// Number of distinct ⟨holder → acquired⟩ edges recorded so far.
pub fn edge_count() -> usize {
    lock_graph().as_ref().map_or(0, |g| g.edges.values().map(|m| m.len()).sum())
}

/// Clear the order graph and all recorded violations. Test hygiene only:
/// audit state is global, so tests that manufacture violations on purpose
/// should run in their own process (integration-test binary) or reset
/// before asserting.
pub fn reset() {
    *lock_graph() = None;
    ORDER_CYCLES.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    IO_EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
}

#[cfg(test)]
mod tests {
    use super::super::{Condvar, Mutex};
    use super::*;
    use std::sync::Arc;

    // These tests mutate global audit state; they run in the same binary
    // as the rest of muppet-core's unit tests, so they only ever ADD
    // manufactured state after asserting on deltas they themselves cause.

    #[test]
    fn inversion_is_reported_as_cycle() {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let before = order_cycles().len();
        {
            let _ga = a.lock();
            let _gb = b.lock(); // a -> b
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // b -> a: closes the cycle
        }
        let cycles = order_cycles();
        assert!(cycles.len() > before, "inversion must be reported");
        assert!(cycles.last().unwrap().contains("lock-order cycle"));
    }

    #[test]
    fn consistent_order_is_clean_and_io_probe_fires_only_under_lock() {
        let a = Mutex::new(0u32);
        let before_cycles = order_cycles().len();
        let before_io = io_under_lock_events().len();

        blocking_io("fsync"); // no lock held: not an event
        assert_eq!(io_under_lock_events().len(), before_io);

        {
            let _g = a.lock();
            io_allowed(|| blocking_io("fsync")); // annotated: not an event
            assert_eq!(io_under_lock_events().len(), before_io);
            blocking_io("fsync"); // held and unannotated: an event
        }
        let events = io_under_lock_events();
        assert_eq!(events.len(), before_io + 1);
        assert!(events.last().unwrap().contains("fsync while holding"));
        assert_eq!(order_cycles().len(), before_cycles, "no inversion here");
    }

    #[test]
    fn condvar_wait_releases_and_restores_held_entry() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let mut g = pair2.0.lock();
            while !*g {
                pair2.1.wait(&mut g);
            }
            // After the wait returns the guard is live again: an IO call
            // must register as under-lock.
            let before = io_under_lock_events().len();
            blocking_io("write_all");
            assert_eq!(io_under_lock_events().len(), before + 1);
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        {
            let mut g = pair.0.lock();
            *g = true;
            pair.1.notify_all();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn same_class_nesting_is_exempt() {
        // Two locks from one construction site (a sharded structure).
        let shards: Vec<Mutex<u32>> = (0..2).map(Mutex::new).collect();
        let before = order_cycles().len();
        {
            let _a = shards[0].lock();
            let _b = shards[1].lock();
        }
        {
            let _b = shards[1].lock();
            let _a = shards[0].lock();
        }
        assert_eq!(order_cycles().len(), before, "same-class nesting is not a cycle");
    }
}
