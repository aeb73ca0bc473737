//! Deterministic-seed schedule perturbation (DESIGN.md §12).
//!
//! A thread cannot choose when the OS preempts it, but it can *offer*
//! preemption points. Each participating thread derives a private
//! splitmix64 stream from ⟨global seed, thread index⟩ and, at every
//! [`point`], draws from it to decide: continue, yield the CPU, spin
//! briefly, or — rarely — stall as long as a preempted thread would, so
//! that another thread runs a whole protocol step inside the window the
//! stalled one is in. Sweeping the seed space drives the same protocol code through
//! thousands of distinct interleavings — on a 1-core CI runner (where
//! threads otherwise run to quantum exhaustion and concurrency bugs
//! hide), the injected yields are what create interleaving diversity at
//! all.
//!
//! The decision *sequence* per thread is a pure function of the seed, so
//! a failing seed is rerunnable; the actual interleaving additionally
//! depends on the OS scheduler, so this is a probabilistic explorer, not
//! a model checker — the point is that each seed perturbs differently.
//!
//! The points: a sweep's own threads call [`point`] explicitly, and
//! [`sweep`] installs it as `muppet_core::sync::audit`'s schedule hook, so
//! under the `lock-audit` feature every shim lock acquisition and every
//! `audit::point()` the runtime marks is one too. A thread the test never
//! registered — an engine worker — joins the run at the first point it
//! reaches, its index taken from a per-run counter.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use muppet_core::sync::audit;

static SEED: AtomicU64 = AtomicU64::new(0);
/// The installed run, 0 when none is.
static RUN: AtomicU64 = AtomicU64::new(0);
static RUNS: AtomicU64 = AtomicU64::new(0);
/// Threads that joined the installed run at their first point.
static JOINED: AtomicU64 = AtomicU64::new(0);
/// One sweep at a time in a process: a run is global. A plain lock, so
/// the harness's own serialisation is not audited: a sweeping thread
/// holds it across IO.
// lint: allow(no-raw-lock) — the harness's lock, outside what it audits
static SWEEPS: std::sync::Mutex<()> = std::sync::Mutex::new(());

thread_local! {
    static STREAM: Cell<u64> = const { Cell::new(0) };
    /// The run this thread's stream belongs to.
    static RUN_OF: Cell<u64> = const { Cell::new(0) };
    /// The thread running a sweep: it sets each seed up and checks it,
    /// unperturbed.
    static SWEEPING: Cell<bool> = const { Cell::new(false) };
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn stream(seed: u64, thread_idx: u64) -> u64 {
    let mut s = seed ^ thread_idx.wrapping_mul(0xA076_1D64_78BD_642F);
    // Burn one draw so thread 0 with seed 0 is not the identity stream.
    splitmix(&mut s);
    s
}

/// Join the current thread to the installed run as participant
/// `thread_idx`. A sweep's own threads join at their start ([`spawn`]), so
/// their streams do not depend on which of them reaches a point first.
fn register(thread_idx: u64) {
    STREAM.set(stream(SEED.load(Ordering::SeqCst), thread_idx));
    RUN_OF.set(RUN.load(Ordering::SeqCst));
}

/// A preemption offer: based on the thread's deterministic stream,
/// either continue immediately, yield to the OS scheduler, spin, or
/// stall. A no-op while no run is installed, and on the thread running the sweep.
pub fn point() {
    let run = RUN.load(Ordering::Acquire);
    if run == 0 || SWEEPING.get() {
        return;
    }
    if RUN_OF.get() != run {
        register(1 << 32 | JOINED.fetch_add(1, Ordering::Relaxed));
    }
    let mut stream = STREAM.get();
    let draw = splitmix(&mut stream);
    STREAM.set(stream);
    match draw % 1000 {
        // 50%: run on — long undisturbed stretches matter too, or every
        // interleaving degenerates into lockstep.
        0..500 => {}
        // 40%: give the scheduler a chance to run someone else here.
        500..900 => std::thread::yield_now(),
        // 0.1%: be preempted for a seed-sized stretch of up to half a
        // millisecond — long enough for another thread to run a whole step
        // (a worker's event, a woken waiter's retry, a recovery line)
        // inside the window this thread is in.
        999 => std::thread::sleep(Duration::from_micros(draw >> 32 & 511)),
        // 9.9%: burn a short, seed-sized window so another thread can
        // enter the code we just left.
        _ => (0..draw % 256).for_each(|_| std::hint::spin_loop()),
    }
}

/// The installed run of one seed; dropping it uninstalls the run and, on
/// a panic, names the seed.
struct Run(u64);

impl Drop for Run {
    fn drop(&mut self) {
        audit::set_sched_hook(None);
        RUN.store(0, Ordering::SeqCst);
        if std::thread::panicking() {
            eprintln!("sched: the sweep failed under seed {}", self.0);
        }
    }
}

/// Run `scenario` under each seed of `0..seeds`, one installed run per
/// seed and one sweep at a time in this process, and return the first
/// seed whose run reported violations, with them.
pub fn sweep(
    seeds: u64,
    mut scenario: impl FnMut(u64) -> Vec<String>,
) -> Option<(u64, Vec<String>)> {
    let _one = SWEEPS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    SWEEPING.set(true);
    let caught = (0..seeds).find_map(|seed| {
        SEED.store(seed, Ordering::SeqCst);
        JOINED.store(0, Ordering::SeqCst);
        RUN.store(RUNS.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        audit::set_sched_hook(Some(point));
        let _run = Run(seed);
        Some((seed, scenario(seed))).filter(|(_, violations)| !violations.is_empty())
    });
    SWEEPING.set(false);
    caught
}

/// Spawn a sweep thread registered as participant `thread_idx`; it wakes
/// the spawning thread when it is done.
pub fn spawn<T: Send + 'static>(
    thread_idx: u64,
    body: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    let joiner = std::thread::current();
    std::thread::spawn(move || {
        register(thread_idx);
        let out = body();
        joiner.unpark();
        out
    })
}

/// Join `threads`, failing the test if one is still running `within`
/// from now: a lost wakeup fails the seed instead of stalling it.
pub fn join_within<T>(threads: Vec<JoinHandle<T>>, within: Duration) -> Vec<T> {
    let deadline = Instant::now() + within;
    while let Some(at) = threads.iter().position(|t| !t.is_finished()) {
        assert!(Instant::now() < deadline, "thread {at} is still running after {within:?}");
        std::thread::park_timeout(Duration::from_micros(100));
    }
    threads.into_iter().map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed_and_thread() {
        let draws = |seed: u64, idx: u64| -> Vec<u64> {
            let mut s = stream(seed, idx);
            (0..8).map(|_| splitmix(&mut s) % 10).collect()
        };
        assert_eq!(draws(7, 1), draws(7, 1));
        assert_ne!(draws(7, 1), draws(8, 1), "seed changes the stream");
        assert_ne!(draws(7, 1), draws(7, 2), "thread index changes the stream");
    }

    #[test]
    fn a_thread_joins_the_installed_run_at_its_first_point() {
        point(); // no run: a no-op, not a panic
        let joined = sweep(2, |_| {
            let before = JOINED.load(Ordering::SeqCst);
            std::thread::spawn(point).join().unwrap();
            vec![format!("{}", JOINED.load(Ordering::SeqCst) - before)]
        });
        assert_eq!(joined, Some((0, vec!["1".to_string()])));
        assert_eq!(RUN.load(Ordering::SeqCst), 0, "the run is uninstalled after its seed");
    }
}
