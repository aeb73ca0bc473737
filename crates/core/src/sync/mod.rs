//! Instrumented synchronization primitives — the only lock layer the
//! workspace is allowed to use (enforced by `muppet-check`'s `no-raw-lock`
//! rule; `vendor/` and this module are exempt).
//!
//! In a default build these are transparent newtypes over the vendored
//! `parking_lot` shim: no extra fields, no extra branches, `#[inline]`
//! passthroughs — the migration from raw `parking_lot` costs nothing
//! (measured in PR 8).
//!
//! Under the **`lock-audit`** feature every lock carries the source
//! location of its construction site as a static *lock class* label, every
//! acquisition pushes onto a thread-local held-lock stack, and every
//! ⟨held → acquired⟩ class pair feeds a global lock-order graph. A cycle
//! in that graph is a potential deadlock; the audit records it with the
//! acquisition backtrace of each edge (see [`audit`]). Blocking-IO sites
//! (`fsync` and friends) call [`audit::blocking_io`], which reports any IO
//! performed while a lock is held unless the site is wrapped in
//! [`audit::io_allowed`].
//!
//! The audit layer also exposes a schedule-perturbation hook
//! ([`audit::set_sched_hook`]) fired at every [`audit::point`]: before
//! every acquisition, and at the protocol steps the runtime marks — the
//! `muppet-check` interleaving harness uses it to jitter thread schedules
//! through the real code.

#[cfg(feature = "lock-audit")]
pub mod audit;

#[cfg(not(feature = "lock-audit"))]
pub mod audit {
    //! No-op audit surface for default builds: every probe compiles to
    //! nothing so callers need no `cfg` of their own.

    /// Whether the audit layer is compiled in.
    #[inline(always)]
    pub const fn enabled() -> bool {
        false
    }

    /// A schedule-perturbation point (no-op without `lock-audit`).
    #[inline(always)]
    pub fn point() {}

    /// Install the schedule-perturbation hook (no-op without `lock-audit`).
    #[inline(always)]
    pub fn set_sched_hook(_hook: Option<fn()>) {}

    /// Record a blocking-IO call (no-op without `lock-audit`).
    #[inline(always)]
    pub fn blocking_io(_kind: &'static str) {}

    /// Run `f` with IO-under-lock reporting suppressed (no-op wrapper).
    #[inline(always)]
    pub fn io_allowed<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Lock-order cycles observed so far (always empty without audit).
    #[inline(always)]
    pub fn order_cycles() -> Vec<String> {
        Vec::new()
    }

    /// IO-while-locked events observed so far (always empty without audit).
    #[inline(always)]
    pub fn io_under_lock_events() -> Vec<String> {
        Vec::new()
    }
}

#[cfg(feature = "lock-audit")]
use core::panic::Location;
use std::fmt;
use std::time::Duration;

pub use parking_lot::WaitTimeoutResult;

/// A mutual exclusion lock; [`MutexGuard::lock`] never fails. Identical to
/// the vendored `parking_lot::Mutex` in default builds; under `lock-audit`
/// the construction site becomes the lock's class label.
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "lock-audit")]
    site: &'static Location<'static>,
    inner: parking_lot::Mutex<T>,
}

/// Guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // Declared before `inner` so the audit pop happens while the lock is
    // still held — the stack never claims "unheld" for a held lock.
    #[cfg(feature = "lock-audit")]
    held: audit::HeldToken,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Create a mutex guarding `value`. The caller's source location is
    /// the lock class under `lock-audit`.
    #[track_caller]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            #[cfg(feature = "lock-audit")]
            site: Location::caller(),
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "lock-audit")]
        let held = audit::on_acquire(self.site, audit::Kind::Mutex);
        MutexGuard {
            #[cfg(feature = "lock-audit")]
            held,
            inner: self.inner.lock(),
        }
    }

    /// Try to acquire the lock without blocking.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        Some(MutexGuard {
            #[cfg(feature = "lock-audit")]
            held: audit::on_acquire(self.site, audit::Kind::Mutex),
            inner,
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A reader-writer lock; `read()`/`write()` never fail.
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "lock-audit")]
    site: &'static Location<'static>,
    inner: parking_lot::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-audit")]
    held: audit::HeldToken,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-audit")]
    held: audit::HeldToken,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a lock guarding `value`. The caller's source location is
    /// the lock class under `lock-audit`.
    #[track_caller]
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            #[cfg(feature = "lock-audit")]
            site: Location::caller(),
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "lock-audit")]
        let held = audit::on_acquire(self.site, audit::Kind::RwRead);
        RwLockReadGuard {
            #[cfg(feature = "lock-audit")]
            held,
            inner: self.inner.read(),
        }
    }

    /// Acquire an exclusive write lock.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "lock-audit")]
        let held = audit::on_acquire(self.site, audit::Kind::RwWrite);
        RwLockWriteGuard {
            #[cfg(feature = "lock-audit")]
            held,
            inner: self.inner.write(),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A condition variable usable with [`MutexGuard`].
#[derive(Default)]
pub struct Condvar(parking_lot::Condvar);

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Condvar {
        Condvar(parking_lot::Condvar::new())
    }

    /// Block until notified. The mutex is released for the duration of the
    /// wait; under `lock-audit` the held-stack entry is popped and
    /// re-pushed around it so the stack mirrors what the thread holds.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        #[cfg(feature = "lock-audit")]
        let reacquire = guard.held.release_for_wait();
        self.0.wait(&mut guard.inner);
        #[cfg(feature = "lock-audit")]
        {
            guard.held = reacquire.reacquired();
        }
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        #[cfg(feature = "lock-audit")]
        let reacquire = guard.held.release_for_wait();
        let result = self.0.wait_for(&mut guard.inner, timeout);
        #[cfg(feature = "lock-audit")]
        {
            guard.held = reacquire.reacquired();
        }
        result
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shim_is_transparent_in_default_builds() {
        // The whole point of the newtype: without `lock-audit` there is no
        // extra field, so migrating a lock site onto the shim is free.
        #[cfg(not(feature = "lock-audit"))]
        {
            assert_eq!(
                std::mem::size_of::<Mutex<u64>>(),
                std::mem::size_of::<parking_lot::Mutex<u64>>()
            );
            assert_eq!(
                std::mem::size_of::<RwLock<u64>>(),
                std::mem::size_of::<parking_lot::RwLock<u64>>()
            );
            assert_eq!(
                std::mem::size_of::<MutexGuard<'_, u64>>(),
                std::mem::size_of::<parking_lot::MutexGuard<'_, u64>>()
            );
        }
    }

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        {
            let _g = m.lock();
            assert!(m.try_lock().is_none());
        }
        assert_eq!(m.into_inner(), 2);
        // Contended: no increment is lost.
        let shared = Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| (0..10_000).for_each(|_| *shared.lock() += 1));
            }
        });
        assert_eq!(shared.into_inner(), 20_000);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1]);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1, *r2);
        }
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn condvar_wakes_and_times_out() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let mut g = pair.0.lock();
        assert!(pair.1.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        drop(g);

        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let mut g = pair2.0.lock();
            while !*g {
                pair2.1.wait(&mut g);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        {
            let mut g = pair.0.lock();
            *g = true;
            pair.1.notify_all();
        }
        t.join().unwrap();
    }
}
