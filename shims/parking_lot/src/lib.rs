//! Offline stand-in for the `parking_lot` crate, backed by `std::sync`.
//!
//! The build container has no access to a crates.io mirror, so the workspace
//! vendors the small API surface it actually uses: [`Mutex`], [`RwLock`] and
//! [`Condvar`] with `parking_lot`'s non-poisoning, guard-returning signatures.
//! Poisoned std locks are recovered transparently (parking_lot has no
//! poisoning), and `Condvar` takes `&mut MutexGuard` like the real crate by
//! temporarily moving the std guard out of an `Option`.
//!
//! Because every lock in the workspace flows through this shim, it doubles as
//! the lock half of **ShimSan** (`harbor_common::shimsan`): each lock carries
//! a vector-clock [`SyncClock`] that is joined into the acquiring thread on
//! `lock`/`read`/`write` and published back on guard drop, so debug builds
//! track real happens-before edges for the race witnesses. `Condvar` waits
//! release the clock before parking and re-acquire it on wake, mirroring what
//! the underlying lock does. In release builds `SyncClock` is zero-sized and
//! every call compiles to nothing; the `#[cfg(debug_assertions)]` guard
//! fields keep release guard layouts identical to the uninstrumented shim.
//!
//! `Condvar` follows the real crate's wake rule: `notify_one`/`notify_all`
//! make a syscall only when a thread is waiting (a std notify always enters
//! the kernel). Waiters are counted under the caller's mutex, so the rule
//! holds for every caller that changes the waited-for state under the
//! mutex it waits with — which a std condvar requires anyway.
//! (Imprecision note: read-guard drops also publish, so ShimSan treats
//! concurrent readers as ordered — it under-reports read/read ordering,
//! never write races.)

use harbor_common::shimsan::SyncClock;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

pub struct Mutex<T: ?Sized> {
    san: SyncClock,
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can move the std guard out and back.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    san: &'a SyncClock,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            san: SyncClock::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    fn guard<'a>(&'a self, g: std::sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.san.acquire();
        MutexGuard {
            inner: Some(g),
            #[cfg(debug_assertions)]
            san: &self.san,
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.guard(self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(self.guard(g)),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(self.guard(p.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard active")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard active")
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // `inner` is only `None` mid-`Condvar::wait`, which already published
        // the clock before parking.
        if self.inner.is_some() {
            self.san.release();
        }
    }
}

pub struct RwLock<T: ?Sized> {
    san: SyncClock,
    inner: std::sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    san: &'a SyncClock,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    san: &'a SyncClock,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            san: SyncClock::new(),
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    fn read_guard<'a>(&'a self, g: std::sync::RwLockReadGuard<'a, T>) -> RwLockReadGuard<'a, T> {
        self.san.acquire();
        RwLockReadGuard {
            inner: g,
            #[cfg(debug_assertions)]
            san: &self.san,
        }
    }

    fn write_guard<'a>(&'a self, g: std::sync::RwLockWriteGuard<'a, T>) -> RwLockWriteGuard<'a, T> {
        self.san.acquire();
        RwLockWriteGuard {
            inner: g,
            #[cfg(debug_assertions)]
            san: &self.san,
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.read_guard(self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.write_guard(self.inner.write().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(self.read_guard(g)),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(self.read_guard(p.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(self.write_guard(g)),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(self.write_guard(p.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.san.release();
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.san.release();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable that wakes only threads that are asleep on it.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads in `wait`/`wait_for`, counted in before the caller's mutex is
    /// released and out after it is taken back.
    waiters: AtomicUsize,
    /// Notifies that reached the std condvar, for the tests' wake counts.
    #[cfg(test)]
    wakes: AtomicUsize,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
            #[cfg(test)]
            wakes: AtomicUsize::new(0),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard active");
        #[cfg(debug_assertions)]
        guard.san.release();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        #[cfg(debug_assertions)]
        guard.san.acquire();
        guard.inner = Some(g);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard active");
        #[cfg(debug_assertions)]
        guard.san.release();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (g, res) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => p.into_inner(),
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        #[cfg(debug_assertions)]
        guard.san.acquire();
        guard.inner = Some(g);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        if now >= deadline {
            return WaitTimeoutResult { timed_out: true };
        }
        self.wait_for(guard, deadline - now)
    }

    /// Wakes one waiter; with none waiting, returns without a syscall. A
    /// waiter counts itself in while it still holds the mutex, so a
    /// notifier that changed the waited-for state under that mutex sees
    /// every waiter that could have missed the change.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            #[cfg(test)]
            self.wakes.fetch_add(1, Ordering::SeqCst);
            self.inner.notify_one();
        }
    }

    /// Wakes every waiter; as [`notify_one`](Self::notify_one), free when
    /// there are none.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            #[cfg(test)]
            self.wakes.fetch_add(1, Ordering::SeqCst);
            self.inner.notify_all();
        }
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
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a, *b);
        }
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn condvar_wakes_and_times_out() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, c) = &*p2;
            let mut done = m.lock();
            *done = true;
            c.notify_all();
            drop(done);
        });
        let (m, c) = &*pair;
        let mut done = m.lock();
        while !*done {
            c.wait(&mut done);
        }
        drop(done);
        t.join().unwrap();

        let mut g = m.lock();
        let res = c.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
        assert!(res.timed_out());
    }

    #[test]
    fn a_notify_nobody_waits_for_is_free() {
        let c = Condvar::new();
        for _ in 0..10 {
            c.notify_one();
            c.notify_all();
        }
        assert_eq!(c.wakes.load(Ordering::SeqCst), 0);
    }

    /// Four threads pass a token round a ring with untimed waits: a lost
    /// wake hangs them (and the watchdog fails the test). Every pass wakes
    /// the sleepers at most once.
    #[test]
    fn a_token_ring_never_loses_a_wake() {
        const THREADS: usize = 4;
        const PASSES: usize = 4_000;
        let ring = Arc::new((Mutex::new(0usize), Condvar::new()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = (0..THREADS)
            .map(|me| {
                let ring = ring.clone();
                let done_tx = done_tx.clone();
                std::thread::spawn(move || {
                    let (m, c) = &*ring;
                    let mut turn = m.lock();
                    loop {
                        while *turn < PASSES && *turn % THREADS != me {
                            c.wait(&mut turn);
                        }
                        if *turn >= PASSES {
                            break;
                        }
                        *turn += 1;
                        c.notify_all();
                    }
                    drop(turn);
                    done_tx.send(()).unwrap();
                })
            })
            .collect();
        for _ in 0..THREADS {
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a waiter missed its wake");
        }
        for h in handles {
            h.join().unwrap();
        }
        let wakes = ring.1.wakes.load(Ordering::SeqCst);
        assert!(wakes <= PASSES, "{wakes} wakes for {PASSES} passes");
    }

    /// The lock half of ShimSan: a mutex hand-off is a happens-before edge,
    /// so two threads that only ever touch the witness under this shim's
    /// lock never race (debug builds panic on a real race).
    #[test]
    fn shimsan_mutex_edge_orders_witness_accesses() {
        use harbor_common::shimsan::RaceWitness;
        let shared = Arc::new((Mutex::new(0u64), RaceWitness::new()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sh = shared.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let mut g = sh.0.lock();
                    sh.1.check_write("parking_lot-guarded counter");
                    *g += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*shared.0.lock(), 400);
    }
}
