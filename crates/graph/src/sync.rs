//! Ranked lock wrappers: the mechanical form of the lock-order
//! discipline the service crates promise in prose.
//!
//! Every long-lived lock in the workspace is an [`OrderedMutex`] or
//! [`OrderedRwLock`] constructed with a declared [`LockRank`]. Debug
//! builds keep a thread-local stack of currently-held ranks and panic
//! the moment any thread acquires a lock whose rank is not **strictly
//! greater** than everything it already holds — naming both ranks and
//! both acquisition sites. That turns the whole test suite into a
//! continuously-running deadlock detector: an ordering bug panics the
//! first time the *acquisition pattern* occurs, not the first time two
//! threads actually race into the deadly embrace.
//!
//! Release builds compile the checker out entirely: the rank field is
//! `#[cfg(debug_assertions)]`-gated, so `OrderedMutex<T>` is exactly
//! `std::sync::Mutex<T>` plus nothing (see
//! `rank_checks_compile_out`), and `lock()`/`read()`/`write()` reduce
//! to the std call plus a poison check.
//!
//! Like [`crate::vfs`], this module physically lives in `ceg-graph` —
//! the root of the workspace dependency graph, so every crate can use
//! it — and is re-exported as `ceg_core::sync`, the framework-level
//! name the rest of the codebase imports.
//!
//! Poisoning: `lock()`/`read()`/`write()` panic on a poisoned lock
//! (matching the `.lock().unwrap()` idiom they replace), while the
//! `checked_*` variants surface [`LockPoisoned`] so request paths can
//! degrade one dataset instead of killing a worker shard.

// This module is the one place allowed to name the raw std primitives
// it wraps — mirrored by the `lock-discipline` entry for this file in
// ceg-lint.allow.
#![allow(clippy::disallowed_types)]

use std::fmt;
#[cfg(debug_assertions)]
use std::panic::Location;
use std::sync::{Condvar, WaitTimeoutResult};
use std::time::Duration;

/// True when the debug-build lock-order checker is active. Release
/// builds compile it out; the nightly CI soak re-enables it on the
/// release profile via `debug-assertions = true`.
pub const RANK_CHECKS_ENABLED: bool = cfg!(debug_assertions);

/// The workspace-wide total order on lock acquisition. A thread may
/// only acquire a lock whose rank is strictly greater than every rank
/// it already holds; equal ranks are also forbidden (two same-rank
/// locks taken together by two threads in opposite orders deadlock
/// just as surely).
///
/// See ARCHITECTURE.md ("Static analysis & lock discipline") for the
/// rationale behind each position; the load-bearing one is
/// `Durability < DatasetState`: a commit holds the durability mutex
/// from the WAL append to the pointer swap that publishes the successor
/// state, and snapshot rotation holds it while pinning the state and
/// cloning its catalog, so durability must rank *below* dataset state
/// even though the WAL device itself ranks last.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum LockRank {
    /// `DatasetRegistry::map` — the name → dataset table.
    Registry = 0,
    /// `DatasetEntry::durability` — WAL attachment and commit mutex;
    /// held across append, fsync, building the successor state and its
    /// publication, and across snapshot rotation. Never taken by
    /// readers.
    Durability = 1,
    /// `DatasetEntry::current` — the pointer slot publishing the
    /// dataset's immutable epoch state (held for an `Arc` clone or
    /// swap) — and each epoch state's catalog lock (held for lookups,
    /// a fill's inserts, or one clone). The two never nest.
    DatasetState = 2,
    /// `DatasetEntry::pending` — the buffered update delta.
    PendingDelta = 3,
    /// `Engine`'s estimate LRU cache.
    Cache = 4,
    /// Metrics-adjacent state: slow-query log, admission counters,
    /// catalog fill statistics.
    Metrics = 5,
    /// The estimate path's run gate (`Engine`'s free-slot counter) and
    /// lifecycle/drain signalling (`Lifecycle::signal`).
    PoolShard = 6,
    /// `vfs::FaultStorage` interior — the simulated device. Last:
    /// storage calls happen under any of the above.
    Wal = 7,
}

impl LockRank {
    /// Stable human-readable name used in diagnostics and docs.
    pub const fn name(self) -> &'static str {
        match self {
            LockRank::Registry => "registry",
            LockRank::Durability => "durability",
            LockRank::DatasetState => "dataset-state",
            LockRank::PendingDelta => "pending-delta",
            LockRank::Cache => "cache",
            LockRank::Metrics => "metrics",
            LockRank::PoolShard => "pool-shard",
            LockRank::Wal => "wal",
        }
    }
}

impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` (rank {})", self.name(), *self as u8)
    }
}

/// A lock acquisition failed because another thread panicked while
/// holding the lock. Returned by the `checked_*` methods; the plain
/// `lock()`/`read()`/`write()` methods panic on it instead.
#[derive(Clone, Copy, Debug)]
pub struct LockPoisoned {
    #[cfg(debug_assertions)]
    rank: LockRank,
}

impl fmt::Display for LockPoisoned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        #[cfg(debug_assertions)]
        return write!(
            f,
            "lock {} poisoned: a thread panicked while holding it",
            self.rank
        );
        #[cfg(not(debug_assertions))]
        write!(f, "lock poisoned: a thread panicked while holding it")
    }
}

impl LockPoisoned {
    /// Escalate to a panic — for infallible APIs with no error channel.
    /// Lives here so the panic-path lint's request-path files stay free
    /// of panic tokens: the decision to die is ceg-core's, the caller
    /// only names it.
    #[track_caller]
    pub fn abort(self) -> ! {
        panic!("{self}")
    }
}

impl std::error::Error for LockPoisoned {}

#[cfg(debug_assertions)]
mod checker {
    use super::LockRank;
    use std::cell::{Cell, RefCell};
    use std::panic::Location;

    struct Held {
        rank: LockRank,
        site: &'static Location<'static>,
        token: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: Cell<u64> = const { Cell::new(0) };
    }

    /// Record an acquisition attempt at `site`. Panics if `rank` is not
    /// strictly above every rank this thread already holds. Returns a
    /// token the matching guard passes back to [`release`] on drop (by
    /// token, not stack order: guards may be dropped out of order).
    pub fn acquire(rank: LockRank, site: &'static Location<'static>) -> u64 {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(worst) = held.iter().max_by_key(|h| h.rank) {
                if rank <= worst.rank {
                    panic!(
                        "lock-rank violation: acquiring {} at {} while \
                         holding {} acquired at {}; locks must be taken in \
                         strictly ascending LockRank order (ceg_core::sync)",
                        rank, site, worst.rank, worst.site
                    );
                }
            }
            let token = NEXT_TOKEN.with(|t| {
                let v = t.get();
                t.set(v + 1);
                v
            });
            held.push(Held { rank, site, token });
            token
        })
    }

    pub fn release(token: u64) {
        // May run during unwinding from an unrelated panic; never
        // panics itself (a missing token is simply ignored).
        let _ = HELD.try_with(|held| {
            if let Ok(mut held) = held.try_borrow_mut() {
                if let Some(pos) = held.iter().position(|h| h.token == token) {
                    held.swap_remove(pos);
                }
            }
        });
    }
}

/// `std::sync::Mutex` carrying a declared [`LockRank`]; the only
/// mutex the lock-discipline lint permits outside `ceg-core`.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    #[cfg(debug_assertions)]
    rank: LockRank,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`OrderedMutex`]; pops its rank off the thread's
/// held stack on drop.
pub struct OrderedMutexGuard<'a, T> {
    // `Option` so `wait_timeout` can move the std guard out and back.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    token: u64,
}

impl<T> OrderedMutex<T> {
    pub const fn new(rank: LockRank, value: T) -> Self {
        // `rank` is only stored when the checker is compiled in.
        let _ = rank;
        Self {
            #[cfg(debug_assertions)]
            rank,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquire, panicking on rank violation (debug builds) or poison.
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        match self.checked_lock() {
            Ok(guard) => guard,
            Err(err) => panic!("{err}"),
        }
    }

    /// Acquire, surfacing poison as an error instead of a panic. Rank
    /// violations still panic: they are programming bugs, not runtime
    /// conditions to recover from.
    #[track_caller]
    pub fn checked_lock(&self) -> Result<OrderedMutexGuard<'_, T>, LockPoisoned> {
        #[cfg(debug_assertions)]
        let token = checker::acquire(self.rank, Location::caller());
        match self.inner.lock() {
            Ok(guard) => Ok(OrderedMutexGuard {
                inner: Some(guard),
                #[cfg(debug_assertions)]
                token,
            }),
            Err(_) => {
                #[cfg(debug_assertions)]
                checker::release(token);
                Err(LockPoisoned {
                    #[cfg(debug_assertions)]
                    rank: self.rank,
                })
            }
        }
    }

    /// Exclusive access through `&mut self`: no locking, no rank entry
    /// (a mutable borrow proves no other thread holds the lock).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Consume the mutex, returning the value (poison is irrelevant
    /// once the lock can no longer be shared).
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken by wait_timeout")
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken by wait_timeout")
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        checker::release(self.token);
    }
}

/// Block on `cv` with an [`OrderedMutexGuard`], the ranked counterpart
/// of [`Condvar::wait_timeout`]. The rank entry stays on the held
/// stack for the duration of the wait — the thread is blocked, and on
/// wake it holds the mutex again, so the stack is accurate throughout.
///
/// Panics if the mutex was poisoned while unlocked during the wait.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: OrderedMutexGuard<'a, T>,
    dur: Duration,
) -> (OrderedMutexGuard<'a, T>, WaitTimeoutResult) {
    let mut guard = guard;
    let std_guard = guard.inner.take().expect("guard taken by wait_timeout");
    #[cfg(debug_assertions)]
    let token = guard.token;
    // Forget the emptied guard so its Drop does not release the rank
    // entry we are about to hand to the reacquired guard.
    std::mem::forget(guard);
    match cv.wait_timeout(std_guard, dur) {
        Ok((reacquired, result)) => (
            OrderedMutexGuard {
                inner: Some(reacquired),
                #[cfg(debug_assertions)]
                token,
            },
            result,
        ),
        Err(_) => {
            #[cfg(debug_assertions)]
            checker::release(token);
            panic!("lock poisoned during condvar wait");
        }
    }
}

/// `std::sync::RwLock` carrying a declared [`LockRank`]. Read
/// acquisitions participate in the rank discipline exactly like
/// writes: read→read nesting at equal rank is forbidden too (writer
/// priority can deadlock recursive readers).
#[derive(Debug)]
pub struct OrderedRwLock<T> {
    #[cfg(debug_assertions)]
    rank: LockRank,
    inner: std::sync::RwLock<T>,
}

/// RAII read guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    token: u64,
}

/// RAII write guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    token: u64,
}

impl<T> OrderedRwLock<T> {
    pub const fn new(rank: LockRank, value: T) -> Self {
        let _ = rank;
        Self {
            #[cfg(debug_assertions)]
            rank,
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Shared acquire, panicking on rank violation or poison.
    #[track_caller]
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        match self.checked_read() {
            Ok(guard) => guard,
            Err(err) => panic!("{err}"),
        }
    }

    /// Exclusive acquire, panicking on rank violation or poison.
    #[track_caller]
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        match self.checked_write() {
            Ok(guard) => guard,
            Err(err) => panic!("{err}"),
        }
    }

    /// Shared acquire, surfacing poison as an error.
    #[track_caller]
    pub fn checked_read(&self) -> Result<OrderedReadGuard<'_, T>, LockPoisoned> {
        #[cfg(debug_assertions)]
        let token = checker::acquire(self.rank, Location::caller());
        match self.inner.read() {
            Ok(guard) => Ok(OrderedReadGuard {
                inner: guard,
                #[cfg(debug_assertions)]
                token,
            }),
            Err(_) => {
                #[cfg(debug_assertions)]
                checker::release(token);
                Err(LockPoisoned {
                    #[cfg(debug_assertions)]
                    rank: self.rank,
                })
            }
        }
    }

    /// Exclusive acquire, surfacing poison as an error.
    #[track_caller]
    pub fn checked_write(&self) -> Result<OrderedWriteGuard<'_, T>, LockPoisoned> {
        #[cfg(debug_assertions)]
        let token = checker::acquire(self.rank, Location::caller());
        match self.inner.write() {
            Ok(guard) => Ok(OrderedWriteGuard {
                inner: guard,
                #[cfg(debug_assertions)]
                token,
            }),
            Err(_) => {
                #[cfg(debug_assertions)]
                checker::release(token);
                Err(LockPoisoned {
                    #[cfg(debug_assertions)]
                    rank: self.rank,
                })
            }
        }
    }

    /// Exclusive access through `&mut self`: no locking, no rank entry.
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        checker::release(self.token);
    }
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        checker::release(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
        if let Some(s) = err.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = err.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            String::from("<non-string panic payload>")
        }
    }

    #[test]
    fn ascending_acquisition_is_allowed() {
        let a = OrderedMutex::new(LockRank::Registry, 1u32);
        let b = OrderedMutex::new(LockRank::DatasetState, 2u32);
        let c = OrderedMutex::new(LockRank::Wal, 3u32);
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.lock();
        assert_eq!(*ga + *gb + *gc, 6);
    }

    #[test]
    fn out_of_order_drop_keeps_stack_consistent() {
        let a = OrderedMutex::new(LockRank::Registry, ());
        let b = OrderedMutex::new(LockRank::Cache, ());
        let c = OrderedMutex::new(LockRank::Wal, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // dropped below gb: release is by token, not LIFO
        let gc = c.lock();
        drop(gb);
        drop(gc);
        // After all guards drop, any rank is acquirable again.
        let _ = a.lock();
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "lock-rank checker compiles out in release builds"
    )]
    fn inverted_acquisition_in_spawned_thread_panics_with_both_sites() {
        let low = Arc::new(OrderedMutex::new(LockRank::Registry, ()));
        let high = Arc::new(OrderedMutex::new(LockRank::Wal, ()));
        let (low2, high2) = (Arc::clone(&low), Arc::clone(&high));
        let handle = std::thread::spawn(move || {
            let _wal = high2.lock(); // rank 7 first...
            let _reg = low2.lock(); // ...then rank 0: must panic
        });
        let err = handle.join().expect_err("inverted order must panic");
        let msg = panic_message(err);
        assert!(msg.contains("lock-rank violation"), "missing header: {msg}");
        assert!(msg.contains("`registry` (rank 0)"), "missing rank: {msg}");
        assert!(msg.contains("`wal` (rank 7)"), "missing rank: {msg}");
        // Both acquisition sites are named, down to this file and line.
        assert_eq!(
            msg.matches("sync.rs:").count(),
            2,
            "expected two acquisition sites in: {msg}"
        );
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "lock-rank checker compiles out in release builds"
    )]
    fn equal_rank_nesting_panics() {
        let a = OrderedRwLock::new(LockRank::DatasetState, ());
        let b = OrderedRwLock::new(LockRank::DatasetState, ());
        let _ga = a.read();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.read();
        }))
        .expect_err("equal-rank nesting must panic");
        assert!(panic_message(err).contains("lock-rank violation"));
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "lock-rank checker compiles out in release builds"
    )]
    fn violation_unwinds_clean() {
        // A caught rank violation must not leave a stale rank on the
        // thread stack (guards that never existed cannot pop it).
        let high = OrderedMutex::new(LockRank::Wal, ());
        let low = OrderedMutex::new(LockRank::Registry, ());
        {
            let _g = high.lock();
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = low.lock();
            }));
        }
        // All guards dropped: both locks acquirable again, any order.
        let _g = low.lock();
        drop(_g);
        let _g = high.lock();
    }

    #[test]
    fn checked_lock_reports_poison() {
        let m = Arc::new(OrderedMutex::new(LockRank::Cache, 7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        let err = m.checked_lock().expect_err("must be poisoned");
        assert!(err.to_string().contains("poisoned"), "{err}");
        // The panicking variant panics with the same message.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = m.lock();
        }))
        .expect_err("lock() must panic on poison");
        assert!(panic_message(err).contains("poisoned"));
    }

    #[test]
    fn checked_rwlock_reports_poison() {
        let l = Arc::new(OrderedRwLock::new(LockRank::DatasetState, 0u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        assert!(l.checked_read().is_err());
        assert!(l.checked_write().is_err());
    }

    #[test]
    fn condvar_wait_timeout_round_trips_guard() {
        let m = OrderedMutex::new(LockRank::PoolShard, false);
        let cv = Condvar::new();
        let guard = m.lock();
        let (guard, result) = wait_timeout(&cv, guard, Duration::from_millis(5));
        assert!(result.timed_out());
        assert!(!*guard);
        drop(guard);
        // The rank entry was carried across the wait, not leaked.
        let _again = m.lock();
    }

    #[test]
    fn rank_checks_compile_out() {
        assert_eq!(RANK_CHECKS_ENABLED, cfg!(debug_assertions));
        #[cfg(not(debug_assertions))]
        {
            // Zero release-build cost: the rank field is cfg'd away, so
            // the wrapper is layout-identical to the std primitive.
            assert_eq!(
                std::mem::size_of::<OrderedMutex<u64>>(),
                std::mem::size_of::<std::sync::Mutex<u64>>()
            );
            assert_eq!(
                std::mem::size_of::<OrderedRwLock<u64>>(),
                std::mem::size_of::<std::sync::RwLock<u64>>()
            );
        }
        #[cfg(debug_assertions)]
        {
            assert!(
                std::mem::size_of::<OrderedMutex<u64>>()
                    >= std::mem::size_of::<std::sync::Mutex<u64>>()
            );
        }
    }

    #[test]
    fn get_mut_and_into_inner_skip_ranking() {
        let mut m = OrderedMutex::new(LockRank::Wal, 1u32);
        // Holding a higher rank while using `&mut` access is fine: no
        // lock is taken.
        let other = OrderedMutex::new(LockRank::Registry, ());
        let _g = other.lock();
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 2);
    }
}
