//! # her-sync — the workspace's synchronization facade
//!
//! Every lock in the HER workspace is taken through the [`Mutex`] and
//! [`RwLock`] wrappers defined here (the workspace `clippy.toml` lists
//! `std::sync::{Mutex, RwLock}` and their guards as `disallowed-types`
//! everywhere but this crate). The wrappers mirror the std
//! API — `lock()`, `read()`, `write()` return [`LockResult`]s with the
//! usual poisoning semantics — plus one addition: every lock carries a
//! [`Rank`] from the global [`rank`] table, and a runtime tracker
//! checks, per thread, that
//!
//! 1. locks are acquired in **strictly increasing rank order**, and
//! 2. no lock is acquired **re-entrantly** (same instance twice on one
//!    thread — which deadlocks outright for `Mutex`/write locks, and
//!    deadlocks against a queued writer for read locks).
//!
//! A violation panics immediately and deterministically, naming the
//! attempted lock, every lock the thread currently holds, and both
//! acquisition backtraces (captured when `RUST_BACKTRACE` is set).
//! Latent deadlocks — which otherwise require an unlucky interleaving
//! under load — thus become ordinary test failures.
//!
//! Tracking is active in debug/test builds (`debug_assertions`) and in
//! release builds that enable the `lock-order` feature; otherwise the
//! wrappers compile down to the bare std primitives plus one predictable
//! branch.
//!
//! The total order over the workspace's locks lives in [`rank`]; see
//! DESIGN.md §4g for the rationale behind each rank.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![allow(
    clippy::disallowed_types,
    reason = "the facade wraps the std locks it bans everywhere else"
)]

use std::backtrace::Backtrace;
use std::cell::RefCell;
use std::fmt;
use std::sync::{LockResult, PoisonError};

/// `true` when the lock-order tracker is compiled in: every debug/test
/// build, plus release builds with the `lock-order` feature.
pub const TRACKING: bool = cfg!(any(feature = "lock-order", debug_assertions));

/// A lock's position in the workspace-wide acquisition order, plus the
/// name violations are reported under. Its fields and constructor are
/// private, so [`rank`] is the only place a rank can be made and the
/// total order stays reviewable in one place:
///
/// ```compile_fail,E0624
/// let _ = her_sync::Rank::new(99, "elsewhere");
/// ```
///
/// ```compile_fail,E0451
/// let _ = her_sync::Rank { order: 99, name: "elsewhere" };
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rank {
    /// Acquisition order: a thread may only acquire a lock whose order
    /// is strictly greater than every lock it already holds.
    order: u32,
    /// Stable dotted name used in panic messages and DESIGN.md's table.
    name: &'static str,
}

impl Rank {
    const fn new(order: u32, name: &'static str) -> Self {
        Rank { order, name }
    }
}

/// The workspace lock-rank table — the single source of truth for the
/// acquisition order (outermost/lowest first), and the only place a
/// [`Rank`] can be made. Keep in sync with the table in DESIGN.md §4g.
pub mod rank {
    use super::Rank;

    /// `her-serve` watchdog in-flight table: registration at request
    /// start/end plus the reaper's scan. Ranked above (acquired before)
    /// the admission gate because the reaper force-releases a stuck
    /// request's permit — an admission acquisition — while scanning.
    pub const SERVE_WATCHDOG: Rank = Rank::new(3, "serve.watchdog");
    /// `her-serve` admission gate: in-flight/queue bookkeeping. Outermost
    /// serve-side lock — held only for bookkeeping, never across a match.
    pub const SERVE_ADMISSION: Rank = Rank::new(4, "serve.admission");
    /// `her-serve` session registry: the stream-id → session map. Held
    /// only to look up or create a session handle, then released before
    /// the session's own `SERVE_STREAM` lock is taken, but ranked above
    /// it so a lookup-then-lock sequence is provably ordered.
    pub const SERVE_SESSIONS: Rank = Rank::new(5, "serve.sessions");
    /// `her-serve` stream session: serializes stream mutations and
    /// snapshots. Held across matching, which takes `SCORES_SHARD` and
    /// the obs locks, so it must rank below all of those.
    pub const SERVE_STREAM: Rank = Rank::new(6, "serve.stream");
    /// `her-serve` health state machine: the degradation-reason cell.
    /// Taken while the stream session lock is held (a failed journal
    /// append degrades in place), so it ranks below `SERVE_STREAM`.
    pub const SERVE_HEALTH: Rank = Rank::new(7, "serve.health");
    /// `her-parallel` partition table (`SharedPartition`): owner lookups
    /// and recovery-time reassignment.
    pub const PARTITION: Rank = Rank::new(10, "parallel.partition");
    /// `her-parallel` fault plan: fire-once kill/poison bookkeeping and
    /// the per-worker message-fate counters, taken for one insert or
    /// increment and only when a plan is armed.
    pub const FAULT: Rank = Rank::new(20, "parallel.fault");
    /// `her-core` matcher pool: the warm-matcher free list. Held only
    /// for a pop/push (matchers are moved out before use), never across
    /// a match, so it ranks above the score shards a checked-out
    /// matcher will lock.
    pub const MATCHER_POOL: Rank = Rank::new(30, "core.matcher_pool");
    /// `her-core` shared score memo: one rank for all shards — shards
    /// are peers and at most one may be held at a time.
    pub const SCORES_SHARD: Rank = Rank::new(40, "core.scores_shard");
    /// `her-obs` instrument registry (innermost tier: obs calls may
    /// appear inside any other critical section).
    pub const OBS_REGISTRY: Rank = Rank::new(90, "obs.registry");
    /// `her-obs` trace ring buffer.
    pub const OBS_TRACE: Rank = Rank::new(95, "obs.trace");
}

/// One lock a thread currently holds.
struct Held {
    order: u32,
    name: &'static str,
    /// Identity of the lock instance (address of its inner primitive).
    addr: usize,
    /// Captured at acquisition; disabled (cheap) unless `RUST_BACKTRACE`
    /// is set, like std's panic backtraces.
    backtrace: Backtrace,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    /// `(rank order, acquisitions)` by this thread — see [`acquisitions`].
    static ACQUIRED: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Checks the acquisition of `(rank, addr)` against this thread's held
/// set and records it. Panics on re-entrancy or rank inversion.
fn track_acquire(rank: Rank, addr: usize) {
    if !TRACKING {
        return;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(h) = held.iter().find(|h| h.addr == addr) {
            panic!(
                "her-sync: re-entrant acquisition of `{}` (rank {})\n\
                 first acquired at:\n{}\n\
                 re-acquired at:\n{}",
                h.name,
                h.order,
                h.backtrace,
                Backtrace::capture(),
            );
        }
        if let Some(h) = held.iter().find(|h| h.order >= rank.order) {
            let held_set: Vec<String> = held
                .iter()
                .map(|h| format!("  - `{}` (rank {}) acquired at:\n{}", h.name, h.order, h.backtrace))
                .collect();
            panic!(
                "her-sync: lock-order violation: acquiring `{}` (rank {}) while holding \
                 `{}` (rank {}) — ranks must strictly increase\n\
                 held lock set:\n{}\n\
                 violating acquisition at:\n{}",
                rank.name,
                rank.order,
                h.name,
                h.order,
                held_set.join("\n"),
                Backtrace::capture(),
            );
        }
        ACQUIRED.with(|counts| {
            let mut counts = counts.borrow_mut();
            match counts.iter_mut().find(|(order, _)| *order == rank.order) {
                Some((_, n)) => *n += 1,
                None => counts.push((rank.order, 1)),
            }
        });
        held.push(Held {
            order: rank.order,
            name: rank.name,
            addr,
            backtrace: Backtrace::capture(),
        });
    });
}

/// Removes `addr` from this thread's held set (guards may drop in any
/// order, so this is not a strict stack pop).
fn track_release(addr: usize) {
    if !TRACKING {
        return;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(i) = held.iter().rposition(|h| h.addr == addr) {
            held.remove(i);
        }
    });
}

/// The lock set the current thread holds, as `(name, order)` pairs in
/// acquisition order. Empty when tracking is compiled out.
pub fn held_locks() -> Vec<(&'static str, u32)> {
    if !TRACKING {
        return Vec::new();
    }
    HELD.with(|held| held.borrow().iter().map(|h| (h.name, h.order)).collect())
}

/// How many locks of `rank` the current thread has acquired so far
/// (reads and writes alike). Tests diff two readings to bound the lock
/// traffic of a code path; always 0 when tracking is compiled out.
pub fn acquisitions(rank: Rank) -> u64 {
    ACQUIRED.with(|counts| {
        counts
            .borrow()
            .iter()
            .find(|(order, _)| *order == rank.order)
            .map_or(0, |&(_, n)| n)
    })
}

/// Pops the tracker entry for `addr` when dropped (declared *after* the
/// std guard in each wrapper so the primitive unlocks first).
struct Release {
    addr: usize,
}

impl Drop for Release {
    fn drop(&mut self) {
        track_release(self.addr);
    }
}

/// Maps a std `LockResult` over a guard-wrapping function, preserving
/// poisoning.
fn map_lock_result<G, H>(r: LockResult<G>, f: impl FnOnce(G) -> H) -> LockResult<H> {
    match r {
        Ok(g) => Ok(f(g)),
        Err(p) => Err(PoisonError::new(f(p.into_inner()))),
    }
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// A [`std::sync::Mutex`] with a declared [`Rank`], checked by the
/// lock-order tracker on every acquisition.
pub struct Mutex<T: ?Sized> {
    rank: Rank,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(rank: Rank, value: T) -> Self {
        Mutex {
            rank,
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// As [`std::sync::Mutex::lock`]; additionally panics (never blocks)
    /// if the acquisition violates the workspace lock order or is
    /// re-entrant.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let addr = std::ptr::addr_of!(self.inner) as *const () as usize;
        track_acquire(self.rank, addr);
        map_lock_result(self.inner.lock(), |inner| MutexGuard {
            inner,
            _release: Release { addr },
        })
    }

    /// The declared rank of this lock.
    pub fn rank(&self) -> Rank {
        self.rank
    }
}

impl<T: Default> Mutex<T> {
    /// A ranked mutex around `T::default()`.
    pub fn default_with(rank: Rank) -> Self {
        Mutex::new(rank, T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // Field order matters: the std guard drops (unlocking) before the
    // tracker entry pops.
    inner: std::sync::MutexGuard<'a, T>,
    _release: Release,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

/// A [`std::sync::RwLock`] with a declared [`Rank`], checked by the
/// lock-order tracker on every acquisition (reads and writes alike —
/// a same-thread re-entrant read deadlocks against a queued writer, so
/// it is rejected too).
pub struct RwLock<T: ?Sized> {
    rank: Rank,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(rank: Rank, value: T) -> Self {
        RwLock {
            rank,
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// As [`std::sync::RwLock::read`], with lock-order checking.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        let addr = std::ptr::addr_of!(self.inner) as *const () as usize;
        track_acquire(self.rank, addr);
        map_lock_result(self.inner.read(), |inner| RwLockReadGuard {
            inner,
            _release: Release { addr },
        })
    }

    /// As [`std::sync::RwLock::write`], with lock-order checking.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        let addr = std::ptr::addr_of!(self.inner) as *const () as usize;
        track_acquire(self.rank, addr);
        map_lock_result(self.inner.write(), |inner| RwLockWriteGuard {
            inner,
            _release: Release { addr },
        })
    }

    /// The declared rank of this lock.
    pub fn rank(&self) -> Rank {
        self.rank
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _release: Release,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _release: Release,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const LOW: Rank = Rank::new(1, "test.low");
    const HIGH: Rank = Rank::new(9, "test.high");

    fn panic_message(r: std::thread::Result<()>) -> String {
        let e = r.expect_err("expected a panic");
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn increasing_order_is_allowed() {
        let a = Mutex::new(LOW, 1);
        let b = RwLock::new(HIGH, 2);
        let ga = a.lock().unwrap();
        let gb = b.read().unwrap();
        assert_eq!(*ga + *gb, 3);
        if TRACKING {
            assert_eq!(held_locks(), vec![("test.low", 1), ("test.high", 9)]);
        }
        drop(gb);
        drop(ga);
        assert!(held_locks().is_empty());
    }

    #[test]
    fn acquisitions_count_per_rank_and_thread() {
        const COUNTED: Rank = Rank::new(5, "test.counted");
        let l = RwLock::new(COUNTED, 0);
        let before = acquisitions(COUNTED);
        drop(l.read().unwrap());
        *l.write().unwrap() += 1;
        // Another thread's traffic is not ours.
        std::thread::scope(|s| {
            s.spawn(|| drop(l.read().unwrap()));
        });
        let expected = if TRACKING { 2 } else { 0 };
        assert_eq!(acquisitions(COUNTED) - before, expected);
    }

    #[test]
    fn inversion_panics_naming_both_lock_sets() {
        if !TRACKING {
            return; // tracker compiled out (release without `lock-order`)
        }
        let a = Mutex::new(LOW, ());
        let b = Mutex::new(HIGH, ());
        let gb = b.lock().unwrap();
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _ = a.lock();
        })));
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("test.low"), "{msg}");
        assert!(msg.contains("test.high"), "{msg}");
        assert!(msg.contains("held lock set"), "{msg}");
        drop(gb);
        // The failed acquisition must not have been recorded.
        assert!(held_locks().is_empty());
        // And the lower lock is still acquirable afterwards.
        drop(a.lock().unwrap());
    }

    #[test]
    fn equal_rank_counts_as_inversion() {
        if !TRACKING {
            return; // tracker compiled out (release without `lock-order`)
        }
        let a = Mutex::new(LOW, ());
        let b = Mutex::new(LOW, ());
        let _ga = a.lock().unwrap();
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _ = b.lock();
        })));
        assert!(msg.contains("ranks must strictly increase"), "{msg}");
    }

    #[test]
    fn reentrant_mutex_panics_instead_of_deadlocking() {
        if !TRACKING {
            return; // tracker compiled out (release without `lock-order`)
        }
        let a = Mutex::new(LOW, ());
        let _g = a.lock().unwrap();
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _ = a.lock();
        })));
        assert!(msg.contains("re-entrant acquisition"), "{msg}");
        assert!(msg.contains("test.low"), "{msg}");
    }

    #[test]
    fn reentrant_read_panics() {
        if !TRACKING {
            return; // tracker compiled out (release without `lock-order`)
        }
        let a = RwLock::new(LOW, ());
        let _g = a.read().unwrap();
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _ = a.read();
        })));
        assert!(msg.contains("re-entrant acquisition"), "{msg}");
    }

    #[test]
    fn sequential_reacquisition_is_fine() {
        let a = Mutex::new(LOW, 0);
        for _ in 0..3 {
            *a.lock().unwrap() += 1;
        }
        assert_eq!(*a.lock().unwrap(), 3);
    }

    #[test]
    fn tracking_is_per_thread() {
        let a = std::sync::Arc::new(RwLock::new(LOW, ()));
        let _g = a.read().unwrap();
        let b = std::sync::Arc::clone(&a);
        // Another thread holds nothing, so its acquisition is clean.
        std::thread::spawn(move || {
            let _g = b.read().unwrap();
            if TRACKING {
                assert_eq!(held_locks(), vec![("test.low", 1)]);
            }
        })
        .join()
        .expect("reader thread");
    }

    #[test]
    fn guards_can_drop_out_of_order() {
        let a = Mutex::new(LOW, ());
        let b = Mutex::new(HIGH, ());
        let ga = a.lock().unwrap();
        let gb = b.lock().unwrap();
        drop(ga); // out of acquisition order
        if TRACKING {
            assert_eq!(held_locks(), vec![("test.high", 9)]);
        }
        drop(gb);
        assert!(held_locks().is_empty());
    }

    #[test]
    fn poisoning_propagates_through_the_facade() {
        let a = std::sync::Arc::new(Mutex::new(LOW, 5));
        let b = std::sync::Arc::clone(&a);
        let _ = std::thread::spawn(move || {
            let _g = b.lock().unwrap();
            panic!("poison it");
        })
        .join();
        let v = *a.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(v, 5);
        assert!(held_locks().is_empty());
    }

    #[test]
    fn rank_table_is_strictly_ordered() {
        let table = [
            rank::SERVE_WATCHDOG,
            rank::SERVE_ADMISSION,
            rank::SERVE_SESSIONS,
            rank::SERVE_STREAM,
            rank::SERVE_HEALTH,
            rank::PARTITION,
            rank::FAULT,
            rank::MATCHER_POOL,
            rank::SCORES_SHARD,
            rank::OBS_REGISTRY,
            rank::OBS_TRACE,
        ];
        for w in table.windows(2) {
            assert!(
                w[0].order < w[1].order,
                "{} and {} out of order",
                w[0].name,
                w[1].name
            );
        }
        // Panic messages and DESIGN.md's table identify a lock by name.
        let names: std::collections::HashSet<_> = table.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), table.len(), "two ranks share a name");
    }
}
