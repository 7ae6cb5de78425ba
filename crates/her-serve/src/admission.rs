//! Admission control: a bounded in-flight gate with a bounded FIFO wait
//! queue and explicit overload shedding.
//!
//! The contract is "never a hang": `acquire` either returns a [`Permit`]
//! (possibly after queueing), or sheds the request — immediately when the
//! queue is full, or when the request's deadline expires while queued.
//! A shed request has consumed no matching work, which is what makes the
//! `Busy` reply safely retryable for *every* request kind, mutations
//! included.
//!
//! The gate is built on the workspace lock facade (`her-sync`, rank
//! `serve.admission`) plus `std::thread::park_timeout` — no condvars, so
//! the lock-order tracker sees every acquisition. Waiters are granted in
//! FIFO order by transferring the releasing permit directly to the queue
//! head (no thundering herd, no barging).

use her_sync::rank;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::Thread;
use std::time::Instant;

const PENDING: u8 = 0;
const GRANTED: u8 = 1;
const ABANDONED: u8 = 2;

struct Waiter {
    id: u64,
    thread: Thread,
    state: Arc<AtomicU8>,
}

#[derive(Default)]
struct State {
    inflight: usize,
    next_waiter: u64,
    waiters: VecDeque<Waiter>,
}

/// Counters the gate reports; mirrored into `serve.*` metrics by the
/// server when an obs handle is attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Requests currently executing.
    pub inflight: usize,
    /// Requests currently queued.
    pub queued: usize,
}

/// Outcome of [`Admission::acquire`].
pub enum Admit<'a> {
    /// Admitted; drop the permit to release the slot.
    Permit(Permit<'a>),
    /// Shed: the queue was full, or the deadline expired while queued.
    /// `queue_depth` is the queue length observed at shed time.
    Busy {
        /// Waiters queued when the request was shed.
        queue_depth: u32,
    },
}

/// The admission gate. One per server; shared by all connection threads.
pub struct Admission {
    state: her_sync::Mutex<State>,
    max_inflight: usize,
    max_queue: usize,
    obs: Option<her_obs::Obs>,
}

impl Admission {
    /// A gate admitting at most `max_inflight` concurrent requests with at
    /// most `max_queue` waiting. `max_inflight = 0` sheds everything —
    /// useful for drills that need a deterministic `Busy`.
    pub fn new(max_inflight: usize, max_queue: usize, obs: Option<her_obs::Obs>) -> Self {
        Admission {
            state: her_sync::Mutex::new(rank::SERVE_ADMISSION, State::default()),
            max_inflight,
            max_queue,
            obs,
        }
    }

    fn lock(&self) -> her_sync::MutexGuard<'_, State> {
        // A waiter panicking while parked cannot poison the lock (it holds
        // it only transiently), but a poisoned gate must keep admitting:
        // the bookkeeping stays consistent because every transition
        // completes under the lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publish(&self, s: &State) {
        if let Some(obs) = &self.obs {
            obs.registry.gauge("serve.inflight").set(s.inflight as f64);
            obs.registry
                .gauge("serve.queue_depth")
                .set(s.waiters.len() as f64);
        }
    }

    fn shed(&self, depth: usize, deadline_missed: bool) -> Admit<'_> {
        if let Some(obs) = &self.obs {
            obs.registry.counter("serve.shed").inc();
            if deadline_missed {
                obs.registry.counter("serve.deadline_misses").inc();
            }
        }
        Admit::Busy {
            queue_depth: depth as u32,
        }
    }

    /// Current gate occupancy.
    pub fn stats(&self) -> GateStats {
        let s = self.lock();
        GateStats {
            inflight: s.inflight,
            queued: s.waiters.len(),
        }
    }

    /// Admits the calling thread, queueing until a slot frees or
    /// `deadline` passes. Returns [`Admit::Busy`] instead of blocking
    /// when the queue is full, and instead of waiting past the deadline.
    pub fn acquire(&self, deadline: Option<Instant>) -> Admit<'_> {
        let (id, state) = {
            let mut s = self.lock();
            if s.inflight < self.max_inflight {
                s.inflight += 1;
                self.publish(&s);
                return Admit::Permit(self.permit());
            }
            if s.waiters.len() >= self.max_queue {
                let depth = s.waiters.len();
                drop(s);
                return self.shed(depth, false);
            }
            let id = s.next_waiter;
            s.next_waiter += 1;
            let state = Arc::new(AtomicU8::new(PENDING));
            s.waiters.push_back(Waiter {
                id,
                thread: std::thread::current(),
                state: Arc::clone(&state),
            });
            self.publish(&s);
            (id, state)
        };

        loop {
            if state.load(Ordering::Acquire) == GRANTED {
                return Admit::Permit(self.permit());
            }
            let now = Instant::now();
            match deadline {
                Some(d) if now >= d => {
                    // Deadline expired while queued. Resolve the race with
                    // a concurrent grant under the lock: a grant observed
                    // here is accepted (the handler will see the expired
                    // deadline and answer with sound partials).
                    let mut s = self.lock();
                    if state.load(Ordering::Acquire) == GRANTED {
                        drop(s);
                        return Admit::Permit(self.permit());
                    }
                    state.store(ABANDONED, Ordering::Release);
                    s.waiters.retain(|w| w.id != id);
                    let depth = s.waiters.len();
                    self.publish(&s);
                    drop(s);
                    return self.shed(depth, true);
                }
                Some(d) => std::thread::park_timeout(d - now),
                None => std::thread::park(),
            }
        }
    }

    fn permit(&self) -> Permit<'_> {
        Permit {
            gate: self,
            released: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Force-releases the slot guarded by `flag` (a permit's
    /// [`Permit::release_flag`]). Used by the watchdog reaper to free an
    /// admission slot whose request is wedged past its reap horizon: the
    /// slot transfers to the queue head immediately, and the stuck
    /// permit's own eventual drop becomes a no-op. Returns true when
    /// this call performed the release (false: already released, either
    /// by a prior reap or because the permit dropped normally first).
    /// The window between a force-release and the wedged request
    /// actually finishing is a deliberate, bounded oversubscription.
    pub fn force_release(&self, flag: &AtomicBool) -> bool {
        self.force_release_many([flag]) == 1
    }

    /// Batched [`Admission::force_release`]: claims every still-held flag
    /// first, then hands all the freed slots over in one
    /// [`Admission::release_many`] wakeup — one lock acquisition and one
    /// unpark sweep when the watchdog reaps (or a shutdown drains)
    /// several wedged requests together. Returns how many releases this
    /// call performed.
    pub fn force_release_many<'f>(
        &self,
        flags: impl IntoIterator<Item = &'f AtomicBool>,
    ) -> usize {
        let won = flags
            .into_iter()
            .filter(|flag| {
                flag.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            })
            .count();
        if won > 0 {
            self.release_many(won);
        }
        won
    }

    /// Hands the freed slot to the queue head, or retires it.
    fn release(&self) {
        self.release_many(1);
    }

    /// Hands `n` freed slots over under a single lock acquisition:
    /// grants up to `n` queued waiters in FIFO order (the in-flight
    /// count transfers with each granted permit, exactly as in the
    /// single-slot path) and retires whatever finds no taker. The
    /// PENDING→GRANTED swap protocol is unchanged — an ABANDONED waiter
    /// is skipped without consuming a slot — and unparks happen only
    /// after the lock drops, so a woken waiter never contends with the
    /// releasing thread's bookkeeping.
    fn release_many(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut granted: Vec<Thread> = Vec::new();
        {
            let mut s = self.lock();
            while granted.len() < n {
                let Some(w) = s.waiters.pop_front() else { break };
                // ABANDONED waiters removed themselves under the lock, so
                // anything still queued is PENDING — but the swap makes
                // the transfer correct even if that invariant ever
                // weakens.
                if w.state.swap(GRANTED, Ordering::AcqRel) == PENDING {
                    granted.push(w.thread);
                }
            }
            s.inflight -= n - granted.len();
            self.publish(&s);
        }
        for t in granted {
            t.unpark();
        }
    }
}

/// An admitted request's slot; dropping it releases the slot (to the
/// queue head first, FIFO) — unless the watchdog already force-released
/// it, in which case the drop is a no-op.
pub struct Permit<'a> {
    gate: &'a Admission,
    released: Arc<AtomicBool>,
}

impl Permit<'_> {
    /// The release flag the watchdog CASes to force-release this slot
    /// ([`Admission::force_release`]); exactly one of {normal drop,
    /// force-release} wins.
    pub fn release_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.released)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if self
            .released
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.gate.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn admits_up_to_capacity_then_sheds() {
        let gate = Admission::new(2, 0, None);
        let p1 = match gate.acquire(None) {
            Admit::Permit(p) => p,
            Admit::Busy { .. } => panic!("slot 1 shed"),
        };
        let p2 = match gate.acquire(None) {
            Admit::Permit(p) => p,
            Admit::Busy { .. } => panic!("slot 2 shed"),
        };
        assert!(matches!(
            gate.acquire(Some(Instant::now())),
            Admit::Busy { queue_depth: 0 }
        ));
        drop(p1);
        let _p3 = match gate.acquire(None) {
            Admit::Permit(p) => p,
            Admit::Busy { .. } => panic!("freed slot not reusable"),
        };
        drop(p2);
        assert_eq!(gate.stats().inflight, 1);
    }

    #[test]
    fn zero_inflight_sheds_everything() {
        let obs = her_obs::Obs::new();
        let gate = Admission::new(0, 0, Some(obs.clone()));
        for _ in 0..3 {
            assert!(matches!(gate.acquire(None), Admit::Busy { .. }));
        }
        assert_eq!(obs.registry.snapshot().counter("serve.shed"), 3);
    }

    #[test]
    fn deadline_in_queue_sheds_instead_of_hanging() {
        let obs = her_obs::Obs::new();
        let gate = Admission::new(1, 4, Some(obs.clone()));
        let _held = match gate.acquire(None) {
            Admit::Permit(p) => p,
            Admit::Busy { .. } => panic!("first acquire shed"),
        };
        let start = Instant::now();
        let r = gate.acquire(Some(Instant::now() + Duration::from_millis(30)));
        assert!(matches!(r, Admit::Busy { .. }));
        assert!(start.elapsed() < Duration::from_secs(5), "queued shed hung");
        assert_eq!(gate.stats().queued, 0, "abandoned waiter left queued");
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counter("serve.shed"), 1);
        assert_eq!(snap.counter("serve.deadline_misses"), 1);
    }

    /// Queued waiters are granted in FIFO order by permit transfer.
    #[test]
    fn queue_grants_fifo() {
        let gate = Arc::new(Admission::new(1, 8, None));
        let order = Arc::new(her_sync::Mutex::new(her_sync::rank::OBS_TRACE, Vec::new()));
        let first = match gate.acquire(None) {
            Admit::Permit(p) => p,
            Admit::Busy { .. } => panic!("shed"),
        };
        let mut handles = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        for i in 0..3usize {
            let gate_t = Arc::clone(&gate);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                match gate_t.acquire(None) {
                    Admit::Permit(_p) => order.lock().unwrap().push(i),
                    Admit::Busy { .. } => panic!("waiter {i} shed"),
                }
            }));
            // Queue entry order is arrival order only if each waiter is
            // observably queued before the next thread starts.
            while gate.stats().queued < i + 1 {
                assert!(Instant::now() < deadline, "waiter {i} never queued");
                std::thread::yield_now();
            }
        }
        drop(first);
        for h in handles {
            h.join().expect("waiter panicked");
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    /// A batched release preserves FIFO order: when three slots retire
    /// together, the grants go to the three *oldest* waiters (in some
    /// interleaving among themselves — they wake concurrently), and the
    /// younger half of the queue only runs after them.
    #[test]
    fn batched_release_preserves_fifo_order() {
        let gate = Arc::new(Admission::new(3, 8, None));
        let order = Arc::new(her_sync::Mutex::new(her_sync::rank::OBS_TRACE, Vec::new()));
        let held: Vec<Permit<'_>> = (0..3)
            .map(|_| match gate.acquire(None) {
                Admit::Permit(p) => p,
                Admit::Busy { .. } => panic!("warm slot shed"),
            })
            .collect();
        let flags: Vec<_> = held.iter().map(|p| p.release_flag()).collect();
        // Grantees hold their permit until the test has inspected the
        // batch, so chained grants cannot race the batch's bookkeeping.
        let hold = Arc::new(AtomicBool::new(true));
        let mut handles = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        for i in 0..6usize {
            let gate_t = Arc::clone(&gate);
            let order = Arc::clone(&order);
            let hold = Arc::clone(&hold);
            handles.push(std::thread::spawn(move || {
                match gate_t.acquire(None) {
                    Admit::Permit(_p) => {
                        order.lock().unwrap().push(i);
                        while hold.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                    Admit::Busy { .. } => panic!("waiter {i} shed"),
                }
            }));
            // Serialize arrival so queue order is the spawn order.
            while gate.stats().queued < i + 1 {
                assert!(Instant::now() < deadline, "waiter {i} never queued");
                std::thread::yield_now();
            }
        }
        // All three slots retire together: one batched wakeup.
        assert_eq!(gate.force_release_many(flags.iter().map(|f| &**f)), 3);
        drop(held); // now no-ops — the batch already claimed the flags
        while order.lock().unwrap().len() < 3 {
            assert!(Instant::now() < deadline, "batch grants never landed");
            std::thread::yield_now();
        }
        let mut head = order.lock().unwrap().clone();
        head.sort();
        assert_eq!(head, vec![0, 1, 2], "batch must grant the oldest waiters");
        hold.store(false, Ordering::Release);
        for h in handles {
            h.join().expect("waiter panicked");
        }
        let got = order.lock().unwrap().clone();
        let mut tail = got[3..].to_vec();
        tail.sort();
        assert_eq!(tail, vec![3, 4, 5], "younger waiters run after the batch");
        let s = gate.stats();
        assert_eq!((s.inflight, s.queued), (0, 0));
    }

    /// A batch larger than the queue retires the excess slots instead of
    /// losing them, and double-claimed flags release nothing twice.
    #[test]
    fn batched_release_retires_slots_without_takers() {
        let gate = Admission::new(3, 8, None);
        let held: Vec<Permit<'_>> = (0..3)
            .map(|_| match gate.acquire(None) {
                Admit::Permit(p) => p,
                Admit::Busy { .. } => panic!("warm slot shed"),
            })
            .collect();
        let flags: Vec<_> = held.iter().map(|p| p.release_flag()).collect();
        assert_eq!(gate.stats().inflight, 3);
        // Empty queue: all three batched releases retire their slots.
        assert_eq!(gate.force_release_many(flags.iter().map(|f| &**f)), 3);
        assert_eq!(gate.stats().inflight, 0);
        // Re-running the batch is a no-op: every flag already claimed.
        assert_eq!(gate.force_release_many(flags.iter().map(|f| &**f)), 0);
        assert_eq!(gate.stats().inflight, 0);
        drop(held);
        assert_eq!(gate.stats().inflight, 0, "permit drops became no-ops");
    }

    /// Hammer the gate from many threads: the in-flight bound holds at
    /// every instant and nothing deadlocks.
    #[test]
    fn concurrent_stress_respects_bound() {
        let gate = Arc::new(Admission::new(3, 64, None));
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..12 {
            let gate = Arc::clone(&gate);
            let live = Arc::clone(&live);
            let peak = Arc::clone(&peak);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    match gate.acquire(None) {
                        Admit::Permit(_p) => {
                            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            live.fetch_sub(1, Ordering::SeqCst);
                        }
                        Admit::Busy { .. } => panic!("queue of 64 overflowed"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("stress thread panicked");
        }
        assert!(peak.load(Ordering::SeqCst) <= 3, "in-flight bound violated");
        let s = gate.stats();
        assert_eq!((s.inflight, s.queued), (0, 0));
    }
}
