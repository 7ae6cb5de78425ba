//! Deterministic fault injection for the BSP engine.
//!
//! A [`FaultPlan`] is a seeded script of failures threaded through
//! [`crate::ParallelConfig`]: worker panics at a chosen superstep, per-pair
//! "poisoned" evaluations that panic once, and a seeded per-worker stream of
//! message fates (deliver / drop / duplicate / delay). The plan is
//! `Clone`-shared across workers: once-only faults (kills, poisons) fire
//! exactly once no matter how many clones observe them.
//!
//! Fault semantics mirror real failure modes and are what the recovery
//! machinery is tested against:
//!
//! - **Kill / poison** → the worker panics; the supervisor catches the
//!   unwind, reassigns the fragment to survivors and replays pending
//!   verification requests. Poisons fire only on the *first* evaluation of
//!   the pair (a transient, data-dependent crash), so the adopting worker
//!   re-evaluates it successfully.
//! - **Drop** → one *send attempt* fails visibly; the transport retries
//!   with bounded backoff, so a dropped attempt delays but never loses a
//!   message. Exhausted retries escalate to a worker panic — i.e. back into
//!   the recovery path.
//! - **Duplicate** → the message is delivered twice. Safe because both
//!   request serving and invalidation are idempotent.
//! - **Delay** → delivery is deferred to the next superstep. Safe because
//!   the fixpoint is order-insensitive (§VI-B Remark 1).
//!
//! Silent permanent loss is not modelled: a BSP run cannot detect it, so
//! every fate here is one the engine recovers from.
//!
//! Recovery/control messages are never faulted; only protocol traffic
//! (requests and invalidations) passes through [`FaultPlan::fate`].

use her_core::paramatch::PairKey;
use her_graph::hash::{FxHashMap, FxHashSet};
use her_sync::{rank, Mutex, MutexGuard};
use std::sync::Arc;

/// What the transport should do with one delivery attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageFate {
    /// Deliver normally.
    Deliver,
    /// Fail this attempt visibly; the sender should retry.
    Drop,
    /// Deliver two copies.
    Duplicate,
    /// Deliver late.
    Delay,
}

/// What has fired so far, shared by every clone of a plan.
#[derive(Debug, Default)]
struct Fired {
    kills: FxHashSet<(usize, usize)>,
    poison: FxHashSet<PairKey>,
    /// Send attempts so far, per worker.
    attempts: FxHashMap<usize, u64>,
}

#[derive(Debug)]
struct State(Mutex<Fired>);

impl Default for State {
    fn default() -> Self {
        State(Mutex::default_with(rank::FAULT))
    }
}

/// A seeded, deterministic script of injected faults. The default plan is
/// inert: no kills, no poisons, every message delivered.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    kills: Vec<(usize, usize)>,
    poisoned: Vec<PairKey>,
    state: Arc<State>,
}

impl FaultPlan {
    /// An inert plan whose message-fate stream is derived from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Schedules worker `worker` to panic at the start of `superstep`
    /// (1-based).
    pub fn kill_worker(mut self, worker: usize, superstep: usize) -> Self {
        self.kills.push((worker, superstep));
        self
    }

    /// Makes the first evaluation of `pair` panic (a transient,
    /// data-dependent crash); later evaluations succeed.
    pub fn poison_pair(mut self, pair: PairKey) -> Self {
        self.poisoned.push(pair);
        self
    }

    /// Probability that a send attempt fails visibly (retried).
    pub fn drop_messages(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Probability that a message is delivered twice.
    pub fn duplicate_messages(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    /// Probability that a message is delivered late.
    pub fn delay_messages(mut self, p: f64) -> Self {
        self.delay_p = p;
        self
    }

    /// True when any fault can fire (lets hot paths skip the hooks).
    pub fn is_armed(&self) -> bool {
        !self.kills.is_empty()
            || !self.poisoned.is_empty()
            || self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.delay_p > 0.0
    }

    /// Panics (once per scheduled entry) if `worker` is scripted to die at
    /// `superstep`.
    pub fn maybe_kill(&self, worker: usize, superstep: usize) {
        if self.kills.contains(&(worker, superstep)) {
            let fresh = self.fired().kills.insert((worker, superstep));
            if fresh {
                panic!("injected fault: worker {worker} killed at superstep {superstep}");
            }
        }
    }

    /// Panics on the first evaluation of a poisoned pair.
    pub fn maybe_poison(&self, pair: PairKey) {
        if self.poisoned.contains(&pair) {
            let fresh = self.fired().poison.insert(pair);
            if fresh {
                panic!("injected fault: poisoned pair {pair:?}");
            }
        }
    }

    /// The fate of `worker`'s next send attempt. Per-worker streams are a
    /// pure function of `(seed, worker, attempt index)`, so a run replayed
    /// with the same plan sees the same fates in the same per-worker order.
    pub fn fate(&self, worker: usize) -> MessageFate {
        if self.drop_p == 0.0 && self.dup_p == 0.0 && self.delay_p == 0.0 {
            return MessageFate::Deliver;
        }
        let attempt = {
            let mut fired = self.fired();
            let c = fired.attempts.entry(worker).or_insert(0);
            *c += 1;
            *c
        };
        let bits = splitmix(
            self.seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(worker as u64 + 1))
                .wrapping_add(attempt),
        );
        let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.drop_p {
            MessageFate::Drop
        } else if u < self.drop_p + self.dup_p {
            MessageFate::Duplicate
        } else if u < self.drop_p + self.dup_p + self.delay_p {
            MessageFate::Delay
        } else {
            MessageFate::Deliver
        }
    }

    fn fired(&self) -> MutexGuard<'_, Fired> {
        self.state
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use her_graph::VertexId;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_armed());
        plan.maybe_kill(0, 1);
        plan.maybe_poison((VertexId(0), VertexId(1)));
        for w in 0..4 {
            for _ in 0..100 {
                assert_eq!(plan.fate(w), MessageFate::Deliver);
            }
        }
    }

    #[test]
    fn kill_fires_exactly_once_across_clones() {
        let plan = FaultPlan::seeded(7).kill_worker(2, 3);
        let copy = plan.clone();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| copy.maybe_kill(2, 3)));
        assert!(caught.is_err(), "first observation must panic");
        // The original clone shares the fired-flag: no second panic.
        plan.maybe_kill(2, 3);
        plan.maybe_kill(0, 3); // unscripted worker unaffected
    }

    #[test]
    fn poison_fires_once_then_clears() {
        let pair = (VertexId(4), VertexId(9));
        let plan = FaultPlan::seeded(1).poison_pair(pair);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.maybe_poison(pair)));
        assert!(caught.is_err());
        plan.maybe_poison(pair); // transient: second evaluation succeeds
    }

    #[test]
    fn fate_stream_is_seed_deterministic() {
        let stream = |seed| {
            let plan = FaultPlan::seeded(seed)
                .drop_messages(0.2)
                .duplicate_messages(0.2)
                .delay_messages(0.2);
            (0..64).map(|_| plan.fate(1)).collect::<Vec<_>>()
        };
        assert_eq!(stream(42), stream(42));
        assert_ne!(stream(42), stream(43), "different seeds should diverge");
        let mix = stream(42);
        assert!(mix.contains(&MessageFate::Deliver));
        assert!(mix.contains(&MessageFate::Drop));
        assert!(mix.contains(&MessageFate::Duplicate));
        assert!(mix.contains(&MessageFate::Delay));
    }
}
