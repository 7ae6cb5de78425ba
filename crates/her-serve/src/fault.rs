//! Seeded connection-level fault injection.
//!
//! Extends the workspace's fault-plan idiom (`her-parallel::fault`) to the
//! service transport: a [`FaultPlan`] decides, deterministically from a
//! seed and the connection's id, the *fate* of each reply the server
//! writes — deliver, drop (the client sees a read timeout), delay,
//! truncate mid-frame then close (a torn message), garble one payload
//! byte (a corrupt message), or kill the connection before replying.
//!
//! Faults live strictly on the reply path: state transitions (journaled
//! stream ops) happen before the fate roll, exactly like a real crash
//! window between commit and acknowledgement. Integration tests drive the
//! plan to prove the contract: every request either returns a correct (or
//! sound-partial) answer or a taxonomized error — never a hang, never a
//! silently wrong answer.

use crate::backoff::xorshift64_star;
use std::time::Duration;

/// What happens to one server reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyFate {
    /// Write the frame normally.
    Deliver,
    /// Write nothing; keep the connection open (client times out).
    Drop,
    /// Write after a pause.
    Delay(Duration),
    /// Write a strict prefix of the frame, then close (torn message).
    Truncate,
    /// Flip one payload byte (corrupt message), keep the connection.
    Garble,
    /// Close the connection without writing anything.
    Kill,
}

/// A deterministic, seeded plan over all connections. `*_1_in = n` means
/// "roll a fault on average once per `n` replies" (`0` disables that
/// fault). The same seed and connection id always produce the same fate
/// sequence, so failures reproduce exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Base seed mixed into every connection's stream.
    pub seed: u64,
    /// Drop-fate frequency.
    pub drop_1_in: u64,
    /// Delay-fate frequency.
    pub delay_1_in: u64,
    /// Pause applied by a delay fate, in milliseconds.
    pub delay_ms: u64,
    /// Truncate-fate frequency.
    pub truncate_1_in: u64,
    /// Garble-fate frequency.
    pub garble_1_in: u64,
    /// Kill-fate frequency.
    pub kill_1_in: u64,
}

impl FaultPlan {
    /// A plan exercising every fault kind at moderate frequency — the
    /// configuration the her-serve integration tests use.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_1_in: 7,
            delay_1_in: 5,
            delay_ms: 10,
            truncate_1_in: 8,
            garble_1_in: 9,
            kill_1_in: 11,
        }
    }

    /// True when every fault is disabled.
    pub fn is_inert(&self) -> bool {
        self.drop_1_in == 0
            && self.delay_1_in == 0
            && self.truncate_1_in == 0
            && self.garble_1_in == 0
            && self.kill_1_in == 0
    }

    /// The fate stream for connection `conn_id`.
    pub fn conn(&self, conn_id: u64) -> ConnFaults {
        ConnFaults {
            plan: *self,
            rng: mix(self.seed, conn_id) | 1,
        }
    }
}

/// SplitMix64-style finalizer: decorrelates (seed, conn) pairs so nearby
/// connection ids do not share fate prefixes.
fn mix(seed: u64, conn: u64) -> u64 {
    let mut z = seed ^ conn.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-connection fate stream (see [`FaultPlan::conn`]).
pub struct ConnFaults {
    plan: FaultPlan,
    /// xorshift64* state, odd for a full-period stream.
    rng: u64,
}

impl ConnFaults {
    fn one_in(&mut self, n: u64) -> bool {
        n != 0 && xorshift64_star(&mut self.rng).is_multiple_of(n)
    }

    /// Rolls the fate of the next reply. Fault kinds are checked in a
    /// fixed order, so at most one fires per reply.
    pub fn fate(&mut self) -> ReplyFate {
        if self.one_in(self.plan.kill_1_in) {
            ReplyFate::Kill
        } else if self.one_in(self.plan.truncate_1_in) {
            ReplyFate::Truncate
        } else if self.one_in(self.plan.garble_1_in) {
            ReplyFate::Garble
        } else if self.one_in(self.plan.drop_1_in) {
            ReplyFate::Drop
        } else if self.one_in(self.plan.delay_1_in) {
            ReplyFate::Delay(Duration::from_millis(self.plan.delay_ms))
        } else {
            ReplyFate::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_always_delivers() {
        let mut c = FaultPlan::default().conn(0);
        for _ in 0..100 {
            assert_eq!(c.fate(), ReplyFate::Deliver);
        }
    }

    #[test]
    fn same_seed_same_connection_same_fates() {
        let plan = FaultPlan::chaos(42);
        let fates = |conn: u64| -> Vec<ReplyFate> {
            let mut c = plan.conn(conn);
            (0..64).map(|_| c.fate()).collect()
        };
        assert_eq!(fates(3), fates(3), "not reproducible");
        assert_ne!(fates(3), fates(4), "connections share a fate stream");
    }

    /// The first fates of one chaos connection, pinned: the generator
    /// behind them is shared with the client's backoff jitter, and
    /// neither stream may move.
    #[test]
    fn chaos_fates_are_pinned() {
        let mut c = FaultPlan::chaos(42).conn(3);
        let fates: Vec<String> = (0..16).map(|_| format!("{:?}", c.fate())).collect();
        assert_eq!(
            fates.join(" "),
            "Delay(10ms) Deliver Deliver Deliver Delay(10ms) Deliver Deliver Kill \
             Deliver Deliver Truncate Deliver Deliver Delay(10ms) Deliver Drop"
        );
    }

    #[test]
    fn chaos_plan_exercises_every_fate() {
        let plan = FaultPlan::chaos(7);
        let mut seen = std::collections::BTreeSet::new();
        for conn in 0..32u64 {
            let mut c = plan.conn(conn);
            for _ in 0..64 {
                seen.insert(match c.fate() {
                    ReplyFate::Deliver => 0u8,
                    ReplyFate::Drop => 1,
                    ReplyFate::Delay(_) => 2,
                    ReplyFate::Truncate => 3,
                    ReplyFate::Garble => 4,
                    ReplyFate::Kill => 5,
                });
            }
        }
        assert_eq!(seen.len(), 6, "some fate never rolled");
    }
}
