//! GRAPE-style parallel engine for HER (§VI-B).
//!
//! Parallelises `AllParaMatch` under the Bulk Synchronous Parallel model:
//! the data graph `G` is edge-cut across `n` workers ([`partition`], with
//! round-robin and greedy balanced edge-cut strategies); each worker
//! verifies the candidate pairs whose `G`-side vertex it owns,
//! optimistically assuming matches for *border* vertices owned elsewhere
//! (PPSim); supersteps exchange verification requests and invalidations
//! until a fixpoint (IncPSim) — computed by [`pallmatch()`]. The final
//! match set is the union of local results. This is the crate's only
//! engine: the barrier-free variant of §VI-B Remark 1 is not implemented
//! (DESIGN.md §4b records the measurement behind that).
//!
//! Implementation notes relative to the paper (DESIGN.md §4b):
//!
//! - `G_D` is replicated rather than fragmented — the canonical graph is
//!   the small "pattern side", and replication is the shared-memory
//!   analogue of the paper's co-location of candidate pairs;
//! - the `h_r` top-k selections are a global preprocessing pass shared
//!   read-only by all workers, so descendant rankings cannot diverge at
//!   fragment borders (this is what makes Theorem 3's equivalence with the
//!   sequential algorithm hold);
//! - on hosts with fewer cores than workers,
//!   [`ParallelConfig::simulate_cluster`] executes workers sequentially
//!   and reports the BSP critical path as the simulated cluster
//!   wall-clock.
//!
//! # Failure model and worker recovery
//!
//! The engine tolerates worker loss (a panic inside a superstep, caught
//! with `catch_unwind`). Recovery reassigns the dead worker's vertices to
//! survivors ([`SharedPartition::reassign`]),
//! the new owners *adopt* them (`Matcher::adopt_border`: the vertices
//! leave the border set and every cached verdict leaning on assumptions
//! about them is purged and re-verified authoritatively), the dead
//! worker's candidate roots are re-evaluated by the adopters, and every
//! pending verification request addressed to the dead worker is replayed.
//!
//! **Why replay is safe.** The protocol's only cross-worker state change
//! is assumption invalidation, and it is *monotone*: a pair flips
//! `true → false` at most once, at its owner, and never back (§VI-B
//! Remark 1). The fixpoint of equations (3)/(4) is therefore unique and
//! independent of message order, duplication, and of *which* worker
//! verifies a pair — verification is a deterministic function of the
//! (replicated) graphs. Re-verifying a pair the dead worker had already
//! served can only reproduce the same verdict; re-sending a request can
//! only trigger an idempotent re-verification; re-delivering an
//! invalidation is absorbed by the IncPSim cleanup, which is itself
//! idempotent. Hence any interleaving of deaths, adoptions and replays
//! converges to the same match set as the failure-free sequential run.
//!
//! Deterministic fault injection for testing this machinery lives in
//! [`fault`]; budgets and cancellation for graceful degradation live in
//! `her_core::paramatch` (`Budget`, `CancelToken`).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod bsp;
pub mod fault;
pub mod pallmatch;
pub mod partition;

pub use fault::{FaultPlan, MessageFate};
pub use pallmatch::{
    pallmatch, pallmatch_durable, pvpair, DurabilityConfig, DurableRun, ParallelConfig,
    ParallelStats,
};
pub use partition::{
    cut_edges, partition_greedy, partition_round_robin, Partition, SharedPartition,
};
