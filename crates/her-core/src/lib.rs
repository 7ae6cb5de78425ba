//! Parametric simulation and the HER system (the paper's primary
//! contribution, §III–§VI).
//!
//! Given the canonical graph `G_D` of a database `D` and a data graph `G`
//! over a shared label space, this crate decides entity matches by
//! **parametric simulation**: `(u₀, v₀)` match iff their labels are close
//! (`h_v ≥ σ`) and, recursively, some partial injective *lineage set* over
//! their top-k important descendants accumulates association score
//! `Σ h_ρ ≥ δ`. The modules:
//!
//! - [`params`]: the parameter bundle `(h_v, h_ρ, h_r, σ, δ, k)`;
//! - [`scores`]: the private, lock-free pair memo each matcher's hot loop
//!   reads `h_v`/`h_ρ` from;
//! - [`shared_scores`]: the thread-safe sharded layer behind it that one
//!   process shares across all matchers (sequential facade, BSP
//!   workers), keeping embeddings and encodings exactly-once;
//! - [`paramatch`]: algorithm `ParaMatch` (Fig. 4) — quadratic-time match
//!   checking with `cache`/`ecache`, sorted candidate lists, `MaxSco` early
//!   termination and the cleanup stage (module SPair);
//! - [`vpair`] / [`apair`]: `VParaMatch` and `AllParaMatch` (§VI-A);
//! - [`schema_match`]: schema matches `Γ(u_t, v_g)` (appendix D);
//! - [`index`]: inverted-index blocking for candidate generation;
//! - [`learn`]: random search for `(σ, δ, k)` and training-pair derivation;
//! - [`refine`]: the user-feedback loop with majority voting (§IV);
//! - [`metrics`]: precision / recall / F-measure;
//! - [`stream`]: incremental / pay-as-you-go linking (§VI-B remark 2),
//!   with a WAL-journaled [`stream::DurableStreamLinker`];
//! - [`pool`]: the warm-matcher checkout/checkin pool the serving path
//!   uses to reuse verdict caches across requests;
//! - [`checkpoint`]: serializable [`Matcher`] state for the durability
//!   layer (`her-store`);
//! - [`her`]: the [`her::Her`] facade exposing SPair, VPair and APair.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
/// Synchronization facade: ranked `Mutex`/`RwLock` wrappers with a runtime
/// lock-order and re-entrancy tracker (see the `her-sync` crate). All
/// workspace locks go through this module; the workspace `clippy.toml`
/// disallows the raw `std::sync` locks outside it.
pub use her_sync as sync;

pub mod apair;
pub mod checkpoint;
pub mod her;
pub mod index;
pub mod learn;
pub mod maximal;
pub mod metrics;
pub mod paramatch;
pub mod params;
pub mod pool;
pub mod refine;
pub mod schema_match;
pub mod scores;
pub mod shared_scores;
pub mod stream;
pub mod vpair;

pub use checkpoint::MatcherCheckpoint;
pub use her::{Her, HerConfig};
pub use paramatch::{
    Budget, CancelToken, ExhaustReason, Matcher, MatcherOptions, Outcome,
};
pub use params::{Params, Thresholds};
pub use pool::{MatcherPool, PoolTicket};
pub use shared_scores::SharedScores;
pub use stream::{DurableStreamLinker, StreamCheckpoint, StreamLinker, StreamOp};
pub use vpair::VpairRun;
