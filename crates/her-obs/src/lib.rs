//! # her-obs — observability for the HER matching stack
//!
//! Zero-dependency tracing + metrics, threaded through every execution
//! layer (`her-core`'s ParaMatch recursion, `her-parallel`'s BSP
//! engine, the baselines, the server, the CLI, and `her-benchmark`).
//!
//! Three pieces:
//!
//! - **Metrics** ([`metrics`]): lock-free [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s, named in a [`Registry`] and exported
//!   as a JSON [`Snapshot`]. Hot-path mutation is a single relaxed
//!   atomic op; handles are resolved once at construction time.
//! - **Tracing** ([`trace`]): hierarchical spans with monotonic µs
//!   timings plus point events (faults, recoveries, budget
//!   exhaustion) in a bounded ring buffer — see [`Tracer`]. Spans and
//!   events can be tagged with a request-scoped [`ReqCtx`] ([`ctx`]),
//!   minted at the serving path's admission gate, so one request's
//!   breakdown is reconstructable from the shared log.
//! - **Flight recorder** ([`flight`]): a lock-free seqlock ring of
//!   per-request [`FlightRecord`]s (queue wait, exec time, budget
//!   spend, hits, faults) with rolling-p99 anomaly classification.
//! - **Logging** ([`log`]): process-wide leveled stderr diagnostics
//!   behind the [`info!`]/[`debug!`]/[`warn!`] macros.
//!
//! One [`Obs`] handle bundles a shared registry and tracer; cloning it
//! shares the underlying instruments, which is how parallel workers
//! aggregate into a single snapshot.
//!
//! ## Compile-time removal
//!
//! Everything is gated on the `enabled` cargo feature (on by default).
//! With `--no-default-features`, [`ENABLED`] is `false` and every
//! mutation const-folds to a no-op — the API stays, so instrumented
//! code compiles unchanged with zero runtime overhead.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod names;
pub mod ctx;
pub mod flight;
pub mod json;
pub mod log;
pub mod metrics;
pub mod trace;

pub use ctx::ReqCtx;
pub use flight::{FlightRecord, FlightRecorder, FLIGHT_CAPACITY};
pub use metrics::{Counter, Gauge, HistSnapshot, Histogram, Registry, Snapshot};
pub use trace::{Event, EventKind, SpanGuard, Tracer};

use std::sync::Arc;

/// `true` iff the `enabled` feature is on; all instrumentation
/// branches on this `const`, so disabled builds optimize it away.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// A bundle of one shared [`Registry`] and one shared [`Tracer`] —
/// the handle the rest of the workspace passes around (e.g. in
/// `MatcherOptions::obs` and `ParallelConfig::obs`). Cloning shares
/// both, so all holders feed the same snapshot.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    pub registry: Arc<Registry>,
    pub tracer: Tracer,
}

impl Obs {
    pub fn new() -> Self {
        Obs::default()
    }

    /// Shorthand for `self.registry.snapshot()`.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_clones_share_instruments() {
        let obs = Obs::new();
        let other = obs.clone();
        other.registry.counter("shared").add(3);
        obs.tracer.event("ping", "");
        assert_eq!(obs.snapshot().counter("shared"), if ENABLED { 3 } else { 0 });
        assert_eq!(other.tracer.len(), if ENABLED { 1 } else { 0 });
    }

    /// The suite passes with `--no-default-features` too: this test
    /// (and the per-module ones) assert the no-op behaviour when
    /// `ENABLED` is false, proving disabled builds stay green.
    #[test]
    fn disabled_builds_are_inert() {
        let obs = Obs::new();
        obs.registry.counter("c").inc();
        obs.registry.gauge("g").set(2.5);
        obs.registry.histogram("h").observe(7);
        {
            let _span = obs.tracer.span("s");
        }
        let snap = obs.snapshot();
        if !ENABLED {
            assert_eq!(snap.counter("c"), 0);
            assert_eq!(snap.gauge("g"), 0.0);
            assert_eq!(snap.histogram("h").map(|h| h.count), Some(0));
            assert!(obs.tracer.is_empty());
        }
        // JSON export works either way.
        assert!(snap.to_json().contains("counters"));
    }
}
