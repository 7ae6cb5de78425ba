//! Observability wrapper for baselines: [`Instrumented`] decorates any
//! [`EntityLinker`] with the same metric namespace HER's own engines use,
//! so benchmark comparisons are apples-to-apples — every method reports
//! `baseline.<name>.predictions`, `baseline.<name>.vpair_runs` and the
//! `baseline.<name>.predict_us` latency histogram into one shared
//! [`her_obs::Registry`].

use crate::common::{EntityLinker, LinkContext};
use her_graph::VertexId;
use her_rdb::TupleRef;
use std::sync::Arc;
use std::time::Instant;

/// An [`EntityLinker`] that counts and times every call on its way to the
/// wrapped method. Handles are resolved once at construction, so the
/// per-call overhead is a relaxed atomic bump.
pub struct Instrumented<L> {
    inner: L,
    predictions: Arc<her_obs::Counter>,
    vpair_runs: Arc<her_obs::Counter>,
    trains: Arc<her_obs::Counter>,
    predict_us: Arc<her_obs::Histogram>,
    vpair_us: Arc<her_obs::Histogram>,
}

impl<L: EntityLinker> Instrumented<L> {
    /// Wraps `inner`, registering its metrics (keyed by
    /// [`EntityLinker::name`]) in `obs`'s registry.
    pub fn new(inner: L, obs: &her_obs::Obs) -> Self {
        let name = inner.name();
        let r = &obs.registry;
        Self {
            predictions: r.counter(&format!("baseline.{name}.predictions")),
            vpair_runs: r.counter(&format!("baseline.{name}.vpair_runs")),
            trains: r.counter(&format!("baseline.{name}.trains")),
            predict_us: r.histogram(&format!("baseline.{name}.predict_us")),
            vpair_us: r.histogram(&format!("baseline.{name}.vpair_us")),
            inner,
        }
    }

    /// The wrapped linker.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Unwraps back into the inner linker.
    pub fn into_inner(self) -> L {
        self.inner
    }
}

impl<L: EntityLinker> EntityLinker for Instrumented<L> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn train(&mut self, ctx: &LinkContext<'_>, train: &[(TupleRef, VertexId, bool)]) {
        self.trains.inc();
        self.inner.train(ctx, train);
    }

    fn predict(&self, ctx: &LinkContext<'_>, t: TupleRef, v: VertexId) -> bool {
        let t0 = Instant::now();
        let out = self.inner.predict(ctx, t, v);
        self.predictions.inc();
        self.predict_us.observe(t0.elapsed().as_micros() as u64);
        out
    }

    fn vpair(&self, ctx: &LinkContext<'_>, t: TupleRef) -> Vec<VertexId> {
        // Delegate to the baseline's own (possibly blocked/optimised)
        // scan rather than the trait default, so the wrapper never
        // changes *what* runs — only what gets counted.
        let t0 = Instant::now();
        let out = self.inner.vpair(ctx, t);
        self.vpair_runs.inc();
        self.vpair_us.observe(t0.elapsed().as_micros() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use her_graph::Graph;

    /// A linker with a degenerate rule (every pair matches) and a custom
    /// `vpair` so delegation is observable.
    struct Always;

    impl EntityLinker for Always {
        fn name(&self) -> &'static str {
            "always"
        }
        fn train(&mut self, _: &LinkContext<'_>, _: &[(TupleRef, VertexId, bool)]) {}
        fn predict(&self, _: &LinkContext<'_>, _: TupleRef, _: VertexId) -> bool {
            true
        }
        fn vpair(&self, ctx: &LinkContext<'_>, _: TupleRef) -> Vec<VertexId> {
            // Custom scan: only the first vertex (≠ trait default).
            ctx.g.vertices().take(1).collect()
        }
    }

    fn ctx_fixture() -> (her_rdb::Database, Graph, her_rdb::rdb2rdf::CanonicalGraph, TupleRef)
    {
        use her_rdb::schema::{RelationSchema, Schema};
        use her_rdb::{Database, Tuple, Value};
        let mut s = Schema::new();
        let r = s.add_relation(RelationSchema::new("item", &["name"]));
        let mut db = Database::new(s);
        let t = db.insert(r, Tuple::new(vec![Value::str("x")]));
        let mut b = her_graph::GraphBuilder::new();
        let v = b.add_vertex("item");
        let n = b.add_vertex("x");
        b.add_edge(v, n, "name");
        let (g, gi) = b.build();
        let cg = her_rdb::rdb2rdf::canonicalize_with_interner(&db, gi);
        (db, g, cg, t)
    }

    #[test]
    fn counts_and_delegates() {
        let (db, g, cg, t) = ctx_fixture();
        let ctx = LinkContext {
            db: &db,
            cg: &cg,
            g: &g,
        };
        let obs = her_obs::Obs::new();
        let mut linker = Instrumented::new(Always, &obs);
        linker.train(&ctx, &[]);
        let v = g.vertices().next().expect("fixture has vertices");
        assert!(linker.predict(&ctx, t, v));
        assert!(linker.predict(&ctx, t, v));
        // Delegates to the custom vpair, not the scan-all default.
        assert_eq!(linker.vpair(&ctx, t).len(), 1);
        let snap = obs.registry.snapshot();
        if her_obs::ENABLED {
            assert_eq!(snap.counter("baseline.always.predictions"), 2);
            assert_eq!(snap.counter("baseline.always.vpair_runs"), 1);
            assert_eq!(snap.counter("baseline.always.trains"), 1);
            let h = snap
                .histogram("baseline.always.predict_us")
                .expect("predict_us registered");
            assert_eq!(h.count, 2);
        }
        assert_eq!(linker.name(), "always");
    }
}
