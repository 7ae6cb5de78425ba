//! Warm-matcher checkout/checkin pool for the serving path.
//!
//! A [`crate::paramatch::Matcher`] accumulates state worth keeping —
//! the verdict `cache`, the lineage reverse-dependency index, the
//! top-k selections and the private score pair memo — yet the serving path historically built a fresh
//! matcher per request and threw all of it away. [`MatcherPool`] keeps
//! a bounded free list of warm matchers: a request checks one out
//! ([`MatcherPool::checkout`]), runs under a fresh budget/cancel/ctx
//! ([`crate::paramatch::Matcher::rearm`]), and checks it back in so the
//! next request inherits the verdicts.
//!
//! Coherence rides on the existing [`SharedScores`] generation
//! protocol: `learn`/`refine` bump the shared generation, a checked-out
//! matcher reconciles lazily at its next query entry point (dropping
//! its derived caches, pair memo included), and the pool *counts* that reconciliation as a
//! rebuild by comparing generations at checkout. Results are therefore
//! bit-identical to fresh-matcher serving — pooling is pure reuse.
//!
//! The free list sits behind a `core.matcher_pool`-ranked lock held
//! only for a pop/push; matchers are moved out before any matching (and
//! the `core.scores_shard` locks its cold reads take) begins.
//!
//! [`SharedScores`]: crate::shared_scores::SharedScores

use crate::her::Her;
use crate::paramatch::{Budget, CancelToken, Matcher, MatcherOptions};
use her_sync::rank;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;

/// What one checkout cost: whether a warm matcher was reused and
/// whether its caches were (or are about to be) dropped because the
/// shared-score generation moved underneath it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolTicket {
    /// A warm matcher was reused (false: the pool was empty and a
    /// fresh matcher was built).
    pub hit: bool,
    /// The reused matcher's caches were stale against the current
    /// [`crate::shared_scores::SharedScores`] generation and will be
    /// rebuilt at its next query entry point.
    pub rebuilt: bool,
    /// Microseconds spent obtaining a ready matcher — free-list lock
    /// wait plus re-arm (hit) or fresh build (miss). The serving path
    /// files this as the flight record's `pool_wait_us`.
    pub wait_us: u64,
}

/// A bounded free list of warm matchers over one [`Her`].
///
/// Thread-safe: checkout/checkin from any handler thread. Counters are
/// mirrored into `scores.pool.{hits,misses,rebuilds}` when an
/// observability handle is attached.
pub struct MatcherPool<'h> {
    her: &'h Her,
    slots: her_sync::Mutex<Vec<Matcher<'h>>>,
    cap: usize,
    obs: Option<her_obs::Obs>,
    hits: AtomicU64,
    misses: AtomicU64,
    rebuilds: AtomicU64,
}

impl<'h> MatcherPool<'h> {
    /// An empty pool retaining at most `cap` idle matchers (checkins
    /// beyond the cap drop the matcher; `cap` is typically the server's
    /// `max_inflight`, so one warm matcher per concurrent request).
    pub fn new(her: &'h Her, cap: usize) -> Self {
        MatcherPool {
            her,
            slots: her_sync::Mutex::new(rank::MATCHER_POOL, Vec::with_capacity(cap)),
            cap,
            obs: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
        }
    }

    /// Attaches an observability handle: pool counters mirror into the
    /// registry, and pooled matchers are built instrumented.
    pub fn with_obs(mut self, obs: her_obs::Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    fn lock(&self) -> her_sync::MutexGuard<'_, Vec<Matcher<'h>>> {
        // A panicking request cannot poison the free list into
        // uselessness: the list only ever holds checked-in matchers,
        // which are valid by construction.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks a matcher out: a warm one re-armed for this request when
    /// available, else a fresh build. The ticket says which.
    pub fn checkout(
        &self,
        budget: Budget,
        cancel: CancelToken,
        ctx: her_obs::ReqCtx,
    ) -> (Matcher<'h>, PoolTicket) {
        #[allow(clippy::disallowed_methods, reason = "times the pool wait; not a replay path")]
        let started = std::time::Instant::now();
        let wait_us = move || started.elapsed().as_micros() as u64;
        let warm = self.lock().pop();
        match warm {
            Some(mut m) => {
                // This read only *counts* the upcoming rebuild; the
                // matcher itself still reconciles at its next declared
                // query entry point, exactly as it would unpooled.
                let rebuilt = self
                    .her
                    .shared_scores
                    .as_ref()
                    .is_some_and(|s| s.generation() != m.scores_generation());
                m.rearm(budget, cancel, ctx);
                self.hits.fetch_add(1, Ordering::Relaxed);
                if rebuilt {
                    self.rebuilds.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(obs) = &self.obs {
                    obs.registry.counter("scores.pool.hits").inc();
                    if rebuilt {
                        obs.registry.counter("scores.pool.rebuilds").inc();
                    }
                }
                (
                    m,
                    PoolTicket {
                        hit: true,
                        rebuilt,
                        wait_us: wait_us(),
                    },
                )
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    obs.registry.counter("scores.pool.misses").inc();
                }
                let m = self.her.matcher_with(MatcherOptions {
                    budget,
                    cancel,
                    ctx,
                    obs: self.obs.clone(),
                    ..MatcherOptions::default()
                });
                (
                    m,
                    PoolTicket {
                        wait_us: wait_us(),
                        ..PoolTicket::default()
                    },
                )
            }
        }
    }

    /// Returns a matcher to the free list (dropped when the pool is at
    /// capacity). Check in every matcher you check out — a matcher lost
    /// to a panic is safe (the pool just refills with a miss) but
    /// wastes its warmth.
    pub fn checkin(&self, m: Matcher<'h>) {
        let mut slots = self.lock();
        if slots.len() < self.cap {
            slots.push(m);
        }
    }

    /// Checkout, run `f`, checkin; returns `f`'s result and the
    /// checkout ticket. On panic the matcher is dropped, not poisoned
    /// back into the pool.
    pub fn run<R>(
        &self,
        budget: Budget,
        cancel: CancelToken,
        ctx: her_obs::ReqCtx,
        f: impl FnOnce(&mut Matcher<'h>) -> R,
    ) -> (R, PoolTicket) {
        let (mut m, ticket) = self.checkout(budget, cancel, ctx);
        let out = f(&mut m);
        self.checkin(m);
        (out, ticket)
    }

    /// Checkouts served by a warm matcher.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Checkouts that had to build a fresh matcher.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Warm checkouts whose caches were generation-stale (a
    /// `learn`/`refine` landed since the matcher was last used).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Idle matchers currently pooled.
    pub fn idle(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::her::HerConfig;
    use crate::params::Thresholds;
    use her_rdb::schema::{RelationSchema, Schema};
    use her_rdb::tuple::Tuple;
    use her_rdb::value::Value;
    use her_rdb::Database;
    use her_graph::GraphBuilder;

    fn fixture() -> (Her, her_rdb::TupleRef) {
        let mut s = Schema::new();
        let item = s.add_relation(RelationSchema::new("item", &["name", "color"]));
        let mut db = Database::new(s);
        let t = db.insert(
            item,
            Tuple::new(vec![Value::str("Dame Shoes"), Value::str("white")]),
        );
        let mut b = GraphBuilder::new();
        let v = b.add_vertex("item");
        let vn = b.add_vertex("Dame Shoes");
        let vc = b.add_vertex("white");
        b.add_edge(v, vn, "name");
        b.add_edge(v, vc, "hasColor");
        let (g, i) = b.build();
        let cfg = HerConfig {
            thresholds: Thresholds::new(0.9, 0.05, 5),
            use_blocking: false,
            ..Default::default()
        };
        (Her::build(&db, g, i, &cfg), t)
    }

    #[test]
    fn checkout_reuses_warm_matchers_and_counts() {
        let (her, t) = fixture();
        let pool = MatcherPool::new(&her, 2);
        let expect = her.vpair(t);
        for round in 0..4 {
            let (run, _) = pool.run(Budget::unlimited(), CancelToken::new(), her_obs::ReqCtx::NONE, |m| her.vpair_with(m, t));
            assert_eq!(run.matches, expect, "round {round} diverged");
            assert!(run.is_complete());
        }
        assert_eq!(pool.misses(), 1, "only the first checkout builds");
        assert_eq!(pool.hits(), 3);
        assert_eq!(pool.rebuilds(), 0, "no generation bump, no rebuilds");
        assert_eq!(pool.idle(), 1);
    }

    /// Pooled per-request stats are the request's own spend: a fully
    /// warm repeat run reports zero fresh `ParaMatch` calls, all cache
    /// hits — while a fresh matcher would re-verify from scratch.
    #[test]
    fn pooled_stats_are_per_request_deltas() {
        let (her, t) = fixture();
        let pool = MatcherPool::new(&her, 2);
        let (first, _) = pool.run(Budget::unlimited(), CancelToken::new(), her_obs::ReqCtx::NONE, |m| her.vpair_with(m, t));
        assert!(first.stats.calls > 0, "cold run does real work");
        let (second, _) = pool.run(Budget::unlimited(), CancelToken::new(), her_obs::ReqCtx::NONE, |m| her.vpair_with(m, t));
        assert_eq!(second.stats.calls, 0, "warm repeat is fully cached");
        assert!(second.stats.cache_hits > 0);
    }

    /// A `refine` bumps the shared-score generation; the next checkout
    /// counts a rebuild and the matcher re-verifies correctly.
    #[test]
    fn generation_bump_invalidates_warm_matchers() {
        let (mut her, t) = fixture();
        let expect = her.vpair(t);
        {
            let pool = MatcherPool::new(&her, 2);
            let _ = pool.run(Budget::unlimited(), CancelToken::new(), her_obs::ReqCtx::NONE, |m| her.vpair_with(m, t));
            assert_eq!(pool.rebuilds(), 0);
        }
        // Refine with a confirming annotation: results stay the same,
        // but the generation moves.
        let v = expect[0];
        her.refine(&[(t, v, true)], &crate::refine::RefineConfig::default());
        let pool = MatcherPool::new(&her, 2);
        let _ = pool.run(Budget::unlimited(), CancelToken::new(), her_obs::ReqCtx::NONE, |m| her.vpair_with(m, t));
        let (warm, _) = pool.run(Budget::unlimited(), CancelToken::new(), her_obs::ReqCtx::NONE, |m| her.vpair_with(m, t));
        assert_eq!(warm.matches, her.vpair(t));
        // Invalidate between checkin and the next checkout: the pool
        // must see the stale generation and count the rebuild.
        her.shared_scores.as_ref().expect("shared on").invalidate();
        let (after, _) = pool.run(Budget::unlimited(), CancelToken::new(), her_obs::ReqCtx::NONE, |m| her.vpair_with(m, t));
        assert_eq!(after.matches, her.vpair(t), "rebuild preserves results");
        assert_eq!(pool.rebuilds(), 1, "stale checkout counted as rebuild");
    }

    /// A concurrent vpair storm over a warmed pool: every request after
    /// warmup reuses a warm matcher (hits climb, zero rebuilds — no
    /// generation bump happened) and every thread sees the reference
    /// answer.
    #[test]
    fn concurrent_vpair_storm_reuses_warm_matchers() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 16;
        let (her, t) = fixture();
        let expect = her.vpair(t);
        let pool = MatcherPool::new(&her, THREADS);
        // Warm up: one matcher per storm thread, checked out together so
        // the free list actually holds THREADS warm matchers.
        let warm: Vec<_> = (0..THREADS)
            .map(|_| {
                pool.checkout(Budget::unlimited(), CancelToken::new(), her_obs::ReqCtx::NONE)
                    .0
            })
            .collect();
        for mut m in warm {
            // Prime the verdict caches before checkin, as a served
            // request would.
            let run = crate::vpair::try_vpair(&mut m, her.cg.vertex_of(t), her.index.as_ref());
            assert_eq!(run.matches, expect);
            pool.checkin(m);
        }
        let warmup_misses = pool.misses();
        assert_eq!(warmup_misses, THREADS as u64);

        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        let (run, ticket) = pool.run(
                            Budget::unlimited(),
                            CancelToken::new(),
                            her_obs::ReqCtx::NONE,
                            |m| her.vpair_with(m, t),
                        );
                        assert_eq!(run.matches, expect);
                        assert!(ticket.hit, "storm checkout missed a warm matcher");
                    }
                });
            }
        });

        assert_eq!(pool.misses(), warmup_misses, "storm built fresh matchers");
        assert_eq!(pool.hits(), (THREADS * ROUNDS) as u64);
        assert_eq!(pool.rebuilds(), 0, "no generation bump, no rebuilds");
        assert_eq!(pool.idle(), THREADS);
    }

    /// The pool cap bounds the free list; excess checkins drop.
    #[test]
    fn checkin_respects_capacity() {
        let (her, _t) = fixture();
        let pool = MatcherPool::new(&her, 1);
        let (a, _) = pool.checkout(Budget::unlimited(), CancelToken::new(), her_obs::ReqCtx::NONE);
        let (b, _) = pool.checkout(Budget::unlimited(), CancelToken::new(), her_obs::ReqCtx::NONE);
        pool.checkin(a);
        pool.checkin(b);
        assert_eq!(pool.idle(), 1, "cap of 1 holds");
        assert_eq!(pool.misses(), 2);
    }
}
