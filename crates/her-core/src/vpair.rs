//! Algorithm `VParaMatch` (Fig. 5, §VI-A): all vertex matches of one tuple.
//!
//! Given the vertex `u_t` of `G_D` denoting a tuple `t`, computes
//! `Π(u_t) = {(u_t, v) | v ∈ G, (u_t, v) matches}`. The algorithm:
//!
//! 1. generates candidates `v` with `h_v(u_t, v) ≥ σ` that the first
//!    `MaxSco` bound does not already rule out — from the pool of the
//!    inverted-index blocking when available, else from all of `V`;
//! 2. sorts candidates by increasing vertex degree (cheap candidates are
//!    resolved first, seeding `cache` for the expensive ones);
//! 3. verifies each candidate, reusing cached verdicts before calling
//!    `ParaMatch`.

use crate::index::InvertedIndex;
use crate::paramatch::{ExhaustReason, MatchStats, Matcher, Outcome};
use her_graph::VertexId;

/// Result of a budget-aware VPair run (see [`try_vpair`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VpairRun {
    /// Vertices confirmed matched, ascending. Sound even when the run was
    /// cut short: exhaustion never converts an undecided pair into a
    /// verdict.
    pub matches: Vec<VertexId>,
    /// Candidates left undecided because the budget ran out, ascending.
    pub unresolved: Vec<VertexId>,
    /// Why the run stopped early, if it did.
    pub exhausted: Option<ExhaustReason>,
    /// The run's own spend: the matcher's counters diffed against its
    /// counters at entry, so a reused or pooled matcher reports this
    /// run alone (what the serving path files in the flight record).
    pub stats: MatchStats,
}

impl VpairRun {
    /// True when every candidate was decided.
    pub fn is_complete(&self) -> bool {
        self.exhausted.is_none()
    }
}

/// Generates the candidate set for `u_t`: the vertices of `G` — of
/// `index`'s pool for `u_t` when provided — that could still match,
/// ascending. With `C(u_t)` the pool ∩ `h_v ≥ σ` and `S(u_t)` its
/// members whose first `MaxSco` bound reaches δ, the result `C′`
/// satisfies `S ⊆ C′ ⊆ C` ([`Matcher::viable`]): a vertex left out
/// would have been rejected by `ParaMatch` before recursing, so it is
/// never enumerated, sorted, called on or remembered.
pub fn candidates(
    matcher: &mut Matcher<'_>,
    u_t: VertexId,
    index: Option<&InvertedIndex>,
) -> Vec<VertexId> {
    let pool: Vec<VertexId> = match index {
        Some(idx) => idx.pool(matcher.gd(), matcher.interner(), u_t),
        None => matcher.g().vertices().collect(),
    };
    matcher.viable(u_t, pool)
}

/// `VParaMatch`: all matches of `u_t` in `G`, in ascending vertex-id order.
pub fn vpair(
    matcher: &mut Matcher<'_>,
    u_t: VertexId,
    index: Option<&InvertedIndex>,
) -> Vec<VertexId> {
    try_vpair(matcher, u_t, index).matches
}

/// Budget-aware `VParaMatch`: like [`vpair`] but degrades gracefully when
/// the matcher's [`crate::paramatch::Budget`] or
/// [`crate::paramatch::CancelToken`] trips — verified matches found so far
/// are returned together with the still-undecided candidates instead of
/// being discarded.
pub fn try_vpair(
    matcher: &mut Matcher<'_>,
    u_t: VertexId,
    index: Option<&InvertedIndex>,
) -> VpairRun {
    let ctx = matcher.ctx();
    let span = matcher.obs().map(|o| o.tracer.span_ctx("vpair", ctx));
    let before = matcher.stats();
    matcher.hold_telemetry();
    let mut cand = candidates(matcher, u_t, index);
    if let Some(obs) = matcher.obs() {
        obs.registry.counter("vpair.runs").inc();
        obs.registry
            .histogram("vpair.candidates")
            .observe(cand.len() as u64);
    }
    // Fig. 5 line 4: verify in increasing order of degree, so a budgeted
    // run decides the cheap candidates before the expensive ones.
    cand.sort_by_cached_key(|&v| (matcher.g().degree(v), v));
    let mut matches = Vec::new();
    let mut unresolved = Vec::new();
    let mut exhausted = None;
    for &v in &cand {
        // After exhaustion `try_match` still serves pre-exhaustion cached
        // verdicts and costs O(1) for the rest, so keep scanning: every
        // candidate ends up accurately classified as decided or unresolved.
        match matcher.try_match(u_t, v) {
            Outcome::Matched => matches.push(v),
            Outcome::Unmatched => {}
            Outcome::Exhausted(reason) => {
                exhausted.get_or_insert(reason);
                unresolved.push(v);
            }
        }
    }
    matches.sort();
    unresolved.sort();
    matcher.publish_telemetry();
    drop(span);
    VpairRun {
        matches,
        unresolved,
        exhausted,
        stats: matcher.stats().delta_since(&before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Params, Thresholds};
    use her_graph::{Graph, GraphBuilder, Interner};

    /// G_D: one "item" tuple (white / phylon foam). G: three items — an
    /// exact twin, a colour-mismatched decoy, and an unrelated brand vertex.
    fn fixture() -> (Graph, Graph, Interner, VertexId, Vec<VertexId>) {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex("item");
        let c = b.add_vertex("white");
        let m = b.add_vertex("phylon foam");
        b.add_edge(u, c, "color");
        b.add_edge(u, m, "material");
        let (gd, i) = b.build();

        let mut b2 = GraphBuilder::with_interner(i);
        let twin = b2.add_vertex("item");
        let tc = b2.add_vertex("white");
        let tm = b2.add_vertex("phylon foam");
        b2.add_edge(twin, tc, "color");
        b2.add_edge(twin, tm, "material");
        let decoy = b2.add_vertex("item");
        let dc = b2.add_vertex("red");
        let dm = b2.add_vertex("leather");
        b2.add_edge(decoy, dc, "color");
        b2.add_edge(decoy, dm, "material");
        let brand = b2.add_vertex("Addidas");
        let (g, interner) = b2.build();
        (gd, g, interner, u, vec![twin, decoy, brand])
    }

    fn params() -> Params {
        Params::untrained(64, 3).with_thresholds(Thresholds::new(0.9, 0.2, 5))
    }

    #[test]
    fn finds_only_the_twin() {
        let (gd, g, i, u, vs) = fixture();
        let p = params();
        let mut m = Matcher::new(&gd, &g, &i, &p);
        let result = vpair(&mut m, u, None);
        assert_eq!(result, vec![vs[0]]);
    }

    /// The σ filter alone (no bound without `early_termination`).
    #[test]
    fn candidate_filter_excludes_label_mismatches() {
        use crate::paramatch::MatcherOptions;
        let (gd, g, i, u, vs) = fixture();
        let p = params();
        let opts = MatcherOptions {
            early_termination: false,
            ..Default::default()
        };
        let mut m = Matcher::with_options(&gd, &g, &i, &p, opts);
        let c = candidates(&mut m, u, None);
        assert!(c.contains(&vs[0]));
        assert!(c.contains(&vs[1])); // label "item" passes σ; fails later
        assert!(!c.contains(&vs[2])); // "Addidas" ≠ "item"
    }

    /// The bound filter: the decoy passes σ but no descendant of it can
    /// contribute to δ, so it is cut at candidate time — counted as the
    /// early termination it is, costing no call and leaving no verdict.
    #[test]
    fn candidate_filter_cuts_pairs_the_first_bound_dooms() {
        let (gd, g, i, u, vs) = fixture();
        let p = params();
        let mut m = Matcher::new(&gd, &g, &i, &p);
        let c = candidates(&mut m, u, None);
        assert!(c.contains(&vs[0]));
        assert!(!c.contains(&vs[1]));
        assert_eq!(m.stats().early_terminations, 1);
        assert_eq!(m.stats().calls, 0);
        assert_eq!(m.cached(u, vs[1]), None);
        assert!(!m.is_match(u, vs[1]), "the cut agrees with ParaMatch");
    }

    #[test]
    fn blocking_produces_same_result() {
        let (gd, g, i, u, _) = fixture();
        let p = params();
        let idx = InvertedIndex::build(&g, &i);
        let mut m1 = Matcher::new(&gd, &g, &i, &p);
        let mut m2 = Matcher::new(&gd, &g, &i, &p);
        assert_eq!(vpair(&mut m1, u, None), vpair(&mut m2, u, Some(&idx)));
    }

    #[test]
    fn repeated_vpair_uses_cache() {
        let (gd, g, i, u, _) = fixture();
        let p = params();
        let mut m = Matcher::new(&gd, &g, &i, &p);
        let r1 = vpair(&mut m, u, None);
        let calls = m.stats().calls;
        let r2 = vpair(&mut m, u, None);
        assert_eq!(r1, r2);
        assert_eq!(m.stats().calls, calls, "second run must be fully cached");
    }

    #[test]
    fn try_vpair_complete_run_equals_vpair() {
        let (gd, g, i, u, _) = fixture();
        let p = params();
        let mut m1 = Matcher::new(&gd, &g, &i, &p);
        let mut m2 = Matcher::new(&gd, &g, &i, &p);
        let run = try_vpair(&mut m1, u, None);
        assert!(run.is_complete());
        assert!(run.unresolved.is_empty());
        assert_eq!(run.matches, vpair(&mut m2, u, None));
    }

    #[test]
    fn try_vpair_exhausted_reports_partial_results() {
        use crate::paramatch::{Budget, ExhaustReason, MatcherOptions};
        use std::time::Duration;
        let (gd, g, i, u, vs) = fixture();
        let p = params();
        // Tight call budget: enough for the first (cheapest) candidates but
        // not the whole run.
        let opts = MatcherOptions {
            budget: Budget::unlimited()
                .with_max_calls(1)
                .with_deadline_in(Duration::from_secs(30)),
            ..Default::default()
        };
        let mut m = Matcher::with_options(&gd, &g, &i, &p, opts);
        let start = std::time::Instant::now();
        let run = try_vpair(&mut m, u, None);
        assert!(start.elapsed() < Duration::from_secs(30), "must not hang");
        assert_eq!(run.exhausted, Some(ExhaustReason::Calls));
        assert!(!run.unresolved.is_empty(), "{run:?}");
        // Partial results are sound: everything reported matched really is.
        let mut oracle = Matcher::new(&gd, &g, &i, &p);
        for &v in &run.matches {
            assert!(oracle.is_match(u, v));
        }
        // The candidates are partitioned, nothing silently dropped.
        let mut all: Vec<_> = run
            .matches
            .iter()
            .chain(&run.unresolved)
            .copied()
            .collect();
        all.sort();
        let mut m2 = Matcher::new(&gd, &g, &i, &p);
        let mut c = candidates(&mut m2, u, None);
        c.sort();
        for v in &all {
            assert!(c.contains(v));
        }
        let _ = vs;
    }

    /// A `G_D` vertex whose label resembles nothing in `G` yields no
    /// candidates — from the hv scan and from the inverted index alike —
    /// and therefore no matches. (The old version of this test queried a
    /// leaf whose label *did* occur in `G` and asserted one match.)
    #[test]
    fn no_candidates_no_matches() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex("unobtainium");
        let c = b.add_vertex("vibranium");
        b.add_edge(u, c, "alloy");
        let (gd, i) = b.build();
        let mut b2 = GraphBuilder::with_interner(i);
        let twin = b2.add_vertex("item");
        let tc = b2.add_vertex("white");
        b2.add_edge(twin, tc, "color");
        let (g, interner) = b2.build();
        let p = params();
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        assert!(candidates(&mut m, u, None).is_empty());
        let idx = InvertedIndex::build(&g, &interner);
        assert!(candidates(&mut m, u, Some(&idx)).is_empty());
        assert!(vpair(&mut m, u, None).is_empty());
        assert!(vpair(&mut m, u, Some(&idx)).is_empty());
    }

    /// Leaves match on label alone: querying the "phylon foam" material
    /// leaf of `G_D` finds the one same-labeled leaf of `G`.
    #[test]
    fn leaf_query_matches_same_labeled_leaf() {
        let (gd, g, i, u, _) = fixture();
        let p = params();
        let mut m = Matcher::new(&gd, &g, &i, &p);
        let u_mat = gd.children(u)[1];
        let result = vpair(&mut m, u_mat, None);
        assert_eq!(result.len(), 1);
        assert_eq!(g.label(result[0]), gd.label(u_mat));
    }

    /// Blocking-vs-scan equivalence on a skewed label distribution where
    /// every token of the blocking query is a stop token (>50% of `G`'s
    /// vertices carry each of them) — the regression fixture for the
    /// all-stop-token fallback in `InvertedIndex::candidates`. Before the
    /// fix, the blocked run returned no candidates at all here.
    #[test]
    fn blocking_equals_scan_when_all_query_tokens_are_stop_tokens() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex("white");
        let (gd, i) = b.build();
        let mut b2 = GraphBuilder::with_interner(i);
        // Every vertex of G carries the full query vocabulary {white}:
        // each "item" root has a "white" child (roots index their
        // children's tokens), so the token sits on 100% of vertices and
        // is stopped.
        let mut whites = Vec::new();
        for _ in 0..6 {
            let root = b2.add_vertex("item");
            let col = b2.add_vertex("white");
            b2.add_edge(root, col, "color");
            whites.push(col);
        }
        let (g, interner) = b2.build();
        let p = params();
        let idx = InvertedIndex::build(&g, &interner);
        let query = crate::index::blocking_query(&gd, &interner, u);
        assert!(
            !idx.candidates(&query).is_empty(),
            "all-stop-token query must fall back, not go empty"
        );
        let mut m1 = Matcher::new(&gd, &g, &interner, &p);
        let mut m2 = Matcher::new(&gd, &g, &interner, &p);
        let scan = vpair(&mut m1, u, None);
        let blocked = vpair(&mut m2, u, Some(&idx));
        assert_eq!(scan, whites, "every same-labeled leaf matches");
        assert_eq!(scan, blocked);
    }
}
