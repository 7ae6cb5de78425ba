//! Algorithm `AllParaMatch` (Fig. 8, §VI-A): all matches across `D` and `G`.
//!
//! Computes `Π = {(u_t, v) | u_t tuple vertex of G_D, v ∈ G, match}`.
//! Extends `VParaMatch`: candidate pairs are generated for *every* tuple
//! vertex, pooled, sorted by increasing degree, and verified with a single
//! shared `Matcher` so cached verdicts transfer across tuples.

use crate::index::InvertedIndex;
use crate::paramatch::Matcher;
use her_graph::VertexId;

/// `AllParaMatch` over the given tuple vertices of `G_D`.
///
/// `tuple_vertices` should be the images of `f_D` on tuples (attribute
/// vertices are not entities). Returns matched pairs sorted by
/// `(tuple vertex, graph vertex)`.
pub fn apair(
    matcher: &mut Matcher<'_>,
    tuple_vertices: &[VertexId],
    index: Option<&InvertedIndex>,
) -> Vec<(VertexId, VertexId)> {
    let ctx = matcher.ctx();
    let span = matcher.obs().map(|o| o.tracer.span_ctx("apair", ctx));
    matcher.hold_telemetry();
    // Candidate generation across all tuples (Fig. 8 lines 2-3), each
    // keyed for line 4's order so the sort below compares plain tuples.
    let mut cand: Vec<(usize, VertexId, VertexId)> = Vec::new();
    for &u_t in tuple_vertices {
        // Generation calls no `ParaMatch`, so nothing below it would
        // notice a cancellation or a passed deadline: look once per tuple.
        // The exhaustion is sticky; verification then decides nothing new.
        if matcher.interrupted().is_some() {
            break;
        }
        let deg_u = matcher.gd().degree(u_t);
        for v in crate::vpair::candidates(matcher, u_t, index) {
            cand.push((deg_u + matcher.g().degree(v), u_t, v));
        }
    }
    if let Some(obs) = matcher.obs() {
        obs.registry.counter("apair.runs").inc();
        obs.registry
            .histogram("apair.candidates")
            .observe(cand.len() as u64);
    }
    // Fig. 8 line 4: increasing order of degree.
    cand.sort_unstable();
    // Verification (as VParaMatch).
    let mut out = Vec::new();
    for (_, u, v) in cand {
        let matched = match matcher.cached(u, v) {
            Some(verdict) => verdict,
            None => matcher.is_match(u, v),
        };
        if matched {
            out.push((u, v));
        }
    }
    out.sort();
    matcher.publish_telemetry();
    drop(span);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Params, Thresholds};
    use her_graph::{Graph, GraphBuilder, Interner};

    /// Two tuples (white item, red item) vs a graph with both plus noise.
    fn fixture() -> (Graph, Graph, Interner, Vec<VertexId>, Vec<VertexId>) {
        let mut b = GraphBuilder::new();
        let u1 = b.add_vertex("item");
        let u1c = b.add_vertex("white");
        b.add_edge(u1, u1c, "color");
        let u2 = b.add_vertex("item");
        let u2c = b.add_vertex("red");
        b.add_edge(u2, u2c, "color");
        let (gd, i) = b.build();

        let mut b2 = GraphBuilder::with_interner(i);
        let v1 = b2.add_vertex("item");
        let v1c = b2.add_vertex("white");
        b2.add_edge(v1, v1c, "hasColor");
        let v2 = b2.add_vertex("item");
        let v2c = b2.add_vertex("red");
        b2.add_edge(v2, v2c, "hasColor");
        let (g, interner) = b2.build();
        (gd, g, interner, vec![u1, u2], vec![v1, v2])
    }

    fn params() -> Params {
        // δ low enough that the single colour attribute carries the match;
        // untrained M_ρ still scores (color, hasColor) above ~0.
        Params::untrained(64, 9).with_thresholds(Thresholds::new(0.9, 0.01, 5))
    }

    #[test]
    fn pairs_matched_by_colour() {
        let (gd, g, i, us, vs) = fixture();
        let p = params();
        let mut m = Matcher::new(&gd, &g, &i, &p);
        let result = apair(&mut m, &us, None);
        // u1 (white) ↔ v1 (white); u2 (red) ↔ v2 (red); the cross pairs
        // fail because their colour values mismatch under σ=0.9.
        assert!(result.contains(&(us[0], vs[0])));
        assert!(result.contains(&(us[1], vs[1])));
        assert!(!result.contains(&(us[0], vs[1])));
        assert!(!result.contains(&(us[1], vs[0])));
    }

    #[test]
    fn restricting_tuple_vertices_restricts_output() {
        let (gd, g, i, us, _) = fixture();
        let p = params();
        let mut m = Matcher::new(&gd, &g, &i, &p);
        let only_first = apair(&mut m, &us[..1], None);
        assert!(only_first.iter().all(|&(u, _)| u == us[0]));
    }

    #[test]
    fn blocking_equivalence() {
        let (gd, g, i, us, _) = fixture();
        let p = params();
        let idx = InvertedIndex::build(&g, &i);
        let mut m1 = Matcher::new(&gd, &g, &i, &p);
        let mut m2 = Matcher::new(&gd, &g, &i, &p);
        assert_eq!(apair(&mut m1, &us, None), apair(&mut m2, &us, Some(&idx)));
    }

    #[test]
    fn empty_tuple_set_gives_empty_result() {
        let (gd, g, i, _, _) = fixture();
        let p = params();
        let mut m = Matcher::new(&gd, &g, &i, &p);
        assert!(apair(&mut m, &[], None).is_empty());
    }

    #[test]
    fn output_is_sorted() {
        let (gd, g, i, us, _) = fixture();
        let p = params();
        let mut m = Matcher::new(&gd, &g, &i, &p);
        let result = apair(&mut m, &us, None);
        let mut sorted = result.clone();
        sorted.sort();
        assert_eq!(result, sorted);
    }
}
