//! The unique maximal match `Π(u₀, v₀)` (Proposition 4, appendix A).
//!
//! Parametric simulation is coinductive: the paper proves that a unique
//! *maximum* relation `Π` witnesses every match — the union of any two
//! witnesses is a witness. This module computes it directly as a greatest
//! fixpoint: start from all pairs passing `h_v ≥ σ`, repeatedly delete
//! pairs whose best lineage set (a maximum-weight injective mapping over
//! currently-surviving pairs) cannot reach `δ`, until stable.
//!
//! The fixpoint is more careful than `ParaMatch` (it solves the
//! assignment problem exactly per pair instead of greedy-with-
//! backtracking), so it serves as the *reference oracle* in tests: any
//! witness `ParaMatch` returns must be contained in the maximal match.
//! Exact assignment is exponential in `k` only in the worst case. On
//! trained dbpedia, ukgov and imdb data (ROADMAP, Measurement C) the
//! oracle decided every σ-passing pair of `G_D × G` — up to 739 k pairs
//! at 1 000 tuples, in 4–12 s, 3–25× a cold APair — and its root
//! verdicts equalled APair's on all nine datasets tried.

use crate::params::Params;
use crate::scores::ScoreCache;
use her_graph::hash::{FxHashMap, FxHashSet};
use her_graph::{Graph, Interner, Path, VertexId};

/// The maximal-match computation over `(G_D, G)`.
pub struct MaximalMatch<'a> {
    gd: &'a Graph,
    g: &'a Graph,
    interner: &'a Interner,
    params: &'a Params,
}

impl<'a> MaximalMatch<'a> {
    /// Creates the oracle over a graph pair sharing `interner`.
    pub fn new(gd: &'a Graph, g: &'a Graph, interner: &'a Interner, params: &'a Params) -> Self {
        Self {
            gd,
            g,
            interner,
            params,
        }
    }

    /// Computes the unique maximal simulation relation over *all* vertex
    /// pairs (restricted to pairs reachable under `h_v ≥ σ`). Exponential
    /// in `k` in the worst case (exact assignment); measured, 0.3–1 s at
    /// 300 tuples (learned `k` up to 18) and 4–12 s at 1 000.
    pub fn compute(&self) -> FxHashSet<(VertexId, VertexId)> {
        let t = self.params.thresholds;
        let mut scores = ScoreCache::new();

        // Selections per vertex, both sides.
        let mut sel_d: FxHashMap<VertexId, Vec<(VertexId, Path)>> = FxHashMap::default();
        for u in self.gd.vertices() {
            sel_d.insert(u, self.params.ranker.select(self.gd, u, t.k));
        }
        let mut sel_g: FxHashMap<VertexId, Vec<(VertexId, Path)>> = FxHashMap::default();
        for v in self.g.vertices() {
            sel_g.insert(v, self.params.ranker.select(self.g, v, t.k));
        }

        // Greatest-fixpoint start: all σ-passing pairs, read from the σ
        // rows as `ParaMatch` reads them.
        let mut alive: FxHashSet<(VertexId, VertexId)> = FxHashSet::default();
        for u in self.gd.vertices() {
            let lu = self.gd.label(u);
            let row = scores.sigma_row(self.params, self.interner, lu);
            for v in self.g.vertices() {
                if scores.reaches_sigma(self.params, self.interner, (lu, row), self.g.label(v)) {
                    alive.insert((u, v));
                }
            }
        }

        // Refine: drop pairs whose optimal lineage cannot reach δ.
        let mut changed = true;
        while changed {
            changed = false;
            let snapshot: Vec<(VertexId, VertexId)> = alive.iter().copied().collect();
            for (u, v) in snapshot {
                if self.gd.is_leaf(u) {
                    continue; // label check alone suffices
                }
                let su = &sel_d[&u];
                let sv = &sel_g[&v];
                // Weight matrix over currently-alive descendant pairs.
                let mut weights: Vec<Vec<f32>> = Vec::with_capacity(su.len());
                for (ud, pu) in su {
                    let mut row = Vec::with_capacity(sv.len());
                    for (vd, pv) in sv {
                        let ok = alive.contains(&(*ud, *vd));
                        row.push(if ok {
                            scores.shared().hrho(self.params, self.interner, pu, pv)
                        } else {
                            0.0
                        });
                    }
                    weights.push(row);
                }
                if best_assignment(&weights) < t.delta {
                    alive.remove(&(u, v));
                    changed = true;
                }
            }
        }
        alive
    }
}

/// Maximum-weight partial injective assignment, exact via branch-and-bound
/// over rows: exponential in `k` at worst. The whole oracle run at the
/// largest learned `k` measured (18, ukgov at 300 tuples) took 0.96 s.
fn best_assignment(weights: &[Vec<f32>]) -> f32 {
    fn recurse(weights: &[Vec<f32>], row: usize, used: &mut Vec<bool>, acc: f32, best: &mut f32) {
        if acc > *best {
            *best = acc;
        }
        if row == weights.len() {
            return;
        }
        // Upper bound: remaining rows each take their max cell.
        let bound: f32 = acc
            + weights[row..]
                .iter()
                .map(|r| r.iter().cloned().fold(0.0f32, f32::max))
                .sum::<f32>();
        if bound <= *best {
            return;
        }
        // Skip this row entirely (partial mapping).
        recurse(weights, row + 1, used, acc, best);
        for (j, &w) in weights[row].iter().enumerate() {
            if w > 0.0 && !used[j] {
                used[j] = true;
                recurse(weights, row + 1, used, acc + w, best);
                used[j] = false;
            }
        }
    }
    if weights.is_empty() {
        return 0.0;
    }
    let cols = weights[0].len();
    let mut used = vec![false; cols];
    let mut best = 0.0;
    recurse(weights, 0, &mut used, 0.0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paramatch::Matcher;
    use crate::params::{Params, Thresholds};
    use crate::shared_scores::SharedScores;
    use her_graph::GraphBuilder;

    fn params(sigma: f32, delta: f32, k: usize) -> Params {
        Params::untrained(32, 101).with_thresholds(Thresholds::new(sigma, delta, k))
    }

    /// Two-entity world with matching values.
    fn fixture() -> (Graph, Graph, Interner) {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex("item");
        let uc = b.add_vertex("white");
        let um = b.add_vertex("foam");
        b.add_edge(u, uc, "color");
        b.add_edge(u, um, "material");
        let (gd, i) = b.build();
        let mut b2 = GraphBuilder::with_interner(i);
        let v = b2.add_vertex("item");
        let vc = b2.add_vertex("white");
        let vm = b2.add_vertex("foam");
        b2.add_edge(v, vc, "color");
        b2.add_edge(v, vm, "material");
        let decoy = b2.add_vertex("item");
        let dc = b2.add_vertex("red");
        b2.add_edge(decoy, dc, "color");
        let (g, interner) = b2.build();
        (gd, g, interner)
    }

    #[test]
    fn assignment_known_values() {
        // Rows pick disjoint columns: best = 0.9 + 0.8.
        let w = vec![vec![0.9, 0.5], vec![0.7, 0.8]];
        assert!((best_assignment(&w) - 1.7).abs() < 1e-6);
        // Injectivity forces a choice: both rows prefer column 0, and the
        // best combination is 0.9 alone or 0.1 + 0.8 — both 0.9.
        let w = vec![vec![0.9, 0.1], vec![0.8, 0.0]];
        assert!((best_assignment(&w) - 0.9).abs() < 1e-6);
        assert_eq!(best_assignment(&[]), 0.0);
    }

    #[test]
    fn maximal_contains_paramatch_witnesses() {
        let (gd, g, interner) = fixture();
        let p = params(0.9, 0.3, 4);
        let oracle = MaximalMatch::new(&gd, &g, &interner, &p).compute();
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        for u in gd.vertices() {
            for v in g.vertices() {
                if m.is_match(u, v) {
                    let w = m.witness(u, v).unwrap();
                    for pair in w {
                        assert!(
                            oracle.contains(&pair),
                            "witness pair {pair:?} outside the maximal match"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn maximal_is_a_valid_witness_everywhere() {
        // Every surviving non-leaf pair has an alive lineage reaching δ.
        let (gd, g, interner) = fixture();
        let p = params(0.9, 0.3, 4);
        let oracle = MaximalMatch::new(&gd, &g, &interner, &p).compute();
        let scores = SharedScores::new();
        for &(u, v) in &oracle {
            let hv = scores.hv(&p, &interner, gd.label(u), g.label(v));
            assert!(hv >= 0.9 - 1e-6);
        }
        // The true pair (roots are vertex 0 in both graphs) survives; the
        // decoy root (vertex 3 of G) does not.
        assert!(oracle.contains(&(VertexId(0), VertexId(0))));
        assert!(!oracle.contains(&(VertexId(0), VertexId(3))));
    }

    #[test]
    fn union_property_monotone_in_delta() {
        // Lower δ can only grow the maximal match (greatest fixpoint
        // monotonicity in the constraint).
        let (gd, g, interner) = fixture();
        let loose = MaximalMatch::new(&gd, &g, &interner, &params(0.9, 0.1, 4)).compute();
        let tight = MaximalMatch::new(&gd, &g, &interner, &params(0.9, 0.8, 4)).compute();
        for pair in &tight {
            assert!(loose.contains(pair), "{pair:?} lost when δ loosened");
        }
        assert!(tight.len() <= loose.len());
    }

    #[test]
    fn deterministic() {
        let (gd, g, interner) = fixture();
        let p = params(0.85, 0.4, 4);
        let a = MaximalMatch::new(&gd, &g, &interner, &p).compute();
        let b = MaximalMatch::new(&gd, &g, &interner, &p).compute();
        let mut av: Vec<_> = a.into_iter().collect();
        let mut bv: Vec<_> = b.into_iter().collect();
        av.sort();
        bv.sort();
        assert_eq!(av, bv);
    }
}
