//! The ranking function `h_r`: LM-guided top-k descendant selection.
//!
//! §IV defines `h_r(v, k)` in two steps: (1) from each out-edge of `v`, grow
//! one path guided by the language model `M_r`, stopping on `<eos>`, on a
//! dead end, or abandoning on a cycle; (2) rank the collected paths by PRA
//! and keep the top `k`, yielding `V_v^k` — the important properties of `v`
//! together with one witness path each.

use crate::pathlm::PathLm;
use crate::pra;
use her_graph::hash::FxHashMap;
use her_graph::{Graph, Path, VertexId};

/// `h_r`: selects top-k descendants of a vertex with one path per
/// descendant.
#[derive(Clone, Debug)]
pub struct TopKRanker {
    lm: PathLm,
    /// Hard cap on path growth (the paper caps training paths at 4 edges).
    max_len: usize,
}

/// Stop growing when the current endpoint branches more than this
/// (Example 6: the LM emits `<eos>` at vertices with "many descendants
/// that will diverge and weaken the semantic association"). Entity-like
/// vertices (sub-entities with several attributes) therefore terminate
/// paths, which is what lets parametric simulation recurse into them.
const BRANCH_CAP: usize = 3;

impl TopKRanker {
    /// Creates a ranker driven by a trained (or untrained) path LM.
    pub fn new(lm: PathLm) -> Self {
        Self { lm, max_len: 4 }
    }

    /// Overrides the maximum path length.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        assert!(max_len >= 1);
        self.max_len = max_len;
        self
    }

    /// Access to the underlying LM.
    pub fn lm(&self) -> &PathLm {
        &self.lm
    }

    /// Selects up to `k` descendants of `v` in `g`, each with its witness
    /// path, ordered by descending PRA. Distinct descendants only: if two
    /// grown paths end at the same vertex the higher-PRA one wins.
    pub fn select(&self, g: &Graph, v: VertexId, k: usize) -> Vec<(VertexId, Path)> {
        let mut grown: Vec<Path> = Vec::with_capacity(g.out_degree(v));
        for (l1, c1) in g.out_edges(v) {
            if c1 == v {
                continue; // a self-loop is already a cycle
            }
            if let Some(p) = self.grow(g, v, l1, c1) {
                grown.push(p);
            }
        }
        // Rank by PRA, dedupe by endpoint keeping the best-ranked path.
        let order = pra::rank_by_pra(g, &grown);
        let mut seen: FxHashMap<VertexId, ()> = FxHashMap::default();
        let mut out = Vec::with_capacity(k.min(grown.len()));
        for i in order {
            let p = &grown[i];
            if seen.insert(p.end(), ()).is_none() {
                out.push((p.end(), p.clone()));
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// Grows one path starting with edge `v --l1--> c1`, following the LM's
    /// highest-probability continuation until `<eos>`, a dead end, or the
    /// length cap. Returns `None` if the walk is forced into a cycle
    /// (abandoned, per §IV stop condition (c)).
    fn grow(
        &self,
        g: &Graph,
        v: VertexId,
        l1: her_graph::LabelId,
        c1: VertexId,
    ) -> Option<Path> {
        let mut path = Path::trivial(v);
        path.push(l1, c1);
        let mut ctx = vec![l1];
        while path.len() < self.max_len {
            let cur = path.end();
            let cand: Vec<(her_graph::LabelId, VertexId)> = g.out_edges(cur).collect();
            if cand.is_empty() {
                break; // stop condition (b): no outward edge
            }
            if cand.len() > BRANCH_CAP {
                break; // diverging entity-like vertex: stop (Example 6)
            }
            let labels: Vec<her_graph::LabelId> = cand.iter().map(|(l, _)| *l).collect();
            match self.lm.best_next(&ctx, &labels) {
                None => break, // stop condition (a): <eos>
                Some(i) => {
                    let (l, t) = cand[i];
                    if path.would_cycle(t) {
                        return None; // stop condition (c): cycle → abandon
                    }
                    path.push(l, t);
                    ctx.push(l);
                }
            }
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use her_graph::GraphBuilder;

    /// A small "brand" subgraph:
    /// item -brandName-> brand -factorySite-> site -isIn-> region -isIn-> country
    /// item -hasColor-> white
    /// item -typeNo-> t
    fn graph() -> (Graph, Vec<VertexId>) {
        let mut b = GraphBuilder::new();
        let item = b.add_vertex("item");
        let brand = b.add_vertex("Addidas");
        let site = b.add_vertex("Can Duoc");
        let region = b.add_vertex("Long An");
        let country = b.add_vertex("Vietnam");
        let white = b.add_vertex("white");
        let tno = b.add_vertex("Dame Gen 7");
        b.add_edge(item, brand, "brandName");
        b.add_edge(brand, site, "factorySite");
        b.add_edge(site, region, "isIn");
        b.add_edge(region, country, "isIn");
        b.add_edge(item, white, "hasColor");
        b.add_edge(item, tno, "typeNo");
        let (g, _) = b.build();
        (g, vec![item, brand, site, region, country, white, tno])
    }

    fn lm_for(g: &Graph, seqs: &[&[&str]], interner: &her_graph::Interner) -> PathLm {
        let mut lm = PathLm::new();
        let corpus: Vec<Vec<her_graph::LabelId>> = seqs
            .iter()
            .map(|s| s.iter().map(|l| interner.get(l).unwrap()).collect())
            .collect();
        let _ = g;
        lm.train(&corpus);
        lm
    }

    #[test]
    fn untrained_lm_selects_children_with_one_hop_paths() {
        let (g, vs) = graph();
        let ranker = TopKRanker::new(PathLm::new());
        let sel = ranker.select(&g, vs[0], 5);
        // item has 3 out-edges; untrained LM stops after one hop.
        assert_eq!(sel.len(), 3);
        assert!(sel.iter().all(|(_, p)| p.len() == 1));
        let ends: Vec<VertexId> = sel.iter().map(|(v, _)| *v).collect();
        assert!(ends.contains(&vs[1]) && ends.contains(&vs[5]) && ends.contains(&vs[6]));
    }

    #[test]
    fn trained_lm_extends_learned_sequences() {
        // Rebuild the graph through one builder so we can reuse its interner.
        let mut b = GraphBuilder::new();
        let item = b.add_vertex("item");
        let brand = b.add_vertex("Addidas");
        let site = b.add_vertex("Can Duoc");
        let region = b.add_vertex("Long An");
        b.add_edge(item, brand, "brandName");
        b.add_edge(brand, site, "factorySite");
        b.add_edge(site, region, "isIn");
        let (g, interner) = b.build();
        // Corpus says factorySite is typically followed by isIn then ends;
        // brandName alone is also a complete "sentence" frequently.
        let lm = lm_for(
            &g,
            &[
                &["factorySite", "isIn"],
                &["factorySite", "isIn"],
                &["brandName", "factorySite", "isIn"],
            ],
            &interner,
        );
        let ranker = TopKRanker::new(lm);
        let sel = ranker.select(&g, item, 5);
        assert_eq!(sel.len(), 1);
        let (end, path) = &sel[0];
        assert_eq!(*end, region);
        assert_eq!(path.len(), 3);
        assert_eq!(path.label_string(&interner), "(brandName, factorySite, isIn)");
    }

    #[test]
    fn k_truncates_by_pra() {
        let (g, vs) = graph();
        let ranker = TopKRanker::new(PathLm::new());
        let sel = ranker.select(&g, vs[0], 2);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn leaf_vertex_selects_nothing() {
        let (g, vs) = graph();
        let ranker = TopKRanker::new(PathLm::new());
        assert!(ranker.select(&g, vs[4], 5).is_empty());
    }

    #[test]
    fn self_loops_skipped() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("a");
        let c = b.add_vertex("c");
        b.add_edge(a, a, "loop");
        b.add_edge(a, c, "out");
        let (g, _) = b.build();
        let sel = TopKRanker::new(PathLm::new()).select(&g, a, 5);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].0, c);
    }

    #[test]
    fn forced_cycle_abandons_path() {
        // a -> b -> a is the only continuation, and the LM is trained to
        // always continue (never emit eos within 2 steps).
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("a");
        let c = b.add_vertex("c");
        b.add_edge(a, c, "go");
        b.add_edge(c, a, "back");
        let (g, interner) = b.build();
        let mut lm = PathLm::new();
        let go = interner.get("go").unwrap();
        let back = interner.get("back").unwrap();
        // Long sequences make continuation much likelier than eos mid-way.
        lm.train(&[vec![go, back, go, back], vec![go, back, go, back]]);
        let sel = TopKRanker::new(lm).select(&g, a, 5);
        assert!(sel.is_empty(), "cycle-forced path must be abandoned: {sel:?}");
    }

    #[test]
    fn max_len_caps_growth() {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..6).map(|i| b.add_vertex(&format!("n{i}"))).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], "next");
        }
        let (g, interner) = b.build();
        let next = interner.get("next").unwrap();
        let mut lm = PathLm::new();
        lm.train(&vec![vec![next; 5]; 3]);
        let sel = TopKRanker::new(lm).with_max_len(2).select(&g, vs[0], 5);
        assert_eq!(sel.len(), 1);
        assert!(sel[0].1.len() <= 2);
    }

    #[test]
    fn dedupes_endpoints_keeping_best_path() {
        // Two routes to the same endpoint; only one survives selection.
        let mut b = GraphBuilder::new();
        let root = b.add_vertex("root");
        let mid1 = b.add_vertex("m1");
        let mid2 = b.add_vertex("m2");
        let end = b.add_vertex("end");
        b.add_edge(root, mid1, "p");
        b.add_edge(root, mid2, "q");
        b.add_edge(mid1, end, "r");
        b.add_edge(mid2, end, "r");
        let (g, interner) = b.build();
        let p = interner.get("p").unwrap();
        let q = interner.get("q").unwrap();
        let r = interner.get("r").unwrap();
        let mut lm = PathLm::new();
        lm.train(&[vec![p, r], vec![p, r], vec![q, r], vec![q, r]]);
        let sel = TopKRanker::new(lm).select(&g, root, 5);
        let ends: Vec<VertexId> = sel.iter().map(|(v, _)| *v).collect();
        let unique: std::collections::BTreeSet<_> = ends.iter().collect();
        assert_eq!(ends.len(), unique.len(), "duplicate endpoints selected");
    }
}
