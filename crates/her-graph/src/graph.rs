//! Immutable CSR graph.
//!
//! Once built (via [`crate::GraphBuilder`]) a [`Graph`] is read-only; all HER
//! algorithms only traverse. The CSR layout keeps each vertex's out-edges in
//! one contiguous slice, which is both cache-friendly and allocation-free to
//! iterate.

use crate::ids::{LabelId, VertexId};

/// A directed labeled graph `G = (V, E, L)` in compressed-sparse-row form.
///
/// Every vertex carries one label (a Θ value/type string, interned), every
/// edge one label (a Φ predicate, interned). Vertex ids are dense `0..n`.
#[derive(Clone)]
pub struct Graph {
    /// Label of each vertex, indexed by `VertexId`.
    vlabels: Vec<LabelId>,
    /// CSR row offsets; length `n + 1`.
    out_offsets: Vec<u32>,
    /// Edge targets, grouped per source vertex.
    out_targets: Vec<VertexId>,
    /// Edge labels, parallel to `out_targets`.
    out_elabels: Vec<LabelId>,
    /// In-degree of each vertex (used for degree-ordered verification, §VI).
    in_degrees: Vec<u32>,
}

impl Graph {
    pub(crate) fn from_parts(
        vlabels: Vec<LabelId>,
        out_offsets: Vec<u32>,
        out_targets: Vec<VertexId>,
        out_elabels: Vec<LabelId>,
        in_degrees: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), vlabels.len() + 1);
        debug_assert_eq!(out_targets.len(), out_elabels.len());
        debug_assert_eq!(in_degrees.len(), vlabels.len());
        Self {
            vlabels,
            out_offsets,
            out_targets,
            out_elabels,
            in_degrees,
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vlabels.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vlabels.len() as u32).map(VertexId)
    }

    /// The label of `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> LabelId {
        self.vlabels[v.index()]
    }

    /// The out-edges of `v` as `(edge_label, target)` pairs.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (LabelId, VertexId)> + '_ {
        let (lo, hi) = self.out_range(v);
        self.out_elabels[lo..hi]
            .iter()
            .copied()
            .zip(self.out_targets[lo..hi].iter().copied())
    }

    /// The children (out-neighbours) of `v`.
    #[inline]
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = self.out_range(v);
        &self.out_targets[lo..hi]
    }

    /// Edge labels of `v`'s out-edges, parallel to [`Self::children`].
    #[inline]
    pub fn child_labels(&self, v: VertexId) -> &[LabelId] {
        let (lo, hi) = self.out_range(v);
        &self.out_elabels[lo..hi]
    }

    #[inline]
    fn out_range(&self, v: VertexId) -> (usize, usize) {
        (
            self.out_offsets[v.index()] as usize,
            self.out_offsets[v.index() + 1] as usize,
        )
    }

    /// Out-degree of `v` (`|ch(v)|` in the paper's PRA formula).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let (lo, hi) = self.out_range(v);
        hi - lo
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_degrees[v.index()] as usize
    }

    /// Total degree of `v`, used to order candidate verification (§VI-A).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Whether `v` has no children (a *leaf*, §III).
    #[inline]
    pub fn is_leaf(&self, v: VertexId) -> bool {
        self.out_degree(v) == 0
    }

    /// The label of the first edge `u → w`, if such an edge exists.
    pub fn edge_label(&self, u: VertexId, w: VertexId) -> Option<LabelId> {
        self.out_edges(u)
            .find_map(|(l, t)| (t == w).then_some(l))
    }

    /// Whether the edge `u → w` exists (with any label).
    pub fn has_edge(&self, u: VertexId, w: VertexId) -> bool {
        self.children(u).contains(&w)
    }

    /// Iterator over all edges as `(src, label, dst)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, LabelId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |v| self.out_edges(v).map(move |(l, t)| (v, l, t)))
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("vertices", &self.vertex_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;
    use crate::ids::VertexId;

    /// item --brand--> brand --country--> "Germany"; item --color--> "white"
    fn sample() -> (crate::Graph, crate::Interner) {
        let mut b = GraphBuilder::new();
        let item = b.add_vertex("item");
        let brand = b.add_vertex("Addidas Originals");
        let germany = b.add_vertex("Germany");
        let white = b.add_vertex("white");
        b.add_edge(item, brand, "brand");
        b.add_edge(brand, germany, "country");
        b.add_edge(item, white, "color");
        b.build()
    }

    #[test]
    fn counts() {
        let (g, _) = sample();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn labels_resolve() {
        let (g, int) = sample();
        assert_eq!(int.resolve(g.label(VertexId(0))), "item");
        assert_eq!(int.resolve(g.label(VertexId(2))), "Germany");
    }

    #[test]
    fn adjacency() {
        let (g, int) = sample();
        let item = VertexId(0);
        let kids = g.children(item);
        assert_eq!(kids.len(), 2);
        let labels: Vec<&str> = g
            .out_edges(item)
            .map(|(l, _)| int.resolve(l))
            .collect();
        assert!(labels.contains(&"brand"));
        assert!(labels.contains(&"color"));
    }

    #[test]
    fn degrees() {
        let (g, _) = sample();
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.in_degree(VertexId(0)), 0);
        assert_eq!(g.in_degree(VertexId(2)), 1);
        assert_eq!(g.degree(VertexId(1)), 2); // one in, one out
    }

    #[test]
    fn leaves() {
        let (g, _) = sample();
        assert!(!g.is_leaf(VertexId(0)));
        assert!(g.is_leaf(VertexId(2)));
        assert!(g.is_leaf(VertexId(3)));
    }

    #[test]
    fn edge_lookup() {
        let (g, int) = sample();
        let l = g.edge_label(VertexId(1), VertexId(2)).unwrap();
        assert_eq!(int.resolve(l), "country");
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(!g.has_edge(VertexId(2), VertexId(0)));
        assert_eq!(g.edge_label(VertexId(2), VertexId(0)), None);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let (g, _) = sample();
        assert_eq!(g.edges().count(), g.edge_count());
    }

    #[test]
    fn empty_graph() {
        let (g, _) = GraphBuilder::new().build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.vertices().count(), 0);
    }
}
