//! Incremental graph construction.
//!
//! [`GraphBuilder`] accumulates vertices and edges with string labels, then
//! [`GraphBuilder::build`] produces the immutable CSR [`Graph`] plus the
//! [`Interner`] that owns the label strings. A builder can also be seeded
//! with an existing interner (via [`GraphBuilder::with_interner`]) so two
//! graphs — e.g. `G_D` and `G` — share one label space.

use crate::graph::Graph;
use crate::ids::{LabelId, VertexId};
use crate::interner::Interner;

/// Mutable accumulator for a [`Graph`].
#[derive(Default)]
pub struct GraphBuilder {
    interner: Interner,
    vlabels: Vec<LabelId>,
    edges: Vec<(VertexId, LabelId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder with a fresh label interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that continues an existing interner, so label ids
    /// are shared with graphs built earlier from the same interner.
    pub fn with_interner(interner: Interner) -> Self {
        Self {
            interner,
            vlabels: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a vertex labeled `label`; returns its dense id.
    pub fn add_vertex(&mut self, label: &str) -> VertexId {
        let id = VertexId(self.vlabels.len() as u32);
        let l = self.interner.intern(label);
        self.vlabels.push(l);
        id
    }

    /// Adds a directed edge `src --label--> dst`.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, label: &str) {
        assert!(
            src.index() < self.vlabels.len() && dst.index() < self.vlabels.len(),
            "edge endpoint out of range"
        );
        let l = self.interner.intern(label);
        self.edges.push((src, l, dst));
    }

    /// Interns a label without attaching it to anything.
    pub fn intern(&mut self, s: &str) -> LabelId {
        self.interner.intern(s)
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.vlabels.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalises the CSR structure. Consumes the builder; returns the graph
    /// and the interner that resolves its labels.
    pub fn build(self) -> (Graph, Interner) {
        let n = self.vlabels.len();
        let mut out_counts = vec![0u32; n];
        let mut in_degrees = vec![0u32; n];
        for &(src, _, dst) in &self.edges {
            out_counts[src.index()] += 1;
            in_degrees[dst.index()] += 1;
        }
        let mut out_offsets = Vec::with_capacity(n + 1);
        out_offsets.push(0u32);
        let mut acc = 0u32;
        for &c in &out_counts {
            acc += c;
            out_offsets.push(acc);
        }
        let m = self.edges.len();
        let mut out_targets = vec![VertexId(0); m];
        let mut out_elabels = vec![LabelId(0); m];
        // Counting-sort edges into their CSR rows.
        let mut cursor: Vec<u32> = out_offsets[..n].to_vec();
        for &(src, l, dst) in &self.edges {
            let pos = cursor[src.index()] as usize;
            out_targets[pos] = dst;
            out_elabels[pos] = l;
            cursor[src.index()] += 1;
        }
        (
            Graph::from_parts(self.vlabels, out_offsets, out_targets, out_elabels, in_degrees),
            self.interner,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_preserves_edge_order_within_vertex() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("a");
        let x = b.add_vertex("x");
        let y = b.add_vertex("y");
        b.add_edge(a, x, "e1");
        b.add_edge(a, y, "e2");
        let (g, int) = b.build();
        let out: Vec<_> = g
            .out_edges(a)
            .map(|(l, t)| (int.resolve(l).to_owned(), t))
            .collect();
        assert_eq!(out[0], ("e1".to_owned(), x));
        assert_eq!(out[1], ("e2".to_owned(), y));
    }

    #[test]
    fn interleaved_sources_sorted_into_rows() {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(&format!("n{i}"))).collect();
        b.add_edge(v[0], v[1], "e");
        b.add_edge(v[2], v[3], "e");
        b.add_edge(v[0], v[2], "e");
        b.add_edge(v[1], v[0], "e");
        let (g, _) = b.build();
        assert_eq!(g.children(v[0]), &[v[1], v[2]]);
        assert_eq!(g.children(v[1]), &[v[0]]);
        assert_eq!(g.children(v[2]), &[v[3]]);
        assert!(g.children(v[3]).is_empty());
    }

    #[test]
    fn shared_interner_keeps_ids_stable() {
        let mut b1 = GraphBuilder::new();
        b1.add_vertex("shared");
        let (_, int) = b1.build();
        let shared = int.get("shared").unwrap();
        let mut b2 = GraphBuilder::with_interner(int);
        let v = b2.add_vertex("shared");
        let (g2, int2) = b2.build();
        assert_eq!(g2.label(v), shared);
        assert_eq!(int2.resolve(shared), "shared");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_with_unknown_vertex_panics() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("a");
        b.add_edge(a, VertexId(5), "e");
    }

    #[test]
    fn self_loop_and_parallel_edges_allowed() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("a");
        b.add_edge(a, a, "self");
        b.add_edge(a, a, "self2");
        let (g, _) = b.build();
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 2);
    }

    #[test]
    fn counts_while_building() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("a");
        let c = b.add_vertex("c");
        assert_eq!(b.vertex_count(), 2);
        b.add_edge(a, c, "e");
        assert_eq!(b.edge_count(), 1);
    }
}
