//! Paths and their edge-label sequences.
//!
//! §III defines a path `ρ = (v0, v1, …, vl)` with length `len(ρ) = l` (number
//! of edges); only *simple* paths (no repeated vertex) are considered. The
//! score function `h_ρ` and the schema-match machinery both consume the
//! sequence of edge labels along a path, `L(ρ)`.

use crate::graph::Graph;
use crate::ids::{LabelId, VertexId};

/// A path through a [`Graph`]: `l + 1` vertices joined by `l` labeled edges.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path {
    vertices: Vec<VertexId>,
    edge_labels: Vec<LabelId>,
}

impl Path {
    /// A zero-length path consisting of the single vertex `start`.
    pub fn trivial(start: VertexId) -> Self {
        Self {
            vertices: vec![start],
            edge_labels: Vec::new(),
        }
    }

    /// Builds a path from explicit vertex and edge-label sequences.
    ///
    /// # Panics
    /// Panics unless `vertices.len() == edge_labels.len() + 1`.
    pub fn new(vertices: Vec<VertexId>, edge_labels: Vec<LabelId>) -> Self {
        assert_eq!(
            vertices.len(),
            edge_labels.len() + 1,
            "a path with l edges has l + 1 vertices"
        );
        Self {
            vertices,
            edge_labels,
        }
    }

    /// `len(ρ)`: the number of edges on the path.
    #[inline]
    pub fn len(&self) -> usize {
        self.edge_labels.len()
    }

    /// Whether the path has zero edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edge_labels.is_empty()
    }

    /// The first vertex `v0`.
    #[inline]
    pub fn start(&self) -> VertexId {
        self.vertices[0]
    }

    /// The last vertex `vl`.
    #[inline]
    pub fn end(&self) -> VertexId {
        *self.vertices.last().expect("a path has at least one vertex")
    }

    /// All vertices on the path, in order.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// `L(ρ)`: the edge labels along the path, in order.
    #[inline]
    pub fn edge_labels(&self) -> &[LabelId] {
        &self.edge_labels
    }

    /// Whether no vertex repeats (a *simple* path).
    pub fn is_simple(&self) -> bool {
        let mut seen = crate::hash::fx_set_with_capacity(self.vertices.len());
        self.vertices.iter().all(|v| seen.insert(*v))
    }

    /// Whether appending `v` would revisit a vertex already on the path.
    pub fn would_cycle(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// Appends the edge `end() --label--> v`.
    pub fn push(&mut self, label: LabelId, v: VertexId) {
        self.edge_labels.push(label);
        self.vertices.push(v);
    }

    /// The prefix with the first `edges` edges (`edges ≤ len()`).
    pub fn prefix(&self, edges: usize) -> Path {
        assert!(edges <= self.len());
        Path {
            vertices: self.vertices[..=edges].to_vec(),
            edge_labels: self.edge_labels[..edges].to_vec(),
        }
    }

    /// All non-trivial prefixes of the path, shortest first.
    pub fn prefixes(&self) -> impl Iterator<Item = Path> + '_ {
        (1..=self.len()).map(|l| self.prefix(l))
    }

    /// Checks the path is consistent with `g`: every consecutive pair is an
    /// edge in `g` carrying the recorded label.
    pub fn validate(&self, g: &Graph) -> bool {
        self.vertices.windows(2).zip(&self.edge_labels).all(
            |(w, &l)| {
                g.out_edges(w[0]).any(|(el, t)| el == l && t == w[1])
            },
        )
    }

    /// Renders `L(ρ)` as a human-readable string, e.g. `(factorySite, isIn, isIn)`.
    pub fn label_string(&self, interner: &crate::Interner) -> String {
        let labels: Vec<&str> = self
            .edge_labels
            .iter()
            .map(|&l| interner.resolve(l))
            .collect();
        format!("({})", labels.join(", "))
    }
}

impl std::fmt::Debug for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Path[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, " -{:?}-> ", self.edge_labels[i - 1])?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn chain() -> (Graph, crate::Interner, Vec<VertexId>) {
        // v0 -a-> v1 -b-> v2 -c-> v3
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..4).map(|i| b.add_vertex(&format!("n{i}"))).collect();
        b.add_edge(vs[0], vs[1], "a");
        b.add_edge(vs[1], vs[2], "b");
        b.add_edge(vs[2], vs[3], "c");
        let (g, int) = b.build();
        (g, int, vs)
    }

    fn chain_path(g: &Graph, vs: &[VertexId]) -> Path {
        let mut p = Path::trivial(vs[0]);
        for w in vs.windows(2) {
            p.push(g.edge_label(w[0], w[1]).unwrap(), w[1]);
        }
        p
    }

    #[test]
    fn trivial_path() {
        let p = Path::trivial(VertexId(3));
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.start(), p.end());
        assert!(p.is_simple());
    }

    #[test]
    fn push_and_len() {
        let (g, _, vs) = chain();
        let p = chain_path(&g, &vs);
        assert_eq!(p.len(), 3);
        assert_eq!(p.start(), vs[0]);
        assert_eq!(p.end(), vs[3]);
        assert!(p.validate(&g));
    }

    #[test]
    fn label_string_rendering() {
        let (g, int, vs) = chain();
        let p = chain_path(&g, &vs);
        assert_eq!(p.label_string(&int), "(a, b, c)");
    }

    #[test]
    fn prefixes_are_ordered_and_valid() {
        let (g, _, vs) = chain();
        let p = chain_path(&g, &vs);
        let prefs: Vec<_> = p.prefixes().collect();
        assert_eq!(prefs.len(), 3);
        assert_eq!(prefs[0].len(), 1);
        assert_eq!(prefs[2].len(), 3);
        assert!(prefs.iter().all(|q| q.validate(&g)));
        assert_eq!(prefs[1].end(), vs[2]);
    }

    #[test]
    fn cycle_detection() {
        let p = Path::new(vec![VertexId(0), VertexId(1)], vec![LabelId(0)]);
        assert!(p.would_cycle(VertexId(0)));
        assert!(!p.would_cycle(VertexId(2)));
        let cyclic = Path::new(
            vec![VertexId(0), VertexId(1), VertexId(0)],
            vec![LabelId(0), LabelId(1)],
        );
        assert!(!cyclic.is_simple());
    }

    #[test]
    fn validate_rejects_fabricated_edges() {
        let (g, _, vs) = chain();
        let bogus = Path::new(vec![vs[0], vs[2]], vec![LabelId(0)]);
        assert!(!bogus.validate(&g));
    }

    #[test]
    #[should_panic(expected = "l + 1 vertices")]
    fn mismatched_lengths_panic() {
        let _ = Path::new(vec![VertexId(0)], vec![LabelId(0)]);
    }
}
