//! Index newtypes for vertices and labels.
//!
//! Using `u32` indices halves the size of adjacency arrays relative to
//! `usize` on 64-bit platforms and keeps hot types small (graphs in the
//! paper's evaluation reach hundreds of millions of vertices/edges; ours are
//! smaller but the idiom is the same).


/// Identifier of a vertex within one [`crate::Graph`].
///
/// Vertex ids are dense: a graph with `n` vertices uses ids `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

/// Identifier of an interned label string (vertex label or edge label).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(pub u32);

impl VertexId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LabelId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Debug for LabelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<u32> for LabelId {
    fn from(v: u32) -> Self {
        LabelId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId(42);
        assert_eq!(v.index(), 42);
        assert_eq!(VertexId::from(42u32), v);
        assert_eq!(format!("{v:?}"), "v42");
        assert_eq!(format!("{v}"), "v42");
    }

    #[test]
    fn label_id_roundtrip() {
        let l = LabelId(7);
        assert_eq!(l.index(), 7);
        assert_eq!(LabelId::from(7u32), l);
        assert_eq!(format!("{l:?}"), "l7");
    }

    #[test]
    fn ids_are_ordered_by_value() {
        assert!(VertexId(1) < VertexId(2));
        assert!(LabelId(0) < LabelId(9));
    }

    #[test]
    fn ids_are_small() {
        assert_eq!(std::mem::size_of::<VertexId>(), 4);
        assert_eq!(std::mem::size_of::<LabelId>(), 4);
        // Option<VertexId> sadly isn't niche-optimised for plain u32, but the
        // raw id stays 4 bytes which is what adjacency arrays store.
    }
}
