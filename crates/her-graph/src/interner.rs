//! String interning for vertex and edge labels.
//!
//! Labels from the alphabets Θ (vertex labels: values/types) and Φ (edge
//! labels: predicates) are interned to dense [`LabelId`]s so the simulation
//! algorithms compare and hash 4-byte ids instead of strings. A single
//! [`Interner`] is shared between the canonical graph `G_D` and the data
//! graph `G` so a label id means the same string on both sides.

use crate::hash::FxHashMap;
use crate::ids::LabelId;

/// Bidirectional map between label strings and dense [`LabelId`]s.
#[derive(Default, Clone)]
pub struct Interner {
    strings: Vec<String>,
    lookup: FxHashMap<String, LabelId>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its id. Idempotent: the same string always
    /// yields the same id within one interner.
    pub fn intern(&mut self, s: &str) -> LabelId {
        if let Some(&id) = self.lookup.get(s) {
            return id;
        }
        let id = LabelId(self.strings.len() as u32);
        self.strings.push(s.to_owned());
        self.lookup.insert(s.to_owned(), id);
        id
    }

    /// Looks up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<LabelId> {
        self.lookup.get(s).copied()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: LabelId) -> &str {
        &self.strings[id.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(id, string)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (LabelId(i as u32), s.as_str()))
    }
}

impl std::fmt::Debug for Interner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.strings.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("brand");
        let b = i.intern("brand");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let mut i = Interner::new();
        let a = i.intern("country");
        let b = i.intern("brandCountry");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "country");
        assert_eq!(i.resolve(b), "brandCountry");
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let id = i.intern("x");
        assert_eq!(i.get("x"), Some(id));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut i = Interner::new();
        for (n, s) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(i.intern(s), LabelId(n as u32));
        }
    }

    #[test]
    fn iter_yields_all_pairs() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let pairs: Vec<_> = i.iter().map(|(id, s)| (id.0, s.to_owned())).collect();
        assert_eq!(pairs, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
