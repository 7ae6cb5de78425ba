//! Tuples and tuple references.

use crate::value::Value;

/// A stable reference to a tuple: `(relation index, row index)` within one
/// [`crate::Database`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleRef {
    /// Index of the relation within the database schema.
    pub relation: u32,
    /// Row index within that relation.
    pub row: u32,
}

impl TupleRef {
    /// Creates a reference to row `row` of relation `relation`.
    pub fn new(relation: u32, row: u32) -> Self {
        Self { relation, row }
    }
}

impl std::fmt::Debug for TupleRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}.{}", self.relation, self.row)
    }
}

/// One tuple: a vector of [`Value`]s positionally matching its relation
/// schema's attributes.
#[derive(Clone, PartialEq, Debug)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from its attribute values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// The value at attribute position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// All values, positionally.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_access() {
        let t = Tuple::new(vec![Value::str("Dame 7"), Value::Int(500)]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), &Value::str("Dame 7"));
        assert_eq!(t.get(1), &Value::Int(500));
    }

    #[test]
    fn tuple_ref_identity() {
        let a = TupleRef::new(1, 2);
        let b = TupleRef::new(1, 2);
        let c = TupleRef::new(2, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(format!("{a:?}"), "t1.2");
    }

    #[test]
    fn tuple_ref_ordering_groups_by_relation() {
        assert!(TupleRef::new(0, 9) < TupleRef::new(1, 0));
        assert!(TupleRef::new(1, 0) < TupleRef::new(1, 1));
    }
}
