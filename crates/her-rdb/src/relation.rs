//! Relation instances.

use crate::tuple::Tuple;

/// An instance of one relation schema: an ordered collection of tuples.
///
/// (The paper treats relations as sets; we keep insertion order so row
/// indices are stable [`crate::TupleRef`] targets.)
#[derive(Clone, Debug, Default)]
pub struct Relation {
    tuples: Vec<Tuple>,
}

impl Relation {
    /// An empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a tuple; returns its row index.
    pub fn push(&mut self, t: Tuple) -> u32 {
        self.tuples.push(t);
        (self.tuples.len() - 1) as u32
    }

    /// The tuple at `row`.
    pub fn get(&self, row: u32) -> &Tuple {
        &self.tuples[row as usize]
    }

    /// All tuples in row order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn push_and_get() {
        let mut r = Relation::new();
        assert!(r.is_empty());
        let row = r.push(Tuple::new(vec![Value::str("a")]));
        assert_eq!(row, 0);
        let row2 = r.push(Tuple::new(vec![Value::str("b")]));
        assert_eq!(row2, 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(1).get(0), &Value::str("b"));
    }
}
