//! Databases: a schema plus one relation instance per relation schema.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::{Tuple, TupleRef};
use crate::value::Value;

/// A database `D = (D1, …, Dn)` of schema `R = (R1, …, Rn)`.
#[derive(Clone, Debug)]
pub struct Database {
    schema: Schema,
    relations: Vec<Relation>,
}

impl Database {
    /// Creates an empty database with one empty relation per schema entry.
    pub fn new(schema: Schema) -> Self {
        let relations = (0..schema.len()).map(|_| Relation::new()).collect();
        Self { schema, relations }
    }

    /// The database schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Inserts `tuple` into relation `relation`; returns its reference.
    ///
    /// # Panics
    /// Panics if the tuple arity does not match the relation schema.
    pub fn insert(&mut self, relation: usize, tuple: Tuple) -> TupleRef {
        assert_eq!(
            tuple.arity(),
            self.schema.relation(relation).arity(),
            "tuple arity must match schema of relation {:?}",
            self.schema.relation(relation).name()
        );
        let row = self.relations[relation].push(tuple);
        TupleRef::new(relation as u32, row)
    }

    /// Convenience: insert by relation name.
    pub fn insert_into(&mut self, relation_name: &str, tuple: Tuple) -> TupleRef {
        let idx = self
            .schema
            .relation_index(relation_name)
            .unwrap_or_else(|| panic!("unknown relation {relation_name:?}"));
        self.insert(idx, tuple)
    }

    /// The tuple referenced by `r`.
    pub fn tuple(&self, r: TupleRef) -> &Tuple {
        self.relations[r.relation as usize].get(r.row)
    }

    /// The relation instance at index `i`.
    pub fn relation(&self, i: usize) -> &Relation {
        &self.relations[i]
    }

    /// Iterates over every tuple in the database with its reference.
    pub fn tuples(&self) -> impl Iterator<Item = (TupleRef, &Tuple)> {
        self.relations.iter().enumerate().flat_map(|(ri, rel)| {
            rel.tuples()
                .iter()
                .enumerate()
                .map(move |(row, t)| (TupleRef::new(ri as u32, row as u32), t))
        })
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// The value of attribute `attr_name` of tuple `r`, if the attribute
    /// exists in the owning relation's schema.
    pub fn attr_value(&self, r: TupleRef, attr_name: &str) -> Option<&Value> {
        let rs = self.schema.relation(r.relation as usize);
        let i = rs.attr_index(attr_name)?;
        Some(self.tuple(r).get(i))
    }

    /// Validates that every `Value::Ref` points at an existing tuple of the
    /// relation its foreign key declares. Returns the offending references.
    pub fn dangling_refs(&self) -> Vec<(TupleRef, usize)> {
        let mut bad = Vec::new();
        for (tr, t) in self.tuples() {
            let rs = self.schema.relation(tr.relation as usize);
            for (i, v) in t.values().iter().enumerate() {
                if let Value::Ref(target) = v {
                    let declared = rs
                        .foreign_keys()
                        .iter()
                        .find(|fk| fk.attr == i)
                        .map(|fk| fk.target_relation);
                    let ok = declared == Some(target.relation as usize)
                        && (target.row as usize)
                            < self.relations[target.relation as usize].len();
                    if !ok {
                        bad.push((tr, i));
                    }
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;

    fn db() -> Database {
        let mut s = Schema::new();
        let brand = s.add_relation(RelationSchema::new("brand", &["name", "country"]));
        s.add_relation(
            RelationSchema::new("item", &["item", "brand"]).with_foreign_key("brand", brand),
        );
        Database::new(s)
    }

    #[test]
    fn insert_and_lookup() {
        let mut d = db();
        let b = d.insert_into(
            "brand",
            Tuple::new(vec![Value::str("Addidas"), Value::str("Germany")]),
        );
        let t = d.insert_into(
            "item",
            Tuple::new(vec![Value::str("Shoes"), Value::Ref(b)]),
        );
        assert_eq!(d.tuple_count(), 2);
        assert_eq!(d.attr_value(t, "item"), Some(&Value::str("Shoes")));
        assert_eq!(d.attr_value(b, "country"), Some(&Value::str("Germany")));
        assert_eq!(d.attr_value(t, "nope"), None);
    }

    #[test]
    fn tuples_iterates_all_with_refs() {
        let mut d = db();
        let b = d.insert_into(
            "brand",
            Tuple::new(vec![Value::str("A"), Value::str("DE")]),
        );
        d.insert_into("item", Tuple::new(vec![Value::str("x"), Value::Ref(b)]));
        d.insert_into("item", Tuple::new(vec![Value::str("y"), Value::Ref(b)]));
        let refs: Vec<TupleRef> = d.tuples().map(|(r, _)| r).collect();
        assert_eq!(
            refs,
            vec![
                TupleRef::new(0, 0),
                TupleRef::new(1, 0),
                TupleRef::new(1, 1)
            ]
        );
    }

    #[test]
    fn fk_validation_flags_dangling() {
        let mut d = db();
        // Reference a brand row that does not exist.
        d.insert_into(
            "item",
            Tuple::new(vec![Value::str("x"), Value::Ref(TupleRef::new(0, 7))]),
        );
        assert_eq!(d.dangling_refs().len(), 1);
    }

    #[test]
    fn fk_validation_flags_wrong_relation() {
        let mut d = db();
        let b = d.insert_into(
            "brand",
            Tuple::new(vec![Value::str("A"), Value::str("DE")]),
        );
        let i = d.insert_into("item", Tuple::new(vec![Value::str("x"), Value::Ref(b)]));
        assert!(d.dangling_refs().is_empty());
        // A ref on an attribute with no declared FK (or to the wrong relation) is flagged.
        d.insert_into("item", Tuple::new(vec![Value::Ref(i), Value::Ref(b)]));
        assert_eq!(d.dangling_refs().len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut d = db();
        d.insert_into("brand", Tuple::new(vec![Value::str("just one")]));
    }
}
