//! Database schemas: relation schemas, attributes, foreign keys.


/// A declared foreign key: attribute `attr` of this relation references
/// tuples of relation `target_relation`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForeignKey {
    /// Attribute position within the owning relation schema.
    pub attr: usize,
    /// Index of the referenced relation within the database schema.
    pub target_relation: usize,
}

/// Schema of one relation: `R = (A1, …, Ak)`.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationSchema {
    name: String,
    attrs: Vec<String>,
    foreign_keys: Vec<ForeignKey>,
}

impl RelationSchema {
    /// Creates a schema with the given relation name and attribute names.
    pub fn new(name: &str, attrs: &[&str]) -> Self {
        Self {
            name: name.to_owned(),
            attrs: attrs.iter().map(|a| (*a).to_owned()).collect(),
            foreign_keys: Vec::new(),
        }
    }

    /// Declares that attribute `attr_name` references `target_relation`.
    ///
    /// # Panics
    /// Panics if `attr_name` is not an attribute of this schema.
    pub fn with_foreign_key(mut self, attr_name: &str, target_relation: usize) -> Self {
        let attr = self
            .attr_index(attr_name)
            .unwrap_or_else(|| panic!("unknown attribute {attr_name:?}"));
        self.foreign_keys.push(ForeignKey {
            attr,
            target_relation,
        });
        self
    }

    /// The relation name `R`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attribute names, positionally.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Number of attributes `k`.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Position of attribute `name`.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a == name)
    }

    /// Declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Whether attribute `attr` participates in a foreign key.
    pub fn is_fk_attr(&self, attr: usize) -> bool {
        self.foreign_keys.iter().any(|fk| fk.attr == attr)
    }
}

/// A database schema `R = (R1, …, Rn)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schema {
    relations: Vec<RelationSchema>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a relation schema; returns its index.
    pub fn add_relation(&mut self, rs: RelationSchema) -> usize {
        self.relations.push(rs);
        self.relations.len() - 1
    }

    /// All relation schemas.
    pub fn relations(&self) -> &[RelationSchema] {
        &self.relations
    }

    /// The schema of relation `i`.
    pub fn relation(&self, i: usize) -> &RelationSchema {
        &self.relations[i]
    }

    /// Index of the relation named `name`.
    pub fn relation_index(&self, name: &str) -> Option<usize> {
        self.relations.iter().position(|r| r.name == name)
    }

    /// Number of relations `n`.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the schema declares no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_schema() -> Schema {
        // Tables I and II of the paper.
        let mut s = Schema::new();
        let brand = s.add_relation(RelationSchema::new(
            "brand",
            &["name", "country", "manufacturer", "made_in"],
        ));
        s.add_relation(
            RelationSchema::new("item", &["item", "material", "color", "type", "brand", "qty"])
                .with_foreign_key("brand", brand),
        );
        s
    }

    #[test]
    fn relation_lookup() {
        let s = paper_schema();
        assert_eq!(s.len(), 2);
        assert_eq!(s.relation_index("item"), Some(1));
        assert_eq!(s.relation_index("nope"), None);
        assert_eq!(s.relation(0).name(), "brand");
    }

    #[test]
    fn attr_lookup() {
        let s = paper_schema();
        let item = s.relation(1);
        assert_eq!(item.arity(), 6);
        assert_eq!(item.attr_index("color"), Some(2));
        assert_eq!(item.attr_index("missing"), None);
    }

    #[test]
    fn foreign_keys_resolve() {
        let s = paper_schema();
        let item = s.relation(1);
        let fks = item.foreign_keys();
        assert_eq!(fks.len(), 1);
        assert_eq!(fks[0].attr, item.attr_index("brand").unwrap());
        assert_eq!(fks[0].target_relation, 0);
        assert!(item.is_fk_attr(fks[0].attr));
        assert!(!item.is_fk_attr(0));
    }

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn fk_on_missing_attr_panics() {
        let _ = RelationSchema::new("r", &["a"]).with_foreign_key("b", 0);
    }
}
