//! Attribute values.

use crate::tuple::TupleRef;

/// A single attribute value in a tuple.
///
/// `Ref` values implement foreign keys: the value *is* the referenced tuple
/// (Table I's `brand` column holds `b1`, a reference into relation `brand`).
#[derive(Clone, PartialEq)]
pub enum Value {
    /// SQL NULL. RDB2RDF maps no vertex for a null attribute.
    Null,
    /// A string value.
    Str(String),
    /// An integer value.
    Int(i64),
    /// A floating-point value.
    Float(f64),
    /// A foreign-key reference to another tuple.
    Ref(TupleRef),
}

impl Value {
    /// Renders the value as the label string RDB2RDF attaches to the
    /// attribute vertex. `None` for NULL and for references (which become
    /// edges, not attribute vertices).
    pub fn as_label(&self) -> Option<String> {
        match self {
            Value::Null | Value::Ref(_) => None,
            Value::Str(s) => Some(s.clone()),
            Value::Int(i) => Some(i.to_string()),
            Value::Float(f) => Some(format_float(*f)),
        }
    }

    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The referenced tuple, if this is a foreign-key value.
    pub fn as_ref(&self) -> Option<TupleRef> {
        match self {
            Value::Ref(r) => Some(*r),
            _ => None,
        }
    }

    /// Convenience constructor from `&str`.
    pub fn str(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

fn format_float(f: f64) -> String {
    if f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{:.1}", f)
    } else {
        format!("{}", f)
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Ref(r) => write!(f, "&{r:?}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<TupleRef> for Value {
    fn from(r: TupleRef) -> Self {
        Value::Ref(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_for_scalars() {
        assert_eq!(Value::str("white").as_label().as_deref(), Some("white"));
        assert_eq!(Value::Int(500).as_label().as_deref(), Some("500"));
        assert_eq!(Value::Float(2.5).as_label().as_deref(), Some("2.5"));
        assert_eq!(Value::Float(2.0).as_label().as_deref(), Some("2.0"));
    }

    #[test]
    fn null_and_ref_have_no_label() {
        assert_eq!(Value::Null.as_label(), None);
        let r = TupleRef::new(0, 3);
        assert_eq!(Value::Ref(r).as_label(), None);
        assert_eq!(Value::Ref(r).as_ref(), Some(r));
        assert_eq!(Value::str("x").as_ref(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from("a"), Value::str("a"));
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }
}
