//! Minimal hand-rolled JSON emission.
//!
//! `her-obs` is deliberately zero-dependency, so snapshots serialize
//! through this tiny writer. It covers exactly what telemetry needs:
//! objects, arrays, strings (with escaping), integers, and floats
//! (non-finite values become `null`, which keeps consumers honest).

use std::fmt::Write as _;

/// Escapes `s` per RFC 8259 and appends it, quoted, to `out`.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` as a JSON number; non-finite values become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` round-trips f64 (shortest representation) and always
        // includes a decimal point or exponent, so it parses as a float.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends a `u64` as a JSON number.
pub fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Builder for a JSON object; tracks comma placement.
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    pub fn begin(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_str(self.out, key);
        self.out.push(':');
    }

    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        push_str(self.out, value);
        self
    }

    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        push_u64(self.out, value);
        self
    }

    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        push_f64(self.out, value);
        self
    }

    /// Appends `key: <raw>` where `raw` is already-serialized JSON.
    pub fn field_raw(&mut self, key: &str, raw: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(raw);
        self
    }

    pub fn end(self) {
        self.out.push('}');
    }
}

/// Builder for a JSON array; tracks comma placement.
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Arr<'a> {
    pub fn begin(out: &'a mut String) -> Self {
        out.push('[');
        Arr { out, first: true }
    }

    fn sep(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
    }

    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        push_u64(self.out, v);
        self
    }

    /// Hands the caller the output buffer positioned for the next element.
    pub fn element(&mut self) -> &mut String {
        self.sep();
        self.out
    }

    pub fn end(self) {
        self.out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_round_trip_and_nonfinite_is_null() {
        let mut s = String::new();
        push_f64(&mut s, 0.5);
        s.push(',');
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "0.5,null");
    }

    #[test]
    fn object_and_array_commas() {
        let mut s = String::new();
        let mut o = Obj::begin(&mut s);
        o.field_str("name", "x").field_u64("n", 3).field_f64("f", 1.5);
        o.end();
        assert_eq!(s, r#"{"name":"x","n":3,"f":1.5}"#);

        let mut s = String::new();
        let mut a = Arr::begin(&mut s);
        a.push_u64(1).push_u64(2);
        a.end();
        assert_eq!(s, "[1,2]");
    }
}
