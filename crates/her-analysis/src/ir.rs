//! Item spans: where each braced `fn` / `impl` / `trait` / `mod` starts
//! and ends, so a waiver comment on (or directly above) an item's header
//! can cover the whole item ([`crate::rules::apply_waivers`]). No `syn`,
//! no grammar — one pass over the token stream counting braces.

use crate::lexer::{Tok, TokKind};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    /// `impl` and `trait` blocks alike.
    Impl,
    Mod,
}

/// A braced item's source span.
#[derive(Clone, Debug)]
pub struct ItemSpan {
    pub kind: ItemKind,
    /// 1-based line of the item keyword (`fn` / `impl` / `mod`).
    pub line: u32,
    /// 1-based line of the closing brace.
    pub end_line: u32,
}

/// Every braced item in `toks`, innermost first where they nest.
pub fn item_spans(toks: &[Tok]) -> Vec<ItemSpan> {
    let mut items = Vec::new();
    // Open items: (kind, header line, brace depth of the body).
    let mut open: Vec<(ItemKind, u32, u32)> = Vec::new();
    let mut depth = 0u32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let kind = match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "fn") => Some(ItemKind::Fn),
            (TokKind::Ident, "impl" | "trait") => Some(ItemKind::Impl),
            (TokKind::Ident, "mod") => Some(ItemKind::Mod),
            _ => None,
        };
        if let Some(kind) = kind {
            if let Some(brace) = body_open(toks, i, kind != ItemKind::Impl) {
                depth += 1;
                open.push((kind, t.line, depth));
                i = brace + 1;
                continue;
            }
        }
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => {
                if let Some(&(kind, line, _)) = open.last().filter(|o| o.2 == depth) {
                    open.pop();
                    items.push(ItemSpan {
                        kind,
                        line,
                        end_line: t.line,
                    });
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        i += 1;
    }
    items
}

/// Index of the `{` opening the body of the item whose keyword sits at
/// `at`, or `None` for a bodiless declaration (`fn f();`, `mod m;`) and
/// for `fn` used as a type (`fn(u32) -> u32`).
fn body_open(toks: &[Tok], at: usize, named: bool) -> Option<usize> {
    if named && toks.get(at + 1).is_none_or(|n| n.kind != TokKind::Ident) {
        return None;
    }
    // The `;` of `[u8; 4]` sits at depth 1 and is not the item's own. An
    // `impl Trait` met inside the parameter list of a bodiless fn leaves
    // that list at negative depth, where the fn's `;` still ends it.
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(at + 1) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth <= 0 => return Some(i),
            ";" if depth <= 0 => return None,
            _ => {}
        }
    }
    None
}

/// Finds the matching close for the bracket at `open` (e.g. `[`/`]`,
/// `(`/`)`, `{`/`}`). Returns the close index, or the last token.
pub fn match_bracket(toks: &[Tok], open: usize, o: &str, c: &str) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].text == o {
            depth += 1;
        } else if toks[i].text == c {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct File {
        items: Vec<ItemSpan>,
    }

    fn file(src: &str) -> File {
        let items = item_spans(&crate::lexer::lex(src).toks);
        File { items }
    }

    #[test]
    fn item_spans_cover_headers_to_closing_braces() {
        let f = file("fn a() {\n  body();\n}\n\nmod m {\n  fn b() {}\n}\n");
        let spans: Vec<_> = f.items.iter().map(|s| (s.kind, s.line, s.end_line)).collect();
        assert!(spans.contains(&(ItemKind::Fn, 1, 3)));
        assert!(spans.contains(&(ItemKind::Mod, 5, 7)));
        assert!(spans.contains(&(ItemKind::Fn, 6, 6)));
    }
}
