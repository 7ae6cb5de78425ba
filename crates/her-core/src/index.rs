//! Inverted-index blocking for candidate generation.
//!
//! §VI remarks that HER uses inverted indices on "critical information" to
//! locate candidate vertices quickly (e.g. papers of the same year share a
//! block), in place of classic blocking which would break the recursive
//! descendant checks. [`InvertedIndex`] maps label tokens to the vertices
//! carrying them; a query's *pool* is the union of its tokens' posting
//! lists.
//!
//! The pool is deliberately loose — any one shared non-stop token admits
//! a vertex (2 746 of 10 943 per tuple on the benchmark's data, which is
//! what `core.candidates_per_tuple` reports) — because it is not what gets
//! enumerated: [`crate::vpair::candidates`] narrows it to the vertices that
//! pass `h_v ≥ σ` *and* whose first `MaxSco` bound reaches δ (*bound before
//! enumerate*, DESIGN.md §4f). What the index owes that filter is a pool
//! with no false dismissals, cheaply: a dataset's token vocabulary is
//! small (Cappuzzo et al., PAPERS.md), so tokens are interned, posting
//! lists are sorted `u32` slices of one arena, every label known at build
//! time is tokenised once into a token-id table, and a query by vertex
//! ([`InvertedIndex::pool`]) touches no string at all.

use her_embed::tokenize::tokenize;
use her_graph::hash::FxHashMap;
use her_graph::{Graph, Interner, VertexId};

/// `items[offsets[i]..offsets[i + 1]]`: row `i` of a table kept as one
/// arena with offsets.
fn row<'a, T>(items: &'a [T], offsets: &[u32], i: usize) -> &'a [T] {
    &items[offsets[i] as usize..offsets[i + 1] as usize]
}

/// Token → posting-list index over the vertex labels of one graph.
pub struct InvertedIndex {
    /// Token → its id, for the tokens of every label known at build time.
    tokens: FxHashMap<Box<str>, u32>,
    /// Row `t`: the posting list of token `t`, ascending vertex ids.
    offsets: Vec<u32>,
    postings: Vec<VertexId>,
    /// Row `l`: the token ids of label `l`, first occurrences in label
    /// order, for every label the interner held at build time.
    label_offsets: Vec<u32>,
    label_tokens: Vec<u32>,
    vertex_count: usize,
}

impl InvertedIndex {
    /// Indexes every vertex of `g` under each token of its label *and* the
    /// labels of its children. Entity vertices carry generic type labels
    /// ("item", "person"), so the paper's "critical information" — the
    /// attribute values one hop away (colours, years, names) — is what
    /// actually blocks.
    pub fn build(g: &Graph, interner: &Interner) -> Self {
        // Every label known now is tokenised once, whichever side carries
        // it: `G_D` queries with labels `g` may lack (their tokens get
        // ids too, and empty posting lists).
        let mut tokens: FxHashMap<Box<str>, u32> = FxHashMap::default();
        let mut label_offsets = Vec::with_capacity(interner.len() + 1);
        let mut label_tokens: Vec<u32> = Vec::new();
        label_offsets.push(0);
        for (_, label) in interner.iter() {
            let from = label_tokens.len();
            for t in tokenize(label) {
                let next = tokens.len() as u32;
                let id = *tokens.entry(t.into_boxed_str()).or_insert(next);
                if !label_tokens[from..].contains(&id) {
                    label_tokens.push(id);
                }
            }
            label_offsets.push(label_tokens.len() as u32);
        }
        // Postings in two passes over the vertices (count, then fill), so
        // each list lands in the arena already in id order.
        let mut mine: Vec<u32> = Vec::new();
        let tokens_of = |v: VertexId, mine: &mut Vec<u32>| {
            mine.clear();
            for x in std::iter::once(v).chain(g.children(v).iter().copied()) {
                mine.extend_from_slice(row(&label_tokens, &label_offsets, g.label(x).index()));
            }
            mine.sort_unstable();
            mine.dedup();
        };
        let mut offsets = vec![0u32; tokens.len() + 1];
        for v in g.vertices() {
            tokens_of(v, &mut mine);
            for &t in &mine {
                offsets[t as usize + 1] += 1;
            }
        }
        for t in 0..tokens.len() {
            offsets[t + 1] += offsets[t];
        }
        let mut next = offsets.clone();
        let mut postings = vec![VertexId(0); offsets[tokens.len()] as usize];
        for v in g.vertices() {
            tokens_of(v, &mut mine);
            for &t in &mine {
                postings[next[t as usize] as usize] = v;
                next[t as usize] += 1;
            }
        }
        Self {
            tokens,
            offsets,
            postings,
            label_offsets,
            label_tokens,
            vertex_count: g.vertex_count(),
        }
    }

    /// The union of the posting lists of `query` (token ids in query
    /// order), deduplicated, in id order — see [`Self::candidates`] for
    /// the stop-token rule.
    fn union(&self, query: impl Iterator<Item = u32>) -> Vec<VertexId> {
        // One bit per vertex: set per posting, read back in id order.
        let mut bits = vec![0u64; self.vertex_count.div_ceil(64)];
        let mut mark = |list: &[VertexId]| {
            for v in list {
                bits[v.index() / 64] |= 1 << (v.index() % 64);
            }
        };
        // Tokens on more than half of the vertices are stop tokens,
        // skipped at query time (they destroy selectivity).
        let stop_len = ((self.vertex_count as f64) * 0.5).max(1.0) as usize;
        let mut found = 0usize;
        let mut fallback: Option<&[VertexId]> = None;
        for t in query {
            let list = row(&self.postings, &self.offsets, t as usize);
            if list.len() > stop_len {
                // Stop token: remember the most selective one in case
                // no non-stop token survives.
                if fallback.is_none_or(|f| list.len() < f.len()) {
                    fallback = Some(list);
                }
                continue;
            }
            found += list.len();
            mark(list);
        }
        if found == 0 {
            if let Some(list) = fallback {
                return list.to_vec();
            }
        }
        let mut out = Vec::with_capacity(found.min(self.vertex_count));
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                out.push(VertexId((w * 64) as u32 + word.trailing_zeros()));
                word &= word - 1;
            }
        }
        out
    }

    /// Vertices whose label shares at least one non-stop token with `label`,
    /// deduplicated, in id order.
    ///
    /// When *every* indexed query token is a stop token, skipping them all
    /// would return no candidates at all — silently losing every true
    /// match and breaking blocking-vs-scan equivalence on skewed label
    /// distributions. In that case the least-frequent (most selective)
    /// stop token's posting list is used as a fallback: a superset of the
    /// vertices sharing all query tokens, so recall is preserved. Tokens
    /// absent from the index contribute nothing either way.
    pub fn candidates(&self, label: &str) -> Vec<VertexId> {
        let query = tokenize(label);
        self.union(query.iter().filter_map(|t| self.tokens.get(t.as_str()).copied()))
    }

    /// The pool of `u ∈ G_D`: exactly
    /// `self.candidates(&blocking_query(gd, interner, u))`, without
    /// building the query — labels known at build time contribute their
    /// token ids; one interned since is tokenised here.
    pub fn pool(&self, gd: &Graph, interner: &Interner, u: VertexId) -> Vec<VertexId> {
        let labels = std::iter::once(u).chain(gd.children(u).iter().copied());
        let mut query: Vec<u32> = Vec::new();
        for l in labels.map(|x| gd.label(x)) {
            if l.index() + 1 < self.label_offsets.len() {
                query.extend_from_slice(row(&self.label_tokens, &self.label_offsets, l.index()));
            } else {
                let late = tokenize(interner.resolve(l));
                query.extend(late.iter().filter_map(|t| self.tokens.get(t.as_str()).copied()));
            }
        }
        self.union(query.into_iter())
    }

    /// Number of distinct tokens of the labels known at build time.
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }
}

/// The blocking query for a `G_D` vertex: its own label plus its children's
/// labels (the tuple's attribute values), mirroring what [`InvertedIndex::build`]
/// indexes on the `G` side.
pub fn blocking_query(gd: &Graph, interner: &Interner, u: VertexId) -> String {
    let mut q = interner.resolve(gd.label(u)).to_owned();
    for &c in gd.children(u) {
        q.push(' ');
        q.push_str(interner.resolve(gd.label(c)));
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use her_graph::GraphBuilder;

    fn graph() -> (Graph, Interner, Vec<VertexId>) {
        let mut b = GraphBuilder::new();
        let shoes = b.add_vertex("Dame Basketball Shoes");
        let running = b.add_vertex("Lightweight Running Shoes");
        let germany = b.add_vertex("Germany");
        let dame7 = b.add_vertex("Dame Gen 7");
        let (g, i) = b.build();
        (g, i, vec![shoes, running, germany, dame7])
    }

    #[test]
    fn shared_token_yields_candidates() {
        let (g, i, vs) = graph();
        let idx = InvertedIndex::build(&g, &i);
        let c = idx.candidates("Dame Basketball Shoes D7");
        assert!(c.contains(&vs[0]));
        assert!(c.contains(&vs[3])); // shares "dame"
        assert!(c.contains(&vs[1])); // shares "shoes"
        assert!(!c.contains(&vs[2]));
    }

    #[test]
    fn no_shared_tokens_no_candidates() {
        let (g, i, _) = graph();
        let idx = InvertedIndex::build(&g, &i);
        assert!(idx.candidates("phylon foam").is_empty());
    }

    #[test]
    fn candidates_are_sorted_and_unique() {
        let (g, i, _) = graph();
        let idx = InvertedIndex::build(&g, &i);
        let c = idx.candidates("Dame Shoes");
        let mut sorted = c.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(c, sorted);
    }

    #[test]
    fn stop_tokens_skipped() {
        // "common" appears on >50% of vertices → it is skipped whenever a
        // more selective token is available.
        let mut b = GraphBuilder::new();
        for i in 0..10 {
            b.add_vertex(&format!("common label {i}"));
        }
        b.add_vertex("rare gem");
        let (g, i) = b.build();
        let idx = InvertedIndex::build(&g, &i);
        assert_eq!(idx.candidates("rare gem").len(), 1);
        // Specific tokens still work even if combined with stop tokens:
        // the stop token's 10-vertex list is not unioned in.
        assert_eq!(idx.candidates("common 3").len(), 1);
    }

    /// Regression: a query whose every indexed token is a stop token used
    /// to return *no* candidates, silently losing all true matches on
    /// skewed label distributions. It now falls back to the least-frequent
    /// stop token's posting list.
    #[test]
    fn all_stop_token_query_falls_back_to_most_selective_list() {
        let mut b = GraphBuilder::new();
        // >50% of vertices share every query token ("common" on all 10,
        // "label" on 6) — both are stop tokens in an 11-vertex graph.
        let mut with_label = Vec::new();
        for i in 0..10 {
            let v = if i < 6 {
                b.add_vertex(&format!("common label {i}"))
            } else {
                b.add_vertex(&format!("common thing {i}"))
            };
            if i < 6 {
                with_label.push(v);
            }
        }
        b.add_vertex("rare gem");
        let (g, i) = b.build();
        let idx = InvertedIndex::build(&g, &i);
        // "label" (6 vertices) is more selective than "common" (10): the
        // fallback is exactly its posting list.
        assert_eq!(idx.candidates("common label"), with_label);
        // A single all-stop token falls back to its own list.
        assert_eq!(idx.candidates("common").len(), 10);
        // Tokens absent from the index still yield nothing.
        assert!(idx.candidates("phylon foam").is_empty());
    }

    #[test]
    fn token_count_reflects_vocabulary() {
        let (g, i, _) = graph();
        let idx = InvertedIndex::build(&g, &i);
        assert!(idx.token_count() >= 7);
    }
}
