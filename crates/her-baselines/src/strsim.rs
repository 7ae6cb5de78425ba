//! String similarity primitives shared by the rule-based and feature-based
//! baselines.

use her_graph::hash::FxHashMap;

/// Levenshtein edit distance (iterative two-row DP).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Levenshtein similarity in `[0, 1]`: `1 − dist / max_len`.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

/// Jaccard similarity of whitespace-token sets (lowercased).
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    let sa: std::collections::BTreeSet<String> =
        a.split_whitespace().map(|t| t.to_lowercase()).collect();
    let sb: std::collections::BTreeSet<String> =
        b.split_whitespace().map(|t| t.to_lowercase()).collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union as f64
}

/// Character n-grams of a lowercased string (overlapping, no padding).
pub fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    let chars: Vec<char> = s.to_lowercase().chars().collect();
    if chars.len() < n {
        if chars.is_empty() {
            return Vec::new();
        }
        return vec![chars.iter().collect()];
    }
    (0..=chars.len() - n)
        .map(|i| chars[i..i + n].iter().collect())
        .collect()
}

/// A TF-IDF vector space over character n-grams, built from a corpus of
/// documents (JedAI's "character 4-grams with TF-IDF weights and cosine
/// similarity" configuration).
#[derive(Clone, Debug)]
pub struct TfIdf {
    n: usize,
    idf: FxHashMap<String, f64>,
    docs: usize,
}

impl TfIdf {
    /// Fits IDF weights on a corpus of documents.
    pub fn fit<'a>(corpus: impl IntoIterator<Item = &'a str>, n: usize) -> Self {
        let mut df: FxHashMap<String, usize> = FxHashMap::default();
        let mut docs = 0usize;
        for doc in corpus {
            docs += 1;
            let mut seen = std::collections::BTreeSet::new();
            for g in char_ngrams(doc, n) {
                seen.insert(g);
            }
            for g in seen {
                *df.entry(g).or_insert(0) += 1;
            }
        }
        let idf = df
            .into_iter()
            .map(|(g, d)| (g, ((docs as f64 + 1.0) / (d as f64 + 1.0)).ln() + 1.0))
            .collect();
        Self { n, idf, docs }
    }

    /// The sparse TF-IDF vector of a document.
    pub fn vector(&self, doc: &str) -> FxHashMap<String, f64> {
        let mut tf: FxHashMap<String, f64> = FxHashMap::default();
        for g in char_ngrams(doc, self.n) {
            *tf.entry(g).or_insert(0.0) += 1.0;
        }
        for (g, w) in tf.iter_mut() {
            // Unknown n-grams get the maximal IDF (as rare as possible).
            let idf = self
                .idf
                .get(g)
                .copied()
                .unwrap_or_else(|| (self.docs as f64 + 1.0).ln() + 1.0);
            *w *= idf;
        }
        tf
    }

    /// Cosine similarity of two documents in the fitted space.
    pub fn cosine(&self, a: &str, b: &str) -> f64 {
        let va = self.vector(a);
        let vb = self.vector(b);
        let mut dot = 0.0;
        for (g, wa) in &va {
            if let Some(wb) = vb.get(g) {
                dot += wa * wb;
            }
        }
        let na: f64 = va.values().map(|w| w * w).sum::<f64>().sqrt();
        let nb: f64 = vb.values().map(|w| w * w).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn levenshtein_sim_range() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("a", "a"), 1.0);
        assert_eq!(levenshtein_sim("abc", "xyz"), 0.0);
        let s = levenshtein_sim("Adidas", "Addidas");
        assert!(s > 0.8 && s < 1.0);
    }

    #[test]
    fn jaccard_token_sets() {
        assert_eq!(token_jaccard("red shoe", "red shoe"), 1.0);
        assert_eq!(token_jaccard("red shoe", "blue hat"), 0.0);
        assert!((token_jaccard("red shoe", "RED hat") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(token_jaccard("", ""), 1.0);
    }

    #[test]
    fn ngrams_extraction() {
        assert_eq!(char_ngrams("abcd", 3), vec!["abc", "bcd"]);
        assert_eq!(char_ngrams("ab", 4), vec!["ab"]); // shorter than n
        assert!(char_ngrams("", 4).is_empty());
    }

    #[test]
    fn tfidf_identical_docs_score_one() {
        let t = TfIdf::fit(["dame shoes", "running shoes", "red hat"], 4);
        assert!((t.cosine("dame shoes", "dame shoes") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tfidf_discriminates() {
        let t = TfIdf::fit(["dame basketball shoes", "running shoes", "red hat"], 4);
        let close = t.cosine("dame basketball shoes", "dame basketball shoes d7");
        let far = t.cosine("dame basketball shoes", "red hat");
        assert!(close > far);
        assert!(close > 0.5);
        assert!(far < 0.2);
    }

    #[test]
    fn tfidf_downweights_common_grams() {
        // "shoe" appears in every doc; distinctive prefix matters more.
        let t = TfIdf::fit(["alpha shoes", "bravo shoes", "gamma shoes"], 4);
        let common_only = t.cosine("alpha shoes", "bravo shoes");
        let distinctive = t.cosine("alpha shoes", "alpha boots");
        assert!(distinctive > common_only);
    }

    #[test]
    fn tfidf_empty_docs() {
        let t = TfIdf::fit(["x"], 4);
        assert_eq!(t.cosine("", "anything"), 0.0);
    }
}
