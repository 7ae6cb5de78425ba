//! The edge/path model `M_ρ`: metric learning over edge-label sequences.
//!
//! §IV trains `M_ρ` in three phases, all reproduced here with pure-Rust
//! stand-ins:
//!
//! 1. **Pre-training** on a corpus of edge-label sequences gathered by
//!    random walks ([`PathSimModel::pretrain`]), teaching the model the
//!    generic notion "overlapping sequences are similar";
//! 2. **Supervised training** on annotated matching/non-matching path pairs
//!    ([`PathSimModel::train`]), teaching dataset-specific predicate
//!    correspondences (e.g. `made_in` ≈ `(factorySite, isIn, isIn)`);
//! 3. **Fine-tuning** from user feedback with a triplet ranking loss
//!    ([`PathSimModel::fine_tune_triplet`], §IV "Interaction and
//!    refinement").
//!
//! The encoder ([`SeqEncoder`]) replaces BERT; the similarity head is a
//! 3-layer [`Mlp`] over `[v1 ⊙ v2, |v1 − v2|, cos, Δlen]` features.

use crate::mlp::Mlp;
use crate::seq::SeqEncoder;
use crate::vec_ops::{abs_diff, cos_to_unit, cosine, hadamard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An annotated path pair for supervised training: the two edge-label
/// sequences and whether they denote the same association.
pub type LabeledPair = (Vec<String>, Vec<String>, bool);

/// `M_ρ`: scores the similarity of two edge-label sequences in `[0, 1]`.
#[derive(Clone, Debug)]
pub struct PathSimModel {
    encoder: SeqEncoder,
    mlp: Mlp,
}

impl PathSimModel {
    /// Creates an untrained model with `dim`-dimensional sequence
    /// embeddings. `seed` fixes the network initialisation.
    pub fn new(dim: usize, seed: u64) -> Self {
        let hidden = 48;
        Self {
            encoder: SeqEncoder::new(dim),
            mlp: Mlp::new(&[4 * dim + 2, hidden, hidden / 2, 1], seed),
        }
    }

    /// The sequence encoder (shared with callers that pre-encode paths).
    pub fn encoder(&self) -> &SeqEncoder {
        &self.encoder
    }

    /// Embeds an edge-label sequence (exposed so hot paths can cache).
    pub fn encode<S: AsRef<str>>(&self, labels: &[S]) -> Vec<f32> {
        self.encoder.encode(labels)
    }

    /// Pair features: the raw embeddings (so specific predicate
    /// correspondences are memorisable), the element-wise interactions
    /// rescaled by √dim (unit vectors have ~1/√dim components — unscaled
    /// they produce vanishing gradients), plus cosine and norm-gap scalars.
    /// Note the features are ordered (v1 = the `G_D` side), so the learned
    /// metric may be asymmetric — matching how it is queried.
    fn features(&self, v1: &[f32], v2: &[f32]) -> Vec<f32> {
        let scale = (v1.len() as f32).sqrt();
        let mut f = Vec::with_capacity(4 * v1.len() + 2);
        f.extend_from_slice(v1);
        f.extend_from_slice(v2);
        f.extend(hadamard(v1, v2).into_iter().map(|x| x * scale));
        f.extend(abs_diff(v1, v2));
        f.push(cos_to_unit(cosine(v1, v2)));
        // Both inputs are unit (or zero) vectors; norm gap signals an empty side.
        let n1: f32 = v1.iter().map(|x| x * x).sum::<f32>().sqrt();
        let n2: f32 = v2.iter().map(|x| x * x).sum::<f32>().sqrt();
        f.push((n1 - n2).abs());
        f
    }

    /// Scores two pre-encoded sequences.
    pub fn score_vecs(&self, v1: &[f32], v2: &[f32]) -> f32 {
        self.mlp.predict(&self.features(v1, v2))
    }

    /// Scores two edge-label sequences.
    pub fn score<S: AsRef<str>>(&self, s1: &[S], s2: &[S]) -> f32 {
        self.score_vecs(&self.encode(s1), &self.encode(s2))
    }

    /// Pre-training (§IV step 2): from a corpus of edge-label sequences,
    /// generates positives (a sequence vs itself / its prefix) and negatives
    /// (random corpus pairs) and fits the head — the model learns that high
    /// embedding overlap means similarity before any annotation exists.
    pub fn pretrain(&mut self, corpus: &[Vec<String>], epochs: usize, seed: u64) {
        if corpus.is_empty() {
            return;
        }
        let examples = self.pretrain_examples(corpus, seed);
        self.mlp.fit(&examples, epochs, 0.1, seed ^ 0x5eed);
    }

    /// [`Self::pretrain`]'s examples: each sequence against itself and
    /// its prefix (positives) and against a random corpus sequence.
    fn pretrain_examples(&self, corpus: &[Vec<String>], seed: u64) -> Vec<(Vec<f32>, f32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut examples: Vec<(Vec<f32>, f32)> = Vec::new();
        for seq in corpus {
            let v = self.encode(seq);
            examples.push((self.features(&v, &v), 1.0));
            if seq.len() > 1 {
                let prefix = &seq[..seq.len() - 1];
                let vp = self.encode(prefix);
                examples.push((self.features(&v, &vp), 1.0));
            }
            let other = &corpus[rng.gen_range(0..corpus.len())];
            if other != seq {
                let vo = self.encode(other);
                examples.push((self.features(&v, &vo), 0.0));
            }
        }
        examples
    }

    /// Supervised training on annotated path pairs (§IV step 3). Returns
    /// the final mean loss.
    pub fn train(&mut self, pairs: &[LabeledPair], epochs: usize, seed: u64) -> f32 {
        let examples = self.pair_examples(pairs);
        self.mlp.fit(&examples, epochs, 0.2, seed)
    }

    fn pair_examples(&self, pairs: &[LabeledPair]) -> Vec<(Vec<f32>, f32)> {
        pairs
            .iter()
            .map(|(s1, s2, m)| {
                let v1 = self.encode(s1);
                let v2 = self.encode(s2);
                (self.features(&v1, &v2), if *m { 1.0 } else { 0.0 })
            })
            .collect()
    }

    /// One supervised fine-tuning step on a single annotated pair (used by
    /// the feedback loop for FP/FN corrections with target 0/1).
    pub fn fine_tune_pair<S: AsRef<str>>(&mut self, s1: &[S], s2: &[S], target: f32, steps: usize) {
        let v1 = self.encode(s1);
        let v2 = self.encode(s2);
        let f = self.features(&v1, &v2);
        for _ in 0..steps {
            self.mlp.train_example(&f, target, 0.2);
        }
    }

    /// Triplet fine-tuning (§IV): pushes `score(anchor, pos)` above
    /// `score(anchor, neg)` by at least `margin`. Returns the pre-update
    /// triplet loss (0 when the constraint already holds).
    pub fn fine_tune_triplet<S: AsRef<str>>(
        &mut self,
        anchor: &[S],
        pos: &[S],
        neg: &[S],
        margin: f32,
        lr: f32,
    ) -> f32 {
        let va = self.encode(anchor);
        let vp = self.encode(pos);
        let vn = self.encode(neg);
        let fp = self.features(&va, &vp);
        let fn_ = self.features(&va, &vn);
        let sp = self.mlp.predict(&fp);
        let sn = self.mlp.predict(&fn_);
        let loss = (margin + sn - sp).max(0.0);
        if loss > 0.0 {
            // dL/dsp = -1, dL/dsn = +1.
            self.mlp.backward_from(&fp, -1.0, lr);
            self.mlp.backward_from(&fn_, 1.0, lr);
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    fn corpus() -> Vec<Vec<String>> {
        vec![
            owned(&["factorySite", "isIn", "isIn"]),
            owned(&["brandName", "belongsTo"]),
            owned(&["hasColor"]),
            owned(&["soleMadeBy"]),
            owned(&["typeNo"]),
            owned(&["names"]),
        ]
    }

    fn pairs() -> Vec<LabeledPair> {
        vec![
            (owned(&["made_in"]), owned(&["factorySite", "isIn", "isIn"]), true),
            (owned(&["country"]), owned(&["brandCountry"]), true),
            (owned(&["color"]), owned(&["hasColor"]), true),
            (owned(&["material"]), owned(&["soleMadeBy"]), true),
            (owned(&["type"]), owned(&["typeNo"]), true),
            (owned(&["made_in"]), owned(&["brandCountry"]), false),
            (owned(&["country"]), owned(&["soleMadeBy"]), false),
            (owned(&["color"]), owned(&["typeNo"]), false),
            (owned(&["qty"]), owned(&["factorySite", "isIn", "isIn"]), false),
            (owned(&["material"]), owned(&["names"]), false),
        ]
    }

    fn trained_model() -> PathSimModel {
        let mut m = PathSimModel::new(64, 11);
        m.pretrain(&corpus(), 30, 1);
        m.train(&pairs(), 400, 2);
        m
    }

    /// The input-major kernel trains `M_ρ` as the row-major oracle does:
    /// after pre-training, supervised training and triplet fine-tuning,
    /// every score is bit-identical.
    #[test]
    fn scores_match_row_major_oracle_after_training() {
        let mut m = trained_model();
        let mut oracle = crate::mlp::oracle::Mlp::new(&[4 * 64 + 2, 48, 24, 1], 11);
        oracle.fit(&m.pretrain_examples(&corpus(), 1), 30, 0.1, 1 ^ 0x5eed);
        oracle.fit(&m.pair_examples(&pairs()), 400, 0.2, 2);
        let triplets = [
            (
                owned(&["made_in"]),
                owned(&["factorySite", "isIn", "isIn"]),
                owned(&["typeNo"]),
            ),
            (
                owned(&["color"]),
                owned(&["hasColor"]),
                owned(&["soleMadeBy"]),
            ),
            (owned(&["qty"]), owned(&["names"]), owned(&["brandCountry"])),
        ];
        for _ in 0..20 {
            for (anchor, pos, neg) in &triplets {
                m.fine_tune_triplet(anchor, pos, neg, 0.3, 0.3);
                let va = m.encode(anchor);
                let fp = m.features(&va, &m.encode(pos));
                let fn_ = m.features(&va, &m.encode(neg));
                if 0.3 + oracle.predict(&fn_) - oracle.predict(&fp) > 0.0 {
                    oracle.backward_from(&fp, -1.0, 0.3);
                    oracle.backward_from(&fn_, 1.0, 0.3);
                }
            }
        }
        for (s1, s2, _) in pairs() {
            let (v1, v2) = (m.encode(&s1), m.encode(&s2));
            let want = oracle.predict(&m.features(&v1, &v2));
            assert_eq!(
                m.score_vecs(&v1, &v2).to_bits(),
                want.to_bits(),
                "{s1:?} vs {s2:?}"
            );
        }
    }

    #[test]
    fn scores_in_unit_interval() {
        let m = PathSimModel::new(32, 0);
        let s = m.score(&["a", "b"], &["c"]);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn learns_annotated_correspondences() {
        let m = trained_model();
        let pos = m.score(&["made_in"], &["factorySite", "isIn", "isIn"]);
        let neg = m.score(&["qty"], &["factorySite", "isIn", "isIn"]);
        assert!(pos > 0.5, "positive pair scored {pos}");
        assert!(neg < 0.5, "negative pair scored {neg}");
        assert!(pos > neg + 0.2);
    }

    #[test]
    fn identical_sequences_score_high_after_pretrain() {
        let mut m = PathSimModel::new(64, 3);
        let corpus: Vec<Vec<String>> = (0..20)
            .map(|i| owned(&[&format!("pred{i}") as &str, "isIn"]))
            .collect();
        m.pretrain(&corpus, 40, 4);
        let s = m.score(&["pred3", "isIn"], &["pred3", "isIn"]);
        assert!(s > 0.6, "self-similarity {s}");
        let d = m.score(&["pred3", "isIn"], &["pred17", "isIn"]);
        assert!(s > d);
    }

    #[test]
    fn triplet_fine_tune_reorders_scores() {
        let mut m = PathSimModel::new(64, 5);
        let anchor = owned(&["made_in"]);
        let pos = owned(&["factorySite", "isIn", "isIn"]);
        let neg = owned(&["typeNo"]);
        for _ in 0..300 {
            m.fine_tune_triplet(&anchor, &pos, &neg, 0.3, 0.3);
        }
        let sp = m.score(&anchor, &pos);
        let sn = m.score(&anchor, &neg);
        assert!(sp > sn + 0.2, "sp={sp} sn={sn}");
    }

    #[test]
    fn triplet_loss_zero_when_margin_satisfied() {
        let mut m = trained_model();
        // After training the positive already beats the negative by a lot;
        // a tiny margin should yield zero loss and no update.
        let loss = m.fine_tune_triplet(
            &owned(&["made_in"]),
            &owned(&["factorySite", "isIn", "isIn"]),
            &owned(&["qty"]),
            0.0,
            0.1,
        );
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn fine_tune_pair_moves_score() {
        let mut m = PathSimModel::new(32, 6);
        let s1 = owned(&["weird_pred"]);
        let s2 = owned(&["anotherOne"]);
        let before = m.score(&s1, &s2);
        m.fine_tune_pair(&s1, &s2, 1.0, 60);
        assert!(m.score(&s1, &s2) > before);
    }

    #[test]
    fn empty_corpus_pretrain_is_noop() {
        let mut m = PathSimModel::new(16, 7);
        let before = m.score(&["a"], &["b"]);
        m.pretrain(&[], 10, 8);
        assert_eq!(m.score(&["a"], &["b"]), before);
    }
}
