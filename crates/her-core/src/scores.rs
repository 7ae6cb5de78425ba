//! Private, lock-free memo of the score functions `h_v` and `h_ρ`.
//!
//! §IV notes that once training completes, scoring is linear-time; the
//! matching algorithms then call `h_v` and `h_ρ` millions of times on a
//! much smaller set of *distinct* label pairs and path label sequences.
//! [`ScoreCache`] is the tier the hot loop of `ParaMatch` reads: plain
//! hash maps keyed by interned ids and owned by one matcher, so a warm
//! lookup takes no lock, does no atomic read-modify-write and allocates
//! nothing. A miss reads through the [`SharedScores`] handle behind it,
//! which keeps the expensive work exactly-once (DESIGN.md §4f).

use crate::params::Params;
use crate::shared_scores::{hv_key, identical_labels, SharedScores};
use her_graph::hash::FxHashMap;
use her_graph::{Interner, LabelId, Path};

/// This memo's id of one edge-label sequence: `M_ρ` scores are keyed by
/// two of these, so a lookup never builds an owned key.
pub type SeqId = u32;

/// Pair memo for `h_v` and `h_ρ` in front of a [`SharedScores`] handle.
pub struct ScoreCache {
    shared: SharedScores,
    hv_memo: FxHashMap<(LabelId, LabelId), f32>,
    /// Sequences interned on first sight. Not scores: ids survive
    /// [`Self::clear`], and are never reused.
    seq_ids: FxHashMap<Box<[LabelId]>, SeqId>,
    mrho_memo: FxHashMap<(SeqId, SeqId), f32>,
    /// Hits served privately since the last [`Self::flush_hits`].
    hits: u64,
}

impl ScoreCache {
    /// A memo over its own, unshared [`SharedScores`] handle.
    pub fn new() -> Self {
        Self::over(SharedScores::new())
    }

    /// A memo reading through `shared` on a miss.
    pub fn over(shared: SharedScores) -> Self {
        Self {
            shared,
            hv_memo: FxHashMap::default(),
            seq_ids: FxHashMap::default(),
            mrho_memo: FxHashMap::default(),
            hits: 0,
        }
    }

    /// The handle this memo reads through.
    pub fn shared(&self) -> &SharedScores {
        &self.shared
    }

    /// `h_v(u, v) = M_v(L(u), L(v))` on interned labels — same contract
    /// as [`SharedScores::hv`].
    pub fn hv(&mut self, params: &Params, interner: &Interner, l1: LabelId, l2: LabelId) -> f32 {
        if identical_labels(params, interner, l1, l2) {
            return 1.0;
        }
        let key = hv_key(l1, l2);
        if let Some(&s) = self.hv_memo.get(&key) {
            self.hits += 1;
            return s;
        }
        let s = self.shared.hv(params, interner, l1, l2);
        self.hv_memo.insert(key, s);
        s
    }

    /// The id of `seq` in this memo, interned on first sight.
    pub fn seq_id(&mut self, seq: &[LabelId]) -> SeqId {
        if let Some(&id) = self.seq_ids.get(seq) {
            return id;
        }
        let id = self.seq_ids.len() as SeqId;
        self.seq_ids.insert(seq.into(), id);
        id
    }

    /// `M_ρ` on two edge-label sequences (undivided).
    pub fn mrho(
        &mut self,
        params: &Params,
        interner: &Interner,
        seq1: &[LabelId],
        seq2: &[LabelId],
    ) -> f32 {
        let ids = (self.seq_id(seq1), self.seq_id(seq2));
        if let Some(&s) = self.mrho_memo.get(&ids) {
            self.hits += 1;
            return s;
        }
        let s = self.shared.mrho(params, interner, seq1, seq2);
        self.mrho_memo.insert(ids, s);
        s
    }

    /// `h_ρ(ρ1, ρ2) = M_ρ(L(ρ1), L(ρ2)) / (len(ρ1) + len(ρ2))` (Eq. 2).
    pub fn hrho(
        &mut self,
        params: &Params,
        interner: &Interner,
        rho1: &Path,
        rho2: &Path,
    ) -> f32 {
        let denom = (rho1.len() + rho2.len()) as f32;
        if denom == 0.0 {
            return 0.0;
        }
        self.mrho(params, interner, rho1.edge_labels(), rho2.edge_labels()) / denom
    }

    /// Drops the private pair scores — the matcher's half of the
    /// generation protocol, called wherever it drops its verdict cache.
    pub fn clear(&mut self) {
        self.hv_memo.clear();
        self.mrho_memo.clear();
    }

    /// Drops everything on both tiers and bumps the shared generation —
    /// required after model fine-tuning.
    pub fn invalidate(&mut self) {
        self.shared.invalidate();
        self.clear();
    }

    /// Credits the privately-served hits to the shared handle's
    /// `shared_hits` in one batch (also run on drop).
    pub fn flush_hits(&mut self) {
        if self.hits != 0 {
            self.shared.add_hits(std::mem::take(&mut self.hits));
        }
    }

    /// Number of privately memoised `h_v` entries (introspection).
    pub fn hv_entries(&self) -> usize {
        self.hv_memo.len()
    }

}

impl Default for ScoreCache {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ScoreCache {
    fn drop(&mut self) {
        self.flush_hits();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use her_graph::{GraphBuilder, VertexId};

    fn setup() -> (Params, Interner) {
        let mut b = GraphBuilder::new();
        for s in ["Germany", "germany", "phylon foam", "made_in", "factorySite", "isIn"] {
            b.intern(s);
        }
        let (_, interner) = b.build();
        (Params::untrained(32, 5), interner)
    }

    #[test]
    fn hv_identical_labels_score_one() {
        let (p, i) = setup();
        let mut c = ScoreCache::new();
        let l = i.get("Germany").unwrap();
        assert_eq!(c.hv(&p, &i, l, l), 1.0);
    }

    #[test]
    fn hv_is_symmetric_and_memoised() {
        let (p, i) = setup();
        let mut c = ScoreCache::new();
        let a = i.get("Germany").unwrap();
        let b = i.get("phylon foam").unwrap();
        let s1 = c.hv(&p, &i, a, b);
        let s2 = c.hv(&p, &i, b, a);
        assert_eq!(s1, s2);
        assert_eq!(c.hv_entries(), 1);
    }

    #[test]
    fn hv_respects_fine_tuned_overrides() {
        let (mut p, i) = setup();
        let mut c = ScoreCache::new();
        let a = i.get("made_in").unwrap();
        let b = i.get("factorySite").unwrap();
        let before = c.hv(&p, &i, a, b);
        for _ in 0..6 {
            p.mv.fine_tune_pair("made_in", "factorySite", 1.0);
        }
        c.invalidate();
        let after = c.hv(&p, &i, a, b);
        assert!(after > before);
        assert!(after > 0.9);
    }

    /// Regression: a fine-tuned override on one pair used to disable the
    /// identical-label fast path (and demote every pair to string
    /// similarity) globally. The check is now scoped to the queried pair.
    #[test]
    fn unrelated_override_keeps_identical_label_fast_path() {
        let (mut p, i) = setup();
        let mut c = ScoreCache::new();
        let germany = i.get("Germany").unwrap();
        let foam = i.get("phylon foam").unwrap();
        let baseline = c.hv(&p, &i, germany, foam);
        c.invalidate();
        let embeds_before = c.shared().embed_calls();
        // Fine-tune a completely unrelated pair.
        p.mv.fine_tune_pair("made_in", "factorySite", 1.0);
        // Identical labels still take the fast path: score 1, no memo
        // entry, no embedding computed.
        assert_eq!(c.hv(&p, &i, germany, germany), 1.0);
        assert_eq!(c.hv_entries(), 0);
        assert_eq!(c.shared().embed_calls(), embeds_before);
        // Unrelated non-identical pairs still use cached embeddings and
        // score exactly as before the override existed.
        assert_eq!(c.hv(&p, &i, germany, foam), baseline);
        assert_eq!(c.shared().embed_calls(), embeds_before + 2);
    }

    /// The override still wins for the annotated pair itself — including
    /// an identical-label pair annotated as a false positive.
    #[test]
    fn override_on_identical_pair_disables_its_fast_path_only() {
        let (mut p, i) = setup();
        let mut c = ScoreCache::new();
        let germany = i.get("Germany").unwrap();
        let foam = i.get("phylon foam").unwrap();
        for _ in 0..8 {
            p.mv.fine_tune_pair("Germany", "Germany", 0.0);
        }
        assert!(c.hv(&p, &i, germany, germany) < 0.1);
        // Other identical labels are untouched.
        assert_eq!(c.hv(&p, &i, foam, foam), 1.0);
    }

    #[test]
    fn embed_calls_count_distinct_labels_once() {
        let (p, i) = setup();
        let mut c = ScoreCache::new();
        let a = i.get("Germany").unwrap();
        let b = i.get("phylon foam").unwrap();
        let d = i.get("isIn").unwrap();
        let _ = c.hv(&p, &i, a, b);
        let _ = c.hv(&p, &i, a, d);
        let _ = c.hv(&p, &i, b, d);
        assert_eq!(c.shared().embed_calls(), 3, "three distinct labels, one embed each");
    }

    #[test]
    fn hrho_divides_by_total_length() {
        let (p, i) = setup();
        let mut c = ScoreCache::new();
        let made_in = i.get("made_in").unwrap();
        let p1 = Path::new(vec![VertexId(0), VertexId(1)], vec![made_in]);
        let p2 = Path::new(vec![VertexId(2), VertexId(3)], vec![made_in]);
        let undivided = c.mrho(&p, &i, &[made_in], &[made_in]);
        let h = c.hrho(&p, &i, &p1, &p2);
        assert!((h - undivided / 2.0).abs() < 1e-6);
    }

    #[test]
    fn hrho_trivial_paths_score_zero() {
        let (p, i) = setup();
        let mut c = ScoreCache::new();
        let t1 = Path::trivial(VertexId(0));
        let t2 = Path::trivial(VertexId(1));
        assert_eq!(c.hrho(&p, &i, &t1, &t2), 0.0);
    }

    #[test]
    fn invalidate_clears_memos() {
        let (p, i) = setup();
        let mut c = ScoreCache::new();
        let a = i.get("Germany").unwrap();
        let b = i.get("isIn").unwrap();
        let _ = c.hv(&p, &i, a, b);
        assert_eq!(c.hv_entries(), 1);
        c.invalidate();
        assert_eq!(c.hv_entries(), 0);
    }
}
