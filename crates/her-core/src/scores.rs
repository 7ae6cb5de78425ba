//! Private, lock-free memo of the score functions `h_v` and `h_ρ`.
//!
//! §IV notes that once training completes, scoring is linear-time; the
//! matching algorithms then call `h_v` and `h_ρ` millions of times on a
//! much smaller set of *distinct* label pairs and path label sequences.
//! [`ScoreCache`] is the tier the hot loop of `ParaMatch` reads, owned by
//! one matcher, so a warm lookup takes no lock, does no atomic
//! read-modify-write and allocates nothing; a miss reads through the
//! [`SharedScores`] handle behind it, which keeps the expensive work
//! exactly-once (DESIGN.md §4f). A dataset's label and sequence
//! vocabularies are tiny next to its pair space, so what the first
//! `MaxSco` bound reads is dense tables over interned ids:
//!
//! - `M_ρ` by two [`SeqId`]s of the handle's [`SelectionTable`]: one
//!   `f32` array read (`NaN` = not asked yet);
//! - `h_v ≥ σ` by *σ rows*: per end label of `G_D`, two bits (known,
//!   value) per label id;
//! - `wmax`: per sequence, the largest `h_ρ` against any sequence
//!   interned so far — the ceiling the cover bound sums.
//!
//! `h_v` floats, which only the root test of a `ParaMatch` call reads,
//! stay in a hash memo keyed by the unordered label pair.

use crate::params::Params;
use crate::shared_scores::{hv_key, identical_labels, SelectionTable, SeqId, SharedScores};
use her_graph::hash::FxHashMap;
use her_graph::{Graph, Interner, LabelId, Path};
use std::sync::Arc;

/// The dense `M_ρ` table stops growing at this many sequences a side
/// (4 MiB); an id past it reads through to the shared tier every time.
const DENSE_SEQS_MAX: usize = 1024;

/// Handle of one end label's σ row ([`ScoreCache::sigma_row`]): where
/// it starts in [`SigmaRows::bits`].
pub type SigmaRow = u32;

/// All σ rows together stop growing at this many words (8 MiB); an end
/// label met after that takes the hash memo.
const SIGMA_WORDS_MAX: usize = 1 << 20;

/// `h_v(end, ℓ) ≥ σ` for the end labels of `G_D`: per end label a row of
/// two bits per label id `ℓ` — bit 0 *known*, bit 1 the answer.
#[derive(Default)]
struct SigmaRows {
    sigma: f32,
    /// Label ids a row covers: the interner's size when the rows were
    /// made. A label interned later takes the hash memo.
    width: usize,
    row_of: FxHashMap<LabelId, SigmaRow>,
    bits: Vec<u64>,
}

/// Pair memo for `h_v` and `h_ρ` in front of a [`SharedScores`] handle.
pub struct ScoreCache {
    shared: SharedScores,
    hv_memo: FxHashMap<(LabelId, LabelId), f32>,
    sigma_rows: SigmaRows,
    /// The handle's selection table for this generation, fetched on
    /// first use: `ecache`, and the id space of the three fields below.
    table: Option<Arc<SelectionTable>>,
    /// The table's sequences by id, as far as this memo has met them.
    seqs: Vec<Arc<[LabelId]>>,
    /// `M_ρ` by `[SeqId × SeqId]`, `stride` ids a side.
    mrho: Vec<f32>,
    stride: usize,
    /// Per [`SeqId`]: its largest `h_ρ` against the ids below the count.
    wmax: Vec<(f32, usize)>,
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
            sigma_rows: SigmaRows::default(),
            table: None,
            seqs: Vec::new(),
            mrho: Vec::new(),
            stride: 0,
            wmax: Vec::new(),
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

    /// The σ row of `end`, a label of `G_D`, made on first request —
    /// `None` once the rows are full. Rows answer for one σ: another σ
    /// starts them over.
    pub fn sigma_row(&mut self, params: &Params, interner: &Interner, end: LabelId) -> Option<SigmaRow> {
        let rows = &mut self.sigma_rows;
        let sigma = params.thresholds.sigma;
        if rows.width == 0 || rows.sigma != sigma {
            *rows = SigmaRows { sigma, width: interner.len().max(1), ..Default::default() };
        }
        if let Some(&row) = rows.row_of.get(&end) {
            return Some(row);
        }
        let words = rows.width.div_ceil(32);
        if rows.bits.len() + words > SIGMA_WORDS_MAX {
            return None;
        }
        let row = rows.bits.len() as SigmaRow;
        rows.bits.resize(rows.bits.len() + words, 0);
        rows.row_of.insert(end, row);
        Some(row)
    }

    /// `h_v(end, label) ≥ σ`, through `row` — `end`'s, from
    /// [`Self::sigma_row`] under these `params`. A bit not known yet is
    /// read through the shared tier and kept in the row alone; without a
    /// row, or for a label past its width, the float goes through the
    /// hash memo.
    #[inline]
    pub fn reaches_sigma(
        &mut self,
        params: &Params,
        interner: &Interner,
        (end, row): (LabelId, Option<SigmaRow>),
        label: LabelId,
    ) -> bool {
        let rows = &self.sigma_rows;
        if let Some(row) = row.filter(|_| label.index() < rows.width) {
            let two = rows.bits[row as usize + label.index() / 32] >> (label.index() % 32 * 2);
            if two & 1 != 0 {
                self.hits += 1;
                return two & 2 != 0;
            }
        }
        self.sigma_miss(params, interner, (end, row), label)
    }

    /// [`Self::reaches_sigma`] when the row does not know.
    #[cold]
    fn sigma_miss(
        &mut self,
        params: &Params,
        interner: &Interner,
        (end, row): (LabelId, Option<SigmaRow>),
        label: LabelId,
    ) -> bool {
        let sigma = params.thresholds.sigma;
        let Some(row) = row.filter(|_| label.index() < self.sigma_rows.width) else {
            return self.hv(params, interner, end, label) >= sigma;
        };
        let reaches = self.shared.hv(params, interner, end, label) >= sigma;
        self.sigma_rows.bits[row as usize + label.index() / 32] |=
            (1 | u64::from(reaches) << 1) << (label.index() % 32 * 2);
        reaches
    }

    /// The selection table of the handle's current generation for
    /// `(gd, g, k)`. Every [`SeqId`] this memo is given must be one of
    /// this table's; [`Self::clear`] lets go of it.
    pub fn table(&mut self, gd: &Graph, g: &Graph, k: usize) -> &Arc<SelectionTable> {
        let shared = &self.shared;
        self.table.get_or_insert_with(|| shared.selections(gd, g, k))
    }

    /// Catches up with the table's interner; the number of ids known.
    fn sync_seqs(&mut self) -> usize {
        let table = self.table.as_ref().expect("sequence ids come from Self::table");
        if table.seq_count() > self.seqs.len() {
            table.seqs_from(&mut self.seqs);
            self.wmax.resize(self.seqs.len(), (f32::NEG_INFINITY, 0));
            let stride = self.seqs.len().next_power_of_two().clamp(16, DENSE_SEQS_MAX);
            if stride > self.stride {
                let mut grown = vec![f32::NAN; stride * stride];
                for (old, new) in self.mrho.chunks(self.stride.max(1)).zip(grown.chunks_mut(stride)) {
                    new[..old.len()].copy_from_slice(old);
                }
                (self.mrho, self.stride) = (grown, stride);
            }
        }
        self.seqs.len()
    }

    /// `M_ρ` on two sequences of [`Self::table`] (undivided): one array
    /// read once known.
    #[inline]
    pub fn mrho_ids(&mut self, params: &Params, interner: &Interner, a: SeqId, b: SeqId) -> f32 {
        let (a, b) = (a as usize, b as usize);
        if a < self.stride && b < self.stride {
            let s = self.mrho[a * self.stride + b];
            if !s.is_nan() {
                self.hits += 1;
                return s;
            }
        }
        self.mrho_miss(params, interner, a, b)
    }

    #[cold]
    fn mrho_miss(&mut self, params: &Params, interner: &Interner, a: usize, b: usize) -> f32 {
        self.sync_seqs();
        let s = self.shared.mrho(params, interner, &self.seqs[a], &self.seqs[b]);
        if a < self.stride && b < self.stride {
            self.mrho[a * self.stride + b] = s;
        }
        s
    }

    /// Writes one cell of the dense table: a fixture's way to scores the
    /// models do not produce.
    #[cfg(test)]
    pub(crate) fn set_mrho_ids(&mut self, a: SeqId, b: SeqId, s: f32) {
        assert!((a.max(b) as usize) < self.sync_seqs().min(self.stride));
        self.mrho[a as usize * self.stride + b as usize] = s;
    }

    /// `h_ρ` of two paths by sequence id and length: the float
    /// [`Self::hrho`] returns for the paths themselves.
    #[inline]
    pub fn hrho_ids(
        &mut self,
        params: &Params,
        interner: &Interner,
        (a, len_a): (SeqId, u32),
        (b, len_b): (SeqId, u32),
    ) -> f32 {
        let denom = (len_a as usize + len_b as usize) as f32;
        if denom == 0.0 {
            return 0.0;
        }
        self.mrho_ids(params, interner, a, b) / denom
    }

    /// The largest `h_ρ` of a path labelled `a` against a path labelled
    /// by any of the table's first `count` sequences, and `count` — at
    /// least the table's size when called. Each pair is scored once.
    pub fn wmax(&mut self, params: &Params, interner: &Interner, a: SeqId) -> (f32, usize) {
        let count = self.sync_seqs();
        let (mut best, seen) = self.wmax[a as usize];
        let len_a = self.seqs[a as usize].len() as u32;
        for b in seen..count {
            let len_b = self.seqs[b].len() as u32;
            let h = self.hrho_ids(params, interner, (a, len_a), (b as SeqId, len_b));
            if h.total_cmp(&best).is_gt() {
                best = h;
            }
        }
        self.wmax[a as usize] = (best, count);
        (best, count)
    }

    /// `M_ρ` on two edge-label sequences (undivided), straight from the
    /// shared tier: what asks by sequence rather than by id — schema
    /// matching, the oracle — is off the hot path.
    pub fn mrho(
        &mut self,
        params: &Params,
        interner: &Interner,
        seq1: &[LabelId],
        seq2: &[LabelId],
    ) -> f32 {
        self.shared.mrho(params, interner, seq1, seq2)
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

    /// Drops the private scores and the hold on the selection table —
    /// the matcher's half of the generation protocol, called wherever it
    /// drops its verdict cache.
    pub fn clear(&mut self) {
        self.hv_memo.clear();
        self.sigma_rows = SigmaRows::default();
        self.table = None;
        self.seqs.clear();
        self.mrho.clear();
        self.stride = 0;
        self.wmax.clear();
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

    /// Number of privately memoised `h_v` answers — floats in the hash
    /// memo plus known σ-row bits (introspection).
    pub fn hv_entries(&self) -> usize {
        const KNOWN: u64 = 0x5555_5555_5555_5555;
        let bits = self.sigma_rows.bits.iter().map(|w| (w & KNOWN).count_ones() as usize);
        self.hv_memo.len() + bits.sum::<usize>()
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
    use std::sync::Arc;

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

    /// A hub in `G_D` and one in `G` with `edges` distinct edge labels
    /// each, every edge to its own leaf.
    fn hubs(edges: usize) -> (Graph, Graph, Interner) {
        let hub = |mut b: GraphBuilder, side: &str| {
            let root = b.add_vertex("hub");
            for i in 0..edges {
                let leaf = b.add_vertex(&format!("leaf {i}"));
                b.add_edge(root, leaf, &format!("{side} edge {i}"));
            }
            b.build()
        };
        let (gd, i) = hub(GraphBuilder::new(), "left");
        let (g, interner) = hub(GraphBuilder::with_interner(i), "right");
        (gd, g, interner)
    }

    /// σ rows are sized when they are made: a label interned later — a
    /// stream's, the index's late label — is past their width and takes
    /// the hash memo, and so does an end label met once the rows are full.
    #[test]
    fn sigma_rows_answer_like_hv_within_and_past_their_width() {
        let (p, i) = setup();
        let mut c = ScoreCache::new();
        let end = i.get("Germany").unwrap();
        let row = c.sigma_row(&p, &i, end);
        assert!(row.is_some());
        assert_eq!(c.sigma_row(&p, &i, end), row, "one row per end label");
        // Labels interned after the rows were made.
        let mut b = GraphBuilder::with_interner(i);
        let late = [b.intern("germany!"), b.intern("a late label")];
        let (_, i) = b.build();
        let sigma = p.thresholds.sigma;
        let mut oracle = ScoreCache::new();
        for (l, _) in i.iter() {
            let want = oracle.hv(&p, &i, end, l) >= sigma;
            let memo = c.hv_memo.len();
            assert_eq!(c.reaches_sigma(&p, &i, (end, row), l), want, "{l:?}");
            assert_eq!(c.reaches_sigma(&p, &i, (end, row), l), want, "{l:?} again");
            // Within the width the bit is the row's alone; past it the
            // float goes through the hash memo, as it does without a row.
            assert_eq!(c.hv_memo.len() - memo, usize::from(late.contains(&l)), "{l:?}");
            assert_eq!(c.reaches_sigma(&p, &i, (end, None), l), want, "{l:?} without a row");
        }
        // Another σ starts the rows over, at the interner's size now.
        let stricter = Params::untrained(32, 5).with_thresholds(crate::Thresholds::new(0.99, 0.3, 4));
        let row = c.sigma_row(&stricter, &i, end);
        for (l, _) in i.iter() {
            let want = oracle.hv(&stricter, &i, end, l) >= 0.99;
            assert_eq!(c.reaches_sigma(&stricter, &i, (end, row), l), want, "{l:?} under 0.99");
        }
        // Full rows: no row for a new end label.
        c.sigma_rows.bits.resize(SIGMA_WORDS_MAX, 0);
        assert_eq!(c.sigma_row(&stricter, &i, late[0]), None);
        assert_eq!(c.sigma_row(&stricter, &i, end), row, "rows made before stay");
    }

    /// The dense table grows with the table's interner up to its cap; an
    /// id past the cap reads through to the shared tier — the same float
    /// — every time, and `wmax` ranges over those ids too.
    #[test]
    fn sequence_ids_past_the_dense_table_read_through() {
        let edges = DENSE_SEQS_MAX / 2 + 3;
        let (gd, g, i) = hubs(edges);
        let p = Params::untrained(16, 5);
        let mut c = ScoreCache::new();
        let table = Arc::clone(c.table(&gd, &g, edges));
        let root = her_graph::VertexId(0);
        let su = table.plan(false, &gd, &p.ranker, root).to_vec();
        assert_eq!((su.len(), c.sync_seqs(), c.stride), (edges, edges, DENSE_SEQS_MAX));
        let sv = table.plan(true, &g, &p.ranker, root).to_vec();
        assert_eq!(table.seq_count(), 2 * edges);
        let past = *sv.iter().find(|e| e.seq as usize >= DENSE_SEQS_MAX).expect("ids past the cap");
        let seqs = {
            let mut seqs = Vec::new();
            table.seqs_from(&mut seqs);
            seqs
        };
        let by_slices = |a: SeqId, b: SeqId| c.shared().mrho(&p, &i, &seqs[a as usize], &seqs[b as usize]);
        let want = [by_slices(su[0].seq, past.seq), by_slices(past.seq, su[1].seq), by_slices(su[0].seq, sv[0].seq)];
        for _ in 0..2 {
            let hits = c.hits;
            assert_eq!(c.mrho_ids(&p, &i, su[0].seq, past.seq).to_bits(), want[0].to_bits());
            assert_eq!(c.mrho_ids(&p, &i, past.seq, su[1].seq).to_bits(), want[1].to_bits());
            assert_eq!(c.hits, hits, "past the table: not a private hit");
        }
        // Within the table: a private hit from the second read on.
        assert_eq!(c.mrho_ids(&p, &i, su[0].seq, sv[0].seq).to_bits(), want[2].to_bits());
        let hits = c.hits;
        assert_eq!(c.mrho_ids(&p, &i, su[0].seq, sv[0].seq).to_bits(), want[2].to_bits());
        assert_eq!(c.hits, hits + 1);
        // wmax is over every id, the ones past the table included.
        let (w, count) = c.wmax(&p, &i, su[0].seq);
        assert_eq!(count, 2 * edges);
        let best = (0..count as SeqId)
            .map(|b| c.hrho_ids(&p, &i, (su[0].seq, 1), (b, 1)))
            .max_by(f32::total_cmp)
            .unwrap();
        assert_eq!(w.to_bits(), best.to_bits());
        assert_eq!(c.wmax(&p, &i, su[0].seq), (w, count), "remembered");
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
