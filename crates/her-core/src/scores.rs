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
//! vocabularies are tiny next to its pair space, so what `ParaMatch`
//! reads is dense tables over interned ids:
//!
//! - `M_ρ` by two [`SeqId`]s of the handle's [`SelectionTable`]: one
//!   `f32` array read (`NaN` = not asked yet);
//! - `h_v ≥ σ` by *σ rows*: per end label of `G_D`, two bits (known,
//!   value) per label id — the only question the paper asks of `h_v`,
//!   for a call's root pair and its descendants alike;
//! - `wmax`: per sequence, the largest `h_ρ` against any sequence
//!   interned so far — the ceiling the cover bound sums.
//!
//! The memo answers by id only: `h_v` floats and scores of raw paths or
//! sequences are the handle's ([`SharedScores::hv`],
//! [`SharedScores::hrho`]).

use crate::params::Params;
use crate::shared_scores::{SelectionTable, SeqId, SharedScores};
use her_graph::hash::FxHashMap;
use her_graph::{Graph, Interner, LabelId};
use std::sync::Arc;

/// The dense `M_ρ` table stops growing at this many sequences a side
/// (4 MiB); an id past it reads through to the shared tier every time.
const DENSE_SEQS_MAX: usize = 1024;

/// Handle of one end label's σ row ([`ScoreCache::sigma_row`]): the
/// word its bits start at.
pub type SigmaRow = u32;

/// All σ rows together stop growing at this many words (8 MiB); an end
/// label met after that reads the shared tier every time.
const SIGMA_WORDS_MAX: usize = 1 << 20;

/// `h_v(end, ℓ) ≥ σ` for the end labels of `G_D`: per end label a row of
/// two bits per label id `ℓ` — bit 0 *known*, bit 1 the answer.
#[derive(Default)]
struct SigmaRows {
    sigma: f32,
    /// Label ids a row covers: the interner's size when the rows were
    /// made. A label interned later reads the shared tier every time.
    width: usize,
    row_of: FxHashMap<LabelId, SigmaRow>,
    bits: Vec<u64>,
}

/// Id-keyed memo for `h_v ≥ σ` and `h_ρ` in front of a [`SharedScores`]
/// handle.
pub struct ScoreCache {
    shared: SharedScores,
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
    /// read through the shared tier and kept in the row; without a row,
    /// or for a label past its width, every answer reads the shared tier.
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
        let reaches = self.shared.hv(params, interner, end, label) >= params.thresholds.sigma;
        if let Some(row) = row.filter(|_| label.index() < self.sigma_rows.width) {
            self.sigma_rows.bits[row as usize + label.index() / 32] |=
                (1 | u64::from(reaches) << 1) << (label.index() % 32 * 2);
        }
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
    /// [`SharedScores::hrho`] returns for the paths themselves.
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

    /// Drops the private scores and the hold on the selection table —
    /// the matcher's half of the generation protocol, called wherever it
    /// drops its verdict cache.
    pub fn clear(&mut self) {
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

    /// Number of privately memoised `h_v ≥ σ` answers: the known σ-row
    /// bits (introspection).
    pub fn hv_entries(&self) -> usize {
        const KNOWN: u64 = 0x5555_5555_5555_5555;
        let bits = self.sigma_rows.bits.iter().map(|w| (w & KNOWN).count_ones() as usize);
        bits.sum()
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
    use her_graph::GraphBuilder;
    use std::sync::Arc;

    fn setup() -> (Params, Interner) {
        let mut b = GraphBuilder::new();
        for s in ["Germany", "germany", "phylon foam", "made_in", "factorySite", "isIn"] {
            b.intern(s);
        }
        let (_, interner) = b.build();
        (Params::untrained(32, 5), interner)
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
    /// stream's, the index's late label — is past their width and reads
    /// the shared tier every time, and so does an end label met once the
    /// rows are full.
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
        let oracle = SharedScores::new();
        for (l, _) in i.iter() {
            let want = oracle.hv(&p, &i, end, l) >= sigma;
            assert_eq!(c.reaches_sigma(&p, &i, (end, row), l), want, "{l:?}");
            let hits = c.hits;
            assert_eq!(c.reaches_sigma(&p, &i, (end, row), l), want, "{l:?} again");
            // Within the width the second answer is the row's bit; past
            // it the float is read from the shared tier again, as it is
            // without a row.
            assert_eq!(c.hits - hits, u64::from(!late.contains(&l)), "{l:?}");
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

    /// `invalidate` drops the σ bits of this memo and the floats of the
    /// handle behind it.
    #[test]
    fn invalidate_clears_memos() {
        let (p, i) = setup();
        let mut c = ScoreCache::new();
        let a = i.get("Germany").unwrap();
        let b = i.get("isIn").unwrap();
        let row = c.sigma_row(&p, &i, a);
        let _ = c.reaches_sigma(&p, &i, (a, row), b);
        assert_eq!((c.hv_entries(), c.shared().hv_entries()), (1, 1));
        c.invalidate();
        assert_eq!((c.hv_entries(), c.shared().hv_entries()), (0, 0));
    }
}
