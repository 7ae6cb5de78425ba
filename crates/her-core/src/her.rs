//! The HER system facade (§II architecture).
//!
//! Wires the five modules together: RDB2RDF (canonical graph), Learn
//! (models + thresholds), and the three query modes SPair / VPair / APair.
//!
//! ```text
//!   Database D ──RDB2RDF──▶ G_D ┐
//!                                ├─ Learn (M_v, M_ρ, M_r, σ, δ, k) ─▶ SPair/VPair/APair
//!   Graph G ────────────────────┘
//! ```

use crate::apair;
use crate::index::InvertedIndex;
use crate::learn::{self, Annotation, SearchSpace};
use crate::paramatch::{ExhaustReason, MatchStats, Matcher, MatcherOptions};
use crate::params::{Params, Thresholds};
use crate::refine::{refine_round, RefineConfig, RefineOutcome};
use crate::schema_match::{schema_matches, SchemaMatch};
use crate::shared_scores::SharedScores;
use crate::vpair;
use her_embed::corpus::{corpus_to_strings, lm_training_paths, walk_corpus};
use her_embed::{PathLm, PathSimModel, SentenceModel, TopKRanker};
use her_graph::walk::WalkConfig;
use her_graph::{Graph, Interner, VertexId};
use her_rdb::rdb2rdf::{canonicalize_with_interner, CanonicalGraph};
use her_rdb::{Database, TupleRef};

/// Construction/training configuration for [`Her`].
#[derive(Clone, Debug)]
pub struct HerConfig {
    /// Embedding dimension for `M_v` and `M_ρ` (Table VII sweeps this).
    pub dim: usize,
    /// Initial thresholds (may be replaced by random search in `learn`).
    pub thresholds: Thresholds,
    /// Master seed for model initialisation and training shuffles.
    pub seed: u64,
    /// Random-walk corpus configuration for pre-training `M_ρ` and `M_r`.
    pub walk: WalkConfig,
    /// Maximum path length for `h_r` and LM training paths (paper: 4).
    pub lm_max_len: usize,
    /// Sample size of vertices used to prepare LM training paths
    /// (`None` = all; the paper samples representative entities).
    pub lm_sample: Option<usize>,
    /// Pre-training epochs for `M_ρ`.
    pub pretrain_epochs: usize,
    /// Supervised training epochs for `M_ρ`.
    pub train_epochs: usize,
    /// Build an inverted index over `G` for candidate blocking.
    pub use_blocking: bool,
    /// Synonym lexicon injected into `M_v` (stands in for pre-trained
    /// semantic knowledge).
    pub synonyms: Vec<(String, String)>,
    /// Share one [`SharedScores`] layer behind every matcher the facade
    /// creates, so repeated queries (SPair/VPair/APair) never re-embed
    /// the same label. Pure memoization — results are unchanged; off
    /// (every matcher reads through a layer of its own) is only useful
    /// for ablation.
    pub use_shared_scores: bool,
}

impl Default for HerConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            thresholds: Thresholds::default(),
            seed: 0x4845_5221,
            walk: WalkConfig::default(),
            lm_max_len: 4,
            lm_sample: Some(512),
            pretrain_epochs: 15,
            train_epochs: 150,
            use_blocking: true,
            synonyms: Vec::new(),
            use_shared_scores: true,
        }
    }
}

/// The assembled HER system over one `(D, G)` pair.
pub struct Her {
    /// The canonical graph `G_D` with the tuple↔vertex mapping; its
    /// interner is the *shared* label space of both graphs.
    pub cg: CanonicalGraph,
    /// The data graph `G`.
    pub g: Graph,
    /// Learned parameters.
    pub params: Params,
    /// Optional blocking index over `G`.
    pub index: Option<InvertedIndex>,
    /// User-verified pair verdicts from refinement rounds (§IV: feedback
    /// both fine-tunes the models and *verifies the matches*). Takes
    /// precedence over parametric simulation in `spair`/`evaluate`.
    /// Write through [`Her::insert_verified`] so the by-tuple overlay
    /// index stays coherent (direct inserts are visible to `spair`/
    /// `evaluate` but not to the vpair/apair overlays).
    pub verified: her_graph::hash::FxHashMap<(TupleRef, VertexId), bool>,
    /// [`Her::verified`] re-indexed by tuple, so the per-request overlay
    /// in vpair/apair touches only the queried tuple's verdicts instead
    /// of scanning the whole map (O(|verified|·|matches|) before).
    verified_by_tuple: her_graph::hash::FxHashMap<TupleRef, Vec<(VertexId, bool)>>,
    /// Process-wide score memo injected into every matcher this facade
    /// creates (`None` when [`HerConfig::use_shared_scores`] is off).
    /// [`Her::learn`] and [`Her::refine`] invalidate it after mutating
    /// the models, bumping its generation so live matchers re-sync.
    pub shared_scores: Option<SharedScores>,
}

impl Her {
    /// Builds the system: canonicalises `D` into the label space of `G`,
    /// trains the path LM (`M_r`) on both graphs, fits IDF for `M_v`, and
    /// pre-trains `M_ρ` on the random-walk corpus. Supervised training
    /// happens separately in [`Her::learn`].
    pub fn build(db: &Database, g: Graph, g_interner: Interner, cfg: &HerConfig) -> Self {
        let cg = canonicalize_with_interner(db, g_interner);
        let interner = &cg.interner;

        // M_v: synonym lexicon + IDF over all labels of both graphs.
        let mut mv = SentenceModel::new(cfg.dim);
        for (a, b) in &cfg.synonyms {
            mv.add_synonym(a, b);
        }
        mv.fit_idf(interner.iter().map(|(_, s)| s));

        // M_r: path LM trained on walks plus max-PRA training paths of G,
        // and on the (short) attribute paths of G_D.
        let mut lm = PathLm::new();
        let g_walks = walk_corpus(&g, &cfg.walk);
        lm.train(&g_walks);
        let sample: Option<Vec<VertexId>> = cfg.lm_sample.map(|n| {
            // Deterministic stride sample over G's vertices.
            let total = g.vertex_count().max(1);
            let stride = (total / n.max(1)).max(1);
            g.vertices().step_by(stride).take(n).collect()
        });
        let g_paths = lm_training_paths(&g, interner, sample.as_deref(), cfg.lm_max_len);
        lm.train(&g_paths);
        let d_walks = walk_corpus(&cg.graph, &cfg.walk);
        lm.train(&d_walks);

        // M_ρ: pre-train on the G corpus rendered to strings.
        let mut mrho = PathSimModel::new(cfg.dim, cfg.seed);
        let mut pre = corpus_to_strings(&g_walks, interner);
        pre.truncate(2000); // plenty for the head to learn the overlap prior
        mrho.pretrain(&pre, cfg.pretrain_epochs, cfg.seed ^ 0xabcd);

        let ranker = TopKRanker::new(lm).with_max_len(cfg.lm_max_len);
        let params = Params::new(mv, mrho, ranker, cfg.thresholds);
        let index = cfg.use_blocking.then(|| InvertedIndex::build(&g, interner));

        Self {
            cg,
            g,
            params,
            index,
            verified: Default::default(),
            verified_by_tuple: Default::default(),
            shared_scores: cfg.use_shared_scores.then(SharedScores::new),
        }
    }

    /// Records a user-verified verdict for `(t, v)`, keeping both the
    /// flat map and the by-tuple overlay index coherent. The last write
    /// for a pair wins, matching map semantics.
    pub fn insert_verified(&mut self, t: TupleRef, v: VertexId, verdict: bool) {
        self.verified.insert((t, v), verdict);
        let per = self.verified_by_tuple.entry(t).or_default();
        match per.iter_mut().find(|(vv, _)| *vv == v) {
            Some(slot) => slot.1 = verdict,
            None => per.push((v, verdict)),
        }
    }

    /// Supervised learning (§IV): trains `M_ρ` on path pairs derived from
    /// the positive training annotations, then picks `(σ, δ, k)` by random
    /// search on the validation annotations. Returns the validation
    /// F-measure achieved.
    pub fn learn(
        &mut self,
        train: &[(TupleRef, VertexId, bool)],
        validation: &[(TupleRef, VertexId, bool)],
        cfg: &HerConfig,
        space: &SearchSpace,
    ) -> f64 {
        let positives: Vec<(VertexId, VertexId)> = train
            .iter()
            .filter(|(_, _, m)| *m)
            .map(|&(t, v, _)| (self.cg.vertex_of(t), v))
            .collect();
        let pairs = learn::derive_path_pairs(
            &self.cg.graph,
            &self.g,
            &self.cg.interner,
            &self.params,
            &positives,
            0.85,
            0.3,
        );
        if !pairs.is_empty() {
            self.params.mrho.train(&pairs, cfg.train_epochs, cfg.seed ^ 0x7777);
            // Training mutated `M_ρ`: any score memoised before this point
            // is stale. Bump the shared generation before the threshold
            // search below (and any live matcher) reads scores again.
            if let Some(s) = &self.shared_scores {
                s.invalidate();
            }
        }
        let val: Vec<Annotation> = validation
            .iter()
            .map(|&(t, v, m)| (self.cg.vertex_of(t), v, m))
            .collect();
        let (thresholds, f) = learn::random_search(
            &self.cg.graph,
            &self.g,
            &self.cg.interner,
            &self.params,
            &val,
            space,
        );
        self.params.thresholds = thresholds;
        f
    }

    /// A fresh stateful matcher (reuse across queries for cache benefits).
    /// Scores read through the facade's [`SharedScores`] when enabled, so
    /// even throwaway matchers never re-embed known labels.
    pub fn matcher(&self) -> Matcher<'_> {
        self.matcher_with(MatcherOptions::default())
    }

    /// A matcher with explicit [`MatcherOptions`]. The facade's
    /// [`SharedScores`] handle is injected unless the options already
    /// carry one.
    pub fn matcher_with(&self, mut options: MatcherOptions) -> Matcher<'_> {
        if options.shared_scores.is_none() {
            options.shared_scores = self.shared_scores.clone();
        }
        Matcher::with_options(
            &self.cg.graph,
            &self.g,
            &self.cg.interner,
            &self.params,
            options,
        )
    }

    // The three modes each have one body running on a caller's matcher —
    // fresh, reused, or checked out of a `MatcherPool` — that overlays
    // user-verified verdicts (keeping the modes consistent after
    // refinement) and reports the run's own `MatchStats`. The other
    // mode methods are one-liners over a fresh matcher.

    /// Mode SPair: does tuple `t` match vertex `v`?
    pub fn spair(&self, t: TupleRef, v: VertexId) -> bool {
        self.spair_with(&mut self.matcher(), t, v)
    }

    /// The SPair body: a user-verified verdict takes precedence over
    /// parametric simulation on `m` (reuse `m` to amortise its caches).
    pub fn spair_with(&self, m: &mut Matcher<'_>, t: TupleRef, v: VertexId) -> bool {
        match self.verified.get(&(t, v)) {
            Some(&verdict) => verdict,
            None => m.is_match(self.cg.vertex_of(t), v),
        }
    }

    /// Mode VPair: all vertices of `G` matching tuple `t`, ascending.
    pub fn vpair(&self, t: TupleRef) -> Vec<VertexId> {
        self.try_vpair(t, MatcherOptions::default()).matches
    }

    /// Budget-aware VPair under the supplied matcher options (budget
    /// and/or cancellation token): matches found before exhaustion are
    /// returned with the undecided candidates listed, not discarded.
    pub fn try_vpair(&self, t: TupleRef, options: MatcherOptions) -> vpair::VpairRun {
        self.vpair_with(&mut self.matcher_with(options), t)
    }

    /// The VPair body: [`vpair::try_vpair`] on `m` (whose stats are the
    /// run's own) with tuple `t`'s verified verdicts overlaid on the
    /// matched set.
    pub fn vpair_with(&self, m: &mut Matcher<'_>, t: TupleRef) -> vpair::VpairRun {
        let mut run = vpair::try_vpair(m, self.cg.vertex_of(t), self.index.as_ref());
        self.apply_verified(t, &mut run.matches);
        run
    }

    /// Overlays verified verdicts for tuple `t` onto a match list.
    /// Touches only tuple `t`'s entries in the by-tuple index —
    /// O(|verified(t)| + |matches|) per request, independent of how many
    /// verdicts other tuples have accumulated.
    fn apply_verified(&self, t: TupleRef, matches: &mut Vec<VertexId>) {
        let Some(per) = self.verified_by_tuple.get(&t) else {
            return;
        };
        let denied: her_graph::hash::FxHashSet<VertexId> = per
            .iter()
            .filter(|&&(_, ok)| !ok)
            .map(|&(v, _)| v)
            .collect();
        if !denied.is_empty() {
            matches.retain(|v| !denied.contains(v));
        }
        let present: her_graph::hash::FxHashSet<VertexId> = matches.iter().copied().collect();
        for &(v, ok) in per {
            if ok && !present.contains(&v) {
                matches.push(v);
            }
        }
        matches.sort();
    }

    /// Mode APair: all matches across `D` and `G`.
    pub fn apair(&self) -> Vec<(TupleRef, VertexId)> {
        self.try_apair_stats(MatcherOptions::default()).0
    }

    /// Budget-aware APair under the supplied matcher options; see
    /// [`Her::apair_with`].
    pub fn try_apair_stats(
        &self,
        options: MatcherOptions,
    ) -> (
        Vec<(TupleRef, VertexId)>,
        Option<ExhaustReason>,
        MatchStats,
    ) {
        self.apair_with(&mut self.matcher_with(options))
    }

    /// The APair body on `m`. The returned matches are *sound* — every
    /// pair was fully verified before a budget tripped — and come with
    /// the exhaustion reason (`None` = complete run) and the run's own
    /// [`MatchStats`], diffed against `m`'s at entry (what the serving
    /// path's flight recorder files per request).
    pub fn apair_with(
        &self,
        m: &mut Matcher<'_>,
    ) -> (
        Vec<(TupleRef, VertexId)>,
        Option<ExhaustReason>,
        MatchStats,
    ) {
        let before = m.stats();
        let mut tuple_vertices: Vec<(TupleRef, VertexId)> =
            self.cg.tuple_vertices().collect();
        tuple_vertices.sort();
        let us: Vec<VertexId> = tuple_vertices.iter().map(|&(_, u)| u).collect();
        let matched = apair::apair(m, &us, self.index.as_ref());
        let mut out: Vec<(TupleRef, VertexId)> = matched
            .into_iter()
            .filter_map(|(u, v)| self.cg.tuple_of(u).map(|t| (t, v)))
            .collect();
        self.overlay_verified_pairs(&mut out);
        out.sort();
        (out, m.exhausted(), m.stats().delta_since(&before))
    }

    /// The APair-wide verified overlay: drops pairs verified false and
    /// adds pairs verified true, with set-based membership so the cost
    /// is O(|verified| + |out|) rather than O(|verified|·|out|).
    fn overlay_verified_pairs(&self, out: &mut Vec<(TupleRef, VertexId)>) {
        if self.verified.is_empty() {
            return;
        }
        out.retain(|pair| self.verified.get(pair) != Some(&false));
        let present: her_graph::hash::FxHashSet<(TupleRef, VertexId)> =
            out.iter().copied().collect();
        for (&pair, &verdict) in &self.verified {
            if verdict && !present.contains(&pair) {
                out.push(pair);
            }
        }
    }

    /// Schema matches `Γ(u_t, v)` for a matched tuple/vertex pair.
    pub fn schema_match(&self, t: TupleRef, v: VertexId) -> Option<Vec<SchemaMatch>> {
        let mut m = self.matcher();
        let u = self.cg.vertex_of(t);
        if !m.is_match(u, v) {
            return None;
        }
        schema_matches(&mut m, u, v)
    }

    /// One user-feedback refinement round over the given annotated pairs.
    pub fn refine(
        &mut self,
        shown: &[(TupleRef, VertexId, bool)],
        cfg: &RefineConfig,
    ) -> RefineOutcome {
        let pairs: Vec<(VertexId, VertexId, bool)> = shown
            .iter()
            .map(|&(t, v, m)| (self.cg.vertex_of(t), v, m))
            .collect();
        let outcome = refine_round(
            &mut self.params,
            &self.cg.graph,
            &self.g,
            &self.cg.interner,
            &pairs,
            cfg,
        );
        // Fine-tuning mutated `M_v`/`M_ρ`: drop the shared memos and bump
        // the generation so every matcher re-scores with the refined
        // models (refine's contract: callers must invalidate matchers).
        if let Some(s) = &self.shared_scores {
            s.invalidate();
        }
        for (&(t, v, _), &(_, _, annotated)) in shown.iter().zip(&outcome.annotations) {
            self.insert_verified(t, v, annotated);
        }
        outcome
    }

    /// Evaluates accuracy over annotated tuple/vertex pairs (honouring
    /// user-verified verdicts, as the paper's Exp-4 does).
    pub fn evaluate(&self, pairs: &[(TupleRef, VertexId, bool)]) -> crate::metrics::Accuracy {
        let mut m = self.matcher();
        let mut acc = crate::metrics::Accuracy::default();
        for &(t, v, truth) in pairs {
            acc.record(self.spair_with(&mut m, t, v), truth);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paramatch::CancelToken;
    use her_rdb::schema::{RelationSchema, Schema};
    use her_rdb::tuple::Tuple;
    use her_rdb::value::Value;
    use her_graph::GraphBuilder;

    /// A two-tuple database and a graph holding both entities plus noise.
    fn fixture() -> (Database, Graph, Interner, Vec<TupleRef>, Vec<VertexId>) {
        let mut s = Schema::new();
        let item = s.add_relation(RelationSchema::new("item", &["name", "color"]));
        let mut db = Database::new(s);
        let t1 = db.insert(
            item,
            Tuple::new(vec![Value::str("Dame Shoes"), Value::str("white")]),
        );
        let t2 = db.insert(
            item,
            Tuple::new(vec![Value::str("Runner Pro"), Value::str("red")]),
        );

        let mut b = GraphBuilder::new();
        let v1 = b.add_vertex("item");
        let v1n = b.add_vertex("Dame Shoes");
        let v1c = b.add_vertex("white");
        b.add_edge(v1, v1n, "name");
        b.add_edge(v1, v1c, "hasColor");
        let v2 = b.add_vertex("item");
        let v2n = b.add_vertex("Runner Pro");
        let v2c = b.add_vertex("red");
        b.add_edge(v2, v2n, "name");
        b.add_edge(v2, v2c, "hasColor");
        let (g, i) = b.build();
        (db, g, i, vec![t1, t2], vec![v1, v2])
    }

    fn cfg() -> HerConfig {
        HerConfig {
            thresholds: Thresholds::new(0.9, 0.05, 5),
            use_blocking: false,
            ..Default::default()
        }
    }

    #[test]
    fn build_shares_label_space() {
        let (db, g, i, ts, _) = fixture();
        let her = Her::build(&db, g, i, &cfg());
        // "white" interned once, resolvable from the canonical side.
        let u = her.cg.vertex_of(ts[0]);
        assert_eq!(her.cg.interner.resolve(her.cg.graph.label(u)), "item");
        assert!(her.cg.interner.get("hasColor").is_some());
    }

    #[test]
    fn spair_distinguishes_entities() {
        let (db, g, i, ts, vs) = fixture();
        let her = Her::build(&db, g, i, &cfg());
        assert!(her.spair(ts[0], vs[0]));
        assert!(her.spair(ts[1], vs[1]));
        assert!(!her.spair(ts[0], vs[1]));
        assert!(!her.spair(ts[1], vs[0]));
    }

    #[test]
    fn vpair_returns_the_right_vertex() {
        let (db, g, i, ts, vs) = fixture();
        let her = Her::build(&db, g, i, &cfg());
        assert_eq!(her.vpair(ts[0]), vec![vs[0]]);
        assert_eq!(her.vpair(ts[1]), vec![vs[1]]);
    }

    #[test]
    fn apair_finds_all_and_only_truth() {
        let (db, g, i, ts, vs) = fixture();
        let her = Her::build(&db, g, i, &cfg());
        assert_eq!(her.apair(), vec![(ts[0], vs[0]), (ts[1], vs[1])]);
    }

    #[test]
    fn blocking_index_consistent_with_scan() {
        let (db, g, i, ts, _) = fixture();
        let mut c = cfg();
        c.use_blocking = true;
        let her_block = Her::build(&db, g.clone(), i.clone(), &c);
        c.use_blocking = false;
        let her_scan = Her::build(&db, g, i, &c);
        assert_eq!(her_block.vpair(ts[0]), her_scan.vpair(ts[0]));
        assert_eq!(her_block.apair(), her_scan.apair());
    }

    #[test]
    fn evaluate_reports_perfect_on_fixture() {
        let (db, g, i, ts, vs) = fixture();
        let her = Her::build(&db, g, i, &cfg());
        let ann = vec![
            (ts[0], vs[0], true),
            (ts[1], vs[1], true),
            (ts[0], vs[1], false),
            (ts[1], vs[0], false),
        ];
        assert_eq!(her.evaluate(&ann).f_measure(), 1.0);
    }

    #[test]
    fn learn_trains_mrho_and_keeps_accuracy() {
        let (db, g, i, ts, vs) = fixture();
        let mut her = Her::build(&db, g, i, &cfg());
        let train = vec![(ts[0], vs[0], true), (ts[0], vs[1], false)];
        let val = vec![(ts[1], vs[1], true), (ts[1], vs[0], false)];
        let f = her.learn(&train, &val, &cfg(), &SearchSpace::default());
        assert!(f >= 0.99, "validation F after learn was {f}");
    }

    /// Candidate generation consults the cancellation token: a request
    /// cancelled before it starts generates nothing — no candidate, no
    /// cut — and reports the same sound partial result a cancelled
    /// verification would.
    #[test]
    fn pre_cancelled_apair_stops_before_generating_candidates() {
        let (db, g, i, _, _) = fixture();
        let her = Her::build(&db, g, i, &cfg());
        let cancel = CancelToken::new();
        cancel.cancel();
        let options = MatcherOptions {
            cancel,
            ..Default::default()
        };
        let (matches, exhausted, stats) = her.try_apair_stats(options);
        assert!(matches.is_empty());
        assert_eq!(exhausted, Some(ExhaustReason::Cancelled));
        assert_eq!(stats, MatchStats::default());
        // Uncancelled, the same run has pairs to cut and to match.
        let (matches, exhausted, stats) = her.try_apair_stats(MatcherOptions::default());
        assert_eq!((matches.len(), exhausted), (2, None));
        assert!(stats.early_terminations > 0);
    }

    /// The facade shares one score memo across all the matchers it
    /// creates: a repeated query embeds nothing new, results unchanged,
    /// and refinement bumps the shared generation.
    #[test]
    fn facade_shares_scores_across_queries_and_refines_safely() {
        let (db, g, i, ts, vs) = fixture();
        let mut her = Her::build(&db, g.clone(), i.clone(), &cfg());
        let shared = her.shared_scores.clone().expect("shared scores on by default");
        let first = her.apair();
        let embeds = shared.embed_calls();
        assert!(embeds > 0);
        // Re-running any mode reuses the shared tables wholesale.
        assert_eq!(her.apair(), first);
        assert!(her.spair(ts[0], vs[0]));
        assert_eq!(shared.embed_calls(), embeds, "no re-embedding across queries");
        // Ablation: shared scoring must not change any result.
        let mut c = cfg();
        c.use_shared_scores = false;
        let her_private = Her::build(&db, g, i, &c);
        assert!(her_private.shared_scores.is_none());
        assert_eq!(her_private.apair(), first);
        // Refinement fine-tunes the models → generation bump.
        let before = shared.generation();
        her.refine(&[(ts[0], vs[1], false)], &RefineConfig::default());
        assert!(shared.generation() > before);
    }

    /// Refinement and the two score tiers: a matcher borrows the
    /// parameters, so none (and no private pair memo) can outlive a
    /// `refine`; what does outlive it is the facade's shared handle,
    /// whose memos `refine` must drop — the next matcher then scores the
    /// fine-tuned pair afresh instead of reading the stale float.
    #[test]
    fn refine_changes_the_scores_later_matchers_read() {
        let (db, _, _, ts, _) = fixture();
        // The fixture's graph plus a twin of `Dame Shoes` typed
        // "product": a non-match only because of its root label.
        let mut b = GraphBuilder::new();
        let mut roots = Vec::new();
        for (ty, name, color) in [
            ("item", "Dame Shoes", "white"),
            ("item", "Runner Pro", "red"),
            ("product", "Dame Shoes", "white"),
        ] {
            let v = b.add_vertex(ty);
            let n = b.add_vertex(name);
            let c = b.add_vertex(color);
            b.add_edge(v, n, "name");
            b.add_edge(v, c, "hasColor");
            roots.push(v);
        }
        let product = roots[2];
        let (g, i) = b.build();
        let mut her = Her::build(&db, g, i, &cfg());
        let u = her.cg.vertex_of(ts[0]);
        let sigma = her.params.thresholds.sigma;
        let before = her.matcher().hv_pair(u, product);
        assert!(before < sigma, "differently-typed twin starts below σ");
        assert!(!her.spair(ts[0], product));
        let generation = her.shared_scores.as_ref().expect("shared on").generation();

        // One noise-free user says they match: a false negative, so
        // M_v("item", "product") is tuned towards 1.
        let noise_free = RefineConfig {
            error_rate: 0.0,
            ..RefineConfig::default()
        };
        let outcome = her.refine(&[(ts[0], product, true)], &noise_free);
        assert_eq!(outcome.fn_corrected, 1);
        let shared = her.shared_scores.clone().expect("shared on");
        assert!(shared.generation() > generation);
        assert_eq!(shared.hv_entries(), 0, "refine drops the shared memos");
        let after = her.matcher().hv_pair(u, product);
        assert!(after > before && after >= sigma, "{before} -> {after}");
    }

    /// Regression for the verified-overlay scan: `apply_verified` used
    /// to walk the whole verified map per request (O(|verified|·
    /// |matches|)); the by-tuple index must keep a query's overlay
    /// correct — and untouched by other tuples' verdicts — no matter
    /// how many verdicts have accumulated elsewhere.
    #[test]
    fn verified_overlay_is_correct_under_a_large_verified_set() {
        let (db, g, i, ts, vs) = fixture();
        let mut her = Her::build(&db, g, i, &cfg());
        let baseline = her.vpair(ts[0]);
        assert_eq!(baseline, vec![vs[0]]);

        // Bury the two real tuples' verdicts in a large pile of
        // verdicts for fabricated tuples (rows that no query touches).
        for row in 0..5_000u32 {
            let ghost = TupleRef::new(7, row);
            her.insert_verified(ghost, VertexId(row + 100), row % 2 == 0);
        }
        // Verdicts for the queried tuple: deny its true match, assert
        // the other entity's vertex instead — and flip one of them to
        // check last-write-wins survives the index.
        her.insert_verified(ts[0], vs[0], true);
        her.insert_verified(ts[0], vs[0], false);
        her.insert_verified(ts[0], vs[1], true);

        let overlaid = her.vpair(ts[0]);
        assert!(!overlaid.contains(&vs[0]), "denied match survived");
        assert!(overlaid.contains(&vs[1]), "asserted match missing");
        // The untouched tuple is unaffected by 5k+ foreign verdicts.
        assert_eq!(her.vpair(ts[1]), vec![vs[1]]);
        // And the apair-wide overlay agrees on the real tuples.
        let all = her.apair();
        assert!(all.contains(&(ts[0], vs[1])));
        assert!(!all.contains(&(ts[0], vs[0])));
        assert!(all.contains(&(ts[1], vs[1])));
    }

    /// Every mode honours a user verdict: once a matching pair is
    /// verified false, the SPair body on a caller's (warm) matcher agrees
    /// with `spair`, `vpair`, `apair` and `evaluate`.
    #[test]
    fn every_mode_honours_a_verified_non_match() {
        let (db, g, i, ts, vs) = fixture();
        let mut her = Her::build(&db, g, i, &cfg());
        let (t, v) = (ts[0], vs[0]);
        assert!(her.spair(t, v));
        her.insert_verified(t, v, false);
        let mut m = her.matcher();
        assert!(m.is_match(her.cg.vertex_of(t), v), "simulation alone still matches");
        assert!(!her.spair_with(&mut m, t, v));
        assert!(!her.spair(t, v));
        assert!(!her.vpair(t).contains(&v));
        assert!(!her.apair().contains(&(t, v)));
        let acc = her.evaluate(&[(t, v, true)]);
        assert_eq!((acc.tp, acc.fn_), (0, 1));
    }

    #[test]
    fn schema_match_explains_color() {
        let (db, g, i, ts, vs) = fixture();
        let her = Her::build(&db, g, i, &cfg());
        let gamma = her.schema_match(ts[0], vs[0]).unwrap();
        let attrs: Vec<&str> = gamma
            .iter()
            .map(|sm| her.cg.interner.resolve(sm.attr))
            .collect();
        assert!(attrs.contains(&"color") || attrs.contains(&"name"), "{attrs:?}");
    }
}
