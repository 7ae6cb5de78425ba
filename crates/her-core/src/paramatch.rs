//! Algorithm `ParaMatch` (Fig. 4): quadratic-time parametric simulation.
//!
//! Given `(u, v)` with `u ∈ G_D` and `v ∈ G`, decides whether the pair is a
//! match under parameters `(h_v, h_ρ, h_r, σ, δ, k)`. The implementation
//! follows the paper's three stages:
//!
//! 1. **Initial stage** — reject on `h_v < σ`; accept leaves; select
//!    top-k descendants through `ecache`, as *plans* — flat entries over
//!    interned ids ([`PlanEntry`]), so nothing below reads a path;
//!    compute the initial `MaxSco` bound from the σ rows and the dense
//!    `h_ρ` table and reject when it is already below `δ`, before
//!    anything is built (candidate generation asks the same
//!    `FirstBound` first — [`Matcher::viable`], with a ceiling from
//!    masks alone ahead of the float — so the root pairs this would
//!    reject, nearly all of them, are never called on at all); otherwise
//!    install an *optimistic* `cache[u,v] = [true, ∅]` entry (the
//!    coinductive assumption that lets interdependent candidates — e.g.
//!    pairs on a cycle — be resolved without infinite recursion) and
//!    build per-descendant candidate lists sorted by descending `h_ρ`.
//! 2. **Matching stage** — maintain `MaxSco`, the best achievable aggregate
//!    score; terminate early when it sinks below `δ`; otherwise greedily
//!    grow a partial injective lineage set `W`, recursing on unresolved
//!    candidate pairs, until `Σ h_ρ ≥ δ`.
//! 3. **Cleanup stage** — when `(u, v)` is confirmed invalid, flip its cache
//!    entry to `[false, ∅]` and re-run `ParaMatch` on every recorded pair
//!    whose lineage set contains `(u, v)`, so stale optimistic conclusions
//!    are repaired (appendix C).

use crate::params::Params;
use crate::scores::{ScoreCache, SigmaRow};
use crate::shared_scores::{PlanEntry, Selection, SelectionTable, SharedScores};
use her_graph::hash::{FxHashMap, FxHashSet};
use her_graph::{Graph, Interner, LabelId, VertexId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc as Rc;
use std::time::{Duration, Instant};

/// A candidate pair `(u, v)` with `u ∈ G_D`, `v ∈ G`.
pub type PairKey = (VertexId, VertexId);

/// Why a budgeted run stopped before reaching a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The recursive-call budget ([`Budget::max_calls`]) ran out.
    Calls,
    /// The wall-clock deadline ([`Budget::deadline`]) passed.
    Deadline,
    /// The verdict cache hit its capacity ([`Budget::max_cache_entries`]).
    CacheCapacity,
    /// The shared [`CancelToken`] was triggered.
    Cancelled,
}

impl std::fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExhaustReason::Calls => write!(f, "recursive-call budget exhausted"),
            ExhaustReason::Deadline => write!(f, "wall-clock deadline passed"),
            ExhaustReason::CacheCapacity => write!(f, "verdict-cache capacity reached"),
            ExhaustReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Tri-state verdict: distinguishes "provably not a match" from "the run
/// was cut short by its [`Budget`] or [`CancelToken`]".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Matched,
    Unmatched,
    Exhausted(ExhaustReason),
}

impl Outcome {
    pub fn is_matched(&self) -> bool {
        matches!(self, Outcome::Matched)
    }

    /// True when the verdict is definitive (not an exhaustion).
    pub fn is_decided(&self) -> bool {
        !matches!(self, Outcome::Exhausted(_))
    }
}

/// Resource limits for matcher runs. The default is unlimited; every limit
/// is opt-in and checked at each `ParaMatch` invocation, so an exhausted
/// run stops within one recursive call of the limit.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Maximum number of recursive `ParaMatch` invocations.
    pub max_calls: Option<u64>,
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Maximum number of verdict-cache entries.
    pub max_cache_entries: Option<usize>,
}

impl Budget {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    pub fn with_max_calls(mut self, n: u64) -> Self {
        self.max_calls = Some(n);
        self
    }

    /// Sets the deadline to `now + d`.
    #[allow(clippy::disallowed_methods, reason = "a deadline is wall-clock time; not a replay path")]
    pub fn with_deadline_in(self, d: Duration) -> Self {
        self.with_deadline(Instant::now() + d)
    }

    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    pub fn with_max_cache_entries(mut self, n: usize) -> Self {
        self.max_cache_entries = Some(n);
        self
    }
}

/// Shared cooperative cancellation flag. Cloning yields another handle to
/// the same flag, so one token can stop a whole fleet of matchers.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Rc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every matcher sharing this token observes it
    /// at its next `ParaMatch` invocation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Counters exposed for the efficiency experiments.
///
/// Every field is monotonically non-decreasing over a matcher's
/// lifetime (nothing resets them, not even [`Matcher::invalidate`] or
/// [`Matcher::renew_budget`]). [`Matcher::stats`] returns a *detached
/// point-in-time snapshot* — a `Copy` of the counters at call time
/// that does not track later mutation; diff two snapshots with
/// [`MatchStats::delta_since`] to attribute work to a phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// `ParaMatch` invocations, recursive ones included. A pair that
    /// candidate generation cut ([`Matcher::viable`]) was never called on
    /// and is not counted here; a [`Budget::max_calls`] caps this number.
    pub calls: u64,
    /// Candidate resolutions served from `cache`.
    pub cache_hits: u64,
    /// Pairs decided by the `MaxSco` bound falling below δ: at line 12
    /// before anything is built — inside a call or, for root pairs, at
    /// candidate time without one — and at line 25 during matching.
    pub early_terminations: u64,
    /// Cleanup-stage re-evaluations.
    pub cleanups: u64,
    /// Top-k selections served from `ecache`.
    pub ecache_hits: u64,
}

impl MatchStats {
    /// Field-wise `self - earlier`, saturating at zero — the work done
    /// between the `earlier` snapshot and this one. (Saturation only
    /// matters if snapshots from different matchers are mixed up;
    /// within one matcher counters are monotone.)
    pub fn delta_since(&self, earlier: &MatchStats) -> MatchStats {
        MatchStats {
            calls: self.calls.saturating_sub(earlier.calls),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            early_terminations: self
                .early_terminations
                .saturating_sub(earlier.early_terminations),
            cleanups: self.cleanups.saturating_sub(earlier.cleanups),
            ecache_hits: self.ecache_hits.saturating_sub(earlier.ecache_hits),
        }
    }

    /// `cache_hits / (cache_hits + calls)` — the fraction of candidate
    /// resolutions served without recursing. 0 when nothing ran.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.calls;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Resolved instrument handles. Built once in [`Matcher::with_options`]
/// when the options carry an [`her_obs::Obs`]; `None` otherwise. The
/// `MatchStats` mirrors are registry counters every worker shares, so
/// the hot path never touches them: [`Matcher::publish_telemetry`] adds
/// the local delta once per non-recursive entry point.
struct Probes {
    calls: Rc<her_obs::Counter>,
    cache_hits: Rc<her_obs::Counter>,
    ecache_hits: Rc<her_obs::Counter>,
    early_terminations: Rc<her_obs::Counter>,
    cleanups: Rc<her_obs::Counter>,
    exhausted: Rc<her_obs::Counter>,
    cache_entries: Rc<her_obs::Gauge>,
    lineage_size: Rc<her_obs::Histogram>,
    candidate_list_len: Rc<her_obs::Histogram>,
    /// The part of the matcher's [`MatchStats`] already mirrored.
    flushed: MatchStats,
}

impl Probes {
    fn resolve(obs: &her_obs::Obs) -> Self {
        let r = &obs.registry;
        Probes {
            calls: r.counter("paramatch.calls"),
            cache_hits: r.counter("paramatch.cache_hits"),
            ecache_hits: r.counter("paramatch.ecache_hits"),
            early_terminations: r.counter("paramatch.early_terminations"),
            cleanups: r.counter("paramatch.cleanups"),
            exhausted: r.counter("paramatch.exhausted"),
            cache_entries: r.gauge("paramatch.cache_entries"),
            lineage_size: r.histogram("paramatch.lineage_size"),
            candidate_list_len: r.histogram("paramatch.candidate_list_len"),
            flushed: MatchStats::default(),
        }
    }
}

/// How a matcher runs: one pruning toggle (DESIGN.md §6), resource
/// governance, and the handles it shares with other matchers. The
/// budget/cancellation fields bound how much work a run may do before
/// reporting [`Outcome::Exhausted`].
#[derive(Clone, Debug)]
pub struct MatcherOptions {
    /// Use the `MaxSco` early-termination bound (Fig. 4 lines 12-14,
    /// 25-27). A pure pruning: off, every verdict is the same.
    pub early_termination: bool,
    /// Resource limits (unlimited by default).
    pub budget: Budget,
    /// Shared cooperative cancellation flag.
    pub cancel: CancelToken,
    /// Observability handle: when set, the matcher mirrors its
    /// [`MatchStats`] counters into the shared registry under the
    /// `paramatch.*` namespace and emits trace events for budget
    /// exhaustion. `None` (the default) costs one branch per site.
    pub obs: Option<her_obs::Obs>,
    /// Process-wide score layer ([`SharedScores`]) behind the matcher's
    /// private pair memo: when set, misses of the memo read through this
    /// handle, so all matchers holding it embed each distinct label
    /// once; when `None` the matcher reads through a handle of its own.
    /// Scores are pure memoised functions, so results are bit-identical
    /// either way; the matcher tracks the handle's invalidation
    /// generation and drops its derived caches (pair memo, verdicts,
    /// selections) when fine-tuning bumps it.
    pub shared_scores: Option<SharedScores>,
    /// Request-scoped trace context ([`her_obs::ReqCtx`]): minted at
    /// the serving path's admission gate and threaded here so the
    /// matcher's spans (`vpair`/`apair`) and exhaustion events carry
    /// the originating request's trace id. Defaults to the ambient
    /// (request-free) context.
    pub ctx: her_obs::ReqCtx,
}

impl Default for MatcherOptions {
    fn default() -> Self {
        Self {
            early_termination: true,
            budget: Budget::default(),
            cancel: CancelToken::new(),
            obs: None,
            shared_scores: None,
            ctx: her_obs::ReqCtx::NONE,
        }
    }
}

#[derive(Clone, Debug)]
struct CacheEntry {
    valid: bool,
    /// The lineage set `W` witnessing validity (empty for leaves/invalid).
    deps: Vec<PairKey>,
}

/// One candidate `v'` for a fixed descendant `u'`.
#[derive(Clone, Debug)]
struct Cand {
    v: VertexId,
    hrho: f32,
}

/// The first `MaxSco` bound (Fig. 4 line 12) for one `u`: Σ over the
/// selected `u′` of the `h_ρ` its candidate list would start with. Armed
/// per `u`, it is asked once per `v` — by [`Matcher::para_match`] for
/// the one pair it was called on and by [`Matcher::viable`] for a whole
/// candidate pool — so both cut on one definition of the float, and
/// [`Matcher::matching_stage`] builds its lists from the same rows.
///
/// Everything it reads is an interned id ([`PlanEntry`]). Per vertex
/// label of `G` it keeps the set of `u′` that are σ-compatible with it as
/// a bitmask, assembled from the memo's σ rows on first sight and valid
/// until the next [`FirstBound::arm`] (an epoch stamp, so re-arming
/// touches nothing). Before any float of `v` is read, the masks of its
/// entries are OR-ed into a *cover* and the covered `u′` pay their
/// `wmax` — the most any path could score against theirs: a sum below δ
/// settles `v` ([`FirstBound::cover_bound`]).
#[derive(Default)]
struct FirstBound {
    /// The armed `u`'s plan: one entry per selected `u′`.
    su: Vec<PlanEntry>,
    /// The σ row of each `L(u′)`, parallel to `su`.
    rows: Vec<Option<SigmaRow>>,
    /// Per `u′`: no `h_ρ(ρ_{u′}, ρ)` exceeds this for any `ρ` labelled by
    /// a sequence with an id below `wmax_seqs` (0: not asked this arm).
    wmax: Vec<f32>,
    wmax_seqs: usize,
    /// Mask words per label: `⌈|su| / 64⌉`, so any `k` fits.
    words: usize,
    epoch: u32,
    /// Per `LabelId`: the epoch its mask was assembled in.
    stamp: Vec<u32>,
    /// Per `LabelId`, `words` words: bit `i` ⇔ `h_v(L(u′ᵢ), label) ≥ σ`.
    masks: Vec<u64>,
    /// Scratch, per `u′`: the head of its candidate list so far.
    heads: Vec<Option<f32>>,
}

/// What a [`FirstBound`] scores with: the matcher's memo and the
/// arguments every score read takes.
struct Scoring<'m> {
    scores: &'m mut ScoreCache,
    params: &'m Params,
    interner: &'m Interner,
}

impl FirstBound {
    /// Points the bound at `u`, whose plan is `su`.
    fn arm(&mut self, sc: &mut Scoring<'_>, su: &[PlanEntry]) {
        self.su.clear();
        self.su.extend_from_slice(su);
        self.rows.clear();
        for e in su {
            self.rows.push(sc.scores.sigma_row(sc.params, sc.interner, e.label));
        }
        self.wmax_seqs = 0;
        self.words = su.len().div_ceil(64);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stamps from 2³² arms ago must not read as current.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Where the mask of `label` starts in `masks`, assembled from the σ
    /// rows if this is the arm's first sight of it.
    #[inline(always)]
    fn mask(&mut self, sc: &mut Scoring<'_>, label: LabelId) -> usize {
        if self.stamp.get(label.index()) != Some(&self.epoch) {
            self.assemble(sc, label);
        }
        label.index() * self.words
    }

    /// Kept out of line: [`Self::mask`] is the pool's inner loop.
    #[cold]
    fn assemble(&mut self, sc: &mut Scoring<'_>, label: LabelId) {
        let row = label.index() * self.words..(label.index() + 1) * self.words;
        if self.stamp.len() <= label.index() {
            self.stamp.resize(label.index() + 1, 0);
        }
        if self.masks.len() < row.end {
            self.masks.resize(row.end, 0);
        }
        self.stamp[label.index()] = self.epoch;
        self.masks[row.clone()].fill(0);
        for (i, (e, &sigma_row)) in self.su.iter().zip(&self.rows).enumerate() {
            if sc.scores.reaches_sigma(sc.params, sc.interner, (e.label, sigma_row), label) {
                self.masks[row.start + i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// The cover bound of `(u, v)`: a ceiling on [`Self::max_sco`] from
    /// masks alone — no head, no `h_ρ` of `v`. With `cover` the union of
    /// the masks of `v`'s entries, `ub = Σ_{i ∈ cover} wmax[i]` in list
    /// order. `max_sco` sums, in the same order, the head of every `u′`
    /// that has one — exactly the covered ones — and 0, which changes no
    /// float, for the rest; a head is one of the `h_ρ` its `wmax` is the
    /// largest of (also when negative); and rounded `f32` addition is
    /// monotone in each argument. So `ub ≥ max_sco` term by
    /// term, and `ub < δ` settles `v`. `None` past one mask word, or
    /// with nothing selected: ask `max_sco`.
    fn cover_bound(&mut self, sc: &mut Scoring<'_>, sv: &[PlanEntry]) -> Option<f32> {
        if self.words != 1 {
            return None;
        }
        let (mut cover, mut seqs) = (0u64, 0);
        for e in sv {
            let at = self.mask(sc, e.label);
            cover |= self.masks[at];
            seqs = seqs.max(e.seq as usize + 1);
        }
        if cover != 0 && seqs > self.wmax_seqs {
            // `wmax` has not met one of these sequences: it was interned
            // since, or this is the arm's first ask.
            self.wmax.clear();
            self.wmax_seqs = usize::MAX;
            for e in &self.su {
                let (w, seqs) = sc.scores.wmax(sc.params, sc.interner, e.seq);
                self.wmax.push(w);
                self.wmax_seqs = self.wmax_seqs.min(seqs);
            }
        }
        let mut ub = 0.0f32;
        while cover != 0 {
            ub += self.wmax[cover.trailing_zeros() as usize];
            cover &= cover - 1;
        }
        Some(ub)
    }

    /// Line 12 for a pool member: does the first bound of `(u, v)` fall
    /// short of `delta` — by its ceiling when that can tell, else by the
    /// float. (One pair at a time asks the float: a ceiling costs `wmax`
    /// its scores up front and pays over a pool.)
    fn falls_short(&mut self, sc: &mut Scoring<'_>, sv: &[PlanEntry], delta: f32) -> bool {
        self.cover_bound(sc, sv).is_some_and(|ub| ub < delta) || self.max_sco(sc, sv) < delta
    }

    /// The bound of `(u, v)` for the armed `u` and `sv`, the plan of
    /// `v`: per `u′` the best `h_ρ` over σ-compatible `v′`, summed in
    /// list order — the float [`Matcher::matching_stage`] derives from
    /// the sorted lists it builds.
    fn max_sco(&mut self, sc: &mut Scoring<'_>, sv: &[PlanEntry]) -> f32 {
        self.heads.clear();
        self.heads.resize(self.su.len(), None);
        for e in sv {
            let at = self.mask(sc, e.label);
            for w in 0..self.words {
                let mut bits = self.masks[at + w];
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let ue = self.su[i];
                    let hrho =
                        sc.scores.hrho_ids(sc.params, sc.interner, (ue.seq, ue.len), (e.seq, e.len));
                    if self.heads[i].is_none_or(|best| hrho.total_cmp(&best).is_gt()) {
                        self.heads[i] = Some(hrho);
                    }
                }
            }
        }
        let mut bound = 0.0f32;
        for head in &self.heads {
            bound += head.unwrap_or(0.0);
        }
        bound
    }

    /// Line 11 for the armed `u`: per `u′` its σ-compatible candidates
    /// among `sv` with the `h_ρ` of the witness paths, in selection order.
    fn lists(&mut self, sc: &mut Scoring<'_>, sv: &[PlanEntry]) -> Vec<Vec<Cand>> {
        let mut lists = vec![Vec::new(); self.su.len()];
        for e in sv {
            let at = self.mask(sc, e.label);
            for (i, (ue, l)) in self.su.iter().zip(&mut lists).enumerate() {
                if self.masks[at + i / 64] >> (i % 64) & 1 != 0 {
                    let hrho =
                        sc.scores.hrho_ids(sc.params, sc.interner, (ue.seq, ue.len), (e.seq, e.len));
                    l.push(Cand { v: e.end, hrho });
                }
            }
        }
        lists
    }
}

/// Which vertices of one graph this matcher has selected before — what
/// `ecache_hits` counts, whoever filled the shared table.
#[derive(Default)]
struct Seen(Vec<u64>);

impl Seen {
    /// Marks `x`; true when it was marked already.
    fn replace(&mut self, x: VertexId) -> bool {
        let (word, bit) = (x.index() / 64, 1u64 << (x.index() % 64));
        if self.0.len() <= word {
            self.0.resize(word + 1, 0);
        }
        let was = self.0[word] & bit != 0;
        self.0[word] |= bit;
        was
    }
}

/// Stateful matcher over a fixed `(G_D, G)` pair. Reuse one matcher across
/// many queries so `cache` and `ecache` amortise (this is what VPair and
/// APair rely on).
pub struct Matcher<'a> {
    gd: &'a Graph,
    g: &'a Graph,
    interner: &'a Interner,
    params: &'a Params,
    options: MatcherOptions,
    /// Private pair memo over the [`SharedScores`] handle in force.
    scores: ScoreCache,
    /// The [`SharedScores`] generation this matcher last synced with.
    seen_generation: u64,
    cache: FxHashMap<PairKey, CacheEntry>,
    /// Reverse dependencies: pair → recorded pairs whose `W` contains it.
    rdeps: FxHashMap<PairKey, Vec<PairKey>>,
    /// What of `ecache` — the score handle's selection table, held by
    /// `scores` — this matcher has read.
    seen: [Seen; 2],
    bound: FirstBound,
    stats: MatchStats,
    /// Border vertices of `G` (parallel fragments, §VI-B): pairs reaching
    /// them are optimistically assumed valid, PPSim-style.
    border: Option<FxHashSet<VertexId>>,
    /// Border pairs assumed valid since the last drain.
    new_assumptions: Vec<PairKey>,
    /// Sticky exhaustion state: once a budget limit trips, every further
    /// query short-circuits to `Outcome::Exhausted` until the budget is
    /// renewed via [`Matcher::renew_budget`].
    exhausted: Option<ExhaustReason>,
    /// Resolved metric handles mirroring [`MatchStats`] (None when
    /// `options.obs` is unset).
    probes: Option<Probes>,
    /// Set by [`Matcher::hold_telemetry`].
    hold_telemetry: bool,
}

impl<'a> Matcher<'a> {
    /// Creates a matcher over `G_D` and `G` sharing `interner`.
    pub fn new(gd: &'a Graph, g: &'a Graph, interner: &'a Interner, params: &'a Params) -> Self {
        Self::with_options(gd, g, interner, params, MatcherOptions::default())
    }

    /// Creates a matcher with explicit [`MatcherOptions`].
    pub fn with_options(
        gd: &'a Graph,
        g: &'a Graph,
        interner: &'a Interner,
        params: &'a Params,
        options: MatcherOptions,
    ) -> Self {
        let probes = options.obs.as_ref().map(Probes::resolve);
        let shared = match (&options.shared_scores, &options.obs) {
            (Some(shared), _) => shared.clone(),
            // An own handle reports into the same `scores.*` counters
            // a shared one would, so the two compare directly.
            (None, Some(obs)) => SharedScores::with_obs_for_workers(obs, 1),
            (None, None) => SharedScores::new(),
        };
        let seen_generation = shared.generation();
        let scores = ScoreCache::over(shared);
        Self {
            gd,
            g,
            interner,
            params,
            options,
            scores,
            seen_generation,
            cache: FxHashMap::default(),
            rdeps: FxHashMap::default(),
            seen: Default::default(),
            bound: FirstBound::default(),
            stats: MatchStats::default(),
            border: None,
            new_assumptions: Vec::new(),
            exhausted: None,
            probes,
            hold_telemetry: false,
        }
    }

    /// Marks `border` vertices of `G` as data-absent (§VI-B): any non-leaf
    /// pair reaching one is optimistically assumed a match, recorded as an
    /// assumption for the BSP engine to verify at the owner.
    pub fn with_border(mut self, border: FxHashSet<VertexId>) -> Self {
        self.border = Some(border);
        self
    }

    /// Drains border pairs assumed valid since the last call.
    pub fn take_new_assumptions(&mut self) -> Vec<PairKey> {
        std::mem::take(&mut self.new_assumptions)
    }

    /// Worker recovery (§VI-B): adopts `vs` into this matcher's fragment.
    /// The vertices leave the border set, and every cached pair resolved
    /// against them is forgotten (together with anything whose lineage
    /// reached it), so the next evaluation verifies them authoritatively on
    /// local data instead of assuming. Re-verification is safe because
    /// invalidation is monotone: recomputing can only confirm an assumption
    /// or flip it `true → false`, both of which the IncPSim cleanup already
    /// handles, so the fixpoint is unchanged.
    pub fn adopt_border(&mut self, vs: &FxHashSet<VertexId>) {
        if let Some(border) = &mut self.border {
            for v in vs {
                border.remove(v);
            }
        }
        let stale: Vec<PairKey> = self
            .cache
            .keys()
            .filter(|k| vs.contains(&k.1))
            .copied()
            .collect();
        for p in stale {
            self.purge(p);
        }
        // Pending assumptions on adopted vertices would otherwise turn into
        // requests addressed to ourselves.
        self.new_assumptions.retain(|p| !vs.contains(&p.1));
    }

    /// Applies an externally-deduced invalidation (IncPSim, §VI-B): flips
    /// `(u, v)` to false and re-checks every recorded dependent. If the
    /// budget runs out mid-repair the unfinished dependents are *purged*
    /// (forgotten, not mis-cached) and the exhaustion is recorded in
    /// [`Matcher::exhausted`].
    pub fn apply_invalidation(&mut self, u: VertexId, v: VertexId) {
        self.set_verdict(u, v, false, Vec::new());
        let _ = self.cleanup(u, v);
        self.flush_telemetry();
    }

    /// The canonical graph `G_D`.
    pub fn gd(&self) -> &'a Graph {
        self.gd
    }

    /// The data graph `G`.
    pub fn g(&self) -> &'a Graph {
        self.g
    }

    /// The shared interner.
    pub fn interner(&self) -> &'a Interner {
        self.interner
    }

    /// The parameters in force.
    pub fn params(&self) -> &'a Params {
        self.params
    }

    /// Accumulated counters, as a *detached point-in-time snapshot*:
    /// the returned `Copy` reflects the matcher's state at the moment
    /// of the call and never changes afterwards, while the matcher's
    /// own counters continue to grow monotonically. Take snapshots
    /// before and after a phase and diff with
    /// [`MatchStats::delta_since`] to measure that phase alone.
    #[must_use = "stats() returns a detached snapshot, not a live view"]
    pub fn stats(&self) -> MatchStats {
        self.stats
    }

    /// The request-scoped trace context this matcher runs under
    /// (ambient [`her_obs::ReqCtx::NONE`] outside the serving path).
    pub fn ctx(&self) -> her_obs::ReqCtx {
        self.options.ctx
    }

    /// The observability handle this matcher reports into, if any.
    pub fn obs(&self) -> Option<&her_obs::Obs> {
        self.options.obs.as_ref()
    }

    /// The budget limit that tripped, if any. Sticky until
    /// [`Matcher::renew_budget`] is called; while set, every query returns
    /// [`Outcome::Exhausted`] without doing further work, and cached
    /// verdicts resolved *before* exhaustion remain available (partial
    /// results are surfaced, not discarded).
    pub fn exhausted(&self) -> Option<ExhaustReason> {
        self.exhausted
    }

    /// The [`SharedScores`] generation this matcher last synced with.
    /// Introspection for the invalidation protocol.
    pub fn scores_generation(&self) -> u64 {
        self.seen_generation
    }

    /// Installs a fresh budget and clears the sticky exhaustion state so
    /// the matcher can resume. Already-resolved verdicts are kept.
    pub fn renew_budget(&mut self, budget: Budget) {
        self.options.budget = budget;
        self.exhausted = None;
    }

    /// Re-arms a pooled matcher for a new request: fresh budget, fresh
    /// cancellation token, the new request's trace context (so exhaustion
    /// events attribute correctly), and the sticky exhaustion state
    /// cleared. Pair memo, verdict cache, lineage index and selections
    /// survive — that is the point of pooling; a stale [`SharedScores`]
    /// generation is reconciled lazily at the next query entry point.
    pub fn rearm(&mut self, budget: Budget, cancel: CancelToken, ctx: her_obs::ReqCtx) {
        self.options.budget = budget;
        self.options.cancel = cancel;
        self.options.ctx = ctx;
        self.exhausted = None;
    }

    /// Runs `f` against the resolved probes when observability is on.
    #[inline]
    fn probe(&self, f: impl FnOnce(&Probes)) {
        if let Some(p) = &self.probes {
            f(p);
        }
    }

    /// Defers telemetry until [`Matcher::publish_telemetry`]: a caller
    /// about to issue many queries (APair, VPair, a BSP superstep) is
    /// itself the entry point, and publishes once when it is done.
    pub fn hold_telemetry(&mut self) {
        self.hold_telemetry = true;
    }

    /// [`Matcher::publish_telemetry`] unless a caller holds it.
    fn flush_telemetry(&mut self) {
        if !self.hold_telemetry {
            self.publish_telemetry();
        }
    }

    /// Publishes what the hot path only tallied locally: the private
    /// memo's hit count into the score handle, and (when observability
    /// is on) the [`MatchStats`] delta since the last publication into
    /// the `paramatch.*` registry counters. Runs once per non-recursive
    /// entry point and on drop, never inside the recursion.
    pub fn publish_telemetry(&mut self) {
        self.hold_telemetry = false;
        self.scores.flush_hits();
        if let Some(p) = &mut self.probes {
            let d = self.stats.delta_since(&p.flushed);
            p.flushed = self.stats;
            for (counter, n) in [
                (&p.calls, d.calls),
                (&p.cache_hits, d.cache_hits),
                (&p.ecache_hits, d.ecache_hits),
                (&p.early_terminations, d.early_terminations),
                (&p.cleanups, d.cleanups),
            ] {
                if n != 0 {
                    counter.add(n);
                }
            }
            p.cache_entries.set(self.cache.len() as f64);
        }
    }

    /// Drops everything derived from scores: the private memo with its
    /// σ rows, id-keyed tables and hold on the selection table, verdicts
    /// and the lineage index.
    fn drop_derived(&mut self) {
        self.scores.clear();
        self.cache.clear();
        self.rdeps.clear();
        self.seen = Default::default();
    }

    /// Reconciles with the score handle's invalidation generation: if
    /// fine-tuning elsewhere bumped it, this matcher's derived state was
    /// computed against stale scores and is dropped. Called at the
    /// non-recursive query entry points only — never mid-recursion,
    /// where in-flight optimistic entries must survive.
    fn sync_shared_generation(&mut self) {
        let gen = self.scores.shared().generation();
        if gen != self.seen_generation {
            self.seen_generation = gen;
            self.drop_derived();
        }
    }

    /// `h_v` between a `G_D` vertex and a `G` vertex (used by candidate
    /// generation in VPair/APair). Memo hits it tallies are published by
    /// the next query entry point, or on drop.
    pub fn hv_pair(&mut self, u: VertexId, v: VertexId) -> f32 {
        let (l1, l2) = (self.gd.label(u), self.g.label(v));
        self.scores.hv(self.params, self.interner, l1, l2)
    }

    /// Module SPair: does `(u, v)` match by parametric simulation?
    ///
    /// Serves previously-resolved pairs from `cache`. A budget-exhausted
    /// run conservatively reports `false`; use [`Matcher::try_match`] when
    /// the caller must distinguish `Unmatched` from `Exhausted`.
    pub fn is_match(&mut self, u: VertexId, v: VertexId) -> bool {
        self.try_match(u, v).is_matched()
    }

    /// As [`Matcher::is_match`], but reporting the tri-state [`Outcome`]:
    /// cached verdicts (even ones resolved before an exhaustion) are served
    /// as `Matched`/`Unmatched`; unresolved pairs after exhaustion report
    /// `Exhausted` without doing further work.
    pub fn try_match(&mut self, u: VertexId, v: VertexId) -> Outcome {
        self.sync_shared_generation();
        let verdict = match self.cache.get(&(u, v)) {
            Some(e) => {
                self.stats.cache_hits += 1;
                Ok(e.valid)
            }
            None => self.para_match(u, v),
        };
        self.flush_telemetry();
        match verdict {
            Ok(true) => Outcome::Matched,
            Ok(false) => Outcome::Unmatched,
            Err(reason) => Outcome::Exhausted(reason),
        }
    }

    /// The cached verdict for a pair, if already resolved.
    pub fn cached(&self, u: VertexId, v: VertexId) -> Option<bool> {
        self.cache.get(&(u, v)).map(|e| e.valid)
    }

    /// The witness `Π(u, v)`: the pair itself plus the transitive closure of
    /// recorded lineage sets. `None` if `(u, v)` is not a cached match.
    pub fn witness(&self, u: VertexId, v: VertexId) -> Option<Vec<PairKey>> {
        match self.cache.get(&(u, v)) {
            Some(e) if e.valid => {}
            _ => return None,
        }
        let mut seen: FxHashSet<PairKey> = FxHashSet::default();
        let mut queue = vec![(u, v)];
        let mut out = Vec::new();
        while let Some(p) = queue.pop() {
            if !seen.insert(p) {
                continue;
            }
            out.push(p);
            if let Some(e) = self.cache.get(&p) {
                queue.extend(e.deps.iter().copied());
            }
        }
        out.sort();
        Some(out)
    }

    /// The recorded lineage set `S_(u,v)` (direct dependencies only).
    pub fn lineage(&self, u: VertexId, v: VertexId) -> Option<&[PairKey]> {
        self.cache
            .get(&(u, v))
            .filter(|e| e.valid)
            .map(|e| e.deps.as_slice())
    }

    /// Top-k selection for a `G_D` vertex (exposed for schema matching).
    pub fn select_d(&mut self, u: VertexId) -> Selection {
        self.select(false, u)
    }

    /// Top-k selection for a `G` vertex (exposed for schema matching).
    pub fn select_g(&mut self, v: VertexId) -> Selection {
        self.select(true, v)
    }

    /// `h_r` top-k selection of `x` in `G` (`in_g`) or `G_D`, through
    /// `ecache`. A hit is a vertex *this matcher* selected before, so
    /// the count does not depend on who else warmed the shared table.
    fn select(&mut self, in_g: bool, x: VertexId) -> Selection {
        let graph = if in_g { self.g } else { self.gd };
        self.stats.ecache_hits += u64::from(self.seen[usize::from(in_g)].replace(x));
        Rc::clone(self.ecache().select(in_g, graph, &self.params.ranker, x))
    }

    /// [`Matcher::select`] as a plan borrowed from `table`, which is
    /// `ecache`.
    fn plan<'t>(&mut self, table: &'t SelectionTable, in_g: bool, x: VertexId) -> &'t [PlanEntry] {
        let graph = if in_g { self.g } else { self.gd };
        self.stats.ecache_hits += u64::from(self.seen[usize::from(in_g)].replace(x));
        table.plan(in_g, graph, &self.params.ranker, x)
    }

    /// The selection table of the score handle's current generation.
    fn ecache(&mut self) -> Rc<SelectionTable> {
        Rc::clone(self.scores.table(self.gd, self.g, self.params.thresholds.k))
    }

    /// `M_ρ` on two raw edge-label sequences (memoised on the shared
    /// tier). Used by schema matching to score path prefixes (appendix D).
    pub fn mrho_seq(&mut self, seq1: &[her_graph::LabelId], seq2: &[her_graph::LabelId]) -> f32 {
        self.sync_shared_generation();
        let s = self.scores.mrho(self.params, self.interner, seq1, seq2);
        self.flush_telemetry();
        s
    }

    /// Captures the durable state of this matcher — the verdict cache
    /// with lineage sets, border/assumption bookkeeping, exhaustion flag
    /// and counters — as a serializable
    /// [`MatcherCheckpoint`](crate::checkpoint::MatcherCheckpoint).
    ///
    /// Call only at quiescent points (no `try_match` in flight): an
    /// in-flight run holds optimistic cache entries that must not be
    /// persisted as verdicts. Derived memos (`ecache`, score cache) are
    /// not captured; they re-fill on demand after
    /// [`restore`](Matcher::restore).
    pub fn checkpoint(&self) -> crate::checkpoint::MatcherCheckpoint {
        let mut entries: Vec<crate::checkpoint::CheckpointEntry> = self
            .cache
            .iter()
            .map(|(&pair, e)| (pair, e.valid, e.deps.clone()))
            .collect();
        entries.sort_by_key(|(pair, _, _)| *pair);
        let border = self.border.as_ref().map(|b| {
            let mut vs: Vec<VertexId> = b.iter().copied().collect();
            vs.sort_unstable();
            vs
        });
        let mut new_assumptions = self.new_assumptions.clone();
        new_assumptions.sort_unstable();
        crate::checkpoint::MatcherCheckpoint {
            entries,
            border,
            new_assumptions,
            exhausted: self.exhausted,
            stats: self.stats,
        }
    }

    /// Restores the state captured by [`checkpoint`](Matcher::checkpoint)
    /// into this matcher (which must be built over the same `(G_D, G)`
    /// pair and parameters). The reverse-dependency index is rebuilt from
    /// the recorded lineage sets; derived memos are left to re-fill.
    pub fn restore(&mut self, ck: &crate::checkpoint::MatcherCheckpoint) {
        self.cache.clear();
        self.rdeps.clear();
        for (pair, valid, deps) in &ck.entries {
            for &d in deps {
                self.rdeps.entry(d).or_default().push(*pair);
            }
            self.cache.insert(
                *pair,
                CacheEntry {
                    valid: *valid,
                    deps: deps.clone(),
                },
            );
        }
        self.border = ck
            .border
            .as_ref()
            .map(|b| b.iter().copied().collect::<FxHashSet<VertexId>>());
        self.new_assumptions = ck.new_assumptions.clone();
        self.exhausted = ck.exhausted;
        self.stats = ck.stats;
        // Score memos are derived state and never checkpointed: a restored
        // matcher adopts the shared layer's *current* generation, reading
        // whatever (possibly post-fine-tuning) scores it now holds.
        self.scores.clear();
        self.seen_generation = self.scores.shared().generation();
        let entries = self.cache.len();
        if let Some(p) = &mut self.probes {
            // Restored counters were mirrored by the run that earned them.
            p.flushed = ck.stats;
            p.cache_entries.set(entries as f64);
        }
    }

    /// Invalidates memoised scores and verdicts — required after model
    /// fine-tuning changes the parameter functions. This bumps the score
    /// handle's generation, so every other matcher on the handle
    /// re-syncs at its next query.
    pub fn invalidate(&mut self) {
        self.scores.invalidate();
        self.seen_generation = self.scores.shared().generation();
        self.drop_derived();
    }

    // ------------------------------------------------------------------
    // The algorithm of Fig. 4.
    // ------------------------------------------------------------------

    /// The cancellation token and the deadline, for loops that spend time
    /// without calling `ParaMatch` (candidate generation): trips the same
    /// sticky exhaustion a call would. The call and cache-size limits are
    /// not consulted — candidate generation spends neither.
    pub fn interrupted(&mut self) -> Option<ExhaustReason> {
        self.check_budget(false).err()
    }

    /// Checks the cancellation token and the budget — all of it when
    /// `calling` `ParaMatch`, else only what [`Matcher::interrupted`]
    /// names. Once a limit trips the exhaustion is sticky, so the whole
    /// recursion unwinds promptly and later queries short-circuit.
    #[allow(clippy::disallowed_methods, reason = "checks the request deadline; not a replay path")]
    fn check_budget(&mut self, calling: bool) -> Result<(), ExhaustReason> {
        if let Some(reason) = self.exhausted {
            return Err(reason);
        }
        let budget = self.options.budget;
        let reason = if self.options.cancel.is_cancelled() {
            Some(ExhaustReason::Cancelled)
        } else if calling && budget.max_calls.is_some_and(|max| self.stats.calls >= max) {
            Some(ExhaustReason::Calls)
        } else if budget.deadline.is_some_and(|dl| Instant::now() >= dl) {
            Some(ExhaustReason::Deadline)
        } else if calling
            && budget
                .max_cache_entries
                .is_some_and(|cap| self.cache.len() >= cap)
        {
            Some(ExhaustReason::CacheCapacity)
        } else {
            None
        };
        match reason {
            Some(r) => {
                self.exhausted = Some(r);
                self.probe(|p| p.exhausted.inc());
                if let Some(obs) = &self.options.obs {
                    obs.tracer
                        .event_ctx("paramatch.exhausted", &format!("{r}"), self.options.ctx);
                }
                Err(r)
            }
            None => Ok(()),
        }
    }

    /// Removes a pair's verdict and transitively forgets every cached match
    /// whose lineage reaches it. Used when exhaustion interrupts a run:
    /// in-flight optimistic entries (and anything that came to depend on
    /// them) must not survive as unproven `Matched` verdicts, so that the
    /// *partial* results left behind are still sound.
    fn purge(&mut self, origin: PairKey) {
        let mut queue = vec![origin];
        while let Some(p) = queue.pop() {
            self.cache.remove(&p);
            if let Some(dependents) = self.rdeps.remove(&p) {
                for d in dependents {
                    let depends = self
                        .cache
                        .get(&d)
                        .map(|e| e.valid && e.deps.contains(&p))
                        .unwrap_or(false);
                    if depends {
                        queue.push(d);
                    }
                }
            }
        }
    }

    fn para_match(&mut self, u: VertexId, v: VertexId) -> Result<bool, ExhaustReason> {
        self.check_budget(true)?;
        self.stats.calls += 1;
        let Params { thresholds, .. } = self.params;
        let (sigma, delta) = (thresholds.sigma, thresholds.delta);

        // --- Initial stage (lines 1-11) ---
        let hv = self.hv_pair(u, v);
        if hv < sigma {
            self.set_verdict(u, v, false, Vec::new());
            return Ok(false);
        }
        if self.gd.is_leaf(u) {
            self.set_verdict(u, v, true, Vec::new());
            return Ok(true);
        }
        // Parallel fragments: v's out-edges live on another worker — assume
        // the pair valid (PPSim) and let the owner verify it (§VI-B).
        if let Some(border) = &self.border {
            if border.contains(&v) {
                self.set_verdict(u, v, true, Vec::new());
                self.new_assumptions.push((u, v));
                return Ok(true);
            }
        }
        let table = self.ecache();
        let su = self.plan(&table, false, u);
        let sv = self.plan(&table, true, v);
        // Line 12 ahead of line 11: a pair that cannot reach δ is decided
        // before lists are built or `cache` is touched. Root pairs rarely
        // get this far — [`Matcher::viable`] cuts them at candidate time.
        let bounded = self.options.early_termination;
        let (bound, mut sc) = self.bound_and_scoring();
        bound.arm(&mut sc, su);
        if bounded && bound.max_sco(&mut sc, sv) < delta {
            self.stats.early_terminations += 1;
            self.set_verdict(u, v, false, Vec::new());
            return Ok(false);
        }
        // Optimistic assumption enabling cyclic interdependence (appendix C).
        self.cache.insert(
            (u, v),
            CacheEntry {
                valid: true,
                deps: Vec::new(),
            },
        );

        match self.matching_stage(u, v, su, sv) {
            Ok(verdict) => Ok(verdict),
            Err(reason) => {
                // Graceful unwind: retract the in-flight optimistic entry
                // (and any verdict that leaned on it) instead of caching an
                // unproven `true`.
                self.purge((u, v));
                Err(reason)
            }
        }
    }

    /// The first bound and what it scores with, borrowed side by side.
    fn bound_and_scoring(&mut self) -> (&mut FirstBound, Scoring<'_>) {
        let sc = Scoring { scores: &mut self.scores, params: self.params, interner: self.interner };
        (&mut self.bound, sc)
    }

    /// Candidate generation's half of `ParaMatch`: the members of `pool`
    /// that a fresh [`Matcher::try_match`] on `(u, ·)` would not reject
    /// in its initial stage — `h_v ≥ σ` and, unless `early_termination`
    /// is off, the first `MaxSco` bound reaches δ. Leaves of `G_D` and
    /// border vertices pass as they do there. Every pair that passes σ
    /// and is cut by the bound counts as an early termination, which it
    /// is; none counts as a call, installs a verdict or spends budget.
    pub fn viable(&mut self, u: VertexId, mut pool: Vec<VertexId>) -> Vec<VertexId> {
        self.sync_shared_generation();
        let (params, interner) = (self.params, self.interner);
        let delta = params.thresholds.delta;
        let bounded = self.options.early_termination && !self.gd.is_leaf(u);
        // Held here so a pool member's plan is borrowed, not cloned.
        let table = self.ecache();
        if bounded {
            let su = self.plan(&table, false, u);
            let (bound, mut sc) = self.bound_and_scoring();
            bound.arm(&mut sc, su);
        }
        // The root test reads `L(u)`'s σ row like any end label's.
        let lu = self.gd.label(u);
        let root = self.scores.sigma_row(params, interner, lu);
        pool.retain(|&v| {
            if !self.scores.reaches_sigma(params, interner, (lu, root), self.g.label(v)) {
                return false;
            }
            if !bounded || self.border.as_ref().is_some_and(|b| b.contains(&v)) {
                return true;
            }
            let sv = self.plan(&table, true, v);
            let (bound, mut sc) = self.bound_and_scoring();
            let cut = bound.falls_short(&mut sc, sv, delta);
            self.stats.early_terminations += u64::from(cut);
            !cut
        });
        self.flush_telemetry();
        pool
    }

    /// Matching + cleanup stages (Fig. 4 lines 11-32), separated from
    /// [`Matcher::para_match`] so a budget exhaustion anywhere below can be
    /// intercepted to retract the optimistic cache entry of `(u, v)`.
    fn matching_stage(
        &mut self,
        u: VertexId,
        v: VertexId,
        su: &[PlanEntry],
        sv: &[PlanEntry],
    ) -> Result<bool, ExhaustReason> {
        let delta = self.params.thresholds.delta;

        // Line 11: candidate lists per selected descendant u', sorted by
        // descending h_ρ of the witness paths. The bound is armed for
        // `u` — the caller did, and nothing has recursed since.
        let (bound, mut sc) = self.bound_and_scoring();
        let mut lists = bound.lists(&mut sc, sv);
        for l in &mut lists {
            l.sort_by(|a, b| b.hrho.total_cmp(&a.hrho).then_with(|| a.v.cmp(&b.v)));
            self.probe(|p| p.candidate_list_len.observe(l.len() as u64));
        }

        // --- Matching stage (lines 12-27) ---
        // Line 12: the best achievable aggregate score; the caller has
        // already checked it against δ.
        let mut max_sco: f32 = lists
            .iter()
            .map(|l| l.first().map(|c| c.hrho).unwrap_or(0.0))
            .sum();

        let mut sum = 0.0f32;
        let mut w: Vec<(PairKey, f32)> = Vec::new();
        let mut used: FxHashSet<VertexId> = FxHashSet::default();

        'outer: for (ui, l) in lists.iter().enumerate() {
            let u_desc = su[ui].end;
            for (ci, cand) in l.iter().enumerate() {
                // Partial injective mapping: each v' matches at most one u'.
                let skip = used.contains(&cand.v);
                let matched = if skip {
                    false
                } else {
                    let key = (u_desc, cand.v);
                    if let Some(e) = self.cache.get(&key) {
                        self.stats.cache_hits += 1;
                        e.valid
                    } else {
                        self.para_match(u_desc, cand.v)?
                    }
                };
                if matched {
                    sum += cand.hrho;
                    w.push(((u_desc, cand.v), cand.hrho));
                    used.insert(cand.v);
                    if sum >= delta {
                        // Recursion below us may have invalidated an earlier
                        // optimistic dependency; prune stale entries before
                        // concluding (keeps the witness sound).
                        self.prune_stale(&mut w, &mut used, &mut sum);
                        if sum >= delta {
                            let deps: Vec<PairKey> = w.iter().map(|(p, _)| *p).collect();
                            self.set_verdict(u, v, true, deps);
                            return Ok(true);
                        }
                    }
                    break; // next u'
                }
                // Line 25: replace this candidate's contribution by the next
                // still-available one.
                if self.options.early_termination {
                    let next = l[ci + 1..]
                        .iter()
                        .find(|c| !used.contains(&c.v))
                        .map(|c| c.hrho)
                        .unwrap_or(0.0);
                    max_sco = max_sco - cand.hrho + next;
                    if max_sco < delta {
                        self.stats.early_terminations += 1;
                        break 'outer;
                    }
                }
            }
        }

        // --- Cleanup stage (lines 28-32) ---
        self.set_verdict(u, v, false, Vec::new());
        self.cleanup(u, v)?;
        Ok(false)
    }

    /// Removes pairs from `w` whose cache verdict has flipped to false.
    fn prune_stale(
        &self,
        w: &mut Vec<(PairKey, f32)>,
        used: &mut FxHashSet<VertexId>,
        sum: &mut f32,
    ) {
        w.retain(|(p, h)| {
            let ok = self.cache.get(p).map(|e| e.valid).unwrap_or(false);
            if !ok {
                *sum -= h;
                used.remove(&p.1);
            }
            ok
        });
    }

    /// Installs a verdict, maintaining the reverse-dependency index.
    fn set_verdict(&mut self, u: VertexId, v: VertexId, valid: bool, deps: Vec<PairKey>) {
        if valid && !deps.is_empty() {
            self.probe(|p| p.lineage_size.observe(deps.len() as u64));
        }
        // One probe of the (large) verdict table; `deps` is empty, and
        // its clone free, for all but the rare confirmed match.
        let entry = CacheEntry {
            valid,
            deps: deps.clone(),
        };
        // Unregister any previous deps of this pair, then register the new.
        if let Some(old) = self.cache.insert((u, v), entry) {
            for d in old.deps {
                if let Some(r) = self.rdeps.get_mut(&d) {
                    r.retain(|p| *p != (u, v));
                }
            }
        }
        for d in deps {
            self.rdeps.entry(d).or_default().push((u, v));
        }
    }

    /// Re-runs `ParaMatch` on every recorded pair that depended on the
    /// freshly-invalidated `(u, v)` (Fig. 4 lines 29-31).
    ///
    /// If the budget runs out mid-repair, the dependents not yet re-checked
    /// are purged (their verdicts were justified by the now-false pair), so
    /// every verdict that survives an exhausted run is still sound.
    fn cleanup(&mut self, u: VertexId, v: VertexId) -> Result<(), ExhaustReason> {
        let dependents = match self.rdeps.remove(&(u, v)) {
            Some(d) => d,
            None => return Ok(()),
        };
        for (i, &(up, vp)) in dependents.iter().enumerate() {
            let needs_recheck = self
                .cache
                .get(&(up, vp))
                .map(|e| e.valid && e.deps.contains(&(u, v)))
                .unwrap_or(false);
            if needs_recheck {
                self.stats.cleanups += 1;
                // Unset and recompute.
                self.set_verdict(up, vp, false, Vec::new());
                self.cache.remove(&(up, vp));
                if let Err(reason) = self.para_match(up, vp) {
                    for &rest in &dependents[i + 1..] {
                        self.purge(rest);
                    }
                    return Err(reason);
                }
            }
        }
        Ok(())
    }
}

impl Drop for Matcher<'_> {
    fn drop(&mut self) {
        self.publish_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Params, Thresholds};
    use her_graph::GraphBuilder;

    /// Builds a tiny `G_D` ("tuple" r with two attributes) and a `G`
    /// (entity with the same values under different predicates) over one
    /// interner. Returns (gd, g, interner, u_root, v_root, v_decoy).
    fn fixture() -> (Graph, Graph, Interner, VertexId, VertexId, VertexId) {
        let mut b = GraphBuilder::new();
        // G_D part
        let u_root = b.add_vertex("item");
        let u_color = b.add_vertex("white");
        let u_mat = b.add_vertex("phylon foam");
        b.add_edge(u_root, u_color, "color");
        b.add_edge(u_root, u_mat, "material");
        let (gd, interner) = b.build();

        let mut b2 = GraphBuilder::with_interner(interner);
        let v_root = b2.add_vertex("item");
        let v_color = b2.add_vertex("white");
        let v_mat = b2.add_vertex("phylon foam");
        b2.add_edge(v_root, v_color, "color");
        b2.add_edge(v_root, v_mat, "material");
        let v_decoy = b2.add_vertex("item");
        let v_red = b2.add_vertex("red");
        let v_leather = b2.add_vertex("leather");
        b2.add_edge(v_decoy, v_red, "color");
        b2.add_edge(v_decoy, v_leather, "material");
        let (g, interner) = b2.build();
        (gd, g, interner, u_root, v_root, v_decoy)
    }

    fn params(sigma: f32, delta: f32, k: usize) -> Params {
        Params::untrained(64, 7).with_thresholds(Thresholds::new(sigma, delta, k))
    }

    #[test]
    fn identical_structures_match() {
        let (gd, g, interner, u, v, _) = fixture();
        // Identical predicates: untrained M_ρ gives each pair some score s; with
        // δ=0 the aggregate always passes, so matching hinges on h_v.
        let p = params(0.9, 0.0, 5);
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        assert!(m.is_match(u, v));
    }

    #[test]
    fn label_mismatch_rejected_immediately() {
        let (gd, g, interner, u, _, _) = fixture();
        let p = params(0.9, 0.0, 5);
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        // "white" attribute vertex vs "item" root: labels differ.
        let u_attr = gd.children(u)[0];
        assert!(!m.is_match(u_attr, VertexId(0)));
        assert_eq!(m.cached(u_attr, VertexId(0)), Some(false));
    }

    #[test]
    fn decoy_with_different_values_rejected() {
        let (gd, g, interner, u, _, decoy) = fixture();
        // δ > 0 forces at least one descendant pair to match; the decoy's
        // values (red/leather) fail the σ check against white/phylon foam.
        let p = params(0.9, 0.2, 5);
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        assert!(!m.is_match(u, decoy));
    }

    #[test]
    fn leaves_match_on_label_alone() {
        let (gd, g, interner, u, v, _) = fixture();
        let p = params(0.9, 5.0, 5); // impossible δ, irrelevant for leaves
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        let u_color = gd.children(u)[0];
        let v_color = g.children(v)[0];
        assert!(m.is_match(u_color, v_color));
    }

    #[test]
    fn witness_contains_root_and_lineage() {
        let (gd, g, interner, u, v, _) = fixture();
        let p = params(0.9, 0.1, 5);
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        assert!(m.is_match(u, v));
        let w = m.witness(u, v).unwrap();
        assert!(w.contains(&(u, v)));
        assert!(w.len() >= 2, "expected lineage in witness: {w:?}");
        // Every pair in the witness is itself cached valid.
        assert!(w.iter().all(|&(a, b)| m.cached(a, b) == Some(true)));
    }

    #[test]
    fn no_witness_for_non_match() {
        let (gd, g, interner, u, _, decoy) = fixture();
        let p = params(0.9, 0.2, 5);
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        assert!(!m.is_match(u, decoy));
        assert!(m.witness(u, decoy).is_none());
    }

    #[test]
    fn cache_hit_on_repeat_query() {
        let (gd, g, interner, u, v, _) = fixture();
        let p = params(0.9, 0.1, 5);
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        assert!(m.is_match(u, v));
        let calls_before = m.stats().calls;
        assert!(m.is_match(u, v));
        assert_eq!(m.stats().calls, calls_before, "second query must be cached");
        assert!(m.stats().cache_hits > 0);
    }

    #[test]
    fn early_termination_counted_for_impossible_delta() {
        let (gd, g, interner, u, v, _) = fixture();
        let p = params(0.9, 100.0, 5);
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        assert!(!m.is_match(u, v));
        assert!(m.stats().early_terminations > 0);
    }

    #[test]
    fn options_do_not_change_verdicts() {
        let (gd, g, interner, u, v, decoy) = fixture();
        let p = params(0.9, 0.1, 5);
        for opts in toggle_grid() {
            let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts.clone());
            assert!(m.is_match(u, v), "opts {opts:?}");
            assert!(!m.is_match(u, decoy), "opts {opts:?}");
        }
    }

    /// Appendix C's cyclic scenario: u→u1→u2→u1 (cycle) with matching
    /// labels in G, where a third pair fails and forces cleanup.
    #[test]
    fn interdependent_cycle_with_cleanup() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex("a");
        let u1 = b.add_vertex("b");
        let u2 = b.add_vertex("c");
        let u3 = b.add_vertex("poison");
        b.add_edge(u, u1, "e");
        b.add_edge(u1, u2, "e");
        b.add_edge(u2, u1, "e");
        b.add_edge(u1, u3, "f");
        let (gd, i) = b.build();
        let mut b2 = GraphBuilder::with_interner(i);
        let v = b2.add_vertex("a");
        let v1 = b2.add_vertex("b");
        let v2 = b2.add_vertex("c");
        let v3 = b2.add_vertex("different");
        b2.add_edge(v, v1, "e");
        b2.add_edge(v1, v2, "e");
        b2.add_edge(v2, v1, "e");
        b2.add_edge(v1, v3, "f");
        let (g, interner) = b2.build();

        // δ small enough that one matching descendant suffices; the poison
        // vertex mismatch must not break the cycle pairs.
        let p = params(0.95, 0.05, 5);
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        assert!(m.is_match(u, v));
        assert_eq!(m.cached(u1, v1), Some(true));
        assert_eq!(m.cached(u2, v2), Some(true));
        // The poison pair never became a match (it is either filtered out
        // at candidate-list construction or cached false).
        assert_ne!(m.cached(u3, v3), Some(true));
    }

    #[test]
    fn call_budget_reports_exhausted_not_false() {
        let (gd, g, interner, u, v, _) = fixture();
        let p = params(0.9, 0.1, 5);
        let opts = MatcherOptions {
            budget: Budget::unlimited().with_max_calls(1),
            ..Default::default()
        };
        let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts);
        let out = m.try_match(u, v);
        assert!(matches!(out, Outcome::Exhausted(ExhaustReason::Calls)), "{out:?}");
        assert_eq!(m.exhausted(), Some(ExhaustReason::Calls));
        // Conservative boolean view.
        assert!(!m.is_match(u, v));
        // No unproven optimistic verdict may survive the unwind.
        assert_ne!(m.cached(u, v), Some(true));
    }

    #[test]
    fn renew_budget_resumes_and_finishes() {
        let (gd, g, interner, u, v, _) = fixture();
        let p = params(0.9, 0.1, 5);
        let opts = MatcherOptions {
            budget: Budget::unlimited().with_max_calls(1),
            ..Default::default()
        };
        let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts);
        assert!(!m.try_match(u, v).is_decided());
        m.renew_budget(Budget::unlimited());
        assert_eq!(m.try_match(u, v), Outcome::Matched);
    }

    #[test]
    fn cancel_token_stops_work_and_is_shared() {
        let (gd, g, interner, u, v, _) = fixture();
        let p = params(0.9, 0.1, 5);
        let token = CancelToken::new();
        let opts = MatcherOptions {
            cancel: token.clone(),
            ..Default::default()
        };
        let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts);
        token.cancel();
        assert_eq!(
            m.try_match(u, v),
            Outcome::Exhausted(ExhaustReason::Cancelled)
        );
        assert_eq!(m.stats().calls, 0, "no work after cancellation");
    }

    #[test]
    fn deadline_in_the_past_exhausts_immediately() {
        let (gd, g, interner, u, v, _) = fixture();
        let p = params(0.9, 0.1, 5);
        let opts = MatcherOptions {
            budget: Budget::unlimited().with_deadline_in(std::time::Duration::ZERO),
            ..Default::default()
        };
        let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts);
        assert_eq!(
            m.try_match(u, v),
            Outcome::Exhausted(ExhaustReason::Deadline)
        );
    }

    #[test]
    fn partial_results_survive_exhaustion() {
        let (gd, g, interner, u, v, decoy) = fixture();
        let p = params(0.9, 0.1, 5);
        let mut m = Matcher::with_options(
            &gd,
            &g,
            &interner,
            &p,
            MatcherOptions::default(),
        );
        // Resolve one pair fully, then exhaust the budget on the next.
        assert_eq!(m.try_match(u, v), Outcome::Matched);
        let used = m.stats().calls;
        m.renew_budget(Budget::unlimited().with_max_calls(used));
        assert!(!m.try_match(u, decoy).is_decided());
        // The pre-exhaustion verdict is still served (partial results).
        assert_eq!(m.try_match(u, v), Outcome::Matched);
        assert_eq!(m.cached(u, v), Some(true));
    }

    #[test]
    fn cache_capacity_budget_trips() {
        let (gd, g, interner, u, v, _) = fixture();
        let p = params(0.9, 0.1, 5);
        let opts = MatcherOptions {
            budget: Budget::unlimited().with_max_cache_entries(0),
            ..Default::default()
        };
        let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts);
        assert_eq!(
            m.try_match(u, v),
            Outcome::Exhausted(ExhaustReason::CacheCapacity)
        );
    }

    /// When δ forces *both* descendants of u1 to match, the poison pair's
    /// failure must propagate: the cycle pairs and the root all become
    /// invalid via the cleanup stage.
    #[test]
    fn cleanup_propagates_invalidation() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex("a");
        let u1 = b.add_vertex("b");
        let u3 = b.add_vertex("poison");
        b.add_edge(u, u1, "e");
        b.add_edge(u, u3, "f");
        let (gd, i) = b.build();
        let mut b2 = GraphBuilder::with_interner(i);
        let v = b2.add_vertex("a");
        let v1 = b2.add_vertex("b");
        let v3 = b2.add_vertex("different");
        b2.add_edge(v, v1, "e");
        b2.add_edge(v, v3, "f");
        let (g, interner) = b2.build();

        // Untrained M_ρ: all pairwise hρ ≈ same value s. Choose δ between s
        // and 2s so both descendants are needed — impossible since poison
        // fails — by probing with δ=0 first.
        let probe = params(0.95, 0.0, 5);
        let mut pm = Matcher::new(&gd, &g, &interner, &probe);
        assert!(pm.is_match(u, v));
        // h_ρ of the (b,b) witness pair:
        let s = {
            use her_graph::Path;
            let pu = Path::new(vec![u, u1], vec![gd.edge_label(u, u1).unwrap()]);
            let pv = Path::new(vec![v, v1], vec![g.edge_label(v, v1).unwrap()]);
            let mut sc = crate::scores::ScoreCache::new();
            sc.hrho(&probe, &interner, &pu, &pv)
        };
        let p = params(0.95, s * 1.5, 5);
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        assert!(!m.is_match(u, v), "needing both descendants must fail");
        assert_eq!(m.cached(u, v), Some(false));
    }

    /// Every `MatchStats` field is non-decreasing across a run, and a
    /// snapshot taken earlier is detached (unchanged by later work).
    #[test]
    fn stats_are_monotonic_and_snapshots_detached() {
        let (gd, g, interner, u, v, decoy) = fixture();
        let p = params(0.9, 0.1, 5);
        let mut m = Matcher::new(&gd, &g, &interner, &p);

        let fields = |s: MatchStats| {
            [
                s.calls,
                s.cache_hits,
                s.early_terminations,
                s.cleanups,
                s.ecache_hits,
            ]
        };
        let mut prev = m.stats();
        assert_eq!(fields(prev), [0; 5]);
        let queries: [(VertexId, VertexId); 4] = [(u, v), (u, decoy), (u, v), (u, decoy)];
        for (a, b) in queries {
            let before = m.stats();
            let _ = m.is_match(a, b);
            let after = m.stats();
            for (x, y) in fields(before).iter().zip(fields(after)) {
                assert!(*x <= y, "stats must be monotonic: {before:?} -> {after:?}");
            }
            // The earlier snapshot is a detached copy: re-reading it
            // still yields the values captured before this query.
            assert_eq!(fields(prev), fields(before));
            prev = after;
        }
        assert!(prev.calls > 0);
        // delta_since attributes exactly the in-between work.
        let mid = m.stats();
        let _ = m.is_match(u, v); // cached: hits grow, calls don't
        let d = m.stats().delta_since(&mid);
        assert_eq!(d.calls, 0);
        assert_eq!(d.cache_hits, 1);
    }

    /// checkpoint → restore into a fresh matcher preserves every verdict,
    /// the stats, and the rdeps index (exercised via invalidation).
    #[test]
    fn checkpoint_restore_round_trips_verdicts_and_cleanup() {
        let (gd, g, interner, u, v, decoy) = fixture();
        let p = params(0.9, 0.1, 5);
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        assert!(m.is_match(u, v));
        assert!(!m.is_match(u, decoy));
        let ck = m.checkpoint();
        assert_eq!(ck.encode(), m.checkpoint().encode(), "deterministic bytes");

        let decoded =
            crate::checkpoint::MatcherCheckpoint::decode(&ck.encode()).expect("decode");
        let mut r = Matcher::new(&gd, &g, &interner, &p);
        r.restore(&decoded);
        // Every cached verdict carried over.
        for (pair, valid, _) in &ck.entries {
            assert_eq!(r.cached(pair.0, pair.1), Some(*valid));
        }
        assert_eq!(r.stats(), m.stats());
        // Cached queries are served without recursion.
        let calls = r.stats().calls;
        assert!(r.is_match(u, v));
        assert_eq!(r.stats().calls, calls);
        // The rebuilt rdeps index drives cleanup exactly like the original:
        // invalidate a lineage dependency of (u, v) in both matchers.
        let dep = m.lineage(u, v).and_then(|d| d.first().copied());
        if let Some((du, dv)) = dep {
            m.apply_invalidation(du, dv);
            r.apply_invalidation(du, dv);
            assert_eq!(r.cached(u, v), m.cached(u, v), "cleanup diverged after restore");
        }
    }

    /// With an `Obs` handle set, the registry mirrors `MatchStats`.
    #[test]
    fn obs_registry_mirrors_stats() {
        let (gd, g, interner, u, v, decoy) = fixture();
        let p = params(0.9, 100.0, 5); // impossible δ → early terminations
        let obs = her_obs::Obs::new();
        let opts = MatcherOptions {
            obs: Some(obs.clone()),
            ..Default::default()
        };
        let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts);
        let _ = m.is_match(u, v);
        let _ = m.is_match(u, decoy);
        let _ = m.is_match(u, v);
        let stats = m.stats();
        let snap = obs.snapshot();
        if her_obs::ENABLED {
            assert_eq!(snap.counter("paramatch.calls"), stats.calls);
            assert_eq!(snap.counter("paramatch.cache_hits"), stats.cache_hits);
            assert_eq!(
                snap.counter("paramatch.early_terminations"),
                stats.early_terminations
            );
            assert!(stats.early_terminations > 0);
            assert!(snap.gauge("paramatch.cache_entries") > 0.0);
        } else {
            assert_eq!(snap.counter("paramatch.calls"), 0);
        }
    }

    /// Matchers scoring through one [`SharedScores`] handle decide exactly
    /// like matchers with private caches (pure memoization), and the
    /// second matcher's embeds are served from the shared tables.
    #[test]
    fn shared_scores_matchers_agree_with_private() {
        let (gd, g, interner, u, v, decoy) = fixture();
        let p = params(0.9, 0.1, 5);
        let shared = SharedScores::new();
        let opts = || MatcherOptions {
            shared_scores: Some(shared.clone()),
            ..Default::default()
        };
        let mut private = Matcher::new(&gd, &g, &interner, &p);
        let mut s1 = Matcher::with_options(&gd, &g, &interner, &p, opts());
        let mut s2 = Matcher::with_options(&gd, &g, &interner, &p, opts());
        for (a, b) in [(u, v), (u, decoy)] {
            let want = private.try_match(a, b);
            assert_eq!(s1.try_match(a, b), want);
            assert_eq!(s2.try_match(a, b), want);
        }
        let embeds_after_s1 = shared.embed_calls();
        // s2 ran the same queries entirely from the shared tables.
        assert!(embeds_after_s1 > 0);
        assert!(shared.shared_hits() > 0);
        let mut s3 = Matcher::with_options(&gd, &g, &interner, &p, opts());
        assert!(s3.is_match(u, v));
        assert_eq!(shared.embed_calls(), embeds_after_s1, "no re-embedding");
    }

    /// The invalidation-generation protocol across matchers: fine-tuning
    /// plus `invalidate()` on one matcher bumps the shared generation,
    /// and a *different* matcher on the same handle drops its stale
    /// verdicts — with its σ rows, dense table and hold on the plans —
    /// at its next query. Restore adopts the current generation.
    #[test]
    fn shared_generation_invalidation_covers_fine_tune_and_restore() {
        use crate::vpair::candidates;
        let (gd, g, interner, u, v, decoy) = fixture();
        let mut p = params(0.9, 0.1, 5);
        let shared = SharedScores::new();
        let opts = || MatcherOptions {
            shared_scores: Some(shared.clone()),
            ..Default::default()
        };
        let ck = {
            let mut a = Matcher::with_options(&gd, &g, &interner, &p, opts());
            let mut b = Matcher::with_options(&gd, &g, &interner, &p, opts());
            assert!(a.is_match(u, v));
            assert!(b.is_match(u, v));
            // The decoy's red is no white: its bound is 0 and it is cut.
            assert_eq!(candidates(&mut b, u, None), vec![v]);
            let plans = b.ecache();
            assert!(plans.seq_count() > 0);
            let ck = b.checkpoint();
            // Invalidating through matcher `a` bumps the shared
            // generation; matcher `b` notices at its next query and
            // re-derives instead of serving its (potentially stale)
            // cached verdict.
            assert!(b.scores.hv_entries() > 0, "b's private memo is warm");
            a.invalidate();
            assert_eq!(shared.generation(), 1);
            assert_eq!(shared.hv_entries(), 0);
            let calls = b.stats().calls;
            assert!(b.is_match(u, v), "unchanged params, same verdict");
            assert!(b.stats().calls > calls, "verdict re-derived, not served stale");
            // ...and re-derived from the handle, not from b's private pair
            // memo: the sync dropped that along with the verdicts.
            assert!(shared.hv_entries() > 0, "private memo survived the bump");
            assert!(!Rc::ptr_eq(&plans, &b.ecache()), "b kept the old generation's plans");
            assert_eq!(candidates(&mut b, u, None), vec![v], "unchanged params, same candidates");
            ck
        };

        // Fine-tune while the shared handle outlives every matcher — the
        // Her::refine pattern. The handle still holds pre-tuning memos;
        // invalidate() drops them and bumps the generation.
        // One σ bit first: annotate white ~ red. After `invalidate()`
        // rows, dense table and plans are rebuilt and the decoy's colour
        // covers `u`'s — it is a candidate now.
        for _ in 0..12 {
            p.mv.fine_tune_pair("white", "red", 1.0);
        }
        shared.invalidate();
        assert_eq!(shared.generation(), 2);
        let mut c = Matcher::with_options(&gd, &g, &interner, &p, opts());
        assert_eq!(c.ecache().seq_count(), 0, "plans start over with the generation");
        assert_eq!(candidates(&mut c, u, None), vec![v, decoy], "the flipped bit is read");
        assert!(c.scores.hv_entries() > 0 && c.ecache().seq_count() > 0);
        drop(c);

        for _ in 0..12 {
            p.mv.fine_tune_pair("item", "item", 0.0);
        }
        shared.invalidate();
        assert_eq!(shared.generation(), 3);
        let mut c = Matcher::with_options(&gd, &g, &interner, &p, opts());
        assert!(!c.is_match(u, v), "fine-tuned to a non-match");

        // Restore pre-fine-tuning verdicts into a fresh matcher: the
        // checkpoint carries verdicts (by design), but the matcher adopts
        // the *current* generation, so post-restore scoring uses the
        // refined models rather than a mix of generations.
        let mut r = Matcher::with_options(&gd, &g, &interner, &p, opts());
        r.restore(&ck);
        assert_eq!(r.cached(u, v), Some(true), "checkpoint verdicts restored");
        assert_eq!(r.scores_generation(), shared.generation());
        // Rows, dense table and plans are not in a checkpoint: they are
        // rebuilt on demand, from the models as they are now — where no
        // item is an item any more.
        assert_eq!(r.scores.hv_entries(), 0);
        assert_eq!(candidates(&mut r, u, None), vec![]);
        assert!(r.scores.hv_entries() > 0);
        // A further invalidation elsewhere is still picked up post-restore.
        shared.invalidate();
        assert_eq!(r.cached(u, v), Some(true));
        assert!(!r.is_match(u, v), "generation sync clears restored verdicts");
    }

    /// The defaults, and the un-pruned run: `early_termination` off.
    fn toggle_grid() -> Vec<MatcherOptions> {
        let unpruned = MatcherOptions { early_termination: false, ..Default::default() };
        vec![MatcherOptions::default(), unpruned]
    }

    /// The appendix-C cycle of `interdependent_cycle_with_cleanup`.
    fn cycle_fixture() -> (Graph, Graph, Interner) {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex("a");
        let u1 = b.add_vertex("b");
        let u2 = b.add_vertex("c");
        let u3 = b.add_vertex("poison");
        b.add_edge(u, u1, "e");
        b.add_edge(u1, u2, "e");
        b.add_edge(u2, u1, "e");
        b.add_edge(u1, u3, "f");
        let (gd, i) = b.build();
        let mut b2 = GraphBuilder::with_interner(i);
        let v = b2.add_vertex("a");
        let v1 = b2.add_vertex("b");
        let v2 = b2.add_vertex("c");
        let v3 = b2.add_vertex("different");
        b2.add_edge(v, v1, "e");
        b2.add_edge(v1, v2, "e");
        b2.add_edge(v2, v1, "e");
        b2.add_edge(v1, v3, "f");
        let (g, interner) = b2.build();
        (gd, g, interner)
    }

    /// Six two-level entities with overlapping values on both sides (so
    /// descendant verdicts are shared between roots) plus near-miss
    /// decoys in `G`: exercises cache hits, `ecache`, both early
    /// terminations and the cleanup stage.
    fn nested_fixture() -> (Graph, Graph, Interner) {
        let colors = ["white", "red"];
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            let root = b.add_vertex("item");
            let name = b.add_vertex(&format!("name {}", i % 3));
            let color = b.add_vertex(colors[i % 2]);
            let brand = b.add_vertex("brand");
            let label = b.add_vertex(&format!("maker {}", i % 2));
            b.add_edge(root, name, "name");
            b.add_edge(root, color, "color");
            b.add_edge(root, brand, "brand");
            b.add_edge(brand, label, "label");
            b.add_edge(brand, root, "makes");
        }
        let (gd, i) = b.build();
        let mut b2 = GraphBuilder::with_interner(i);
        for i in 0..8 {
            let root = b2.add_vertex("item");
            let name = b2.add_vertex(&format!("name {}", i % 4));
            let color = b2.add_vertex(colors[(i / 2) % 2]);
            let brand = b2.add_vertex("brand");
            let label = b2.add_vertex(&format!("maker {}", i % 3));
            b2.add_edge(root, name, "hasName");
            b2.add_edge(root, color, "hasColor");
            b2.add_edge(root, brand, "madeBy");
            b2.add_edge(brand, label, "label");
            b2.add_edge(brand, root, "makes");
        }
        let (g, interner) = b2.build();
        (gd, g, interner)
    }

    type Trace = Vec<(PairKey, bool, Vec<PairKey>)>;

    /// All-pairs over a fixture on one matcher: every verdict and lineage
    /// set in query order.
    fn all_pairs_trace(m: &mut Matcher<'_>) -> Trace {
        let (gd, g) = (m.gd(), m.g());
        let mut out = Vec::new();
        for u in gd.vertices() {
            for v in g.vertices() {
                let verdict = m.is_match(u, v);
                let lineage = m.lineage(u, v).map(<[PairKey]>::to_vec).unwrap_or_default();
                out.push(((u, v), verdict, lineage));
            }
        }
        out
    }

    /// FNV-1a over every verdict and lineage pair of a trace.
    fn trace_digest(trace: &Trace) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u32| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for ((u, v), verdict, lineage) in trace {
            eat(u.0);
            eat(v.0);
            eat(u32::from(*verdict));
            for (a, b) in lineage {
                eat(a.0);
                eat(b.0);
            }
        }
        h
    }

    /// Verdicts, lineage sets and `MatchStats` captured at the commit
    /// before the score tiers and the bound-before-build shortcut landed
    /// (acd788c), with `early_termination` on and off: the rewrite makes
    /// each call cheaper, it must not change what a call decides or
    /// counts. Per fixture: the trace digest (the same either way) and
    /// `[calls, cache_hits, early_terminations, cleanups, ecache_hits]`
    /// with `early_termination` on and off.
    #[test]
    fn verdicts_lineage_and_stats_equal_the_parent_commit() {
        let plain = || {
            let f = fixture();
            (f.0, f.1, f.2)
        };
        type Golden = (&'static str, (Graph, Graph, Interner), Params, u64, [u64; 5], [u64; 5]);
        let golden: Vec<Golden> = vec![
            ("fixture/a", plain(), params(0.9, 0.1, 5), 0xa39c_97bd_b322_29d5,
                [18, 1, 1, 0, 1], [18, 1, 0, 0, 1]),
            ("fixture/c", plain(), params(0.9, 100.0, 5), 0x53a7_d622_9c17_db04,
                [18, 0, 2, 0, 1], [18, 2, 0, 0, 1]),
            ("cycle/a", cycle_fixture(), params(0.95, 0.05, 5), 0x549d_7695_fb9f_9634,
                [16, 3, 0, 0, 0], [16, 3, 0, 0, 0]),
            ("cycle/b", cycle_fixture(), params(0.95, 0.3, 5), 0xa78d_30b2_71f8_2ea5,
                [16, 0, 3, 0, 0], [16, 3, 0, 0, 0]),
            ("nested/a", nested_fixture(), params(0.9, 0.05, 4), 0xa8a2_721f_a72d_7295,
                [1200, 96, 0, 0, 164], [1200, 96, 0, 0, 164]),
            ("nested/c", nested_fixture(), params(0.9, 0.3, 3), 0xff35_e6d0_8e25_040c,
                [1200, 87, 73, 0, 164], [1209, 162, 0, 9, 182]),
        ];
        for (name, (gd, g, interner), p, digest, with_et, without_et) in &golden {
            for opts in toggle_grid() {
                let want = if opts.early_termination { with_et } else { without_et };
                let mut m = Matcher::with_options(gd, g, interner, p, opts.clone());
                let trace = all_pairs_trace(&mut m);
                let s = m.stats();
                let got = [s.calls, s.cache_hits, s.early_terminations, s.cleanups, s.ecache_hits];
                assert_eq!(got, *want, "{name} stats under {opts:?}");
                assert_eq!(trace_digest(&trace), *digest, "{name} verdicts/lineage under {opts:?}");
            }
        }
    }

    /// One routine, two callers: the candidate cut of [`Matcher::viable`]
    /// drops exactly the pairs `para_match` rejects at line 12. A fresh
    /// matcher's call ended there iff it was the only call, it terminated
    /// early and said no (the matching stage cannot terminate early
    /// before a second call on a cold cache).
    #[test]
    fn candidate_cut_and_line_12_agree_pair_for_pair() {
        let (gd, g, interner) = nested_fixture();
        let p = params(0.9, 0.3, 3);
        let everything: Vec<VertexId> = g.vertices().collect();
        let mut cut_somewhere = false;
        for opts in toggle_grid() {
            for u in gd.vertices() {
                let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts.clone());
                let kept = m.viable(u, everything.clone());
                let mut cut = 0;
                for &v in &everything {
                    let mut fresh = Matcher::with_options(&gd, &g, &interner, &p, opts.clone());
                    let matched = fresh.is_match(u, v);
                    let s = fresh.stats();
                    let below_sigma = fresh.hv_pair(u, v) < p.thresholds.sigma;
                    let at_line_12 = !matched && s.calls == 1 && s.early_terminations == 1;
                    assert_eq!(
                        kept.contains(&v),
                        !below_sigma && !at_line_12,
                        "({u:?}, {v:?}) under {opts:?}"
                    );
                    cut += u64::from(at_line_12);
                }
                assert_eq!(m.stats().early_terminations, cut, "{u:?} under {opts:?}");
                assert_eq!(m.stats().calls, 0);
                assert!(opts.early_termination || cut == 0);
                cut_somewhere |= cut > 0;
            }
        }
        assert!(cut_somewhere, "fixture too loose to tell");
    }

    /// `k` past one mask word: a root whose match needs 66 of 70 selected
    /// children. A bound that only saw the first 64 would fall short of δ
    /// and cut a true match.
    #[test]
    fn first_bound_sees_descendants_past_bit_64() {
        let star = |mut b: GraphBuilder| {
            let root = b.add_vertex("hub");
            for i in 0..70 {
                let leaf = b.add_vertex(&format!("spoke {i}"));
                b.add_edge(root, leaf, "has");
            }
            (root, b.build())
        };
        let (u, (gd, i)) = star(GraphBuilder::new());
        let (v, (g, interner)) = star(GraphBuilder::with_interner(i));
        let s = {
            let probe = params(0.95, 0.0, 70);
            let mut m = Matcher::new(&gd, &g, &interner, &probe);
            let (su, sv) = (m.select_d(u), m.select_g(v));
            assert_eq!(su.len(), 70);
            m.scores.hrho(&probe, &interner, &su[0].1, &sv[0].1)
        };
        assert!(s > 0.0);
        let p = params(0.95, s * 65.5, 70);
        for opts in toggle_grid() {
            let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts.clone());
            assert_eq!(m.viable(u, vec![v]), vec![v], "{opts:?}");
            assert!(m.is_match(u, v), "{opts:?}");
            assert_eq!(m.lineage(u, v).map(<[PairKey]>::len), Some(66), "{opts:?}");
        }
    }

    /// The first bound written out from the definition: raw selections,
    /// paths and a memo of its own — no plan, σ rows, masks or cover.
    fn reference_bound(m: &mut Matcher<'_>, u: VertexId, v: VertexId) -> f32 {
        let (gd, g, interner, p) = (m.gd(), m.g(), m.interner(), m.params());
        let (su, sv) = (p.ranker.select(gd, u, p.thresholds.k), p.ranker.select(g, v, p.thresholds.k));
        let mut scores = ScoreCache::new();
        let mut bound = 0.0f32;
        for (up, pu) in &su {
            let mut head: Option<f32> = None;
            for (vp, pv) in &sv {
                if scores.hv(p, interner, gd.label(*up), g.label(*vp)) < p.thresholds.sigma {
                    continue;
                }
                let hrho = scores.hrho(p, interner, pu, pv);
                if head.is_none_or(|best| hrho.total_cmp(&best).is_gt()) {
                    head = Some(hrho);
                }
            }
            bound += head.unwrap_or(0.0);
        }
        bound
    }

    /// Arms `m`'s bound for every non-leaf `u` and asks it about every
    /// `v`: the ceiling is never below the float, the pool's verdict is
    /// the float's, and — `by_definition` — the float is the one
    /// [`reference_bound`] computes and [`Matcher::viable`] keeps exactly
    /// the σ-compatible `v` it lets through. Returns how many pairs the
    /// ceiling and the float cut.
    fn check_bound(m: &mut Matcher<'_>, by_definition: bool) -> (usize, usize) {
        let (gd, g, p) = (m.gd(), m.g(), m.params());
        let Thresholds { sigma, delta, .. } = p.thresholds;
        let bounded = m.options.early_termination;
        let everything: Vec<VertexId> = g.vertices().collect();
        let (mut by_cover, mut by_float) = (0, 0);
        for u in gd.vertices() {
            let compatible = |m: &mut Matcher<'_>, v: &VertexId| m.hv_pair(u, *v) >= sigma;
            if gd.is_leaf(u) {
                let want: Vec<VertexId> = everything.iter().copied().filter(|v| compatible(m, v)).collect();
                assert_eq!(m.viable(u, everything.clone()), want, "leaf {u:?}");
                continue;
            }
            let table = m.ecache();
            let su = m.plan(&table, false, u).to_vec();
            let mut want = Vec::new();
            for &v in &everything {
                let sv = m.plan(&table, true, v).to_vec();
                let (bound, mut sc) = m.bound_and_scoring();
                bound.arm(&mut sc, &su);
                let ceiling = bound.cover_bound(&mut sc, &sv);
                let float = bound.max_sco(&mut sc, &sv);
                assert_eq!(ceiling.is_none(), su.is_empty() || su.len() > 64, "({u:?}, {v:?})");
                if let Some(ub) = ceiling {
                    assert!(ub >= float, "({u:?}, {v:?}): ceiling {ub} under the float {float}");
                    by_cover += usize::from(ub < delta);
                }
                by_float += usize::from(float < delta);
                assert_eq!(bound.falls_short(&mut sc, &sv, delta), float < delta, "({u:?}, {v:?})");
                if by_definition {
                    let reference = reference_bound(m, u, v);
                    assert_eq!(float.to_bits(), reference.to_bits(), "({u:?}, {v:?})");
                }
                if compatible(m, &v) && !(bounded && float < delta) {
                    want.push(v);
                }
            }
            let cuts = m.stats().early_terminations;
            let kept = m.viable(u, everything.clone());
            assert_eq!(kept, want, "{u:?} under {:?}", m.options);
            let cut = everything.iter().filter(|v| compatible(m, v)).count() - kept.len();
            assert_eq!(m.stats().early_terminations - cuts, cut as u64, "{u:?}");
        }
        (by_cover, by_float)
    }

    /// A 70-spoke hub on both sides: `k = 70` makes two mask words.
    fn star_fixture() -> (Graph, Graph, Interner) {
        let star = |mut b: GraphBuilder| {
            let root = b.add_vertex("hub");
            for i in 0..70 {
                let leaf = b.add_vertex(&format!("spoke {i}"));
                b.add_edge(root, leaf, "has");
            }
            b.build()
        };
        let (gd, i) = star(GraphBuilder::new());
        let (g, interner) = star(GraphBuilder::with_interner(i));
        (gd, g, interner)
    }

    /// Cover cut == exact cut, pair for pair and against the definition,
    /// under every toggle: nested and cycle fixtures, and the star whose
    /// 70 selected spokes are past what one mask word — so the ceiling —
    /// covers.
    #[test]
    fn cover_cut_is_the_exact_cut_pair_for_pair() {
        let (mut ceilings_cut, mut floats_cut) = (0, 0);
        for ((gd, g, interner), p) in [
            (nested_fixture(), params(0.9, 0.3, 3)),
            (nested_fixture(), params(0.9, 0.05, 4)),
            (cycle_fixture(), params(0.95, 0.3, 5)),
            (star_fixture(), params(0.95, 1.0, 70)),
        ] {
            for opts in toggle_grid() {
                let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts);
                let (by_cover, by_float) = check_bound(&mut m, true);
                assert!(by_cover <= by_float);
                ceilings_cut += by_cover;
                floats_cut += by_float;
            }
        }
        assert!(ceilings_cut > 0, "no fixture let the ceiling decide");
        assert!(floats_cut > ceilings_cut, "no fixture left a cut to the float");
    }

    /// Scores the models never produce — zero and negative `h_ρ` — written
    /// into the dense table: a head may be negative, a `wmax` too, and
    /// the ceiling still dominates sum by sum.
    #[test]
    fn cover_bound_holds_for_zero_and_negative_scores() {
        let (gd, g, interner) = nested_fixture();
        for delta in [0.0, 0.2] {
            let p = params(0.9, delta, 4);
            for opts in toggle_grid() {
                let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts);
                // Compile every plan, then overwrite every score.
                let table = m.ecache();
                for (in_g, graph) in [(false, &gd), (true, &g)] {
                    for x in graph.vertices() {
                        m.plan(&table, in_g, x);
                    }
                }
                let seqs = table.seq_count() as u32;
                assert!(seqs >= 6);
                for a in 0..seqs {
                    for b in 0..seqs {
                        let s = [-1.0, -0.5, 0.0, 0.5, 1.0][((a * 7 + b * 13) % 5) as usize];
                        m.scores.set_mrho_ids(a, b, s);
                    }
                }
                let (by_cover, by_float) = check_bound(&mut m, false);
                assert!(by_float > 0 && by_cover <= by_float, "{by_cover} of {by_float}");
            }
        }
    }

    /// A sequence interned mid-arm: the pool's second member is selected
    /// for the first time while the bound is armed, and brings the
    /// sequence that scores highest against `u′`'s. A `wmax` left at what
    /// was interned when the arm began would sit below that head and cut
    /// a pair the float keeps.
    #[test]
    fn wmax_is_refreshed_by_a_sequence_interned_mid_arm() {
        let probe = params(0.9, 0.0, 2);
        // Edge labels (e, a, b) with h_ρ(e, b) above h_ρ(e, e) and h_ρ(e, a).
        let words = ["has", "owns", "made_in", "factorySite", "isIn", "color", "brand", "name"];
        let (e, a, b, stale, head) = {
            let mut builder = GraphBuilder::new();
            let ids: Vec<LabelId> = words.iter().map(|w| builder.intern(w)).collect();
            let (_, interner) = builder.build();
            let mut scores = ScoreCache::new();
            let mut h = |x: usize, y: usize| scores.mrho(&probe, &interner, &[ids[x]], &[ids[y]]) / 2.0;
            let n = words.len();
            let triples = (0..n).flat_map(|e| (0..n).flat_map(move |a| (0..n).map(move |b| (e, a, b))));
            triples
                .filter(|&(e, a, b)| e != a && e != b && a != b)
                .map(|(e, a, b)| (e, a, b, h(e, e).max(h(e, a)), h(e, b)))
                .find(|&(.., stale, head)| head > stale)
                .expect("some edge label scores another above itself")
        };
        let mut builder = GraphBuilder::new();
        let u = builder.add_vertex("hub");
        let leaf = builder.add_vertex("x");
        builder.add_edge(u, leaf, words[e]);
        let (gd, i) = builder.build();
        let mut builder = GraphBuilder::with_interner(i);
        let mut hub = |edge: &str| {
            let v = builder.add_vertex("hub");
            let leaf = builder.add_vertex("x");
            builder.add_edge(v, leaf, edge);
            v
        };
        let (v1, v2) = (hub(words[a]), hub(words[b]));
        let (g, interner) = builder.build();
        let p = params(0.9, (stale + head) / 2.0, 2);
        for opts in toggle_grid() {
            let bounded = opts.early_termination;
            let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts);
            let kept = m.viable(u, vec![v1, v2]);
            assert_eq!(kept, if bounded { vec![v2] } else { vec![v1, v2] });
            if bounded {
                assert_eq!(m.bound.wmax_seqs, 3, "e, a, then b: met mid-arm");
            }
            assert!(m.is_match(u, v2) && !m.is_match(u, v1));
        }
    }

    /// A one-attribute star: `u −e→ x` in `G_D`; `v −a→ x₁`, `v −b→ x₂`
    /// in `G`. For `(e, a, b)` the first triple whose selection of `v`
    /// lists the child with the lower `h_ρ` first, and the `h_ρ` of both.
    fn one_attribute_star() -> ((Graph, Graph, Interner), [VertexId; 4], [f32; 2]) {
        let probe = params(0.9, 0.0, 2);
        let words = ["has", "owns", "made_in", "factorySite", "isIn", "color", "brand", "name"];
        let star = |e: &str, a: &str, b: &str| {
            let mut builder = GraphBuilder::new();
            let u = builder.add_vertex("hub");
            let x = builder.add_vertex("x");
            builder.add_edge(u, x, e);
            let (gd, i) = builder.build();
            let mut builder = GraphBuilder::with_interner(i);
            let v = builder.add_vertex("hub");
            for edge in [a, b] {
                let leaf = builder.add_vertex("x");
                builder.add_edge(v, leaf, edge);
            }
            let (g, interner) = builder.build();
            ((gd, g, interner), u, v)
        };
        let n = words.len();
        let triples = (0..n).flat_map(|e| (0..n).flat_map(move |a| (0..n).map(move |b| (e, a, b))));
        triples
            .filter(|&(_, a, b)| a != b)
            .find_map(|(e, a, b)| {
                let ((gd, g, interner), u, v) = star(words[e], words[a], words[b]);
                let (x, second, h) = {
                    let mut m = Matcher::new(&gd, &g, &interner, &probe);
                    let (su, sv) = (m.select_d(u), m.select_g(v));
                    let mut h = |i: usize| m.scores.hrho(&probe, &interner, &su[0].1, &sv[i].1);
                    (su[0].0, sv[1].0, [h(0), h(1)])
                };
                (h[0] < h[1]).then_some(((gd, g, interner), [u, v, x, second], h))
            })
            .expect("some selection lists the weaker child first")
    }

    /// Fig. 4 line 11: with δ between the two `h_ρ`, `(u, v)` matches
    /// through the better child only. The first bound must take the best
    /// head, not the first, or `viable` cuts `v`; the list must be
    /// sorted, or the matching stage settles for the first child.
    #[test]
    fn line_11_matches_through_the_best_candidate() {
        let ((gd, g, interner), [u, v, x, best], [low, high]) = one_attribute_star();
        let p = params(0.9, (low + high) / 2.0, 2);
        for opts in toggle_grid() {
            let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts.clone());
            assert_eq!(m.viable(u, vec![v]), vec![v], "{opts:?}");
            assert!(m.is_match(u, v), "{opts:?}");
            assert_eq!(m.lineage(u, v), Some(&[(x, best)][..]), "{opts:?}");
        }
    }

    /// A non-leaf `u` that selects nothing (its only edge is a loop) has
    /// bound 0 with everything; a leaf `u` has no bound at all.
    #[test]
    fn empty_selections_and_leaves_take_the_exact_path() {
        let mut b = GraphBuilder::new();
        let lonely = b.add_vertex("item");
        b.add_edge(lonely, lonely, "self");
        let leaf = b.add_vertex("item");
        let (gd, i) = b.build();
        let mut b = GraphBuilder::with_interner(i);
        let twin = b.add_vertex("item");
        let colour = b.add_vertex("white");
        b.add_edge(twin, colour, "color");
        let bare = b.add_vertex("item");
        let (g, interner) = b.build();
        assert!(!gd.is_leaf(lonely) && gd.is_leaf(leaf));
        for delta in [0.0, 0.2] {
            let p = params(0.9, delta, 3);
            for opts in toggle_grid() {
                let cuts = opts.early_termination && delta > 0.0;
                let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts.clone());
                assert!(m.select_d(lonely).is_empty());
                check_bound(&mut m, true);
                let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts);
                let kept = m.viable(lonely, vec![twin, colour, bare]);
                assert_eq!(kept, if cuts { vec![] } else { vec![twin, bare] });
                assert_eq!(m.stats().early_terminations, if cuts { 2 } else { 0 });
                assert_eq!(m.viable(leaf, vec![twin, colour, bare]), vec![twin, bare]);
                // Nothing selected, nothing to sum: no δ is reached, not even 0.
                assert!(!m.is_match(lonely, twin));
                assert!(m.is_match(leaf, bare));
            }
        }
    }

    /// The mask stamps wrap; the σ rows they are assembled from carry no
    /// stamp and must come through: arms on both sides of the wrap decide
    /// what a fresh matcher decides.
    #[test]
    fn epoch_wrap_keeps_masks_and_sigma_rows_apart() {
        let (gd, g, interner) = nested_fixture();
        let p = params(0.9, 0.3, 3);
        let everything: Vec<VertexId> = g.vertices().collect();
        let us: Vec<VertexId> = gd.vertices().filter(|&u| !gd.is_leaf(u)).collect();
        let want: Vec<Vec<VertexId>> = us
            .iter()
            .map(|&u| Matcher::new(&gd, &g, &interner, &p).viable(u, everything.clone()))
            .collect();
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        // Warm rows and masks, with stamps from epochs 1..
        for (&u, want) in us.iter().zip(&want) {
            assert_eq!(&m.viable(u, everything.clone()), want);
        }
        let rows = m.scores.hv_entries();
        m.bound.epoch = u32::MAX - 3;
        for (&u, want) in us.iter().zip(&want).cycle().take(3 * us.len()) {
            assert_eq!(&m.viable(u, everything.clone()), want, "{u:?} at epoch {}", m.bound.epoch);
        }
        assert!(m.bound.epoch < 3 * us.len() as u32, "the epoch wrapped");
        assert_eq!(m.scores.hv_entries(), rows, "the wrap re-read no σ bit");
    }

    /// One score read path, whoever owns the handle behind it: a matcher
    /// on its own handle, one on a cold shared handle, one on a shared
    /// handle another matcher already filled, and a warm matcher whose
    /// verdicts were dropped all produce the same trace and the same
    /// `MatchStats` — with `early_termination` on and off.
    #[test]
    fn own_shared_and_warm_matchers_agree_under_every_toggle() {
        let (gd, g, interner) = nested_fixture();
        let p = params(0.9, 0.3, 3);
        for opts in toggle_grid() {
            let mut own = Matcher::with_options(&gd, &g, &interner, &p, opts.clone());
            let want = all_pairs_trace(&mut own);
            let shared = SharedScores::new();
            for round in ["cold shared handle", "warm shared handle"] {
                let mut m = Matcher::with_options(
                    &gd,
                    &g,
                    &interner,
                    &p,
                    MatcherOptions {
                        shared_scores: Some(shared.clone()),
                        ..opts.clone()
                    },
                );
                assert_eq!(all_pairs_trace(&mut m), want, "{round}, {opts:?}");
                assert_eq!(m.stats(), own.stats(), "{round}, {opts:?}");
                // Warm private memo, cold verdicts: same decisions, same
                // counters again.
                let before = m.stats();
                m.cache.clear();
                m.rdeps.clear();
                assert_eq!(all_pairs_trace(&mut m), want, "{round} re-run, {opts:?}");
                let mut delta = m.stats().delta_since(&before);
                let mut fresh = own.stats();
                // Selections survived, so the re-run's top-k reads all hit.
                delta.ecache_hits = 0;
                fresh.ecache_hits = 0;
                assert_eq!(delta, fresh, "{round} re-run, {opts:?}");
            }
        }
    }

    /// Lock-traffic guard: the hot loop must not take a score-shard lock
    /// per lookup. A cold run takes a small constant number per *distinct*
    /// score it has to fetch; once the private memo is warm, re-deciding
    /// every pair takes none at all.
    #[test]
    fn warm_matcher_takes_no_shard_locks() {
        if !her_sync::TRACKING {
            return;
        }
        let shard_locks = || her_sync::acquisitions(her_sync::rank::SCORES_SHARD);
        let (gd, g, interner) = nested_fixture();
        let p = params(0.9, 0.3, 3);
        let us: Vec<VertexId> = gd.vertices().collect();
        let shared = SharedScores::new();
        let mut m = Matcher::with_options(
            &gd,
            &g,
            &interner,
            &p,
            MatcherOptions {
                shared_scores: Some(shared.clone()),
                ..Default::default()
            },
        );
        let before = shard_locks();
        let first = crate::apair::apair(&mut m, &us, None);
        let cold = shard_locks() - before;
        let lookups = shared.shared_hits();
        let distinct = m.scores.hv_entries() as u64;
        assert!(distinct > 0 && lookups > 20 * distinct, "fixture too small to tell");
        // Per distinct h_v: memo read, two label vectors (read + write
        // each), memo write; the (fewer) distinct M_ρ pairs cost the same
        // over sequences, plus interning each sequence once.
        assert!(
            cold <= 16 * distinct,
            "cold apair took {cold} shard locks for {distinct} distinct h_v pairs"
        );

        // Warm verdicts: candidate generation still reads h_v per pair.
        let before = shard_locks();
        assert_eq!(crate::apair::apair(&mut m, &us, None), first);
        assert_eq!(shard_locks() - before, 0, "warm apair took shard locks");

        // Warm memo, cold verdicts: the full ParaMatch loop runs again.
        m.cache.clear();
        m.rdeps.clear();
        let before = shard_locks();
        assert_eq!(crate::apair::apair(&mut m, &us, None), first);
        assert_eq!(shard_locks() - before, 0, "warm ParaMatch loop took shard locks");
        assert!(shared.shared_hits() > 2 * lookups, "private hits are still tallied");
    }
}
