//! Process-wide shared scoring layer: the *exactly-once* tier.
//!
//! §IV observes that after training, `h_v`/`h_ρ` are called millions of
//! times over a much smaller set of *distinct* label pairs and path
//! label sequences. Scores are memoised in two tiers (DESIGN.md §4f):
//! every [`crate::paramatch::Matcher`] owns a private
//! [`crate::scores::ScoreCache`] that serves its hot loop with no lock,
//! atomic or allocation — dense tables over the ids this layer hands
//! out — and a private miss reads through a [`SharedScores`] handle
//! (cheaply cloneable, `Arc` inside): sharded `RwLock`-guarded tables
//! keyed by interned [`LabelId`]s / label sequences over one shared
//! interner. The handle keeps what is expensive and worth computing
//! **once per process** however many matchers share it: label
//! embeddings, path encodings, the scores derived from them, and the
//! top-k selections with their plans.
//!
//! - **Generation-based invalidation.** Fine-tuning (`refine`) mutates
//!   the models, so memoised scores go stale. [`SharedScores::invalidate`]
//!   clears every shard and bumps a monotonic generation counter;
//!   matchers record the generation they last synced with and drop
//!   their *derived* state (private memo with its σ rows and id-keyed
//!   tables, verdicts, their hold on the selections) when it moves.
//!   Checkpoint/restore rides on the same mechanism: memo tables are
//!   never captured, restored matchers adopt the current generation and
//!   rebuild derived state lazily.
//! - **Selections and plans.** `h_r` top-k is a pure function of (graph,
//!   ranker, `k`), so the handle also owns one [`SelectionTable`] per
//!   generation: dense per-vertex slots filled at most once and read
//!   lock-free by every matcher on the handle (facade, pooled, BSP
//!   workers and their candidate probes). A fill compiles the selection
//!   to its *plan*: per selected descendant the end vertex, its label,
//!   the path's length and the [`SeqId`] of its edge-label sequence,
//!   interned by the table — one id space per generation — so the first
//!   `MaxSco` bound never touches a [`Path`].
//!   [`SharedScores::invalidate`] drops the table, plans and ids
//!   included, with the memos.
//! - **Accounting.** The handle counts `M_v` embedding computations and
//!   memo hits on both tiers ([`SharedScores::add_hits`]), mirrored by
//!   [`SharedScores::with_obs_for_workers`] into the `scores.embed_calls`
//!   / `scores.shared_hits` counters that tests and `her-benchmark` read.
//! - **Equivalence.** `SentenceModel::embed` and `PathSimModel::encode`/
//!   `score_vecs` are deterministic pure functions of the (frozen during
//!   matching) model parameters and both tiers are pure memos over them:
//!   any interleaving of readers and writers stores and returns the same
//!   floats, so matching is bit-identical whether a matcher reads
//!   through its own handle or a shared one (Theorem 3 is untouched).

use crate::params::Params;
use her_embed::TopKRanker;
use her_graph::hash::{FxHashMap, FxHasher};
use her_graph::{Graph, Interner, LabelId, Path, VertexId};
use her_sync::{rank, RwLock};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Default shard count: a small power of two comfortably above typical
/// worker counts, so concurrent lookups rarely contend on the same lock
/// (larger deployments use [`SharedScores::for_workers`]).
const DEFAULT_SHARD_COUNT: usize = 16;

/// Shards for `workers` concurrent readers: the next power of two at or
/// above the worker count, never below [`DEFAULT_SHARD_COUNT`]. Power of
/// two keeps shard selection a mask; ≥ workers keeps the expected
/// contention per shard below one thread.
fn shards_for_workers(workers: usize) -> usize {
    workers.next_power_of_two().max(DEFAULT_SHARD_COUNT)
}

type Seq = Box<[LabelId]>;

/// One shard's tables. `M_ρ` scores nest by first then second sequence,
/// so a lookup borrows both slices instead of building an owned key.
#[derive(Default)]
struct Shard {
    label_vecs: FxHashMap<LabelId, Arc<Vec<f32>>>,
    hv_memo: FxHashMap<(LabelId, LabelId), f32>,
    path_vecs: FxHashMap<Seq, Arc<Vec<f32>>>,
    mrho_memo: FxHashMap<Seq, FxHashMap<Seq, f32>>,
}

/// One vertex's `h_r` top-k: selected descendants with their paths.
pub type Selection = Arc<Vec<(VertexId, Path)>>;

/// A [`SelectionTable`]'s id of one edge-label sequence: dense, handed
/// out in interning order and never reused, so everything the first
/// bound reads about a path is an array index.
pub type SeqId = u32;

/// One selected descendant compiled for the first `MaxSco` bound: what
/// `h_v` and `h_ρ` need of `(x′, ρ)`, without the path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanEntry {
    /// The descendant `x′` the path ends in.
    pub end: VertexId,
    /// `L(x′)`.
    pub label: LabelId,
    /// The path's edge-label sequence.
    pub seq: SeqId,
    /// `len(ρ)`.
    pub len: u32,
}

/// What a [`SelectionTable`] was built for. Graphs are immutable and
/// carry no id, so one is identified by where it lives and how big it
/// is; `k` is part of the key, so a table for one `k` is never read as
/// a prefix of another's.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct SelectionKey {
    k: usize,
    graphs: [(usize, usize, usize); 2],
}

impl SelectionKey {
    fn new(gd: &Graph, g: &Graph, k: usize) -> Self {
        let id = |x: &Graph| (std::ptr::from_ref(x).addr(), x.vertex_count(), x.edge_count());
        SelectionKey { k, graphs: [id(gd), id(g)] }
    }
}

/// The sequences a [`SelectionTable`] has interned, by id and by content.
#[derive(Default)]
struct Seqs {
    ids: FxHashMap<Arc<[LabelId]>, SeqId>,
    by_id: Vec<Arc<[LabelId]>>,
}

/// A filled slot: the selection, and the same selection as a plan.
struct Slot {
    selection: Selection,
    plan: Box<[PlanEntry]>,
}

/// `ecache` for one `(G_D, G, k)`: a dense slot per vertex, filled at
/// most once with `ranker.select(graph, x, k)` by whichever matcher
/// asks first and read without a lock by all the others. A fill also
/// compiles the selection to its *plan* — flat [`PlanEntry`]s over this
/// table's [`SeqId`]s, one id space for every matcher on the handle —
/// which is all candidate generation and `ParaMatch` read; the paths
/// themselves are for witnesses and schema matching.
pub struct SelectionTable {
    key: SelectionKey,
    /// Slots of `G_D` and of `G`, indexed by vertex id.
    slots: [Box<[OnceLock<Slot>]>; 2],
    /// Taken when a slot is filled and when a matcher learns of new
    /// ids, never per lookup and never together with a shard lock.
    seqs: RwLock<Seqs>,
    /// `seqs.by_id.len()`, readable without the lock. A reader that
    /// sees a plan sees a count above every id in it.
    seq_count: AtomicU32,
}

impl SelectionTable {
    fn new(key: SelectionKey) -> Self {
        let slots = |n: usize| (0..n).map(|_| OnceLock::new()).collect();
        SelectionTable {
            key,
            slots: [slots(key.graphs[0].1), slots(key.graphs[1].1)],
            seqs: RwLock::new(rank::SCORES_SHARD, Seqs::default()),
            seq_count: AtomicU32::new(0),
        }
    }

    fn slot(&self, in_g: bool, graph: &Graph, ranker: &TopKRanker, x: VertexId) -> &Slot {
        self.slots[usize::from(in_g)][x.index()].get_or_init(|| {
            let selection = ranker.select(graph, x, self.key.k);
            let plan = self.compile(graph, &selection);
            Slot { selection: Arc::new(selection), plan }
        })
    }

    /// The selection of `x` in `graph` — `G` when `in_g`, else `G_D`;
    /// the graphs must be the ones this table was made for.
    pub fn select(&self, in_g: bool, graph: &Graph, ranker: &TopKRanker, x: VertexId) -> &Selection {
        &self.slot(in_g, graph, ranker, x).selection
    }

    /// The plan of `x`'s selection, entry for entry in selection order.
    pub fn plan(&self, in_g: bool, graph: &Graph, ranker: &TopKRanker, x: VertexId) -> &[PlanEntry] {
        &self.slot(in_g, graph, ranker, x).plan
    }

    /// Compiles a selection made in `graph`, interning its sequences.
    /// [`Self::plan`] does this once per slot.
    fn compile(&self, graph: &Graph, selection: &[(VertexId, Path)]) -> Box<[PlanEntry]> {
        if selection.is_empty() {
            return Box::default();
        }
        let known = self.seqs.read().expect("selection seqs poisoned");
        let mut ids: Vec<Option<SeqId>> =
            selection.iter().map(|(_, p)| known.ids.get(p.edge_labels()).copied()).collect();
        drop(known);
        if ids.contains(&None) {
            let mut seqs = self.seqs.write().expect("selection seqs poisoned");
            let unknown = ids.iter_mut().zip(selection).filter(|(id, _)| id.is_none());
            for (id, (_, path)) in unknown {
                // Looked up again: another filler may have interned it.
                *id = Some(match seqs.ids.get(path.edge_labels()) {
                    Some(&id) => id,
                    None => {
                        let seq: Arc<[LabelId]> = path.edge_labels().into();
                        let id = SeqId::try_from(seqs.by_id.len()).expect("fewer than 2^32 sequences");
                        seqs.by_id.push(Arc::clone(&seq));
                        seqs.ids.insert(seq, id);
                        id
                    }
                });
            }
            let count = u32::try_from(seqs.by_id.len()).expect("fewer than 2^32 sequences");
            self.seq_count.store(count, Ordering::Release);
        }
        selection
            .iter()
            .zip(ids)
            .map(|((end, path), seq)| PlanEntry {
                end: *end,
                label: graph.label(*end),
                seq: seq.expect("interned above"),
                len: path.len() as u32,
            })
            .collect()
    }

    /// How many sequences the table has interned: ids `0..count`.
    pub fn seq_count(&self) -> usize {
        self.seq_count.load(Ordering::Acquire) as usize
    }

    /// Appends the sequences with ids `known.len()..` to `known`, so a
    /// matcher resolves ids from its own copy and not under this lock.
    pub fn seqs_from(&self, known: &mut Vec<Arc<[LabelId]>>) {
        let seqs = self.seqs.read().expect("selection seqs poisoned");
        known.extend_from_slice(&seqs.by_id[known.len()..]);
    }

    /// Fills every non-leaf slot of both graphs on up to `threads`
    /// scoped threads (a leaf selects nothing, on demand, for free).
    pub fn fill(&self, gd: &Graph, g: &Graph, ranker: &TopKRanker, threads: usize) {
        for (in_g, graph) in [(false, gd), (true, g)] {
            let inner: Vec<VertexId> = graph.vertices().filter(|&v| !graph.is_leaf(v)).collect();
            par_map(&inner, threads, |&v| {
                self.slot(in_g, graph, ranker, v);
            });
        }
    }

    /// Every selection computed so far.
    pub fn filled(&self) -> impl Iterator<Item = &Selection> {
        let slots = self.slots.iter().flat_map(|s| s.iter());
        slots.filter_map(|s| s.get().map(|slot| &slot.selection))
    }
}

struct Inner {
    /// Power-of-two length, so shard selection is `hash & (len - 1)`.
    shards: Box<[RwLock<Shard>]>,
    /// This generation's selection table, made by the first matcher that
    /// selects. Never held together with a shard lock.
    selections: RwLock<Option<Arc<SelectionTable>>>,
    /// Bumped by [`SharedScores::invalidate`]; matchers re-sync derived
    /// caches when the generation they saw last no longer matches.
    generation: AtomicU64,
    embed_calls: AtomicU64,
    shared_hits: AtomicU64,
    obs_embed: Option<Arc<her_obs::Counter>>,
    obs_hits: Option<Arc<her_obs::Counter>>,
}

/// Thread-safe, sharded, read-through score memo shared by all matchers
/// in a process (sequential `apair`, every BSP worker). Clones
/// share the underlying tables.
#[derive(Clone)]
pub struct SharedScores {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SharedScores {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedScores")
            .field("generation", &self.generation())
            .field("embed_calls", &self.embed_calls())
            .field("shared_hits", &self.shared_hits())
            .finish()
    }
}

impl Default for SharedScores {
    fn default() -> Self {
        Self::new()
    }
}

/// `f` over `items` on up to `threads` scoped threads, in input order.
fn par_map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let parts = handles.into_iter().map(|h| h.join().expect("prewarm thread panicked"));
        parts.flatten().collect()
    })
}

impl SharedScores {
    /// Creates an empty shared cache (no telemetry attached, default
    /// shard count).
    pub fn new() -> Self {
        Self::build(None, None, DEFAULT_SHARD_COUNT)
    }

    /// Creates an empty shared cache sized for `workers` concurrent
    /// readers (next power of two, minimum 16 — the [`Self::new`] count).
    pub fn for_workers(workers: usize) -> Self {
        Self::build(None, None, shards_for_workers(workers))
    }

    /// [`SharedScores::for_workers`] whose embed/hit counts also feed the
    /// `scores.embed_calls` / `scores.shared_hits` counters of `obs`.
    pub fn with_obs_for_workers(obs: &her_obs::Obs, workers: usize) -> Self {
        Self::build(
            Some(obs.registry.counter("scores.embed_calls")),
            Some(obs.registry.counter("scores.shared_hits")),
            shards_for_workers(workers),
        )
    }

    fn build(
        obs_embed: Option<Arc<her_obs::Counter>>,
        obs_hits: Option<Arc<her_obs::Counter>>,
        shard_count: usize,
    ) -> Self {
        debug_assert!(shard_count.is_power_of_two());
        let shards = (0..shard_count)
            .map(|_| RwLock::new(rank::SCORES_SHARD, Shard::default()))
            .collect();
        Self {
            inner: Arc::new(Inner {
                shards,
                selections: RwLock::new(rank::SCORES_SHARD, None),
                generation: AtomicU64::new(0),
                embed_calls: AtomicU64::new(0),
                shared_hits: AtomicU64::new(0),
                obs_embed,
                obs_hits,
            }),
        }
    }

    /// Number of shards in this handle's memo array (a power of two).
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    fn shard<K: Hash + ?Sized>(&self, key: &K) -> &RwLock<Shard> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.inner.shards[(h.finish() as usize) & (self.inner.shards.len() - 1)]
    }

    fn count_embed(&self, n: u64) {
        self.inner.embed_calls.fetch_add(n, Ordering::Relaxed);
        if let Some(c) = &self.inner.obs_embed {
            c.add(n);
        }
    }

    /// Credits `n` memo hits to this handle. `shared_hits` means "a score
    /// answered from a memo, on either tier": shared-table hits count one
    /// at a time; a [`crate::scores::ScoreCache`] tallies its private
    /// hits — dense `M_ρ` table and σ-row bits alike — locally and
    /// credits them in one batch per matcher entry point, so the hot
    /// loop never touches this (contended) cache line and the
    /// counter stays comparable across the commits that moved answers
    /// from one private structure to another.
    pub fn add_hits(&self, n: u64) {
        self.inner.shared_hits.fetch_add(n, Ordering::Relaxed);
        if let Some(c) = &self.inner.obs_hits {
            c.add(n);
        }
    }

    /// `h_v(u, v) = M_v(L(u), L(v))` on interned labels, including
    /// per-pair override scoping: when the queried pair itself carries a
    /// fine-tuned override this routes through the string interface so
    /// feedback is honoured; all other pairs use the cached embeddings.
    pub fn hv(&self, params: &Params, interner: &Interner, l1: LabelId, l2: LabelId) -> f32 {
        // Identical labels score 1 unless this exact pair was fine-tuned
        // (e.g. annotated as a false positive): unrelated overrides leave
        // the fast path on.
        if l1 == l2 && !params.mv.is_overridden(interner.resolve(l1), interner.resolve(l1)) {
            return 1.0;
        }
        // `h_v` is symmetric: one memo entry per unordered label pair.
        let key = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        let shard = self.shard(&key);
        if let Some(&s) = shard.read().expect("scores shard poisoned").hv_memo.get(&key) {
            self.add_hits(1);
            return s;
        }
        let s = if params.mv.is_overridden(interner.resolve(l1), interner.resolve(l2)) {
            params
                .mv
                .similarity(interner.resolve(l1), interner.resolve(l2))
        } else {
            // Embeddings resolve through the sharded label table; the
            // similarity itself is cheap and computed outside any lock.
            // A racing writer inserts the identical float — harmless.
            let v1 = self.label_vec(params, interner, l1);
            let v2 = self.label_vec(params, interner, l2);
            params.mv.similarity_from_vecs(&v1, &v2)
        };
        shard
            .write()
            .expect("scores shard poisoned")
            .hv_memo
            .insert(key, s);
        s
    }

    /// Read-through `M_v` embedding of one label. Computed under the
    /// shard write lock so each distinct label embeds exactly once
    /// process-wide (keeps `scores.embed_calls` ≤ distinct labels).
    fn label_vec(&self, params: &Params, interner: &Interner, l: LabelId) -> Arc<Vec<f32>> {
        let shard = self.shard(&l);
        if let Some(v) = shard.read().expect("scores shard poisoned").label_vecs.get(&l) {
            self.add_hits(1);
            return Arc::clone(v);
        }
        let mut w = shard.write().expect("scores shard poisoned");
        if let Some(v) = w.label_vecs.get(&l) {
            return Arc::clone(v);
        }
        let v = Arc::new(params.mv.embed(interner.resolve(l)));
        self.count_embed(1);
        w.label_vecs.insert(l, Arc::clone(&v));
        v
    }

    /// Read-through `M_ρ` sequence encoding (exactly-once, like
    /// [`Self::label_vec`]).
    fn path_vec(&self, params: &Params, interner: &Interner, seq: &[LabelId]) -> Arc<Vec<f32>> {
        let shard = self.shard(seq);
        if let Some(v) = shard.read().expect("scores shard poisoned").path_vecs.get(seq) {
            self.add_hits(1);
            return Arc::clone(v);
        }
        let mut w = shard.write().expect("scores shard poisoned");
        if let Some(v) = w.path_vecs.get(seq) {
            return Arc::clone(v);
        }
        let labels: Vec<&str> = seq.iter().map(|&l| interner.resolve(l)).collect();
        let v = Arc::new(params.mrho.encode(&labels));
        w.path_vecs.insert(seq.into(), Arc::clone(&v));
        v
    }

    /// `M_ρ` on two edge-label sequences (undivided).
    pub fn mrho(
        &self,
        params: &Params,
        interner: &Interner,
        seq1: &[LabelId],
        seq2: &[LabelId],
    ) -> f32 {
        let shard = self.shard(&(seq1, seq2));
        let memo = shard.read().expect("scores shard poisoned");
        if let Some(&s) = memo.mrho_memo.get(seq1).and_then(|m| m.get(seq2)) {
            self.add_hits(1);
            return s;
        }
        drop(memo);
        let v1 = self.path_vec(params, interner, seq1);
        let v2 = self.path_vec(params, interner, seq2);
        let s = params.mrho.score_vecs(&v1, &v2);
        let mut w = shard.write().expect("scores shard poisoned");
        w.mrho_memo.entry(seq1.into()).or_default().insert(seq2.into(), s);
        s
    }

    /// `h_ρ(ρ1, ρ2) = M_ρ(L(ρ1), L(ρ2)) / (len(ρ1) + len(ρ2))` (Eq. 2).
    pub fn hrho(&self, params: &Params, interner: &Interner, rho1: &Path, rho2: &Path) -> f32 {
        let denom = (rho1.len() + rho2.len()) as f32;
        if denom == 0.0 {
            return 0.0;
        }
        self.mrho(params, interner, rho1.edge_labels(), rho2.edge_labels()) / denom
    }

    /// Parallel batch pre-embedding of the `M_v` label vocabulary:
    /// deduplicates, skips labels already cached, then embeds the rest
    /// across `threads` scoped threads. Call before workers start so the
    /// hot loop never embeds.
    pub fn prewarm_labels(
        &self,
        params: &Params,
        interner: &Interner,
        labels: &[LabelId],
        threads: usize,
    ) {
        let mut seen = her_graph::hash::FxHashSet::default();
        let mut todo: Vec<LabelId> = labels
            .iter()
            .copied()
            .filter(|l| seen.insert(*l))
            .filter(|l| {
                let shard = self.shard(l).read().expect("scores shard poisoned");
                !shard.label_vecs.contains_key(l)
            })
            .collect();
        todo.sort_unstable();
        let vecs = par_map(&todo, threads, |&l| Arc::new(params.mv.embed(interner.resolve(l))));
        for (l, v) in todo.into_iter().zip(vecs) {
            let mut w = self.shard(&l).write().expect("scores shard poisoned");
            if w.label_vecs.insert(l, v).is_none() {
                self.count_embed(1);
            }
        }
    }

    /// Parallel batch pre-encoding of `M_ρ` edge-label sequences (e.g.
    /// every distinct path signature in the precomputed selections).
    pub fn prewarm_paths(
        &self,
        params: &Params,
        interner: &Interner,
        seqs: &[Vec<LabelId>],
        threads: usize,
    ) {
        let mut seen = her_graph::hash::FxHashSet::default();
        let mut todo: Vec<&[LabelId]> = seqs
            .iter()
            .map(Vec::as_slice)
            .filter(|s| seen.insert(*s))
            .filter(|s| {
                let shard = self.shard(*s).read().expect("scores shard poisoned");
                !shard.path_vecs.contains_key(*s)
            })
            .collect();
        todo.sort_unstable();
        let vecs = par_map(&todo, threads, |seq| {
            let labels: Vec<&str> = seq.iter().map(|&l| interner.resolve(l)).collect();
            Arc::new(params.mrho.encode(&labels))
        });
        for (seq, v) in todo.into_iter().zip(vecs) {
            let mut w = self.shard(seq).write().expect("scores shard poisoned");
            w.path_vecs.entry(seq.into()).or_insert(v);
        }
    }

    /// The selection table for `(gd, g, k)`. Matchers on one handle over
    /// one pair of graphs share it; a caller with other graphs or another
    /// `k` replaces it (earlier holders keep the table they hold, which
    /// stays right for them).
    pub fn selections(&self, gd: &Graph, g: &Graph, k: usize) -> Arc<SelectionTable> {
        let key = SelectionKey::new(gd, g, k);
        let current = self.inner.selections.read().expect("selections poisoned");
        if let Some(t) = current.as_ref().filter(|t| t.key == key) {
            return Arc::clone(t);
        }
        drop(current);
        let mut slot = self.inner.selections.write().expect("selections poisoned");
        match slot.as_ref().filter(|t| t.key == key) {
            Some(t) => Arc::clone(t),
            None => Arc::clone(slot.insert(Arc::new(SelectionTable::new(key)))),
        }
    }

    /// Drops every memo table and bumps the generation — required after
    /// model fine-tuning. Matchers holding this handle notice the bump
    /// at their next query and drop their derived caches too.
    pub fn invalidate(&self) {
        *self.inner.selections.write().expect("selections poisoned") = None;
        for shard in &self.inner.shards {
            let mut s = shard.write().expect("scores shard poisoned");
            s.label_vecs.clear();
            s.hv_memo.clear();
            s.path_vecs.clear();
            s.mrho_memo.clear();
        }
        self.inner.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Current invalidation generation (monotone).
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::SeqCst)
    }

    /// Total `M_v` embeddings computed through this handle.
    pub fn embed_calls(&self) -> u64 {
        self.inner.embed_calls.load(Ordering::Relaxed)
    }

    /// Total memo hits served through this handle, on either tier
    /// (private hits arrive in batches, see [`Self::add_hits`]).
    pub fn shared_hits(&self) -> u64 {
        self.inner.shared_hits.load(Ordering::Relaxed)
    }

    fn entries(&self, of: impl Fn(&Shard) -> usize) -> usize {
        let shards = self.inner.shards.iter();
        shards.map(|s| of(&s.read().expect("scores shard poisoned"))).sum()
    }

    /// Number of memoised `h_v` entries across all shards (introspection).
    pub fn hv_entries(&self) -> usize {
        self.entries(|s| s.hv_memo.len())
    }

    /// Number of cached `M_v` label vectors across all shards.
    pub fn label_entries(&self) -> usize {
        self.entries(|s| s.label_vecs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::scores::ScoreCache;
    use her_graph::GraphBuilder;

    fn setup() -> (Params, Interner, Vec<LabelId>) {
        let mut b = GraphBuilder::new();
        let words = [
            "Germany", "Vietnam", "Japan", "phylon foam", "made_in", "factorySite", "isIn",
            "item", "white", "red", "brand", "color", "country", "name",
        ];
        let ids: Vec<LabelId> = words.iter().map(|w| b.intern(w)).collect();
        let (_, interner) = b.build();
        (Params::untrained(32, 9), interner, ids)
    }

    #[test]
    fn shard_array_is_sized_from_workers() {
        // Defaults and small fleets share the 16-shard floor.
        assert_eq!(SharedScores::new().shard_count(), 16);
        for workers in [0, 1, 4, 16] {
            assert_eq!(SharedScores::for_workers(workers).shard_count(), 16);
        }
        // Past the floor: next power of two at or above the worker count.
        for (workers, shards) in [(17, 32), (32, 32), (33, 64), (100, 128)] {
            assert_eq!(SharedScores::for_workers(workers).shard_count(), shards);
        }
    }

    /// The lock-order tracker turns a seeded shard-lock inversion into a
    /// deterministic panic naming both locks: a thread holding a
    /// higher-ranked lock (here the obs-registry rank) must not enter the
    /// score shards (rank `core.scores_shard`).
    #[test]
    fn seeded_shard_lock_inversion_panics_under_tracking() {
        if !her_sync::TRACKING {
            return;
        }
        let (p, i, labels) = setup();
        let shared = SharedScores::new();
        let outer = her_sync::Mutex::new(her_sync::rank::OBS_REGISTRY, ());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = outer.lock().unwrap();
            // Inversion: rank 40 (core.scores_shard) under rank 90.
            shared.hv(&p, &i, labels[0], labels[1]);
        }))
        .expect_err("inverted acquisition must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("lock-order violation"), "got: {msg}");
        assert!(
            msg.contains("core.scores_shard"),
            "panic must name the acquired lock: {msg}"
        );
        assert!(msg.contains("obs.registry"), "panic must name the held lock: {msg}");
    }

    #[test]
    fn hv_identical_labels_score_one() {
        let (p, i, _) = setup();
        let l = i.get("Germany").unwrap();
        assert_eq!(SharedScores::new().hv(&p, &i, l, l), 1.0);
    }

    #[test]
    fn hv_is_symmetric_and_memoised() {
        let (p, i, _) = setup();
        let shared = SharedScores::new();
        let a = i.get("Germany").unwrap();
        let b = i.get("phylon foam").unwrap();
        assert_eq!(shared.hv(&p, &i, a, b), shared.hv(&p, &i, b, a));
        assert_eq!(shared.hv_entries(), 1);
    }

    #[test]
    fn hv_respects_fine_tuned_overrides() {
        let (mut p, i, _) = setup();
        let shared = SharedScores::new();
        let a = i.get("made_in").unwrap();
        let b = i.get("factorySite").unwrap();
        let before = shared.hv(&p, &i, a, b);
        for _ in 0..6 {
            p.mv.fine_tune_pair("made_in", "factorySite", 1.0);
        }
        shared.invalidate();
        let after = shared.hv(&p, &i, a, b);
        assert!(after > before);
        assert!(after > 0.9);
    }

    /// Regression: a fine-tuned override on one pair used to disable the
    /// identical-label fast path (and demote every pair to string
    /// similarity) globally. The check is now scoped to the queried pair.
    #[test]
    fn unrelated_override_keeps_identical_label_fast_path() {
        let (mut p, i, _) = setup();
        let shared = SharedScores::new();
        let germany = i.get("Germany").unwrap();
        let foam = i.get("phylon foam").unwrap();
        let baseline = shared.hv(&p, &i, germany, foam);
        shared.invalidate();
        let embeds_before = shared.embed_calls();
        // Fine-tune a completely unrelated pair.
        p.mv.fine_tune_pair("made_in", "factorySite", 1.0);
        // Identical labels still take the fast path: score 1, no memo
        // entry, no embedding computed.
        assert_eq!(shared.hv(&p, &i, germany, germany), 1.0);
        assert_eq!(shared.hv_entries(), 0);
        assert_eq!(shared.embed_calls(), embeds_before);
        // Unrelated non-identical pairs still use cached embeddings and
        // score exactly as before the override existed.
        assert_eq!(shared.hv(&p, &i, germany, foam), baseline);
        assert_eq!(shared.embed_calls(), embeds_before + 2);
    }

    /// The override still wins for the annotated pair itself — including
    /// an identical-label pair annotated as a false positive.
    #[test]
    fn override_on_identical_pair_disables_its_fast_path_only() {
        let (mut p, i, _) = setup();
        let shared = SharedScores::new();
        let germany = i.get("Germany").unwrap();
        let foam = i.get("phylon foam").unwrap();
        for _ in 0..8 {
            p.mv.fine_tune_pair("Germany", "Germany", 0.0);
        }
        assert!(shared.hv(&p, &i, germany, germany) < 0.1);
        // Other identical labels are untouched.
        assert_eq!(shared.hv(&p, &i, foam, foam), 1.0);
    }

    #[test]
    fn embed_calls_count_distinct_labels_once() {
        let (p, i, _) = setup();
        let shared = SharedScores::new();
        let a = i.get("Germany").unwrap();
        let b = i.get("phylon foam").unwrap();
        let d = i.get("isIn").unwrap();
        let _ = shared.hv(&p, &i, a, b);
        let _ = shared.hv(&p, &i, a, d);
        let _ = shared.hv(&p, &i, b, d);
        assert_eq!(shared.embed_calls(), 3, "three distinct labels, one embed each");
    }

    #[test]
    fn hrho_divides_by_total_length() {
        let (p, i, _) = setup();
        let shared = SharedScores::new();
        let made_in = i.get("made_in").unwrap();
        let p1 = Path::new(vec![VertexId(0), VertexId(1)], vec![made_in]);
        let p2 = Path::new(vec![VertexId(2), VertexId(3)], vec![made_in]);
        let undivided = shared.mrho(&p, &i, &[made_in], &[made_in]);
        let h = shared.hrho(&p, &i, &p1, &p2);
        assert!((h - undivided / 2.0).abs() < 1e-6);
    }

    #[test]
    fn hrho_trivial_paths_score_zero() {
        let (p, i, _) = setup();
        let t1 = Path::trivial(VertexId(0));
        let t2 = Path::trivial(VertexId(1));
        assert_eq!(SharedScores::new().hrho(&p, &i, &t1, &t2), 0.0);
    }

    /// A matcher's memo answers `h_v ≥ σ` from its σ rows exactly as the
    /// floats of a handle of its own compare with σ.
    #[test]
    fn private_sigma_bits_agree_with_shared_floats() {
        let (p, i, labels) = setup();
        let shared = SharedScores::new();
        let mut private = ScoreCache::new();
        for &a in &labels {
            let row = private.sigma_row(&p, &i, a);
            for &b in &labels {
                assert_eq!(
                    private.reaches_sigma(&p, &i, (a, row), b),
                    shared.hv(&p, &i, a, b) >= p.thresholds.sigma,
                    "hv({a:?}, {b:?}) ≥ σ diverged"
                );
            }
        }
    }

    /// The stress test: N threads score overlapping vocabularies
    /// concurrently; every result agrees bit-for-bit with a
    /// single-threaded handle, and each distinct label embeds once.
    #[test]
    fn concurrent_scoring_agrees_with_sequential() {
        let (p, i, mut labels) = setup();
        // Miri runs this test too (it is the interesting one for the
        // aliasing model); shrink the workload so it finishes in CI.
        let threads = if cfg!(miri) { 3 } else { 8 };
        if cfg!(miri) {
            labels.truncate(6);
        }
        let shared = SharedScores::for_workers(threads);
        // Sizing satellite: the shard array comes from the worker count
        // (next power of two, floor 16), so small fleets get the floor...
        assert_eq!(shared.shard_count(), 16);
        // ...while larger fleets outgrow it.
        assert_eq!(SharedScores::for_workers(48).shard_count(), 64);
        let results: Vec<Vec<u32>> = std::thread::scope(|s| {
            (0..threads)
                .map(|t| {
                    let shared = shared.clone();
                    let labels = &labels;
                    let p = &p;
                    let i = &i;
                    s.spawn(move || {
                        // Each thread walks the full cross product in a
                        // different order so reads and writes interleave.
                        let mut out = Vec::new();
                        for step in 0..labels.len() * labels.len() {
                            let n = (step + t * 7) % (labels.len() * labels.len());
                            let a = labels[n / labels.len()];
                            let b = labels[n % labels.len()];
                            out.push((n, shared.hv(p, i, a, b).to_bits()));
                        }
                        out.sort_unstable();
                        out.into_iter().map(|(_, bits)| bits).collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("stress thread panicked"))
                .collect()
        });
        let sequential = SharedScores::new();
        let expected: Vec<u32> = (0..labels.len() * labels.len())
            .map(|n| {
                let a = labels[n / labels.len()];
                let b = labels[n % labels.len()];
                sequential.hv(&p, &i, a, b).to_bits()
            })
            .collect();
        for (t, r) in results.iter().enumerate() {
            assert_eq!(r, &expected, "thread {t} diverged from sequential");
        }
        // Distinct labels embed once process-wide, not once per thread.
        assert_eq!(shared.embed_calls(), labels.len() as u64);
        assert!(shared.shared_hits() > 0);
    }

    #[test]
    fn concurrent_mrho_agrees_with_sequential() {
        let (p, i, mut labels) = setup();
        if cfg!(miri) {
            labels.truncate(6);
        }
        let seqs: Vec<Vec<LabelId>> = (0..labels.len())
            .map(|n| vec![labels[n], labels[(n + 1) % labels.len()]])
            .collect();
        let shared = SharedScores::new();
        let results: Vec<Vec<u32>> = std::thread::scope(|s| {
            (0..4)
                .map(|t| {
                    let shared = shared.clone();
                    let (p, i, seqs) = (&p, &i, &seqs);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for step in 0..seqs.len() {
                            let n = (step + t * 3) % seqs.len();
                            let s1 = &seqs[n];
                            let s2 = &seqs[(n + 2) % seqs.len()];
                            out.push((n, shared.mrho(p, i, s1, s2).to_bits()));
                        }
                        out.sort_unstable();
                        out.into_iter().map(|(_, bits)| bits).collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("stress thread panicked"))
                .collect()
        });
        let sequential = SharedScores::new();
        let expected: Vec<u32> = (0..seqs.len())
            .map(|n| {
                sequential
                    .mrho(&p, &i, &seqs[n], &seqs[(n + 2) % seqs.len()])
                    .to_bits()
            })
            .collect();
        for r in &results {
            assert_eq!(r, &expected);
        }
    }

    /// Two threads read one selection table through clones of the handle
    /// (run under Miri too): both see the slot filled once, the selection
    /// is the ranker's, and another `k`, other graphs or a generation
    /// bump never read this table.
    #[test]
    fn selection_table_is_shared_filled_once_and_keyed() {
        let mut b = GraphBuilder::new();
        let root = b.add_vertex("item");
        for (label, edge) in [("white", "color"), ("phylon foam", "material"), ("Germany", "made_in")] {
            let leaf = b.add_vertex(label);
            b.add_edge(root, leaf, edge);
        }
        let (g, _) = b.build();
        let gd = g.clone();
        let p = Params::untrained(32, 9);
        let shared = SharedScores::new();
        let barrier = std::sync::Barrier::new(2);
        let picks: Vec<Selection> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (shared, barrier, gd, g, p) = (shared.clone(), &barrier, &gd, &g, &p);
                    s.spawn(move || {
                        let table = shared.selections(gd, g, 2);
                        barrier.wait();
                        Arc::clone(table.select(true, g, &p.ranker, root))
                    })
                })
                .collect();
            readers.into_iter().map(|h| h.join().expect("reader panicked")).collect()
        });
        assert!(Arc::ptr_eq(&picks[0], &picks[1]), "one fill, read by both");
        assert_eq!(*picks[0], p.ranker.select(&g, root, 2));
        let table = shared.selections(&gd, &g, 2);
        assert!(Arc::ptr_eq(table.select(true, &g, &p.ranker, root), &picks[0]));
        assert_eq!(table.filled().count(), 1);
        // G_D's slot for the same vertex id is its own.
        assert!(!Arc::ptr_eq(table.select(false, &gd, &p.ranker, root), &picks[0]));
        // A different k is a different table, not a prefix of this one.
        let wider = shared.selections(&gd, &g, 3);
        assert_eq!(wider.filled().count(), 0);
        assert_eq!(wider.select(true, &g, &p.ranker, root).len(), 3);
        // So is one for other graphs, and the next generation's.
        let other = g.clone();
        assert_eq!(shared.selections(&gd, &other, 3).filled().count(), 0);
        assert_eq!(shared.selections(&gd, &other, 3).select(true, &other, &p.ranker, root).len(), 3);
        shared.invalidate();
        assert_eq!(shared.selections(&gd, &other, 3).filled().count(), 0);
    }

    /// Two threads ask for one plan (run under Miri too): the slot is
    /// compiled once, the plan is the selection entry for entry, and the
    /// sequence ids are one dense space across both graphs of the table.
    #[test]
    fn plan_is_compiled_once_and_shares_sequence_ids() {
        let mut b = GraphBuilder::new();
        let root = b.add_vertex("item");
        for (label, edge) in [("white", "color"), ("phylon foam", "material"), ("Germany", "made_in")] {
            let leaf = b.add_vertex(label);
            b.add_edge(root, leaf, edge);
        }
        let (g, _) = b.build();
        let gd = g.clone();
        let p = Params::untrained(32, 9);
        let shared = SharedScores::new();
        let table = shared.selections(&gd, &g, 3);
        let barrier = std::sync::Barrier::new(2);
        let plans: Vec<&[PlanEntry]> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (table, barrier, g, p) = (&table, &barrier, &g, &p);
                    s.spawn(move || {
                        barrier.wait();
                        table.plan(true, g, &p.ranker, root)
                    })
                })
                .collect();
            readers.into_iter().map(|h| h.join().expect("reader panicked")).collect()
        });
        assert!(std::ptr::eq(plans[0], plans[1]), "one compilation, read by both");
        assert_eq!(table.filled().count(), 1);
        let selection = table.select(true, &g, &p.ranker, root);
        assert_eq!(selection.len(), 3);
        for (e, (end, path)) in plans[0].iter().zip(selection.iter()) {
            assert_eq!((e.end, e.label, e.len as usize), (*end, g.label(*end), path.len()));
        }
        let mut ids: Vec<SeqId> = plans[0].iter().map(|e| e.seq).collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 2], "dense, in interning order");
        assert_eq!(table.seq_count(), 3);
        // G_D's vertex selects the same sequences: the same ids, its own
        // slot; a selection compiled outside the table gets them too.
        let in_gd = table.plan(false, &gd, &p.ranker, root);
        assert!(!std::ptr::eq(in_gd, plans[0]));
        assert_eq!(in_gd, plans[0]);
        assert_eq!(&*table.compile(&g, selection), plans[0]);
        assert_eq!(table.seq_count(), 3);
        let mut known = Vec::new();
        table.seqs_from(&mut known);
        for (e, (_, path)) in plans[0].iter().zip(selection.iter()) {
            assert_eq!(&*known[e.seq as usize], path.edge_labels());
        }
        // A leaf selects nothing and interns nothing.
        assert!(table.plan(true, &g, &p.ranker, VertexId(1)).is_empty());
        assert_eq!(table.seq_count(), 3);
    }

    #[test]
    fn prewarm_embeds_each_distinct_label_once() {
        let (p, i, labels) = setup();
        let shared = SharedScores::new();
        // Duplicate the vocabulary: dedup must keep embeds at 1× distinct.
        let doubled: Vec<LabelId> = labels.iter().chain(labels.iter()).copied().collect();
        shared.prewarm_labels(&p, &i, &doubled, 4);
        assert_eq!(shared.embed_calls(), labels.len() as u64);
        assert_eq!(shared.label_entries(), labels.len());
        // Prewarming again is a no-op.
        shared.prewarm_labels(&p, &i, &labels, 4);
        assert_eq!(shared.embed_calls(), labels.len() as u64);
        // Scoring after prewarm computes no further embeddings.
        for &a in &labels {
            for &b in &labels {
                let _ = shared.hv(&p, &i, a, b);
            }
        }
        assert_eq!(shared.embed_calls(), labels.len() as u64);
    }

    #[test]
    fn prewarmed_vectors_score_identically() {
        let (p, i, labels) = setup();
        let warm = SharedScores::new();
        warm.prewarm_labels(&p, &i, &labels, 3);
        let seqs: Vec<Vec<LabelId>> = labels.windows(2).map(|w| w.to_vec()).collect();
        warm.prewarm_paths(&p, &i, &seqs, 3);
        let cold = SharedScores::new();
        for &a in &labels {
            for &b in &labels {
                assert_eq!(warm.hv(&p, &i, a, b).to_bits(), cold.hv(&p, &i, a, b).to_bits());
            }
        }
        for s1 in &seqs {
            for s2 in &seqs {
                assert_eq!(
                    warm.mrho(&p, &i, s1, s2).to_bits(),
                    cold.mrho(&p, &i, s1, s2).to_bits()
                );
            }
        }
    }

    #[test]
    fn invalidate_clears_and_bumps_generation() {
        let (mut p, i, labels) = setup();
        let shared = SharedScores::new();
        let a = labels[0];
        let b = labels[3];
        let before = shared.hv(&p, &i, a, b);
        assert_eq!(shared.generation(), 0);
        // Fine-tune the queried pair, then invalidate: the next read
        // must see the override, and the generation must move.
        for _ in 0..6 {
            p.mv.fine_tune_pair(i.resolve(a), i.resolve(b), 1.0);
        }
        shared.invalidate();
        assert_eq!(shared.generation(), 1);
        assert_eq!(shared.hv_entries(), 0);
        let after = shared.hv(&p, &i, a, b);
        assert!(after > before);
        assert!(after > 0.9);
        // Clones observe the same generation (shared inner).
        assert_eq!(shared.clone().generation(), 1);
    }
}
