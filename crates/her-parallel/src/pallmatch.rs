//! `PAllMatch`: parallel `AllParaMatch` by fixpoint computation (§VI-B).
//!
//! The protocol, following equations (3)/(4) of the paper:
//!
//! 1. **PPSim** (superstep 1): every worker runs `AllParaMatch` over its
//!    fragment's candidate pairs. Pairs whose `G`-side vertex is a *border
//!    node* are optimistically assumed valid; each such assumption is sent
//!    to the border vertex's owner as a verification request.
//! 2. **Messages**: owners verify requested pairs authoritatively (on their
//!    full local out-edges) and reply with the *invalid* ones — the paper's
//!    `v.status` changes. Valid pairs need no reply: they were already
//!    assumed.
//! 3. **IncPSim**: a worker receiving an invalidation flips the pair to
//!    false and re-checks every recorded dependent (the cleanup machinery
//!    of `ParaMatch`), possibly generating new assumptions/requests.
//! 4. **Termination**: the message fixpoint. `Π` is the union of local
//!    verdicts on candidate root pairs.
//!
//! Invalidation is monotone (true → false only, at the assumption level),
//! so the fixpoint exists and is reached in finitely many supersteps.

use crate::bsp;
use crate::fault::{FaultPlan, MessageFate};
use crate::partition::{partition_greedy, partition_round_robin, Partition, SharedPartition};
use her_core::checkpoint::MatcherCheckpoint;
use her_core::index::InvertedIndex;
use her_core::paramatch::{Matcher, MatcherOptions, PairKey};
use her_core::params::Params;
use her_core::shared_scores::SharedScores;
use her_graph::hash::{FxHashMap, FxHashSet};
use her_graph::{Graph, Interner, LabelId, VertexId};
use her_store::{CodecError, Dec, Enc, Snapshot, SnapshotStore, StoreError};
use std::path::{Path, PathBuf};

/// How `G` is assigned to workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Vertex id modulo `n`: balanced, maximal cut (worst-case traffic).
    #[default]
    RoundRobin,
    /// Greedy balanced edge-cut: keeps entity neighbourhoods together,
    /// minimising border nodes and message volume (the paper's edge-cut).
    Greedy,
}

/// Configuration of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Number of workers `n`.
    pub workers: usize,
    /// Partitioning strategy for `G`.
    pub partition: PartitionStrategy,
    /// Build a blocking index per worker for candidate generation.
    pub use_blocking: bool,
    /// Execute workers sequentially with exact per-worker timing, so the
    /// critical path faithfully simulates an `n`-machine cluster even on an
    /// oversubscribed host. `false` runs workers on OS threads.
    pub simulate_cluster: bool,
    /// Injected faults (inert by default) — see [`crate::fault`].
    pub fault: FaultPlan,
    /// Observability handle: when set, every worker's matcher reports
    /// into the shared registry (the `paramatch.*` namespace aggregates
    /// across workers, each publishing its delta once per superstep), the run
    /// records `bsp.*`/`parallel.*`/`fault.*` metrics, and
    /// death/recovery events land in the trace log.
    pub obs: Option<her_obs::Obs>,
    /// Share one sharded score layer behind all workers' private pair
    /// memos (and pre-embed the label vocabulary before the BSP loop
    /// starts), so `M_v`/`M_ρ` vectors are computed once per distinct
    /// label process-wide instead of once per worker. `false` gives each
    /// worker a layer of its own — only useful for ablation.
    pub shared_scores: bool,
    /// Reuse an already-built [`SharedScores`] handle (typically the
    /// facade handle of the `Her` instance this run serves) instead of
    /// building a fresh one. The handle is still pre-warmed, but the
    /// prewarm reads through the existing memo, so labels embedded by an
    /// earlier run — sequential or BSP — are never re-embedded.
    /// Ignored when [`ParallelConfig::shared_scores`] is `false`.
    pub shared_handle: Option<SharedScores>,
    /// Request-scoped trace context ([`her_obs::ReqCtx`]): tags the
    /// run's spans (`parallel.*`) and per-superstep barrier events so a
    /// serving-path request that fans out into the BSP engine keeps its
    /// trace id through every superstep. Defaults to the ambient
    /// (request-free) context, which always records.
    pub ctx: her_obs::ReqCtx,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            partition: PartitionStrategy::default(),
            use_blocking: true,
            simulate_cluster: true,
            fault: FaultPlan::default(),
            obs: None,
            shared_scores: true,
            shared_handle: None,
            ctx: her_obs::ReqCtx::NONE,
        }
    }
}

/// Counters describing a parallel run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelStats {
    /// Supersteps executed until the fixpoint.
    pub supersteps: usize,
    /// Workers lost to panics and recovered from during the run.
    pub deaths: usize,
    /// Verification requests exchanged.
    pub requests: u64,
    /// Invalidations exchanged.
    pub invalidations: u64,
    /// Seconds spent precomputing global `h_r` selections.
    pub selection_secs: f64,
    /// Seconds spent generating candidate root pairs.
    pub candidates_secs: f64,
    /// Seconds spent inside the BSP supersteps (host wall-clock).
    pub bsp_secs: f64,
    /// Simulated `n`-machine wall-clock: perfectly-parallel preprocessing
    /// plus the BSP critical path (per-superstep slowest worker). On a
    /// multi-core host the real wall-clock approaches this; on a
    /// single-core host it is the honest estimate of cluster runtime.
    pub simulated_secs: f64,
    /// Snapshots written by the durability layer (0 on plain runs).
    pub checkpoints: u64,
    /// Total encoded checkpoint payload bytes written.
    pub checkpoint_bytes: u64,
    /// Seconds spent encoding and persisting checkpoints.
    pub checkpoint_secs: f64,
}

/// Durable-run configuration: where checkpoints live and when the BSP
/// loop writes them. See [`pallmatch_durable`].
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Checkpoint directory, created on demand.
    pub dir: PathBuf,
    /// Write a snapshot every this many supersteps (clamped to ≥ 1).
    pub every_supersteps: usize,
    /// Resume from the newest valid snapshot in `dir` if one exists;
    /// otherwise start fresh.
    pub resume: bool,
    /// Stop the run (after forcing a checkpoint) once this many
    /// supersteps have executed — the deterministic "crash" behind
    /// recovery drills and the CLI's `--stop-after-supersteps`.
    pub stop_after_supersteps: Option<usize>,
}

impl DurabilityConfig {
    /// Checkpoints into `dir` every superstep; no resume, no early stop.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_supersteps: 1,
            resume: false,
            stop_after_supersteps: None,
        }
    }
}

/// Outcome of a durable run ([`pallmatch_durable`]).
#[derive(Clone, Debug)]
pub struct DurableRun {
    /// Sorted match set — complete iff `completed`.
    pub matches: Vec<PairKey>,
    /// Run counters (including `checkpoint*` fields).
    pub stats: ParallelStats,
    /// `true` when the fixpoint was reached; `false` when the run
    /// stopped early at `stop_after_supersteps` (resume to finish).
    pub completed: bool,
    /// Generation of the snapshot this run resumed from, if any.
    pub resumed_from: Option<u64>,
}

#[derive(Clone, Debug)]
enum Msg {
    /// "I assumed (u, v); please verify" — carries the requester id.
    Request { pair: PairKey, from: usize },
    /// "(u, v) is invalid."
    Invalid { pair: PairKey },
}

/// Send attempts per message before the transport gives up and escalates
/// to a worker panic (which the supervisor then recovers from).
const MAX_SEND_ATTEMPTS: usize = 8;

struct PWorker<'a> {
    id: usize,
    matcher: Matcher<'a>,
    part: SharedPartition,
    fault: FaultPlan,
    /// Candidate root pairs owned by this worker (grows on adoption).
    roots: Vec<PairKey>,
    /// Pairs adopted from a dead peer, evaluated at the next superstep.
    pending: Vec<PairKey>,
    /// Re-verify all roots and served pairs next superstep: set after an
    /// adoption purged cached verdicts that leaned on assumptions about
    /// the newly-owned vertices.
    reverify: bool,
    superstep_no: usize,
    /// Requests already sent (dedup).
    requested: FxHashSet<PairKey>,
    /// Pairs verified on behalf of others: pair → requesters.
    served: FxHashMap<PairKey, Vec<usize>>,
    /// `(pair, requester)` invalidations already sent. Keyed per requester
    /// so a later requester of an already-notified pair still gets told.
    notified: FxHashSet<(PairKey, usize)>,
    started: bool,
    /// Messages held back by an injected delay fault, released (without
    /// re-faulting) at the start of the next superstep.
    delayed: Vec<(usize, Msg)>,
    requests_sent: u64,
    invalidations_sent: u64,
}

impl<'a> PWorker<'a> {
    /// Evaluates one pair, first giving the fault plan a chance to model a
    /// data-dependent crash.
    fn eval(&mut self, u: VertexId, v: VertexId) {
        self.fault.maybe_poison((u, v));
        let _ = self.matcher.is_match(u, v);
    }

    /// Bumps a `fault.*` counter (injected-fault paths only, never hot).
    fn fault_count(&self, name: &str) {
        if let Some(obs) = self.matcher.obs() {
            obs.registry.counter(name).inc();
        }
    }

    /// Sends `msg` through the fault plan: drops are retried (bounded —
    /// the BSP analogue of retry-with-backoff, there is no real channel to
    /// back off from), duplicates delivered twice, delays deferred one
    /// superstep. Exhausting the retries panics, escalating into the
    /// supervisor's recovery path.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
    fn emit(&mut self, out: &mut Vec<(usize, Msg)>, dest: usize, msg: Msg) {
        if !self.fault.is_armed() {
            out.push((dest, msg));
            return;
        }
        for _ in 0..MAX_SEND_ATTEMPTS {
            match self.fault.fate(self.id) {
                MessageFate::Deliver => {
                    out.push((dest, msg));
                    return;
                }
                MessageFate::Duplicate => {
                    self.fault_count("fault.duplicated");
                    out.push((dest, msg.clone()));
                    out.push((dest, msg));
                    return;
                }
                MessageFate::Delay => {
                    self.fault_count("fault.delayed");
                    self.delayed.push((dest, msg));
                    return;
                }
                MessageFate::Drop => self.fault_count("fault.dropped"),
            }
        }
        panic!("send to worker {dest} failed after {MAX_SEND_ATTEMPTS} attempts");
    }

    /// Drains fresh border assumptions into request messages.
    fn flush_assumptions(&mut self, out: &mut Vec<(usize, Msg)>) {
        for pair in self.matcher.take_new_assumptions() {
            if self.requested.insert(pair) {
                let owner = self.part.owner(pair.1);
                if owner == self.id {
                    // Shouldn't happen (owned vertices aren't border), but
                    // guard against degenerate partitions.
                    continue;
                }
                self.requests_sent += 1;
                self.emit(
                    out,
                    owner,
                    Msg::Request {
                        pair,
                        from: self.id,
                    },
                );
            }
        }
    }

    /// Notifies requesters about served pairs that are (now) invalid.
    fn flush_invalidations(&mut self, out: &mut Vec<(usize, Msg)>) {
        let mut newly: Vec<(PairKey, usize)> = Vec::new();
        for (pair, requesters) in &self.served {
            if self.matcher.cached(pair.0, pair.1) == Some(false) {
                for &r in requesters {
                    if !self.notified.contains(&(*pair, r)) {
                        newly.push((*pair, r));
                    }
                }
            }
        }
        for (pair, r) in newly {
            if self.notified.insert((pair, r)) {
                self.invalidations_sent += 1;
                self.emit(out, r, Msg::Invalid { pair });
            }
        }
    }
}

impl<'a> bsp::Worker for PWorker<'a> {
    type Msg = Msg;

    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
    fn superstep(&mut self, inbox: Vec<Msg>) -> Vec<(usize, Msg)> {
        self.superstep_no += 1;
        self.fault.maybe_kill(self.id, self.superstep_no);
        // The superstep is the entry point: one publication at its end.
        self.matcher.hold_telemetry();
        let mut out = Vec::new();
        // Release messages an injected fault delayed last superstep. They
        // count as output, so the run cannot reach a false fixpoint while
        // delayed messages are still buffered.
        out.append(&mut self.delayed);
        // IncPSim: apply invalidations first, then serve verifications.
        let mut requests = Vec::new();
        for msg in inbox {
            match msg {
                Msg::Invalid { pair } => self.matcher.apply_invalidation(pair.0, pair.1),
                Msg::Request { pair, from } => requests.push((pair, from)),
            }
        }
        // PPSim: the first superstep evaluates all local root candidates.
        if !self.started {
            self.started = true;
            let roots = self.roots.clone();
            for (u, v) in roots {
                self.eval(u, v);
            }
        }
        // Post-adoption: recompute everything the purge may have touched —
        // our own roots and every pair served for others (their verdicts
        // may have leaned on assumptions about the adopted vertices).
        if self.reverify {
            self.reverify = false;
            let todo: Vec<PairKey> = self
                .roots
                .iter()
                .chain(self.served.keys())
                .copied()
                .collect();
            for (u, v) in todo {
                self.eval(u, v);
            }
        }
        // Roots adopted from a dead peer.
        for (u, v) in std::mem::take(&mut self.pending) {
            self.eval(u, v);
        }
        // Serve verification requests on full local data.
        for (pair, from) in requests {
            self.eval(pair.0, pair.1);
            self.served.entry(pair).or_default().push(from);
        }
        self.flush_assumptions(&mut out);
        self.flush_invalidations(&mut out);
        self.matcher.publish_telemetry();
        out
    }
}

/// The [`bsp::Supervisor`] implementing §VI-B worker recovery for
/// `PAllMatch`: a dead worker's vertices are reassigned to survivors
/// ([`SharedPartition::reassign`]), its candidate roots are adopted and
/// re-evaluated by the new owners, and every pending verification request
/// that was addressed to it is replayed. Monotone invalidation makes the
/// replay safe — see the module docs of [`crate`].
struct Recovery {
    part: SharedPartition,
    obs: Option<her_obs::Obs>,
}

impl<'a> bsp::Supervisor<PWorker<'a>> for Recovery {
    fn on_death(
        &mut self,
        workers: &mut [PWorker<'a>],
        death: bsp::Death<Msg>,
        alive: &[usize],
    ) -> Vec<(usize, Msg)> {
        let dead = death.worker;
        if let Some(obs) = &self.obs {
            obs.registry.counter("bsp.worker_deaths").inc();
            obs.tracer.event(
                "bsp.worker_death",
                &format!("worker={} superstep={}", dead, death.superstep),
            );
        }
        let groups = self.part.reassign(dead, alive);
        let reassigned: FxHashSet<VertexId> = groups
            .iter()
            .flat_map(|(_, vs)| vs.iter().copied())
            .collect();
        // New owners adopt their share: the vertices leave their border
        // sets and any verdict leaning on assumptions about them is purged
        // and re-verified authoritatively next superstep.
        for (owner, vs) in &groups {
            let vset: FxHashSet<VertexId> = vs.iter().copied().collect();
            let w = &mut workers[*owner];
            w.matcher.adopt_border(&vset);
            w.requested.retain(|p| !vset.contains(&p.1));
            w.reverify = true;
        }
        // The dead worker's candidate roots (and any adoption work it had
        // not finished) move to the new owners.
        let orphans: Vec<PairKey> = std::mem::take(&mut workers[dead].roots)
            .into_iter()
            .chain(std::mem::take(&mut workers[dead].pending))
            .collect();
        for (u, v) in orphans {
            let owner = self.part.owner(v);
            let w = &mut workers[owner];
            if !w.roots.contains(&(u, v)) {
                w.roots.push((u, v));
                w.pending.push((u, v));
            }
        }
        // Replay: every survivor re-sends its pending verification
        // requests that the dead worker was responsible for. Verification
        // is deterministic and invalidation idempotent, so replays are
        // harmless even if the dead worker had already served some.
        let mut injected = Vec::new();
        for &s in alive {
            let replay: Vec<PairKey> = workers[s]
                .requested
                .iter()
                .filter(|p| reassigned.contains(&p.1))
                .copied()
                .collect();
            for pair in replay {
                let owner = self.part.owner(pair.1);
                if owner != s {
                    workers[s].requests_sent += 1;
                    injected.push((owner, Msg::Request { pair, from: s }));
                }
            }
        }
        // Replay the inbox the dead worker consumed when it panicked:
        // requests go to the vertices' new owners; invalidations were
        // addressed to the dead worker's (discarded) state and are moot.
        for msg in death.lost_inbox {
            if let Msg::Request { pair, from } = msg {
                if alive.contains(&from) {
                    injected.push((self.part.owner(pair.1), Msg::Request { pair, from }));
                }
            }
        }
        if let Some(obs) = &self.obs {
            obs.registry.counter("bsp.recoveries").inc();
            obs.tracer.event(
                "bsp.recovery",
                &format!(
                    "worker={} adopters={} replayed={}",
                    dead,
                    groups.len(),
                    injected.len()
                ),
            );
        }
        injected
    }

    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
    fn reroute(&mut self, _workers: &mut [PWorker<'a>], msg: Msg) -> Option<(usize, Msg)> {
        match msg {
            // A request races the death notice: forward to the new owner.
            Msg::Request { pair, from } => Some((self.part.owner(pair.1), Msg::Request { pair, from })),
            // The assumption this invalidation corrects died with its
            // holder; adopters re-verify from scratch.
            Msg::Invalid { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint codec: the BSP barrier state as her-store snapshot sections.
//
// A snapshot holds one "meta" section (format version, worker count, the
// absolute superstep counter and the full vertex→owner table), one
// "worker{i}" section per worker (matcher checkpoint plus the protocol
// bookkeeping) and one "inbox{i}" section per worker (messages already
// routed but not yet consumed). Together with the deterministic protocol
// this makes a resumed run bit-identical to an uninterrupted one.
// Collections are sorted before encoding so identical states produce
// identical bytes.
// ---------------------------------------------------------------------------

/// Snapshot layout version for the parallel engine.
const CKPT_VERSION: u32 = 1;

fn put_pair(e: &mut Enc, (u, v): PairKey) {
    e.put_u32(u.0).put_u32(v.0);
}

fn get_pair(d: &mut Dec<'_>) -> Result<PairKey, CodecError> {
    Ok((VertexId(d.u32()?), VertexId(d.u32()?)))
}

fn put_pairs(e: &mut Enc, pairs: &[PairKey]) {
    e.put_u32(pairs.len() as u32);
    for &p in pairs {
        put_pair(e, p);
    }
}

fn get_pairs(d: &mut Dec<'_>) -> Result<Vec<PairKey>, CodecError> {
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(get_pair(d)?);
    }
    Ok(out)
}

fn encode_msg(e: &mut Enc, msg: &Msg) {
    match msg {
        Msg::Request { pair, from } => {
            e.put_u8(0);
            put_pair(e, *pair);
            e.put_u32(*from as u32);
        }
        Msg::Invalid { pair } => {
            e.put_u8(1);
            put_pair(e, *pair);
        }
    }
}

fn decode_msg(d: &mut Dec<'_>) -> Result<Msg, CodecError> {
    match d.u8()? {
        0 => {
            let pair = get_pair(d)?;
            let from = d.u32()? as usize;
            Ok(Msg::Request { pair, from })
        }
        1 => Ok(Msg::Invalid { pair: get_pair(d)? }),
        t => Err(CodecError {
            offset: 0,
            message: format!("unknown message tag {t:#04x}"),
        }),
    }
}

fn encode_inbox(msgs: &[Msg]) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u32(msgs.len() as u32);
    for m in msgs {
        encode_msg(&mut e, m);
    }
    e.into_bytes()
}

fn decode_inbox(bytes: &[u8]) -> Result<Vec<Msg>, CodecError> {
    let mut d = Dec::new(bytes);
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(decode_msg(&mut d)?);
    }
    d.finish()?;
    Ok(out)
}

fn encode_meta(n: usize, superstep: usize, owners: &[u32]) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u32(CKPT_VERSION)
        .put_u32(n as u32)
        .put_u64(superstep as u64)
        .put_u32(owners.len() as u32);
    for &o in owners {
        e.put_u32(o);
    }
    e.into_bytes()
}

fn decode_meta(bytes: &[u8]) -> Result<(u32, usize, usize, Vec<u32>), CodecError> {
    let mut d = Dec::new(bytes);
    let version = d.u32()?;
    let n = d.u32()? as usize;
    let superstep = d.u64()? as usize;
    let count = d.u32()? as usize;
    let mut owners = Vec::with_capacity(count.min(1 << 24));
    for _ in 0..count {
        owners.push(d.u32()?);
    }
    d.finish()?;
    Ok((version, n, superstep, owners))
}

/// The durable slice of a [`PWorker`], decoded from a snapshot section.
struct WorkerState {
    ck: MatcherCheckpoint,
    roots: Vec<PairKey>,
    pending: Vec<PairKey>,
    reverify: bool,
    superstep_no: usize,
    started: bool,
    requested: FxHashSet<PairKey>,
    served: FxHashMap<PairKey, Vec<usize>>,
    notified: FxHashSet<(PairKey, usize)>,
    delayed: Vec<(usize, Msg)>,
    requests_sent: u64,
    invalidations_sent: u64,
}

fn decode_worker_state(bytes: &[u8]) -> Result<WorkerState, CodecError> {
    let mut d = Dec::new(bytes);
    let ck = MatcherCheckpoint::decode(d.bytes()?)?;
    let roots = get_pairs(&mut d)?;
    let pending = get_pairs(&mut d)?;
    let reverify = d.bool()?;
    let superstep_no = d.u64()? as usize;
    let started = d.bool()?;
    let requested: FxHashSet<PairKey> = get_pairs(&mut d)?.into_iter().collect();
    let n_served = d.u32()? as usize;
    let mut served = FxHashMap::default();
    for _ in 0..n_served {
        let pair = get_pair(&mut d)?;
        let n_r = d.u32()? as usize;
        let mut rs = Vec::with_capacity(n_r.min(1 << 16));
        for _ in 0..n_r {
            rs.push(d.u32()? as usize);
        }
        served.insert(pair, rs);
    }
    let n_notified = d.u32()? as usize;
    let mut notified = FxHashSet::default();
    for _ in 0..n_notified {
        let pair = get_pair(&mut d)?;
        notified.insert((pair, d.u32()? as usize));
    }
    let n_delayed = d.u32()? as usize;
    let mut delayed = Vec::with_capacity(n_delayed.min(1 << 16));
    for _ in 0..n_delayed {
        let dest = d.u32()? as usize;
        delayed.push((dest, decode_msg(&mut d)?));
    }
    let requests_sent = d.u64()?;
    let invalidations_sent = d.u64()?;
    d.finish()?;
    Ok(WorkerState {
        ck,
        roots,
        pending,
        reverify,
        superstep_no,
        started,
        requested,
        served,
        notified,
        delayed,
        requests_sent,
        invalidations_sent,
    })
}

impl<'a> PWorker<'a> {
    /// Encodes the durable worker state. Hash collections are sorted so
    /// identical states always produce identical bytes.
    fn encode_state(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_bytes(&self.matcher.checkpoint().encode());
        put_pairs(&mut e, &self.roots);
        put_pairs(&mut e, &self.pending);
        e.put_bool(self.reverify);
        e.put_u64(self.superstep_no as u64);
        e.put_bool(self.started);
        let mut requested: Vec<PairKey> = self.requested.iter().copied().collect();
        requested.sort_unstable();
        put_pairs(&mut e, &requested);
        let mut served: Vec<(PairKey, &Vec<usize>)> =
            self.served.iter().map(|(k, v)| (*k, v)).collect();
        served.sort_unstable_by_key(|&(k, _)| k);
        e.put_u32(served.len() as u32);
        for (pair, reqs) in served {
            put_pair(&mut e, pair);
            e.put_u32(reqs.len() as u32);
            for &r in reqs {
                e.put_u32(r as u32);
            }
        }
        let mut notified: Vec<(PairKey, usize)> = self.notified.iter().copied().collect();
        notified.sort_unstable();
        e.put_u32(notified.len() as u32);
        for (pair, r) in notified {
            put_pair(&mut e, pair);
            e.put_u32(r as u32);
        }
        e.put_u32(self.delayed.len() as u32);
        for (dest, msg) in &self.delayed {
            e.put_u32(*dest as u32);
            encode_msg(&mut e, msg);
        }
        e.put_u64(self.requests_sent).put_u64(self.invalidations_sent);
        e.into_bytes()
    }
}

/// Maps a decode failure inside snapshot `generation` into a
/// [`StoreError::Corrupt`] anchored at the checkpoint directory.
fn corrupt(dir: &Path, generation: u64, msg: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt {
        path: dir.to_path_buf(),
        offset: 0,
        message: format!("snapshot generation {generation}: {msg}"),
    }
}

fn section<'s>(snap: &'s Snapshot, dir: &Path, name: &str) -> Result<&'s [u8], StoreError> {
    snap.section(name)
        .ok_or_else(|| corrupt(dir, snap.generation, format!("missing section {name:?}")))
}

/// Persists one barrier's full engine state; returns the payload bytes.
fn write_checkpoint(
    store: &SnapshotStore,
    part: &SharedPartition,
    workers: &[PWorker<'_>],
    inboxes: &[Vec<Msg>],
    superstep: usize,
) -> Result<u64, StoreError> {
    let fixed = part.snapshot();
    let meta = encode_meta(workers.len(), superstep, fixed.owners());
    let worker_bytes: Vec<Vec<u8>> = workers.iter().map(|w| w.encode_state()).collect();
    let inbox_bytes: Vec<Vec<u8>> = inboxes.iter().map(|b| encode_inbox(b)).collect();
    let worker_names: Vec<String> = (0..workers.len()).map(|i| format!("worker{i}")).collect();
    let inbox_names: Vec<String> = (0..inboxes.len()).map(|i| format!("inbox{i}")).collect();
    let mut sections: Vec<(&str, &[u8])> = vec![("meta", meta.as_slice())];
    for (name, bytes) in worker_names.iter().zip(&worker_bytes) {
        sections.push((name.as_str(), bytes.as_slice()));
    }
    for (name, bytes) in inbox_names.iter().zip(&inbox_bytes) {
        sections.push((name.as_str(), bytes.as_slice()));
    }
    store.write(&sections)?;
    let payload = meta.len()
        + worker_bytes.iter().map(Vec::len).sum::<usize>()
        + inbox_bytes.iter().map(Vec::len).sum::<usize>();
    Ok(payload as u64)
}

/// Builds the process-wide shared score layer for a parallel run: one
/// sharded cache (wired into the `scores.*` counters when `obs` is set)
/// pre-warmed with the distinct vertex labels of both graphs and the
/// distinct edge-label sequences of the selections filled so far, so the
/// worker hot loops perform hash lookups instead of embedding.
fn prewarm_shared_scores(
    shared: &SharedScores,
    gd: &Graph,
    g: &Graph,
    interner: &Interner,
    params: &Params,
    threads: usize,
) {
    let mut labels: Vec<LabelId> = g.vertices().map(|v| g.label(v)).collect();
    labels.extend(gd.vertices().map(|v| gd.label(v)));
    shared.prewarm_labels(params, interner, &labels, threads);
    let selections = shared.selections(gd, g, params.thresholds.k);
    let seqs: Vec<Vec<LabelId>> = selections
        .filled()
        .flat_map(|paths| paths.iter().map(|(_, p)| p.edge_labels().to_vec()))
        .collect();
    shared.prewarm_paths(params, interner, &seqs, threads);
}

/// Parallel `AllParaMatch`: all matches `(u_t, v)` for the given `G_D`
/// tuple vertices across `G`, computed with `cfg.workers` BSP workers.
/// Returns the sorted match set and run statistics.
pub fn pallmatch(
    gd: &Graph,
    g: &Graph,
    interner: &Interner,
    params: &Params,
    tuple_vertices: &[VertexId],
    cfg: &ParallelConfig,
) -> (Vec<PairKey>, ParallelStats) {
    match engine(gd, g, interner, params, tuple_vertices, cfg, None) {
        Ok(run) => (run.matches, run.stats),
        // Without a durability layer the engine performs no store I/O.
        Err(e) => unreachable!("store error on a non-durable run: {e}"),
    }
}

/// [`pallmatch`] with crash-consistent checkpoints: the engine snapshots
/// the full barrier state (partition table, per-worker matcher +
/// protocol bookkeeping, undelivered inboxes) into `durability.dir`
/// every `every_supersteps` barriers, and with `durability.resume` it
/// re-enters the BSP loop exactly where the newest valid snapshot left
/// off. Checkpoint bytes are validated per frame; a corrupt newest
/// snapshot falls back to the previous generation. Determinism of the
/// protocol makes a resumed run equal to an uninterrupted one.
pub fn pallmatch_durable(
    gd: &Graph,
    g: &Graph,
    interner: &Interner,
    params: &Params,
    tuple_vertices: &[VertexId],
    cfg: &ParallelConfig,
    durability: &DurabilityConfig,
) -> Result<DurableRun, StoreError> {
    engine(gd, g, interner, params, tuple_vertices, cfg, Some(durability))
}

fn engine(
    gd: &Graph,
    g: &Graph,
    interner: &Interner,
    params: &Params,
    tuple_vertices: &[VertexId],
    cfg: &ParallelConfig,
    durability: Option<&DurabilityConfig>,
) -> Result<DurableRun, StoreError> {
    let n = cfg.workers.max(1);

    // Durable runs open the snapshot store up front so an unusable
    // checkpoint directory fails before any compute is spent.
    let store = match durability {
        Some(d) => {
            let s = SnapshotStore::open(&d.dir)?;
            Some(match &cfg.obs {
                Some(o) => s.with_obs(o.clone()),
                None => s,
            })
        }
        None => None,
    };
    let snap = match (durability, &store) {
        (Some(d), Some(s)) if d.resume => s.load_latest()?,
        _ => None,
    };
    let resumed_from = snap.as_ref().map(|s| s.generation);

    // Shared score layer: every worker (and the candidate probe) reads
    // through one sharded cache. A caller-supplied handle (e.g. the `Her`
    // facade's) keeps what it holds, so anything embedded or selected by
    // an earlier run is not redone. The cache is pure memoisation of
    // deterministic functions, so Theorem 3's sequential equivalence is
    // unaffected.
    let shared_scores = cfg.shared_scores.then(|| match (&cfg.shared_handle, &cfg.obs) {
        (Some(s), _) => s.clone(),
        (None, Some(o)) => SharedScores::with_obs_for_workers(o, n),
        (None, None) => SharedScores::for_workers(n),
    });

    // Global h_r preprocessing (§IV "Complexity"): the handle's selection
    // table, filled once in parallel and read lock-free by all workers.
    // Selections are always taken on the whole of `G`, so descendant
    // rankings are identical across fragment boundaries, which Theorem
    // 3's equivalence with the sequential algorithm implicitly assumes.
    // They are derived state: a resumed run recomputes rather than
    // checkpoints them, and workers without a shared handle fill a table
    // of their own on demand.
    let mut selection_secs = 0.0;
    if let Some(shared) = &shared_scores {
        let span = |name| cfg.obs.as_ref().map(|o| o.tracer.span_ctx(name, cfg.ctx));
        let t0 = std::time::Instant::now();
        let selecting = span("parallel.selection");
        shared
            .selections(gd, g, params.thresholds.k)
            .fill(gd, g, &params.ranker, n);
        drop(selecting);
        selection_secs = t0.elapsed().as_secs_f64();
        // Pre-warmed here so `M_v`/`M_ρ` run once per distinct label
        // process-wide instead of once per worker.
        let _prewarming = span("parallel.prewarm");
        prewarm_shared_scores(shared, gd, g, interner, params, n);
    }

    let new_matcher = || {
        Matcher::with_options(
            gd,
            g,
            interner,
            params,
            MatcherOptions {
                obs: cfg.obs.clone(),
                shared_scores: shared_scores.clone(),
                ..Default::default()
            },
        )
    };

    let mut candidates_secs = 0.0;
    let (part, mut workers, resume_state) = if let (Some(snap), Some(store)) = (&snap, &store) {
        // Resume: rebuild the barrier state captured in the snapshot.
        // The matcher checkpoint carries each worker's border set, and
        // candidate roots were captured verbatim, so neither borders nor
        // candidate generation are recomputed.
        let dir = store.dir();
        let (version, meta_n, superstep, owners) =
            decode_meta(section(snap, dir, "meta")?)
                .map_err(|e| corrupt(dir, snap.generation, format!("meta: {e}")))?;
        if version != CKPT_VERSION {
            return Err(StoreError::Version {
                path: dir.to_path_buf(),
                message: format!(
                    "parallel checkpoint v{version} (this build reads v{CKPT_VERSION})"
                ),
            });
        }
        if meta_n != n {
            return Err(StoreError::Version {
                path: dir.to_path_buf(),
                message: format!(
                    "checkpoint was taken with {meta_n} workers; this run is configured with {n}"
                ),
            });
        }
        if owners.len() != g.vertex_count() {
            return Err(corrupt(
                dir,
                snap.generation,
                format!(
                    "partition covers {} vertices but G has {}",
                    owners.len(),
                    g.vertex_count()
                ),
            ));
        }
        let fixed = Partition::from_owners(owners, n)
            .ok_or_else(|| corrupt(dir, snap.generation, "partition owner out of range"))?;
        let part = SharedPartition::new(fixed);
        let mut workers: Vec<PWorker<'_>> = Vec::with_capacity(n);
        let mut inboxes: Vec<Vec<Msg>> = Vec::with_capacity(n);
        for i in 0..n {
            let st = decode_worker_state(section(snap, dir, &format!("worker{i}"))?)
                .map_err(|e| corrupt(dir, snap.generation, format!("worker{i}: {e}")))?;
            inboxes.push(
                decode_inbox(section(snap, dir, &format!("inbox{i}"))?)
                    .map_err(|e| corrupt(dir, snap.generation, format!("inbox{i}: {e}")))?,
            );
            let mut matcher = new_matcher();
            matcher.restore(&st.ck);
            workers.push(PWorker {
                id: i,
                matcher,
                part: part.clone(),
                fault: cfg.fault.clone(),
                roots: st.roots,
                pending: st.pending,
                reverify: st.reverify,
                superstep_no: st.superstep_no,
                requested: st.requested,
                served: st.served,
                notified: st.notified,
                started: st.started,
                delayed: st.delayed,
                requests_sent: st.requests_sent,
                invalidations_sent: st.invalidations_sent,
            });
        }
        if let Some(obs) = &cfg.obs {
            obs.tracer.event(
                "store.resume",
                &format!("generation={} superstep={superstep}", snap.generation),
            );
        }
        (part, workers, Some(bsp::ResumeState { superstep, inboxes }))
    } else {
        // Fresh run: partition G and generate candidate root pairs.
        let fixed = match cfg.partition {
            PartitionStrategy::RoundRobin => partition_round_robin(g, n),
            PartitionStrategy::Greedy => partition_greedy(g, n),
        };
        let borders = fixed.all_borders(g);
        let part = SharedPartition::new(fixed.clone());

        // Candidate generation per worker: (u_t, v) with owned v and
        // h_v ≥ σ. The blocking index is built over the full G labels (it
        // only looks at labels, which fragments share).
        let t0 = std::time::Instant::now();
        let span = cfg
            .obs
            .as_ref()
            .map(|o| o.tracer.span_ctx("parallel.candidates", cfg.ctx));
        let index = cfg.use_blocking.then(|| InvertedIndex::build(g, interner));
        // One throwaway matcher per chunk of tuple vertices, on the same
        // `n` scoped threads the selection fill uses. Each shares the
        // score layer so its embeddings and selections are not redone,
        // and reports into the same registry so `scores.embed_calls` and
        // `paramatch.early_terminations` cover candidate generation — a
        // probe has no border, so it cuts exactly the root pairs their
        // owners' first bound would. Roots carry their Fig. 8 line-4 sort
        // key, `deg(u) + deg(v)`, so ordering them compares plain tuples.
        let chunk = tuple_vertices.len().div_ceil(n).max(1);
        let (index, fixed, new_matcher) = (&index, &fixed, &new_matcher);
        let chunks: Vec<Vec<Vec<(usize, VertexId, VertexId)>>> = std::thread::scope(|s| {
            tuple_vertices
                .chunks(chunk)
                .map(|us| {
                    s.spawn(move || {
                        let mut probe = new_matcher();
                        let mut roots = vec![Vec::new(); n];
                        for &u in us {
                            let deg_u = gd.degree(u);
                            for v in her_core::vpair::candidates(&mut probe, u, index.as_ref()) {
                                roots[fixed.owner(v)].push((deg_u + g.degree(v), u, v));
                            }
                        }
                        roots
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("candidate thread panicked"))
                .collect()
        });
        // Degree-ordered verification inside each worker (Fig. 8 line 4):
        // exactly `(deg(u) + deg(v), u, v)`, one worker's roots per thread.
        let roots_per_worker: Vec<Vec<PairKey>> = std::thread::scope(|s| {
            let chunks = &chunks;
            (0..n)
                .map(|w| {
                    s.spawn(move || {
                        let mut keyed: Vec<(usize, VertexId, VertexId)> =
                            chunks.iter().flat_map(|c| c[w].iter().copied()).collect();
                        keyed.sort_unstable();
                        keyed.into_iter().map(|(_, u, v)| (u, v)).collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("candidate sort thread panicked"))
                .collect()
        });
        drop(span);
        candidates_secs = t0.elapsed().as_secs_f64();

        let workers: Vec<PWorker<'_>> = roots_per_worker
            .into_iter()
            .zip(borders)
            .enumerate()
            .map(|(i, (roots, border))| {
                PWorker {
                    id: i,
                    matcher: new_matcher().with_border(border),
                    part: part.clone(),
                    fault: cfg.fault.clone(),
                    roots,
                    pending: Vec::new(),
                    reverify: false,
                    superstep_no: 0,
                    requested: FxHashSet::default(),
                    served: FxHashMap::default(),
                    notified: FxHashSet::default(),
                    started: false,
                    delayed: Vec::new(),
                    requests_sent: 0,
                    invalidations_sent: 0,
                }
            })
            .collect();
        (part, workers, None)
    };

    let t0 = std::time::Instant::now();
    let span = cfg
        .obs
        .as_ref()
        .map(|o| o.tracer.span_ctx("parallel.bsp", cfg.ctx));
    let mut recovery = Recovery {
        part: part.clone(),
        obs: cfg.obs.clone(),
    };
    let mut ckpt_count = 0u64;
    let mut ckpt_bytes = 0u64;
    let mut ckpt_secs = 0.0f64;
    let every = durability.map_or(1, |d| d.every_supersteps.max(1));
    let stop_after = durability.and_then(|d| d.stop_after_supersteps);
    let hook_store = store.as_ref();
    let hook_part = part.clone();
    let hook_obs = cfg.obs.clone();
    let hook_ctx = cfg.ctx;
    let supervised = bsp::run_supervised_resumable(
        &mut workers,
        &mut recovery,
        cfg.simulate_cluster,
        resume_state,
        &mut |b| {
            let stop = stop_after.is_some_and(|k| b.superstep >= k);
            if let Some(o) = &hook_obs {
                // One barrier event per superstep, tagged with the
                // originating request so `her-cli trace` can show where
                // a request's BSP time went superstep by superstep.
                let routed: usize = b.inboxes.iter().map(Vec::len).sum();
                o.tracer.event_ctx(
                    "bsp.superstep",
                    &format!("superstep={} routed={routed}", b.superstep),
                    hook_ctx,
                );
            }
            if let Some(store) = hook_store {
                // The fixpoint barrier needs no snapshot: the run is
                // complete and its results are being returned.
                if !b.fixpoint && (stop || b.superstep % every == 0) {
                    let t = std::time::Instant::now();
                    match write_checkpoint(store, &hook_part, b.workers, b.inboxes, b.superstep)
                    {
                        Ok(bytes) => {
                            ckpt_count += 1;
                            ckpt_bytes += bytes;
                            ckpt_secs += t.elapsed().as_secs_f64();
                        }
                        Err(e) => {
                            // A failed write degrades durability, not the
                            // run: older snapshots remain valid fallbacks.
                            her_obs::warn!(
                                "checkpoint at superstep {} failed: {}",
                                b.superstep,
                                e
                            );
                            if let Some(o) = &hook_obs {
                                o.registry.counter("store.checkpoint_failures").inc();
                            }
                        }
                    }
                }
            }
            if stop {
                bsp::BarrierControl::Stop
            } else {
                bsp::BarrierControl::Continue
            }
        },
    );
    let deaths = supervised.deaths;
    let completed = !supervised.stopped_early;
    let run = supervised.run;
    drop(span);
    let bsp_secs = t0.elapsed().as_secs_f64();

    let mut stats = ParallelStats {
        supersteps: run.supersteps,
        deaths,
        selection_secs,
        candidates_secs,
        bsp_secs,
        checkpoints: ckpt_count,
        checkpoint_bytes: ckpt_bytes,
        checkpoint_secs: ckpt_secs,
        simulated_secs: (selection_secs + candidates_secs) / n as f64
            + run.critical_path_secs,
        ..Default::default()
    };
    let mut result: Vec<PairKey> = Vec::new();
    for w in &workers {
        stats.requests += w.requests_sent;
        stats.invalidations += w.invalidations_sent;
        for &(u, v) in &w.roots {
            if w.matcher.cached(u, v) == Some(true) {
                result.push((u, v));
            }
        }
    }
    result.sort();
    result.dedup();
    if let Some(obs) = &cfg.obs {
        let r = &obs.registry;
        // Keep the recovery counters in the namespace even for clean runs,
        // so "zero deaths" is an observable fact rather than a missing key.
        r.counter("bsp.worker_deaths");
        r.counter("bsp.recoveries");
        r.counter("bsp.supersteps").add(run.supersteps as u64);
        let busy = r.histogram("bsp.superstep.busy_us");
        let skew = r.histogram("bsp.superstep.skew_us");
        let msgs = r.histogram("bsp.superstep.messages");
        for step in &run.per_superstep {
            busy.observe((step.busy_max_secs * 1e6) as u64);
            skew.observe((step.skew_secs() * 1e6) as u64);
            msgs.observe(step.messages as u64);
        }
        r.counter("parallel.requests").add(stats.requests);
        r.counter("parallel.invalidations").add(stats.invalidations);
        r.counter("parallel.runs").inc();
        r.gauge("parallel.workers").set(n as f64);
        r.gauge("parallel.simulated_secs").set(stats.simulated_secs);
    }
    Ok(DurableRun {
        matches: result,
        stats,
        completed,
        resumed_from,
    })
}

/// Parallel VPair: all matches of a single tuple vertex, same protocol.
pub fn pvpair(
    gd: &Graph,
    g: &Graph,
    interner: &Interner,
    params: &Params,
    u_t: VertexId,
    cfg: &ParallelConfig,
) -> (Vec<VertexId>, ParallelStats) {
    let (pairs, stats) = pallmatch(gd, g, interner, params, &[u_t], cfg);
    (pairs.into_iter().map(|(_, v)| v).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use her_core::apair::apair;
    use her_core::params::Thresholds;
    use her_graph::GraphBuilder;

    /// Builds `m` entities in G_D and G with a deterministic attribute
    /// permutation; entity i of G_D truly matches entity i of G. Each
    /// entity has a *non-leaf* brand sub-entity (brand → country), so the
    /// recursion crosses fragment boundaries under round-robin partitions.
    fn dataset(m: usize) -> (Graph, Graph, Interner, Vec<VertexId>, Vec<VertexId>) {
        let colors = ["white", "red", "blue", "green"];
        let brands = ["Acme", "Globex", "Initech"];
        let countries = ["Germany", "Vietnam", "Japan"];
        let build = |shared: Option<Interner>| {
            let mut b = match shared {
                Some(i) => GraphBuilder::with_interner(i),
                None => GraphBuilder::new(),
            };
            let mut roots = Vec::new();
            for i in 0..m {
                let root = b.add_vertex("item");
                let c = b.add_vertex(colors[i % colors.len()]);
                let name = b.add_vertex(&format!("entity {i}"));
                let brand = b.add_vertex(brands[i % brands.len()]);
                let country = b.add_vertex(countries[i % countries.len()]);
                b.add_edge(root, c, "color");
                b.add_edge(root, name, "name");
                b.add_edge(root, brand, "brand");
                b.add_edge(brand, country, "country");
                roots.push(root);
            }
            let (g, i) = b.build();
            (g, i, roots)
        };
        let (gd, i1, us) = build(None);
        let (g, interner, vs) = build(Some(i1));
        (gd, g, interner, us, vs)
    }

    fn params() -> Params {
        Params::untrained(64, 77).with_thresholds(Thresholds::new(0.9, 0.05, 5))
    }

    #[test]
    fn parallel_equals_sequential() {
        let (gd, g, interner, us, _) = dataset(12);
        let p = params();
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        let sequential = apair(&mut m, &us, None);
        for n in [1, 2, 4, 7] {
            let (parallel, _) = pallmatch(
                &gd,
                &g,
                &interner,
                &p,
                &us,
                &ParallelConfig {
                    workers: n,
                    use_blocking: false,
                    ..Default::default()
                },
            );
            assert_eq!(parallel, sequential, "workers = {n}");
        }
    }

    /// The shared score layer is pure memoisation of deterministic score
    /// functions: ablating it must not change a single match, and with it
    /// on the whole run embeds each distinct label at most once (the
    /// prewarm pass) instead of once per worker.
    #[test]
    fn shared_scores_ablation_is_equivalent_and_bounds_embeds() {
        let (gd, g, interner, us, _) = dataset(12);
        let p = params();
        let run = |shared: bool| {
            let obs = her_obs::Obs::new();
            let cfg = ParallelConfig {
                workers: 4,
                use_blocking: false,
                obs: Some(obs.clone()),
                shared_scores: shared,
                ..Default::default()
            };
            let (matches, _) = pallmatch(&gd, &g, &interner, &p, &us, &cfg);
            (matches, obs.registry.snapshot().counter("scores.embed_calls"))
        };
        let (with, shared_embeds) = run(true);
        let (without, unshared_embeds) = run(false);
        assert_eq!(with, without);
        if her_obs::ENABLED {
            let distinct: FxHashSet<LabelId> = g
                .vertices()
                .map(|v| g.label(v))
                .chain(gd.vertices().map(|v| gd.label(v)))
                .collect();
            assert!(
                shared_embeds <= distinct.len() as u64,
                "shared mode embedded {shared_embeds} labels but only {} are distinct",
                distinct.len()
            );
            assert!(
                unshared_embeds > shared_embeds,
                "private caches ({unshared_embeds} embeds) should redo work \
                 the shared layer ({shared_embeds}) does once"
            );
        }
    }

    #[test]
    fn finds_true_matches() {
        let (gd, g, interner, us, vs) = dataset(8);
        let p = params();
        let (result, stats) = pallmatch(
            &gd,
            &g,
            &interner,
            &p,
            &us,
            &ParallelConfig {
                workers: 3,
                use_blocking: false,
                ..Default::default()
            },
        );
        for (i, (&u, &v)) in us.iter().zip(&vs).enumerate() {
            assert!(result.contains(&(u, v)), "entity {i} missing");
        }
        assert!(stats.supersteps >= 1);
    }

    #[test]
    fn blocking_equivalence_parallel() {
        let (gd, g, interner, us, _) = dataset(10);
        let p = params();
        let (with, _) = pallmatch(
            &gd,
            &g,
            &interner,
            &p,
            &us,
            &ParallelConfig {
                workers: 4,
                use_blocking: true,
                ..Default::default()
            },
        );
        let (without, _) = pallmatch(
            &gd,
            &g,
            &interner,
            &p,
            &us,
            &ParallelConfig {
                workers: 4,
                use_blocking: false,
                ..Default::default()
            },
        );
        assert_eq!(with, without);
    }

    #[test]
    fn pvpair_matches_sequential_vpair() {
        let (gd, g, interner, us, _) = dataset(9);
        let p = params();
        let mut m = Matcher::new(&gd, &g, &interner, &p);
        let sequential = her_core::vpair::vpair(&mut m, us[3], None);
        let (parallel, _) = pvpair(
            &gd,
            &g,
            &interner,
            &p,
            us[3],
            &ParallelConfig {
                workers: 3,
                use_blocking: false,
                ..Default::default()
            },
        );
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn greedy_partition_reduces_message_traffic() {
        let (gd, g, interner, us, _) = dataset(12);
        let p = params();
        let run = |strategy| {
            pallmatch(&gd, &g, &interner, &p, &us, &ParallelConfig {
                workers: 4,
                partition: strategy,
                use_blocking: false,
                ..Default::default()
            })
        };
        let (r_rr, s_rr) = run(PartitionStrategy::RoundRobin);
        let (r_gr, s_gr) = run(PartitionStrategy::Greedy);
        assert_eq!(r_rr, r_gr, "results must not depend on the partition");
        assert!(
            s_gr.requests <= s_rr.requests,
            "greedy {} > round-robin {} requests",
            s_gr.requests,
            s_rr.requests
        );
    }

    /// Cross-fragment structure: entity attributes deliberately placed on a
    /// different worker than the entity root, forcing assumptions/requests.
    #[test]
    fn cross_fragment_assumptions_resolve() {
        let (gd, g, interner, us, vs) = dataset(6);
        let p = params();
        // Round-robin over consecutive ids splits each star across workers.
        let (result, stats) = pallmatch(
            &gd,
            &g,
            &interner,
            &p,
            &us,
            &ParallelConfig {
                workers: 4,
                use_blocking: false,
                ..Default::default()
            },
        );
        assert!(result.contains(&(us[0], vs[0])));
        // With stars split across workers there must be message traffic…
        // unless every attribute happens to be co-located; with 4 workers
        // and 4-vertex stars, cross edges are guaranteed.
        assert!(stats.requests > 0, "expected cross-fragment requests");
    }
}
