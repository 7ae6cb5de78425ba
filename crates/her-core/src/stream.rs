//! Incremental / pay-as-you-go linking (§VI-B Remark 2, and the paper's
//! VPair motivation of real-time analysis à la pay-as-you-go ER \[88\]).
//!
//! [`StreamLinker`] processes tuples as they arrive, keeping one persistent
//! [`Matcher`] so verdicts, `ecache` selections and score memos amortise
//! across the stream — exactly the property `IncPSim`'s incremental
//! refinement exploits. External invalidations (e.g. a vertex retracted
//! from `G`) propagate through the cleanup machinery.

//! A session survives process death via [`DurableStreamLinker`], which
//! journals every operation into an `her-store` write-ahead log before
//! applying it; re-opening the log replays the journal into a fresh
//! session, reproducing the exact in-memory state (the fixpoint is unique,
//! so replay order = original order gives identical matches).

use crate::her::Her;
use crate::paramatch::{Matcher, MatcherOptions};
use crate::vpair;
use her_graph::VertexId;
use her_rdb::TupleRef;
use her_store::wal::{WalReplay, WalWriter};
use her_store::{vfs, CodecError, Dec, Enc, StoreError, Vfs};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Per-tuple processing statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Recursive `ParaMatch` calls this tuple required.
    pub calls: u64,
    /// Verdicts served from the shared cache.
    pub cache_hits: u64,
}

/// A streaming linker over a fixed `(D, G)` pair.
pub struct StreamLinker<'a> {
    her: &'a Her,
    matcher: Matcher<'a>,
    matches: BTreeSet<(TupleRef, VertexId)>,
    processed: Vec<TupleRef>,
}

impl<'a> StreamLinker<'a> {
    /// Creates an empty session over a trained system. The session's
    /// matcher reads scores through the facade's [`crate::SharedScores`]
    /// handle (when enabled on `her`), so labels embedded by any earlier
    /// run — batch, parallel, or a previous stream session — are served
    /// from the shared memo instead of re-embedded per session.
    pub fn new(her: &'a Her) -> Self {
        Self::with_obs(her, None)
    }

    /// [`StreamLinker::new`] with an observability handle: per-tuple work
    /// lands in the `paramatch.*` counters and each operation ticks
    /// `stream.tuples` / `stream.retractions`.
    pub fn with_obs(her: &'a Her, obs: Option<her_obs::Obs>) -> Self {
        Self {
            her,
            matcher: her.matcher_with(MatcherOptions {
                obs,
                ..Default::default()
            }),
            matches: BTreeSet::new(),
            processed: Vec::new(),
        }
    }

    /// Links one arriving tuple (VPair with shared caches); returns its
    /// matches and the incremental work it cost.
    pub fn process(&mut self, t: TupleRef) -> (Vec<VertexId>, StreamStats) {
        let before = self.matcher.stats();
        let u = self.her.cg.vertex_of(t);
        let found = vpair::vpair(&mut self.matcher, u, self.her.index.as_ref());
        for &v in &found {
            self.matches.insert((t, v));
        }
        self.processed.push(t);
        // `stats()` snapshots are detached copies, so the before/after
        // diff attributes exactly this tuple's work.
        let delta = self.matcher.stats().delta_since(&before);
        if let Some(obs) = self.matcher.obs() {
            obs.registry.counter("stream.tuples").inc();
        }
        (
            found,
            StreamStats {
                calls: delta.calls,
                cache_hits: delta.cache_hits,
            },
        )
    }

    /// Applies an external update: vertex `v` of `G` is no longer a valid
    /// match target (e.g. retracted or re-labeled). All cached verdicts
    /// involving `v` flip to false and their dependents are re-checked
    /// (IncPSim's cleanup); accumulated matches pointing at `v` are
    /// withdrawn.
    pub fn retract_vertex(&mut self, v: VertexId) {
        let affected: Vec<(TupleRef, VertexId)> = self
            .matches
            .iter()
            .filter(|&&(_, mv)| mv == v)
            .copied()
            .collect();
        for (t, mv) in affected {
            self.matches.remove(&(t, mv));
            let u = self.her.cg.vertex_of(t);
            self.matcher.apply_invalidation(u, mv);
        }
        if let Some(obs) = self.matcher.obs() {
            obs.registry.counter("stream.retractions").inc();
        }
    }

    /// All matches accumulated so far, sorted.
    pub fn matches(&self) -> Vec<(TupleRef, VertexId)> {
        self.matches.iter().copied().collect()
    }

    /// Tuples processed so far, in arrival order.
    pub fn processed(&self) -> &[TupleRef] {
        &self.processed
    }

    /// Snapshots the session — accumulated matches, the processed log and
    /// the matcher's durable state — tagged with `ops_applied`, the number
    /// of journaled operations this state reflects (so a durable reopen
    /// knows where WAL replay must resume).
    pub fn checkpoint(&self, ops_applied: u64) -> StreamCheckpoint {
        StreamCheckpoint {
            ops_applied,
            matches: self.matches(),
            processed: self.processed.clone(),
            matcher: self.matcher.checkpoint(),
        }
    }

    /// Restores a snapshot taken by [`StreamLinker::checkpoint`] into this
    /// session, replacing its state wholesale. Derived memos refill on
    /// demand; the restored matcher adopts the shared score layer's
    /// current generation (see [`crate::checkpoint::MatcherCheckpoint`]).
    pub fn restore(&mut self, ck: &StreamCheckpoint) {
        self.matches = ck.matches.iter().copied().collect();
        self.processed = ck.processed.clone();
        self.matcher.restore(&ck.matcher);
    }
}

/// A whole-session snapshot of a [`StreamLinker`], positioned in its WAL
/// by `ops_applied`. Encoding is deterministic (sorted matches, explicit
/// little-endian codec), so identical states produce identical bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamCheckpoint {
    /// Journaled operations already reflected in this state; a durable
    /// reopen replays only WAL records after this count.
    pub ops_applied: u64,
    /// Accumulated matches, sorted.
    pub matches: Vec<(TupleRef, VertexId)>,
    /// Tuples processed, in arrival order.
    pub processed: Vec<TupleRef>,
    /// The session matcher's durable state.
    pub matcher: crate::checkpoint::MatcherCheckpoint,
}

const STREAM_CK_VERSION: u32 = 1;

impl StreamCheckpoint {
    /// Serializes to deterministic bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u32(STREAM_CK_VERSION).put_u64(self.ops_applied);
        e.put_u32(self.matches.len() as u32);
        for (t, v) in &self.matches {
            e.put_u32(t.relation).put_u32(t.row).put_u32(v.0);
        }
        e.put_u32(self.processed.len() as u32);
        for t in &self.processed {
            e.put_u32(t.relation).put_u32(t.row);
        }
        e.put_bytes(&self.matcher.encode());
        e.into_bytes()
    }

    /// Decodes bytes written by [`StreamCheckpoint::encode`]. Bounds-
    /// checked throughout; malformed input errors, never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Dec::new(bytes);
        let version = d.u32()?;
        if version != STREAM_CK_VERSION {
            return Err(CodecError {
                offset: 0,
                message: format!(
                    "stream checkpoint v{version} (this build reads v{STREAM_CK_VERSION})"
                ),
            });
        }
        let ops_applied = d.u64()?;
        let n = d.u32()? as usize;
        let mut matches = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            matches.push((
                TupleRef {
                    relation: d.u32()?,
                    row: d.u32()?,
                },
                VertexId(d.u32()?),
            ));
        }
        let n = d.u32()? as usize;
        let mut processed = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            processed.push(TupleRef {
                relation: d.u32()?,
                row: d.u32()?,
            });
        }
        let matcher = crate::checkpoint::MatcherCheckpoint::decode(d.bytes()?)?;
        d.finish()?;
        Ok(StreamCheckpoint {
            ops_applied,
            matches,
            processed,
            matcher,
        })
    }
}

/// One journaled streaming operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamOp {
    /// A tuple arrived and was linked.
    Process(TupleRef),
    /// A `G` vertex was retracted.
    Retract(VertexId),
}

const OP_PROCESS: u8 = 1;
const OP_RETRACT: u8 = 2;

impl StreamOp {
    /// Serializes this operation as one WAL record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            StreamOp::Process(t) => {
                e.put_u8(OP_PROCESS).put_u32(t.relation).put_u32(t.row);
            }
            StreamOp::Retract(v) => {
                e.put_u8(OP_RETRACT).put_u32(v.0);
            }
        }
        e.into_bytes()
    }

    /// Decodes a record payload written by [`StreamOp::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Dec::new(bytes);
        let op = match d.u8()? {
            OP_PROCESS => StreamOp::Process(TupleRef {
                relation: d.u32()?,
                row: d.u32()?,
            }),
            OP_RETRACT => StreamOp::Retract(VertexId(d.u32()?)),
            tag => {
                return Err(CodecError {
                    offset: 0,
                    message: format!("bad stream-op tag {tag:#04x}"),
                })
            }
        };
        d.finish()?;
        Ok(op)
    }
}

/// A [`StreamLinker`] whose operations are journaled to a write-ahead log
/// *before* being applied, so a killed session resumes to exactly the
/// state it had.
///
/// Each `process`/`retract_vertex` appends one record and fsyncs it; this
/// trades per-op latency for the guarantee that an acknowledged operation
/// survives power loss. Re-opening truncates a torn tail (crash artifact)
/// and replays the clean prefix; a corrupt record — a complete frame with
/// a failing checksum — is rejected with [`StoreError::Corrupt`] rather
/// than replayed.
pub struct DurableStreamLinker<'a> {
    inner: StreamLinker<'a>,
    wal: WalWriter,
    vfs: Arc<dyn Vfs>,
    obs: Option<her_obs::Obs>,
    /// Journaled operations reflected in `inner` (replayed + appended).
    ops_applied: u64,
    /// Set when an append/sync failed AND the in-place rollback could
    /// not restore the synced prefix; [`DurableStreamLinker::reopen`]
    /// must trim the journal before further appends are sound.
    journal_broken: bool,
}

impl<'a> DurableStreamLinker<'a> {
    /// Opens (or creates) the WAL at `path` and replays it into a fresh
    /// session over `her`. Returns the resumed linker and what replay
    /// found.
    pub fn open(
        her: &'a Her,
        path: impl AsRef<Path>,
        obs: Option<her_obs::Obs>,
    ) -> Result<(Self, WalReplay), StoreError> {
        Self::open_vfs(her, path, vfs::real(), obs, None)
    }

    /// [`DurableStreamLinker::open`] over an explicit [`Vfs`], so serve
    /// drills and fault tests can inject storage failures into the
    /// journal path, optionally resuming from a prior [`StreamCheckpoint`]:
    /// the session starts from the snapshot's state and replay skips the
    /// `ck.ops_applied` WAL records the snapshot already reflects,
    /// applying only the suffix journaled after it. This is the
    /// warm-restart path — restart cost is proportional to the ops since
    /// the last snapshot, not the session's lifetime.
    pub fn open_vfs(
        her: &'a Her,
        path: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
        obs: Option<her_obs::Obs>,
        ck: Option<&StreamCheckpoint>,
    ) -> Result<(Self, WalReplay), StoreError> {
        let path = path.as_ref();
        // The session matcher and the WAL share one obs handle, so
        // `stream.*` counters cover journaled sessions too (they were
        // previously wired only into the WAL's `store.*` metrics).
        let mut inner = StreamLinker::with_obs(her, obs.clone());
        let skip = match ck {
            Some(ck) => {
                inner.restore(ck);
                ck.ops_applied
            }
            None => 0,
        };
        let mut record = 0u64;
        let (wal, replay) = WalWriter::open_with(path, Arc::clone(&vfs), obs.clone(), |payload| {
            record += 1;
            if record <= skip {
                // Already reflected in the restored snapshot; the WAL
                // layer has still CRC-verified the frame.
                return Ok(());
            }
            let op = StreamOp::decode(payload).map_err(|e| {
                StoreError::Corrupt {
                    path: path.into(),
                    offset: 0,
                    message: format!("WAL record {record}: {e}"),
                }
            })?;
            match op {
                StreamOp::Process(t) => {
                    inner.process(t);
                }
                StreamOp::Retract(v) => inner.retract_vertex(v),
            }
            Ok(())
        })?;
        // A snapshot can be ahead of a torn WAL tail only if the journal
        // itself lost acknowledged records; keep the larger of the two
        // positions so appended ops number past everything reflected.
        let ops_applied = replay.records.max(skip);
        Ok((
            DurableStreamLinker {
                inner,
                wal,
                vfs,
                obs,
                ops_applied,
                journal_broken: false,
            },
            replay,
        ))
    }

    /// Appends one record and fsyncs it; only then does the caller apply
    /// the operation and acknowledge it. On failure the unsynced bytes
    /// are rolled back in place so they can never replay as a phantom;
    /// if even the rollback fails, the journal is flagged broken and
    /// [`DurableStreamLinker::reopen`] is required before new appends.
    fn journal(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        if self.journal_broken {
            return Err(StoreError::Io {
                path: self.wal.path().into(),
                source: std::io::Error::other(
                    "journal needs reopen after an unrecovered append failure",
                ),
            });
        }
        match self.wal.append(payload).and_then(|()| self.wal.sync()) {
            Ok(()) => {
                self.ops_applied += 1;
                Ok(())
            }
            Err(e) => {
                if self.wal.rollback_to_synced().is_err() {
                    self.journal_broken = true;
                }
                Err(e)
            }
        }
    }

    /// Re-opens the journal after storage failures, trimming it to
    /// exactly the acknowledged prefix (`ops_applied` records). The
    /// in-memory session is untouched — nothing past the acknowledged
    /// prefix was ever applied, so there is nothing to replay. Errors if
    /// the file no longer holds every acknowledged record (real data
    /// loss) or the storage is still failing.
    pub fn reopen(&mut self) -> Result<(), StoreError> {
        let path: PathBuf = self.wal.path().into();
        let wal = WalWriter::open_trimmed(
            &path,
            Arc::clone(&self.vfs),
            self.obs.clone(),
            self.ops_applied,
        )?;
        self.wal = wal;
        self.journal_broken = false;
        Ok(())
    }

    /// The journal file path.
    pub fn wal_path(&self) -> &Path {
        self.wal.path()
    }

    /// Journals then links one arriving tuple.
    pub fn process(
        &mut self,
        t: TupleRef,
    ) -> Result<(Vec<VertexId>, StreamStats), StoreError> {
        self.journal(&StreamOp::Process(t).encode())?;
        Ok(self.inner.process(t))
    }

    /// Journals then applies a vertex retraction.
    pub fn retract_vertex(&mut self, v: VertexId) -> Result<(), StoreError> {
        self.journal(&StreamOp::Retract(v).encode())?;
        self.inner.retract_vertex(v);
        Ok(())
    }

    /// Journaled operations reflected in this session's state (replayed
    /// plus appended since open).
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Snapshots the session's current state, positioned at
    /// [`DurableStreamLinker::ops_applied`]. Persist the bytes (e.g. via
    /// `her_store::SnapshotStore`) and pass the decoded checkpoint to
    /// [`DurableStreamLinker::open_vfs`] to warm-restart.
    pub fn checkpoint(&self) -> StreamCheckpoint {
        self.inner.checkpoint(self.ops_applied)
    }

    /// All matches accumulated so far (including replayed ones), sorted.
    pub fn matches(&self) -> Vec<(TupleRef, VertexId)> {
        self.inner.matches()
    }

    /// Tuples processed so far (including replayed ones), in order.
    pub fn processed(&self) -> &[TupleRef] {
        self.inner.processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::her::HerConfig;
    use crate::learn::SearchSpace;
    use crate::params::Thresholds;
    use her_graph::GraphBuilder;
    use her_rdb::schema::{RelationSchema, Schema};
    use her_rdb::{Database, Tuple, Value};

    fn system() -> (Her, Vec<TupleRef>, Vec<VertexId>) {
        let mut s = Schema::new();
        let item = s.add_relation(RelationSchema::new("item", &["name", "color"]));
        let mut db = Database::new(s);
        let mut b = GraphBuilder::new();
        let mut ts = Vec::new();
        let mut vs = Vec::new();
        for i in 0..8 {
            let name = format!("entity {i}");
            let color = ["white", "red"][i % 2];
            ts.push(db.insert(
                item,
                Tuple::new(vec![Value::Str(name.clone()), Value::str(color)]),
            ));
            let v = b.add_vertex("item");
            let n = b.add_vertex(&name);
            let c = b.add_vertex(color);
            b.add_edge(v, n, "label");
            b.add_edge(v, c, "hasColor");
            vs.push(v);
        }
        let (g, interner) = b.build();
        let cfg = HerConfig {
            // δ high enough that colour alone (≈0.45) cannot carry a match;
            // name + colour (≈0.95) can.
            thresholds: Thresholds::new(0.9, 0.7, 5),
            use_blocking: false,
            ..Default::default()
        };
        let mut her = Her::build(&db, g, interner, &cfg);
        let ann: Vec<_> = ts.iter().zip(&vs).map(|(&t, &v)| (t, v, true)).collect();
        her.learn(
            &ann,
            &ann,
            &cfg,
            &SearchSpace {
                trials: 0,
                ..Default::default()
            },
        );
        (her, ts, vs)
    }

    #[test]
    fn stream_accumulates_matches() {
        let (her, ts, vs) = system();
        let mut linker = StreamLinker::new(&her);
        for (i, &t) in ts.iter().enumerate() {
            let (found, _) = linker.process(t);
            assert!(found.contains(&vs[i]), "tuple {i} missed its entity");
        }
        assert_eq!(linker.matches().len(), ts.len());
        assert_eq!(linker.processed().len(), ts.len());
    }

    #[test]
    fn caches_amortise_across_the_stream() {
        let (her, ts, _) = system();
        let mut linker = StreamLinker::new(&her);
        let (_, first) = linker.process(ts[0]);
        // Re-processing the same tuple is nearly free.
        let (_, again) = linker.process(ts[0]);
        assert!(
            again.calls < first.calls.max(1),
            "second pass should reuse verdicts: {first:?} vs {again:?}"
        );
    }

    /// Property: stream results are order-independent and retraction
    /// commutes with processing order — processing in a random order,
    /// retracting a random vertex, then re-processing in another random
    /// order leaves exactly the matches a fresh batch run (natural order +
    /// the same retraction) produces. Cases are driven by the proptest
    /// rng in a hand-rolled loop so the trained fixture is built once.
    #[test]
    fn random_order_with_retraction_equals_batch_run() {
        use proptest::rng::TestRng;
        let (her, ts, vs) = system();
        let shuffle = |order: &mut Vec<usize>, rng: &mut TestRng| {
            for i in (1..order.len()).rev() {
                let j = rng.below((i + 1) as u64) as usize;
                order.swap(i, j);
            }
        };
        for case in 0..12u64 {
            let mut rng = TestRng::for_case("stream_order_retraction", case);
            let mut order: Vec<usize> = (0..ts.len()).collect();
            shuffle(&mut order, &mut rng);
            let retract = vs[rng.below(vs.len() as u64) as usize];

            let mut linker = StreamLinker::new(&her);
            for &i in &order {
                linker.process(ts[i]);
            }
            linker.retract_vertex(retract);
            shuffle(&mut order, &mut rng);
            for &i in &order {
                linker.process(ts[i]);
            }

            let mut batch = StreamLinker::new(&her);
            for &t in &ts {
                batch.process(t);
            }
            batch.retract_vertex(retract);

            assert_eq!(
                linker.matches(),
                batch.matches(),
                "case {case}: order {order:?}, retracted {retract:?}"
            );
        }
    }

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("her-stream-wal-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let p = dir.join(format!("{tag}.hlog"));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn stream_op_codec_round_trips() {
        let ops = [
            StreamOp::Process(TupleRef {
                relation: 3,
                row: 1_000_000,
            }),
            StreamOp::Retract(VertexId(42)),
        ];
        for op in ops {
            assert_eq!(StreamOp::decode(&op.encode()).unwrap(), op);
        }
        assert!(StreamOp::decode(&[9]).is_err(), "bad tag must error");
        assert!(StreamOp::decode(&[]).is_err(), "empty payload must error");
        let mut long = StreamOp::Retract(VertexId(1)).encode();
        long.push(0);
        assert!(StreamOp::decode(&long).is_err(), "trailing bytes rejected");
    }

    /// Property (ISSUE 3 satellite): journaling a random interleaving of
    /// `process`/`retract_vertex` operations and replaying the WAL into a
    /// fresh session reproduces the in-memory session's `matches()`
    /// exactly — for every prefix length, because a crash can happen
    /// after any acknowledged operation.
    #[test]
    fn wal_replay_reproduces_interleaved_session_exactly() {
        use proptest::rng::TestRng;
        let (her, ts, vs) = system();
        for case in 0..8u64 {
            let mut rng = TestRng::for_case("stream_wal_replay", case);
            // A random op sequence: mostly processes, some retractions.
            let mut ops = Vec::new();
            for _ in 0..20 {
                if rng.below(4) == 0 {
                    ops.push(StreamOp::Retract(vs[rng.below(vs.len() as u64) as usize]));
                } else {
                    ops.push(StreamOp::Process(ts[rng.below(ts.len() as u64) as usize]));
                }
            }

            // In-memory reference session.
            let mut reference = StreamLinker::new(&her);
            let path = temp_wal(&format!("prop-{case}"));
            {
                let (mut durable, replay) =
                    DurableStreamLinker::open(&her, &path, None).unwrap();
                assert_eq!(replay.records, 0);
                for op in &ops {
                    match *op {
                        StreamOp::Process(t) => {
                            reference.process(t);
                            durable.process(t).unwrap();
                        }
                        StreamOp::Retract(v) => {
                            reference.retract_vertex(v);
                            durable.retract_vertex(v).unwrap();
                        }
                    }
                }
                assert_eq!(durable.matches(), reference.matches(), "case {case}: live");
            }

            // Cold replay from the journal alone.
            let (resumed, replay) = DurableStreamLinker::open(&her, &path, None).unwrap();
            assert_eq!(replay.records, ops.len() as u64, "case {case}");
            assert!(replay.truncated_at.is_none(), "case {case}");
            assert_eq!(
                resumed.matches(),
                reference.matches(),
                "case {case}: replayed session diverged"
            );
            assert_eq!(resumed.processed().len(), reference.processed().len());
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A WAL truncated at every byte offset resumes to a clean prefix of
    /// the session — never panics, never yields a match the uninterrupted
    /// session did not have.
    #[test]
    fn truncated_wal_resumes_to_a_clean_prefix() {
        let (her, ts, vs) = system();
        let path = temp_wal("cuts");
        let ops: Vec<StreamOp> = vec![
            StreamOp::Process(ts[0]),
            StreamOp::Process(ts[1]),
            StreamOp::Retract(vs[0]),
            StreamOp::Process(ts[2]),
        ];
        // Reference states after each op prefix.
        let mut prefix_matches: Vec<Vec<(TupleRef, VertexId)>> = Vec::new();
        {
            let mut s = StreamLinker::new(&her);
            prefix_matches.push(s.matches());
            for op in &ops {
                match *op {
                    StreamOp::Process(t) => {
                        s.process(t);
                    }
                    StreamOp::Retract(v) => s.retract_vertex(v),
                }
                prefix_matches.push(s.matches());
            }
        }
        {
            let (mut durable, _) = DurableStreamLinker::open(&her, &path, None).unwrap();
            for op in &ops {
                match *op {
                    StreamOp::Process(t) => {
                        durable.process(t).unwrap();
                    }
                    StreamOp::Retract(v) => durable.retract_vertex(v).unwrap(),
                }
            }
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (resumed, replay) = DurableStreamLinker::open(&her, &path, None).unwrap();
            let n = replay.records as usize;
            assert!(n <= ops.len(), "cut={cut}");
            assert_eq!(
                resumed.matches(),
                prefix_matches[n],
                "cut={cut}: resumed state is not the clean {n}-op prefix"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Property (ISSUE 8 satellite): with a `FaultVfs` failing the WAL
    /// fsync at every op index `k` in turn, the set of *acknowledged*
    /// stream ops always equals the set recovered after restart — no
    /// acknowledged-op loss, no phantom ops — and degraded-mode reads
    /// (`matches()` after the failure) match the pre-fault session.
    /// After `reopen()` (the server prober's heal path) the session
    /// finishes the workload and a restart reproduces it exactly,
    /// replaying nothing beyond what was acknowledged.
    #[test]
    fn journal_fault_at_every_op_index_loses_no_acked_op_and_fabricates_none() {
        use her_store::{FaultVfs, IoFaultPlan};
        let (her, ts, vs) = system();
        let mut ops: Vec<StreamOp> = ts.iter().map(|&t| StreamOp::Process(t)).collect();
        ops.push(StreamOp::Retract(vs[0]));
        ops.push(StreamOp::Process(ts[0]));

        for k in 0..ops.len() {
            let path = temp_wal(&format!("fault-k{k}"));
            // fsync #1 is the fresh log's header sync; op index i (0-based)
            // consumes fsync #(i + 2). Fail exactly op k's sync.
            let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(IoFaultPlan {
                fail_fsync_from: k as u64 + 2,
                fail_fsync_count: 1,
                ..IoFaultPlan::default()
            }));
            let (mut durable, _) =
                DurableStreamLinker::open_vfs(&her, &path, Arc::clone(&vfs), None, None).unwrap();
            let mut reference = StreamLinker::new(&her);
            let mut acked = 0usize;
            let mut failed_at = None;
            for (i, op) in ops.iter().enumerate() {
                let r = match *op {
                    StreamOp::Process(t) => durable.process(t).map(|_| ()),
                    StreamOp::Retract(v) => durable.retract_vertex(v),
                };
                match r {
                    Ok(()) => {
                        match *op {
                            StreamOp::Process(t) => {
                                reference.process(t);
                            }
                            StreamOp::Retract(v) => reference.retract_vertex(v),
                        }
                        acked += 1;
                    }
                    Err(_) => {
                        failed_at = Some(i);
                        break;
                    }
                }
            }
            assert_eq!(failed_at, Some(k), "fault must fire exactly at op {k}");

            // Degraded-mode reads: the live session still answers from
            // memory and reflects exactly the acknowledged prefix.
            assert_eq!(durable.matches(), reference.matches(), "k={k}: degraded reads");
            assert_eq!(durable.ops_applied(), acked as u64, "k={k}");

            // Restart (before any heal): recovery equals the acked set.
            {
                let (restarted, replay) =
                    DurableStreamLinker::open_vfs(&her, &path, Arc::clone(&vfs), None, None).unwrap();
                assert_eq!(replay.records, acked as u64, "k={k}: phantom or lost op");
                assert_eq!(restarted.matches(), reference.matches(), "k={k}: restart");
            }

            // Self-heal: reopen trims to the acked prefix (a no-op when
            // rollback already did), then the rest of the workload lands.
            durable.reopen().unwrap();
            for op in &ops[k..] {
                match *op {
                    StreamOp::Process(t) => {
                        durable.process(t).unwrap();
                        reference.process(t);
                    }
                    StreamOp::Retract(v) => {
                        durable.retract_vertex(v).unwrap();
                        reference.retract_vertex(v);
                    }
                }
            }
            assert_eq!(durable.matches(), reference.matches(), "k={k}: post-heal");
            drop(durable);
            let (resumed, replay) =
                DurableStreamLinker::open_vfs(&her, &path, vfs, None, None).unwrap();
            assert_eq!(replay.records, ops.len() as u64, "k={k}: final journal");
            assert!(replay.truncated_at.is_none(), "k={k}");
            assert_eq!(resumed.matches(), reference.matches(), "k={k}: final restart");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Satellite (ISSUE 5): durable sessions route scoring through the
    /// facade's [`crate::SharedScores`] handle — a journaled session over
    /// a vocabulary the facade already embedded performs zero re-embeds,
    /// produces exactly the matches of a plain in-memory session, and its
    /// operations tick the `stream.*` counters of the obs handle it was
    /// opened with.
    #[test]
    fn durable_session_reads_through_facade_handle() {
        let (her, ts, _) = system();
        let shared = her
            .shared_scores
            .as_ref()
            .expect("facade handle on by default")
            .clone();

        // Warm the facade handle with a plain session (the reference for
        // the equivalence check below).
        let mut reference = StreamLinker::new(&her);
        for &t in &ts {
            reference.process(t);
        }
        let embeds_after_warm = shared.embed_calls();
        assert!(embeds_after_warm > 0, "warm run must have embedded");
        let hits_after_warm = shared.shared_hits();

        let obs = her_obs::Obs::new();
        let path = temp_wal("facade-routing");
        let (mut durable, _) =
            DurableStreamLinker::open(&her, &path, Some(obs.clone())).unwrap();
        for &t in &ts {
            durable.process(t).unwrap();
        }
        assert_eq!(durable.matches(), reference.matches());
        assert_eq!(
            shared.embed_calls(),
            embeds_after_warm,
            "durable session re-embedded labels the facade handle already holds"
        );
        assert!(
            shared.shared_hits() > hits_after_warm,
            "durable session never read the shared memo"
        );
        assert_eq!(
            obs.registry.snapshot().counter("stream.tuples"),
            ts.len() as u64,
            "journaled processes must tick stream.tuples"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Checkpoint bytes round-trip and are deterministic; truncation at
    /// every offset errors instead of panicking.
    #[test]
    fn stream_checkpoint_codec_round_trips() {
        let (her, ts, _) = system();
        let mut linker = StreamLinker::new(&her);
        for &t in &ts[..3] {
            linker.process(t);
        }
        let ck = linker.checkpoint(3);
        let bytes = ck.encode();
        assert_eq!(bytes, linker.checkpoint(3).encode(), "not deterministic");
        assert_eq!(StreamCheckpoint::decode(&bytes).unwrap(), ck);
        for cut in 0..bytes.len() {
            assert!(
                StreamCheckpoint::decode(&bytes[..cut]).is_err(),
                "cut={cut}: truncated checkpoint accepted"
            );
        }
    }

    /// Warm restart: snapshot mid-session, keep journaling, then reopen
    /// from the snapshot — replay skips the snapshotted prefix and the
    /// resumed state equals the uninterrupted session, for a snapshot
    /// taken after every op.
    #[test]
    fn open_from_checkpoint_equals_uninterrupted_session() {
        let (her, ts, vs) = system();
        let ops: Vec<StreamOp> = vec![
            StreamOp::Process(ts[0]),
            StreamOp::Process(ts[1]),
            StreamOp::Retract(vs[0]),
            StreamOp::Process(ts[2]),
            StreamOp::Process(ts[3]),
        ];
        for snap_at in 0..=ops.len() {
            let path = temp_wal(&format!("warm-{snap_at}"));
            let mut snapshot = None;
            let final_matches;
            {
                let (mut durable, _) = DurableStreamLinker::open(&her, &path, None).unwrap();
                for (i, op) in ops.iter().enumerate() {
                    if i == snap_at {
                        snapshot = Some(durable.checkpoint());
                    }
                    match *op {
                        StreamOp::Process(t) => {
                            durable.process(t).unwrap();
                        }
                        StreamOp::Retract(v) => durable.retract_vertex(v).unwrap(),
                    }
                }
                if snap_at == ops.len() {
                    snapshot = Some(durable.checkpoint());
                }
                final_matches = durable.matches();
            }
            let ck = snapshot.expect("snapshot taken");
            let bytes = ck.encode();
            let ck = StreamCheckpoint::decode(&bytes).unwrap();
            let (resumed, replay) =
                DurableStreamLinker::open_vfs(&her, &path, vfs::real(), None, Some(&ck)).unwrap();
            assert_eq!(
                replay.records,
                ops.len() as u64,
                "snap_at={snap_at}: replay must still scan the whole WAL"
            );
            assert_eq!(
                resumed.matches(),
                final_matches,
                "snap_at={snap_at}: warm restart diverged"
            );
            assert_eq!(resumed.ops_applied(), ops.len() as u64);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn retraction_withdraws_matches() {
        let (her, ts, vs) = system();
        let mut linker = StreamLinker::new(&her);
        let (found, _) = linker.process(ts[0]);
        assert!(found.contains(&vs[0]));
        linker.retract_vertex(vs[0]);
        assert!(linker.matches().iter().all(|&(_, v)| v != vs[0]));
        // The invalidation is sticky: reprocessing does not resurrect it.
        let (found, _) = linker.process(ts[0]);
        assert!(!found.contains(&vs[0]));
    }
}
