//! The always-on linking server.
//!
//! One [`Server`] owns a TCP listener and, per [`Server::run`], a trained
//! [`Her`] system plus (optionally) one durable stream session. Each
//! connection gets a handler thread (scoped, so handlers borrow the
//! system directly); each request passes the [`Admission`] gate, runs
//! under its own [`Budget`], and is answered with sound partial results
//! when the budget trips. See DESIGN.md §4h for the full protocol and
//! semantics.
//!
//! Warm restart: stream mutations are journaled through
//! [`DurableStreamLinker`] before acknowledgement and the session is
//! snapshotted every `snapshot_every_ops` mutations. On startup the
//! server restores the newest valid snapshot and replays only the WAL
//! suffix after it, then prewarms the facade's shared score memo — so a
//! restarted server answers from where it died instead of re-embedding
//! the world.
//!
//! Storage fault domain: every WAL/snapshot byte flows through the
//! configured [`Vfs`]. A WAL append that fails past its bounded retries
//! degrades the server to read-only ([`Health`]); the background prober
//! re-probes the storage and self-heals; the watchdog reaper
//! force-expires requests stuck past 2× their deadline. DESIGN.md §4j.

use crate::admission::{Admission, Admit};
use crate::fault::{ConnFaults, FaultPlan, ReplyFate};
use crate::flight_dump::{self, DumpRecord};
use crate::health::{Health, State as HealthState};
use crate::proto::{
    code, read_message, reason_tag, Reply, Request, WireError, MIN_PROTO_VERSION, PROTO_VERSION,
};
use crate::watchdog::{self, Watchdog};
use her_core::paramatch::MatchStats;
use her_core::stream::{DurableStreamLinker, StreamCheckpoint};
use her_core::{Budget, CancelToken, ExhaustReason, Her, MatcherPool};
use her_graph::LabelId;
use her_obs::flight::{anomaly, op};
use her_obs::{info, FlightRecord, FlightRecorder, ReqCtx};
use her_store::frame::FRAME_HEADER_LEN;
use her_store::{vfs, SnapshotStore, StoreError, Vfs};
use her_sync::rank;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// Snapshot section name for the stream session's checkpoint.
const SNAP_SECTION: &str = "stream";

/// Fixed seed for the request-sampling hash: sampling must be a pure
/// function of the request id so a drill replays to the same trace set.
const TRACE_SEED: u64 = 0x4845_525f_5452_4143;

/// Server configuration. `Default` binds an ephemeral localhost port
/// with moderate concurrency and no durability or faults.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Concurrent requests admitted past the gate.
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot before shedding starts.
    pub max_queue: usize,
    /// Deadline applied to matching requests that do not carry their own
    /// (0 = none).
    pub default_deadline_ms: u64,
    /// Stream WAL path; stream mutations require it.
    pub wal: Option<PathBuf>,
    /// Snapshot directory for checkpoint-backed warm restart.
    pub snapshot_dir: Option<PathBuf>,
    /// Stream mutations between snapshots (with `snapshot_dir`).
    pub snapshot_every_ops: u64,
    /// Connection-level fault injection (inert by default).
    pub fault: FaultPlan,
    /// Observability handle: `serve.*` metrics land here.
    pub obs: Option<her_obs::Obs>,
    /// Idle poll interval for connection reads; bounds how long shutdown
    /// waits on quiet connections.
    pub idle_poll_ms: u64,
    /// Request-trace sampling: 1-in-`n` requests get their spans
    /// buffered (`1` = all, `0` = tracing off; ids are minted either
    /// way so flight records always correlate).
    pub trace_sample_1_in: u64,
    /// Where anomalous flight records (plus their trace events) are
    /// dumped durably; `None` keeps post-mortems in memory only.
    pub flight_path: Option<PathBuf>,
    /// The filesystem every WAL and snapshot byte flows through; `None`
    /// is the real filesystem. Drills inject a [`her_store::FaultVfs`]
    /// here to exercise the degraded/heal lifecycle.
    pub vfs: Option<Arc<dyn Vfs>>,
    /// In-place WAL append retries (jittered backoff) before the server
    /// degrades to read-only.
    pub wal_retries: u32,
    /// Base backoff between WAL retries; doubles per attempt, plus a
    /// deterministic jitter.
    pub wal_retry_backoff_ms: u64,
    /// Storage prober cadence while degraded — also the
    /// `retry_after_ms` hint stamped into `Unavailable` replies.
    pub probe_interval_ms: u64,
    /// Live stream sessions allowed at once (each one a DurableStream-
    /// Linker with its own WAL and snapshot namespace). Session 0 is
    /// the v3-compatible default; a v4 stream op naming a new session
    /// opens it lazily until this limit, then gets a usage error.
    pub max_sessions: usize,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Manual because `Arc<dyn Vfs>` has no Debug: show whether a
        // fault filesystem is injected, not what it is.
        f.debug_struct("ServeConfig")
            .field("addr", &self.addr)
            .field("max_inflight", &self.max_inflight)
            .field("max_queue", &self.max_queue)
            .field("default_deadline_ms", &self.default_deadline_ms)
            .field("wal", &self.wal)
            .field("snapshot_dir", &self.snapshot_dir)
            .field("snapshot_every_ops", &self.snapshot_every_ops)
            .field("fault", &self.fault)
            .field("idle_poll_ms", &self.idle_poll_ms)
            .field("trace_sample_1_in", &self.trace_sample_1_in)
            .field("flight_path", &self.flight_path)
            .field("vfs", &self.vfs.as_ref().map(|_| "<injected>"))
            .field("wal_retries", &self.wal_retries)
            .field("wal_retry_backoff_ms", &self.wal_retry_backoff_ms)
            .field("probe_interval_ms", &self.probe_interval_ms)
            .field("max_sessions", &self.max_sessions)
            .finish_non_exhaustive()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_inflight: 4,
            max_queue: 16,
            default_deadline_ms: 0,
            wal: None,
            snapshot_dir: None,
            snapshot_every_ops: 8,
            fault: FaultPlan::default(),
            obs: None,
            idle_poll_ms: 200,
            trace_sample_1_in: 1,
            flight_path: None,
            vfs: None,
            wal_retries: 3,
            wal_retry_backoff_ms: 5,
            probe_interval_ms: 200,
            max_sessions: 4,
        }
    }
}

/// Anything that can stop the server from starting or force it down.
#[derive(Debug)]
pub enum ServeError {
    /// Socket setup failed.
    Io(std::io::Error),
    /// The durability layer failed (WAL/snapshot open or replay).
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve: {e}"),
            ServeError::Store(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// The stream session state shared by all connection handlers.
struct StreamSession<'h> {
    linker: DurableStreamLinker<'h>,
    snaps: Option<SnapshotStore>,
    every: u64,
}

impl StreamSession<'_> {
    /// Writes a snapshot when the cadence says so. Snapshot failures are
    /// non-fatal — the op itself is already journaled, so the next
    /// cadence point simply tries again (the store's
    /// `store.checkpoint_failures` counter records the miss).
    fn maybe_snapshot(&mut self) {
        let Some(snaps) = &self.snaps else { return };
        if self.every == 0 || self.linker.ops_applied() % self.every != 0 {
            return;
        }
        let ck = self.linker.checkpoint();
        if let Err(e) = snaps.write(&[(SNAP_SECTION, &ck.encode())]) {
            her_obs::warn!("serve: snapshot failed (will retry next cadence): {e}");
        }
    }
}

/// Every live stream session, keyed by the wire session id.
///
/// Session 0 journals to the base WAL path and snapshots to the base
/// snapshot directory — exactly the layout single-session servers used,
/// so an existing deployment (and every v3 client, which cannot name a
/// session) warm-restarts onto session 0 unchanged. Session `N`
/// journals to `<wal>.s<N>` and snapshots under `<snapshot_dir>/s<N>`.
/// Startup reopens session 0 plus every `<wal>.s<N>` found on disk
/// (each with its own snapshot restore + WAL suffix replay); a v4
/// stream op naming an unknown session opens it lazily until
/// `max_sessions`, after which it gets a usage error.
struct SessionRegistry<'h> {
    her: &'h Her,
    wal: PathBuf,
    snapshot_dir: Option<PathBuf>,
    every: u64,
    max_sessions: usize,
    vfs: Arc<dyn Vfs>,
    obs: Option<her_obs::Obs>,
    sessions: her_sync::Mutex<BTreeMap<u64, Arc<her_sync::Mutex<StreamSession<'h>>>>>,
}

impl<'h> SessionRegistry<'h> {
    /// Opens the registry: session 0 always, plus every session whose
    /// WAL is already on disk, so a restart resumes *all* sessions, not
    /// just the ones the first clients happen to touch.
    fn open(
        her: &'h Her,
        cfg: &ServeConfig,
        wal: &Path,
        vfs: Arc<dyn Vfs>,
        obs: Option<her_obs::Obs>,
    ) -> Result<Self, ServeError> {
        let reg = SessionRegistry {
            her,
            wal: wal.to_path_buf(),
            snapshot_dir: cfg.snapshot_dir.clone(),
            every: cfg.snapshot_every_ops,
            max_sessions: cfg.max_sessions.max(1),
            vfs,
            obs,
            sessions: her_sync::Mutex::new(rank::SERVE_SESSIONS, BTreeMap::new()),
        };
        for id in reg.discover() {
            let session = reg.open_session(id)?;
            reg.lock().insert(id, session);
        }
        reg.publish(reg.lock().len());
        Ok(reg)
    }

    fn lock(
        &self,
    ) -> her_sync::MutexGuard<'_, BTreeMap<u64, Arc<her_sync::Mutex<StreamSession<'h>>>>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Session ids with state on disk: 0 unconditionally, plus every
    /// sibling `<wal>.s<N>` file. Discovery is best-effort — an
    /// unreadable directory just means lazy opens later.
    fn discover(&self) -> Vec<u64> {
        let mut ids = vec![crate::proto::DEFAULT_SESSION];
        let parent = match self.wal.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        if let (Some(stem), Ok(names)) = (
            self.wal.file_name().and_then(|n| n.to_str()),
            self.vfs.read_dir_names(&parent),
        ) {
            let prefix = format!("{stem}.s");
            for name in names {
                if let Some(n) = name.strip_prefix(&prefix) {
                    if let Ok(id) = n.parse::<u64>() {
                        ids.push(id);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn wal_for(&self, id: u64) -> PathBuf {
        if id == crate::proto::DEFAULT_SESSION {
            return self.wal.clone();
        }
        let mut os = self.wal.as_os_str().to_owned();
        os.push(format!(".s{id}"));
        PathBuf::from(os)
    }

    fn snap_dir_for(&self, id: u64) -> Option<PathBuf> {
        let dir = self.snapshot_dir.as_ref()?;
        if id == crate::proto::DEFAULT_SESSION {
            Some(dir.clone())
        } else {
            Some(dir.join(format!("s{id}")))
        }
    }

    /// One session's checkpoint-backed warm restart: newest valid
    /// snapshot in its namespace first, then only the WAL records
    /// journaled after it.
    fn open_session(
        &self,
        id: u64,
    ) -> Result<Arc<her_sync::Mutex<StreamSession<'h>>>, ServeError> {
        let wal = self.wal_for(id);
        let snaps = match self.snap_dir_for(id) {
            Some(dir) => {
                let store = SnapshotStore::open_with(&dir, Arc::clone(&self.vfs))?;
                Some(match &self.obs {
                    Some(o) => store.with_obs(o.clone()),
                    None => store,
                })
            }
            None => None,
        };
        let restored: Option<StreamCheckpoint> = match &snaps {
            Some(s) => match s.load_latest()? {
                Some(snap) => match snap.section(SNAP_SECTION) {
                    Some(bytes) => {
                        Some(StreamCheckpoint::decode(bytes).map_err(|e| StoreError::Corrupt {
                            path: s.dir().into(),
                            offset: 0,
                            message: format!("stream checkpoint: {e}"),
                        })?)
                    }
                    None => None,
                },
                None => None,
            },
            None => None,
        };
        let (linker, replay) = match &restored {
            Some(ck) => DurableStreamLinker::open_at_vfs(
                self.her,
                &wal,
                Arc::clone(&self.vfs),
                self.obs.clone(),
                ck,
            )?,
            None => DurableStreamLinker::open_vfs(
                self.her,
                &wal,
                Arc::clone(&self.vfs),
                self.obs.clone(),
            )?,
        };
        if let Some(ck) = &restored {
            info!(
                "serve: session {id}: restored snapshot at op {} + replayed WAL to op {}",
                ck.ops_applied,
                linker.ops_applied()
            );
        } else if replay.records > 0 {
            info!(
                "serve: session {id}: cold replay of {} WAL records",
                replay.records
            );
        }
        if let Some(o) = &self.obs {
            o.registry.counter("serve.session.opened").inc();
        }
        Ok(Arc::new(her_sync::Mutex::new(
            rank::SERVE_STREAM,
            StreamSession {
                linker,
                snaps,
                every: self.every,
            },
        )))
    }

    fn publish(&self, active: usize) {
        if let Some(o) = &self.obs {
            o.registry.gauge("serve.session.active").set(active as f64);
        }
    }

    /// The handle for `id`, opening it lazily below the session limit.
    /// Errors are replies: usage when the limit is hit, data when the
    /// session's storage will not open. The registry lock is held across
    /// a lazy open — first touch of a session is expected to pay its
    /// restore cost, and the lock keeps two first-touches from racing
    /// one WAL.
    fn get(&self, id: u64) -> Result<Arc<her_sync::Mutex<StreamSession<'h>>>, Reply> {
        let mut map = self.lock();
        if let Some(s) = map.get(&id) {
            return Ok(Arc::clone(s));
        }
        if map.len() >= self.max_sessions {
            return Err(Reply::Error {
                code: code::USAGE,
                message: format!(
                    "session {id} rejected: session limit {} reached",
                    self.max_sessions
                ),
            });
        }
        match self.open_session(id) {
            Ok(s) => {
                map.insert(id, Arc::clone(&s));
                self.publish(map.len());
                Ok(s)
            }
            Err(e) => Err(Reply::Error {
                code: code::DATA,
                message: format!("session {id} failed to open: {e}"),
            }),
        }
    }

    /// Reopens every session's journal (trimming to the acknowledged
    /// prefix); the prober heals only when all of them take writes
    /// again — a half-healed server would ack ops into a wedged WAL.
    fn reopen_all(&self) -> Result<(), String> {
        let sessions: Vec<_> = self.lock().values().cloned().collect();
        for session in sessions {
            let mut s = session.lock().unwrap_or_else(PoisonError::into_inner);
            s.linker.reopen().map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Final snapshot of every session so a clean shutdown restarts
    /// with zero replay anywhere.
    fn snapshot_all(&self) {
        let sessions: Vec<_> = self.lock().values().cloned().collect();
        for session in sessions {
            let s = session.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(snaps) = &s.snaps {
                let ck = s.linker.checkpoint();
                if let Err(e) = snaps.write(&[(SNAP_SECTION, &ck.encode())]) {
                    her_obs::warn!("serve: final snapshot failed: {e}");
                }
            }
        }
    }
}

/// A bound, not-yet-running server. Binding is split from running so
/// callers can learn the ephemeral port before the blocking accept loop
/// starts.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    cfg: ServeConfig,
}

impl Server {
    /// Binds the configured address.
    pub fn bind(cfg: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            cfg,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves requests over `her` until a `Shutdown` request arrives.
    /// Startup performs the warm restart (snapshot restore + WAL suffix
    /// replay) and prewarms the shared score memo; both are timed into
    /// `serve.restart_replay_us`.
    pub fn run(&self, her: &Her) -> Result<(), ServeError> {
        let obs = self.cfg.obs.clone();
        let vfs: Arc<dyn Vfs> = self.cfg.vfs.clone().unwrap_or_else(vfs::real);
        let health = Health::new(obs.clone());
        let watchdog = Watchdog::new(obs.clone());
        let restart = Instant::now();

        // Checkpoint-backed warm restart, per session: session 0 plus
        // every `<wal>.s<N>` found on disk, each restoring its newest
        // valid snapshot and replaying only its WAL suffix.
        let sessions = match &self.cfg.wal {
            Some(wal) => Some(SessionRegistry::open(
                her,
                &self.cfg,
                wal,
                Arc::clone(&vfs),
                obs.clone(),
            )?),
            None => None,
        };

        // One prewarmed SharedScores handle serves every request: embed
        // the label vocabulary once, before the first connection.
        if let Some(shared) = &her.shared_scores {
            let mut labels: Vec<LabelId> =
                her.g.vertices().map(|v| her.g.label(v)).collect();
            labels.extend(her.cg.graph.vertices().map(|v| her.cg.graph.label(v)));
            shared.prewarm_labels(&her.params, &her.cg.interner, &labels, 4);
        }
        if let Some(obs) = &obs {
            obs.registry
                .counter("serve.restart_replay_us")
                .add(restart.elapsed().as_micros() as u64);
        }

        // Warm-matcher pool: vpair/apair handlers check matchers out
        // instead of rebuilding verdict caches per request. At most
        // `max_inflight` requests run at once, so that many slots keep
        // every concurrently used matcher warm.
        let pool = MatcherPool::new(her, self.cfg.max_inflight);
        let pool = match &obs {
            Some(o) => pool.with_obs(o.clone()),
            None => pool,
        };

        let admission = Admission::new(
            self.cfg.max_inflight,
            self.cfg.max_queue,
            obs.clone(),
        );
        let shutdown = AtomicBool::new(false);
        let conn_ids = AtomicU64::new(0);
        let flight = FlightRecorder::new();
        // Request ids start at 1: 0 is the ambient "no request" id.
        let req_ids = AtomicU64::new(1);

        std::thread::scope(|scope| {
            // Watchdog reaper: force-expires requests stuck past 2×
            // their deadline so a hung I/O cannot pin an admission slot
            // forever (the permit transfers to the queue head; the
            // wedged handler's own drop becomes a no-op).
            scope.spawn(|| {
                while !shutdown.load(Ordering::Acquire) {
                    watchdog.reap(&admission);
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
            // Storage prober: while degraded, probe-append to a fresh
            // segment; once a probe syncs, reopen the journal (trimming
            // to the acknowledged prefix) and heal — no restart, no
            // replay. A failed probe file is left behind, quarantined
            // evidence of the failure window.
            if let (Some(sessions), Some(wal)) = (&sessions, &self.cfg.wal) {
                let probe_ms = self.cfg.probe_interval_ms.max(1);
                let shutdown = &shutdown;
                let vfs = &vfs;
                let health = &health;
                let obs = &obs;
                scope.spawn(move || {
                    let mut seq: u64 = 0;
                    loop {
                        std::thread::sleep(Duration::from_millis(probe_ms));
                        if shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        if health.state() != HealthState::Degraded {
                            continue;
                        }
                        if let Some(o) = obs {
                            o.registry.counter("serve.health.probes").inc();
                        }
                        seq += 1;
                        let probe = probe_path(wal, seq);
                        if let Err(e) = probe_append(vfs.as_ref(), &probe) {
                            if let Some(o) = obs {
                                o.registry.counter("serve.health.probe_failures").inc();
                            }
                            her_obs::warn!(
                                "serve: storage probe failed (still degraded): {e}"
                            );
                            continue;
                        }
                        let _ = vfs.remove_file(&probe);
                        match sessions.reopen_all() {
                            Ok(()) => {
                                if health.heal() {
                                    info!(
                                        "serve: storage healed; journals reopened, \
                                         accepting writes again"
                                    );
                                }
                            }
                            Err(e) => {
                                if let Some(o) = obs {
                                    o.registry
                                        .counter("serve.health.probe_failures")
                                        .inc();
                                }
                                her_obs::warn!(
                                    "serve: probe ok but journal reopen failed: {e}"
                                );
                            }
                        }
                    }
                });
            }
            for stream in self.listener.incoming() {
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let conn_id = conn_ids.fetch_add(1, Ordering::Relaxed);
                let handler = Handler {
                    cfg: &self.cfg,
                    her,
                    sessions: sessions.as_ref(),
                    pool: &pool,
                    admission: &admission,
                    shutdown: &shutdown,
                    self_addr: self.addr,
                    obs: obs.as_ref(),
                    flight: &flight,
                    req_ids: &req_ids,
                    health: &health,
                    watchdog: &watchdog,
                };
                scope.spawn(move || handler.handle(stream, conn_id));
            }
        });

        // Final snapshots so a clean shutdown restarts with zero replay.
        if let Some(sessions) = &sessions {
            sessions.snapshot_all();
        }
        health.down();
        Ok(())
    }
}

/// `<wal>.probe-<seq>`: a fresh segment the prober appends to, so the
/// probe never touches the (possibly wedged) journal file itself.
fn probe_path(wal: &Path, seq: u64) -> PathBuf {
    let mut os = wal.as_os_str().to_owned();
    os.push(format!(".probe-{seq}"));
    PathBuf::from(os)
}

/// One storage probe: create, append a marker, sync. Any failure means
/// the storage is still refusing durable writes.
fn probe_append(vfs: &dyn Vfs, path: &Path) -> std::io::Result<()> {
    let mut f = vfs.create(path)?;
    f.write_all(b"HERPROBE")?;
    f.sync_data()?;
    Ok(())
}

/// Jittered exponential backoff for in-place WAL retries: the shared
/// capped-exponential core ([`crate::backoff`]) with stateless additive
/// jitter derived from the trace id — drills replay to the same
/// schedule. The cap (`base × 64`) preserves the pre-refactor ceiling.
fn retry_backoff(base_ms: u64, attempt: u32, trace_id: u64) -> Duration {
    Duration::from_millis(crate::backoff::seeded_jitter_ms(
        base_ms,
        attempt,
        base_ms.saturating_mul(64),
        trace_id,
    ))
}

/// Everything one connection thread needs, borrowed from the run scope.
struct Handler<'s, 'h> {
    cfg: &'s ServeConfig,
    her: &'s Her,
    sessions: Option<&'s SessionRegistry<'h>>,
    pool: &'s MatcherPool<'h>,
    admission: &'s Admission,
    shutdown: &'s AtomicBool,
    self_addr: SocketAddr,
    obs: Option<&'s her_obs::Obs>,
    flight: &'s FlightRecorder,
    req_ids: &'s AtomicU64,
    health: &'s Health,
    watchdog: &'s Watchdog,
}

/// Whether the connection survives the reply that was just sent.
enum ConnAction {
    Continue,
    Close,
}

impl<'h> Handler<'_, 'h> {
    fn counter(&self, name: &'static str) {
        if let Some(o) = self.obs {
            // #[allow(her::unregistered_metric)] — callers pass `serve.*`/`store.iofault.*` literals, all in names::ALL
            o.registry.counter(name).inc();
        }
    }

    fn handle(&self, mut stream: TcpStream, conn_id: u64) {
        if let Some(o) = self.obs {
            o.registry.counter("serve.connections").inc();
        }
        let _ = stream.set_nodelay(true);
        let _ = stream
            .set_read_timeout(Some(Duration::from_millis(self.cfg.idle_poll_ms.max(1))));
        let mut faults = if self.cfg.fault.is_inert() {
            None
        } else {
            Some(self.cfg.fault.conn(conn_id))
        };
        // Reply-path fault injections rolled on this connection so far;
        // stamped into each flight record as `faults_seen`.
        let mut faults_seen: u32 = 0;

        loop {
            // Checked after every reply as well as every idle poll: a
            // kept-alive peer may send its next request as soon as a
            // reply lands and never go idle, and must not hold shutdown
            // open.
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Poll for the next message without consuming bytes, so an
            // idle timeout never desynchronizes the frame stream.
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Ok(0) => return, // peer closed
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(_) => return,
            }
            let (req, version) = match read_message(&mut stream) {
                Ok(payload) => match Request::decode_versioned(&payload) {
                    Ok(pair) => pair,
                    Err(e) => {
                        // A valid frame with a malformed request payload:
                        // the caller's bug, taxonomized as usage — and an
                        // anomaly worth a post-mortem record.
                        self.record_decode_anomaly(faults_seen);
                        let reply = Reply::Error {
                            code: code::USAGE,
                            message: format!("malformed request: {e}"),
                        };
                        let v = peer_version_hint(&payload);
                        match self.send(&mut stream, &mut faults, &mut faults_seen, &reply, v)
                        {
                            ConnAction::Continue => continue,
                            ConnAction::Close => return,
                        }
                    }
                },
                Err(WireError::Closed) => return,
                Err(WireError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Mid-frame stall: the peeked message never finished.
                    return;
                }
                Err(WireError::Torn) | Err(WireError::Io(_)) => return,
                Err(WireError::Corrupt(m)) => {
                    // Corrupted bytes on the wire: tell the peer (best
                    // effort) and drop the connection — framing sync is
                    // unrecoverable past a bad checksum.
                    self.record_decode_anomaly(faults_seen);
                    let reply = Reply::Error {
                        code: code::DATA,
                        message: format!("corrupt request frame: {m}"),
                    };
                    let _ = self.send(
                        &mut stream,
                        &mut faults,
                        &mut faults_seen,
                        &reply,
                        PROTO_VERSION,
                    );
                    return;
                }
            };

            let started = Instant::now();
            self.counter("serve.requests");
            let (reply, shutting_down) = self.answer(req, faults_seen);
            if let Some(o) = self.obs {
                o.registry
                    .histogram("serve.request_us")
                    .observe(started.elapsed().as_micros() as u64);
            }
            let action =
                self.send(&mut stream, &mut faults, &mut faults_seen, &reply, version);
            if shutting_down {
                self.shutdown.store(true, Ordering::Release);
                // Wake the blocking accept loop with a no-op connection.
                let _ = TcpStream::connect(self.self_addr);
                return;
            }
            match action {
                ConnAction::Continue => {}
                ConnAction::Close => return,
            }
        }
    }

    /// Mints the next request id under the configured sampling policy
    /// and counts the mint.
    fn mint(&self) -> ReqCtx {
        let id = self.req_ids.fetch_add(1, Ordering::Relaxed);
        let ctx = ReqCtx::mint(id, self.cfg.trace_sample_1_in, TRACE_SEED);
        self.counter("serve.req.minted");
        if ctx.sampled {
            self.counter("serve.req.sampled");
        }
        ctx
    }

    /// Deposits one flight record, mirroring the totals into the
    /// registry, and dumps it durably when any anomaly bit is set.
    fn file_record(&self, rec: FlightRecord) {
        self.flight.record(rec);
        self.counter("flight.records");
        if rec.anomaly != 0 {
            self.counter("flight.anomalies");
            self.dump(rec);
        }
    }

    /// Appends `record` (plus its buffered trace events) to the
    /// configured dump file. Dump failures are counted, never fatal.
    fn dump(&self, record: FlightRecord) {
        let Some(path) = &self.cfg.flight_path else { return };
        let events = self
            .obs
            .map(|o| o.tracer.events_for(record.trace_id))
            .unwrap_or_default();
        match flight_dump::append_dump(path, &DumpRecord { record, events }) {
            Ok(()) => self.counter("flight.dumps"),
            Err(e) => {
                her_obs::warn!("serve: flight dump failed: {e}");
                self.counter("flight.dump_failures");
            }
        }
    }

    /// Files the flight record for a request whose payload never decoded
    /// — there is no op to attribute it to, but the post-mortem still
    /// wants the anomaly on the timeline.
    fn record_decode_anomaly(&self, faults_seen: u32) {
        let ctx = self.mint();
        let mut rec = FlightRecord::for_ctx(ctx, op::OTHER);
        rec.faults_seen = faults_seen;
        rec.anomaly = anomaly::DECODE;
        self.file_record(rec);
    }

    /// Executes one request end to end (admission, budget, matching) and
    /// produces its reply. The bool asks the caller to begin shutdown.
    fn answer(&self, req: Request, faults_seen: u32) -> (Reply, bool) {
        if self.shutdown.load(Ordering::Acquire) {
            // Refused before any work, so retryable for every kind: the
            // retry reconnects and finds a restarted server or none.
            return (
                Reply::Unavailable {
                    reason: "server is shutting down".to_owned(),
                    retry_after_ms: 0,
                    trace_id: 0,
                },
                false,
            );
        }
        // The control plane bypasses admission: liveness, diagnostics
        // and introspection must answer even under saturation (that is
        // when the shed counters and the flight ring matter most), and
        // shutdown must never be shed.
        match &req {
            Request::Ping => return (Reply::Pong, false),
            Request::Health => return (self.health_reply(), false),
            Request::Metrics => return (self.metrics_reply(), false),
            Request::Shutdown => {
                self.health.drain();
                return (Reply::ShuttingDown, true);
            }
            Request::Trace { trace_id } => {
                let events = self
                    .obs
                    .map(|o| o.tracer.events_for(*trace_id))
                    .unwrap_or_default();
                return (
                    Reply::Trace {
                        trace_id: *trace_id,
                        events,
                    },
                    false,
                );
            }
            Request::Flight => {
                return (
                    Reply::Flight {
                        records: self.flight.records(),
                    },
                    false,
                )
            }
            Request::Expo => {
                let text = match self.obs {
                    Some(o) => o.registry.snapshot().to_text(),
                    None => format!("{}\n", her_obs::Snapshot::EXPO_VERSION),
                };
                return (Reply::Expo { text }, false);
            }
            _ => {}
        }

        // Data plane: mint the request's identity first so even a shed
        // request leaves a correlatable record behind.
        let ctx = self.mint();
        let op_tag = op_of(&req);
        let req_span = self.obs.map(|o| o.tracer.span_ctx("serve.req", ctx));

        // Read-only degradation: a mutation against a broken journal is
        // rejected *before* any work — nothing is ever acknowledged
        // that was not journaled first, so a rejection can never lose
        // an op. Reads keep flowing from the in-memory session.
        if matches!(
            req,
            Request::StreamProcess { .. } | Request::StreamRetract { .. }
        ) {
            let state = self.health.state();
            if !state.writable() {
                self.counter("serve.health.rejected");
                drop(req_span);
                let mut rec = FlightRecord::for_ctx(ctx, op_tag);
                rec.faults_seen = faults_seen;
                rec.anomaly = anomaly::DEGRADED;
                self.file_record(rec);
                return (
                    Reply::Unavailable {
                        reason: format!(
                            "read-only ({}): {}",
                            state.name(),
                            self.health.reason()
                        ),
                        retry_after_ms: self.cfg.probe_interval_ms,
                        trace_id: ctx.trace_id,
                    },
                    false,
                );
            }
        }

        let deadline_ms = match req {
            Request::Vpair { deadline_ms, .. } | Request::Apair { deadline_ms, .. } => {
                deadline_ms
            }
            _ => 0,
        };
        let deadline = match (deadline_ms, self.cfg.default_deadline_ms) {
            (0, 0) => None,
            (0, d) => Some(Instant::now() + Duration::from_millis(d)),
            (d, _) => Some(Instant::now() + Duration::from_millis(d)),
        };

        let queued = Instant::now();
        let admit = {
            let _queue_span = self.obs.map(|o| o.tracer.span_ctx("serve.queue", ctx));
            self.admission.acquire(deadline)
        };
        let queue_wait_us = queued.elapsed().as_micros() as u64;
        if let Some(o) = self.obs {
            o.registry
                .histogram("serve.req.queue_wait_us")
                .observe(queue_wait_us);
        }
        let permit = match admit {
            Admit::Permit(p) => p,
            Admit::Busy { queue_depth } => {
                if let Some(o) = self.obs {
                    o.tracer.event_ctx(
                        "serve.shed",
                        &format!("queue_depth={queue_depth}"),
                        ctx,
                    );
                }
                drop(req_span); // close the span before dumping its events
                let mut rec = FlightRecord::for_ctx(ctx, op_tag);
                rec.queue_wait_us = queue_wait_us;
                rec.faults_seen = faults_seen;
                rec.anomaly = anomaly::SHED;
                self.file_record(rec);
                return (
                    Reply::Busy {
                        queue_depth,
                        trace_id: ctx.trace_id,
                    },
                    false,
                );
            }
        };

        // Past the reap horizon (2× the remaining deadline, floored at
        // `MIN_REAP_GRACE` so a near-deadline admission is not insta-
        // reaped) the watchdog forfeits this request's slot; the
        // registration drop below is the normal completion path.
        let watch = deadline.map(|d| {
            let reap_at = watchdog::reap_horizon(Instant::now(), d);
            self.watchdog
                .register(ctx.trace_id, reap_at, permit.release_flag())
        });

        let shared_before = self
            .her
            .shared_scores
            .as_ref()
            .map_or(0, |s| s.shared_hits());
        let exec_started = Instant::now();
        let (reply, stats, exhausted, pool_wait_us) = {
            let _exec_span = self.obs.map(|o| o.tracer.span_ctx("serve.exec", ctx));
            self.execute(req, deadline, ctx)
        };
        let exec_us = exec_started.elapsed().as_micros() as u64;
        drop(watch);
        drop(permit);
        if let Some(o) = self.obs {
            o.registry.histogram("serve.req.exec_us").observe(exec_us);
        }
        if exhausted == Some(ExhaustReason::Deadline) {
            self.counter("serve.deadline_misses");
        }
        drop(req_span); // close the span before the record snapshots events

        let mut rec = FlightRecord::for_ctx(ctx, op_tag);
        rec.queue_wait_us = queue_wait_us;
        rec.exec_us = exec_us;
        rec.pool_wait_us = pool_wait_us;
        rec.calls = stats.calls;
        rec.cache_hits = stats.cache_hits + stats.ecache_hits;
        rec.shared_hits = self
            .her
            .shared_scores
            .as_ref()
            .map_or(0, |s| s.shared_hits())
            .saturating_sub(shared_before);
        rec.exhaust = reason_tag(exhausted);
        rec.faults_seen = faults_seen;
        if exhausted == Some(ExhaustReason::Deadline) {
            rec.anomaly |= anomaly::DEADLINE;
        }
        if matches!(reply, Reply::Unavailable { .. }) {
            rec.anomaly |= anomaly::DEGRADED;
        }
        if self.flight.note_exec(op_tag, exec_us) {
            rec.anomaly |= anomaly::SLOW;
        }
        self.file_record(rec);
        (reply, false)
    }

    fn health_reply(&self) -> Reply {
        let (state, reason, since_ms) = self.health.snapshot();
        Reply::Health {
            state,
            reason,
            since_ms,
        }
    }

    /// Runs one journaling op with the bounded in-place retry policy;
    /// exhausting the budget degrades the server to read-only and maps
    /// the failure to the taxonomized `Unavailable` reply. The linker
    /// rolled the WAL back to its synced prefix on every failed
    /// attempt, so a retry (or the eventual rejection) can neither lose
    /// an acknowledged op nor fabricate an unacknowledged one.
    fn journal_with_retry<T>(
        &self,
        s: &mut StreamSession<'_>,
        ctx: ReqCtx,
        mut op: impl FnMut(&mut StreamSession<'_>) -> Result<T, StoreError>,
    ) -> Result<T, Reply> {
        let mut attempt: u32 = 0;
        loop {
            match op(s) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if attempt >= self.cfg.wal_retries {
                        let reason = format!("wal append failed: {e}");
                        if self.health.degrade(reason.as_str()) {
                            her_obs::warn!(
                                "serve: read-only after {attempt} retries: {reason}"
                            );
                        }
                        self.counter("serve.health.rejected");
                        return Err(Reply::Unavailable {
                            reason: format!("read-only: {reason}"),
                            retry_after_ms: self.cfg.probe_interval_ms,
                            trace_id: ctx.trace_id,
                        });
                    }
                    attempt += 1;
                    self.counter("store.iofault.retries");
                    std::thread::sleep(retry_backoff(
                        self.cfg.wal_retry_backoff_ms,
                        attempt,
                        ctx.trace_id,
                    ));
                }
            }
        }
    }

    fn metrics_reply(&self) -> Reply {
        let json = match self.obs {
            Some(o) => o.registry.snapshot().to_json(),
            None => "{}".to_owned(),
        };
        Reply::Metrics { json }
    }

    fn budget(&self, max_calls: u64, deadline: Option<Instant>) -> Budget {
        let mut b = Budget::unlimited();
        if max_calls > 0 {
            b = b.with_max_calls(max_calls);
        }
        if let Some(at) = deadline {
            b = b.with_deadline(at);
        }
        b
    }

    /// Runs one admitted data-plane request. Returns the reply plus the
    /// matcher work counters, exhaustion, and the matcher pool checkout
    /// wait for the flight record.
    fn execute(
        &self,
        req: Request,
        deadline: Option<Instant>,
        ctx: ReqCtx,
    ) -> (Reply, MatchStats, Option<ExhaustReason>, u64) {
        let plain = MatchStats::default();
        match req {
            Request::Vpair {
                tuple, max_calls, ..
            } => {
                if !self.her.cg.has_tuple(tuple) {
                    return (unknown_tuple_reply(tuple), plain, None, 0);
                }
                let (run, ticket) = self.her.try_vpair_pooled(
                    self.pool,
                    tuple,
                    self.budget(max_calls, deadline),
                    CancelToken::new(),
                    ctx,
                );
                let reply = Reply::Vpair {
                    matches: run.matches,
                    unresolved: run.unresolved,
                    exhausted: run.exhausted,
                    trace_id: ctx.trace_id,
                };
                (reply, run.stats, run.exhausted, ticket.wait_us)
            }
            Request::Apair { max_calls, .. } => {
                let (matches, exhausted, stats, ticket) = self.her.try_apair_stats_pooled(
                    self.pool,
                    self.budget(max_calls, deadline),
                    CancelToken::new(),
                    ctx,
                );
                let reply = Reply::Apair {
                    matches,
                    exhausted,
                    trace_id: ctx.trace_id,
                };
                (reply, stats, exhausted, ticket.wait_us)
            }
            Request::StreamProcess { tuple, session } => {
                let reply = self.stream_op(session, |s| {
                    if !self.her.cg.has_tuple(tuple) {
                        return unknown_tuple_reply(tuple);
                    }
                    match self.journal_with_retry(s, ctx, |s| s.linker.process(tuple)) {
                        Ok((found, _)) => {
                            s.maybe_snapshot();
                            Reply::StreamApplied {
                                found,
                                ops_applied: s.linker.ops_applied(),
                                trace_id: ctx.trace_id,
                            }
                        }
                        Err(reply) => reply,
                    }
                });
                (reply, plain, None, 0)
            }
            Request::StreamRetract { vertex, session } => {
                let reply = self.stream_op(session, |s| {
                    match self.journal_with_retry(s, ctx, |s| s.linker.retract_vertex(vertex))
                    {
                        Ok(()) => {
                            s.maybe_snapshot();
                            Reply::StreamApplied {
                                found: Vec::new(),
                                ops_applied: s.linker.ops_applied(),
                                trace_id: ctx.trace_id,
                            }
                        }
                        Err(reply) => reply,
                    }
                });
                (reply, plain, None, 0)
            }
            Request::StreamMatches { session } => {
                let handle = match self.session_handle(session) {
                    Ok(h) => h,
                    Err(reply) => return (reply, plain, None, 0),
                };
                let s = handle.lock().unwrap_or_else(PoisonError::into_inner);
                let reply = Reply::StreamMatches {
                    matches: s.linker.matches(),
                    ops_applied: s.linker.ops_applied(),
                };
                (reply, plain, None, 0)
            }
            // The control plane is handled before admission in `answer`.
            Request::Metrics => (self.metrics_reply(), plain, None, 0),
            Request::Ping => (Reply::Pong, plain, None, 0),
            Request::Health => (self.health_reply(), plain, None, 0),
            Request::Shutdown => (Reply::ShuttingDown, plain, None, 0),
            Request::Trace { trace_id } => (
                Reply::Trace {
                    trace_id,
                    events: Vec::new(),
                },
                plain,
                None,
                0,
            ),
            Request::Flight => (
                Reply::Flight {
                    records: Vec::new(),
                },
                plain,
                None,
                0,
            ),
            Request::Expo => (
                Reply::Expo {
                    text: String::new(),
                },
                plain,
                None,
                0,
            ),
        }
    }

    /// The session handle for `id` — opened lazily by the registry —
    /// or the reply explaining why there is none.
    fn session_handle(
        &self,
        id: u64,
    ) -> Result<Arc<her_sync::Mutex<StreamSession<'h>>>, Reply> {
        let Some(sessions) = self.sessions else {
            return Err(no_stream_reply());
        };
        sessions.get(id)
    }

    fn stream_op(&self, id: u64, f: impl FnOnce(&mut StreamSession<'_>) -> Reply) -> Reply {
        let handle = match self.session_handle(id) {
            Ok(h) => h,
            Err(reply) => return reply,
        };
        self.counter("serve.stream_ops");
        let mut s = handle.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut s)
    }

    /// Writes `reply` through the connection's fault plan, bumping
    /// `faults_seen` when a fault fate fires.
    fn send(
        &self,
        stream: &mut TcpStream,
        faults: &mut Option<ConnFaults>,
        faults_seen: &mut u32,
        reply: &Reply,
        version: u32,
    ) -> ConnAction {
        // Echo the peer's protocol version so a v3 client never sees a
        // v4 frame it cannot decode.
        let payload = reply.encode_as(version);
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        her_store::frame::write_frame(&mut buf, &payload);

        let fate = match faults {
            Some(f) => f.fate(),
            None => ReplyFate::Deliver,
        };
        if fate != ReplyFate::Deliver {
            self.counter("serve.faults_injected");
            *faults_seen += 1;
        }
        match fate {
            ReplyFate::Deliver => {
                if write_all(stream, &buf).is_err() {
                    return ConnAction::Close;
                }
                ConnAction::Continue
            }
            ReplyFate::Delay(d) => {
                std::thread::sleep(d);
                if write_all(stream, &buf).is_err() {
                    return ConnAction::Close;
                }
                ConnAction::Continue
            }
            ReplyFate::Drop => ConnAction::Continue,
            ReplyFate::Truncate => {
                // A strict prefix: the peer sees a torn message, the
                // transport analogue of a crash mid-write.
                let cut = (buf.len() / 2).max(1).min(buf.len() - 1);
                let _ = write_all(stream, &buf[..cut]);
                ConnAction::Close
            }
            ReplyFate::Garble => {
                // Flip one payload byte; the checksum turns the lie into
                // a detectable corruption instead of a wrong answer.
                let idx = FRAME_HEADER_LEN.min(buf.len() - 1);
                buf[idx] ^= 0x20;
                let _ = write_all(stream, &buf);
                ConnAction::Continue
            }
            ReplyFate::Kill => ConnAction::Close,
        }
    }
}

/// Flight-recorder op class for a data-plane request.
fn op_of(req: &Request) -> u8 {
    match req {
        Request::Vpair { .. } => op::VPAIR,
        Request::Apair { .. } => op::APAIR,
        Request::StreamProcess { .. }
        | Request::StreamRetract { .. }
        | Request::StreamMatches { .. } => op::STREAM,
        _ => op::OTHER,
    }
}

/// Best-effort protocol version of a frame that failed to decode: if
/// the leading version word is one this build speaks, reply in it;
/// otherwise fall back to the current version (a peer that garbled the
/// version word cannot be helped either way).
fn peer_version_hint(payload: &[u8]) -> u32 {
    match payload.get(..4).map(|b| {
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }) {
        Some(v) if (MIN_PROTO_VERSION..=PROTO_VERSION).contains(&v) => v,
        _ => PROTO_VERSION,
    }
}

fn write_all(stream: &mut TcpStream, buf: &[u8]) -> std::io::Result<()> {
    stream.write_all(buf)?;
    stream.flush()
}

fn no_stream_reply() -> Reply {
    Reply::Error {
        code: code::USAGE,
        message: "server started without a stream WAL (--wal)".to_owned(),
    }
}

fn unknown_tuple_reply(t: her_rdb::TupleRef) -> Reply {
    Reply::Error {
        code: code::USAGE,
        message: format!("unknown tuple (relation {}, row {})", t.relation, t.row),
    }
}

