//! The two served workloads. Both drive an in-process `her-serve`
//! [`Server`] over loopback with [`CLIENTS`] closed-loop clients (each
//! sends its next request only after the previous reply, as `her-cli
//! query` and an ingest pipeline do). Every repetition gets a fresh
//! server, so every repetition starts from the same cache and journal
//! state and repetitions are comparable samples.

use crate::layers;
use crate::run::{put_latencies, put_throughput, repetitions, Run};
use crate::script::{self, ReadReq, Rng};
use crate::span::SpanLog;
use crate::stats::{mean, median, Latencies};
use crate::system::{Plan, System, CLIENTS};
use her_core::{Her, StreamLinker};
use her_graph::VertexId;
use her_obs::flight::op;
use her_obs::{FlightRecord, Obs};
use her_rdb::TupleRef;
use her_serve::{Client, Reply, Request, RetryPolicy, ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

type Matches = Vec<(TupleRef, VertexId)>;

/// `Reply::Health` state tag of a server that takes reads and writes.
const HEALTHY: u8 = 0;
/// Every this many VPair replies one is kept for the output check.
const SAMPLE_EVERY: usize = 8;
/// A traced client pulls the flight ring (512 slots) this often.
const FLIGHT_PULL_EVERY: usize = 256;

/// A client that never retries: a shed or refused request is a failed
/// operation of the benchmark, not something to paper over.
fn client(addr: &str) -> Client {
    Client::new(addr).with_retry(RetryPolicy {
        attempts: 1,
        ..Default::default()
    })
}

/// The gate both served workloads run behind: two executing requests
/// and room to queue, so with two closed-loop clients a shed is a bug.
fn gate(obs: Option<&Obs>) -> ServeConfig {
    ServeConfig {
        max_inflight: CLIENTS,
        max_queue: 64,
        obs: obs.cloned(),
        trace_sample_1_in: 1,
        ..Default::default()
    }
}

fn durable_gate(dir: &Path, sessions: u64, obs: Option<&Obs>) -> ServeConfig {
    ServeConfig {
        wal: Some(dir.join("stream.wal")),
        snapshot_dir: Some(dir.join("snapshots")),
        snapshot_every_ops: 8,
        // session 0 is always open beside the repetition's own
        max_sessions: sessions as usize + 1,
        ..gate(obs)
    }
}

/// Binds a server over `her`, serves on a scoped thread, waits for the
/// first `Health` reply that is writable, runs `f(addr)`, then shuts the
/// server down and joins it. Returns `f`'s result and the seconds from
/// before `bind` to that first healthy reply.
fn with_server<R>(
    her: &Her,
    cfg: ServeConfig,
    f: impl FnOnce(&str) -> R,
) -> Result<(R, f64), String> {
    let t0 = Instant::now();
    let server = Server::bind(cfg).map_err(|e| format!("Server::bind: {e}"))?;
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(her));
        let ready = match client(&addr).request(&Request::Health) {
            Ok(Reply::Health { state, .. }) if state == HEALTHY => Ok(t0.elapsed().as_secs_f64()),
            Ok(other) => Err(format!("server not writable after start: {other:?}")),
            Err(e) => Err(format!("no Health reply after start: {e}")),
        };
        let out = ready.map(|ready_s| (f(&addr), ready_s));
        let down = client(&addr).request(&Request::Shutdown);
        let served = serving.join();
        let out = out?;
        down.map_err(|e| format!("Shutdown refused: {e}"))?;
        match served {
            Ok(Ok(())) => Ok(out),
            Ok(Err(e)) => Err(format!("Server::run: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    })
}

/// Set-up share of a served workload: bind → first healthy `Health`.
pub fn ready_seconds(sys: &System, plan: &Plan, durable: bool) -> Result<f64, String> {
    let cfg = if durable {
        durable_gate(&fresh_dir(plan, "setup")?, plan.sessions, None)
    } else {
        gate(None)
    };
    with_server(&sys.her, cfg, |_| ()).map(|((), ready_s)| ready_s)
}

fn fresh_dir(plan: &Plan, name: &str) -> Result<PathBuf, String> {
    let dir = plan.work_dir.join(name);
    // a leftover from an earlier run would be replayed as if it were ours
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// What one client saw in one repetition.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    complaint: Option<String>,
    reads_ns: Vec<u64>,
    writes_ns: Vec<u64>,
    /// VPair replies kept for the check against in-process `Her::vpair`.
    sampled: Vec<(TupleRef, Vec<VertexId>)>,
    /// Server-assigned id and client-observed nanoseconds of the
    /// requests the ladder is built from (traced repetitions).
    ladder: Vec<(u64, u64)>,
    flights: BTreeMap<u64, FlightRecord>,
    /// Request/reply pairs kept for the codec probes.
    messages: Vec<(Request, Reply)>,
}

impl Tally {
    /// One attempted operation that failed before it could be sent.
    fn one_failure(why: String) -> Tally {
        let mut tally = Tally {
            ops: 1,
            ..Default::default()
        };
        tally.fail(why);
        tally
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.complaint.get_or_insert(why);
    }

    /// Takes over `other`'s failures but not its (unscored) operations.
    fn absorb_failures(&mut self, failed: u64, complaint: Option<String>) {
        self.failed += failed;
        if self.complaint.is_none() {
            self.complaint = complaint;
        }
    }

    fn merge(&mut self, other: Tally) {
        self.ops += other.ops;
        self.absorb_failures(other.failed, other.complaint);
        self.reads_ns.extend(other.reads_ns);
        self.writes_ns.extend(other.writes_ns);
        self.sampled.extend(other.sampled);
        self.ladder.extend(other.ladder);
        self.flights.extend(other.flights);
        self.messages.extend(other.messages);
    }
}

/// One closed-loop client: a connection-per-request [`Client`], its
/// tally, and in a traced repetition its lane of the span log.
struct Caller {
    client: Client,
    tally: Tally,
    lane: Option<(SpanLog, u64)>,
    /// Repetition and client index, the high bits of every request's trace id.
    trace_base: u64,
    sent: usize,
    keep_messages: bool,
}

/// What one client does in a repetition.
type ClientBody<'a> = Box<dyn FnOnce(&mut Caller) + Send + 'a>;

impl Caller {
    fn new(addr: &str, trace_base: u64, lane: Option<(SpanLog, u64)>, keep_messages: bool) -> Self {
        Caller {
            client: client(addr),
            tally: Tally::default(),
            lane,
            trace_base,
            sent: 0,
            keep_messages,
        }
    }

    /// Sends one scored request; returns the reply and its nanoseconds.
    fn call(&mut self, req: Request) -> (Option<Reply>, u64) {
        self.sent += 1;
        let span = self.lane.as_mut().map(|(log, parent)| {
            log.enter("serve.request", *parent, self.trace_base | self.sent as u64)
        });
        let t0 = Instant::now();
        let result = self.client.request(&req);
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some((log, _)), Some(id)) = (self.lane.as_mut(), span) {
            log.exit(id);
        }
        self.tally.ops += 1;
        let reply = match result {
            Ok(reply) => Some(reply),
            Err(e) => {
                self.tally.fail(format!("{req:?}: {e}"));
                None
            }
        };
        if let (true, Some(reply)) = (
            self.keep_messages && self.tally.messages.len() < 256,
            &reply,
        ) {
            self.tally.messages.push((req, reply.clone()));
        }
        if self.lane.is_some() && self.sent.is_multiple_of(FLIGHT_PULL_EVERY) {
            self.pull_flights();
        }
        (reply, ns)
    }

    /// Copies the server's flight ring (unscored, traced repetitions only).
    fn pull_flights(&mut self) {
        let Some((log, parent)) = self.lane.as_mut() else {
            return;
        };
        let id = log.enter("serve.flight_pull", *parent, self.trace_base);
        if let Ok(Reply::Flight { records }) = self.client.request(&Request::Flight) {
            self.tally
                .flights
                .extend(records.into_iter().map(|r| (r.trace_id, r)));
        }
        log.exit(id);
    }

    fn vpair(&mut self, tuple: TupleRef, sample: bool) {
        let (reply, ns) = self.call(Request::Vpair {
            tuple,
            max_calls: 0,
            deadline_ms: 0,
        });
        match reply {
            Some(Reply::Vpair {
                matches,
                unresolved,
                exhausted: None,
                trace_id,
            }) if unresolved.is_empty() => {
                self.tally.reads_ns.push(ns);
                if self.lane.is_some() {
                    self.tally.ladder.push((trace_id, ns));
                }
                if sample {
                    self.tally.sampled.push((tuple, matches));
                }
            }
            Some(other) => self
                .tally
                .fail(format!("Vpair {tuple:?}: unexpected {other:?}")),
            None => {}
        }
    }

    fn finish(mut self) -> (Tally, Option<SpanLog>) {
        self.pull_flights();
        (self.tally, self.lane.map(|(log, _)| log))
    }
}

/// The scored part of one repetition: what the clients saw and how long
/// the measured region took.
struct Rep {
    tally: Tally,
    region_s: f64,
    /// Counters of the repetition's server (traced repetitions).
    pool_hits: u64,
    pool_misses: u64,
    shed: u64,
    ping_rtt_us: f64,
}

impl Rep {
    fn failed_start(why: String) -> Rep {
        Rep::of(Tally::one_failure(why), 1.0)
    }

    fn of(tally: Tally, region_s: f64) -> Rep {
        Rep {
            tally,
            region_s,
            pool_hits: 0,
            pool_misses: 0,
            shed: 0,
            ping_rtt_us: 0.0,
        }
    }

    fn with_counters(mut self, obs: &Obs) -> Rep {
        let snap = obs.snapshot();
        self.pool_hits = snap.counter("scores.pool.hits");
        self.pool_misses = snap.counter("scores.pool.misses");
        self.shed = snap.counter("serve.shed");
        self
    }

    fn rate(&self) -> f64 {
        self.tally.ops as f64 / self.region_s
    }
}

/// Runs `clients` closures concurrently, each with its own [`Caller`],
/// inside one span of a traced repetition; returns the merged tally and
/// the wall-clock seconds from first spawn to last join.
fn run_clients(
    run: &mut Run<'_>,
    addr: &str,
    rep: u64,
    traced: bool,
    keep_messages: bool,
    clients: Vec<ClientBody<'_>>,
) -> (Tally, f64) {
    let root = traced.then(|| run.spans.enter("repetition", 0, rep));
    let lanes: Vec<Option<(SpanLog, u64)>> = (0..clients.len())
        .map(|c| root.map(|id| (run.spans.fork(rep * 8 + c as u64 + 1), id)))
        .collect();
    let t0 = Instant::now();
    let results: Vec<(Tally, Option<SpanLog>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(lanes)
            .enumerate()
            .map(|(c, (body, lane))| {
                scope.spawn(move || {
                    let lane = lane.map(|(mut log, root)| {
                        let id = log.enter("serve.client", root, rep);
                        (log, id)
                    });
                    let client_span = lane.as_ref().map(|(_, id)| *id);
                    let trace_base = rep << 40 | (c as u64) << 32;
                    let mut caller = Caller::new(addr, trace_base, lane, keep_messages && c == 0);
                    body(&mut caller);
                    let (tally, mut log) = caller.finish();
                    if let (Some(log), Some(id)) = (log.as_mut(), client_span) {
                        log.exit(id);
                    }
                    (tally, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(_) => (
                    Tally::one_failure("client thread panicked".to_owned()),
                    None,
                ),
            })
            .collect()
    });
    let region_s = t0.elapsed().as_secs_f64();
    let mut total = Tally::default();
    for (tally, log) in results {
        total.merge(tally);
        if let Some(log) = log {
            run.spans.absorb(log);
        }
    }
    if let Some(id) = root {
        run.spans.exit(id);
    }
    (total, region_s)
}

/// Mean closed-loop `Ping` round trip in microseconds on an idle server.
fn ping_rtt_us(addr: &str, pings: usize) -> f64 {
    let mut c = client(addr);
    let t0 = Instant::now();
    let answered = (0..pings)
        .filter(|_| matches!(c.request(&Request::Ping), Ok(Reply::Pong)))
        .count();
    t0.elapsed().as_secs_f64() * 1e6 / answered.max(1) as f64
}

/// The served ladder, in mean microseconds over the traced requests
/// that have a flight record: what the server attributes (queue wait,
/// pool checkout, execution) and what is left of the client-observed
/// time (socket, frame and proto codec, dispatch). Adds up exactly.
#[derive(Debug, PartialEq)]
pub struct ServeLadder {
    pub client_us: f64,
    pub queue_us: f64,
    pub pool_us: f64,
    pub exec_us: f64,
    pub residual_us: f64,
    pub records: usize,
}

impl ServeLadder {
    /// `samples` are `(client-observed ns, the request's flight record)`.
    pub fn from_samples(samples: &[(u64, FlightRecord)]) -> Self {
        let over = |f: &dyn Fn(&(u64, FlightRecord)) -> f64| {
            mean(&samples.iter().map(f).collect::<Vec<_>>())
        };
        let client_us = over(&|s| s.0 as f64 / 1e3);
        let queue_us = over(&|s| s.1.queue_wait_us as f64);
        let pool_us = over(&|s| s.1.pool_wait_us as f64);
        let exec_us = over(&|s| s.1.exec_us as f64);
        ServeLadder {
            client_us,
            queue_us,
            pool_us,
            exec_us,
            residual_us: client_us - (queue_us + pool_us + exec_us),
            records: samples.len(),
        }
    }
}

/// Metrics both served workloads derive from their repetitions.
fn put_serve_metrics(run: &mut Run<'_>, reps: &crate::run::Reps<Rep>, ladder_op: u8) {
    for rep in reps.untraced.iter().chain(&reps.traced) {
        run.attempted += rep.tally.ops;
        run.fail(rep.tally.failed, || {
            rep.tally.complaint.clone().unwrap_or_default()
        });
    }
    put_throughput(
        run,
        &reps.untraced.iter().map(Rep::rate).collect::<Vec<_>>(),
        &reps.traced.iter().map(Rep::rate).collect::<Vec<_>>(),
    );
    let (mut reads, mut writes) = (Latencies::default(), Latencies::default());
    for rep in &reps.untraced {
        reads.extend(&rep.tally.reads_ns);
        writes.extend(&rep.tally.writes_ns);
    }
    put_latencies(run, &reads, &writes);
    if reps.traced.is_empty() {
        return;
    }
    let samples: Vec<(u64, FlightRecord)> = reps
        .traced
        .iter()
        .flat_map(|rep| {
            rep.tally.ladder.iter().filter_map(|(id, ns)| {
                rep.tally
                    .flights
                    .get(id)
                    .filter(|r| r.op == ladder_op)
                    .map(|r| (*ns, *r))
            })
        })
        .collect();
    let ladder = ServeLadder::from_samples(&samples);
    let sum = |f: fn(&Rep) -> u64| reps.traced.iter().map(f).sum::<u64>() as f64;
    let (hits, misses) = (sum(|r| r.pool_hits), sum(|r| r.pool_misses));
    let m = &mut run.metrics;
    m.put("serve.client_mean_us", ladder.client_us);
    m.put("serve.queue_wait_mean_us", ladder.queue_us);
    m.put("serve.pool_wait_mean_us", ladder.pool_us);
    m.put("serve.exec_mean_us", ladder.exec_us);
    m.put("serve.residual_mean_us", ladder.residual_us);
    m.put("serve.flight_records", ladder.records as f64);
    m.put("serve.shed", sum(|r| r.shed));
    m.put("serve.ping_rtt_us", reps.warm_up.ping_rtt_us);
    if hits + misses > 0.0 {
        m.put("core.pool_hit_ratio", hits / (hits + misses));
    }
}

/// Checks every sampled served VPair reply against in-process `Her::vpair`.
fn check_sampled_vpairs(run: &mut Run<'_>, her: &Her, reps: &crate::run::Reps<Rep>) {
    let id = run.spans.enter("check", 0, 0);
    let mut truth: BTreeMap<TupleRef, Vec<VertexId>> = BTreeMap::new();
    let mut wrong = 0u64;
    for rep in reps.untraced.iter().chain(&reps.traced) {
        for (t, served) in &rep.tally.sampled {
            let expected = truth.entry(*t).or_insert_with(|| her.vpair(*t));
            wrong += u64::from(served != expected);
        }
    }
    run.spans.exit(id);
    run.fail(wrong, || {
        format!("{wrong} served Vpair replies differ from in-process Her::vpair")
    });
}

pub fn serve_read(sys: &System, run: &mut Run<'_>) {
    let plan = run.plan;
    let her = &sys.her;
    let hot = script::hot_set(&sys.persons, plan.hot_set, plan.seed);
    let reps = repetitions(plan, |i, traced| {
        let rep = i as u64;
        let obs = Obs::new();
        let served = with_server(her, gate(traced.then_some(&obs)), |addr| {
            // Unscored prefix: both clients touch every hot key twice, so
            // the (at most two) pooled matchers hold the hot verdicts and
            // the scored region starts hot-warm, cold-cold every time.
            let warm: Vec<ClientBody<'_>> = (0..CLIENTS)
                .map(|_| {
                    let hot = &hot;
                    Box::new(move |c: &mut Caller| {
                        for &t in hot.iter().chain(hot.iter()) {
                            c.vpair(t, false);
                        }
                    }) as ClientBody<'_>
                })
                .collect();
            let (prefix, _) = run_clients(run, addr, rep, false, false, warm);
            let scripts: Vec<Vec<ReadReq>> = (0..CLIENTS as u64)
                .map(|c| {
                    script::read_script(&sys.persons, &hot, plan.script_len, plan.seed, c, rep)
                })
                .collect();
            let clients: Vec<ClientBody<'_>> = scripts
                .iter()
                .map(|script| {
                    Box::new(move |c: &mut Caller| {
                        for (n, req) in script.iter().enumerate() {
                            match *req {
                                ReadReq::Vpair(t) => c.vpair(t, n.is_multiple_of(SAMPLE_EVERY)),
                                ReadReq::Ping => {
                                    if !matches!(c.call(Request::Ping).0, Some(Reply::Pong) | None)
                                    {
                                        c.tally.fail("Ping: not a Pong".to_owned());
                                    }
                                }
                            }
                        }
                    }) as ClientBody<'_>
                })
                .collect();
            let (mut tally, region_s) =
                run_clients(run, addr, rep, traced, i == 0 && plan.traced, clients);
            tally.absorb_failures(prefix.failed, prefix.complaint);
            let mut out = Rep::of(tally, region_s);
            if i == 0 && plan.traced {
                out.ping_rtt_us = ping_rtt_us(addr, 30_000 / plan.probe_divisor);
            }
            out
        });
        match served {
            Ok((out, _)) => out.with_counters(&obs),
            Err(why) => Rep::failed_start(why),
        }
    });
    check_sampled_vpairs(run, her, &reps);
    put_serve_metrics(run, &reps, op::VPAIR);
    if plan.traced {
        layers::codec_probes(run, &reps.warm_up.tally.messages);
        layers::core_probes(run, sys);
        layers::request_path_probes(run, sys);
    }
}

/// What an in-process [`StreamLinker`] makes of the ingest script: the
/// expected reply to every write and the expected final match set.
pub struct IngestOracle {
    pub order: Vec<TupleRef>,
    pub found: Vec<Vec<VertexId>>,
    pub retracts: Vec<VertexId>,
    pub final_matches: Matches,
    /// Mean microseconds of `StreamLinker::process` (in memory).
    pub process_us: f64,
}

impl IngestOracle {
    pub fn new(sys: &System, seed: u64) -> Self {
        let order = script::ingest_order(&sys.persons, seed);
        let mut linker = StreamLinker::new(&sys.her);
        let t0 = Instant::now();
        let found: Vec<Vec<VertexId>> = order.iter().map(|&t| linker.process(t).0).collect();
        let process_us = t0.elapsed().as_secs_f64() * 1e6 / order.len().max(1) as f64;
        let mut matched: Vec<VertexId> = Vec::new();
        for &v in found.iter().flatten() {
            if !matched.contains(&v) {
                matched.push(v);
            }
        }
        let retracts = script::retract_picks(&matched, seed);
        for &v in &retracts {
            linker.retract_vertex(v);
        }
        IngestOracle {
            order,
            found,
            retracts,
            final_matches: linker.matches(),
            process_us,
        }
    }

    fn ops(&self) -> u64 {
        (self.order.len() + self.retracts.len()) as u64
    }
}

/// Reads every session back and compares it with the oracle.
fn check_sessions(c: &mut Client, oracle: &IngestOracle, sessions: u64, when: &str) -> Tally {
    let mut tally = Tally::default();
    for session in 1..=sessions {
        tally.ops += 1;
        match c.request(&Request::StreamMatches { session }) {
            Ok(Reply::StreamMatches {
                matches,
                ops_applied,
            }) if matches == oracle.final_matches && ops_applied == oracle.ops() => {}
            Ok(Reply::StreamMatches {
                matches,
                ops_applied,
            }) => tally.fail(format!(
                "session {session} {when}: {} matches after {ops_applied} ops, in-process StreamLinker has {} after {}",
                matches.len(),
                oracle.final_matches.len(),
                oracle.ops()
            )),
            Ok(other) => tally.fail(format!("session {session} {when}: unexpected {other:?}")),
            Err(e) => tally.fail(format!("session {session} {when}: {e}")),
        }
    }
    tally
}

pub fn serve_ingest(sys: &System, run: &mut Run<'_>) {
    let plan = run.plan;
    let her = &sys.her;
    let oracle = IngestOracle::new(sys, plan.seed);
    let sessions = plan.sessions;
    let mut last_dir: Option<PathBuf> = None;
    let reps = repetitions(plan, |i, traced| {
        let rep = i as u64;
        let dir = match fresh_dir(plan, &format!("ingest-{i}")) {
            Ok(dir) => dir,
            Err(why) => return Rep::failed_start(why),
        };
        if let Some(old) = last_dir.replace(dir.clone()) {
            let _ = std::fs::remove_dir_all(old);
        }
        let obs = Obs::new();
        let cfg = durable_gate(&dir, sessions, traced.then_some(&obs));
        let served = with_server(her, cfg, |addr| {
            let done = AtomicBool::new(false);
            let (oracle, done_ref) = (&oracle, &done);
            // Client A, the ingest pipeline: every write waits for its
            // durable acknowledgement before the next is sent.
            let writer = Box::new(move |c: &mut Caller| {
                for session in 1..=sessions {
                    let writes =
                        oracle
                            .order
                            .iter()
                            .zip(&oracle.found)
                            .map(|(&tuple, found)| {
                                (Request::StreamProcess { tuple, session }, found.as_slice())
                            })
                            .chain(oracle.retracts.iter().map(|&vertex| {
                                (Request::StreamRetract { vertex, session }, &[][..])
                            }));
                    for (req, expected) in writes {
                        let what = format!("{req:?}");
                        let (reply, ns) = c.call(req);
                        match reply {
                            Some(Reply::StreamApplied {
                                found, trace_id, ..
                            }) if found == expected => {
                                c.tally.writes_ns.push(ns);
                                if c.lane.is_some() {
                                    c.tally.ladder.push((trace_id, ns));
                                }
                            }
                            Some(other) => c.tally.fail(format!("{what}: unexpected {other:?}")),
                            None => {}
                        }
                    }
                }
                done_ref.store(true, Ordering::Release);
            }) as ClientBody<'_>;
            // Client B, a reader beside it until the writer is done.
            let persons = &sys.persons;
            let reader = Box::new(move |c: &mut Caller| {
                let mut rng = Rng::new(plan.seed ^ rep << 32 ^ 0x7264);
                let mut n = 0usize;
                while !done_ref.load(Ordering::Acquire) {
                    let session = 1 + rng.below(sessions as usize) as u64;
                    let (reply, _) = c.call(Request::StreamMatches { session });
                    if !matches!(reply, Some(Reply::StreamMatches { .. }) | None) {
                        c.tally
                            .fail(format!("StreamMatches {session}: unexpected {reply:?}"));
                    }
                    for _ in 0..4 {
                        n += 1;
                        c.vpair(
                            persons[rng.below(persons.len())],
                            n.is_multiple_of(SAMPLE_EVERY),
                        );
                    }
                }
            }) as ClientBody<'_>;
            let (mut tally, region_s) = run_clients(
                run,
                addr,
                rep,
                traced,
                i == 0 && plan.traced,
                vec![writer, reader],
            );
            tally.merge(check_sessions(
                &mut client(addr),
                oracle,
                sessions,
                "before restart",
            ));
            let mut out = Rep::of(tally, region_s);
            if i == 0 && plan.traced {
                out.ping_rtt_us = ping_rtt_us(addr, 30_000 / plan.probe_divisor);
            }
            out
        });
        match served {
            Ok((out, _)) => out.with_counters(&obs),
            Err(why) => Rep::failed_start(why),
        }
    });

    // Restarts over the last repetition's journals and snapshots.
    let mut restart_s = Vec::new();
    let mut replay_ms = Vec::new();
    if let Some(dir) = &last_dir {
        for _ in 0..plan.restarts {
            let obs = Obs::new();
            let id = run.spans.enter("serve.restart", 0, 0);
            let restarted = with_server(her, durable_gate(dir, sessions, Some(&obs)), |addr| {
                check_sessions(&mut client(addr), &oracle, sessions, "after restart")
            });
            run.spans.exit(id);
            match restarted {
                Ok((tally, ready_s)) => {
                    restart_s.push(ready_s);
                    replay_ms.push(obs.snapshot().counter("serve.restart_replay_us") as f64 / 1e3);
                    run.attempted += tally.ops;
                    run.fail(tally.failed, || tally.complaint.clone().unwrap_or_default());
                }
                Err(why) => run.check(false, || why),
            }
        }
    }
    check_sampled_vpairs(run, her, &reps);
    put_serve_metrics(run, &reps, op::STREAM);
    if plan.traced {
        run.metrics.put("restart_s", median(&restart_s));
        run.metrics.put("serve.restart_replay_ms", mean(&replay_ms));
        run.metrics.put("core.stream_process_us", oracle.process_us);
        layers::codec_probes(run, &reps.warm_up.tally.messages);
        layers::admission_probe(run);
        if let Some(dir) = &last_dir {
            layers::store_probes(run, sys, &oracle, &dir.join("stream.wal.s1"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(queue: u64, pool: u64, exec: u64) -> FlightRecord {
        FlightRecord {
            queue_wait_us: queue,
            pool_wait_us: pool,
            exec_us: exec,
            ..Default::default()
        }
    }

    #[test]
    fn served_ladder_sums_to_the_client_mean() {
        let samples = [
            (1_400_000, record(3, 2, 1_100)),
            (420_000, record(0, 1, 260)),
            (9_800_000, record(40, 2, 9_300)),
        ];
        let l = ServeLadder::from_samples(&samples);
        let sum = l.queue_us + l.pool_us + l.exec_us + l.residual_us;
        assert!((sum - l.client_us).abs() <= 0.01 * l.client_us);
        assert_eq!(l.records, 3);
        assert!(l.residual_us > 0.0);
    }

    #[test]
    fn an_empty_ladder_is_all_zero() {
        let l = ServeLadder::from_samples(&[]);
        assert_eq!((l.client_us, l.residual_us, l.records), (0.0, 0.0, 0));
    }
}
