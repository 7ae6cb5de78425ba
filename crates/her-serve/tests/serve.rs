//! End-to-end service tests over real sockets: wire correctness against
//! the in-process reference, overload shedding, deadline partials, warm
//! restart from snapshots + WAL (including torn tails and corrupt
//! snapshots at every cut point), and the seeded connection fault drill.

use her_core::learn::SearchSpace;
use her_core::params::Thresholds;
use her_core::stream::StreamLinker;
use her_core::{Her, HerConfig};
use her_graph::{GraphBuilder, VertexId};
use her_rdb::schema::{RelationSchema, Schema};
use her_rdb::{Database, Tuple, TupleRef, Value};
use her_serve::{Client, ClientError, FaultPlan, Reply, Request, RetryPolicy, ServeConfig, Server, DEFAULT_SESSION};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The stream-test system: 8 item tuples, one entity vertex each.
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

/// Runs `f` against a freshly bound server, then shuts the server down.
/// Shutdown is sent even when `f` panics — otherwise the scoped server
/// thread blocks in `accept` forever and the panic never surfaces.
fn with_server<R>(her: &Her, cfg: ServeConfig, f: impl FnOnce(&mut Client) -> R) -> R {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run(her).expect("server run"));
        let mut client = Client::new(&addr);
        client.timeout = Duration::from_secs(10);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut client)));
        let mut closer = Client::new(&addr);
        let shut = closer.request(&Request::Shutdown);
        run.join().expect("server thread panicked");
        let out = match out {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        };
        match shut.expect("shutdown") {
            Reply::ShuttingDown => {}
            other => panic!("unexpected shutdown reply: {other:?}"),
        }
        out
    })
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        base_ms: 1,
        cap_ms: 5,
        seed: 7,
    }
}

#[test]
fn vpair_and_apair_over_wire_equal_local() {
    let (her, ts, _) = system();
    let local_apair = her.apair();
    let locals: Vec<Vec<VertexId>> = ts.iter().map(|&t| her.vpair(t)).collect();
    with_server(&her, ServeConfig::default(), |client| {
        for (i, &t) in ts.iter().enumerate() {
            match client
                .request(&Request::Vpair {
                    tuple: t,
                    max_calls: 0,
                    deadline_ms: 0,
                })
                .expect("vpair")
            {
                Reply::Vpair {
                    matches, exhausted, ..
                } => {
                    assert_eq!(exhausted, None, "tuple {i} exhausted unexpectedly");
                    assert_eq!(matches, locals[i], "tuple {i} differs from local");
                }
                other => panic!("unexpected reply: {other:?}"),
            }
        }
        match client
            .request(&Request::Apair {
                max_calls: 0,
                deadline_ms: 0,
            })
            .expect("apair")
        {
            Reply::Apair {
                matches, exhausted, ..
            } => {
                assert_eq!(exhausted, None);
                assert_eq!(matches, local_apair);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        match client.request(&Request::Ping).expect("ping") {
            Reply::Pong => {}
            other => panic!("unexpected reply: {other:?}"),
        }
    });
}

#[test]
fn unknown_tuple_is_a_usage_error_not_a_panic() {
    let (her, _, _) = system();
    with_server(&her, ServeConfig::default(), |client| {
        let err = client
            .request(&Request::Vpair {
                tuple: TupleRef::new(9, 999),
                max_calls: 0,
                deadline_ms: 0,
            })
            .expect_err("bogus tuple accepted");
        match err {
            ClientError::Remote { code, .. } => assert_eq!(code, her_serve::proto::code::USAGE),
            other => panic!("unexpected error: {other:?}"),
        }
    });
}

#[test]
fn saturated_server_sheds_with_busy_and_counts_it() {
    let (her, ts, _) = system();
    let obs = her_obs::Obs::new();
    let cfg = ServeConfig {
        max_inflight: 0,
        max_queue: 0,
        obs: Some(obs.clone()),
        ..Default::default()
    };
    with_server(&her, cfg, |client| {
        client.retry = fast_retry();
        let err = client
            .request(&Request::Vpair {
                tuple: ts[0],
                max_calls: 0,
                deadline_ms: 0,
            })
            .expect_err("saturated server answered");
        assert!(matches!(err, ClientError::Unavailable(_)), "{err:?}");
        // Diagnostics bypass admission: metrics are readable while shedding.
        match client.request(&Request::Metrics).expect("metrics") {
            Reply::Metrics { json } => {
                assert!(json.contains("serve.shed"), "shed counter missing: {json}")
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    });
    let snap = obs.registry.snapshot();
    assert_eq!(
        snap.counter("serve.shed"),
        3,
        "every retry attempt should shed"
    );
    assert!(snap.counter("serve.requests") >= 3);
    assert!(snap.counter("serve.connections") >= 1);
    assert_eq!(
        snap.histogram("serve.request_us").map(|h| h.count),
        Some(snap.counter("serve.requests")),
        "every request is timed server-side, shed or not"
    );
}

#[test]
fn exhausted_requests_return_sound_partials() {
    let (her, ts, _) = system();
    let full: Vec<VertexId> = her.vpair(ts[0]);
    with_server(&her, ServeConfig::default(), |client| {
        // max_calls = 1 deterministically exhausts the budget.
        match client
            .request(&Request::Vpair {
                tuple: ts[0],
                max_calls: 1,
                deadline_ms: 0,
            })
            .expect("vpair")
        {
            Reply::Vpair {
                matches,
                unresolved,
                exhausted,
                ..
            } => {
                assert!(exhausted.is_some(), "1 call cannot finish");
                // Soundness: exhaustion never invents a match.
                assert!(
                    matches.iter().all(|v| full.contains(v)),
                    "partial result contains a vertex the full run rejects"
                );
                assert!(
                    !unresolved.is_empty() || matches == full,
                    "exhausted run must surface undecided candidates"
                );
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        // A tight deadline either finishes or returns sound partials —
        // never an error, never an unsound match.
        match client
            .request(&Request::Vpair {
                tuple: ts[0],
                max_calls: 0,
                deadline_ms: 1,
            })
            .expect("vpair with deadline")
        {
            Reply::Vpair {
                matches, exhausted, ..
            } => {
                assert!(matches.iter().all(|v| full.contains(v)));
                if exhausted.is_none() {
                    assert_eq!(matches, full);
                }
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    });
}

/// The other half of the budget contract (DESIGN §4k): a budget caps
/// fresh `ParaMatch` calls, not answers. A warm pooled matcher that has
/// already decided a tuple answers the same request under `max_calls: 1`
/// from its verdict cache — complete, not exhausted.
#[test]
fn warm_matcher_answers_a_capped_request_from_its_cache() {
    let (her, ts, _) = system();
    let obs = her_obs::Obs::new();
    // Tracing off: ids are minted and flight records filed either way.
    let cfg = ServeConfig {
        obs: Some(obs.clone()),
        trace_sample_1_in: 0,
        ..Default::default()
    };
    with_server(&her, cfg, |client| {
        let mut vpair = |max_calls| match client
            .request(&Request::Vpair {
                tuple: ts[0],
                max_calls,
                deadline_ms: 0,
            })
            .expect("vpair")
        {
            Reply::Vpair {
                matches,
                exhausted,
                trace_id,
                ..
            } => (matches, exhausted, trace_id),
            other => panic!("unexpected reply: {other:?}"),
        };
        let (full, exhausted, _) = vpair(0);
        assert_eq!(exhausted, None);
        let (capped, exhausted, capped_id) = vpair(1);
        assert_eq!(exhausted, None, "the warm verdict cache needs no fresh call");
        assert_eq!(capped, full);

        // One connection, so one matcher: built cold by the first request,
        // reused by the second, whose record files the checkout inside exec.
        let records = match client.request(&Request::Flight).expect("flight") {
            Reply::Flight { records } => records,
            other => panic!("unexpected reply: {other:?}"),
        };
        let rec = records
            .iter()
            .find(|r| r.trace_id == capped_id)
            .expect("capped request in the ring");
        assert_eq!((rec.calls, rec.exhaust), (0, 0));
        assert!(rec.cache_hits >= 1, "answered without the cache: {rec:?}");
        assert!(rec.pool_wait_us <= rec.exec_us, "checkout outside exec: {rec:?}");
    });
    let snap = obs.registry.snapshot();
    assert_eq!(snap.counter("scores.pool.misses"), 1);
    assert!(snap.counter("scores.pool.hits") >= 1);
    assert_eq!(snap.counter("serve.req.sampled"), 0);
}

/// Streams `ops` tuples through a server-backed session and returns the
/// matches reported over the wire.
fn stream_through_server(
    her: &Her,
    cfg: ServeConfig,
    ops: &[TupleRef],
) -> Vec<(TupleRef, VertexId)> {
    with_server(her, cfg, |client| {
        for &t in ops {
            match client
                .request(&Request::StreamProcess { tuple: t, session: DEFAULT_SESSION })
                .expect("stream process")
            {
                Reply::StreamApplied { .. } => {}
                other => panic!("unexpected reply: {other:?}"),
            }
        }
        match client.request(&Request::StreamMatches { session: DEFAULT_SESSION }).expect("matches") {
            Reply::StreamMatches { matches, .. } => matches,
            other => panic!("unexpected reply: {other:?}"),
        }
    })
}

/// Reference: matches after each prefix of `ops` in one uninterrupted
/// in-process session. `reference[k]` = state after `k` ops.
fn reference_prefixes(her: &Her, ops: &[TupleRef]) -> Vec<Vec<(TupleRef, VertexId)>> {
    let mut linker = StreamLinker::new(her);
    let mut out = vec![linker.matches()];
    for &t in ops {
        linker.process(t);
        out.push(linker.matches());
    }
    out
}

#[test]
fn warm_restart_resumes_from_snapshot_plus_wal() {
    let (her, ts, _) = system();
    let dir = tempdir("warm_restart");
    let wal = dir.join("stream.wal");
    let snaps = dir.join("snaps");
    let cfg = || ServeConfig {
        wal: Some(wal.clone()),
        snapshot_dir: Some(snaps.clone()),
        snapshot_every_ops: 2,
        ..Default::default()
    };
    let reference = reference_prefixes(&her, &ts);

    // Session 1: five ops, then shutdown (which cuts a final snapshot).
    let first = stream_through_server(&her, cfg(), &ts[..5]);
    assert_eq!(first, reference[5]);

    // Session 2 must resume exactly where session 1 stopped, then absorb
    // the remaining ops as if the restart never happened.
    let rest = with_server(&her, cfg(), |client| {
        match client.request(&Request::StreamMatches { session: DEFAULT_SESSION }).expect("matches") {
            Reply::StreamMatches {
                matches,
                ops_applied,
            } => {
                assert_eq!(ops_applied, 5, "restart lost or replayed extra ops");
                assert_eq!(matches, reference[5], "restart state differs");
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        for &t in &ts[5..] {
            client
                .request(&Request::StreamProcess { tuple: t, session: DEFAULT_SESSION })
                .expect("post-restart process");
        }
        match client.request(&Request::StreamMatches { session: DEFAULT_SESSION }).expect("matches") {
            Reply::StreamMatches { matches, .. } => matches,
            other => panic!("unexpected reply: {other:?}"),
        }
    });
    assert_eq!(rest, *reference.last().unwrap(), "full run differs");
}

#[test]
fn warm_restart_survives_torn_wal_tails_at_every_offset() {
    let (her, ts, _) = system();
    let reference = reference_prefixes(&her, &ts);
    let dir = tempdir("torn_tails");
    let wal = dir.join("stream.wal");
    let snaps = dir.join("snaps");
    let cfg = || ServeConfig {
        wal: Some(wal.clone()),
        snapshot_dir: Some(snaps.clone()),
        snapshot_every_ops: 3,
        ..Default::default()
    };
    let full = stream_through_server(&her, cfg(), &ts);
    assert_eq!(full, *reference.last().unwrap());

    // Count surviving WAL records at each truncation length once, with a
    // plain reader, so the expectation is independent of the server.
    let wal_bytes = std::fs::read(&wal).expect("read wal");
    let records_at = |len: usize| -> u64 {
        let mut frames = her_store::frame::Frames::new(&wal_bytes[..len]);
        let mut n: u64 = 0;
        while let her_store::frame::FrameEvent::Frame { .. } = frames.next_frame() {
            n += 1;
        }
        // The first frame is the WAL magic header, not a record.
        n.saturating_sub(1)
    };
    // The shutdown snapshot holds all 8 ops; a torn WAL tail must never
    // lose state the snapshot already made durable.
    let snap_store = her_store::SnapshotStore::open(&snaps).expect("open snaps");
    let snap = snap_store
        .load_latest()
        .expect("load latest")
        .expect("snapshot written");
    let ck = her_core::StreamCheckpoint::decode(snap.section("stream").expect("section"))
        .expect("decode checkpoint");

    for cut in 0..=wal_bytes.len() {
        let mut torn = wal_bytes.clone();
        torn.truncate(cut);
        std::fs::write(&wal, &torn).expect("write torn wal");
        let expect_ops = records_at(cut).max(ck.ops_applied);
        let got = with_server(&her, cfg(), |client| {
            match client.request(&Request::StreamMatches { session: DEFAULT_SESSION }).expect("matches") {
                Reply::StreamMatches {
                    matches,
                    ops_applied,
                } => {
                    assert_eq!(
                        ops_applied, expect_ops,
                        "cut at {cut}: wrong resume point"
                    );
                    matches
                }
                other => panic!("unexpected reply: {other:?}"),
            }
        });
        assert_eq!(
            got, reference[expect_ops as usize],
            "cut at {cut}: state diverges from uninterrupted run"
        );
        // Restarting rewrites snapshots; re-read the reference checkpoint
        // only if needed (ops only grow, so the max() above stays valid).
        std::fs::write(&wal, &wal_bytes).expect("restore wal");
    }
}

#[test]
fn warm_restart_falls_back_when_newest_snapshot_is_torn() {
    let (her, ts, _) = system();
    let reference = reference_prefixes(&her, &ts);
    let dir = tempdir("torn_snapshot");
    let wal = dir.join("stream.wal");
    let snaps = dir.join("snaps");
    let cfg = || ServeConfig {
        wal: Some(wal.clone()),
        snapshot_dir: Some(snaps.clone()),
        snapshot_every_ops: 2,
        ..Default::default()
    };
    let full = stream_through_server(&her, cfg(), &ts);
    assert_eq!(full, *reference.last().unwrap());

    // Mangle the newest snapshot file at several cut points: truncated
    // (a crash mid-snapshot-write) and bit-flipped (disk corruption).
    let newest = std::fs::read_dir(&snaps)
        .expect("read snaps dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "hsnap"))
        .max()
        .expect("snapshot files");
    let pristine = std::fs::read(&newest).expect("read snapshot");
    let mut variants: Vec<Vec<u8>> = vec![pristine[..pristine.len() / 2].to_vec()];
    let mut flipped = pristine.clone();
    flipped[pristine.len() / 2] ^= 0x40;
    variants.push(flipped);
    for bad in variants {
        std::fs::write(&newest, &bad).expect("write bad snapshot");
        // The WAL is intact, so whatever snapshot generation survives,
        // replay must land on the exact uninterrupted state.
        let got = stream_through_server(&her, cfg(), &[]);
        assert_eq!(got, *reference.last().unwrap(), "fallback diverged");
        std::fs::write(&newest, &pristine).expect("restore snapshot");
    }
}

#[test]
fn chaos_fault_plan_never_hangs_and_never_lies() {
    let (her, ts, _) = system();
    let locals: Vec<Vec<VertexId>> = ts.iter().map(|&t| her.vpair(t)).collect();
    let obs = her_obs::Obs::new();
    let cfg = ServeConfig {
        fault: FaultPlan::chaos(0xC0FFEE),
        obs: Some(obs.clone()),
        ..Default::default()
    };
    with_server(&her, cfg, |client| {
        client.timeout = Duration::from_millis(300);
        client.retry = RetryPolicy {
            attempts: 12,
            base_ms: 1,
            cap_ms: 5,
            seed: 3,
        };
        let mut answered = 0u32;
        for round in 0..4 {
            for (i, &t) in ts.iter().enumerate() {
                match client.request(&Request::Vpair {
                    tuple: t,
                    max_calls: 0,
                    deadline_ms: 0,
                }) {
                    Ok(Reply::Vpair {
                        matches, exhausted, ..
                    }) => {
                        answered += 1;
                        assert_eq!(exhausted, None);
                        assert_eq!(
                            matches, locals[i],
                            "round {round} tuple {i}: wrong answer under faults"
                        );
                    }
                    Ok(other) => panic!("unexpected reply: {other:?}"),
                    // Exhausted retries on a torn/killed/dropped reply are
                    // the taxonomized failure path — allowed.
                    Err(ClientError::Unavailable(_)) => {}
                    Err(other) => panic!("untaxonomized failure: {other:?}"),
                }
            }
        }
        assert!(
            answered >= 16,
            "chaos shed almost everything ({answered}/32 answered); \
             fault plan too hot for the retry budget"
        );
    });
    assert!(
        obs.registry.snapshot().counter("serve.faults_injected") > 0,
        "chaos plan injected nothing"
    );
    let snap = obs.registry.snapshot();
    // The fault plan is keyed by connection id, and a kept connection
    // rolls successive fates of one stream instead of the first fate of
    // many. Fewer connections than requests shows the connections were
    // reused; more than one shows the faults forced reconnects. (Two
    // connections are not the chaos client's: the closer's and the accept
    // loop's wake-up.) A desynchronised frame stream would fail the
    // per-tuple answer check above.
    let (conns, reqs) = (
        snap.counter("serve.connections").saturating_sub(2),
        snap.counter("serve.requests"),
    );
    assert!(
        1 < conns && conns < reqs,
        "{conns} chaos-client connections for {reqs} requests"
    );
}

/// Runs `f` while `server` serves `her`, then shuts it down — the panic
/// handling of `with_server`, for a client that outlives the server.
fn while_serving(her: &Her, server: Server, f: impl FnOnce()) {
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run(her).expect("server run"));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let shut = Client::new(&addr).request(&Request::Shutdown);
        run.join().expect("server thread panicked");
        if let Err(p) = out {
            std::panic::resume_unwind(p);
        }
        assert!(matches!(shut, Ok(Reply::ShuttingDown)), "{shut:?}");
    });
}

/// One client keeps its connection across a server shutdown and a
/// restart on the same port, twice. The connection the old server closed
/// is replaced before the next request is written, so neither the read
/// nor the mutation sent after a restart spends a retry (the policy
/// allows none), and the mutation is applied exactly once.
#[test]
fn a_kept_connection_is_replaced_across_restarts_on_the_same_port() {
    let (her, ts, _) = system();
    let dir = tempdir("restart_same_port");
    let mut cfg = ServeConfig {
        wal: Some(dir.join("stream.wal")),
        idle_poll_ms: 20,
        ..Default::default()
    };
    let first = Server::bind(cfg.clone()).expect("bind");
    cfg.addr = first.local_addr().to_string();
    let mut client = Client::new(&cfg.addr).with_retry(RetryPolicy {
        attempts: 1,
        ..fast_retry()
    });
    while_serving(&her, first, || {
        match client.request(&Request::StreamProcess {
            tuple: ts[0],
            session: DEFAULT_SESSION,
        }) {
            Ok(Reply::StreamApplied { ops_applied: 1, .. }) => {}
            other => panic!("first stream op: {other:?}"),
        }
    });
    let restarted = || Server::bind(cfg.clone()).expect("rebind the same port");
    while_serving(&her, restarted(), || {
        match client.request(&Request::Vpair {
            tuple: ts[0],
            max_calls: 0,
            deadline_ms: 0,
        }) {
            Ok(Reply::Vpair { matches, .. }) => assert_eq!(matches, her.vpair(ts[0])),
            other => panic!("read after a restart: {other:?}"),
        }
    });
    while_serving(&her, restarted(), || {
        match client.request(&Request::StreamProcess {
            tuple: ts[1],
            session: DEFAULT_SESSION,
        }) {
            Ok(Reply::StreamApplied { ops_applied: 2, .. }) => {}
            other => panic!("stream op after a restart: {other:?}"),
        }
        match client.request(&Request::StreamMatches {
            session: DEFAULT_SESSION,
        }) {
            Ok(Reply::StreamMatches {
                matches,
                ops_applied,
            }) => {
                assert_eq!(ops_applied, 2, "a stream op was lost or applied twice");
                assert_eq!(matches, reference_prefixes(&her, &ts[..2])[2]);
            }
            other => panic!("stream matches: {other:?}"),
        }
    });
}

/// A kept-alive peer that never goes idle cannot hold shutdown open: its
/// handler closes the connection after the reply in flight,
/// `Server::run` returns within about two idle polls, and the busy
/// client ends with a taxonomized `Unavailable`, not a hang.
#[test]
fn a_busy_keep_alive_peer_cannot_hold_shutdown_open() {
    let (her, ts, _) = system();
    let idle_poll = Duration::from_millis(100);
    let server = Server::bind(ServeConfig {
        idle_poll_ms: idle_poll.as_millis() as u64,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let (her, ts, addr) = (&her, &ts, &addr);
    let (started, busy_started) = std::sync::mpsc::channel::<()>();
    let down = AtomicBool::new(false);
    let down = &down;
    std::thread::scope(|scope| {
        let run = scope.spawn(move || {
            server.run(her).expect("server run");
            let stopped = Instant::now();
            drop(server); // closes the listener: reconnects are refused
            down.store(true, Ordering::Release);
            stopped
        });
        let busy = scope.spawn(move || {
            let mut client = Client::new(addr).with_retry(fast_retry());
            let give_up = Instant::now() + Duration::from_secs(10);
            let mut served = 0u64;
            // Like a load generator it keeps sending whatever the replies
            // say, until the server is gone.
            loop {
                let gone = down.load(Ordering::Acquire);
                match client.request(&Request::Vpair {
                    tuple: ts[0],
                    max_calls: 0,
                    deadline_ms: 0,
                }) {
                    Ok(Reply::Vpair { .. }) => served += 1,
                    Ok(other) => panic!("unexpected reply: {other:?}"),
                    Err(e) if gone => return (served, e),
                    Err(_) => {}
                }
                if served == 1 {
                    let _ = started.send(());
                }
                // A panic here drops the client, which ends what a server
                // that only checks shutdown when idle never would.
                assert!(
                    Instant::now() < give_up,
                    "shutdown never closed the busy connection"
                );
            }
        });
        // Err only if the busy client failed before its first reply; the
        // assertions below then say so.
        let _ = busy_started.recv();
        let asked = Instant::now();
        let shut = Client::new(addr).request(&Request::Shutdown);
        let stopped = run.join().expect("server thread panicked");
        let (served, err) = busy.join().expect("busy client panicked");
        assert!(matches!(shut, Ok(Reply::ShuttingDown)), "{shut:?}");
        assert!(served >= 1, "the busy client never got a reply: {err:?}");
        assert!(
            stopped - asked < 2 * idle_poll,
            "Server::run took {:?} to stop",
            stopped - asked
        );
        assert!(matches!(err, ClientError::Unavailable(_)), "{err:?}");
    });
}

/// The introspection drill: traced requests reconstruct their span
/// breakdown over the wire, anomalies (decode errors, sheds) land in the
/// flight ring *and* in the durable dump file, and the dump file
/// accumulates across a server restart.
#[test]
fn introspection_traces_requests_and_dumps_anomalies() {
    let (her, ts, _) = system();
    let dir = tempdir("introspection");
    let flight_path = dir.join("flight.hlog");

    // Phase 1: a healthy server. One budget-exhausted request, one full
    // request, one undecodable payload (deterministic DECODE anomaly).
    let obs = her_obs::Obs::new();
    let cfg = ServeConfig {
        obs: Some(obs.clone()),
        flight_path: Some(flight_path.clone()),
        ..Default::default()
    };
    with_server(&her, cfg, |client| {
        let addr = client.addr().to_owned();

        // A budget-exhausted request records its spend and reason. It goes
        // first: a fresh server's pool is empty, so this checkout builds a
        // cold matcher, and only a cold matcher is certain to spend the
        // budget on a fresh call (see
        // `warm_matcher_answers_a_capped_request_from_its_cache`).
        match client
            .request(&Request::Vpair {
                tuple: ts[1],
                max_calls: 1,
                deadline_ms: 0,
            })
            .expect("exhausted vpair")
        {
            Reply::Vpair { exhausted, .. } => assert!(exhausted.is_some()),
            other => panic!("unexpected reply: {other:?}"),
        }

        let traced = match client
            .request(&Request::Vpair {
                tuple: ts[0],
                max_calls: 0,
                deadline_ms: 0,
            })
            .expect("vpair")
        {
            Reply::Vpair { trace_id, .. } => trace_id,
            other => panic!("unexpected reply: {other:?}"),
        };
        assert_ne!(traced, 0, "data-plane requests must carry an id");

        // The span breakdown reconstructs over the wire: request scope,
        // queue wait, execution, and the matcher's own vpair span.
        match client
            .request(&Request::Trace { trace_id: traced })
            .expect("trace")
        {
            Reply::Trace { events, .. } => {
                let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
                for expected in ["serve.req", "serve.queue", "serve.exec", "vpair"] {
                    assert!(
                        names.contains(&expected),
                        "span {expected:?} missing from {names:?}"
                    );
                }
                assert!(
                    events.iter().all(|e| e.trace_id == traced),
                    "foreign events leaked into the trace"
                );
            }
            other => panic!("unexpected reply: {other:?}"),
        }

        // A valid frame holding garbage is a deterministic decode
        // anomaly: answered as usage, recorded, and dumped.
        {
            use std::io::Write as _;
            let mut raw = std::net::TcpStream::connect(&addr).expect("connect raw");
            raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            her_serve::proto::write_message(&mut raw, b"not a request").expect("send");
            raw.flush().unwrap();
            let payload = her_serve::proto::read_message(&mut raw).expect("reply");
            match Reply::decode(&payload).expect("decode reply") {
                Reply::Error { code, .. } => {
                    assert_eq!(code, her_serve::proto::code::USAGE)
                }
                other => panic!("unexpected reply: {other:?}"),
            }
        }

        // The flight ring, read over the wire, explains all of the above.
        let records = match client.request(&Request::Flight).expect("flight") {
            Reply::Flight { records } => records,
            other => panic!("unexpected reply: {other:?}"),
        };
        let full = records
            .iter()
            .find(|r| r.trace_id == traced)
            .expect("traced request in the ring");
        assert_eq!(full.op, 1, "vpair op class");
        assert_eq!((full.exhaust, full.anomaly), (0, 0));
        assert!(
            records.iter().any(|r| r.exhaust != 0 && r.calls >= 1),
            "exhausted request not recorded: {records:?}"
        );
        assert!(
            records.iter().any(|r| r.anomaly != 0),
            "decode anomaly not recorded: {records:?}"
        );

        // The text exposition answers with the stable grammar.
        match client.request(&Request::Expo).expect("expo") {
            Reply::Expo { text } => {
                assert!(text.starts_with("# her-expo/v1"), "bad header: {text}");
                assert!(
                    text.contains("counter serve.req.minted "),
                    "minted counter missing:\n{text}"
                );
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    });
    let snap = obs.registry.snapshot();
    assert!(snap.counter("serve.req.minted") >= 3);
    assert_eq!(
        snap.counter("serve.req.sampled"),
        snap.counter("serve.req.minted"),
        "the default samples 1-in-1"
    );
    assert!(snap.counter("flight.anomalies") >= 1);
    assert_eq!(snap.counter("flight.dumps"), snap.counter("flight.anomalies"));

    // Phase 2: a saturated restart. Every request sheds; the shed still
    // mints an id, records SHED, and appends to the *same* dump file.
    let obs2 = her_obs::Obs::new();
    let cfg2 = ServeConfig {
        max_inflight: 0,
        max_queue: 0,
        obs: Some(obs2.clone()),
        flight_path: Some(flight_path.clone()),
        ..Default::default()
    };
    with_server(&her, cfg2, |client| {
        client.retry = RetryPolicy {
            attempts: 1,
            ..fast_retry()
        };
        let err = client
            .request(&Request::Vpair {
                tuple: ts[0],
                max_calls: 0,
                deadline_ms: 0,
            })
            .expect_err("saturated server answered");
        assert!(matches!(err, ClientError::Unavailable(_)), "{err:?}");

        let records = match client.request(&Request::Flight).expect("flight") {
            Reply::Flight { records } => records,
            other => panic!("unexpected reply: {other:?}"),
        };
        let shed = records
            .iter()
            .find(|r| r.anomaly & 1 != 0)
            .expect("shed record in the ring");
        // The shed request's trace reconstructs why it was turned away.
        match client
            .request(&Request::Trace {
                trace_id: shed.trace_id,
            })
            .expect("trace shed")
        {
            Reply::Trace { events, .. } => {
                let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
                for expected in ["serve.req", "serve.queue", "serve.shed"] {
                    assert!(
                        names.contains(&expected),
                        "shed trace missing {expected:?}: {names:?}"
                    );
                }
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    });

    // The dump file survives the restart and holds both phases' story.
    let (dumps, damage) = her_serve::flight_dump::read_dumps(&flight_path).expect("read dumps");
    assert!(damage.is_empty(), "{damage:?}");
    assert!(
        dumps.iter().any(|d| d.record.anomaly & 4 != 0),
        "phase-1 decode dump missing"
    );
    let shed_dump = dumps
        .iter()
        .find(|d| d.record.anomaly & 1 != 0)
        .expect("phase-2 shed dump missing");
    assert!(
        shed_dump.events.iter().any(|e| e.name == "serve.shed"),
        "shed dump lost its trace events: {:?}",
        shed_dump.events
    );
}

/// Fresh per-test scratch directory under the target tmpdir.
fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "her_serve_{tag}_{}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
