//! The storage fault drill: a server whose journal fails under it must
//! reject mutations *before* executing them (nothing acked is ever
//! lost), keep serving reads, and heal itself once the disk recovers —
//! no restart, no replay. A second drill exercises the watchdog reaper
//! that forfeits admission slots pinned by requests stuck past 2× their
//! deadline on a slow device.

use her_core::learn::SearchSpace;
use her_core::params::Thresholds;
use her_core::{Her, HerConfig};
use her_graph::{GraphBuilder, VertexId};
use her_rdb::schema::{RelationSchema, Schema};
use her_rdb::{Database, Tuple, TupleRef, Value};
use her_serve::{Client, ClientError, Reply, Request, RetryPolicy, ServeConfig, Server, State, DEFAULT_SESSION};
use her_store::{FaultVfs, IoFaultPlan};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The stream-test system: 8 item tuples, one entity vertex each.
fn system() -> (Her, Vec<TupleRef>) {
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
    (her, ts)
}

/// Runs `f` against a freshly bound server, then shuts the server down.
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

/// Fresh per-test scratch directory under the target tmpdir.
#[allow(clippy::disallowed_methods, reason = "test scratch directory, outside the Vfs facade")]
fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("her_storage_faults_{tag}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn health_of(client: &mut Client) -> (State, String) {
    match client.request(&Request::Health).expect("health") {
        Reply::Health { state, reason, .. } => (State::from_u8(state), reason),
        other => panic!("unexpected health reply: {other:?}"),
    }
}

fn matches_of(client: &mut Client) -> (Vec<(TupleRef, VertexId)>, u64) {
    match client.request(&Request::StreamMatches { session: DEFAULT_SESSION }).expect("matches") {
        Reply::StreamMatches {
            matches,
            ops_applied,
        } => (matches, ops_applied),
        other => panic!("unexpected matches reply: {other:?}"),
    }
}

/// The full degrade/heal lifecycle against one live server: journal
/// fails → mutations rejected with `Unavailable` (never acked), reads
/// and liveness keep answering, the prober quarantines failed probes,
/// and once the disk recovers the server heals in place. A restart
/// afterwards proves the durable state holds exactly the acked ops.
#[test]
fn degraded_server_rejects_writes_serves_reads_and_self_heals() {
    let (her, ts) = system();
    let dir = tempdir("degrade_heal");
    let wal = dir.join("stream.wal");
    let obs = her_obs::Obs::new();
    let fault = FaultVfs::with_obs(IoFaultPlan::default(), obs.clone());
    let handle = fault.handle();
    let cfg = ServeConfig {
        wal: Some(wal.clone()),
        vfs: Some(Arc::new(fault.clone())),
        obs: Some(obs.clone()),
        wal_retries: 2,
        wal_retry_backoff_ms: 1,
        probe_interval_ms: 20,
        ..Default::default()
    };

    with_server(&her, cfg, |client| {
        client.retry = RetryPolicy {
            attempts: 2,
            base_ms: 1,
            cap_ms: 5,
            seed: 7,
        };
        // Two ops land while the disk is healthy.
        for &t in &ts[..2] {
            match client.request(&Request::StreamProcess { tuple: t, session: DEFAULT_SESSION }) {
                Ok(Reply::StreamApplied { .. }) => {}
                other => panic!("healthy process failed: {other:?}"),
            }
        }
        assert_eq!(health_of(client).0, State::Healthy);

        // The disk starts failing every fsync from the next call on.
        handle.set_plan(IoFaultPlan {
            fail_fsync_from: handle.counts().fsyncs + 1,
            fail_fsync_count: u64::MAX,
            ..IoFaultPlan::default()
        });

        // The mutation must be rejected, not acknowledged-and-lost: the
        // client retries `Unavailable` (honouring retry_after) and then
        // surfaces it.
        match client.request(&Request::StreamProcess { tuple: ts[2], session: DEFAULT_SESSION }) {
            Err(ClientError::Unavailable(reason)) => {
                assert!(
                    reason.contains("read-only"),
                    "rejection should name the read-only state: {reason}"
                );
            }
            other => panic!("expected Unavailable during fault, got {other:?}"),
        }

        // Readiness says degraded with the journal failure as reason...
        let (state, reason) = health_of(client);
        assert_eq!(state, State::Degraded);
        assert!(
            reason.contains("wal append failed"),
            "degraded reason should carry the append error: {reason}"
        );
        // ...while liveness and reads keep answering from memory.
        assert!(matches!(
            client.request(&Request::Ping).expect("ping"),
            Reply::Pong
        ));
        let (m, applied) = matches_of(client);
        assert_eq!(applied, 2, "rejected op must not be applied");
        assert!(!m.is_empty(), "degraded reads must still serve");
        client
            .request(&Request::Vpair { tuple: ts[0], max_calls: 0, deadline_ms: 0 })
            .expect("degraded matching reads must still serve");

        // Let the prober fail at least once (its probe file stays
        // behind as quarantined evidence), then heal the disk.
        let probing = Instant::now();
        while obs.registry.snapshot().counter("serve.health.probe_failures") == 0 {
            assert!(probing.elapsed() < Duration::from_secs(10), "prober never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.heal();

        // The prober notices, reopens the journal, and the server heals
        // itself — same process, no replay.
        let healing = Instant::now();
        loop {
            if health_of(client).0 == State::Healthy {
                break;
            }
            assert!(
                healing.elapsed() < Duration::from_secs(10),
                "server never healed after the disk recovered"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // A quarantined probe file from the failure window remains.
        let leftovers = std::fs::read_dir(&dir)
            .expect("scan dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".probe-"))
            .count();
        assert!(leftovers >= 1, "failed probes should stay quarantined");

        // Post-heal the same mutation round-trips.
        match client.request(&Request::StreamProcess { tuple: ts[2], session: DEFAULT_SESSION }) {
            Ok(Reply::StreamApplied { ops_applied, .. }) => {
                assert_eq!(ops_applied, 3, "healed journal resumed at wrong op");
            }
            other => panic!("post-heal process failed: {other:?}"),
        }
        let (_, applied) = matches_of(client);
        assert_eq!(applied, 3);
        // The whole degrade → reject → heal arc ran over the one
        // connection this client kept: an `Unavailable` refusal is a
        // whole reply, so it never costs a reconnect.
        assert_eq!(obs.registry.snapshot().counter("serve.connections"), 1);
    });

    // The lifecycle left its marks in the registry.
    let snap = obs.registry.snapshot();
    assert_eq!(snap.counter("serve.health.degraded"), 1);
    assert_eq!(snap.counter("serve.health.heals"), 1);
    assert!(snap.counter("store.iofault.retries") >= 2, "in-place retries");
    assert!(snap.counter("serve.health.rejected") >= 1);
    assert!(snap.counter("store.iofault.fsync_failures") >= 3);
    assert!(snap.gauge("serve.health.heal_ms") >= 0.0);
    // The snapshot postdates the clean shutdown, so the state gauge
    // reads Down — the heal itself is in the counters above.
    assert_eq!(snap.gauge("serve.health.state"), 3.0);

    // Warm restart: the durable prefix is exactly the acked ops — the
    // rejected attempt fabricated nothing, the heal lost nothing.
    let cfg = ServeConfig {
        wal: Some(wal),
        obs: Some(obs.clone()),
        ..Default::default()
    };
    with_server(&her, cfg, |client| {
        let (_, applied) = matches_of(client);
        assert_eq!(applied, 3, "restart state differs from acked ops");
    });
    assert!(
        obs.registry.snapshot().counter("serve.restart_replay_us") > 0,
        "the restart did not report its replay cost"
    );
}

/// A request stuck past 2× its deadline on a slow device must not pin
/// its admission slot: the watchdog reaper force-releases it, later
/// requests still get slots, and the server stays consistent.
#[test]
fn watchdog_reaps_requests_stuck_past_twice_their_deadline() {
    let (her, ts) = system();
    let dir = tempdir("watchdog");
    let obs = her_obs::Obs::new();
    // Every write sleeps well past 2× the 40ms default deadline AND past
    // the reap grace floor (MIN_REAP_GRACE), so the horizon is genuinely
    // exceeded rather than landing on its edge.
    let fault = FaultVfs::with_obs(
        IoFaultPlan {
            delay_write_ms: 600,
            ..IoFaultPlan::default()
        },
        obs.clone(),
    );
    let cfg = ServeConfig {
        wal: Some(dir.join("stream.wal")),
        vfs: Some(Arc::new(fault)),
        obs: Some(obs.clone()),
        default_deadline_ms: 40,
        max_inflight: 1,
        ..Default::default()
    };

    with_server(&her, cfg, |client| {
        // The slow mutation completes (the device is slow, not broken)
        // — but long before it does, the reaper has forfeited its slot.
        match client.request(&Request::StreamProcess { tuple: ts[0], session: DEFAULT_SESSION }) {
            Ok(Reply::StreamApplied { ops_applied, .. }) => assert_eq!(ops_applied, 1),
            other => panic!("slow process failed: {other:?}"),
        }
        // The server still admits and serves new work afterwards.
        match client.request(&Request::StreamProcess { tuple: ts[1], session: DEFAULT_SESSION }) {
            Ok(Reply::StreamApplied { ops_applied, .. }) => assert_eq!(ops_applied, 2),
            other => panic!("post-reap process failed: {other:?}"),
        }
        let (_, applied) = matches_of(client);
        assert_eq!(applied, 2);
    });

    let snap = obs.registry.snapshot();
    assert!(
        snap.counter("serve.health.reaped") >= 1,
        "reaper should have force-expired the stuck request"
    );
    assert!(snap.counter("store.iofault.delays") >= 1);
}
