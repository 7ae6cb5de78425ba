//! End-to-end serving drills through the `her-cli` binary: a served
//! answer equals the local run, overload sheds with exit code 4, budget
//! exhaustion returns sound partials with exit code 3, a `kill -9`'d
//! server warm-restarts from snapshot + WAL to the uninterrupted
//! outcome, seeded reply faults (`--fault-*`) never hang or lie, failing
//! fsyncs (`--iofault-*`) degrade the server to read-only until it heals
//! in place, and flight dumps, traces and the text exposition reach the
//! CLI (`--flight-path`, `her-cli trace`, `query --op flight|expo`).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_her-cli")
}

/// Fresh scratch directory; `export-demo` writes into the process cwd, so
/// every drill gets its own.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("her-serve-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(bin())
        .current_dir(dir)
        .args(args)
        .output()
        .expect("launch her-cli")
}

/// Writes the demo dataset into `dir` and returns the shared flags.
fn demo(dir: &Path) -> Vec<&'static str> {
    let out = run_in(dir, &["export-demo"]);
    assert!(out.status.success(), "export-demo failed: {out:?}");
    vec![
        "--db",
        "orders.csv",
        "--graph",
        "catalogue.nt",
        "--relation",
        "item",
        "--sigma",
        "0.7",
        "--delta",
        "0.3",
        "--k",
        "8",
    ]
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A running `her-cli serve`, killed and reaped on drop so a failed
/// assertion does not leave it running past the test.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `her-cli serve` in `dir` and blocks until its `--port-file`
/// appears, returning the server and the bound address.
fn spawn_server(dir: &Path, common: &[&str], port_file: &str, extra: &[&str]) -> (Server, String) {
    let mut args: Vec<&str> = vec!["serve"];
    args.extend(common);
    args.extend(["--port-file", port_file]);
    args.extend(extra);
    let server = Server(
        Command::new(bin())
            .current_dir(dir)
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn her-cli serve"),
    );
    let path = dir.join(port_file);
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        match fs::read_to_string(&path) {
            Ok(s) if !s.trim().is_empty() => break Some(s.trim().to_owned()),
            _ if Instant::now() >= deadline => break None,
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let Some(addr) = addr else {
        panic!("server never wrote {port_file}");
    };
    (server, addr)
}

fn query(dir: &Path, addr: &str, rest: &[&str]) -> Output {
    let mut args: Vec<&str> = vec!["query", "--addr", addr];
    args.extend(rest);
    run_in(dir, &args)
}

fn shutdown(dir: &Path, addr: &str, mut server: Server) {
    let out = query(dir, addr, &["--op", "shutdown"]);
    assert!(out.status.success(), "shutdown failed: {out:?}");
    let status = server.0.wait().expect("wait for server");
    assert!(status.success(), "server exited uncleanly: {status:?}");
}

/// Client flags for a server whose replies fault: enough attempts, each
/// short, to ride out drops without the default 5 s timeout.
const RETRYING: [&str; 4] = ["--retries", "8", "--timeout-ms", "500"];

fn query_retrying(dir: &Path, addr: &str, rest: &[&str]) -> Output {
    query(dir, addr, &[rest, &RETRYING].concat())
}

/// Shuts down a server whose reply path faults. The shutdown takes
/// effect before its reply's fate is rolled, so only the server's own
/// exit status is asserted.
fn shutdown_faulty(dir: &Path, addr: &str, mut server: Server) {
    let _ = query_retrying(dir, addr, &["--op", "shutdown"]);
    let status = server.0.wait().expect("wait for server");
    assert!(status.success(), "server exited uncleanly: {status:?}");
}

/// The value of counter `name` in a `query --op metrics` JSON snapshot,
/// or `None` when the server never registered it.
fn counter(metrics: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let rest = &metrics[metrics.find(&key)? + key.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn metrics(dir: &Path, addr: &str) -> String {
    let out = query(dir, addr, &["--op", "metrics"]);
    assert!(out.status.success(), "metrics failed: {out:?}");
    stdout(&out)
}

#[test]
fn served_apair_equals_the_local_run() {
    let dir = scratch("parity");
    let common = demo(&dir);

    let mut local_args: Vec<&str> = vec!["apair"];
    local_args.extend(&common);
    let local = run_in(&dir, &local_args);
    assert!(local.status.success(), "local apair failed: {local:?}");
    assert!(!local.stdout.is_empty(), "local apair found no matches");

    let (child, addr) = spawn_server(&dir, &common, "port.txt", &[]);
    let served = query(&dir, &addr, &["--op", "apair"]);
    assert!(served.status.success(), "served apair failed: {served:?}");
    assert_eq!(stdout(&served), stdout(&local));

    shutdown(&dir, &addr, child);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn overloaded_server_sheds_with_exit_code_4() {
    let dir = scratch("shed");
    let common = demo(&dir);

    // Zero in-flight slots and zero queue: every matching request sheds.
    let (child, addr) = spawn_server(
        &dir,
        &common,
        "port.txt",
        &["--max-inflight", "0", "--max-queue", "0"],
    );

    let out = query(&dir, &addr, &["--op", "vpair", "--tuple", "0", "--retries", "2"]);
    assert_eq!(out.status.code(), Some(4), "expected exit 4: {out:?}");
    assert!(out.stdout.is_empty(), "a shed request printed matches");
    assert!(
        stderr(&out).contains("busy"),
        "diagnostic lacks the shed cause: {}",
        stderr(&out)
    );

    // Control-plane requests bypass admission: metrics still answers and
    // records the sheds it witnessed.
    let metrics = query(&dir, &addr, &["--op", "metrics"]);
    assert!(metrics.status.success(), "metrics failed: {metrics:?}");
    assert!(
        stdout(&metrics).contains("serve.shed"),
        "no shed counter in: {}",
        stdout(&metrics)
    );

    shutdown(&dir, &addr, child);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn budget_exhaustion_returns_sound_partials_with_exit_code_3() {
    let dir = scratch("exhaust");
    let common = demo(&dir);
    let (child, addr) = spawn_server(&dir, &common, "port.txt", &[]);

    // The capped request goes first: a fresh server's matcher pool is
    // empty, so it runs on a cold matcher (a warm one would answer the
    // repeat from its verdict cache and never exhaust). One matcher call
    // cannot finish the demo workload: the reply must be a sound partial
    // (subset of the full answer) with exit code 3.
    let capped = query(&dir, &addr, &["--op", "apair", "--max-calls", "1"]);
    assert_eq!(capped.status.code(), Some(3), "expected exit 3: {capped:?}");

    let full = query(&dir, &addr, &["--op", "apair"]);
    assert!(full.status.success(), "full apair failed: {full:?}");
    let full_out = stdout(&full);
    for line in stdout(&capped).lines() {
        assert!(
            full_out.lines().any(|f| f == line),
            "partial line {line:?} not in the full answer"
        );
    }

    shutdown(&dir, &addr, child);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_9_then_warm_restart_equals_the_uninterrupted_run() {
    let dir = scratch("kill9");
    let common = demo(&dir);

    // Uninterrupted reference: one server, three stream ops, no crash.
    let (child, addr) = spawn_server(&dir, &common, "ref-port.txt", &["--wal", "ref.hlog"]);
    let mut mid_ref = String::new();
    for row in ["0", "1", "2"] {
        let out = query(&dir, &addr, &["--op", "stream-process", "--tuple", row]);
        assert!(out.status.success(), "reference op {row} failed: {out:?}");
        if row == "1" {
            let mid = query(&dir, &addr, &["--op", "stream-matches"]);
            assert!(mid.status.success(), "reference mid-read failed: {mid:?}");
            mid_ref = stdout(&mid);
        }
    }
    let final_ref = query(&dir, &addr, &["--op", "stream-matches"]);
    assert!(final_ref.status.success(), "reference read failed: {final_ref:?}");
    shutdown(&dir, &addr, child);

    // Crash run: same ops on a journaled, snapshotting server; SIGKILL
    // after the second op — no flush, no farewell.
    let durable: &[&str] = &[
        "--wal",
        "crash.hlog",
        "--snapshot-dir",
        "snaps",
        "--snapshot-every-ops",
        "2",
    ];
    let (mut victim, addr) = spawn_server(&dir, &common, "crash-port.txt", durable);
    for row in ["0", "1"] {
        let out = query(&dir, &addr, &["--op", "stream-process", "--tuple", row]);
        assert!(out.status.success(), "victim op {row} failed: {out:?}");
    }
    victim.0.kill().expect("kill -9 the server");
    let _ = victim.0.wait();

    // Warm restart on the same WAL + snapshot dir: the acknowledged ops
    // are all there...
    let (child, addr) = spawn_server(&dir, &common, "restart-port.txt", durable);
    let recovered = query(&dir, &addr, &["--op", "stream-matches"]);
    assert!(recovered.status.success(), "recovered read failed: {recovered:?}");
    assert_eq!(stdout(&recovered), mid_ref, "warm restart lost acknowledged ops");

    // ...and finishing the op sequence lands on the uninterrupted outcome.
    let out = query(&dir, &addr, &["--op", "stream-process", "--tuple", "2"]);
    assert!(out.status.success(), "post-restart op failed: {out:?}");
    let finished = query(&dir, &addr, &["--op", "stream-matches"]);
    assert!(finished.status.success(), "final read failed: {finished:?}");
    assert_eq!(stdout(&finished), stdout(&final_ref));

    // The restarted server timed its replay and counted the one stream
    // mutation it applied since.
    let m = metrics(&dir, &addr);
    assert!(counter(&m, "serve.restart_replay_us").is_some(), "no replay time: {m}");
    assert_eq!(counter(&m, "serve.stream_ops"), Some(1), "{m}");

    shutdown(&dir, &addr, child);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn two_sessions_survive_kill_9_independently() {
    let dir = scratch("kill9x2");
    let common = demo(&dir);

    // Two sessions diverge on purpose: session 0 links rows {0, 1},
    // session 7 links rows {1, 2}. Each journals into its own WAL
    // namespace under the same --wal stem.
    let durable: &[&str] = &[
        "--wal",
        "multi.hlog",
        "--snapshot-dir",
        "snaps",
        "--snapshot-every-ops",
        "1",
        "--max-sessions",
        "4",
    ];
    let (mut victim, addr) = spawn_server(&dir, &common, "port.txt", durable);
    for (session, row) in [("0", "0"), ("0", "1"), ("7", "1"), ("7", "2")] {
        let out = query(
            &dir,
            &addr,
            &["--op", "stream-process", "--session", session, "--tuple", row],
        );
        assert!(out.status.success(), "s{session} op {row} failed: {out:?}");
    }
    let read = |addr: &str, session: &str| -> String {
        let out = query(&dir, addr, &["--op", "stream-matches", "--session", session]);
        assert!(out.status.success(), "s{session} read failed: {out:?}");
        stdout(&out)
    };
    let ref_s0 = read(&addr, "0");
    let ref_s7 = read(&addr, "7");
    assert_ne!(ref_s0, ref_s7, "sessions were fed different rows");
    victim.0.kill().expect("kill -9 the server");
    let _ = victim.0.wait();

    // Warm restart discovers both per-session WALs and replays each to
    // its own acknowledged state — no cross-session bleed.
    let (child, addr) = spawn_server(&dir, &common, "restart-port.txt", durable);
    assert_eq!(read(&addr, "0"), ref_s0, "session 0 diverged after kill -9");
    assert_eq!(read(&addr, "7"), ref_s7, "session 7 diverged after kill -9");
    let m = metrics(&dir, &addr);
    assert_eq!(counter(&m, "serve.session.opened"), Some(2), "{m}");

    shutdown(&dir, &addr, child);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn seeded_reply_faults_settle_every_query_on_exit_0_or_4() {
    let dir = scratch("faults");
    let common = demo(&dir);

    // Replies are dropped, delayed, truncated and garbled on a seeded
    // schedule; the retrying client must land every read on exit 0 (the
    // answer) or exit 4 (taxonomized unavailability): never a hang, never
    // a crash, never a second answer to the same question.
    let plan = [
        "--fault-seed",
        "7",
        "--fault-drop",
        "7",
        "--fault-delay",
        "5",
        "--fault-truncate",
        "8",
        "--fault-garble",
        "9",
    ];
    let (child, addr) = spawn_server(&dir, &common, "port.txt", &plan);
    let mut answers: [Option<String>; 3] = Default::default();
    let mut answered = 0;
    for _round in 0..4 {
        for (row, first) in answers.iter_mut().enumerate() {
            let row = row.to_string();
            let out = query_retrying(&dir, &addr, &["--op", "vpair", "--tuple", &row]);
            match out.status.code() {
                Some(0) => {
                    answered += 1;
                    let got = stdout(&out);
                    let want = first.get_or_insert_with(|| got.clone());
                    assert_eq!(*want, got, "tuple {row} answered two ways");
                }
                Some(4) => {}
                _ => panic!("tuple {row}: unexpected exit: {out:?}"),
            }
        }
    }
    assert!(answered >= 6, "only {answered}/12 answered");
    let m = query_retrying(&dir, &addr, &["--op", "metrics"]);
    assert!(m.status.success(), "metrics failed: {m:?}");
    assert!(counter(&stdout(&m), "serve.faults_injected") > Some(0), "{m:?}");
    shutdown_faulty(&dir, &addr, child);

    // `--fault-drop 1` alone drops every reply: even a ping times out on
    // each attempt and surfaces as exit 4.
    let (mute, addr) = spawn_server(&dir, &common, "mute-port.txt", &["--fault-drop", "1"]);
    let out = query(&dir, &addr, &["--op", "ping", "--retries", "2", "--timeout-ms", "100"]);
    assert_eq!(out.status.code(), Some(4), "a dropped ping answered: {out:?}");
    drop(mute);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn failing_fsyncs_degrade_to_read_only_then_self_heal_in_place() {
    let dir = scratch("chaos");
    let common = demo(&dir);

    // The WAL header sync is fsync #1 and each journaled op costs one
    // more, so ops 0-1 land (#2, #3) and the window opens under op 2: its
    // first try plus 2 in-place retries burn #4-#6, then thirty failed
    // probes 100 ms apart burn #7-#36 and the server heals in about 3 s:
    // room for the degraded-phase queries below on a loaded host.
    let chaos = [
        "--wal",
        "chaos.hlog",
        "--iofault-fsync-from",
        "4",
        "--iofault-fsync-count",
        "33",
        "--wal-retries",
        "2",
        "--probe-interval-ms",
        "100",
    ];
    let (child, addr) = spawn_server(&dir, &common, "port.txt", &chaos);
    let health = || query(&dir, &addr, &["--op", "health"]);
    let process = |row: &str, retries: &str| {
        query(
            &dir,
            &addr,
            &["--op", "stream-process", "--tuple", row, "--retries", retries],
        )
    };
    let before = health();
    assert!(before.status.success(), "health before the fault: {before:?}");
    assert!(stdout(&before).starts_with("healthy"), "{before:?}");

    // Mutations land until the window opens; the one it hits is refused
    // with exit 4 (never acknowledged-then-lost), after at least one ack.
    let rows = ["0", "1", "2"];
    let refused = rows
        .into_iter()
        .find(|row| {
            let out = process(row, "2");
            assert!(matches!(out.status.code(), Some(0 | 4)), "op {row}: {out:?}");
            !out.status.success()
        })
        .expect("the fsync window never opened");
    assert_ne!(refused, "0", "no op was acknowledged before the window");

    // Readiness says degraded (exit 4) and names the journal failure;
    // the state line still prints because the server answered.
    let degraded = health();
    assert_eq!(degraded.status.code(), Some(4), "{degraded:?}");
    let line = stdout(&degraded);
    assert!(
        line.starts_with("degraded") && line.contains("wal append failed"),
        "health while degraded: {line}"
    );
    // Reads and liveness keep answering from memory...
    let reads = query(&dir, &addr, &["--op", "stream-matches"]);
    assert!(reads.status.success() && !reads.stdout.is_empty(), "{reads:?}");
    let ping = query(&dir, &addr, &["--op", "ping"]);
    assert!(ping.status.success(), "ping while degraded: {ping:?}");
    // ...while further mutations are refused up front, not half-applied.
    let again = process(refused, "1");
    assert_eq!(again.status.code(), Some(4), "{again:?}");

    // The prober burns through the window and heals the server in
    // place: same process, no restart, no replay.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !health().status.success() {
        assert!(Instant::now() < deadline, "the server never healed");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(stdout(&health()).starts_with("healthy"));
    for row in rows.into_iter().skip_while(|row| *row != refused) {
        let out = process(row, "4");
        assert!(out.status.success(), "op {row} after the heal: {out:?}");
    }
    let healed = query(&dir, &addr, &["--op", "stream-matches"]);
    assert!(healed.status.success(), "{healed:?}");
    let m = metrics(&dir, &addr);
    assert_eq!(counter(&m, "serve.health.degraded"), Some(1), "{m}");
    assert_eq!(counter(&m, "serve.health.heals"), Some(1), "{m}");
    assert_eq!(counter(&m, "store.iofault.fsync_failures"), Some(33), "{m}");
    assert_eq!(counter(&m, "store.iofault.retries"), Some(2), "{m}");
    shutdown(&dir, &addr, child);

    // The chaos session equals a clean one: no acknowledged op lost, no
    // refused op fabricated.
    let (child, addr) = spawn_server(&dir, &common, "ref-port.txt", &["--wal", "ref.hlog"]);
    for row in rows {
        let out = query(&dir, &addr, &["--op", "stream-process", "--tuple", row]);
        assert!(out.status.success(), "reference op {row} failed: {out:?}");
    }
    let reference = query(&dir, &addr, &["--op", "stream-matches"]);
    assert_eq!(stdout(&healed), stdout(&reference));
    shutdown(&dir, &addr, child);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flight_dumps_traces_and_exposition_reach_the_cli() {
    let dir = scratch("obs");
    let common = demo(&dir);

    // A traced server with durable flight dumps and seeded reply faults.
    let plan = [
        "--flight-path",
        "flight.hlog",
        "--fault-seed",
        "7",
        "--fault-drop",
        "9",
        "--fault-truncate",
        "11",
    ];
    let (child, addr) = spawn_server(&dir, &common, "port.txt", &plan);
    let ops: [&[&str]; 4] = [
        &["--op", "vpair", "--tuple", "0"],
        &["--op", "vpair", "--tuple", "1"],
        &["--op", "vpair", "--tuple", "2"],
        &["--op", "apair"],
    ];
    for op in ops {
        let out = query_retrying(&dir, &addr, op);
        assert!(out.status.success(), "{op:?} under faults: {out:?}");
    }
    // Request ids are minted from 1, so the first data request's span
    // tree is addressable without parsing server output.
    let mut trace_args = vec!["trace", "1", "--addr", &addr];
    trace_args.extend(RETRYING);
    let trace = run_in(&dir, &trace_args);
    assert!(trace.status.success(), "trace 1: {trace:?}");
    for span in ["serve.req", "serve.exec"] {
        assert!(stdout(&trace).contains(span), "no {span} in: {}", stdout(&trace));
    }
    let expo = query_retrying(&dir, &addr, &["--op", "expo"]);
    assert!(expo.status.success(), "expo: {expo:?}");
    // The grammar itself is her-obs's `text_exposition_follows_its_grammar`;
    // a traced serving process must always expose these lines.
    let text = stdout(&expo);
    assert!(text.starts_with("# her-expo/v1\n"), "{text}");
    for required in [
        "counter flight.records ",
        "counter serve.connections ",
        "counter serve.req.minted ",
        "counter serve.req.sampled ",
        "counter serve.requests ",
        "hist serve.req.exec_us ",
        "hist serve.req.queue_wait_us ",
        "hist serve.request_us ",
    ] {
        assert!(text.lines().any(|l| l.starts_with(required)), "no `{required}` in:\n{text}");
    }
    shutdown_faulty(&dir, &addr, child);

    // A zero-capacity restart on the same flight.hlog sheds every
    // matching request; the shed lands in the flight recorder as an
    // anomaly and is dumped durably.
    let (child, addr) = spawn_server(
        &dir,
        &common,
        "shed-port.txt",
        &["--flight-path", "flight.hlog", "--max-inflight", "0", "--max-queue", "0"],
    );
    let shed = query(&dir, &addr, &["--op", "vpair", "--tuple", "0", "--retries", "2"]);
    assert_eq!(shed.status.code(), Some(4), "expected exit 4: {shed:?}");
    let flight = query(&dir, &addr, &["--op", "flight"]);
    assert!(flight.status.success(), "flight: {flight:?}");
    let records = stdout(&flight);
    let id = records
        .lines()
        .find(|l| l.split_whitespace().last().is_some_and(|a| a.contains("shed")))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or_else(|| panic!("no shed record in:\n{records}"))
        .to_owned();
    let expo = stdout(&query(&dir, &addr, &["--op", "expo"]));
    for required in ["counter flight.anomalies ", "counter flight.dumps "] {
        assert!(expo.lines().any(|l| l.starts_with(required)), "no `{required}` in:\n{expo}");
    }
    shutdown(&dir, &addr, child);

    // Post-mortem: the server is gone, and the dump alone rebuilds the
    // shed request's span breakdown.
    let dumped = fs::metadata(dir.join("flight.hlog")).map_or(0, |m| m.len());
    assert!(dumped > 0, "no flight dump written");
    let post = run_in(&dir, &["trace", &id, "--dump", "flight.hlog"]);
    assert!(post.status.success(), "trace {id} --dump: {post:?}");
    for span in ["serve.req", "serve.queue", "serve.shed"] {
        assert!(stdout(&post).contains(span), "no {span} in: {}", stdout(&post));
    }

    let _ = fs::remove_dir_all(&dir);
}
