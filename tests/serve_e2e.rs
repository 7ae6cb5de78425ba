//! End-to-end serving drills through the `her-cli` binary: a served
//! answer equals the local run, overload sheds with exit code 4, budget
//! exhaustion returns sound partials with exit code 3, and a `kill -9`'d
//! server warm-restarts from snapshot + WAL to the uninterrupted
//! outcome. Mirrors the CI serve-smoke job.

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

/// Starts `her-cli serve` in `dir` and blocks until its `--port-file`
/// appears, returning the child and the bound address.
fn spawn_server(dir: &Path, common: &[&str], port_file: &str, extra: &[&str]) -> (Child, String) {
    let mut args: Vec<&str> = vec!["serve"];
    args.extend(common);
    args.extend(["--port-file", port_file]);
    args.extend(extra);
    let mut child = Command::new(bin())
        .current_dir(dir)
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn her-cli serve");
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
        // Reap before failing, or the server outlives the test.
        let _ = child.kill();
        let _ = child.wait();
        panic!("server never wrote {port_file}");
    };
    (child, addr)
}

fn query(dir: &Path, addr: &str, rest: &[&str]) -> Output {
    let mut args: Vec<&str> = vec!["query", "--addr", addr];
    args.extend(rest);
    run_in(dir, &args)
}

fn shutdown(dir: &Path, addr: &str, mut child: Child) {
    let out = query(dir, addr, &["--op", "shutdown"]);
    assert!(out.status.success(), "shutdown failed: {out:?}");
    let status = child.wait().expect("wait for server");
    assert!(status.success(), "server exited uncleanly: {status:?}");
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
    victim.kill().expect("kill -9 the server");
    let _ = victim.wait();

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
    victim.kill().expect("kill -9 the server");
    let _ = victim.wait();

    // Warm restart discovers both per-session WALs and replays each to
    // its own acknowledged state — no cross-session bleed.
    let (child, addr) = spawn_server(&dir, &common, "restart-port.txt", durable);
    assert_eq!(read(&addr, "0"), ref_s0, "session 0 diverged after kill -9");
    assert_eq!(read(&addr, "7"), ref_s7, "session 7 diverged after kill -9");

    shutdown(&dir, &addr, child);
    let _ = fs::remove_dir_all(&dir);
}
