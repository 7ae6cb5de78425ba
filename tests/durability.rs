//! End-to-end durability drills through the `her-cli` binary: kill a
//! journaled stream session mid-run and resume it from its WAL, survive a
//! torn tail, refuse corrupt durable state with exit code 1 and a
//! one-line diagnostic, and checkpoint a parallel `apair` without
//! changing its answer.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_her-cli")
}

/// Fresh scratch directory; `export-demo` writes into the process cwd, so
/// every drill gets its own.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("her-durability-{tag}-{}", std::process::id()));
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

#[test]
fn killed_stream_session_resumes_from_its_wal_to_the_clean_outcome() {
    let dir = scratch("stream-resume");
    let common = demo(&dir);

    let mut clean_args: Vec<&str> = vec!["stream"];
    clean_args.extend(&common);
    clean_args.extend(["--wal", "clean.hlog"]);
    let clean = run_in(&dir, &clean_args);
    assert!(clean.status.success(), "clean run failed: {clean:?}");
    assert!(!clean.stdout.is_empty(), "clean run found no matches");

    // "Crash" after two journaled operations: a stopped session prints no
    // matches — the WAL is all that survives the kill.
    let mut crash_args: Vec<&str> = vec!["stream"];
    crash_args.extend(&common);
    crash_args.extend(["--wal", "crash.hlog", "--stop-after-ops", "2"]);
    let stopped = run_in(&dir, &crash_args);
    assert!(stopped.status.success(), "stopped run failed: {stopped:?}");
    assert!(stopped.stdout.is_empty(), "stopped run printed matches");
    assert!(
        stderr(&stopped).contains("rerun with the same --wal"),
        "no resume hint: {}",
        stderr(&stopped)
    );

    // A kill can also tear the last record mid-write: chop three bytes.
    let wal = dir.join("crash.hlog");
    let bytes = fs::read(&wal).expect("read WAL");
    fs::write(&wal, &bytes[..bytes.len() - 3]).expect("tear WAL tail");

    // Re-opening truncates the torn tail, replays the clean prefix, and
    // finishes the session — byte-identical output to the clean run.
    let mut resume_args: Vec<&str> = vec!["stream"];
    resume_args.extend(&common);
    resume_args.extend(["--wal", "crash.hlog"]);
    let resumed = run_in(&dir, &resume_args);
    assert!(resumed.status.success(), "resumed run failed: {resumed:?}");
    assert_eq!(stdout(&resumed), stdout(&clean));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_wal_exits_1_with_a_one_line_diagnostic() {
    let dir = scratch("wal-corrupt");
    let common = demo(&dir);

    let mut args: Vec<&str> = vec!["stream"];
    args.extend(&common);
    args.extend(["--wal", "session.hlog"]);
    let clean = run_in(&dir, &args);
    assert!(clean.status.success(), "clean run failed: {clean:?}");

    // Flip a checksum byte of the first record (the 16-byte header frame
    // precedes it; its CRC field sits at bytes 20..24). The frame is still
    // *complete*, so this is data corruption — not a crash artifact — and
    // must be refused rather than silently truncated.
    let wal = dir.join("session.hlog");
    let mut bytes = fs::read(&wal).expect("read WAL");
    bytes[20] ^= 0xFF;
    fs::write(&wal, &bytes).expect("corrupt WAL");

    let out = run_in(&dir, &args);
    assert_eq!(out.status.code(), Some(1), "expected exit 1: {out:?}");
    assert!(out.stdout.is_empty(), "corrupt run printed matches");
    let err = stderr(&out);
    assert_eq!(err.lines().count(), 1, "diagnostic not one line: {err}");
    assert!(
        err.starts_with("her-cli: ") && err.contains("session.hlog"),
        "diagnostic lacks context: {err}"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_directory_is_refused_on_resume() {
    let dir = scratch("ckpt-corrupt");
    let common = demo(&dir);

    fs::create_dir_all(dir.join("ckpt")).expect("create checkpoint dir");
    fs::write(dir.join("ckpt/snap-0000000001.hsnap"), b"garbage").expect("plant bad snapshot");

    let mut args: Vec<&str> = vec!["apair"];
    args.extend(&common);
    args.extend(["--workers", "3", "--checkpoint-dir", "ckpt", "--resume"]);
    let out = run_in(&dir, &args);
    assert_eq!(out.status.code(), Some(1), "expected exit 1: {out:?}");
    assert!(out.stdout.is_empty(), "corrupt resume printed matches");
    let err = stderr(&out);
    // The store warns once per skipped snapshot before the final
    // diagnostic; the *last* line is the CLI's one-line error.
    let last = err.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("her-cli: ") && last.contains("snap-0000000001.hsnap"),
        "diagnostic lacks context: {err}"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_apair_and_empty_dir_resume_match_the_clean_run() {
    let dir = scratch("apair-durable");
    let common = demo(&dir);

    let mut clean_args: Vec<&str> = vec!["apair"];
    clean_args.extend(&common);
    clean_args.extend(["--workers", "3"]);
    let clean = run_in(&dir, &clean_args);
    assert!(clean.status.success(), "clean run failed: {clean:?}");
    assert!(!clean.stdout.is_empty(), "clean run found no matches");

    // Checkpointing must not perturb results…
    let mut durable_args = clean_args.clone();
    durable_args.extend(["--checkpoint-dir", "ckpt"]);
    let durable = run_in(&dir, &durable_args);
    assert!(durable.status.success(), "durable run failed: {durable:?}");
    assert_eq!(stdout(&durable), stdout(&clean));

    // …and --resume over a directory with no snapshot starts fresh.
    let mut resume_args = durable_args.clone();
    resume_args.push("--resume");
    let resumed = run_in(&dir, &resume_args);
    assert!(resumed.status.success(), "resumed run failed: {resumed:?}");
    assert_eq!(stdout(&resumed), stdout(&clean));

    let _ = fs::remove_dir_all(&dir);
}
