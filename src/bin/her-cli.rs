//! `her-cli` — link a CSV relation against an N-Triples graph from the
//! command line.
//!
//! ```text
//! her-cli apair  --db orders.csv --graph catalogue.nt [options]
//! her-cli vpair  --db orders.csv --graph catalogue.nt --tuple 0
//! her-cli spair  --db orders.csv --graph catalogue.nt --tuple 0 --vertex 12
//! her-cli stream --db orders.csv --graph catalogue.nt --wal session.hlog
//! her-cli serve  --db orders.csv --graph catalogue.nt --addr 127.0.0.1:0 \
//!                --wal serve.hlog --snapshot-dir snaps --port-file port.txt
//! her-cli query  --addr 127.0.0.1:4100 --op vpair --tuple 0
//! her-cli top    --addr 127.0.0.1:4100 --interval-ms 1000 --iterations 5
//! her-cli trace 42 --addr 127.0.0.1:4100      # or --dump flight.hlog
//! her-cli export-demo          # writes a demo orders.csv + catalogue.nt
//!
//! options:
//!   --annotations FILE   CSV of row,vertex,label for supervised training
//!   --sigma S --delta D --k K    thresholds (default 0.8 / 2.1 / 20)
//!   --relation NAME      relation name for the CSV (default "record")
//!   --max-calls N        abort matching after N recursive calls
//!   --deadline-ms MS     abort matching after MS milliseconds
//!   --workers N          parallel apair/vpair over N BSP workers
//!   --checkpoint-dir DIR durable apair: snapshot BSP state into DIR
//!   --checkpoint-every-supersteps N    snapshot cadence (default 1)
//!   --resume             re-enter the run from the newest valid snapshot
//!   --stop-after-supersteps N    stop (checkpointed) after N supersteps
//!   --wal FILE           stream/serve: journal + replay the session's WAL
//!   --stop-after-ops N   stream: exit (journaled) after N operations
//!   --metrics-out FILE   write a metrics snapshot (JSON) at exit
//!   --trace              echo span enter/exit events to stderr
//!   -v / -vv             info / debug diagnostics (quiet by default)
//!
//! serve options:
//!   --addr HOST:PORT     bind address (default 127.0.0.1:0 = ephemeral)
//!   --port-file FILE     write the bound address for scripts to discover
//!   --max-inflight N     concurrent requests admitted (default 4); also
//!                        the warm matchers kept for vpair/apair requests
//!   --max-queue N        requests that may wait for a slot (default 16)
//!   --deadline-ms MS     serve: default per-request deadline
//!   --snapshot-dir DIR   checkpoint-backed warm restart state
//!   --snapshot-every-ops N    snapshot cadence (default 8)
//!   --max-sessions N     stream sessions servable at once (default 4;
//!                        each gets its own WAL + snapshot namespace)
//!   --fault-seed N --fault-drop N --fault-delay N --fault-delay-ms MS
//!   --fault-truncate N --fault-garble N --fault-kill N
//!                        seeded reply-path fault plan (1-in-N; 0 = off)
//!   --iofault-seed N --iofault-fsync-from N --iofault-fsync-count N
//!   --iofault-enospc-after BYTES --iofault-torn-at N
//!   --iofault-read-eio N --iofault-delay-write-ms MS
//!                        seeded storage fault plan routed under the WAL
//!                        and snapshot store (chaos drills; 0 = off)
//!   --wal-retries N      in-place WAL append retries before the server
//!                        degrades to read-only (default 3)
//!   --probe-interval-ms MS    degraded-state storage probe cadence
//!                        (default 200)
//!   --trace-sample N     buffer spans for 1-in-N requests (default 1 = all,
//!                        0 = off; ids are minted either way)
//!   --flight-path FILE   dump anomalous flight records durably to FILE
//!
//! query options:
//!   --addr HOST:PORT | --port-file FILE    where the server listens
//!   --op OP              vpair|apair|stream-process|stream-retract|
//!                        stream-matches|metrics|ping|shutdown|
//!                        trace|flight|expo|health
//!                        (health is the readiness probe: exit 0 only
//!                        while the server accepts writes; a degraded
//!                        read-only server prints its state and reason
//!                        and exits 4)
//!   --tuple N / --vertex N    operands for vpair / stream ops
//!   --session N          stream session to address (default 0, the one
//!                        plain --wal restarts resume)
//!   --id N               trace id for --op trace
//!   --format table|json  metrics rendering (default json; keys are
//!                        deterministically sorted either way)
//!   --max-calls N --deadline-ms MS         per-request budget
//!   --timeout-ms MS      per-attempt socket timeout (default 5000)
//!   --retries N          total attempts incl. the first (default 4)
//!   --retry-seed N       jitter seed for reproducible backoff
//!
//! top options (plus --addr/--port-file/--timeout-ms as for query):
//!   --interval-ms MS     sampling interval (default 1000)
//!   --iterations N       lines to print before exiting (default 5; 0 = forever)
//!
//! trace options: a trace id (positional or --id N), plus either
//!   --addr/--port-file to read a live server, or --dump FILE to
//!   reconstruct from a flight-recorder dump with no server running.
//! ```
//!
//! Exit codes: `0` success, `1` data error (unreadable/unparsable input),
//! `2` usage error (an unknown flag among them), `3` budget exhausted
//! (partial results printed),
//! `4` service unavailable (overloaded/shed or unreachable — retryable).
//!
//! Diagnostics go to stderr through [`her::obs::log`]; match output on
//! stdout is stable across verbosity levels. With `--metrics-out` (or
//! `-v`) the run's [`her::obs::Registry`] snapshot — `paramatch.*` cache
//! and early-termination counters, `bsp.*` superstep timings when
//! `--workers` is set — is serialized/summarised at exit, including when
//! the run ends in budget exhaustion.

use her::core::learn::SearchSpace;
use her::core::params::Thresholds;
use her::core::{Budget, MatcherOptions};
use her::error::read_file;
use her::obs::info;
use her::prelude::*;
use her::rdb::load::database_from_csv;
use her::rdb::TupleRef;
use her::HerError;
use std::collections::HashMap;
use std::process::exit;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        exit(2);
    };
    let opts = match parse_flags(&args[1..]) {
        Ok(opts) => opts,
        Err(e) => fail(e),
    };
    her::obs::log::set_verbosity(if opts.contains_key("vv") {
        2
    } else if opts.contains_key("v") {
        1
    } else {
        0
    });

    let outcome = match command.as_str() {
        "export-demo" => export_demo(),
        "spair" | "vpair" | "apair" | "stream" | "serve" => run(command, &opts),
        "query" => query(&opts),
        "top" => top(&opts),
        "trace" => {
            // `her-cli trace 42` — the id may ride positionally.
            let mut opts = opts;
            if let Some(first) = args.get(1) {
                if !first.starts_with('-') && !opts.contains_key("id") {
                    opts.insert("id".to_owned(), first.clone());
                }
            }
            trace_cmd(&opts)
        }
        _ => Err(HerError::Usage(format!("unknown command {command:?}"))),
    };
    if let Err(e) = outcome {
        fail(e);
    }
}

/// Reports `e` (with the usage text for a usage error) and exits with
/// its code.
fn fail(e: HerError) -> ! {
    eprintln!("her-cli: {e}");
    if matches!(e, HerError::Usage(_)) {
        usage();
    }
    exit(e.exit_code());
}

fn usage() {
    eprintln!(
        "usage: her-cli <spair|vpair|apair|stream|serve|query|top|trace|export-demo> --db FILE.csv --graph FILE.nt \\\n\
         \t[--annotations FILE.csv] [--tuple N] [--vertex N] \\\n\
         \t[--sigma S] [--delta D] [--k K] [--relation NAME] \\\n\
         \t[--max-calls N] [--deadline-ms MS] [--workers N] \\\n\
         \t[--checkpoint-dir DIR] [--checkpoint-every-supersteps N] \\\n\
         \t[--resume] [--stop-after-supersteps N] \\\n\
         \t[--wal FILE] [--stop-after-ops N] \\\n\
         \t[--metrics-out FILE] [--trace] [-v | -vv]\n\
       serve: [--addr HOST:PORT] [--port-file FILE] [--max-inflight N] [--max-queue N] \\\n\
         \t[--snapshot-dir DIR] [--snapshot-every-ops N] \\\n\
         \t[--max-sessions N] [--fault-* ...]\n\
       query: --addr HOST:PORT | --port-file FILE  --op OP [--tuple N] [--vertex N] \\\n\
         \t[--session N] [--id N] [--format table|json] \\\n\
         \t[--max-calls N] [--deadline-ms MS] [--timeout-ms MS] [--retries N] [--retry-seed N]\n\
       top:   --addr HOST:PORT | --port-file FILE  [--interval-ms MS] [--iterations N]\n\
       trace: ID (--addr HOST:PORT | --port-file FILE | --dump FILE)"
    );
}

/// Flags that never take a value (everything else pairs `--key value`).
const BOOL_FLAGS: &[&str] = &["trace", "v", "vv", "resume"];

/// Every documented flag that takes a value. Any other `--key` is a
/// usage error, so a typo never runs with the flag silently dropped.
const VALUE_FLAGS: &[&str] = &[
    "db", "graph", "annotations", "tuple", "vertex", "sigma", "delta", "k", "relation",
    "max-calls", "deadline-ms", "workers", "checkpoint-dir", "checkpoint-every-supersteps",
    "stop-after-supersteps", "wal", "stop-after-ops", "metrics-out",
    // serve
    "addr", "port-file", "max-inflight", "max-queue", "snapshot-dir", "snapshot-every-ops",
    "max-sessions", "fault-seed", "fault-drop", "fault-delay", "fault-delay-ms",
    "fault-truncate", "fault-garble", "fault-kill", "iofault-seed", "iofault-fsync-from",
    "iofault-fsync-count", "iofault-enospc-after", "iofault-torn-at", "iofault-read-eio",
    "iofault-delay-write-ms", "wal-retries", "probe-interval-ms", "trace-sample", "flight-path",
    // query, top, trace
    "op", "session", "id", "format", "timeout-ms", "retries", "retry-seed", "interval-ms",
    "iterations", "dump",
];

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, HerError> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].trim_start_matches('-').to_owned();
        let boolean = BOOL_FLAGS.contains(&key.as_str());
        if args[i].starts_with('-') && !boolean && !VALUE_FLAGS.contains(&key.as_str()) {
            return Err(HerError::Usage(format!("unknown flag {:?}", args[i])));
        }
        if !boolean && i + 1 < args.len() && !args[i + 1].starts_with('-') {
            out.insert(key, args[i + 1].clone());
            i += 2;
        } else {
            out.insert(key, String::new());
            i += 1;
        }
    }
    Ok(out)
}

fn required(opts: &HashMap<String, String>, key: &str) -> Result<String, HerError> {
    opts.get(key)
        .cloned()
        .ok_or_else(|| HerError::Usage(format!("missing required flag --{key}")))
}

/// Parses a numeric flag, turning parse failures into usage errors.
fn numeric<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, HerError> {
    value
        .parse()
        .map_err(|_| HerError::Usage(format!("--{flag} expects a number, got {value:?}")))
}

/// Pre-registers the stable metric namespace so a snapshot always carries
/// the headline keys (zero-valued when the corresponding path never ran).
fn preregister(obs: &her::obs::Obs) {
    let r = &obs.registry;
    for name in [
        "paramatch.calls",
        "paramatch.cache_hits",
        "paramatch.ecache_hits",
        "paramatch.early_terminations",
        "paramatch.exhausted",
        "bsp.supersteps",
        "bsp.worker_deaths",
        "bsp.recoveries",
        "scores.embed_calls",
        "scores.shared_hits",
    ] {
        r.counter(name);
    }
    r.gauge("paramatch.cache_hit_rate");
    r.histogram("bsp.superstep.busy_us");
    r.histogram("bsp.superstep.skew_us");
    r.histogram("bsp.superstep.messages");
}

/// Exit-time telemetry: derive summary gauges, optionally write the JSON
/// snapshot, and (at `-v`) print the non-zero metrics table to stderr.
/// Runs even when the match ended in budget exhaustion, so the partial
/// run's telemetry survives.
fn finish_metrics(
    obs: &her::obs::Obs,
    opts: &HashMap<String, String>,
) -> Result<(), HerError> {
    // The registry mirrors `MatchStats` (aggregated across all matchers
    // of the run, sequential or per-worker), so the hit rate derives from
    // the shared counters — same definition as `MatchStats::cache_hit_rate`.
    let pre = obs.registry.snapshot();
    let hits = pre.counter("paramatch.cache_hits");
    let total = hits + pre.counter("paramatch.calls");
    obs.registry.gauge("paramatch.cache_hit_rate").set(if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    });
    let snap = obs.registry.snapshot();
    if let Some(path) = opts.get("metrics-out") {
        std::fs::write(path, snap.to_json()).map_err(|source| HerError::Io {
            path: path.into(),
            source,
        })?;
        info!("wrote metrics snapshot to {path}");
    }
    if her::obs::log::verbosity() >= 1 {
        eprint!("{}", snap.summary_table());
    }
    Ok(())
}

fn run(mode: &str, opts: &HashMap<String, String>) -> Result<(), HerError> {
    let db_path = required(opts, "db")?;
    let graph_path = required(opts, "graph")?;
    let relation = opts
        .get("relation")
        .cloned()
        .unwrap_or_else(|| "record".to_owned());

    let obs = her::obs::Obs::new();
    obs.tracer.set_echo(opts.contains_key("trace"));
    preregister(&obs);

    let load_span = obs.tracer.span("cli.load");
    let csv_text = read_file(&db_path)?;
    let db = database_from_csv(&relation, &csv_text).map_err(|source| HerError::Load {
        path: db_path.clone().into(),
        source,
    })?;
    let nt_text = read_file(&graph_path)?;
    let (g, interner) = her::graph::ntriples::import(&nt_text).map_err(|source| {
        HerError::Graph {
            path: graph_path.clone().into(),
            source,
        }
    })?;
    drop(load_span);
    let tuple_count = db.tuple_count();
    let vertex_count = g.vertex_count();
    info!(
        "loaded {} tuples, graph with {} vertices / {} edges",
        tuple_count,
        vertex_count,
        g.edge_count()
    );

    let thresholds = Thresholds::new(
        match opts.get("sigma") {
            Some(s) => numeric(s, "sigma")?,
            None => 0.8,
        },
        match opts.get("delta") {
            Some(s) => numeric(s, "delta")?,
            None => 2.1,
        },
        match opts.get("k") {
            Some(s) => numeric(s, "k")?,
            None => 20,
        },
    );
    let cfg = HerConfig {
        thresholds,
        ..Default::default()
    };
    let build_span = obs.tracer.span("cli.build");
    let mut system = Her::build(&db, g, interner, &cfg);
    drop(build_span);

    // Resource governance: an optional call/deadline budget turns runaway
    // matchings into exit code 3 (with sound partial results printed)
    // instead of an unbounded run.
    let mut budget = Budget::unlimited();
    if let Some(n) = opts.get("max-calls") {
        budget = budget.with_max_calls(numeric(n, "max-calls")?);
    }
    if let Some(ms) = opts.get("deadline-ms") {
        budget = budget.with_deadline_in(Duration::from_millis(numeric(ms, "deadline-ms")?));
    }
    let matcher_opts = MatcherOptions {
        budget,
        obs: Some(obs.clone()),
        ..Default::default()
    };

    // Parallel execution: --workers routes apair/vpair through the BSP
    // engine. The per-worker matchers have no budget hook, so budget
    // flags combined with --workers are a usage error rather than a
    // silent no-op.
    let workers: Option<usize> = match opts.get("workers") {
        Some(w) => Some(numeric(w, "workers")?),
        None => None,
    };
    if workers.is_some() && (opts.contains_key("max-calls") || opts.contains_key("deadline-ms"))
    {
        return Err(HerError::Usage(
            "--workers cannot be combined with --max-calls/--deadline-ms \
             (budgets are per-matcher, the BSP engine shards matchers per worker)"
                .to_owned(),
        ));
    }

    // Durability: --checkpoint-dir snapshots the parallel apair run; its
    // companion flags are meaningless without it.
    let checkpoint_dir = opts.get("checkpoint-dir").cloned();
    if checkpoint_dir.is_none() {
        for f in ["resume", "checkpoint-every-supersteps", "stop-after-supersteps"] {
            if opts.contains_key(f) {
                return Err(HerError::Usage(format!("--{f} requires --checkpoint-dir")));
            }
        }
    }
    if checkpoint_dir.is_some() && (mode != "apair" || workers.is_none()) {
        return Err(HerError::Usage(
            "--checkpoint-dir applies to apair with --workers \
             (the durability layer snapshots the BSP engine's barrier state)"
                .to_owned(),
        ));
    }
    if opts.contains_key("stop-after-ops") && mode != "stream" {
        return Err(HerError::Usage(
            "--stop-after-ops applies to stream (its WAL makes the stop resumable)".to_owned(),
        ));
    }

    // Optional supervised training from an annotations CSV: row,vertex,label.
    if let Some(path) = opts.get("annotations") {
        let text = read_file(path)?;
        let ann = parse_annotations(path, &text)?;
        info!("training on {} annotations", ann.len());
        let train_span = obs.tracer.span("cli.train");
        let f = system.learn(&ann, &ann, &cfg, &SearchSpace::default());
        drop(train_span);
        let t = system.params.thresholds;
        info!(
            "validation F = {f:.3}; thresholds sigma={:.2} delta={:.2} k={}",
            t.sigma, t.delta, t.k
        );
    }

    let check_tuple = |row: u32| {
        if (row as usize) < tuple_count {
            Ok(())
        } else {
            Err(HerError::Usage(format!(
                "--tuple {row} out of range: the database has {tuple_count} tuples"
            )))
        }
    };
    let check_vertex = |v: u32| {
        if (v as usize) < vertex_count {
            Ok(())
        } else {
            Err(HerError::Usage(format!(
                "--vertex {v} out of range: the graph has {vertex_count} vertices"
            )))
        }
    };

    let pcfg = |n: usize| her::parallel::ParallelConfig {
        workers: n,
        obs: Some(obs.clone()),
        ..Default::default()
    };

    let result = (|| -> Result<(), HerError> {
        match mode {
            "spair" => {
                let row: u32 = numeric(&required(opts, "tuple")?, "tuple")?;
                let vertex: u32 = numeric(&required(opts, "vertex")?, "vertex")?;
                check_tuple(row)?;
                check_vertex(vertex)?;
                if workers.is_some() {
                    return Err(HerError::Usage(
                        "--workers applies to vpair/apair; spair is a single pair".to_owned(),
                    ));
                }
                let mut m = system.matcher_with(matcher_opts);
                let verdict =
                    system.spair_with(&mut m, TupleRef::new(0, row), VertexId(vertex));
                if let Some(reason) = m.exhausted() {
                    return Err(HerError::Exhausted(reason));
                }
                println!("{verdict}");
            }
            "vpair" => {
                let row: u32 = numeric(&required(opts, "tuple")?, "tuple")?;
                check_tuple(row)?;
                if let Some(n) = workers {
                    let u = system.cg.vertex_of(TupleRef::new(0, row));
                    let (matches, pstats) = her::parallel::pvpair(
                        &system.cg.graph,
                        &system.g,
                        &system.cg.interner,
                        &system.params,
                        u,
                        &pcfg(n),
                    );
                    info!(
                        "parallel vpair: {} supersteps, {} requests",
                        pstats.supersteps, pstats.requests
                    );
                    for v in matches {
                        println!("{v}");
                    }
                    return Ok(());
                }
                let run = system.try_vpair(TupleRef::new(0, row), matcher_opts);
                for v in &run.matches {
                    println!("{v}");
                }
                if let Some(reason) = run.exhausted {
                    eprintln!("{} candidates left undecided", run.unresolved.len());
                    return Err(HerError::Exhausted(reason));
                }
            }
            "apair" => {
                if let Some(n) = workers {
                    let mut tuple_vertices: Vec<(TupleRef, VertexId)> =
                        system.cg.tuple_vertices().collect();
                    tuple_vertices.sort();
                    let of_vertex: HashMap<VertexId, TupleRef> =
                        tuple_vertices.iter().map(|&(t, u)| (u, t)).collect();
                    let us: Vec<VertexId> =
                        tuple_vertices.iter().map(|&(_, u)| u).collect();
                    let (matches, pstats, completed) = match &checkpoint_dir {
                        Some(dir) => {
                            let durability = her::parallel::DurabilityConfig {
                                dir: dir.into(),
                                every_supersteps: match opts
                                    .get("checkpoint-every-supersteps")
                                {
                                    Some(s) => numeric(s, "checkpoint-every-supersteps")?,
                                    None => 1,
                                },
                                resume: opts.contains_key("resume"),
                                stop_after_supersteps: match opts
                                    .get("stop-after-supersteps")
                                {
                                    Some(s) => Some(numeric(s, "stop-after-supersteps")?),
                                    None => None,
                                },
                            };
                            let run = her::parallel::pallmatch_durable(
                                &system.cg.graph,
                                &system.g,
                                &system.cg.interner,
                                &system.params,
                                &us,
                                &pcfg(n),
                                &durability,
                            )?;
                            if let Some(generation) = run.resumed_from {
                                info!("resumed from snapshot generation {generation}");
                            }
                            info!(
                                "{} checkpoints, {} bytes, {:.1} ms",
                                run.stats.checkpoints,
                                run.stats.checkpoint_bytes,
                                run.stats.checkpoint_secs * 1e3
                            );
                            (run.matches, run.stats, run.completed)
                        }
                        None => {
                            let (matches, pstats) = her::parallel::pallmatch(
                                &system.cg.graph,
                                &system.g,
                                &system.cg.interner,
                                &system.params,
                                &us,
                                &pcfg(n),
                            );
                            (matches, pstats, true)
                        }
                    };
                    info!(
                        "parallel apair: {} supersteps, {} requests, {} deaths",
                        pstats.supersteps, pstats.requests, pstats.deaths
                    );
                    if !completed {
                        // A stopped run holds optimistic border assumptions
                        // that only the fixpoint confirms — print nothing
                        // rather than possibly-wrong matches.
                        eprintln!(
                            "her-cli: stopped at superstep {} (checkpointed); \
                             rerun with --resume to finish",
                            pstats.supersteps
                        );
                        return Ok(());
                    }
                    for (u, v) in matches {
                        if let Some(t) = of_vertex.get(&u) {
                            println!("{},{}", t.row, v);
                        }
                    }
                    return Ok(());
                }
                let (matches, exhausted, _) = system.try_apair_stats(matcher_opts);
                for (t, v) in matches {
                    println!("{},{}", t.row, v);
                }
                if let Some(reason) = exhausted {
                    return Err(HerError::Exhausted(reason));
                }
            }
            "serve" => {
                if workers.is_some() {
                    return Err(HerError::Usage(
                        "--workers does not apply to serve (the server threads per \
                         connection and gates concurrency with --max-inflight)"
                            .to_owned(),
                    ));
                }
                let mut scfg = her::serve::ServeConfig {
                    obs: Some(obs.clone()),
                    ..Default::default()
                };
                if let Some(a) = opts.get("addr") {
                    scfg.addr = a.clone();
                }
                if let Some(n) = opts.get("max-inflight") {
                    scfg.max_inflight = numeric(n, "max-inflight")?;
                }
                if let Some(n) = opts.get("max-queue") {
                    scfg.max_queue = numeric(n, "max-queue")?;
                }
                if let Some(ms) = opts.get("deadline-ms") {
                    scfg.default_deadline_ms = numeric(ms, "deadline-ms")?;
                }
                if let Some(n) = opts.get("max-sessions") {
                    scfg.max_sessions = numeric(n, "max-sessions")?;
                }
                scfg.wal = opts.get("wal").map(Into::into);
                scfg.snapshot_dir = opts.get("snapshot-dir").map(Into::into);
                if let Some(n) = opts.get("snapshot-every-ops") {
                    scfg.snapshot_every_ops = numeric(n, "snapshot-every-ops")?;
                }
                if scfg.snapshot_dir.is_some() && scfg.wal.is_none() {
                    return Err(HerError::Usage(
                        "--snapshot-dir requires --wal (snapshots checkpoint the \
                         stream session the WAL journals)"
                            .to_owned(),
                    ));
                }
                let fault_knob = |flag: &str, default: u64| -> Result<u64, HerError> {
                    match opts.get(flag) {
                        Some(v) => numeric(v, flag),
                        None => Ok(default),
                    }
                };
                let fault = her::serve::FaultPlan {
                    seed: fault_knob("fault-seed", 0)?,
                    drop_1_in: fault_knob("fault-drop", 0)?,
                    delay_1_in: fault_knob("fault-delay", 0)?,
                    delay_ms: fault_knob("fault-delay-ms", 10)?,
                    truncate_1_in: fault_knob("fault-truncate", 0)?,
                    garble_1_in: fault_knob("fault-garble", 0)?,
                    kill_1_in: fault_knob("fault-kill", 0)?,
                };
                if !fault.is_inert() {
                    info!("serving with fault plan {fault:?}");
                }
                scfg.fault = fault;
                // Storage faults sit under the WAL/snapshot paths (the
                // reply-path plan above never touches disk). Only build
                // the FaultVfs when a knob is actually set, so the
                // default serve path stays on RealVfs.
                let iofault = her::store::IoFaultPlan {
                    seed: fault_knob("iofault-seed", 1)?,
                    fail_fsync_from: fault_knob("iofault-fsync-from", 0)?,
                    fail_fsync_count: fault_knob("iofault-fsync-count", u64::MAX)?,
                    enospc_after_bytes: fault_knob("iofault-enospc-after", 0)?,
                    torn_write_at: fault_knob("iofault-torn-at", 0)?,
                    eio_read_1_in: fault_knob("iofault-read-eio", 0)?,
                    delay_write_ms: fault_knob("iofault-delay-write-ms", 0)?,
                };
                let iofault_armed = iofault.fail_fsync_from != 0
                    || iofault.enospc_after_bytes != 0
                    || iofault.torn_write_at != 0
                    || iofault.eio_read_1_in != 0
                    || iofault.delay_write_ms != 0;
                if iofault_armed {
                    info!("serving with storage fault plan {iofault:?}");
                    scfg.vfs = Some(std::sync::Arc::new(her::store::FaultVfs::with_obs(
                        iofault,
                        obs.clone(),
                    )));
                }
                if let Some(n) = opts.get("wal-retries") {
                    scfg.wal_retries = numeric(n, "wal-retries")?;
                }
                if let Some(ms) = opts.get("probe-interval-ms") {
                    scfg.probe_interval_ms = numeric(ms, "probe-interval-ms")?;
                }
                if let Some(n) = opts.get("trace-sample") {
                    scfg.trace_sample_1_in = numeric(n, "trace-sample")?;
                }
                scfg.flight_path = opts.get("flight-path").map(Into::into);

                let server = her::serve::Server::bind(scfg).map_err(serve_error)?;
                let addr = server.local_addr();
                if let Some(pf) = opts.get("port-file") {
                    std::fs::write(pf, addr.to_string()).map_err(|source| HerError::Io {
                        path: pf.into(),
                        source,
                    })?;
                }
                // Scripts watch stderr/port-file; stdout stays reserved for
                // match output, consistent with every other command.
                eprintln!("her-cli: serving on {addr}");
                server.run(&system).map_err(serve_error)?;
            }
            "stream" => {
                let wal_path = required(opts, "wal")?;
                if workers.is_some() {
                    return Err(HerError::Usage(
                        "--workers does not apply to stream (sessions are sequential)"
                            .to_owned(),
                    ));
                }
                // Re-opening the WAL replays any previous session's clean
                // prefix (a torn tail from a crash is truncated), then the
                // remaining tuples are journaled and linked one by one.
                let (mut linker, replay) = her::core::stream::DurableStreamLinker::open(
                    &system,
                    &wal_path,
                    Some(obs.clone()),
                )?;
                if replay.records > 0 {
                    info!("replayed {} journaled operations", replay.records);
                }
                if let Some(at) = replay.truncated_at {
                    info!("truncated torn WAL tail at byte {at}");
                }
                // --stop-after-ops simulates a mid-session kill at a chosen
                // point: every operation up to the stop is journaled, so a
                // rerun with the same --wal resumes exactly there.
                let stop_after: Option<usize> = match opts.get("stop-after-ops") {
                    Some(s) => Some(numeric(s, "stop-after-ops")?),
                    None => None,
                };
                let done = linker.processed().len();
                for row in done..tuple_count {
                    if stop_after.is_some_and(|n| linker.processed().len() >= n) {
                        break;
                    }
                    linker.process(TupleRef::new(0, row as u32))?;
                }
                if linker.processed().len() < tuple_count {
                    // A stopped session prints nothing: its matches are a
                    // prefix of the run, and the WAL already holds
                    // everything needed to finish.
                    eprintln!(
                        "her-cli: stopped after {} of {} operations (journaled); \
                         rerun with the same --wal to finish",
                        linker.processed().len(),
                        tuple_count
                    );
                    return Ok(());
                }
                for (t, v) in linker.matches() {
                    println!("{},{}", t.row, v);
                }
            }
            _ => unreachable!(),
        }
        Ok(())
    })();

    finish_metrics(&obs, opts)?;
    result
}

/// Maps server startup/runtime failures into the CLI taxonomy: socket
/// problems are environment ("unavailable"), store problems keep their
/// own variant so the exit code reflects data corruption vs. overload.
fn serve_error(e: her::serve::ServeError) -> HerError {
    match e {
        her::serve::ServeError::Io(source) => {
            HerError::Unavailable(format!("server socket failed: {source}"))
        }
        her::serve::ServeError::Store(source) => HerError::Store(source),
    }
}

/// Resolves the server address from `--addr` or `--port-file`.
fn resolve_addr(opts: &HashMap<String, String>) -> Result<String, HerError> {
    match (opts.get("addr"), opts.get("port-file")) {
        (Some(a), _) => Ok(a.clone()),
        (None, Some(pf)) => Ok(read_file(pf)?.trim().to_owned()),
        (None, None) => Err(HerError::Usage(
            "needs --addr HOST:PORT or --port-file FILE".to_owned(),
        )),
    }
}

/// A client for `addr` honouring the shared retry/timeout flags.
fn make_client(
    opts: &HashMap<String, String>,
    addr: &str,
) -> Result<her::serve::Client, HerError> {
    let mut retry = her::serve::RetryPolicy::default();
    if let Some(n) = opts.get("retries") {
        retry.attempts = numeric(n, "retries")?;
    }
    if let Some(s) = opts.get("retry-seed") {
        retry.seed = numeric(s, "retry-seed")?;
    }
    let mut client = her::serve::Client::new(addr).with_retry(retry);
    if let Some(ms) = opts.get("timeout-ms") {
        client.timeout = Duration::from_millis(numeric(ms, "timeout-ms")?);
    }
    Ok(client)
}

/// `her-cli query`: one request against a running server, standalone —
/// no dataset loading, the server holds the trained system.
fn query(opts: &HashMap<String, String>) -> Result<(), HerError> {
    let addr = resolve_addr(opts)?;
    let op = required(opts, "op")?;
    let format = opts
        .get("format")
        .cloned()
        .unwrap_or_else(|| "json".to_owned());
    if !matches!(format.as_str(), "json" | "table") {
        return Err(HerError::Usage(format!(
            "--format expects table or json, got {format:?}"
        )));
    }
    let mut client = make_client(opts, &addr)?;

    let max_calls: u64 = match opts.get("max-calls") {
        Some(n) => numeric(n, "max-calls")?,
        None => 0,
    };
    let deadline_ms: u64 = match opts.get("deadline-ms") {
        Some(ms) => numeric(ms, "deadline-ms")?,
        None => 0,
    };
    let tuple = |key: &str| -> Result<TupleRef, HerError> {
        Ok(TupleRef::new(0, numeric(&required(opts, key)?, key)?))
    };
    // Stream ops address a server-side session; 0 (the default) is the
    // one `--wal` restarts resume.
    let session: u64 = match opts.get("session") {
        Some(n) => numeric(n, "session")?,
        None => her::serve::DEFAULT_SESSION,
    };

    use her::serve::Request;
    let req = match op.as_str() {
        "vpair" => Request::Vpair {
            tuple: tuple("tuple")?,
            max_calls,
            deadline_ms,
        },
        "apair" => Request::Apair {
            max_calls,
            deadline_ms,
        },
        "stream-process" => Request::StreamProcess {
            tuple: tuple("tuple")?,
            session,
        },
        "stream-retract" => Request::StreamRetract {
            vertex: VertexId(numeric(&required(opts, "vertex")?, "vertex")?),
            session,
        },
        "stream-matches" => Request::StreamMatches { session },
        // The table rendering of metrics rides on the text exposition —
        // same registry, same deterministic ordering, aligned columns.
        "metrics" if format == "table" => Request::Expo,
        "metrics" => Request::Metrics,
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        "trace" => Request::Trace {
            trace_id: numeric(&required(opts, "id")?, "id")?,
        },
        "flight" => Request::Flight,
        "expo" => Request::Expo,
        "health" => Request::Health,
        other => {
            return Err(HerError::Usage(format!(
                "--op {other:?} (expected vpair|apair|stream-process|stream-retract|\
                 stream-matches|metrics|ping|shutdown|trace|flight|expo|health)"
            )))
        }
    };

    use her::serve::Reply;
    match client.request(&req).map_err(|e| client_error(&addr, e))? {
        Reply::Vpair {
            matches,
            unresolved,
            exhausted,
            trace_id,
        } => {
            for v in matches {
                println!("{v}");
            }
            info!("trace id {trace_id}");
            if let Some(reason) = exhausted {
                eprintln!("{} candidates left undecided", unresolved.len());
                return Err(HerError::Exhausted(reason));
            }
        }
        Reply::Apair {
            matches,
            exhausted,
            trace_id,
        } => {
            for (t, v) in matches {
                println!("{},{}", t.row, v);
            }
            info!("trace id {trace_id}");
            if let Some(reason) = exhausted {
                return Err(HerError::Exhausted(reason));
            }
        }
        Reply::StreamApplied {
            found,
            ops_applied,
            trace_id,
        } => {
            for v in found {
                println!("{v}");
            }
            info!("journaled as op {ops_applied} (trace id {trace_id})");
        }
        Reply::StreamMatches {
            matches,
            ops_applied,
        } => {
            for (t, v) in matches {
                println!("{},{}", t.row, v);
            }
            info!("session at op {ops_applied}");
        }
        Reply::Metrics { json } => println!("{json}"),
        Reply::Pong => println!("pong"),
        Reply::ShuttingDown => info!("server acknowledged shutdown"),
        Reply::Trace { trace_id, events } => {
            if events.is_empty() {
                eprintln!(
                    "her-cli: no events for trace {trace_id} \
                     (unsampled, unknown, or aged out of the ring)"
                );
            } else {
                render_trace(&events);
            }
        }
        Reply::Flight { records } => render_flight(&records),
        Reply::Expo { text } => {
            if format == "table" {
                print!("{}", expo_table(&text));
            } else {
                print!("{text}");
            }
        }
        Reply::Health {
            state,
            reason,
            since_ms,
        } => {
            // Readiness semantics: exit 0 only while writes are
            // accepted, so scripts can poll `query --op health` until
            // the server heals. The state line goes to stdout either
            // way — a degraded server still *answered*.
            let s = her::serve::State::from_u8(state);
            if reason.is_empty() {
                println!("{} (for {}ms)", s.name(), since_ms);
            } else {
                println!("{} (for {}ms): {}", s.name(), since_ms, reason);
            }
            if !s.writable() {
                return Err(HerError::Unavailable(format!(
                    "server is {}{}",
                    s.name(),
                    if reason.is_empty() {
                        String::new()
                    } else {
                        format!(": {reason}")
                    }
                )));
            }
        }
        // The client maps these into ClientError before returning
        // (Unavailable is retried with the server's retry_after floor,
        // then surfaces as exit 4).
        Reply::Busy { .. } | Reply::Error { .. } | Reply::Unavailable { .. } => {
            unreachable!()
        }
    }
    Ok(())
}

/// `her-cli top`: a live qps/latency/shed view polled from the server's
/// text exposition. Prints one line per sample.
fn top(opts: &HashMap<String, String>) -> Result<(), HerError> {
    let addr = resolve_addr(opts)?;
    let mut client = make_client(opts, &addr)?;
    let interval = Duration::from_millis(match opts.get("interval-ms") {
        Some(ms) => numeric(ms, "interval-ms")?,
        None => 1000,
    });
    let iterations: u64 = match opts.get("iterations") {
        Some(n) => numeric(n, "iterations")?,
        None => 5,
    };

    let expo = |client: &mut her::serve::Client| -> Result<Expo, HerError> {
        match client
            .request(&her::serve::Request::Expo)
            .map_err(|e| client_error(&addr, e))?
        {
            her::serve::Reply::Expo { text } => Ok(Expo::parse(&text)),
            other => Err(HerError::Unavailable(format!(
                "unexpected reply to Expo: {other:?}"
            ))),
        }
    };

    println!(
        "{:>9} {:>9} {:>9} {:>7} {:>9} {:>6} {:>9} {:>10} {:>8}",
        "qps", "p50(us)", "p99(us)", "shed%", "inflight", "queue", "requests", "anomalies",
        "health"
    );
    let mut prev = expo(&mut client)?;
    let mut printed = 0u64;
    loop {
        std::thread::sleep(interval);
        let cur = expo(&mut client)?;
        let secs = interval.as_secs_f64().max(1e-9);
        let d_req = cur.counter("serve.requests") - prev.counter("serve.requests");
        let d_shed = cur.counter("serve.shed") - prev.counter("serve.shed");
        let shed_pct = if d_req == 0 {
            0.0
        } else {
            100.0 * d_shed as f64 / d_req as f64
        };
        let (p50, p99) = cur.hist_quantiles("serve.req.exec_us");
        println!(
            "{:>9.1} {:>9} {:>9} {:>7.1} {:>9} {:>6} {:>9} {:>10} {:>8}",
            d_req as f64 / secs,
            p50,
            p99,
            shed_pct,
            cur.gauge("serve.inflight") as u64,
            cur.gauge("serve.queue_depth") as u64,
            cur.counter("serve.requests"),
            cur.counter("flight.anomalies"),
            her::serve::State::from_u8(cur.gauge("serve.health.state") as u8).name(),
        );
        prev = cur;
        printed += 1;
        if iterations != 0 && printed >= iterations {
            return Ok(());
        }
    }
}

/// `her-cli trace <id>`: one request's span breakdown, from a live
/// server or from a flight-recorder dump file.
fn trace_cmd(opts: &HashMap<String, String>) -> Result<(), HerError> {
    let id: u64 = numeric(&required(opts, "id")?, "id")?;

    if let Some(dump) = opts.get("dump") {
        let (dumps, damage) =
            her::serve::flight_dump::read_dumps(std::path::Path::new(dump)).map_err(
                |source| HerError::Io {
                    path: dump.into(),
                    source,
                },
            )?;
        for d in &damage {
            eprintln!("her-cli: {dump}: {d}");
        }
        // Newest dump wins if the id somehow repeats across restarts.
        let Some(d) = dumps.iter().rev().find(|d| d.record.trace_id == id) else {
            return Err(HerError::Usage(format!("trace {id} is not in {dump}")));
        };
        render_flight(std::slice::from_ref(&d.record));
        render_trace(&d.events);
        return Ok(());
    }

    let addr = resolve_addr(opts)?;
    let mut client = make_client(opts, &addr)?;
    use her::serve::{Reply, Request};
    if let Reply::Flight { records } = client
        .request(&Request::Flight)
        .map_err(|e| client_error(&addr, e))?
    {
        if let Some(r) = records.iter().find(|r| r.trace_id == id) {
            render_flight(std::slice::from_ref(r));
        }
    }
    match client
        .request(&Request::Trace { trace_id: id })
        .map_err(|e| client_error(&addr, e))?
    {
        Reply::Trace { events, .. } if events.is_empty() => Err(HerError::Usage(format!(
            "no events for trace {id} (unsampled, unknown, or aged out of the ring)"
        ))),
        Reply::Trace { events, .. } => {
            render_trace(&events);
            Ok(())
        }
        other => Err(HerError::Unavailable(format!(
            "unexpected reply to Trace: {other:?}"
        ))),
    }
}

/// Renders a request's events as an indented span tree. Events arrive in
/// ring (chronological) order; `Enter`/`Exit` pairs carry the nesting.
fn render_trace(events: &[her::obs::Event]) {
    use her::obs::EventKind;
    let mut depth = 0usize;
    for e in events {
        if e.kind == EventKind::Exit {
            depth = depth.saturating_sub(1);
        }
        let marker = match e.kind {
            EventKind::Enter => ">",
            EventKind::Exit => "<",
            EventKind::Point => "*",
        };
        let pad = "  ".repeat(depth);
        if e.detail.is_empty() {
            println!("{:>10}us  {pad}{marker} {}", e.at_us, e.name);
        } else {
            println!("{:>10}us  {pad}{marker} {} {}", e.at_us, e.name, e.detail);
        }
        if e.kind == EventKind::Enter {
            depth += 1;
        }
    }
}

/// Renders flight records as an aligned table, oldest first.
fn render_flight(records: &[her::obs::FlightRecord]) {
    println!(
        "{:>8} {:>8} {:<7} {:>10} {:>9} {:>10} {:>9} {:>7} {:>7} {:<9} {:>6} anomaly",
        "id", "at(ms)", "op", "queue(us)", "pool(us)", "exec(us)", "calls", "cache", "shared",
        "exhaust", "faults"
    );
    for r in records {
        println!(
            "{:>8} {:>8} {:<7} {:>10} {:>9} {:>10} {:>9} {:>7} {:>7} {:<9} {:>6} {}",
            r.trace_id,
            r.at_us / 1000,
            her::obs::flight::op::name(r.op),
            r.queue_wait_us,
            r.pool_wait_us,
            r.exec_us,
            r.calls,
            r.cache_hits,
            r.shared_hits,
            exhaust_name(r.exhaust),
            r.faults_seen,
            her::obs::flight::anomaly::describe(r.anomaly),
        );
    }
}

/// Human name for a flight record's encoded exhaust reason.
fn exhaust_name(tag: u8) -> &'static str {
    match tag {
        0 => "-",
        1 => "calls",
        2 => "deadline",
        3 => "cache-cap",
        4 => "cancelled",
        _ => "?",
    }
}

/// A parsed `# her-expo/v1` snapshot (see DESIGN.md §4i for the grammar).
struct Expo {
    counters: HashMap<String, u64>,
    gauges: HashMap<String, f64>,
    hists: HashMap<String, (u64, u64)>,
}

impl Expo {
    fn parse(text: &str) -> Expo {
        let mut e = Expo {
            counters: HashMap::new(),
            gauges: HashMap::new(),
            hists: HashMap::new(),
        };
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let (Some(kind), Some(name)) = (parts.next(), parts.next()) else {
                continue;
            };
            match kind {
                "counter" => {
                    if let Some(v) = parts.next().and_then(|v| v.parse().ok()) {
                        e.counters.insert(name.to_owned(), v);
                    }
                }
                "gauge" => {
                    if let Some(v) = parts.next().and_then(|v| v.parse().ok()) {
                        e.gauges.insert(name.to_owned(), v);
                    }
                }
                "hist" => {
                    let field = |key: &str| -> u64 {
                        line.split_whitespace()
                            .find_map(|p| p.strip_prefix(key))
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(0)
                    };
                    e.hists
                        .insert(name.to_owned(), (field("p50="), field("p99=")));
                }
                _ => {}
            }
        }
        e
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    fn hist_quantiles(&self, name: &str) -> (u64, u64) {
        self.hists.get(name).copied().unwrap_or((0, 0))
    }
}

/// Renders the text exposition as an aligned `name | kind | value` table.
fn expo_table(text: &str) -> String {
    let mut rows: Vec<(&str, &str, String)> = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        let (Some(kind), Some(name)) = (parts.next(), parts.next()) else {
            continue;
        };
        rows.push((name, kind, parts.next().unwrap_or("").to_owned()));
    }
    let w = rows.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, kind, value) in rows {
        out.push_str(&format!("{name:<w$}  {kind:<7} {value}\n"));
    }
    out
}

/// Maps client-side failures into the CLI taxonomy. Exhaustion never
/// lands here — it rides in-band in successful replies.
fn client_error(addr: &str, e: her::serve::ClientError) -> HerError {
    use her::serve::ClientError;
    match e {
        ClientError::Unavailable(m) => HerError::Unavailable(m),
        ClientError::Remote { code, message } if code == her::serve::proto::code::USAGE => {
            HerError::Usage(format!("server rejected the request: {message}"))
        }
        ClientError::Remote { code, message }
            if code == her::serve::proto::code::UNAVAILABLE =>
        {
            HerError::Unavailable(message)
        }
        ClientError::Remote { message, .. } | ClientError::Data(message) => HerError::Io {
            path: addr.into(),
            source: std::io::Error::other(message),
        },
    }
}

fn parse_annotations(
    path: &str,
    text: &str,
) -> Result<Vec<(TupleRef, VertexId, bool)>, HerError> {
    let bad = |line: usize, message: &str| HerError::Annotations {
        path: path.into(),
        line,
        message: message.to_owned(),
    };
    let mut ann = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || (i == 0 && line.starts_with("row")) {
            continue;
        }
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 3 {
            return Err(bad(i + 1, "expected row,vertex,label"));
        }
        let row: u32 = parts[0]
            .trim()
            .parse()
            .map_err(|_| bad(i + 1, "bad row number"))?;
        let vertex: u32 = parts[1]
            .trim()
            .parse()
            .map_err(|_| bad(i + 1, "bad vertex number"))?;
        let label = matches!(parts[2].trim(), "1" | "true" | "match");
        ann.push((TupleRef::new(0, row), VertexId(vertex), label));
    }
    Ok(ann)
}

fn export_demo() -> Result<(), HerError> {
    let dataset = her::datagen::procurement::generate();
    // Flatten the item relation (FKs render their target's first value).
    let mut records = vec![vec![
        "item".to_owned(),
        "material".to_owned(),
        "color".to_owned(),
        "type".to_owned(),
        "qty".to_owned(),
    ]];
    for (t, tuple) in dataset.db.tuples() {
        if t.relation != 1 {
            continue;
        }
        records.push(
            [0usize, 1, 2, 3, 5]
                .iter()
                .map(|&i| tuple.get(i).as_label().unwrap_or_default())
                .collect(),
        );
    }
    let write = |path: &str, contents: String| {
        std::fs::write(path, contents).map_err(|source| HerError::Io {
            path: path.into(),
            source,
        })
    };
    write("orders.csv", her::rdb::csv::write(&records))?;
    write(
        "catalogue.nt",
        her::graph::ntriples::export(&dataset.g, &dataset.interner),
    )?;
    println!("wrote orders.csv and catalogue.nt — try:");
    println!("  her-cli apair --db orders.csv --graph catalogue.nt --relation item --sigma 0.7 --delta 0.3 --k 8");
    Ok(())
}
