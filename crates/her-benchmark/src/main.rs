//! `her-benchmark`: four sized workloads over HER, measured from outside
//! the layers by timing calls into public functions. See README.md.
//!
//! ```text
//! her-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! her-benchmark --check            # every workload at smoke size, no timings asserted
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of an
//! untraced run, or the per-layer metrics of a traced one.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod batch;
mod layers;
mod names;
mod report;
mod run;
mod script;
mod serve;
mod span;
mod stats;
mod system;

use names::{
    BATCH_BSP, BATCH_SEQ, END_TO_END, INGEST_LAYER, PER_LAYER, SERVE_INGEST, SERVE_READ, UNLISTED,
    WORKLOADS,
};
use run::Run;
use std::path::PathBuf;
use std::process::ExitCode;
use system::{Plan, System, CLIENTS, WORKERS};

const USAGE: &str =
    "usage: her-benchmark --workload <batch-seq|batch-bsp|serve-read|serve-ingest> \
[--seed <u64>] [--seconds <n>] [--trace [0|1]] | --check | --manifest";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check: bool,
    manifest: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut argv = argv.peekable();
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(names::RUN_SECONDS),
        traced: false,
        check: false,
        manifest: false,
    };
    loop {
        let Some(flag) = argv.next() else {
            return Ok(args);
        };
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`
            "--trace" => {
                args.traced = argv.next_if(|v| v == "0" || v == "1").as_deref() != Some("0");
            }
            "--check" => args.check = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
}

/// Scratch space inside the checkout: under the cargo target directory,
/// which `.gitignore` already names.
fn work_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("her-benchmark-work")
}

fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_header(workload: &str, plan: &Plan) {
    println!(
        "her-benchmark {workload}: seed {} seconds {} traced {} | nproc {} (load fixed at {CLIENTS} clients / {WORKERS} workers) | {} | commit {}",
        plan.seed,
        plan.seconds,
        plan.traced,
        nproc(),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    );
}

/// One run of one workload: set-up, repetitions, output checks, metrics.
fn run_workload<'p>(workload: &str, plan: &'p Plan) -> Result<Run<'p>, String> {
    let (body, people): (fn(&System, &mut Run<'_>), usize) = match workload {
        BATCH_SEQ => (batch::batch_seq, plan.people),
        BATCH_BSP => (batch::batch_bsp, plan.people),
        SERVE_READ => (serve::serve_read, plan.people),
        SERVE_INGEST => (serve::serve_ingest, plan.ingest_people),
        other => return Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let served = matches!(workload, SERVE_READ | SERVE_INGEST);
    let mut run = Run::new(plan);

    // Set up `plan.setups` times and keep the last system: `setup_s` is
    // the median, from generated inputs to ready.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..plan.setups.max(1) {
        drop(kept.take()); // peak memory is one system's, not two
        let id = run.spans.enter("setup", 0, 0);
        let sys = system::set_up(people, plan.seed, &mut run.spans, id);
        let ready_s = if served {
            serve::ready_seconds(&sys, plan, workload == SERVE_INGEST)?
        } else {
            0.0
        };
        run.spans.exit(id);
        setup_s.push(sys.times.build_s + sys.times.learn_s + ready_s);
        kept = Some(sys);
    }
    let sys = kept.ok_or("no set-up ran")?;

    body(&sys, &mut run);

    if plan.traced {
        layers::input_probes(&mut run, &sys);
        run.metrics
            .put("obs.spans_recorded", run.spans.len() as f64);
        run.metrics.put("peak_rss_mb", system::peak_rss_mb());
        println!("self time by span name (span minus the part its children cover):");
        for (name, seconds) in run.spans.self_seconds_by_name() {
            println!("  {name:<32} {seconds:>16.4} s");
        }
        let path = work_root().join(format!("trace-{workload}.json"));
        std::fs::create_dir_all(work_root())
            .and_then(|()| std::fs::write(&path, run.spans.to_json()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("{} spans written to {}", run.spans.len(), path.display());
    } else {
        run.metrics.put("setup_s", stats::median(&setup_s));
        run.metrics.put("f_measure", sys.f_measure());
    }
    Ok(run)
}

/// Prints the table and the driver's JSON line; `Err` when a metric the
/// mode must report is missing.
fn print_outcome(outcome: &Run<'_>, workload: &str, traced: bool) -> Result<(), String> {
    let rows = if traced {
        let mut rows = report::resolve(&PER_LAYER, &outcome.metrics, false)?;
        if workload == SERVE_INGEST {
            rows.extend(report::resolve(&INGEST_LAYER, &outcome.metrics, false)?);
        }
        rows
    } else {
        report::resolve(&END_TO_END, &outcome.metrics, true)?
    };
    for complaint in &outcome.complaints {
        println!("FAILED: {complaint}");
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );
    print!("{}", report::table(&rows));
    println!(
        "{}",
        report::json_line(&rows, outcome.attempted, outcome.failed)
    );
    Ok(())
}

/// `--check`: every workload, untraced and traced, at smoke size with
/// one scored repetition. Asserts the schema and the output checks,
/// never a timing.
fn check_all(seed: u64) -> Result<(), String> {
    for &(workload, _) in WORKLOADS.iter().chain(&UNLISTED) {
        for traced in [false, true] {
            let plan = Plan::check(seed, traced, work_root().join(format!("check-{workload}")));
            let outcome = run_workload(workload, &plan);
            let _ = std::fs::remove_dir_all(&plan.work_dir);
            let outcome = outcome?;
            print_outcome(&outcome, workload, traced)?;
            if outcome.failed > 0 {
                return Err(format!("{workload}: {} operations failed", outcome.failed));
            }
        }
    }
    println!(
        "check ok: {} workloads, untraced and traced",
        WORKLOADS.len() + UNLISTED.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", names::manifest_json());
        return ExitCode::SUCCESS;
    }
    if nproc() < CLIENTS.max(WORKERS) {
        eprintln!(
            "her-benchmark needs at least {} processors for its fixed load ({CLIENTS} clients / {WORKERS} BSP workers); this host has {}",
            CLIENTS.max(WORKERS),
            nproc()
        );
        return ExitCode::from(2);
    }
    let result = if args.check {
        check_all(args.seed)
    } else {
        match &args.workload {
            None => Err(USAGE.to_owned()),
            Some(workload) => {
                let dir = work_root().join(format!("{workload}-{}", std::process::id()));
                let plan = Plan::full(args.seed, args.seconds, args.traced, dir);
                print_header(workload, &plan);
                let outcome = run_workload(workload, &plan);
                let _ = std::fs::remove_dir_all(&plan.work_dir);
                outcome.and_then(|o| print_outcome(&o, workload, args.traced))
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("her-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "serve-read",
            "--seed",
            "7",
            "--seconds",
            "16",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("serve-read"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 16.0, true));
        let a = parse(&["--workload", "batch-seq", "--trace", "0"]).expect("parses");
        assert!(!a.traced);
    }

    #[test]
    fn a_bare_trace_flag_means_traced() {
        let a = parse(&["--trace", "--workload", "batch-bsp"]).expect("parses");
        assert!(a.traced);
        assert_eq!(a.workload.as_deref(), Some("batch-bsp"));
        assert!(parse(&["--trace"]).expect("parses").traced);
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn every_workload_name_is_dispatched() {
        for &(name, _) in WORKLOADS.iter().chain(&UNLISTED) {
            assert!(
                [BATCH_SEQ, BATCH_BSP, SERVE_READ, SERVE_INGEST].contains(&name),
                "{name} has no implementation"
            );
        }
    }
}
