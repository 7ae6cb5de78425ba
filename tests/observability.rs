//! CLI observability end-to-end: drives the compiled `her-cli` binary on
//! the bundled demo export and checks the `--metrics-out` snapshot, the
//! default-quiet stderr contract, and stdout stability across verbosity.

use std::path::Path;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_her-cli"))
}

/// Writes the demo `orders.csv` + `catalogue.nt` into `dir`.
fn export_demo(dir: &Path) {
    let out = cli()
        .arg("export-demo")
        .current_dir(dir)
        .output()
        .expect("spawn her-cli");
    assert!(out.status.success(), "export-demo failed: {out:?}");
    assert!(dir.join("orders.csv").exists());
    assert!(dir.join("catalogue.nt").exists());
}

fn demo_args(extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = [
        "apair", "--db", "orders.csv", "--graph", "catalogue.nt", "--relation", "item",
        "--sigma", "0.7", "--delta", "0.3", "--k", "8",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    args
}

/// Extracts `"key":<raw value>` from a flat JSON object section. Enough
/// for assertions without a JSON parser dependency.
fn json_value<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest
        .find([',', '}'])
        .expect("snapshot JSON values are terminated");
    Some(&rest[..end])
}

#[test]
fn metrics_out_snapshot_has_headline_keys_and_stdout_is_stable() {
    let dir = std::env::temp_dir().join("her-cli-obs-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    export_demo(&dir);

    let quiet = cli()
        .args(demo_args(&[]))
        .current_dir(&dir)
        .output()
        .expect("run apair");
    assert!(quiet.status.success(), "apair failed: {quiet:?}");
    assert!(
        quiet.stderr.is_empty(),
        "default run must be quiet on stderr: {:?}",
        String::from_utf8_lossy(&quiet.stderr)
    );

    let observed = cli()
        .args(demo_args(&["--metrics-out", "m.json", "-v"]))
        .current_dir(&dir)
        .output()
        .expect("run apair with metrics");
    assert!(observed.status.success(), "apair -v failed: {observed:?}");
    // Observability must not change the matches printed on stdout.
    assert_eq!(quiet.stdout, observed.stdout);
    let stderr = String::from_utf8_lossy(&observed.stderr);
    assert!(stderr.contains("loaded 3 tuples"), "missing -v diagnostics: {stderr}");
    assert!(stderr.contains("paramatch.calls"), "missing summary table: {stderr}");

    let json = std::fs::read_to_string(dir.join("m.json")).expect("metrics written");
    // Acceptance keys: cache hit rate, MaxSco early terminations, and the
    // (pre-registered, empty on a sequential run) BSP superstep timings.
    let rate = json_value(&json, "paramatch.cache_hit_rate").expect("hit rate present");
    assert!(rate.parse::<f64>().is_ok(), "hit rate not a number: {rate}");
    let early: u64 = json_value(&json, "paramatch.early_terminations")
        .expect("early terminations present")
        .parse()
        .expect("counter is an integer");
    assert!(json.contains("\"bsp.superstep.busy_us\""), "superstep timings missing");
    if her::obs::ENABLED {
        assert!(early > 0, "demo run exercises MaxSco early termination");
    }
}

#[test]
fn parallel_cli_run_records_superstep_timings() {
    let dir = std::env::temp_dir().join("her-cli-obs-par-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    export_demo(&dir);

    let seq = cli()
        .args(demo_args(&[]))
        .current_dir(&dir)
        .output()
        .expect("sequential apair");
    let par = cli()
        .args(demo_args(&["--workers", "3", "--metrics-out", "mp.json"]))
        .current_dir(&dir)
        .output()
        .expect("parallel apair");
    assert!(par.status.success(), "parallel apair failed: {par:?}");
    // The BSP engine prints the same match set as the sequential path.
    assert_eq!(seq.stdout, par.stdout);

    let json = std::fs::read_to_string(dir.join("mp.json")).expect("metrics written");
    if her::obs::ENABLED {
        let supersteps: u64 = json_value(&json, "bsp.supersteps")
            .expect("bsp.supersteps present")
            .parse()
            .expect("counter is an integer");
        assert!(supersteps >= 1, "parallel run records supersteps: {json}");
    }
}

/// Only documented flags are accepted: a typo, or a flag the CLI no
/// longer has, exits 2 instead of running with the flag dropped.
#[test]
fn unknown_flags_are_usage_errors() {
    let dir = std::env::temp_dir().join("her-cli-obs-unknown-flag-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    export_demo(&dir);

    for flag in [["--shared-scores", "off"], ["--max-cals", "5"]] {
        let out = cli()
            .args(demo_args(&flag))
            .current_dir(&dir)
            .output()
            .expect("run with an unknown flag");
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {:?}", flag[0])), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag:?} ran anyway: {out:?}");
    }
}

#[test]
fn workers_with_budget_flags_is_a_usage_error() {
    let dir = std::env::temp_dir().join("her-cli-obs-usage-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    export_demo(&dir);

    let out = cli()
        .args(demo_args(&["--workers", "2", "--max-calls", "10"]))
        .current_dir(&dir)
        .output()
        .expect("run conflicting flags");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2: {out:?}");
}
