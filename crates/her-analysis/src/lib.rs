//! `her-analysis` — the workspace's own linter: a small lexer plus nine
//! repo-specific per-file rules.
//!
//! `cargo run -p her-analysis -- check` lexes every first-party Rust
//! source (crates/*, src/, tests/, benches/ — vendored code excluded)
//! and enforces the rules in [`rules`]. Findings can be waived in place
//! with a justified comment, on the finding's line or on the header of
//! an enclosing item:
//!
//! ```text
//! // #[allow(her::unregistered_metric)] — names are `fault.<kind>`, all in names::ALL
//! ```
//!
//! The linter is tested against seeded fixture files under `fixtures/`
//! (one positive and one violation file per rule), and the whole
//! workspace must come back clean in CI (`lint` job).

pub mod ir;
pub mod lexer;
pub mod report;
pub mod rules;

use rules::{Finding, MetricNames};
use std::fs;
use std::path::{Path, PathBuf};

/// Workspace-relative path of the metric preregistration list.
pub const NAMES_RS: &str = "crates/her-obs/src/names.rs";

/// First-party source files under `root`, workspace-relative, sorted.
/// Skips `vendor/` (third-party), `target/`, and the linter's own
/// seeded-violation fixtures.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let tops = ["crates", "src", "tests", "benches"];
    for top in tops {
        walk(&root.join(top), root, &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        let Ok(rel) = p.strip_prefix(root) else {
            continue;
        };
        let rel_s = rel.to_string_lossy().replace('\\', "/");
        if rel_s.starts_with("crates/her-analysis/fixtures") || rel_s.contains("/target/") {
            continue;
        }
        if p.is_dir() {
            walk(&p, root, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(rel_s.into());
        }
    }
}

/// Lints the whole workspace: the per-file rules plus the
/// workspace-level reverse metric check (registered but never used).
/// Findings come back with waivers already applied; callers fail on any
/// `!waived` entry.
pub fn check_workspace(root: &Path) -> (Vec<Finding>, usize) {
    let names_src = fs::read_to_string(root.join(NAMES_RS)).unwrap_or_default();
    let metrics = MetricNames::parse(&names_src);
    let files = workspace_files(root);
    let mut findings = Vec::new();
    let mut used: Vec<String> = Vec::new();
    for rel in &files {
        let Ok(src) = fs::read_to_string(root.join(rel)) else {
            continue;
        };
        let rel_s = rel.to_string_lossy().replace('\\', "/");
        findings.extend(rules::analyze_file(&rel_s, &src, &metrics));
        collect_metric_uses(&src, &mut used);
    }
    // Reverse direction: every preregistered name must be used somewhere
    // (literal use anywhere, test code included). Entries for dynamic
    // name families carry a waiver comment in names.rs itself.
    let mut unused: Vec<Finding> = metrics
        .names
        .iter()
        .filter(|(name, _)| !used.contains(name))
        .map(|(name, line)| Finding {
            rule: rules::UNREGISTERED_METRIC,
            path: NAMES_RS.to_string(),
            line: *line,
            message: format!(
                "metric `{name}` is preregistered but never used by a literal call site"
            ),
            waived: false,
        })
        .collect();
    rules::apply_waivers(&lexer::lex(&names_src), &mut unused);
    findings.append(&mut unused);
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    (findings, files.len())
}

/// Collects every literal metric name passed to a telemetry sink —
/// `.counter("…")`, `.gauge("…")`, `.histogram("…")`,
/// `.histogram_with("…")` — test code included (a name only a test reads
/// is still a used name).
fn collect_metric_uses(src: &str, out: &mut Vec<String>) {
    let toks = lexer::lex(src).toks;
    const SINKS: &[&str] = &["counter", "gauge", "histogram", "histogram_with"];
    for (i, t) in toks.iter().enumerate() {
        if t.kind == lexer::TokKind::Ident
            && SINKS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == lexer::TokKind::Str {
                    out.push(arg.text.clone());
                }
            }
        }
    }
}

/// Locates the workspace root: walks up from `CARGO_MANIFEST_DIR` (or
/// the current directory) to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_root() -> PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let mut dir = start.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(rel: &str) -> String {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        fs::read_to_string(dir.join(rel))
            .unwrap_or_else(|e| panic!("fixture {rel}: {e}"))
    }

    fn names() -> MetricNames {
        MetricNames::parse("pub const ALL: &[&str] = &[\n    \"scores.embed_calls\",\n    \"scores.shared_hits\",\n];\n")
    }

    fn run(virtual_path: &str, rel: &str) -> Vec<Finding> {
        rules::analyze_file(virtual_path, &fixture(rel), &names())
    }

    fn rule_hits(findings: &[Finding], rule: &str) -> (usize, usize) {
        let of_rule: Vec<_> = findings.iter().filter(|f| f.rule == rule).collect();
        let unwaived = of_rule.iter().filter(|f| !f.waived).count();
        (of_rule.len(), unwaived)
    }

    #[test]
    fn raw_sync_lock_fixtures() {
        let ok = run("crates/her-parallel/src/ok.rs", "raw_sync_lock/ok.rs");
        assert_eq!(rule_hits(&ok, rules::RAW_SYNC_LOCK).1, 0, "{ok:?}");
        let bad = run("crates/her-parallel/src/bad.rs", "raw_sync_lock/violation.rs");
        let (total, unwaived) = rule_hits(&bad, rules::RAW_SYNC_LOCK);
        assert!(unwaived >= 2, "seeded use + inline path: {bad:?}");
        assert!(total > unwaived, "the waived site must be detected but waived");
        // The facade itself may name std locks freely.
        let facade = run("crates/her-sync/src/lib.rs", "raw_sync_lock/violation.rs");
        assert_eq!(rule_hits(&facade, rules::RAW_SYNC_LOCK).0, 0);
    }

    #[test]
    fn wallclock_in_replay_fixtures() {
        let ok = run("crates/her-store/src/ok.rs", "wallclock_in_replay/ok.rs");
        assert_eq!(rule_hits(&ok, rules::WALLCLOCK_IN_REPLAY).1, 0, "{ok:?}");
        let bad = run("crates/her-store/src/bad.rs", "wallclock_in_replay/violation.rs");
        assert!(rule_hits(&bad, rules::WALLCLOCK_IN_REPLAY).1 >= 2, "{bad:?}");
        // Same source outside the scoped crates is not replay code.
        let elsewhere = run("crates/her-graph/src/x.rs", "wallclock_in_replay/violation.rs");
        assert_eq!(rule_hits(&elsewhere, rules::WALLCLOCK_IN_REPLAY).0, 0);
    }

    #[test]
    fn panicking_decode_fixtures() {
        let ok = run("crates/her-store/src/codec.rs", "panicking_decode/ok.rs");
        assert_eq!(rule_hits(&ok, rules::PANICKING_DECODE).1, 0, "{ok:?}");
        let bad = run("crates/her-store/src/codec.rs", "panicking_decode/violation.rs");
        // unwrap, expect and slice indexing each seeded at least once.
        assert!(rule_hits(&bad, rules::PANICKING_DECODE).1 >= 3, "{bad:?}");
        let msgs: Vec<_> = bad
            .iter()
            .filter(|f| f.rule == rules::PANICKING_DECODE)
            .map(|f| f.message.as_str())
            .collect();
        assert!(msgs.iter().any(|m| m.contains("unwrap")));
        assert!(msgs.iter().any(|m| m.contains("expect")));
        assert!(msgs.iter().any(|m| m.contains("indexing")));
    }

    #[test]
    fn unregistered_metric_fixtures() {
        let ok = run("crates/her-core/src/ok.rs", "unregistered_metric/ok.rs");
        assert_eq!(rule_hits(&ok, rules::UNREGISTERED_METRIC).1, 0, "{ok:?}");
        let bad = run("crates/her-core/src/bad.rs", "unregistered_metric/violation.rs");
        let (total, unwaived) = rule_hits(&bad, rules::UNREGISTERED_METRIC);
        // One unknown literal + one dynamic site unwaived; one dynamic waived.
        assert!(unwaived >= 2, "{bad:?}");
        assert!(total > unwaived, "{bad:?}");
    }

    #[test]
    fn generation_entry_point_fixtures() {
        let ok = run("crates/her-core/src/paramatch.rs", "generation_entry_point/ok.rs");
        assert_eq!(rule_hits(&ok, rules::GENERATION_ENTRY_POINT).1, 0, "{ok:?}");
        let bad = run(
            "crates/her-core/src/paramatch.rs",
            "generation_entry_point/violation.rs",
        );
        assert!(rule_hits(&bad, rules::GENERATION_ENTRY_POINT).1 >= 1, "{bad:?}");
        // The definition site is exempt.
        let def = run(
            "crates/her-core/src/shared_scores.rs",
            "generation_entry_point/violation.rs",
        );
        assert_eq!(rule_hits(&def, rules::GENERATION_ENTRY_POINT).0, 0);
    }

    #[test]
    fn literal_lock_rank_fixtures() {
        let ok = run("crates/her-serve/src/ok.rs", "literal_lock_rank/ok.rs");
        assert_eq!(rule_hits(&ok, rules::LITERAL_LOCK_RANK).1, 0, "{ok:?}");
        let bad = run("crates/her-serve/src/bad.rs", "literal_lock_rank/violation.rs");
        let (total, unwaived) = rule_hits(&bad, rules::LITERAL_LOCK_RANK);
        // Plain + fully-qualified constructions unwaived; one waived site.
        assert!(unwaived >= 2, "{bad:?}");
        assert!(total > unwaived, "the waived site must be detected but waived");
        // The central table itself constructs ranks freely.
        let table = run("crates/her-sync/src/lib.rs", "literal_lock_rank/violation.rs");
        assert_eq!(rule_hits(&table, rules::LITERAL_LOCK_RANK).0, 0);
    }

    #[test]
    fn unguarded_span_fixtures() {
        let ok = run("crates/her-serve/src/ok.rs", "unguarded_span/ok.rs");
        assert_eq!(rule_hits(&ok, rules::UNGUARDED_SPAN).1, 0, "{ok:?}");
        let bad = run("crates/her-serve/src/bad.rs", "unguarded_span/violation.rs");
        let (total, unwaived) = rule_hits(&bad, rules::UNGUARDED_SPAN);
        // Bare statement + `let _ =` unwaived; one waived zero-width site.
        assert!(unwaived >= 2, "{bad:?}");
        assert!(total > unwaived, "the waived site must be detected but waived");
        // The tracer's own crate constructs spans freely.
        let obs = run("crates/her-obs/src/trace.rs", "unguarded_span/violation.rs");
        assert_eq!(rule_hits(&obs, rules::UNGUARDED_SPAN).0, 0);
    }

    #[test]
    fn raw_fs_write_fixtures() {
        let ok = run("crates/her-store/src/ok.rs", "raw_fs_write/ok.rs");
        assert_eq!(rule_hits(&ok, rules::RAW_FS_WRITE).1, 0, "{ok:?}");
        let bad = run("crates/her-store/src/bad.rs", "raw_fs_write/violation.rs");
        let (total, unwaived) = rule_hits(&bad, rules::RAW_FS_WRITE);
        // fs::write ×2, fs::rename, File::create, OpenOptions::new unwaived.
        assert!(unwaived >= 4, "{bad:?}");
        assert!(total > unwaived, "the waived site must be detected but waived");
        let msgs: Vec<_> = bad
            .iter()
            .filter(|f| f.rule == rules::RAW_FS_WRITE && !f.waived)
            .map(|f| f.message.as_str())
            .collect();
        assert!(msgs.iter().any(|m| m.contains("std::fs::write")));
        assert!(msgs.iter().any(|m| m.contains("std::fs::rename")));
        assert!(msgs.iter().any(|m| m.contains("File::create")));
        assert!(msgs.iter().any(|m| m.contains("OpenOptions::new")));
        // Same violations in her-serve are in scope too...
        let serve = run("crates/her-serve/src/bad.rs", "raw_fs_write/violation.rs");
        assert!(rule_hits(&serve, rules::RAW_FS_WRITE).1 >= 4, "{serve:?}");
        // ...but outside the durability crates the rule stays silent.
        let elsewhere = run("crates/her-cli/src/bad.rs", "raw_fs_write/violation.rs");
        assert_eq!(rule_hits(&elsewhere, rules::RAW_FS_WRITE).0, 0);
    }

    #[test]
    fn budget_threading_fixtures() {
        let ok = run("crates/her-serve/src/budget_ok.rs", "budget/ok.rs");
        assert_eq!(rule_hits(&ok, rules::BUDGET_NOT_THREADED).0, 0, "{ok:?}");

        let bad = run("crates/her-serve/src/budget_bad.rs", "budget/violation.rs");
        let (total, unwaived) = rule_hits(&bad, rules::BUDGET_NOT_THREADED);
        assert_eq!(unwaived, 2, "{bad:?}");
        assert!(total > unwaived, "the waived warmup must be detected but waived");

        // The rule is scoped to the serving crate: the same source
        // elsewhere is not a handler path.
        let elsewhere = run("crates/her-cli/src/budget_bad.rs", "budget/violation.rs");
        assert_eq!(rule_hits(&elsewhere, rules::BUDGET_NOT_THREADED).0, 0);
    }

    /// The serving path's pooled shape, `pool.run(budget, cancel, ctx,
    /// |m| her.<mode>_with(m, ..))`, is checked like a `try_` mode call.
    #[test]
    fn budget_rule_checks_the_pooled_shape() {
        let pooled = |f: &Finding| f.rule == rules::BUDGET_NOT_THREADED && f.message.contains("calls `run`");
        let ok = run("crates/her-serve/src/budget_ok.rs", "budget/ok.rs");
        assert!(!ok.iter().any(pooled), "{ok:?}");
        let bad = run("crates/her-serve/src/budget_bad.rs", "budget/violation.rs");
        assert!(bad.iter().any(|f| pooled(f) && !f.waived), "{bad:?}");
    }

    #[test]
    fn span_waiver_fixtures() {
        let f = run(
            "crates/her-serve/src/spans.rs",
            "span_waiver/serve_spans.rs",
        );
        let of_rule: Vec<_> = f
            .iter()
            .filter(|f| f.rule == rules::BUDGET_NOT_THREADED)
            .collect();
        // All four call sites are detected…
        assert_eq!(of_rule.len(), 4, "{of_rule:?}");
        // …the fn-header waiver covers its body, the mod-header waiver
        // covers the nested fn, and the two others stay unwaived (one
        // plain, one under a NON-adjacent comment).
        let unwaived: Vec<u32> = of_rule
            .iter()
            .filter(|f| !f.waived)
            .map(|f| f.line)
            .collect();
        assert_eq!(unwaived, vec![19, 35], "{of_rule:?}");
    }

    /// The linter runs clean on the real workspace — the same invariant
    /// the CI `lint` job gates on.
    #[test]
    fn real_workspace_is_clean() {
        let root = find_root();
        let (findings, files) = check_workspace(&root);
        assert!(files > 50, "workspace walk found only {files} files");
        let unwaived: Vec<_> = findings.iter().filter(|f| !f.waived).collect();
        assert!(
            unwaived.is_empty(),
            "unwaived findings:\n{}",
            report::render_text(&findings, files)
        );
    }
}
