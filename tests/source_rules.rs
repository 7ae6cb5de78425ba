//! Source invariants that neither the compiler nor clippy can state,
//! checked by plain string search over the first-party sources
//! (`crates/*/src` and `src/`; `mod tests { .. }` blocks are test code):
//!
//! - every metric name reaches the registry as a literal listed in
//!   `her_obs::names::ALL`, and every `ALL` entry is used somewhere;
//! - `her-core` reads the shared-scores generation only at declared,
//!   non-recursive entry points, so a concurrent `invalidate()` cannot
//!   tear one traversal's score view;
//! - every tracer span guard is bound to a name, so it lives past its
//!   statement (a bare call or `let _ = …` closes the span at once);
//! - every crate `clippy.toml` repeats the root lock list, because
//!   clippy reads only the nearest `clippy.toml`.

use std::fs;
use std::path::{Path, PathBuf};

/// The allowed exceptions: `(check, file, what it covers, why)`. For
/// `metric` the third field is the start of a non-literal name argument;
/// for `generation` it is the enclosing function.
const EXCEPTIONS: &[(&str, &str, &str, &str)] = &[
    ("metric", "crates/her-baselines/src/instrument.rs", "&format!(\"baseline.{name}.",
     "the `baseline.<linker>.*` family: one set per baseline, so not preregistered"),
    ("metric", "crates/her-store/src/vfs.rs", "metric", "callers pass `store.iofault.*` literals"),
    ("metric", "crates/her-parallel/src/pallmatch.rs", "name", "forwards literal `fault.*` names"),
    ("metric", "crates/her-serve/src/health.rs", "name", "callers pass `serve.health.*` literals"),
    ("metric", "crates/her-serve/src/server.rs", "name", "callers pass `serve.*` and `store.iofault.*` literals"),
    ("metric", "src/bin/her-cli.rs", "name", "loops over a literal list of registered names"),
    ("generation", "crates/her-core/src/pool.rs", "checkout",
     "observational read for the rebuild counter, not a reconciliation site"),
];

/// Functions of `her-core` that may observe the shared-scores generation.
const GENERATION_ENTRY_POINTS: &[&str] =
    &["with_options", "sync_shared_generation", "try_match", "mrho_seq", "restore", "invalidate"];

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const METRIC_SINKS: &[&str] = &[".counter(", ".gauge(", ".histogram(", ".histogram_with("];

struct Source {
    /// Workspace-relative, with `/` separators.
    path: String,
    /// The whole file, test code included.
    text: String,
    /// Non-test code, with comment lines blanked.
    code: String,
}

fn sources() -> Vec<Source> {
    let mut files = Vec::new();
    let crates = fs::read_dir(Path::new(ROOT).join("crates")).expect("read crates/");
    for krate in crates.flatten() {
        walk(&krate.path().join("src"), &mut files);
    }
    walk(&Path::new(ROOT).join("src"), &mut files);
    files.sort();
    files
        .into_iter()
        .map(|file| {
            let text = fs::read_to_string(&file).expect("read source");
            let rel = file.strip_prefix(Path::new(ROOT)).expect("under the root");
            Source {
                path: rel.to_string_lossy().replace('\\', "/"),
                code: strip_tests(&text),
                text,
            }
        })
        .collect()
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Blanks comment lines, then drops each `mod tests {` block up to its
/// matching brace.
fn strip_tests(text: &str) -> String {
    let lines: Vec<&str> = text.lines().map(|l| if l.trim_start().starts_with("//") { "" } else { l }).collect();
    let mut rest = lines.join("\n");
    let mut out = String::new();
    while let Some(at) = rest.find("mod tests {") {
        out.push_str(&rest[..at]);
        let mut depth = 0i32;
        let end = rest[at..].char_indices().find_map(|(i, c)| {
            depth += match c { '{' => 1, '}' => -1, _ => 0 };
            (c == '}' && depth == 0).then_some(at + i + 1)
        });
        rest = rest.split_off(end.unwrap_or(rest.len()));
    }
    out + &rest
}

/// Every `(offset, following text)` at which `needle` occurs in `hay`.
fn find_all<'a>(hay: &'a str, needle: &'a str) -> impl Iterator<Item = (usize, &'a str)> + 'a {
    hay.match_indices(needle).map(move |(i, _)| (i, &hay[i + needle.len()..]))
}

fn excepted(check: &str, path: &str, covers: impl Fn(&str) -> bool) -> bool {
    EXCEPTIONS.iter().any(|&(c, p, what, _)| c == check && p == path && covers(what))
}

fn assert_none(what: &str, found: Vec<String>) {
    assert!(found.is_empty(), "{what}:\n  {}", found.join("\n  "));
}

#[test]
fn metric_names_are_registered_literals() {
    let mut found = Vec::new();
    for src in sources().iter().filter(|s| s.path != "crates/her-obs/src/names.rs") {
        for sink in METRIC_SINKS {
            for (_, arg) in find_all(&src.code, sink) {
                let arg = arg.trim_start();
                if let Some(lit) = arg.strip_prefix('"') {
                    let name = &lit[..lit.find('"').unwrap_or(0)];
                    if !her_obs::names::ALL.contains(&name) {
                        found.push(format!("{}: `{name}` is not in her_obs::names::ALL", src.path));
                    }
                } else if !arg.starts_with(')') && !excepted("metric", &src.path, |w| arg.starts_with(w)) {
                    let call = &arg[..arg.find(')').unwrap_or(arg.len())];
                    found.push(format!("{}: {sink}{call}) has a name that is not a literal", src.path));
                }
            }
        }
    }
    assert_none("unregistered metric names", found);
}

#[test]
fn registered_metric_names_are_used() {
    let sources = sources();
    let unused: Vec<String> = her_obs::names::ALL
        .iter()
        .filter(|name| {
            let quoted = format!("\"{name}\"");
            !sources.iter().any(|s| s.path != "crates/her-obs/src/names.rs" && s.text.contains(&quoted))
        })
        .map(|name| name.to_string())
        .collect();
    assert_none("names in her_obs::names::ALL that no source uses", unused);
}

#[test]
fn generation_is_read_only_at_entry_points() {
    let mut found = Vec::new();
    for src in sources().iter().filter(|s| {
        s.path.starts_with("crates/her-core/") && !s.path.ends_with("/shared_scores.rs")
    }) {
        for (at, _) in find_all(&src.code, ".generation()") {
            let before = &src.code[..at];
            let fn_at = before.match_indices("fn ").filter(|&(i, _)| i == 0 || before[..i].ends_with([' ', '\n']));
            let name = fn_at.last().map_or("", |(i, _)| {
                let tail = &before[i + 3..];
                &tail[..tail.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(tail.len())]
            });
            if !GENERATION_ENTRY_POINTS.contains(&name) && !excepted("generation", &src.path, |w| w == name) {
                found.push(format!("{}: `{name}` reads the shared-scores generation", src.path));
            }
        }
    }
    assert_none("generation reads outside the declared entry points", found);
}

#[test]
fn span_guards_are_bound() {
    let mut found = Vec::new();
    for src in sources().iter().filter(|s| !s.path.starts_with("crates/her-obs/")) {
        for (at, _) in find_all(&src.code, ".span(").chain(find_all(&src.code, ".span_ctx(")) {
            // The statement starts after the nearest `;`, `{` or `}`.
            let stmt = src.code[..at].rsplit([';', '{', '}']).next().unwrap_or("").trim_start();
            let bound = stmt.strip_prefix("let ").is_some_and(|s| !s.starts_with("_ ") && !s.starts_with("_="));
            if !bound {
                found.push(format!("{}: `{}` does not bind the span guard", src.path, stmt.trim()));
            }
        }
    }
    assert_none("span guards dropped at the end of their statement (bind them as `let _span = …`)", found);
}

#[test]
fn crate_clippy_configs_repeat_the_lock_list() {
    let root_conf = fs::read_to_string(Path::new(ROOT).join("clippy.toml")).expect("read clippy.toml");
    let start = root_conf.find("disallowed-types = [").expect("root lists disallowed-types");
    let block = &root_conf[start..start + root_conf[start..].find("\n]").expect("list ends") + 2];
    let crates = fs::read_dir(Path::new(ROOT).join("crates")).expect("read crates/");
    let mut found = Vec::new();
    for conf in crates.flatten().map(|k| k.path().join("clippy.toml")).filter(|c| c.exists()) {
        if !fs::read_to_string(&conf).expect("read clippy.toml").contains(block) {
            found.push(conf.display().to_string());
        }
    }
    assert_none("crate clippy.toml files without the root's disallowed-types block", found);
}
