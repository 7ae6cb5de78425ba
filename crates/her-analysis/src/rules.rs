//! The rule catalog. Every rule is repo-specific: it machine-checks an
//! invariant PRs 1–4 enforced by hand (see DESIGN.md §4g for the prose
//! version of each).
//!
//! Rules operate on the token stream of one file plus a little derived
//! context (innermost function name, test-code regions, brace depth).
//! Waivers are comments of the form `// #[allow(her::rule_name)]` on the
//! finding's line or the line above — or on (or directly above) the
//! header of an enclosing `fn`/`impl`/`mod`, which waives the rule for
//! the whole item — ideally followed by a justification.

use crate::ir::{item_spans, match_bracket};
use crate::lexer::{lex, Lexed, Tok, TokKind};

/// One lint finding. `waived` is set during waiver application.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id, e.g. `her::raw_sync_lock`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    pub waived: bool,
}

pub const RAW_SYNC_LOCK: &str = "her::raw_sync_lock";
pub const WALLCLOCK_IN_REPLAY: &str = "her::wallclock_in_replay";
pub const PANICKING_DECODE: &str = "her::panicking_decode";
pub const UNREGISTERED_METRIC: &str = "her::unregistered_metric";
pub const GENERATION_ENTRY_POINT: &str = "her::generation_entry_point";
pub const LITERAL_LOCK_RANK: &str = "her::literal_lock_rank";
pub const UNGUARDED_SPAN: &str = "her::unguarded_span";
pub const RAW_FS_WRITE: &str = "her::raw_fs_write";
pub const BUDGET_NOT_THREADED: &str = "her::budget_not_threaded";

/// All rule ids, for `--list` and the report header.
pub const ALL_RULES: &[&str] = &[
    RAW_SYNC_LOCK,
    WALLCLOCK_IN_REPLAY,
    PANICKING_DECODE,
    UNREGISTERED_METRIC,
    GENERATION_ENTRY_POINT,
    LITERAL_LOCK_RANK,
    UNGUARDED_SPAN,
    RAW_FS_WRITE,
    BUDGET_NOT_THREADED,
];

/// Per-token context derived in one pass: innermost enclosing function
/// name and whether the token sits in test code (a `mod tests { .. }`
/// region, or anywhere in an integration-test/bench file).
struct Ctx {
    /// Innermost function name per token index (empty = module level).
    fn_name: Vec<String>,
    /// Test-code flag per token index.
    in_tests: Vec<bool>,
}

fn derive_ctx(toks: &[Tok], whole_file_is_test: bool) -> Ctx {
    let mut fn_name = Vec::with_capacity(toks.len());
    let mut in_tests = Vec::with_capacity(toks.len());
    // (name, depth at which its body opened)
    let mut fns: Vec<(String, u32)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut tests_depth: Option<u32> = None;
    let mut pending_tests = false;
    let mut depth = 0u32;
    for (i, t) in toks.iter().enumerate() {
        // Record context BEFORE processing the token, so `fn` itself is
        // attributed to the enclosing scope.
        fn_name.push(fns.last().map(|(n, _)| n.clone()).unwrap_or_default());
        in_tests.push(whole_file_is_test || tests_depth.is_some());
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "fn") => {
                if let Some(n) = toks.get(i + 1) {
                    if n.kind == TokKind::Ident {
                        pending_fn = Some(n.text.clone());
                    }
                }
            }
            (TokKind::Ident, "mod")
                if toks.get(i + 1).is_some_and(|n| n.text == "tests") => {
                    pending_tests = true;
                }
            (TokKind::Punct, "{") => {
                depth += 1;
                if let Some(name) = pending_fn.take() {
                    fns.push((name, depth));
                }
                if pending_tests && tests_depth.is_none() {
                    tests_depth = Some(depth);
                    pending_tests = false;
                }
            }
            (TokKind::Punct, "}") => {
                if fns.last().is_some_and(|&(_, d)| d == depth) {
                    fns.pop();
                }
                if tests_depth == Some(depth) {
                    tests_depth = None;
                }
                depth = depth.saturating_sub(1);
            }
            // A `;` before any `{` ends a bodiless declaration (trait
            // method, extern fn): drop the pending name.
            (TokKind::Punct, ";") => {
                pending_fn = None;
            }
            _ => {}
        }
    }
    Ctx { fn_name, in_tests }
}

/// The preregistered metric universe, parsed from
/// `crates/her-obs/src/names.rs` (every string literal in that file).
pub struct MetricNames {
    pub names: Vec<(String, u32)>,
}

impl MetricNames {
    /// Reads the string literals of the `ALL` array — and only those;
    /// strings elsewhere in the file (tests, docs) are not names.
    pub fn parse(names_rs_src: &str) -> Self {
        let l = lex(names_rs_src);
        let mut names = Vec::new();
        // 0: before `ALL`; 1: in its type, waiting for `=`; 2: in the
        // array initializer (ends at the first `]` after `=`).
        let mut state = 0u8;
        for t in &l.toks {
            match state {
                0 if t.kind == TokKind::Ident && t.text == "ALL" => state = 1,
                1 if t.text == "=" => state = 2,
                2 if t.kind == TokKind::Str => names.push((t.text.clone(), t.line)),
                2 if t.text == "]" => break,
                _ => {}
            }
        }
        MetricNames { names }
    }

    pub fn contains(&self, name: &str) -> bool {
        self.names.iter().any(|(n, _)| n == name)
    }
}

fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.starts_with("benches/") || path.contains("/tests/")
}

/// Runs every rule over one file and applies its waivers. `path` is
/// workspace-relative with forward slashes — rules scope on it.
pub fn analyze_file(path: &str, src: &str, metrics: &MetricNames) -> Vec<Finding> {
    let lexed = lex(src);
    let ctx = derive_ctx(&lexed.toks, is_test_path(path));
    let mut findings = Vec::new();
    raw_sync_lock(path, &lexed.toks, &mut findings);
    wallclock_in_replay(path, &lexed.toks, &ctx, &mut findings);
    panicking_decode(path, &lexed.toks, &ctx, &mut findings);
    unregistered_metric(path, &lexed.toks, &ctx, metrics, &mut findings);
    generation_entry_point(path, &lexed.toks, &ctx, &mut findings);
    literal_lock_rank(path, &lexed.toks, &ctx, &mut findings);
    unguarded_span(path, &lexed.toks, &ctx, &mut findings);
    raw_fs_write(path, &lexed.toks, &ctx, &mut findings);
    budget_not_threaded(path, &lexed.toks, &ctx, &mut findings);
    apply_waivers(&lexed, &mut findings);
    findings
}

/// Marks findings covered by a `#[allow(her::rule)]` comment: on the
/// finding's line or the line immediately above, or on (or immediately
/// above) the header line of an item whose span contains the finding. A
/// comment separated from either by a blank line does *not* count.
pub fn apply_waivers(lexed: &Lexed, findings: &mut [Finding]) {
    if lexed.waivers.is_empty() || findings.is_empty() {
        return;
    }
    let adjacent = |waiver: u32, line: u32| waiver == line || waiver + 1 == line;
    let spans = item_spans(&lexed.toks);
    for f in findings.iter_mut() {
        let short = f.rule.trim_start_matches("her::");
        f.waived = lexed.waivers.iter().any(|w| {
            w.rule == short
                && (adjacent(w.line, f.line)
                    || spans.iter().any(|s| {
                        adjacent(w.line, s.line) && s.line <= f.line && f.line <= s.end_line
                    }))
        });
    }
}

/// Rule 1 — `her::raw_sync_lock`: the workspace takes locks only through
/// the `her-sync` facade (re-exported as `her_core::sync`), whose ranked
/// wrappers feed the lock-order tracker. A raw `std::sync` lock is
/// invisible to the tracker, so ordering bugs against it reappear as
/// silent deadlocks. Scope: every crate except `her-sync` itself.
fn raw_sync_lock(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    if path.starts_with("crates/her-sync/") {
        return;
    }
    const LOCKS: &[&str] = &[
        "Mutex",
        "RwLock",
        "MutexGuard",
        "RwLockReadGuard",
        "RwLockWriteGuard",
    ];
    let flag = |t: &Tok, out: &mut Vec<Finding>| {
        out.push(Finding {
            rule: RAW_SYNC_LOCK,
            path: path.to_string(),
            line: t.line,
            message: format!(
                "raw std::sync::{} — use the her-sync facade (her_core::sync) so the \
                 lock participates in lock-order tracking",
                t.text
            ),
            waived: false,
        });
    };
    let mut i = 0;
    while i + 4 < toks.len() {
        let seq_std_sync = toks[i].text == "std"
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && toks[i + 3].text == "sync";
        if seq_std_sync && toks[i + 4].text == ":" {
            // `std::sync::X` or `std::sync::{A, B, ...}`
            let mut j = i + 5;
            if toks.get(j).is_some_and(|t| t.text == ":") {
                j += 1;
            }
            match toks.get(j) {
                Some(t) if t.text == "{" => {
                    let mut depth = 1;
                    let mut k = j + 1;
                    while k < toks.len() && depth > 0 {
                        match toks[k].text.as_str() {
                            "{" => depth += 1,
                            "}" => depth -= 1,
                            name if LOCKS.contains(&name)
                                && toks[k].kind == TokKind::Ident =>
                            {
                                flag(&toks[k], out)
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    i = k;
                    continue;
                }
                Some(t) if t.kind == TokKind::Ident && LOCKS.contains(&t.text.as_str()) => {
                    flag(t, out);
                }
                _ => {}
            }
        }
        i += 1;
    }
}

/// Rule 2 — `her::wallclock_in_replay`: WAL replay, snapshot restore and
/// resume paths must be deterministic — replaying the same journal twice
/// must rebuild bit-identical state. A wall-clock read (`Instant::now`,
/// `SystemTime`) inside such a path makes recovery time-dependent.
/// Scope: `her-store` and `her-core`, inside functions whose name
/// contains `replay`, `restore`, `resume` or `load_latest`.
fn wallclock_in_replay(path: &str, toks: &[Tok], ctx: &Ctx, out: &mut Vec<Finding>) {
    if !(path.starts_with("crates/her-store/") || path.starts_with("crates/her-core/")) {
        return;
    }
    let scoped = |name: &str| {
        ["replay", "restore", "resume", "load_latest"]
            .iter()
            .any(|k| name.contains(k))
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_tests[i] || !scoped(&ctx.fn_name[i]) {
            continue;
        }
        let hit = match t.text.as_str() {
            "SystemTime" => true,
            "Instant" => {
                toks.get(i + 1).is_some_and(|a| a.text == ":")
                    && toks.get(i + 3).is_some_and(|b| b.text == "now")
            }
            _ => false,
        };
        if hit {
            out.push(Finding {
                rule: WALLCLOCK_IN_REPLAY,
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "wall-clock read ({}) inside `{}` — replay/restore paths must be \
                     deterministic; take timestamps outside the replay loop",
                    t.text, ctx.fn_name[i]
                ),
                waived: false,
            });
        }
    }
}

/// Rule 3 — `her::panicking_decode`: decode paths parse bytes that may
/// come from a torn or corrupted file, and message handlers run inside
/// supervised workers whose panics count as worker deaths — both must
/// degrade to errors, never abort. Flags `.unwrap()`, `.expect(` and
/// slice indexing. Scope: all non-test code in `her-store`'s `codec.rs`
/// and `frame.rs`; `her-store` functions whose name contains `replay`,
/// `load` or `decode`; and `her-parallel` message-handling functions
/// (`superstep`, `reroute`, `send`, `emit`, `process`).
fn panicking_decode(path: &str, toks: &[Tok], ctx: &Ctx, out: &mut Vec<Finding>) {
    let store = path.starts_with("crates/her-store/");
    let parallel = path.starts_with("crates/her-parallel/");
    if !store && !parallel {
        return;
    }
    let whole_file = store && (path.ends_with("/codec.rs") || path.ends_with("/frame.rs"));
    let scoped = |name: &str| {
        if store {
            ["replay", "load", "decode"].iter().any(|k| name.contains(k))
        } else {
            ["superstep", "reroute", "send", "emit", "process"].contains(&name)
        }
    };
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_tests[i] {
            continue;
        }
        let name = &ctx.fn_name[i];
        let in_scope = (whole_file && !name.is_empty()) || scoped(name);
        if !in_scope {
            continue;
        }
        let mut hit: Option<String> = None;
        if t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect") {
            let method = i > 0 && toks[i - 1].text == ".";
            let call = toks.get(i + 1).is_some_and(|n| n.text == "(");
            if method && call {
                hit = Some(format!(".{}() can panic", t.text));
            }
        } else if t.kind == TokKind::Punct && t.text == "[" && i > 0 {
            // `expr[...]` indexing: `[` directly after an identifier, `)`
            // or `]`. Array literals / attributes follow `=`, `(`, `#` etc.
            let p = &toks[i - 1];
            let indexing = matches!(p.kind, TokKind::Ident) && !is_keyword(&p.text)
                || p.text == ")"
                || p.text == "]"
                || p.text == "?";
            if indexing {
                hit = Some("slice indexing can panic on out-of-range".to_string());
            }
        }
        if let Some(what) = hit {
            out.push(Finding {
                rule: PANICKING_DECODE,
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "{what} in `{name}` — decode/message paths must degrade to errors \
                     (torn input / bad peer is not a crash)"
                ),
                waived: false,
            });
        }
    }
}

fn is_keyword(s: &str) -> bool {
    [
        "return", "break", "in", "if", "else", "match", "let", "mut", "ref", "move", "as",
    ]
    .contains(&s)
}

/// Rule 4 — `her::unregistered_metric`: every metric name passed to
/// `.counter("…")` / `.gauge("…")` / `.histogram("…")` must appear in the
/// central preregistration list (`her-obs::names`), so dashboards can
/// enumerate the full telemetry surface without running every engine. Dynamic (non-literal) name sites cannot be checked and
/// need a waiver. The reverse direction — registered but never used — is
/// checked workspace-wide in [`crate::check_workspace`].
fn unregistered_metric(
    path: &str,
    toks: &[Tok],
    ctx: &Ctx,
    metrics: &MetricNames,
    out: &mut Vec<Finding>,
) {
    if path.starts_with("crates/her-obs/src/names.rs") {
        return;
    }
    const SINKS: &[&str] = &["counter", "gauge", "histogram", "histogram_with"];
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_tests[i]
            || t.kind != TokKind::Ident
            || !SINKS.contains(&t.text.as_str())
            || i == 0
            || toks[i - 1].text != "."
            || toks.get(i + 1).is_none_or(|n| n.text != "(")
        {
            continue;
        }
        match toks.get(i + 2) {
            Some(arg) if arg.kind == TokKind::Str && !metrics.contains(&arg.text) => {
                out.push(Finding {
                    rule: UNREGISTERED_METRIC,
                    path: path.to_string(),
                    line: arg.line,
                    message: format!(
                        "metric `{}` is not preregistered in her-obs::names::ALL",
                        arg.text
                    ),
                    waived: false,
                });
            }
            // Registered literal, or `)` — a zero-arg method of another type.
            Some(arg) if arg.kind == TokKind::Str || arg.text == ")" => {}
            Some(arg) => {
                out.push(Finding {
                    rule: UNREGISTERED_METRIC,
                    path: path.to_string(),
                    line: arg.line,
                    message: format!(
                        ".{}(…) with a dynamic name — cannot check against the \
                         preregistration list; waive with the name family documented",
                        t.text
                    ),
                    waived: false,
                });
            }
            None => {}
        }
    }
}

/// Rule 5 — `her::generation_entry_point`: a matcher adopts the shared
/// score generation only at non-recursive entry points; reading it
/// mid-recursion would let an `invalidate()` from another thread tear
/// one traversal's score view. Scope: `her-core` outside
/// `shared_scores.rs` (the definition site); `.generation()` may be
/// called only inside the declared entry-point functions.
fn generation_entry_point(path: &str, toks: &[Tok], ctx: &Ctx, out: &mut Vec<Finding>) {
    if !path.starts_with("crates/her-core/") || path.ends_with("/shared_scores.rs") {
        return;
    }
    const ENTRY_POINTS: &[&str] = &[
        "with_options",
        "sync_shared_generation",
        "try_match",
        "mrho_seq",
        "restore",
        "invalidate",
    ];
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_tests[i]
            || t.kind != TokKind::Ident
            || t.text != "generation"
            || i == 0
            || toks[i - 1].text != "."
            || toks.get(i + 1).is_none_or(|n| n.text != "(")
        {
            continue;
        }
        let name = &ctx.fn_name[i];
        if !ENTRY_POINTS.contains(&name.as_str()) {
            out.push(Finding {
                rule: GENERATION_ENTRY_POINT,
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "shared-scores generation read inside `{name}` — only declared \
                     entry points ({}) may observe the generation",
                    ENTRY_POINTS.join(", ")
                ),
                waived: false,
            });
        }
    }
}

/// Rule 6 — `her::literal_lock_rank`: lock ranks are a global total
/// order, so every rank must come from the central table
/// (`her_sync::rank`) where the whole ordering is visible on one screen.
/// A `Rank::new(<n>, …)` at a use site invents a rank whose relation to
/// the rest of the hierarchy nobody reviews — two crates independently
/// picking 7 is a future deadlock the tracker can't name. Scope: all
/// non-test code outside `her-sync` itself (the table and its tests are
/// the one legitimate construction site).
fn literal_lock_rank(path: &str, toks: &[Tok], ctx: &Ctx, out: &mut Vec<Finding>) {
    if path.starts_with("crates/her-sync/") {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_tests[i]
            || t.kind != TokKind::Ident
            || t.text != "Rank"
            || toks.get(i + 1).is_none_or(|a| a.text != ":")
            || toks.get(i + 2).is_none_or(|a| a.text != ":")
            || toks.get(i + 3).is_none_or(|a| a.kind != TokKind::Ident || a.text != "new")
            || toks.get(i + 4).is_none_or(|a| a.text != "(")
        {
            continue;
        }
        let arg = match toks.get(i + 5) {
            Some(n) if n.kind == TokKind::Num => format!("Rank::new({}, …)", n.text),
            _ => "Rank::new(…)".to_string(),
        };
        out.push(Finding {
            rule: LITERAL_LOCK_RANK,
            path: path.to_string(),
            line: t.line,
            message: format!(
                "{arg} invents a lock rank at a use site — add a named constant to \
                 the central table (her_sync::rank) so the total order stays reviewable"
            ),
            waived: false,
        });
    }
}

/// Rule 7 — `her::unguarded_span`: a tracer span is an RAII guard whose
/// `Drop` emits the Exit event that closes the span. Calling `.span(…)`
/// or `.span_ctx(…)` without binding the guard — a bare statement, or
/// `let _ = …`, both of which drop immediately — records a zero-width
/// span and malforms the trace tree (`her-cli trace` renders the work it
/// was meant to cover as happening outside it). Scope: all non-test code
/// outside `her-obs` itself (the tracer may delegate between its own
/// constructors). Bind guards you never read as `let _name = …`.
fn unguarded_span(path: &str, toks: &[Tok], ctx: &Ctx, out: &mut Vec<Finding>) {
    if path.starts_with("crates/her-obs/") {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_tests[i]
            || t.kind != TokKind::Ident
            || !(t.text == "span" || t.text == "span_ctx")
            || i == 0
            || toks[i - 1].text != "."
            || toks.get(i + 1).is_none_or(|n| n.text != "(")
        {
            continue;
        }
        // The enclosing statement starts after the nearest `;`, `{` or
        // `}`; a guard is bound iff that statement is `let <ident> = …`
        // with a real name (`let _ =` drops the guard on the spot).
        let start = toks[..i]
            .iter()
            .rposition(|p| {
                p.kind == TokKind::Punct && matches!(p.text.as_str(), ";" | "{" | "}")
            })
            .map_or(0, |j| j + 1);
        let guarded = toks.get(start).is_some_and(|k| k.text == "let")
            && toks
                .get(start + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && n.text != "_");
        if !guarded {
            out.push(Finding {
                rule: UNGUARDED_SPAN,
                path: path.to_string(),
                line: t.line,
                message: format!(
                    ".{}(…) without a bound guard — the span closes at end of \
                     statement, not where the work ends; bind it (`let _span = …`) \
                     so Drop marks the real exit",
                    t.text
                ),
                waived: false,
            });
        }
    }
}

/// Rule 8 — `her::raw_fs_write`: the durability crates write to disk
/// only through the `her_store::Vfs` facade, so seeded I/O faults
/// (`FaultVfs`) cover every byte on its way to stable storage. A direct
/// `std::fs` write, `File::create`/`File::options` or
/// `OpenOptions::new` in `her-store` or `her-serve` opens a side door
/// the fault drills can never exercise — exactly the path that will
/// fail for real one day, untested. Scope: non-test code in those two
/// crates; `RealVfs` (the facade's sanctioned backend) and
/// diagnostics-only sinks carry justified waivers.
fn raw_fs_write(path: &str, toks: &[Tok], ctx: &Ctx, out: &mut Vec<Finding>) {
    if !(path.starts_with("crates/her-store/") || path.starts_with("crates/her-serve/")) {
        return;
    }
    const FS_WRITES: &[&str] = &[
        "write",
        "rename",
        "remove_file",
        "remove_dir_all",
        "create_dir",
        "create_dir_all",
        "copy",
        "hard_link",
        "set_permissions",
    ];
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_tests[i] || t.kind != TokKind::Ident {
            continue;
        }
        let path2 = toks.get(i + 1).is_some_and(|a| a.text == ":")
            && toks.get(i + 2).is_some_and(|a| a.text == ":");
        // `fs::<op>(` — also matches the tail of `std::fs::<op>(`.
        let hit = if t.text == "fs" && path2 {
            match toks.get(i + 3) {
                Some(n)
                    if n.kind == TokKind::Ident
                        && FS_WRITES.contains(&n.text.as_str())
                        && toks.get(i + 4).is_some_and(|p| p.text == "(") =>
                {
                    Some(format!("std::fs::{}", n.text))
                }
                _ => None,
            }
        } else if (t.text == "File" || t.text == "OpenOptions") && path2 {
            match toks.get(i + 3) {
                Some(n)
                    if n.kind == TokKind::Ident
                        && ((t.text == "File"
                            && matches!(
                                n.text.as_str(),
                                "create" | "create_new" | "options"
                            ))
                            || (t.text == "OpenOptions" && n.text == "new")) =>
                {
                    Some(format!("{}::{}", t.text, n.text))
                }
                _ => None,
            }
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(Finding {
                rule: RAW_FS_WRITE,
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "{what} bypasses the Vfs facade — route storage writes through \
                     `her_store::Vfs` so fault injection covers them (RealVfs is \
                     the sanctioned backend; waive diagnostics-only sinks with a \
                     justification)"
                ),
                waived: false,
            });
        }
    }
}

/// Rule 9 — `her::budget_not_threaded`: `her-serve` is the always-on
/// path — a handler that reaches `Her::try_vpair`, `Her::try_apair_stats`,
/// `Her::matcher_with` or a pooled `pool.run(..)` with
/// `MatcherOptions::default()` (or a bare `Budget::default()`-shaped
/// value) runs unbounded matcher work under an admission slot, which is
/// exactly the regression the admission controller exists to prevent.
/// The check is syntactic at the serve → core boundary: each call site's
/// argument list must mention a budget-shaped value — `self.budget(..)`,
/// `self.matcher_opts(..)`, a `deadline` local, a `Budget` value or a
/// field access ending in `.budget`. Helper indirection inside her-serve
/// is fine — the helper's own boundary call is checked instead. `matcher`
/// and the non-`try_` modes are deliberately absent: they are the
/// documented unbounded API; so are the `_with` mode bodies, which run
/// on a matcher armed by their caller. Scope: non-test function bodies under
/// `crates/her-serve/src/`.
fn budget_not_threaded(path: &str, toks: &[Tok], ctx: &Ctx, out: &mut Vec<Finding>) {
    if !path.starts_with("crates/her-serve/src/") {
        return;
    }
    const ENTRY_POINTS: &[&str] = &["try_vpair", "try_apair_stats", "matcher_with"];
    // A pooled run — `pool.run(budget, cancel, ctx, |m| her.<mode>_with(m, ..))`
    // — arms the matcher the mode body runs on.
    let pooled_run = |i: usize| {
        toks[i].text == "run" && i >= 2 && toks[i - 1].text == "." && toks[i - 2].text.ends_with("pool")
    };
    let is_budget_marker = |text: &str| {
        let lc = text.to_lowercase();
        lc.contains("budget") || lc.contains("deadline") || lc.contains("opts")
    };
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let is_call = !ctx.in_tests[i]
            && !ctx.fn_name[i].is_empty()
            && t.kind == TokKind::Ident
            && (ENTRY_POINTS.contains(&t.text.as_str()) || pooled_run(i))
            && toks.get(i + 1).is_some_and(|n| n.text == "(");
        if !is_call {
            i += 1;
            continue;
        }
        let close = match_bracket(toks, i + 1, "(", ")");
        let threaded = toks.get(i + 2..close).is_some_and(|args| {
            args.iter()
                .any(|a| a.kind == TokKind::Ident && is_budget_marker(&a.text))
        });
        if !threaded {
            out.push(Finding {
                rule: BUDGET_NOT_THREADED,
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` calls `{}` without threading a budget or deadline — \
                     serving-path matcher work must be bounded (pass \
                     `self.budget(..)` / `self.matcher_opts(..)` or a \
                     `Budget`-carrying options value)",
                    ctx.fn_name[i], t.text
                ),
                waived: false,
            });
        }
        i = close + 1;
    }
}
