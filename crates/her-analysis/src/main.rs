//! CLI: `cargo run -p her-analysis -- <command>`.
//!
//! Commands:
//!
//! - `check [--json]` — lint the workspace. `--json` prints the findings
//!   as a JSON array on stdout.
//! - `list` — rule ids.
//!
//! Exit codes: 0 clean (waived findings allowed), 1 unwaived findings,
//! 2 usage error. The human report always goes to stderr so CI logs stay
//! readable either way.

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo run -p her-analysis -- check [--json]\n       \
         cargo run -p her-analysis -- list"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut cmd: Option<String> = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => json = true,
            "check" | "list" => cmd = Some(a),
            other => {
                eprintln!("her-analysis: unknown argument `{other}`");
                return usage();
            }
        }
    }
    match cmd.as_deref() {
        Some("list") => {
            for r in her_analysis::rules::ALL_RULES {
                println!("{r}");
            }
            ExitCode::SUCCESS
        }
        Some("check") => {
            let root = her_analysis::find_root();
            let (findings, files) = her_analysis::check_workspace(&root);
            if json {
                println!("{}", her_analysis::report::render_json(&findings));
            }
            eprint!("{}", her_analysis::report::render_text(&findings, files));
            if findings.iter().any(|f| !f.waived) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
