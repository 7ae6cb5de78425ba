//! Report rendering: a human summary for terminals and a line-oriented
//! JSON array for machines (CI annotations, dashboards). JSON is emitted
//! by hand — the crate is dependency-free on purpose.

use crate::rules::Finding;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The machine-readable report: a JSON array of findings, waived ones
/// included (consumers filter on `"waived"`).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"waived\":{},\"message\":\"{}\"}}{}\n",
            f.rule,
            json_escape(&f.path),
            f.line,
            f.waived,
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

/// The human report: one `path:line: [rule] message` per finding,
/// unwaived first, then a summary line.
pub fn render_text(findings: &[Finding], files_checked: usize) -> String {
    let mut out = String::new();
    let (unwaived, waived): (Vec<_>, Vec<_>) = findings.iter().partition(|f| !f.waived);
    for f in &unwaived {
        out.push_str(&format!("{}:{}: [{}] {}\n", f.path, f.line, f.rule, f.message));
    }
    for f in &waived {
        out.push_str(&format!(
            "{}:{}: [{}] waived: {}\n",
            f.path, f.line, f.rule, f.message
        ));
    }
    out.push_str(&format!(
        "her-analysis: {} files checked, {} finding(s) ({} waived)\n",
        files_checked,
        findings.len(),
        waived.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, waived: bool) -> Finding {
        Finding {
            rule,
            path: "a/b.rs".into(),
            line: 3,
            message: "msg with \"quotes\"".into(),
            waived,
        }
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let j = render_json(&[f("her::raw_sync_lock", false), f("her::panicking_decode", true)]);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\"waived\":true"));
        assert_eq!(j.matches("\"rule\"").count(), 2);
    }

    #[test]
    fn text_report_counts_waivers() {
        let t = render_text(&[f("her::raw_sync_lock", false), f("her::raw_sync_lock", true)], 7);
        assert!(t.contains("7 files checked, 2 finding(s) (1 waived)"));
        assert!(t.contains("waived: msg"));
    }
}
