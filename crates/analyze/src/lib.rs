//! Cross-file static analysis for the afcstore workspace.
//!
//! This crate is the engine behind `cargo xtask analyze`: a lightweight
//! Rust tokenizer ([`lexer`]) and an item/block scanner ([`source`])
//! producing span-accurate diagnostics (`file:line:col`, rule id,
//! severity, suggestion), machine-readable `--json` output, and a
//! shrink-only baseline file (`analyze-baseline.txt`).
//!
//! Rule catalog (see [`rules`]):
//!
//! | rule id               | checks                                                    |
//! |-----------------------|-----------------------------------------------------------|
//! | `no-std-sync`         | `std::sync` lock primitives outside lockdep               |
//! | `no-unwrap-on-sync`   | unwrap/expect on lock/channel results in hot-path crates  |
//! | `no-println-in-lib`   | `println!`/`eprintln!` in library code                    |
//! | `pg-state-confinement`| `Pg::state` locked outside the pending-queue entry points |
//! | `no-discarded-io`     | `let _ =` on fallible I/O results in storage crates       |
//! | `lock-order`          | nested Tracked* acquisitions contradicting `DECLARED_ORDER` |
//! | `site-names`          | fault/metric site naming, unarmed fault sites, dead metrics |
//! | `atomic-ordering`     | unjustified `SeqCst`, unpaired Acquire/Release            |
//! | `hot-path-blocking`   | sleeps / blocking recv / file I/O in the OSD op path      |
//! | `hot-path-copy`       | deep copies of op payload buffers in the write hot path   |
//!
//! The whole pass is plain-text + tokenizer work: no rustc plumbing, no
//! network, and it finishes in well under a second on this workspace.

pub mod baseline;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod source;

use std::fmt;
use std::path::Path;

/// Diagnostic severity. Only `Error` fails the pass; `Warn` is advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    Warn,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One finding at one source location.
#[derive(Clone, Debug)]
pub struct Diag {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line; 0 for file-level findings.
    pub line: u32,
    /// 1-based column; 0 when no finer anchor exists.
    pub col: u32,
    /// Rule slug.
    pub rule: &'static str,
    pub severity: Severity,
    /// Human explanation of the defect.
    pub msg: String,
    /// Actionable fix hint, when one exists.
    pub suggestion: Option<String>,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} [{}] {}",
            self.file,
            self.line,
            self.col,
            self.severity.as_str(),
            self.rule,
            self.msg
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n    help: {s}")?;
        }
        Ok(())
    }
}

/// Everything the rules need: scanned files plus the cross-file model.
pub struct Workspace {
    pub files: Vec<source::SourceFile>,
    pub model: model::Model,
}

/// Result of one analysis pass, after baseline application.
pub struct Report {
    /// Surviving diagnostics, sorted by (file, line, col, rule).
    pub diags: Vec<Diag>,
    pub files_scanned: usize,
    /// Diagnostics suppressed by the baseline budgets.
    pub suppressed: usize,
}

impl Report {
    /// True when nothing error-level survived the baseline.
    pub fn is_clean(&self) -> bool {
        self.diags.iter().all(|d| d.severity != Severity::Error)
    }
}

/// Run the full pass over the workspace at `root`: scan, build the
/// model, run every rule, then apply the shrink-only baseline.
pub fn analyze(root: &Path) -> Result<Report, String> {
    let files = source::collect(root)?;
    let files_scanned = files.len();
    let model = model::build(&files);
    let ws = Workspace { files, model };
    let mut diags = rules::run_all(&ws);
    let base = baseline::load(root);
    let suppressed = baseline::apply(&mut diags, &base);
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(Report {
        diags,
        files_scanned,
        suppressed,
    })
}

/// Render a report as the stable `afc-analyze/1` JSON schema (hand
/// rolled — this crate is dependency-free by design).
pub fn to_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"schema\": \"afc-analyze/1\",\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"clean\": {},\n",
        report.files_scanned,
        report.suppressed,
        report.is_clean()
    ));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"severity\": {}, \"msg\": {}",
            json_str(&d.file),
            d.line,
            d.col,
            json_str(d.rule),
            json_str(d.severity.as_str()),
            json_str(&d.msg)
        ));
        if let Some(s) = &d.suggestion {
            out.push_str(&format!(", \"suggestion\": {}", json_str(s)));
        }
        out.push('}');
    }
    if !report.diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shape() {
        let report = Report {
            diags: vec![Diag {
                file: "crates/x.rs".into(),
                line: 3,
                col: 7,
                rule: "lock-order",
                severity: Severity::Error,
                msg: "say \"hi\"".into(),
                suggestion: Some("fix\nit".into()),
            }],
            files_scanned: 2,
            suppressed: 1,
        };
        let j = to_json(&report);
        assert!(j.contains("\"schema\": \"afc-analyze/1\""));
        assert!(j.contains("\"msg\": \"say \\\"hi\\\"\""));
        assert!(j.contains("\"suggestion\": \"fix\\nit\""));
        assert!(j.contains("\"clean\": false"));
    }

    #[test]
    fn empty_report_is_clean() {
        let report = Report {
            diags: Vec::new(),
            files_scanned: 0,
            suppressed: 0,
        };
        assert!(report.is_clean());
        assert!(to_json(&report).contains("\"diagnostics\": []"));
    }
}
