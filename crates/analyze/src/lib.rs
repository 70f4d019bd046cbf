//! Cross-file static analysis for the afcstore workspace.
//!
//! This crate is the engine behind `cargo xtask analyze`: a lightweight
//! Rust tokenizer ([`lexer`]) and an item/block scanner ([`source`])
//! producing span-accurate diagnostics (`file:line:col`, rule id,
//! severity, suggestion).
//!
//! A rule lives here only if rustc, clippy, the runtime lockdep and the
//! test suite cannot catch the same defect: each rule's module doc names
//! the canary it exists for and the gates that miss it, and a unit test
//! plants that canary. Rule catalog (see [`rules`]):
//!
//! | rule id               | checks                                                    |
//! |-----------------------|-----------------------------------------------------------|
//! | `atomic-ordering`     | unjustified `SeqCst`, unpaired Acquire/Release            |
//! | `hot-path-blocking`   | sleeps / blocking recv / file I/O in the OSD op path      |
//!
//! Lock order is the runtime lockdep's (every nesting in this tree
//! crosses a function call, which a token scan cannot follow), and
//! unwraps and discarded `#[must_use]` results are clippy's
//! (`unwrap_used`, `expect_used`, `let_underscore_must_use`, denied at
//! the storage crates' roots). Fault sites are a type
//! (`afc_common::faults::FaultSite`): a misspelled one does not compile,
//! and `fault_matrix`'s every-site case requires each to fire. Metric
//! names are checked where they are made (`MetricId::new`, debug builds).
//!
//! The whole pass is plain-text + tokenizer work: no rustc plumbing, no
//! network, and it finishes in well under a second on this workspace.

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

/// Result of one analysis pass.
pub struct Report {
    /// Diagnostics, sorted by (file, line, col, rule).
    pub diags: Vec<Diag>,
    pub files_scanned: usize,
}

impl Report {
    /// True when there is no error-level diagnostic.
    pub fn is_clean(&self) -> bool {
        self.diags.iter().all(|d| d.severity != Severity::Error)
    }
}

/// Run the full pass over the workspace at `root`: scan, build the
/// model, run every rule.
pub fn analyze(root: &Path) -> Result<Report, String> {
    let files = source::collect(root)?;
    let files_scanned = files.len();
    let model = model::build(&files);
    let ws = Workspace { files, model };
    let mut diags = rules::run_all(&ws);
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(Report {
        diags,
        files_scanned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_clean() {
        let report = Report {
            diags: Vec::new(),
            files_scanned: 0,
        };
        assert!(report.is_clean());
    }
}
