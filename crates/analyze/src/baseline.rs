//! The shrink-only diagnostic baseline.
//!
//! `analyze-baseline.txt` (workspace root) budgets known violations per
//! `(rule, file)` so a new rule can land without a big-bang cleanup,
//! while ratcheting: the pass fails if a budget exceeds the live count,
//! so every fix must shrink the baseline in the same change.
//!
//! Format, one entry per line (`#` comments):
//!
//! ```text
//! <rule-id> <workspace-relative-path> <count>
//! ```

use crate::{Diag, Severity};
use std::collections::BTreeMap;
use std::path::Path;

/// Baseline file name at the workspace root.
pub const BASELINE_PATH: &str = "analyze-baseline.txt";

/// Parsed budgets: (rule, file) → allowed count.
#[derive(Debug, Default)]
pub struct Baseline {
    pub budgets: BTreeMap<(String, String), usize>,
}

/// Read the baseline file under `root`. A missing file means empty.
pub fn load(root: &Path) -> Baseline {
    let mut b = Baseline::default();
    let main = std::fs::read_to_string(root.join(BASELINE_PATH)).unwrap_or_default();
    for line in main.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        if let (Some(rule), Some(path), Some(n)) = (it.next(), it.next(), it.next()) {
            if let Ok(n) = n.parse::<usize>() {
                b.budgets.insert((rule.to_string(), path.to_string()), n);
            }
        }
    }
    b
}

/// Apply the baseline to `diags` in place. Returns how many diagnostics
/// the budgets suppressed. Semantics per `(rule, file)` group:
///
/// - live count ≤ budget → the group is suppressed;
/// - live count > budget → every diagnostic in the group is reported
///   (forcing the author to either fix or consciously grow the file's
///   entry);
/// - live count < budget → the entry is **stale** and reported as its
///   own failure, naming the nearest surviving violation line so the
///   count can be re-ratcheted without hunting.
pub fn apply(diags: &mut Vec<Diag>, base: &Baseline) -> usize {
    if base.budgets.is_empty() {
        return 0;
    }
    let mut counts: BTreeMap<(String, String), Vec<u32>> = BTreeMap::new();
    for d in diags.iter() {
        if d.severity == Severity::Error {
            counts
                .entry((d.rule.to_string(), d.file.clone()))
                .or_default()
                .push(d.line);
        }
    }
    let before = diags.len();
    diags.retain(|d| {
        if d.severity != Severity::Error {
            return true;
        }
        let key = (d.rule.to_string(), d.file.clone());
        match (base.budgets.get(&key), counts.get(&key)) {
            (Some(budget), Some(lines)) => lines.len() > *budget,
            _ => true,
        }
    });
    let suppressed = before - diags.len();
    for ((rule, path), budget) in &base.budgets {
        let lines = counts
            .get(&(rule.clone(), path.clone()))
            .cloned()
            .unwrap_or_default();
        if lines.len() < *budget {
            let survivors = if lines.is_empty() {
                format!("no {rule} violations remain in {path}")
            } else {
                format!(
                    "nearest surviving {rule} violation{} at line{} {}",
                    if lines.len() == 1 { "" } else { "s" },
                    if lines.len() == 1 { "" } else { "s" },
                    lines
                        .iter()
                        .take(3)
                        .map(|l| l.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            diags.push(Diag {
                file: path.clone(),
                line: 0,
                col: 0,
                rule: "stale-baseline",
                severity: Severity::Error,
                msg: format!(
                    "baseline permits {budget} {rule} violation(s) but only {} remain: {survivors}",
                    lines.len()
                ),
                suggestion: Some(format!(
                    "shrink the `{rule} {path}` entry in {BASELINE_PATH} to {} (the baseline may only shrink)",
                    lines.len()
                )),
            });
        }
    }
    suppressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str, line: u32) -> Diag {
        Diag {
            file: file.into(),
            line,
            col: 1,
            rule,
            severity: Severity::Error,
            msg: "m".into(),
            suggestion: None,
        }
    }

    fn base(entries: &[(&str, &str, usize)]) -> Baseline {
        Baseline {
            budgets: entries
                .iter()
                .map(|(r, p, n)| ((r.to_string(), p.to_string()), *n))
                .collect(),
        }
    }

    #[test]
    fn exact_budget_suppresses() {
        let mut d = vec![diag("lock-order", "a.rs", 3), diag("lock-order", "a.rs", 9)];
        let n = apply(&mut d, &base(&[("lock-order", "a.rs", 2)]));
        assert_eq!(n, 2);
        assert!(d.is_empty());
    }

    #[test]
    fn over_budget_reports_all() {
        let mut d = vec![diag("lock-order", "a.rs", 3), diag("lock-order", "a.rs", 9)];
        apply(&mut d, &base(&[("lock-order", "a.rs", 1)]));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn stale_entry_reports_nearest_surviving_line() {
        let mut d = vec![diag("lock-order", "a.rs", 42)];
        apply(&mut d, &base(&[("lock-order", "a.rs", 5)]));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "stale-baseline");
        assert!(d[0].msg.contains("line 42"), "{}", d[0].msg);
        assert!(d[0].suggestion.as_ref().unwrap().contains("to 1"));
    }

    #[test]
    fn stale_entry_for_clean_file_says_so() {
        let mut d = Vec::new();
        apply(&mut d, &base(&[("no-unwrap-on-sync", "b.rs", 2)]));
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("no no-unwrap-on-sync violations remain"));
    }

    #[test]
    fn unrelated_rules_pass_through() {
        let mut d = vec![diag("site-names", "a.rs", 1)];
        let n = apply(&mut d, &base(&[("lock-order", "a.rs", 1)]));
        assert_eq!(n, 0);
        // The site-names diag survives; the lock-order entry is stale.
        assert_eq!(d.len(), 2);
    }
}
