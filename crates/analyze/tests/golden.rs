//! Golden-diagnostic test: run the full `analyze` pass — the exact code
//! path behind `cargo xtask analyze` — over the checked-in fixture
//! mini-workspace (`tests/fixtures/mini`) and assert every diagnostic's
//! rule and `file:line:col`.
//!
//! The fixture plants one violation per rule:
//!
//! - a misnamed fault site (`Mini.Data`),
//! - an unjustified `Ordering::SeqCst`,
//! - a lock-order inversion (`SECOND` held while `FIRST` is acquired),
//! - a `thread::sleep` in the OSD op path,
//! - an `.unwrap()` on a channel receive in the journal,
//! - a `let _ =` that swallows a device write in the journal.

use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini")
}

#[test]
fn mini_workspace_produces_exact_diagnostics() {
    let report = analyze::analyze(&fixture_root()).expect("analysis runs");

    assert_eq!(report.files_scanned, 5);
    assert!(!report.is_clean());

    // One finding per rule, nothing else.
    let got: Vec<(&str, &str, u32, u32)> = report
        .diags
        .iter()
        .map(|d| (d.file.as_str(), d.rule, d.line, d.col))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/core/src/cluster.rs", "site-names", 5, 21),
            ("crates/core/src/flags.rs", "atomic-ordering", 12, 18),
            ("crates/core/src/osd/engine.rs", "lock-order", 22, 22),
            ("crates/core/src/osd/engine.rs", "hot-path-blocking", 28, 22),
            ("crates/journal/src/lib.rs", "no-unwrap-on-sync", 5, 15),
            ("crates/journal/src/lib.rs", "no-discarded-io", 9, 5),
        ]
    );

    // Messages name the offending classes/sites precisely.
    assert!(report.diags[0].msg.contains("`Mini.Data`"));
    assert!(report.diags[1].msg.contains("`Ordering::SeqCst` on `seq`"));
    assert!(report.diags[2]
        .msg
        .contains("acquiring `FIRST` (rank 10) while holding `SECOND` (rank 20"));
    assert!(report.diags[3].msg.contains("thread::sleep"));
    assert!(report.diags[4].msg.contains(".unwrap()"));
    assert!(report.diags[5].msg.contains(".submit("));
}

#[test]
fn mini_workspace_diagnostics_render_with_spans_and_help() {
    let report = analyze::analyze(&fixture_root()).expect("analysis runs");
    let rendered: Vec<String> = report.diags.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered[2],
        "crates/core/src/osd/engine.rs:22:22: error [lock-order] acquiring `FIRST` \
         (rank 10) while holding `SECOND` (rank 20, guard `b`) contradicts \
         lockdep::DECLARED_ORDER\n    help: acquire `FIRST` before `SECOND`, or drop `b` first"
    );
}
