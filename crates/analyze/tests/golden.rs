//! Golden-diagnostic test: run the full `analyze` pass — the exact code
//! path behind `cargo xtask analyze` — over the checked-in fixture
//! mini-workspace (`tests/fixtures/mini`) and assert every diagnostic's
//! rule and `file:line:col`.
//!
//! The fixture plants one violation per rule:
//!
//! - an unjustified `Ordering::SeqCst`,
//! - a `thread::sleep` in the OSD op path.

use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini")
}

#[test]
fn mini_workspace_produces_exact_diagnostics() {
    let report = analyze::analyze(&fixture_root()).expect("analysis runs");

    assert_eq!(report.files_scanned, 2);
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
            ("crates/core/src/flags.rs", "atomic-ordering", 12, 18),
            ("crates/core/src/osd/engine.rs", "hot-path-blocking", 9, 22),
        ]
    );

    // Messages name the offending field and call precisely.
    assert!(report.diags[0].msg.contains("`Ordering::SeqCst` on `seq`"));
    assert!(report.diags[1].msg.contains("thread::sleep"));
}

#[test]
fn mini_workspace_diagnostics_render_with_spans_and_help() {
    let report = analyze::analyze(&fixture_root()).expect("analysis runs");
    let rendered: Vec<String> = report.diags.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered[1],
        "crates/core/src/osd/engine.rs:9:22: error [hot-path-blocking] thread::sleep \
         in the OSD op path\n    help: use a timer wheel or an event, not a stalled \
         worker; or waive with a `// blocking-ok:` comment explaining why the wait is bounded"
    );
}
