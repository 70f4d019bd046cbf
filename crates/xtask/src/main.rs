//! Workspace automation. Run as `cargo xtask <command>` (see
//! `.cargo/config.toml` for the alias).
//!
//! Commands:
//!
//! - `analyze` — the cross-file static-analysis pass over the workspace
//!   sources (site names, memory-ordering hygiene, blocking calls in the
//!   op path; see the `analyze` crate for the rule catalog). Exits non-zero on violations, so CI
//!   and pre-commit hooks can gate on it.
//! - `bench-check` — run the repo benchmark (`benchmark/`) in quick trace
//!   mode and compare its per-op counts against the table in
//!   [`bench_check`]; exits non-zero when a count moved, an op failed, a
//!   read was wrong or the replicas differ.
//!
//! Neither command takes a flag.

mod bench_check;

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/xtask/ → workspace root is two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|e| {
            eprintln!("xtask: cannot resolve workspace root: {e}");
            std::process::exit(2);
        })
}

fn run_analyze() -> ExitCode {
    let report = match analyze::analyze(&workspace_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &report.diags {
        println!("{d}");
    }
    println!(
        "xtask analyze: {} file(s), {} finding(s){}",
        report.files_scanned,
        report.diags.len(),
        if report.is_clean() { " — clean" } else { "" }
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd] if cmd == "analyze" => run_analyze(),
        [cmd] if cmd == "bench-check" => bench_check::run(&workspace_root()),
        _ => {
            eprintln!("usage: cargo xtask <analyze|bench-check> (neither takes a flag)");
            ExitCode::from(2)
        }
    }
}
