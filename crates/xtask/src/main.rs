//! Workspace automation. Run as `cargo xtask <command>` (see
//! `.cargo/config.toml` for the alias).
//!
//! Commands:
//!
//! - `analyze` — the cross-file static-analysis pass over the workspace
//!   sources (lock order, site names, memory-ordering hygiene, plus the
//!   original hygiene rules; see the `analyze` crate for the rule
//!   catalog). Exits non-zero on violations, so CI and pre-commit hooks
//!   can gate on it. `--json` emits the `afc-analyze/1` schema on
//!   stdout; `--write-report PATH` additionally writes it to a file.
//! - `bench-check` — re-run the deterministic smoke workload and compare
//!   against the committed `BENCH_baseline.json`; exits non-zero when any
//!   write-path stage, IOPS, logical write amplification, or device-level
//!   flash write amplification regresses past the tolerance (see
//!   `afc_bench::baseline`). Also applies the QoS fairness gate to the
//!   committed `bench_results/qos.json` (see `afc_bench::qos::gate_rows`).

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

fn run_analyze(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut write_report: Option<PathBuf> = None;
    let mut root = workspace_root();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--write-report" => match it.next() {
                Some(p) => write_report = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask analyze: --write-report needs a path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("xtask analyze: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask analyze: unknown flag '{other}'");
                return ExitCode::from(2);
            }
        }
    }

    let report = match analyze::analyze(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &write_report {
        if let Err(e) = std::fs::write(path, analyze::to_json(&report)) {
            eprintln!("xtask analyze: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if json {
        print!("{}", analyze::to_json(&report));
    } else {
        for d in &report.diags {
            println!("{d}");
        }
        println!(
            "xtask analyze: {} file(s), {} finding(s), {} suppressed by baseline{}",
            report.files_scanned,
            report.diags.len(),
            report.suppressed,
            if report.is_clean() { " — clean" } else { "" }
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => run_analyze(&args[1..]),
        Some("bench-check") => {
            // Delegate to the bench crate's baseline binary so xtask stays
            // lean; --release because debug-build timings would trip the
            // latency gates.
            let status = std::process::Command::new("cargo")
                .args([
                    "run",
                    "--release",
                    "--quiet",
                    "--package",
                    "afc-bench",
                    "--bin",
                    "baseline",
                    "--",
                    "--check",
                ])
                .current_dir(workspace_root())
                .status();
            match status {
                Ok(s) if s.success() => ExitCode::SUCCESS,
                Ok(_) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("xtask bench-check: cannot run cargo: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some(other) => {
            eprintln!("xtask: unknown command '{other}' (expected: analyze, bench-check)");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo xtask <analyze|bench-check>");
            ExitCode::from(2)
        }
    }
}
