//! `cargo xtask bench-check`: the local perf gate.
//!
//! Runs the repo benchmark's own binary (`benchmark/`, the one the
//! pipeline judges every PR with) in `trace --quick` mode on two
//! workloads, requires exit code 0 (verified reads and a clean deep
//! scrub) and compares per-op *counts* against [`EXPECTED`]. Counts are
//! what a shared 2-vCPU host cannot blur: ten repeat runs hold every
//! entry inside ±0.5 % (EXPERIMENTS.md, "What check.sh gates, what the
//! pipeline gates"). Wall-clock metrics are not looked at here; those
//! regressions are judged by the pipeline's `BENCHMARK.json` bounds over
//! ten parent/change pairs, where they can actually be seen.
//!
//! An intentional change to a count (one message fewer per write, a
//! smaller journal header) is made by editing [`EXPECTED`] in the same
//! commit. There is no expectations file, no `--write` mode and no
//! environment override; a metric that cannot hold [`TOLERANCE`] over
//! ten repeat runs is left out of the table rather than loosened.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Allowed relative deviation from a non-zero expectation. A zero
/// expectation is exact.
const TOLERANCE: f64 = 0.01;

/// The gate: per workload, the `BENCHMARK.json` per-layer metrics whose
/// value is a property of the code, not of the host.
const EXPECTED: &[(&str, &[(&str, f64)])] = &[
    (
        // QD1 replicated 4 KiB overwrite: request, Replicate, RepAck,
        // reply; one 4 608 B journal record (the encoded txn rounded up to
        // the 256 B alignment) per replica, every one committed inline —
        // `journal.inline_commits` counts entries committed by the thread
        // that submitted them, and at QD1 every submitter finds the journal
        // idle and leads its own record; one filestore txn and one 4 KiB
        // data write per replica.
        "w4k_qd1",
        &[
            ("client.failed_ops", 0.0),
            ("messenger.msgs_per_op", 4.0),
            ("osd.repops_per_op", 1.0),
            ("osd.rep_resends_per_kop", 0.0),
            ("journal.entries_per_flush", 1.0),
            ("journal.inline_commit_share", 1.0),
            ("journal.bytes_per_op", 9216.0),
            ("filestore.txns_per_op", 2.0),
            ("filestore.meta_reads_per_op", 0.0),
            ("filestore.data_bytes_per_op", 8192.0),
            ("logging.submitted_per_op", 14.0),
            ("logging.dropped_per_op", 0.0),
        ],
    ),
    (
        // QD8 verified reads: request and reply, one SSD read, and never
        // the journal, the filestore apply path or a replica.
        "r4k_qd8",
        &[
            ("client.failed_ops", 0.0),
            ("messenger.msgs_per_op", 2.0),
            ("osd.repops_per_op", 0.0),
            ("osd.rep_resends_per_kop", 0.0),
            ("journal.bytes_per_op", 0.0),
            ("filestore.txns_per_op", 0.0),
            ("filestore.meta_reads_per_op", 0.0),
            ("device.ssd_reads_per_op", 1.0),
            ("logging.submitted_per_op", 3.0),
            ("logging.dropped_per_op", 0.0),
        ],
    ),
];

/// The `name value unit` lines of the benchmark's stdout. The `trace:`
/// and `host:` lines and the closing JSON object do not have that shape.
fn parse_metrics(stdout: &str) -> Vec<(&str, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            let (name, value, _unit) = (it.next()?, it.next()?, it.next()?);
            if it.next().is_some() || name.ends_with(':') {
                return None;
            }
            Some((name, value.parse().ok()?))
        })
        .collect()
}

fn value_of(got: &[(&str, f64)], metric: &str) -> Option<f64> {
    got.iter()
        .find(|(name, _)| *name == metric)
        .map(|&(_, v)| v)
}

/// One message per violated expectation; empty means the workload
/// passes. A non-zero exit code (wrong read, replicas that differ, a
/// hang) fails before any number is looked at.
fn compare(
    workload: &str,
    expected: &[(&str, f64)],
    exit_code: Option<i32>,
    got: &[(&str, f64)],
) -> Vec<String> {
    if exit_code != Some(0) {
        let code = exit_code.map_or("a signal".to_string(), |c| format!("exit code {c}"));
        return vec![format!(
            "{workload}: the benchmark ended with {code} (1 = a read or the deep scrub was wrong, 3/4 = hang)"
        )];
    }
    let mut out = Vec::new();
    for &(metric, want) in expected {
        let Some(have) = value_of(got, metric) else {
            out.push(format!(
                "{workload}: {metric} is missing from the output (expected {want})"
            ));
            continue;
        };
        let ok = if want == 0.0 {
            have == 0.0
        } else {
            ((have - want) / want).abs() <= TOLERANCE
        };
        if !ok {
            out.push(format!(
                "{workload}: {metric} expected {want} (±{:.0} %, 0 is exact), got {have}",
                TOLERANCE * 100.0
            ));
        }
    }
    out
}

/// Run the gate from the workspace at `root`.
pub fn run(root: &Path) -> ExitCode {
    let mut failures = Vec::new();
    for &(workload, expected) in EXPECTED {
        let output = Command::new("cargo")
            .args(["run", "--release", "--offline", "--quiet"])
            .args(["--manifest-path", "benchmark/Cargo.toml", "--"])
            .args(["trace", "--workload", workload, "--seed", "7", "--quick"])
            .current_dir(root)
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("xtask bench-check: cannot run cargo: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let got = parse_metrics(&stdout);
        for &(metric, want) in expected {
            if let Some(have) = value_of(&got, metric) {
                println!("bench-check: {workload:<8} {metric:<30} {have:>10.4}  (expected {want})");
            }
        }
        failures.extend(compare(workload, expected, output.status.code(), &got));
    }
    if failures.is_empty() {
        println!(
            "bench-check: OK — per-op counts within {:.0} % of the table in crates/xtask/src/bench_check.rs",
            TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench-check: FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One real `trace --workload w4k_qd1 --seed 7 --quick` stdout.
    const CAPTURED: &str = include_str!("../testdata/trace_w4k_qd1.stdout");

    /// `compare` on the captured `w4k_qd1` run with `edit` applied to it.
    fn check(exit_code: Option<i32>, edit: impl FnOnce(&mut Vec<(&str, f64)>)) -> Vec<String> {
        let (workload, expected) = EXPECTED[0];
        let mut got = parse_metrics(CAPTURED);
        edit(&mut got);
        compare(workload, expected, exit_code, &got)
    }

    fn set(got: &mut [(&str, f64)], metric: &str, value: f64) {
        got.iter_mut().find(|(n, _)| *n == metric).unwrap().1 = value;
    }

    /// The per-layer names `BENCHMARK.json` declares, in order.
    fn declared_per_layer() -> Vec<String> {
        let json = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json"),
        )
        .unwrap();
        let per_layer = &json[json.find("\"per_layer\"").unwrap()..];
        per_layer
            .split("{\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn parser_returns_exactly_the_per_layer_metrics() {
        assert!(CAPTURED.contains("\ntrace: ") || CAPTURED.starts_with("trace: "));
        assert!(CAPTURED.contains("\nhost: "));
        assert!(CAPTURED.trim_end().ends_with('}'));
        let got = parse_metrics(CAPTURED);
        let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 58);
        assert_eq!(names, declared_per_layer());
        assert!(got.contains(&("journal.bytes_per_op", 9219.3223)));
    }

    #[test]
    fn every_gated_metric_is_one_the_benchmark_declares() {
        let declared = declared_per_layer();
        for (workload, table) in EXPECTED {
            for (metric, _) in *table {
                assert!(declared.iter().any(|d| d == metric), "{workload}: {metric}");
            }
        }
    }

    #[test]
    fn a_real_run_passes() {
        assert_eq!(check(Some(0), |_| ()), Vec::<String>::new());
    }

    #[test]
    fn two_percent_fails_and_names_everything_half_a_percent_passes() {
        let half = check(Some(0), |got| {
            set(got, "messenger.msgs_per_op", 4.0 * 1.005)
        });
        assert!(half.is_empty(), "{half:?}");
        let out = check(Some(0), |got| set(got, "messenger.msgs_per_op", 4.0 * 1.02));
        assert_eq!(out.len(), 1, "{out:?}");
        for part in ["w4k_qd1", "messenger.msgs_per_op", "expected 4", "got 4.08"] {
            assert!(out[0].contains(part), "{}", out[0]);
        }
    }

    #[test]
    fn a_missing_metric_fails() {
        let out = check(Some(0), |got| {
            got.retain(|(n, _)| *n != "filestore.txns_per_op")
        });
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("filestore.txns_per_op is missing"));
    }

    #[test]
    fn zero_is_exact() {
        let out = check(Some(0), |got| set(got, "osd.rep_resends_per_kop", 0.0004));
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("osd.rep_resends_per_kop expected 0"));
    }

    #[test]
    fn a_nonzero_exit_fails_before_any_comparison() {
        // Perfect numbers, wrong data: only the exit code is reported.
        let out = check(Some(1), |_| ());
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("exit code 1"), "{}", out[0]);
        // And nothing else is, even when every number is also missing.
        assert_eq!(check(None, |got| got.clear()).len(), 1);
    }
}
