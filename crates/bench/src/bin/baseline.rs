//! Refresh and gate the two records the figure benches do not cover.
//!
//! ```text
//! cargo run --release -p afc-bench --bin baseline -- --write-streams
//! cargo run --release -p afc-bench --bin baseline -- --write-qos
//! ```
//!
//! `--write-streams` runs the sustained-device overwrite workload twice —
//! multi-stream separation off, then on — prints both records side by
//! side, saves the comparison to `bench_results/streams.json`, and exits
//! non-zero unless separation lowered flash write amplification.
//!
//! `--write-qos` runs the multi-tenant QoS fairness experiment (solo,
//! contended-with-QoS, contended-without), saves `bench_results/qos.json`,
//! and exits non-zero when the run fails the isolation gate
//! (`afc_bench::qos::gate_rows`).
//!
//! `--check-streams` and `--check-qos` run the same experiment and gate
//! but save nothing, so a CI run leaves the committed records as they are.
//!
//! (The per-op count gate, `cargo xtask bench-check`, runs the repo
//! benchmark in `benchmark/` and lives in `crates/xtask`.)

use afc_bench::{qos, streams, FigRow};
use std::process::ExitCode;

fn streams(save: bool) -> ExitCode {
    let off = streams::run_streams_smoke(false);
    let on = streams::run_streams_smoke(true);
    println!(
        "baseline: multi-stream separation, sustained devices, {} ops:",
        streams::OPS
    );
    for r in [&off, &on] {
        let streams: Vec<String> = r
            .stream_bytes
            .iter()
            .filter(|(_, b)| *b > 0)
            .map(|(n, b)| format!("{n}={b}"))
            .collect();
        println!(
            "  {:<28} logical WA {:.2}  flash WA {:.3}  ({})",
            r.tuning,
            r.write_amplification,
            r.flash_write_amplification,
            streams.join(" "),
        );
    }
    let rows: Vec<FigRow> = [("streams_off", &off), ("streams_on", &on)]
        .into_iter()
        .enumerate()
        .map(|(i, (series, r))| FigRow {
            series: series.to_string(),
            x: i as f64,
            value: r.flash_write_amplification,
            lat_ms: 0.0,
            p99_ms: 0.0,
            unit: "flash_wa".to_string(),
            tuning: r.tuning.clone(),
        })
        .collect();
    if save {
        afc_bench::save_rows("streams", &rows);
    }
    if on.flash_write_amplification < off.flash_write_amplification {
        println!(
            "baseline: separation cut flash WA by {:.1}%",
            (1.0 - on.flash_write_amplification / off.flash_write_amplification) * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "baseline: STREAMS GATE: separation did not lower flash WA ({:.3} on vs {:.3} off)",
            on.flash_write_amplification, off.flash_write_amplification
        );
        ExitCode::FAILURE
    }
}

fn qos(save: bool) -> ExitCode {
    let rows = qos::run_fairness();
    afc_bench::print_rows("QoS fairness (4 KiB randwrite)", "noisy", &rows);
    if save {
        afc_bench::save_rows("qos", &rows);
    }
    let msgs = qos::gate_rows(&rows);
    if msgs.is_empty() {
        println!(
            "baseline: qos gate OK — protected p99 within {}× of solo (+{}ms host-noise allowance)",
            qos::P99_FACTOR,
            qos::P99_SLACK_MS
        );
        ExitCode::SUCCESS
    } else {
        for m in &msgs {
            eprintln!("baseline: QOS GATE: {m}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.as_slice() {
        [mode] => mode.as_str(),
        _ => "",
    };
    match mode {
        "--write-streams" => streams(true),
        "--check-streams" => streams(false),
        "--write-qos" => qos(true),
        "--check-qos" => qos(false),
        _ => {
            eprintln!("usage: baseline <--write-streams|--check-streams|--write-qos|--check-qos>");
            ExitCode::from(2)
        }
    }
}
