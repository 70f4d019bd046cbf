//! Every workload through the whole pipeline in `--quick` mode, driven the
//! way the driver drives it: the built binary, its flags, its last line.

use std::process::Command;

/// `"name": {"value": <number>, "unit": "<unit>"}` entries of the result
/// line's `metrics` object, in order.
fn metrics_of(line: &str) -> Vec<(String, f64, String)> {
    let body = line.split_once("\"metrics\": {").expect("metrics key").1;
    body.split("}, ")
        .map(|entry| {
            let (name, rest) = entry.split_once("\": {\"value\": ").expect("entry shape");
            let (value, unit) = rest.split_once(", \"unit\": \"").expect("unit key");
            (
                name.trim_start_matches('"').to_string(),
                value.parse().expect("numeric value"),
                unit.trim_end_matches(['"', '}']).to_string(),
            )
        })
        .collect()
}

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_afc-benchmark"))
        .args(args)
        .output()
        .expect("run afc-benchmark");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

fn result_line(stdout: &str) -> &str {
    let line = stdout.lines().last().expect("some output");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    line
}

#[test]
fn every_workload_prints_the_six_end_to_end_metrics() {
    for w in ["w4k_qd1", "w4k_qd16", "r4k_qd8", "mix70_open2k"] {
        let (code, stdout) = run(&["--workload", w, "--seed", "5", "--trace", "0", "--quick"]);
        assert_eq!(code, 0, "{w}: {stdout}");
        let metrics = metrics_of(result_line(&stdout));
        let names: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            names,
            [
                "ops_per_s",
                "lat_p50_us",
                "cpu_us_per_op",
                "dev_bytes_per_op",
                "rss_mb",
                "setup_s"
            ],
            "{w}"
        );
        for (name, value, _) in &metrics {
            assert!(*value > 0.0, "{w}: {name} = {value}");
            // Each is also printed by name with its unit.
            assert!(
                stdout.lines().any(|l| l.starts_with(name.as_str())),
                "{w}: {name}"
            );
        }
        assert!(stdout.lines().any(|l| l.starts_with("host: steal_ticks=")));
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_writes_the_spans() {
    let (code, stdout) = run(&[
        "trace",
        "--workload",
        "mix70_open2k",
        "--seed",
        "6",
        "--quick",
    ]);
    assert_eq!(code, 0, "{stdout}");
    let metrics = metrics_of(result_line(&stdout));
    // Exactly the per_layer list of BENCHMARK.json, in its order.
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let per_layer = spec.split_once("\"per_layer\"").expect("per_layer key").1;
    let declared: Vec<&str> = per_layer
        .split("{\"name\": \"")
        .skip(1)
        .map(|s| s.split_once('"').expect("name").0)
        .collect();
    let names: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
    assert_eq!(names, declared);
    let get = |name: &str| metrics.iter().find(|m| m.0 == name).expect(name).1;
    // An open loop far below capacity: on time, nothing refused.
    assert!(get("client.late_us_p50") < 200.0);
    assert_eq!(get("client.failed_ops"), 0.0);
    assert!(get("device.ssd_reads_per_op") > 0.5 && get("device.ssd_writes_per_op") > 0.3);
    assert!((get("client.model_floor_us") - 279.4).abs() < 0.5);
    let path = stdout
        .lines()
        .find_map(|l| l.strip_prefix("trace: ")?.split_once(" -> "))
        .expect("trace line")
        .1;
    let file = std::fs::read_to_string(path).expect("span file");
    assert!(file.contains("\"schema\":\"afc-benchmark-trace/1\""));
    assert!(file.contains("\"name\":\"drv.journal.submit_and_wait\""));
    let rows = file.matches(",\"read\",").count() + file.matches(",\"write\",").count();
    assert_eq!(rows as f64, get("client.attempted_ops"));
}

#[test]
fn bad_usage_exits_2_without_a_result_line() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "w4k_qd1"],
        &["--workload", "w4k_qd1", "--seed", "1", "--seconds", "0"],
        &["--workload", "w4k_qd1", "--seed", "1", "--trace", "2"],
    ] {
        let (code, stdout) = run(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(stdout.is_empty());
    }
}
