//! The metric catalogue — names, units, directions, bounds — and the two
//! texts derived from it: `BENCHMARK.json` and a run's result line.

use crate::workload::WORKLOADS;
use std::fmt::Write as _;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. The same six on every workload. See `NOISE.md` for how the
/// bounds relate to this host's floor.
pub const END_TO_END: [(MetricDef, f64); 6] = [
    (higher("ops_per_s", "1/s"), 0.25),
    (lower("lat_p50_us", "us"), 0.25),
    (lower("cpu_us_per_op", "us"), 0.25),
    (lower("dev_bytes_per_op", "B"), 0.05),
    (lower("rss_mb", "MiB"), 0.20),
    (lower("setup_s", "s"), 0.25),
];

/// Per-layer metrics, grouped by the crate they belong to. README.md maps
/// each to the end-to-end metric it should move, and on which workload.
pub const PER_LAYER: [MetricDef; 58] = [
    // client (core::client) and the model it runs against
    lower("client.submit_us_p50", "us"),
    lower("client.lat_p99_us", "us"),
    lower("client.lat_p999_us", "us"),
    higher("client.lat_samples", "count"),
    lower("client.late_us_p50", "us"),
    lower("client.failed_ops", "count"),
    higher("client.attempted_ops", "count"),
    lower("client.model_floor_us", "us"),
    lower("client.sw_lat_p50_us", "us"),
    // messenger
    lower("messenger.msgs_per_op", "count"),
    lower("messenger.bytes_per_op", "B"),
    lower("osd.stage.messenger_us_p50", "us"),
    lower("drv.messenger.rtt_us_p50", "us"),
    // qos (core::qos)
    lower("qos.queue_wait_us_p50", "us"),
    lower("qos.limited_per_op", "count"),
    lower("drv.qos.enq_deq_ns", "ns"),
    // osd (core::osd, pg, ack)
    lower("osd.stage.pg_queue_us_p50", "us"),
    lower("osd.stage.submit_us_p50", "us"),
    lower("osd.stage.journal_us_p50", "us"),
    lower("osd.stage.apply_us_p50", "us"),
    lower("osd.stage.ack_us_p50", "us"),
    lower("osd.stage.total_us_p50", "us"),
    lower("osd.repops_per_op", "count"),
    lower("osd.rep_resends_per_kop", "count"),
    lower("osd.client_throttle_wait_us_per_op", "us"),
    lower("drv.osd.pg_submit_ns", "ns"),
    // journal
    higher("journal.entries_per_flush", "count"),
    higher("journal.inline_commit_share", "ratio"),
    lower("journal.bytes_per_op", "B"),
    lower("journal.full_stall_us_per_op", "us"),
    lower("drv.journal.submit_wait_us_p50", "us"),
    // filestore
    lower("filestore.txns_per_op", "count"),
    lower("filestore.meta_reads_per_op", "count"),
    higher("filestore.cache_hit_rate", "ratio"),
    lower("filestore.throttle_wait_us_per_op", "us"),
    lower("filestore.data_bytes_per_op", "B"),
    lower("drv.filestore.apply_us_p50", "us"),
    // kvstore
    lower("kvstore.wal_bytes_per_op", "B"),
    lower("kvstore.flush_bytes_per_op", "B"),
    lower("kvstore.compact_write_bytes_per_op", "B"),
    lower("kvstore.write_amp", "ratio"),
    lower("kvstore.stall_us_per_op", "us"),
    lower("kvstore.table_reads_per_get", "count"),
    lower("drv.kvstore.put_us_p50", "us"),
    lower("drv.kvstore.get_us_p50", "us"),
    // device
    lower("device.ssd_writes_per_op", "count"),
    lower("device.ssd_bytes_written_per_op", "B"),
    lower("device.ssd_reads_per_op", "count"),
    lower("device.nvram_bytes_written_per_op", "B"),
    lower("device.gc_copied_bytes_per_op", "B"),
    lower("device.interfered_read_share", "ratio"),
    lower("device.ssd_busy_share", "ratio"),
    lower("drv.device.plan_ns", "ns"),
    // crush
    lower("drv.crush.place_ns", "ns"),
    // logging
    lower("logging.submitted_per_op", "count"),
    lower("logging.dropped_per_op", "count"),
    lower("drv.logging.submit_ns", "ns"),
    // the benchmark's own tracing
    lower("trace.overhead_pct", "%"),
];

/// The text of `BENCHMARK.json`, generated so the file cannot drift from
/// what the program prints (a test compares them).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (m, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Order `values` as `defs` declares them and attach the units. Panics if a
/// declared metric was not measured: a run never prints a partial set.
pub fn in_catalogue_order<'a>(
    defs: impl Iterator<Item = &'a MetricDef>,
    values: &[(String, f64)],
) -> Vec<(&'a MetricDef, f64)> {
    defs.map(|d| {
        let v = values
            .iter()
            .find(|(n, _)| n == d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name))
            .1;
        (d, if v.is_finite() { v } else { 0.0 })
    })
    .collect()
}

/// The result line: one JSON object with exactly the contract's keys.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (def, value)) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            def.name,
            def.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract() {
        let all: Vec<&MetricDef> = END_TO_END
            .iter()
            .map(|(m, _)| m)
            .chain(PER_LAYER.iter())
            .collect();
        for (i, m) in all.iter().enumerate() {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!(all[i + 1..].iter().all(|o| o.name != m.name), "{}", m.name);
        }
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.0.unit, setup.0.better), ("s", "lower"));
        // setup_s carries the largest bound.
        assert!(END_TO_END.iter().all(|(_, b)| *b <= setup.1));
        assert!(WORKLOADS.iter().all(|w| name_ok(w.name)));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with `-- describe`");
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let defs = [lower("latency_ms", "ms"), lower("setup_s", "s")];
        let values = vec![
            ("setup_s".to_string(), 0.8127),
            ("latency_ms".to_string(), 1.2034),
        ];
        let ordered = in_catalogue_order(defs.iter(), &values);
        assert_eq!(
            result_line(true, 1000, 0, &ordered),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "metric setup_s was not measured")]
    fn a_missing_metric_is_a_bug() {
        let defs = [lower("setup_s", "s")];
        in_catalogue_order(defs.iter(), &[]);
    }
}
