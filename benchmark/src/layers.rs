//! Per-layer metrics: deltas of the cluster's metric registry over the
//! measured phase, summed over OSDs and nodes and divided by the client ops
//! completed in it. The layers are the repo's crates.

use crate::estimators::{p50_us, percentile};
use crate::generator::RunStats;
use crate::sut::{self, Delays};
use crate::workload::{Workload, BLOCK_BYTES};
use afc_common::metrics::{HistSnapshot, MetricValue, MetricsSnapshot};

/// Registry change between the two ends of the measured phase.
pub struct Delta<'a> {
    start: &'a MetricsSnapshot,
    end: &'a MetricsSnapshot,
}

/// `osd3.fs.meta_reads` → `fs.meta_reads`; `None` for cluster-wide names
/// such as `net.msgs`.
fn per_site_key(name: &str) -> Option<&str> {
    let (site, key) = name.split_once('.')?;
    (site.starts_with("osd") || site.starts_with("node")).then_some(key)
}

impl<'a> Delta<'a> {
    /// Delta from `start` to `end`.
    pub fn new(start: &'a MetricsSnapshot, end: &'a MetricsSnapshot) -> Self {
        Delta { start, end }
    }

    /// Increase of the counter `key` summed over every `osdN.` / `nodeN.`
    /// site that has it.
    pub fn sum(&self, key: &str) -> f64 {
        let total = |snap: &MetricsSnapshot| -> u64 {
            snap.iter()
                .filter(|(id, _)| per_site_key(id.name()) == Some(key))
                .filter_map(|(_, v)| match v {
                    MetricValue::Counter(c) => Some(*c),
                    _ => None,
                })
                .sum()
        };
        total(self.end).saturating_sub(total(self.start)) as f64
    }

    /// Increase of the cluster-wide counter `name`.
    pub fn counter(&self, name: &str) -> f64 {
        let at = |snap: &MetricsSnapshot| snap.counter(name).unwrap_or(0);
        at(self.end).saturating_sub(at(self.start)) as f64
    }

    /// Samples the histogram `key` gained, merged over every site.
    pub fn hist(&self, key: &str) -> HistSnapshot {
        let mut merged = empty_hist();
        for (id, v) in self.end.iter() {
            if let (Some(k), MetricValue::Histogram(end)) = (per_site_key(id.name()), v) {
                if k == key {
                    merged.merge(&hist_sub(end, self.start.histogram(id.name())));
                }
            }
        }
        merged
    }
}

fn empty_hist() -> HistSnapshot {
    HistSnapshot {
        buckets: Vec::new(),
        count: 0,
        sum_us: 0,
    }
}

/// `end − start` of one histogram (buckets are cumulative and sparse).
fn hist_sub(end: &HistSnapshot, start: Option<&HistSnapshot>) -> HistSnapshot {
    let Some(start) = start else {
        return end.clone();
    };
    let start_cum_at = |le: u64| {
        start
            .buckets
            .iter()
            .take_while(|(l, _)| *l <= le)
            .last()
            .map_or(0, |(_, cum)| *cum)
    };
    let mut buckets = Vec::new();
    let mut last = 0;
    for &(le, cum) in &end.buckets {
        let cum = cum - start_cum_at(le);
        if cum > last {
            buckets.push((le, cum));
            last = cum;
        }
    }
    HistSnapshot {
        buckets,
        count: last,
        sum_us: end.sum_us - start.sum_us,
    }
}

/// `a / b`, 0 when `b` is 0 (a layer the workload never entered).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Critical-path sum of the *configured* delays of one op, µs: 4 hops and
/// the replica's NVRAM write for a write, 2 hops and the SSD read for a
/// read, weighted by the workload's mix. What `lat_p50_us` exceeds this by
/// is software and queueing.
pub fn model_floor_us(workload: &Workload) -> f64 {
    let dev = sut::devices(Delays::Modeled);
    let hop = sut::HOP.as_secs_f64() * 1e6;
    let block = f64::from(BLOCK_BYTES);
    let write =
        4.0 * hop + dev.nvram.access.as_secs_f64() * 1e6 + block / dev.nvram.bandwidth as f64 * 1e6;
    let read =
        2.0 * hop + dev.ssd.read_base.as_secs_f64() * 1e6 + block / dev.ssd.read_bw as f64 * 1e6;
    let reads = f64::from(workload.read_pct) / 100.0;
    reads * read + (1.0 - reads) * write
}

/// Bytes the devices moved per completed op between the two snapshots of
/// `d`: read, written and GC-copied, on every data SSD and every journal
/// NVRAM card (the end-to-end `dev_bytes_per_op`).
pub fn dev_bytes_per_op(d: &Delta, completed: u64) -> f64 {
    let bytes: f64 = ["data", "journal.dev"]
        .iter()
        .flat_map(|dev| {
            ["bytes_read", "bytes_written", "gc.copied_bytes"].map(|f| d.sum(&format!("{dev}.{f}")))
        })
        .sum();
    ratio(bytes, completed as f64)
}

/// Every per-layer metric that comes from the traced workload run (the
/// `drv.*`, `client.sw_lat_p50_us` and `trace.overhead_pct` values come from
/// their own passes).
pub fn workload_metrics(workload: &Workload, stats: &RunStats, d: &Delta) -> Vec<(String, f64)> {
    let ops = stats.completed() as f64;
    let secs = (stats.measured.1 - stats.measured.0) as f64 / 1e9;
    let per_op = |key: &str| ratio(d.sum(key), ops);
    let mut lat = stats.latencies_ns.clone();
    lat.sort_unstable();
    let tail_us = |p: f64| percentile(&lat, p).map_or(0.0, |ns| ns as f64 / 1e3);
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    put("client.submit_us_p50", p50_us(&stats.submit_ns));
    put("client.lat_p99_us", tail_us(99.0));
    put("client.lat_p999_us", tail_us(99.9));
    put("client.lat_samples", lat.len() as f64);
    put("client.late_us_p50", p50_us(&stats.late_ns));
    put("client.failed_ops", stats.failed as f64);
    put("client.attempted_ops", stats.attempted as f64);
    put("client.model_floor_us", model_floor_us(workload));

    put("messenger.msgs_per_op", ratio(d.counter("net.msgs"), ops));
    put("messenger.bytes_per_op", ratio(d.counter("net.bytes"), ops));

    put(
        "qos.queue_wait_us_p50",
        d.hist("qos.vol0.queue_wait").p50_us() as f64,
    );
    put("qos.limited_per_op", per_op("qos.limited"));

    for stage in [
        "messenger",
        "pg_queue",
        "submit",
        "journal",
        "apply",
        "ack",
        "total",
    ] {
        put(
            &format!("osd.stage.{stage}_us_p50"),
            d.hist(&format!("stage.{stage}")).p50_us() as f64,
        );
    }
    put("osd.repops_per_op", per_op("op.repops"));
    put(
        "osd.rep_resends_per_kop",
        per_op("op.rep_resends") * 1_000.0,
    );
    put(
        "osd.client_throttle_wait_us_per_op",
        per_op("op.client_throttle.wait_us"),
    );

    put(
        "journal.entries_per_flush",
        ratio(d.sum("journal.submits"), d.sum("journal.flushes")),
    );
    put(
        "journal.inline_commit_share",
        ratio(d.sum("journal.inline_commits"), d.sum("journal.commits")),
    );
    put("journal.bytes_per_op", per_op("journal.bytes_written"));
    put(
        "journal.full_stall_us_per_op",
        per_op("journal.full_stall_us"),
    );

    put("filestore.txns_per_op", per_op("fs.txns_applied"));
    put("filestore.meta_reads_per_op", per_op("fs.meta_reads"));
    let (hits, misses) = (d.sum("fs.cache_hits"), d.sum("fs.cache_misses"));
    put("filestore.cache_hit_rate", ratio(hits, hits + misses));
    put(
        "filestore.throttle_wait_us_per_op",
        per_op("fs.throttle.wait_us"),
    );
    put("filestore.data_bytes_per_op", per_op("fs.data_bytes"));

    let (wal, flush, compact) = (
        d.sum("kv.wal_bytes"),
        d.sum("kv.flush_bytes"),
        d.sum("kv.compact_write_bytes"),
    );
    put("kvstore.wal_bytes_per_op", ratio(wal, ops));
    put("kvstore.flush_bytes_per_op", ratio(flush, ops));
    put("kvstore.compact_write_bytes_per_op", ratio(compact, ops));
    put(
        "kvstore.write_amp",
        ratio(wal + flush + compact, d.sum("kv.user_bytes")),
    );
    put("kvstore.stall_us_per_op", per_op("kv.stall_us"));
    put(
        "kvstore.table_reads_per_get",
        ratio(d.sum("kv.table_reads"), d.sum("kv.gets")),
    );

    put("device.ssd_writes_per_op", per_op("data.writes"));
    put(
        "device.ssd_bytes_written_per_op",
        per_op("data.bytes_written"),
    );
    put("device.ssd_reads_per_op", per_op("data.reads"));
    put(
        "device.nvram_bytes_written_per_op",
        per_op("journal.dev.bytes_written"),
    );
    put(
        "device.gc_copied_bytes_per_op",
        per_op("data.gc.copied_bytes"),
    );
    put(
        "device.interfered_read_share",
        ratio(d.sum("data.interfered_reads"), d.sum("data.reads")),
    );
    // Busy time is summed over the cluster's 12 SSDs (4 OSDs × 3 members).
    let ssds = 4.0 * sut::devices(Delays::Modeled).ssds_per_osd as f64;
    put(
        "device.ssd_busy_share",
        ratio(d.sum("data.busy_us"), secs * 1e6 * ssds),
    );

    put("logging.submitted_per_op", per_op("log.submitted"));
    put("logging.dropped_per_op", per_op("log.dropped"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::metrics::Metrics;

    #[test]
    fn per_site_keys() {
        assert_eq!(per_site_key("osd12.fs.meta_reads"), Some("fs.meta_reads"));
        assert_eq!(
            per_site_key("node0.journal.dev.bytes_written"),
            Some("journal.dev.bytes_written")
        );
        assert_eq!(per_site_key("net.msgs"), None);
    }

    #[test]
    fn deltas_sum_sites_and_subtract_the_start() {
        let m = Metrics::new();
        let (a, b) = (m.counter("osd0.data.writes"), m.counter("osd1.data.writes"));
        let other = m.counter("osd0.data.writes_other");
        let net = m.counter("net.msgs");
        let h = m.histogram("osd0.stage.ack");
        a.add(5);
        h.observe_us(100);
        let start = m.snapshot();
        a.add(2);
        b.add(3);
        other.add(100);
        net.add(8);
        for us in [1_000, 1_000, 5_000] {
            h.observe_us(us);
        }
        let end = m.snapshot();
        let d = Delta::new(&start, &end);
        assert_eq!(d.sum("data.writes"), 5.0);
        assert_eq!(d.counter("net.msgs"), 8.0);
        assert_eq!(d.sum("data.nothing"), 0.0);
        // The 100 µs sample predates the window: the delta's median is 1 ms.
        let dh = d.hist("stage.ack");
        assert_eq!(dh.count, 3);
        assert!((1_000..1_100).contains(&dh.p50_us()), "{}", dh.p50_us());
        assert!(dh.quantile_us(1.0) >= 5_000);
        assert_eq!(d.hist("stage.none").count, 0);
    }

    #[test]
    fn model_floor_follows_the_configured_delays() {
        let w = |name| crate::workload::by_name(name).unwrap();
        // 4 × 80 + 8 + 4096 B / 2 GiB/s ≈ 329.9 µs.
        assert!((model_floor_us(w("w4k_qd1")) - 329.9).abs() < 0.1);
        // 2 × 80 + 90 + 4096 B / 500 MiB/s ≈ 257.8 µs.
        assert!((model_floor_us(w("r4k_qd8")) - 257.8).abs() < 0.1);
        let mix = model_floor_us(w("mix70_open2k"));
        assert!((mix - (0.7 * 257.8 + 0.3 * 329.9)).abs() < 0.1);
    }
}
