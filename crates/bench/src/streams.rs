//! The multi-stream separation record (`bench_results/streams.json`).
//!
//! One sustained-device overwrite workload, run with stream separation off
//! and on; the snapshot is distilled into logical and flash write
//! amplification and the host bytes each stream received. `baseline
//! --check-streams` (check.sh step 8) runs both arms and fails unless
//! separation lowers flash WA; `--write-streams` also saves the record.

use afc_common::metrics::{MetricValue, MetricsSnapshot};
use afc_core::{Cluster, DeviceProfile, OsdTuning};
use afc_device::StreamId;

/// What one arm of the comparison measured.
#[derive(Debug)]
pub struct StreamsRecord {
    /// Tuning profile label the cluster ran with.
    pub tuning: String,
    /// (data-SSD bytes + journal-device bytes) / client payload bytes.
    pub write_amplification: f64,
    /// Device-level WA on the data SSDs: (host bytes + GC copy-forward
    /// bytes) / host bytes, summed over every data device. 1.0 when the
    /// FTL never collected (clean drives).
    pub flash_write_amplification: f64,
    /// Host bytes per write stream across all data SSDs
    /// (`osdN.data.stream.<name>.bytes`), in [`StreamId::ALL`] order.
    pub stream_bytes: Vec<(&'static str, u64)>,
}

const BS: u64 = 4096;

/// Client writes per arm: enough to lap the representative flash span
/// several times, so the separated groups reach whole-block turnover
/// before the per-group open-block overhead is amortized.
pub const OPS: u64 = 32_000;

/// Run one arm of the multi-stream comparison: a single OSD on
/// **sustained** (pre-aged) devices, with `streams_enabled` forced to
/// `streams` on top of the `afceph` profile.
///
/// Even-numbered ops sweep a *large* object set round-robin (each object
/// rewritten once per lap, far apart in time and under the filestore's
/// hot-write threshold) while odd-numbered ops hammer a small hot set
/// the heat tracker promotes. The cold lap mimics how long-lived data
/// actually dies on this stack — in bulk, in allocation order, when the
/// next compaction/rewrite pass supersedes it. Separated, both lifetimes
/// retire whole erase blocks and GC rides free victims; mixed, each
/// block holds sequential cold pages plus scattered hot pages whose
/// deaths never line up, so blocks strand at partial validity and every
/// GC pass drags survivors forward — the pathology separation fixes.
/// The FTL window is shrunk so [`OPS`] writes lap it several times.
pub fn run_streams_smoke(streams: bool) -> StreamsRecord {
    let tuning = OsdTuning {
        streams_enabled: streams,
        ..OsdTuning::afceph()
    };
    let tuning_label = format!(
        "{}+sustained+streams_{}",
        tuning.label(),
        if streams { "on" } else { "off" }
    );
    // One OSD, replication 1: all traffic lands on three member SSDs, so
    // the run laps each FTL span several times. Large erase blocks make
    // lifetime mixing expensive (the real-drive regime); the deep OP pool
    // keeps the per-group open-block tax (`groups / OP-blocks`) modest.
    let mut devices = DeviceProfile::sustained();
    devices.ssd.ftl = afc_device::FtlConfig {
        pages_per_block: 64,
        blocks: 96,
        op_ratio: 0.22,
        ..afc_device::FtlConfig::default()
    };
    let cluster = Cluster::builder()
        .nodes(1)
        .osds_per_node(1)
        .replication(1)
        .pg_num(64)
        .tuning(tuning)
        .devices(devices)
        .build()
        .expect("streams smoke cluster build");
    let client = cluster.client().expect("streams smoke client");
    // Sized so a cold object sees ~2 writes over the whole run — any
    // closer to the filestore's hot-write threshold and the tail of the
    // cold sweep gets promoted, smearing cold-lifetime pages into the
    // hot stream.
    const HOT_OBJECTS: u64 = 32;
    const COLD_OBJECTS: u64 = 8192;
    // SplitMix64: deterministic stand-in for a uniform random pick.
    let mix = |mut x: u64| {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    };
    let buf = vec![0xb5u8; BS as usize];
    for i in 0..OPS {
        let (obj, off) = if i % 2 == 0 {
            // Cold: round-robin lap over the whole set (~2 laps per run),
            // one page per visit — long-lived pages that die in bulk, in
            // allocation order, when the next lap supersedes them. Stays
            // under the heat threshold.
            let n = i / 2;
            (format!("cold{}", n % COLD_OBJECTS), 0)
        } else {
            // Hot: ~125 overwrites per object, random page in the first
            // 64 KiB.
            (
                format!("hot{}", mix(i) % HOT_OBJECTS),
                (mix(i ^ 0x5eed) % 16) * BS,
            )
        };
        client
            .write_object(&obj, off, &buf)
            .expect("streams smoke write");
    }
    cluster.quiesce();
    let snap = cluster.metrics_snapshot();
    cluster.shutdown();
    distill(&snap, tuning_label)
}

/// Distil a metric snapshot into a [`StreamsRecord`].
fn distill(snap: &MetricsSnapshot, tuning: String) -> StreamsRecord {
    // Device-side bytes: every RAID-0 data member sums under
    // `osdN.data.bytes_written`; the per-node NVRAM card under
    // `nodeN.journal.dev.bytes_written`.
    let sum_counters = |pred: &dyn Fn(&str) -> bool| -> u64 {
        snap.iter()
            .filter_map(|(id, v)| match v {
                MetricValue::Counter(c) if pred(id.name()) => Some(*c),
                _ => None,
            })
            .sum()
    };
    let data_bytes = sum_counters(&|n| n.starts_with("osd") && n.ends_with(".data.bytes_written"));
    let journal_bytes =
        sum_counters(&|n| n.starts_with("node") && n.ends_with(".journal.dev.bytes_written"));
    let payload = (OPS * BS) as f64;
    let write_amplification = (data_bytes + journal_bytes) as f64 / payload;

    // Device-level WA: flash writes / host writes on the data SSDs. The
    // FTL bills copy-forward into `gc.copied_bytes`; on a clean drive
    // that never collects this is exactly 1.0.
    let gc_copied = sum_counters(&|n| n.starts_with("osd") && n.ends_with(".data.gc.copied_bytes"));
    let flash_write_amplification = if data_bytes == 0 {
        1.0
    } else {
        (data_bytes + gc_copied) as f64 / data_bytes as f64
    };
    let stream_bytes = StreamId::ALL
        .iter()
        .map(|stream| {
            let name = stream.metric_name();
            let suffix = format!(".data.stream.{name}.bytes");
            (
                name,
                sum_counters(&|n| n.starts_with("osd") && n.ends_with(&suffix)),
            )
        })
        .collect();

    StreamsRecord {
        tuning,
        write_amplification,
        flash_write_amplification,
        stream_bytes,
    }
}
