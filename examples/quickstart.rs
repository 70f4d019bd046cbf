//! Quickstart: bring up an all-flash cluster, store objects, use a block
//! image, read the metric registry.
//!
//! Run: `cargo run --release --example quickstart`

use afcstore::common::{BlockTarget, GIB, MIB};
use afcstore::{Cluster, DeviceProfile, OsdTuning};

fn main() -> afcstore::common::Result<()> {
    // A 2-node demo cluster with the paper's optimized (AFCeph) tuning:
    // per node one NVRAM journal card and one RAID-0 flash set per OSD.
    let cluster = Cluster::builder()
        .nodes(2)
        .osds_per_node(2)
        .replication(2)
        .pg_num(64)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .build()?;
    println!(
        "cluster up: {} OSDs, epoch {}",
        cluster.osds().len(),
        cluster.monitor().epoch()
    );

    // --- Object API (RADOS-style) ------------------------------------
    let client = cluster.client()?;
    client.write_object("greeting", 0, b"hello, flash")?;
    let data = client.read_object("greeting", 0, 12)?;
    println!("object read back: {}", String::from_utf8_lossy(&data));
    println!("object size: {} bytes", client.stat_object("greeting")?);

    // --- Block API (RBD-style image) ----------------------------------
    let img = cluster.create_image("vm0", GIB)?;
    let block = vec![0xabu8; 4096];
    img.write_at(0, &block)?;
    img.write_at(4 * MIB - 2048, &block)?; // crosses an object boundary
    assert_eq!(img.read_at(4 * MIB - 2048, 4096)?, block);
    println!("image I/O ok ({} byte objects)", img.object_size());

    // --- Metrics snapshot ----------------------------------------------
    // Every subsystem registers into one cluster-wide registry; a snapshot
    // is a stable name → value tree (see DESIGN.md "Observability").
    cluster.quiesce();
    // What modeled time costs in CPU: a QD1 4 KiB write loop between two
    // snapshots of the `model.*` ledger. Each write waits on four wire
    // hops and its SSD applies; its two NVRAM records are waited for by no
    // thread (their durable instant rides on the RepAck and the reply), so
    // `nvram` reads ~0. The spin is the part of those waits that burned a
    // core (`scripts/check.sh` bounds it).
    const QD1_WRITES: u64 = 2000;
    let before = cluster.metrics_snapshot();
    for i in 0..QD1_WRITES {
        client.write_object(&format!("qd1-{}", i % 16), (i / 16) * 4096, &block)?;
    }
    cluster.quiesce();
    let snap = cluster.metrics_snapshot();
    let spin_per_op = |class: &str| {
        let spin = |s: &afcstore::common::MetricsSnapshot| {
            s.counter(&format!("model.{class}.spin_us")).unwrap_or(0)
        };
        (spin(&snap) - spin(&before)) as f64 / QD1_WRITES as f64
    };
    let (net, nvram, ssd) = (spin_per_op("net"), spin_per_op("nvram"), spin_per_op("ssd"));
    let overshoot = snap
        .histogram("model.overshoot_us")
        .cloned()
        .unwrap_or_default();
    println!(
        "model: spin {:.1} us/op (net {net:.1}, nvram {nvram:.1}, ssd {ssd:.1}) over {QD1_WRITES} QD1 4 KiB writes; \
         overshoot p50 {}us p99 {}us over {} waits",
        net + nvram + ssd,
        overshoot.p50_us(),
        overshoot.p99_us(),
        overshoot.count
    );
    for osd in cluster.osds() {
        let op = |name: &str| {
            snap.counter(&format!("osd{}.op.{name}", osd.id().0))
                .unwrap_or(0)
        };
        if op("client_ops") > 0 || op("repops") > 0 {
            println!(
                "{}: {} client ops ({} writes, {} reads), {} repops",
                osd.id(),
                op("client_ops"),
                op("writes"),
                op("reads"),
                op("repops"),
            );
        }
    }
    println!(
        "journal: {:.1} entries per device write",
        snap.site_sum("journal.commits") as f64 / snap.site_sum("journal.batches").max(1) as f64
    );
    println!(
        "logger: {:.1} records per flusher wake-up",
        snap.site_sum("log.submitted") as f64 / snap.site_sum("log.flushes").max(1) as f64
    );
    println!(
        "metrics: {} series; osd0 data SSDs wrote {} bytes, node0 journal committed {} entries",
        snap.len(),
        snap.counter("osd0.data.bytes_written").unwrap_or(0),
        snap.counter("node0.journal.commits").unwrap_or(0),
    );
    // Write-path stage histograms live under `osdN.stage.*`; show the
    // journal-commit stage of whichever OSD served the most traffic.
    if let Some((id, h)) = snap
        .iter()
        .filter_map(|(id, v)| match v {
            afcstore::common::MetricValue::Histogram(h)
                if id.name().ends_with(".stage.journal") =>
            {
                Some((id, h))
            }
            _ => None,
        })
        .max_by_key(|(_, h)| h.count)
    {
        println!(
            "{}: p50 {}us p99 {}us over {} sampled writes",
            id.name(),
            h.p50_us(),
            h.p99_us(),
            h.count
        );
    }
    // The whole snapshot also renders in Prometheus text format:
    let prom = snap.to_prometheus();
    println!("prometheus export: {} lines", prom.lines().count());

    cluster.shutdown();
    Ok(())
}
