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
    // snapshots of the `model.*` ledger. Of a write's four wire hops two
    // are waited out, each once: the request by a delivery thread, the
    // reply by the client. The replica takes the `Replicate` on the
    // primary's thread and plans its record from the arrival; the primary
    // takes the `RepAck` on that thread too, and its arrival rides on the
    // reply, as the two NVRAM records' durable instants ride on the
    // `RepAck` and the reply, and the applies' completions on the applied
    // mark; so `nvram` and `ssd` read ~0. The spin is the part of those
    // waits that burned a core; `scripts/check.sh` bounds it and the
    // waits per write.
    const QD1_WRITES: u64 = 2000;
    let before = cluster.metrics_snapshot();
    for i in 0..QD1_WRITES {
        client.write_object(&format!("qd1-{}", i % 16), (i / 16) * 4096, &block)?;
    }
    cluster.quiesce();
    let snap = cluster.metrics_snapshot();
    let per_op = |name: &str| {
        let of = |s: &afcstore::common::MetricsSnapshot| s.counter(name).unwrap_or(0);
        (of(&snap) - of(&before)) as f64 / QD1_WRITES as f64
    };
    let spin = |class: &str| per_op(&format!("model.{class}.spin_us"));
    let (net, nvram, ssd) = (spin("net"), spin("nvram"), spin("ssd"));
    let waits_per_op: f64 = ["net", "nvram", "ssd"]
        .iter()
        .map(|class| per_op(&format!("model.{class}.waits")))
        .sum();
    let overshoot = snap
        .histogram("model.overshoot_us")
        .cloned()
        .unwrap_or_default();
    println!(
        "model: spin {:.1} us/op (net {net:.1}, nvram {nvram:.1}, ssd {ssd:.1}), {waits_per_op:.2} waits/op \
         over {QD1_WRITES} QD1 4 KiB writes; \
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
