//! Cluster-level metric snapshot: after real client IO the registry must
//! expose the full taxonomy — per-stage write-path histograms, device and
//! journal counters — and round-trip through the Prometheus text format.

use afc_core::{Cluster, DeviceProfile, OsdTuning};

const NODES: u32 = 2;
const OSDS_PER_NODE: u32 = 2;
const WRITES: u64 = 400;

fn run_cluster() -> Cluster {
    let cluster = Cluster::builder()
        .nodes(NODES)
        .osds_per_node(OSDS_PER_NODE)
        .replication(2)
        .pg_num(64)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    let buf = vec![0x42u8; 4096];
    for i in 0..WRITES {
        client
            .write_object(&format!("obj{}", i % 16), (i / 16) * 4096, &buf)
            .unwrap();
    }
    cluster.quiesce();
    cluster
}

#[test]
fn snapshot_covers_the_write_path() {
    let cluster = run_cluster();
    let snap = cluster.metrics_snapshot();

    // Every write-path stage named by the paper's Figure 3 breakdown has a
    // live histogram on at least every primary OSD.
    for stage in [
        "messenger",
        "pg_queue",
        "submit",
        "journal",
        "apply",
        "ack",
        "total",
    ] {
        let recorded: u64 = (0..NODES * OSDS_PER_NODE)
            .filter_map(|osd| snap.histogram(&format!("osd{osd}.stage.{stage}")))
            .map(|h| h.count)
            .sum();
        assert!(recorded > 0, "no samples recorded for stage {stage}");
    }

    // Client ops land in the OSD op counters...
    let client_writes: u64 = (0..NODES * OSDS_PER_NODE)
        .filter_map(|osd| snap.counter(&format!("osd{osd}.op.writes")))
        .sum();
    assert_eq!(client_writes, WRITES);

    // ...journal rings committed them (primary + replica)...
    let commits: u64 = (0..NODES)
        .filter_map(|n| snap.counter(&format!("node{n}.journal.commits")))
        .sum();
    assert!(commits >= WRITES, "commits {commits} < writes {WRITES}");

    // ...and both journal devices and data SSDs saw bytes.
    for n in 0..NODES {
        assert!(
            snap.counter(&format!("node{n}.journal.dev.bytes_written"))
                .unwrap()
                > 0
        );
    }
    for osd in 0..NODES * OSDS_PER_NODE {
        assert!(
            snap.counter(&format!("osd{osd}.data.bytes_written"))
                .unwrap()
                > 0
        );
    }

    cluster.shutdown();
}

#[test]
fn cluster_snapshot_roundtrips_through_prometheus() {
    let cluster = run_cluster();
    let snap = cluster.metrics_snapshot();
    cluster.shutdown();

    assert!(
        snap.len() > 50,
        "expected a rich snapshot, got {}",
        snap.len()
    );
    let text = snap.to_prometheus();
    let parsed = afc_common::MetricsSnapshot::from_prometheus(&text).unwrap();
    assert_eq!(parsed, snap);
}
