//! Freeze the metric names. `benchmark/src/layers.rs`, the bench gates and
//! the tests read the registry by name, so a rename silently zeroes a
//! per-layer metric instead of failing a build. This test compares the
//! names a small cluster exposes against `metric_names.golden`: adding a
//! metric means adding its line there; removing or renaming one is a
//! breaking change to every reader.

use afc_core::{Cluster, DeviceProfile, OsdTuning};
use std::collections::BTreeSet;

const GOLDEN: &str = include_str!("metric_names.golden");

/// Per-volume entries (`osdN.qos.volM.*`) exist only once volume M has sent
/// an op to OSD N, so they are not part of the fixed set.
fn is_per_volume(name: &str) -> bool {
    name.split('.').any(|part| {
        part.strip_prefix("vol")
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
    })
}

#[test]
fn metric_names_match_the_golden_list() {
    let cluster = Cluster::builder()
        .nodes(2)
        .osds_per_node(2)
        .replication(2)
        .pg_num(64)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    let buf = vec![0x42u8; 4096];
    for i in 0..32u64 {
        client
            .write_object(&format!("obj{}", i % 8), (i / 8) * 4096, &buf)
            .unwrap();
    }
    for i in 0..8u64 {
        assert_eq!(
            client.read_object(&format!("obj{i}"), 0, 4096).unwrap(),
            buf
        );
    }
    cluster.quiesce();
    let snap = cluster.metrics_snapshot();
    cluster.shutdown();

    let live: BTreeSet<&str> = snap
        .iter()
        .map(|(id, _)| id.name())
        .filter(|name| !is_per_volume(name))
        .collect();
    let golden: BTreeSet<&str> = GOLDEN.lines().collect();
    let missing: Vec<_> = golden.difference(&live).collect();
    let unlisted: Vec<_> = live.difference(&golden).collect();
    assert!(
        missing.is_empty() && unlisted.is_empty(),
        "metric names drifted from crates/core/tests/metric_names.golden\n\
         gone or renamed (breaks readers): {missing:?}\n\
         new (add to the golden list): {unlisted:?}"
    );
}
