//! The modeled-wait ledger as the cluster reports it: `model.*` in
//! `Cluster::metrics_snapshot()` after a QD1 write loop.
//!
//! Alone in its test binary: the ledger is process-wide, so a second
//! cluster in this process would book its waits to the same rows while
//! `net.msgs` stayed per cluster.

use afc_core::{Cluster, DeviceProfile, OsdTuning};

#[test]
fn qd1_writes_show_up_in_the_model_ledger() {
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
    let buf = vec![0x5au8; 4096];
    for i in 0..200u64 {
        client
            .write_object(&format!("obj{}", i % 16), (i / 16) * 4096, &buf)
            .unwrap();
    }
    cluster.quiesce();
    let snap = cluster.metrics_snapshot();
    cluster.shutdown();

    let c = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("{name} not registered"))
    };
    // A message waits for its arrival at most once (not at all when its
    // connection thread got to it late).
    let (net_waits, msgs) = (c("model.net.waits"), c("net.msgs"));
    assert!(msgs >= 4 * 200, "{msgs} messages for 200 replicated writes");
    assert!(
        net_waits > 0 && net_waits <= msgs,
        "{net_waits} waits, {msgs} messages"
    );
    // A journal record is one NVRAM wait.
    let records = snap.site_sum("journal.batches");
    assert!(c("model.nvram.waits") <= records);
    // Every apply reached the data devices through the same primitive.
    assert!(c("model.ssd.waits") > 0);
    for class in ["net", "nvram", "ssd"] {
        let booked = c(&format!("model.{class}.sleep_us")) + c(&format!("model.{class}.spin_us"));
        assert!(booked > 0, "{class} waits booked no time");
    }
    let overshoot = snap
        .histogram("model.overshoot_us")
        .expect("model.overshoot_us not registered");
    assert_eq!(
        overshoot.count,
        c("model.net.waits") + c("model.nvram.waits") + c("model.ssd.waits")
    );
    assert!(overshoot.count > 0);
}
