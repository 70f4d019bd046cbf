//! The modeled-wait ledger as the cluster reports it: `model.*` in
//! `Cluster::metrics_snapshot()` after a QD1 write loop, and where a read's
//! device time is booked.
//!
//! Alone in its test binary: the ledger is process-wide, so a second
//! cluster running in this process would book its waits to the same rows
//! while `net.msgs` stayed per cluster. The clusters below run one after
//! the other.

use afc_core::{Cluster, DeviceProfile, OsdTuning, RadosClient};

const READS: u64 = 64;

fn cluster(tuning: OsdTuning) -> Cluster {
    Cluster::builder()
        .nodes(2)
        .osds_per_node(2)
        .replication(2)
        .pg_num(64)
        .tuning(tuning)
        .devices(DeviceProfile::clean())
        .build()
        .unwrap()
}

fn write_loop(client: &RadosClient, n: u64) {
    let buf = vec![0x5au8; 4096];
    for i in 0..n {
        client
            .write_object(&format!("obj{}", i % 16), (i / 16) * 4096, &buf)
            .unwrap();
    }
}

/// `model.ssd.{waits,late}` booked by [`READS`] QD1 reads of written
/// objects.
fn ssd_waits_of_reads(cluster: &Cluster, client: &RadosClient) -> (u64, u64) {
    let ssd = || {
        let snap = cluster.metrics_snapshot();
        let c = |name: &str| snap.counter(name).unwrap();
        (c("model.ssd.waits"), c("model.ssd.late"))
    };
    let before = ssd();
    for i in 0..READS {
        let data = client
            .read_object(&format!("obj{}", i % 16), 0, 4096)
            .unwrap();
        assert_eq!(data, vec![0x5au8; 4096]);
    }
    let after = ssd();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn qd1_writes_and_reads_show_up_in_the_model_ledger() {
    let afceph = cluster(OsdTuning::afceph());
    let client = afceph.client().unwrap();
    write_loop(&client, 200);
    afceph.quiesce();
    let snap = afceph.metrics_snapshot();

    let c = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("{name} not registered"))
    };
    // A message waits for its arrival at most once (not at all when its
    // connection thread or the client's waiter got to it late).
    let (net_waits, msgs) = (c("model.net.waits"), c("net.msgs"));
    assert!(msgs >= 4 * 200, "{msgs} messages for 200 replicated writes");
    assert!(
        net_waits > 0 && net_waits <= msgs,
        "{net_waits} waits, {msgs} messages"
    );
    // No thread waits for a journal record: its durable instant rides on
    // the RepAck, the reply and the applied mark. Any NVRAM wait left is an
    // apply that finished before its record was durable, at most one per
    // journal entry and too short to cost a spin of note.
    let entries = snap.site_sum("journal.commits");
    assert!(c("model.nvram.waits") <= entries);
    let nvram_spin = c("model.nvram.spin_us") as f64 / 200.0;
    assert!(nvram_spin < 2.0, "{nvram_spin:.1} us/op NVRAM spin");
    // Every apply reached the data devices through the same primitive.
    assert!(c("model.ssd.waits") > 0);
    for class in ["net", "ssd"] {
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

    // An AFCeph read's SSD time sits inside its reply's `model.net` wait,
    // which the client's waiter waits out: no thread waits for the device.
    assert_eq!(ssd_waits_of_reads(&afceph, &client), (0, 0));
    afceph.shutdown();

    // A Community read waits for the device on its op worker, holding
    // the PG lock: one SSD wait each, or, when the worker got there after
    // the device finished, one late one.
    let community = cluster(OsdTuning::community());
    let client = community.client().unwrap();
    write_loop(&client, 16);
    community.quiesce();
    let (waits, late) = ssd_waits_of_reads(&community, &client);
    assert_eq!(
        waits + late,
        READS,
        "{waits} SSD waits and {late} late ones for {READS} reads"
    );
    community.shutdown();
}
