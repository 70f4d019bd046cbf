//! Integration tests for failure handling: degraded operation, journal
//! replay, device faults.

use afcstore::common::{AfcError, OsdId, PgId};
use afcstore::{Cluster, DeviceProfile, OsdTuning};

fn cluster() -> Cluster {
    Cluster::builder()
        .nodes(3)
        .osds_per_node(2)
        .replication(2)
        .pg_num(48)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .build()
        .unwrap()
}

#[test]
fn degraded_reads_and_writes_after_osd_down() {
    let c = cluster();
    let client = c.client().unwrap();
    for i in 0..24 {
        client
            .write_object(&format!("pre{i}"), 0, b"before-failure")
            .unwrap();
    }
    c.monitor().mark_down(OsdId(2));
    // Everything written before stays readable (served by survivors).
    for i in 0..24 {
        assert_eq!(
            client.read_object(&format!("pre{i}"), 0, 14).unwrap(),
            b"before-failure"
        );
    }
    // New writes succeed (degraded acks with fewer replicas).
    for i in 0..12 {
        client
            .write_object(&format!("post{i}"), 0, b"after-failure")
            .unwrap();
        assert_eq!(
            client.read_object(&format!("post{i}"), 0, 13).unwrap(),
            b"after-failure"
        );
    }
    // No PG's acting set references the dead OSD.
    for seq in 0..48 {
        let acting = c
            .monitor()
            .map()
            .pg_placement(PgId {
                pool: c.pool(),
                seq,
            })
            .unwrap()
            .acting;
        assert!(!acting.is_empty() && !acting.contains(&OsdId(2)));
    }
    c.shutdown();
}

#[test]
fn whole_node_failure_still_serves() {
    let c = cluster();
    let client = c.client().unwrap();
    for i in 0..16 {
        client
            .write_object(&format!("n{i}"), 0, b"node-test")
            .unwrap();
    }
    // Take down node 0 entirely (osd.0 and osd.1 — host failure domain
    // means no PG had both replicas there).
    c.monitor().mark_down(OsdId(0));
    c.monitor().mark_down(OsdId(1));
    for i in 0..16 {
        assert_eq!(
            client.read_object(&format!("n{i}"), 0, 9).unwrap(),
            b"node-test"
        );
    }
    c.shutdown();
}

#[test]
fn journal_replay_is_idempotent_and_preserves_data() {
    let c = cluster();
    let client = c.client().unwrap();
    for i in 0..20 {
        client
            .write_object(&format!("jr{i}"), 0, format!("payload{i}").as_bytes())
            .unwrap();
    }
    // Replay whatever is still untrimmed on every OSD — twice.
    for _ in 0..2 {
        for osd in c.osds() {
            osd.replay_journal().unwrap();
        }
    }
    for i in 0..20 {
        let want = format!("payload{i}");
        assert_eq!(
            client
                .read_object(&format!("jr{i}"), 0, want.len() as u32)
                .unwrap(),
            want.as_bytes()
        );
    }
    c.shutdown();
}

#[test]
fn losing_all_replicas_fails_cleanly() {
    let c = cluster();
    let client = c.client().unwrap();
    client.write_object("doomed", 0, b"x").unwrap();
    let obj = afcstore::common::ObjectId::new(c.pool(), "doomed");
    let (_, acting) = c.monitor().map().object_placement(&obj).unwrap();
    for o in acting {
        c.monitor().mark_down(o);
    }
    // The PG has no acting set: client submission errors instead of hanging.
    let err = client.read_object("doomed", 0, 1).unwrap_err();
    assert!(matches!(err, AfcError::NotFound(_)), "unexpected: {err}");
    let map_err = c.monitor().map().object_placement(&obj).unwrap_err();
    assert!(matches!(map_err, AfcError::NotFound(_)));
    c.shutdown();
}

#[test]
fn client_retries_after_remap() {
    // A client holding a pre-failure map must transparently retry to the
    // new primary (shared-map refresh + misdirected retry path).
    let c = cluster();
    let client = c.client().unwrap();
    client.write_object("remap", 0, b"v1").unwrap();
    let obj = afcstore::common::ObjectId::new(c.pool(), "remap");
    let (_, acting) = c.monitor().map().object_placement(&obj).unwrap();
    c.monitor().mark_down(acting[0]); // kill the primary
                                      // Old primary is gone; the write must land on the promoted survivor.
    client.write_object("remap", 0, b"v2").unwrap();
    assert_eq!(client.read_object("remap", 0, 2).unwrap(), b"v2");
    c.shutdown();
}
