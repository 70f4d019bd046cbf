//! Cross-crate integration tests: the strong-consistency guarantees the
//! paper's optimizations must preserve ("Our works does not influence Ceph
//! negatively because it preserves the basic semantics of Ceph").

use afcstore::common::{BlockTarget, MIB};
use afcstore::messages::{ObjectOp, OpOutcome};
use afcstore::{Cluster, DeviceProfile, OsdTuning};
use bytes::Bytes;
use std::sync::Arc;

fn cluster(tuning: OsdTuning) -> Cluster {
    Cluster::builder()
        .nodes(2)
        .osds_per_node(2)
        .replication(2)
        .pg_num(32)
        .tuning(tuning)
        .devices(DeviceProfile::clean())
        .build()
        .unwrap()
}

/// Every configuration must give identical, correct results: the two
/// evaluated profiles, Figure 9's cumulative steps, and AFCeph minus each
/// §3.1 switch (the configurations `abl_pending_queue` benches) — between
/// them every place the commit continuation can run, on both sides.
fn tunings() -> Vec<(&'static str, OsdTuning)> {
    let afceph = OsdTuning::afceph;
    vec![
        ("community", OsdTuning::community()),
        ("step_lock_opt", OsdTuning::step_lock_opt()),
        ("step_tuning", OsdTuning::step_tuning()),
        ("step_logging", OsdTuning::step_logging()),
        ("afceph", afceph()),
        (
            "afceph-pending_queue",
            OsdTuning {
                pending_queue: false,
                ..afceph()
            },
        ),
        (
            "afceph-dedicated_completion",
            OsdTuning {
                dedicated_completion: false,
                ..afceph()
            },
        ),
        (
            "afceph-fast_ack",
            OsdTuning {
                fast_ack: false,
                ..afceph()
            },
        ),
    ]
}

#[test]
fn read_your_writes_across_configs() {
    for (name, tuning) in tunings() {
        let cluster = cluster(tuning);
        let client = cluster.client().unwrap();
        for i in 0..40 {
            let body = format!("object-{i}-payload");
            client
                .write_object(&format!("o{i}"), 0, body.as_bytes())
                .unwrap();
            let back = client
                .read_object(&format!("o{i}"), 0, body.len() as u32)
                .unwrap();
            assert_eq!(back, body.as_bytes(), "{name}: o{i}");
        }
        cluster.shutdown();
    }
}

#[test]
fn overwrites_are_strongly_consistent() {
    for (name, tuning) in tunings() {
        let cluster = cluster(tuning);
        let client = cluster.client().unwrap();
        for v in 0..25u8 {
            client.write_object("hot", 0, &[v; 256]).unwrap();
            let back = client.read_object("hot", 0, 256).unwrap();
            assert_eq!(back, vec![v; 256], "{name}: stale read after ack (v={v})");
        }
        cluster.shutdown();
    }
}

#[test]
fn pipelined_writes_to_one_object_apply_in_order() {
    for (name, tuning) in tunings() {
        let cluster = cluster(tuning);
        let client = cluster.client().unwrap();
        // Issue 30 async overwrites of the same object without waiting,
        // and a read pipelined behind them: ordered after all 30 applies,
        // it waits for them — without the pending queue, under the PG lock.
        let handles: Vec<_> = (0..30u8)
            .map(|v| {
                client
                    .write_object_async("seq", 0, Bytes::from(vec![v; 512]))
                    .unwrap()
            })
            .collect();
        let read = client.read_object_async("seq", 0, 512).unwrap();
        for h in handles {
            h.wait().unwrap();
        }
        // Per-PG ordering: the final state must be the LAST issued write.
        match read.wait() {
            Ok(OpOutcome::Data(back)) => {
                assert_eq!(&back[..], [29u8; 512], "{name}: write order violated")
            }
            other => panic!("{name}: pipelined read answered {other:?}"),
        }
        cluster.shutdown();
    }
}

#[test]
fn concurrent_clients_distinct_objects() {
    let cluster = cluster(OsdTuning::afceph());
    let cluster = Arc::new(cluster);
    std::thread::scope(|s| {
        for t in 0..6 {
            let cluster = Arc::clone(&cluster);
            s.spawn(move || {
                let client = cluster.client().unwrap();
                for i in 0..25 {
                    let name = format!("t{t}-o{i}");
                    let body = format!("{t}/{i}");
                    client.write_object(&name, 0, body.as_bytes()).unwrap();
                    assert_eq!(
                        client.read_object(&name, 0, body.len() as u32).unwrap(),
                        body.as_bytes()
                    );
                }
            });
        }
    });
    cluster.shutdown();
}

#[test]
fn data_is_on_both_replicas() {
    let cluster = cluster(OsdTuning::afceph());
    let client = cluster.client().unwrap();
    client
        .write_object("replicated", 0, b"twice-stored")
        .unwrap();
    cluster.quiesce();
    // Find the object's acting set and check each OSD's filestore.
    let obj = afcstore::common::ObjectId::new(cluster.pool(), "replicated");
    let (_pg, acting) = cluster.monitor().map().object_placement(&obj).unwrap();
    assert_eq!(acting.len(), 2);
    for osd_id in acting {
        let osd = cluster.osd(osd_id).unwrap();
        let data = osd
            .store()
            .read(&obj.to_string(), 0, 12, std::time::Instant::now())
            .unwrap()
            .data;
        assert_eq!(data, b"twice-stored", "{osd_id} missing replica data");
    }
    cluster.shutdown();
}

#[test]
fn rbd_image_data_integrity_random_pattern() {
    let cluster = cluster(OsdTuning::afceph());
    let img = cluster.create_image("integ", 16 * MIB).unwrap();
    // Model the image in memory, apply identical writes, compare regions.
    let mut model = vec![0u8; 16 * MIB as usize];
    let mut seed = 0x1234_5678_u64;
    for _ in 0..60 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let off = (seed >> 16) % (16 * MIB - 8192);
        let len = 512 + (seed >> 40) % 7680;
        let fill = (seed >> 8) as u8;
        let data = vec![fill; len as usize];
        img.write_at(off, &data).unwrap();
        model[off as usize..(off + len) as usize].copy_from_slice(&data);
    }
    for check in 0..20 {
        let off = (check * 793 * 1024) % (16 * MIB - 4096);
        let got = img.read_at(off, 4096).unwrap();
        assert_eq!(
            got,
            model[off as usize..off as usize + 4096],
            "mismatch at {off}"
        );
    }
    cluster.shutdown();
}

#[test]
fn object_api_full_lifecycle() {
    for (name, tuning) in tunings() {
        let cluster = cluster(tuning);
        let client = cluster.client().unwrap();
        client.write_object("life", 100, b"xyz").unwrap();
        assert_eq!(client.stat_object("life").unwrap(), 103, "{name}");
        client.delete_object("life").unwrap();
        assert!(
            matches!(
                client.submit("life", ObjectOp::Stat).unwrap().wait(),
                Err(afcstore::common::AfcError::NotFound(_))
            ),
            "{name}: stat after delete"
        );
        // Re-create after delete: the new object is the new bytes only.
        client.write_object("life", 0, b"again").unwrap();
        assert_eq!(client.stat_object("life").unwrap(), 5, "{name}");
        assert_eq!(
            client.read_object("life", 0, 5).unwrap(),
            b"again",
            "{name}"
        );
        cluster.quiesce();
        assert!(cluster.deep_scrub().unwrap().is_clean(), "{name}: scrub");
        cluster.shutdown();
    }
}
