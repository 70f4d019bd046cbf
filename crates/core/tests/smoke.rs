//! End-to-end smoke tests for the cluster stack.

use afc_common::{BlockTarget, KIB, MIB};
use afc_core::{Cluster, DeviceProfile, OsdTuning, ThrottleProfile};
use afc_device::{NvramConfig, SsdConfig};
use bytes::Bytes;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

fn small_cluster(tuning: OsdTuning) -> Cluster {
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

#[test]
fn community_write_read_roundtrip() {
    let cluster = small_cluster(OsdTuning::community());
    let client = cluster.client().unwrap();
    client.write_object("obj1", 0, b"hello community").unwrap();
    assert_eq!(
        client.read_object("obj1", 0, 15).unwrap(),
        b"hello community"
    );
    assert_eq!(client.stat_object("obj1").unwrap(), 15);
    cluster.shutdown();
}

#[test]
fn afceph_write_read_roundtrip() {
    let cluster = small_cluster(OsdTuning::afceph());
    let client = cluster.client().unwrap();
    client.write_object("obj1", 100, b"hello afceph").unwrap();
    assert_eq!(
        client.read_object("obj1", 100, 12).unwrap(),
        b"hello afceph"
    );
    client.delete_object("obj1").unwrap();
    assert!(client.read_object("obj1", 0, 1).is_err());
    cluster.shutdown();
}

/// Durability still gates the ack although no thread sleeps for a
/// journal record: on a 20 ms NVRAM a QD1 replicated write takes at least
/// the record's 20 ms plus its four hops, in both profiles.
#[test]
fn a_write_is_acked_no_earlier_than_its_records_are_durable() {
    const ACCESS: Duration = Duration::from_millis(20);
    const HOP: Duration = Duration::from_micros(80);
    for tuning in [OsdTuning::afceph(), OsdTuning::community()] {
        let label = tuning.label();
        let cluster = Cluster::builder()
            .nodes(2)
            .osds_per_node(1)
            .replication(2)
            .pg_num(8)
            .hop_latency(HOP)
            .tuning(tuning)
            .devices(DeviceProfile {
                nvram: NvramConfig {
                    access: ACCESS,
                    ..NvramConfig::pmc_8g()
                },
                ..DeviceProfile::clean()
            })
            .build()
            .unwrap();
        let client = cluster.client().unwrap();
        for i in 0..3 {
            let t0 = Instant::now();
            client.write_object("obj", i * 4096, &[7u8; 4096]).unwrap();
            let took = t0.elapsed();
            assert!(took >= ACCESS + 4 * HOP, "{label}: acked after {took:?}");
        }
        cluster.shutdown();
    }
}

#[test]
fn rbd_image_io() {
    let cluster = small_cluster(OsdTuning::afceph());
    let img = cluster.create_image("vm0", 64 * MIB).unwrap();
    let data = vec![0xabu8; 8192];
    img.write_at(4 * MIB - 4096, &data).unwrap(); // crosses object boundary
    assert_eq!(img.read_at(4 * MIB - 4096, 8192).unwrap(), data);
    cluster.shutdown();
}

#[test]
fn writes_are_replicated() {
    let cluster = small_cluster(OsdTuning::afceph());
    let client = cluster.client().unwrap();
    for i in 0..20 {
        client
            .write_object(&format!("o{i}"), 0, b"payload")
            .unwrap();
    }
    cluster.quiesce();
    // Each write lands on a primary and one replica: total filestore
    // transactions across OSDs ≈ 2 × ops.
    let total_txns = cluster.metrics_snapshot().site_sum("fs.txns_applied");
    assert!(total_txns >= 40, "only {total_txns} transactions applied");
    cluster.shutdown();
}

#[test]
fn journal_trims_after_applies() {
    let cluster = small_cluster(OsdTuning::afceph());
    let client = cluster.client().unwrap();
    for i in 0..40 {
        client
            .write_object(&format!("t{i}"), 0, &[1u8; 4096])
            .unwrap();
    }
    cluster.quiesce();
    // Applies completed ⇒ trim watermark advanced ⇒ ring nearly empty.
    for osd in cluster.osds() {
        assert!(
            osd.journal().used_fraction() < 0.05,
            "{}: journal not trimmed ({:.3})",
            osd.id(),
            osd.journal().used_fraction()
        );
        let s = osd.journal().stats();
        assert!(
            s.trimmed_bytes.get() > 0 || s.submits.get() == 0,
            "{}: nothing trimmed",
            osd.id()
        );
    }
    cluster.shutdown();
}

#[test]
fn osd_stats_account_the_pipeline() {
    let cluster = small_cluster(OsdTuning::community());
    let client = cluster.client().unwrap();
    for i in 0..24 {
        client
            .write_object(&format!("s{i}"), 0, &[2u8; 2048])
            .unwrap();
        let _ = client.read_object(&format!("s{i}"), 0, 2048).unwrap();
    }
    cluster.quiesce();
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.site_sum("op.writes"), 24);
    assert_eq!(snap.site_sum("op.reads"), 24);
    assert_eq!(
        snap.site_sum("op.repops"),
        24,
        "each write replicates once at rf=2"
    );
    assert_eq!(snap.site_sum("op.repacks"), 24);
    // Community blocking logging accounted real wait time.
    assert!(snap.site_sum("log.submitted") > 0);
    assert!(
        snap.site_sum("journal.commits") >= 48,
        "primary + replica journal commits"
    );
    assert!(snap.site_sum("fs.txns_applied") >= 48);
    assert!(snap.site_sum("data.bytes_written") > 0);
    cluster.shutdown();
}

/// With no QoS backlog every AFCeph client op is admitted on the messenger
/// thread that receives it, while the scheduler still sees and serves each
/// one; Community hands every op to an op worker.
#[test]
fn qd1_client_ops_are_admitted_on_the_receiving_messenger_thread() {
    for tuning in [OsdTuning::afceph(), OsdTuning::community()] {
        let afceph = tuning.pending_queue;
        let cluster = small_cluster(tuning);
        let client = cluster.client().unwrap();
        for i in 0..40 {
            let name = format!("fd{i}");
            client.write_object(&name, 0, &[4u8; 512]).unwrap();
            assert_eq!(client.read_object(&name, 0, 512).unwrap(), [4u8; 512]);
        }
        let snap = cluster.metrics_snapshot();
        assert_eq!(snap.site_sum("op.client_ops"), 80);
        for osd in cluster.osds() {
            let c = |name: &str| snap.counter(&format!("osd{}.{name}", osd.id().0)).unwrap();
            let fast = c("op.fast_dispatches");
            if afceph {
                assert_eq!(fast, c("op.client_ops"), "{}", osd.id());
                let served = c("qos.served_reservation") + c("qos.served_weight");
                assert_eq!(served, c("qos.enqueued"), "{}", osd.id());
            } else {
                assert_eq!(fast, 0, "{}: community", osd.id());
            }
        }
        cluster.shutdown();
    }
}

/// The §3.1 axis as counts the host cannot blur: PG-lock acquisitions
/// (`op.pg_locks`, try-locks included) and PG-queue passes (`op.pg_passes`)
/// per QD1 replicated write, exact, per profile. Community takes the PG
/// lock for the request, the journal completion and the `RepAck` on the
/// primary, and for the sub-op and its completion on the replica: five
/// of each. AFCeph takes it for the request and the sub-op only: two. A
/// change that lets Community skip a pass, or AFCeph add one, fails here.
///
/// AFCeph without `dedicated_completion` tells each commit's waiter, the
/// primary's op and the replica's sub-op alike, through the PG queue: four
/// passes. Its locks are three or four: an op worker that finds the PG
/// lock still held by the thread that submitted the record (its pending
/// queue try-locks) leaves the completion to that holder, which runs it
/// under the lock it already has.
#[test]
fn pg_locks_and_passes_per_write_are_exact_per_profile() {
    const WRITES: u64 = 40;
    let no_dedicated_completion = OsdTuning {
        dedicated_completion: false,
        ..OsdTuning::afceph()
    };
    for (tuning, locks, passes) in [
        (OsdTuning::community(), 5..=5, 5),
        (OsdTuning::afceph(), 2..=2, 2),
        (no_dedicated_completion, 3..=4, 4),
    ] {
        let label = format!(
            "{}, dedicated_completion {}",
            tuning.label(),
            tuning.dedicated_completion
        );
        // Never resent, so each write is one request, sub-op and ack.
        let cluster = small_cluster(OsdTuning {
            rep_resend_after_ms: 60_000,
            ..tuning
        });
        let client = cluster.client().unwrap();
        for i in 0..WRITES {
            client
                .write_object(&format!("pl{}", i % 8), (i / 8) * 4096, &[7u8; 4096])
                .unwrap();
        }
        cluster.quiesce();
        let snap = cluster.metrics_snapshot();
        assert_eq!(snap.site_sum("op.repops"), WRITES, "{label}");
        let taken = snap.site_sum("op.pg_locks");
        assert!(
            (locks.start() * WRITES..=locks.end() * WRITES).contains(&taken),
            "{label}: {taken} locks for {WRITES} writes, want {locks:?} each"
        );
        assert_eq!(
            snap.site_sum("op.pg_passes"),
            passes * WRITES,
            "{label}: passes"
        );
        cluster.shutdown();
    }
}

/// The six consecutive write stages tile `total`: on every OSD each stage
/// counts the same sampled writes, and their `sum_us` adds up to
/// `total.sum_us` less at most the µs truncation (< 1 µs per stage and
/// write).
#[test]
fn sampled_write_stages_sum_to_the_total() {
    const STAGES: [&str; 6] = ["messenger", "pg_queue", "submit", "journal", "apply", "ack"];
    let cluster = small_cluster(OsdTuning::afceph());
    let client = cluster.client().unwrap();
    for i in 0..160 {
        client
            .write_object(&format!("tr{i}"), 0, &[3u8; 1024])
            .unwrap();
    }
    let snap = cluster.metrics_snapshot();
    let mut sampled = 0;
    for osd in cluster.osds() {
        let hist = |stage: &str| {
            snap.histogram(&format!("osd{}.stage.{stage}", osd.id().0))
                .unwrap()
                .clone()
        };
        let total = hist("total");
        let parts = STAGES.map(hist);
        assert!(parts.iter().all(|h| h.count == total.count), "{}", osd.id());
        let sum: u64 = parts.iter().map(|h| h.sum_us).sum();
        let slack = STAGES.len() as u64 * total.count;
        assert!(
            sum <= total.sum_us && sum + slack >= total.sum_us,
            "{}: stages sum to {sum} µs, total {} µs over {} writes",
            osd.id(),
            total.sum_us,
            total.count
        );
        sampled += total.count;
    }
    assert!(sampled > 0, "no write was sampled");
    cluster.shutdown();
}

/// A client session takes every reply: the OSD thread that sends one
/// hands it over, and no delivery thread serves a connection toward a
/// client. A connection gets a thread only when its receiver hands a
/// message back, and an AFCeph OSD takes every request, `Replicate` and
/// `RepAck` on the thread that sends it: no connection gets one.
#[test]
fn replies_are_posted_to_the_client_and_no_thread_delivers_them() {
    const OPS: u64 = 40;
    // Never resent, so every `RepAck` is the first one and is taken.
    let cluster = small_cluster(OsdTuning {
        rep_resend_after_ms: 60_000,
        ..OsdTuning::afceph()
    });
    let client = cluster.client().unwrap();
    for i in 0..OPS {
        let name = format!("ib{i}");
        client.write_object(&name, 0, &[5u8; 1024]).unwrap();
        assert_eq!(client.read_object(&name, 0, 1024).unwrap(), [5u8; 1024]);
    }
    let snap = cluster.metrics_snapshot();
    let c = |name: &str| snap.counter(name).unwrap();
    let repacks = snap.site_sum("op.repacks");
    assert_eq!(repacks, OPS, "one RepAck per write");
    assert_eq!(snap.site_sum("op.repops"), OPS, "one Replicate per write");
    // `net.taken` counts a message once its `take` returns, after the work
    // it caused, so the last reply's may still be on its way.
    let taken = || cluster.metrics_snapshot().counter("net.taken").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while taken() < 5 * OPS + repacks && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        taken(),
        5 * OPS + repacks,
        "every request, reply, Replicate and RepAck"
    );
    assert_eq!(c("net.threads"), 0);
    cluster.shutdown();
}

/// Flash whose every write takes `write_base`, so an apply's lane stays
/// busy long enough for the next apply to queue behind it.
fn slow_apply_devices(write_base: Duration) -> DeviceProfile {
    DeviceProfile {
        ssd: SsdConfig {
            write_base,
            jitter: 0.0,
            ..SsdConfig::sata3()
        },
        ..DeviceProfile::clean()
    }
}

/// One AFCeph OSD on `devices`, no replicas.
fn one_osd(devices: DeviceProfile) -> Cluster {
    Cluster::builder()
        .nodes(1)
        .osds_per_node(1)
        .replication(1)
        .pg_num(8)
        .tuning(OsdTuning::afceph())
        .devices(devices)
        .build()
        .unwrap()
}

/// Write `object` twice and read it back: the second write's apply queues
/// behind the first's on its lane, so the read parks on the applied
/// prefix and nothing but the filestore's backstop can plan the apply it
/// waits for. Returns when the first write was issued, when it returned
/// and when the read was answered.
fn read_behind_a_queued_apply(cluster: &Cluster, object: &str) -> [Instant; 3] {
    let client = cluster.client().unwrap();
    let issued = Instant::now();
    client.write_object(object, 0, b"old bytes").unwrap();
    let first = Instant::now();
    client.write_object(object, 0, b"new bytes").unwrap();
    assert_eq!(client.read_object(object, 0, 9).unwrap(), b"new bytes");
    let answered = Instant::now();
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("osd0.op.read_parks"), Some(1));
    assert_eq!(snap.counter("osd0.op.gate_timeouts"), Some(0));
    [issued, first, answered]
}

/// The backstop plans an apply only for a thread waiting on it. An AFCeph
/// QD16 write-only run leaves every plan to the threads that queue
/// applies (and the quiesce): Σ `fs.backstop_plans` is exactly 0. A read
/// parked behind a queued apply is what it wakes for.
#[test]
fn the_backstop_plans_only_for_a_waiter() {
    const OPS: usize = 400;
    const QD: usize = 16;
    let cluster = small_cluster(OsdTuning::afceph());
    let client = cluster.client().unwrap();
    let data = Bytes::from(vec![7u8; 4 * KIB as usize]);
    let mut inflight: VecDeque<afc_core::client::rados::OpHandle> = VecDeque::new();
    for i in 0..OPS {
        if inflight.len() == QD {
            inflight.pop_front().unwrap().wait().unwrap();
        }
        let object = format!("bs{}", i % 64);
        let offset = (i / 64) as u64 * 4 * KIB;
        inflight.push_back(
            client
                .write_object_async(&object, offset, data.clone())
                .unwrap(),
        );
    }
    for h in inflight {
        h.wait().unwrap();
    }
    cluster.quiesce();
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.site_sum("fs.txns_applied"), 2 * OPS as u64);
    assert_eq!(snap.site_sum("fs.backstop_plans"), 0);
    cluster.shutdown();

    let cluster = one_osd(slow_apply_devices(Duration::from_millis(20)));
    read_behind_a_queued_apply(&cluster, "parked");
    let plans = cluster.metrics_snapshot().site_sum("fs.backstop_plans");
    assert!(
        plans > 0,
        "a parked read's apply was planned by no backstop"
    );
    cluster.shutdown();
}

/// A read parked behind a slow apply is answered when that apply
/// completes — within 5 ms of it — not when the next write touches the
/// store (there is none: it would time out). The first write's apply
/// starts between that write's issue and its return, and the second's
/// starts at its completion, one service later.
#[test]
fn a_parked_read_is_answered_at_its_apply_not_at_the_next_write() {
    let service = Duration::from_millis(50);
    let cluster = one_osd(slow_apply_devices(service));
    let [issued, first, answered] = read_behind_a_queued_apply(&cluster, "slow");
    assert!(
        answered >= issued + 2 * service,
        "answered before the apply it waited for completed"
    );
    let late = answered.saturating_duration_since(first + 2 * service);
    assert!(
        late < Duration::from_millis(5),
        "answered {late:?} after the apply it waited for completed"
    );
    cluster.shutdown();
}

/// A submitter blocked on a full journal ring waits for applies that only
/// a waiter gets planned: the client is QD1, so nothing else queues one,
/// and a 16 KiB write needs more ring than the applies already planned
/// free. With slow applies and a ring of a few entries, 200 writes stall
/// on the ring and every one of them completes.
#[test]
fn a_full_journal_waits_out_its_applies_and_every_write_completes() {
    const OPS: usize = 200;
    let devices = slow_apply_devices(Duration::from_millis(10)).with_journal_capacity(32 * KIB);
    let cluster = Cluster::builder()
        .nodes(2)
        .osds_per_node(1)
        .replication(2)
        .pg_num(8)
        .tuning(OsdTuning::afceph())
        .devices(devices)
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    let (small, large) = ([3u8; 4096], [4u8; 16384]);
    for i in 0..OPS {
        let data: &[u8] = if i % 4 == 3 { &large } else { &small };
        client
            .write_object(&format!("jf{}", i % 8), 0, data)
            .unwrap();
    }
    let snap = cluster.metrics_snapshot();
    assert!(
        snap.site_sum("journal.full_stalls") > 0,
        "the ring never filled"
    );
    assert_eq!(snap.site_sum("op.writes"), OPS as u64);
    assert_eq!(client.read_object("jf7", 0, 16384).unwrap(), large);
    cluster.shutdown();
}

/// A full filestore throttle on the thread that commits a journal record:
/// an AFCeph OSD runs every commit continuation, the primary's and the
/// replica's, on the journal's write-group leader, which queues the apply
/// there and so waits there for a throttle slot. With the HDD-sized
/// throttle (50 transactions) and slow applies, a burst of 400 writes
/// fills it; every write completes.
#[test]
fn a_full_filestore_throttle_on_the_committing_thread_lets_every_write_complete() {
    const OPS: usize = 400;
    let cluster = Cluster::builder()
        .nodes(2)
        .osds_per_node(1)
        .replication(2)
        .pg_num(8)
        .tuning(OsdTuning {
            throttle: ThrottleProfile::Hdd,
            ..OsdTuning::afceph()
        })
        .devices(slow_apply_devices(Duration::from_millis(5)))
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    let data = Bytes::from(vec![5u8; 4 * KIB as usize]);
    let writes: Vec<_> = (0..OPS)
        .map(|i| {
            let offset = (i / 32) as u64 * 4 * KIB;
            client
                .write_object_async(&format!("th{}", i % 32), offset, data.clone())
                .unwrap()
        })
        .collect();
    for (i, w) in writes.into_iter().enumerate() {
        let done = w.wait_timeout(Duration::from_secs(10));
        assert!(done.is_ok(), "write {i}: {done:?}");
    }
    let snap = cluster.metrics_snapshot();
    assert!(
        snap.site_sum("fs.throttle.waits") > 0,
        "the filestore throttle never filled"
    );
    assert_eq!(snap.site_sum("op.writes"), OPS as u64);
    cluster.shutdown();
}
