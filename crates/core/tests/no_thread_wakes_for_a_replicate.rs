//! A fast-ack `Replicate` wakes no delivery thread on the replica: the
//! replica takes it on the primary's thread that sends it
//! (`osdN.op.taken_repops`),
//! queues the sub-op in its PG's FIFO there and runs it once that thread
//! holds no PG lock, with its journal record planned from the message's
//! arrival. Nothing the sub-op does shows before that arrival: the record
//! is not in a crash image, the `RepAck` leaves when the record is
//! durable, and a re-ack leaves no earlier than its copy arrives.
//! Community, and a paused replica, leave the `Replicate` to a delivery
//! thread as before. The client's request is taken too
//! (`no_thread_wakes_for_a_client_op`), so an AFCeph write wakes no
//! delivery thread at all.

use afc_common::{FaultKind, FaultPlan, FaultSite, FaultSpec, NetSite, ObjectId, OsdId, PgId};
use afc_core::messages::RepOp;
use afc_core::{Cluster, ClusterBuilder, DeviceProfile, ObjectOp, OsdMsg, OsdTuning};
use afc_messenger::Addr;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WRITES: u64 = 40;

/// Two OSDs per node on two nodes, every write mirrored once.
fn builder(tuning: OsdTuning) -> ClusterBuilder {
    Cluster::builder()
        .nodes(2)
        .osds_per_node(2)
        .replication(2)
        .pg_num(16)
        .tuning(OsdTuning {
            // Never resent, so every sub-op is sent once.
            rep_resend_after_ms: 60_000,
            ..tuning
        })
        .devices(DeviceProfile::clean())
}

/// Wait until `done` holds; fail after 10 s.
fn poll(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "no {what} after 10 s");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `WRITES` QD1 writes over eight objects; returns each write's acting set.
fn write_loop(cluster: &Cluster) -> Vec<Vec<OsdId>> {
    let client = cluster.client().unwrap();
    let map = cluster.monitor().shared_map();
    (0..WRITES)
        .map(|i| {
            let name = format!("r{}", i % 8);
            client
                .write_object(&name, (i / 8) * 4096, &[9u8; 4096])
                .unwrap();
            let obj = ObjectId::new(cluster.pool(), &name);
            map.read().object_placement(&obj).unwrap().1
        })
        .collect()
}

/// `Replicate`s the replicas took on the primary's thread. Each is counted
/// before its sub-op runs, so before the write it serves is answered.
fn taken_replicates(cluster: &Cluster) -> u64 {
    cluster.metrics_snapshot().site_sum("op.taken_repops")
}

/// A connection gets a delivery thread once its receiver hands a message
/// back. A fault-free AFCeph run takes every request, `Replicate` and
/// `RepAck`, so it spawns none. Community hands every one back: one thread
/// per client→primary pair, the paper's messenger axis, and one per OSD
/// pair that carries a `Replicate` or a `RepAck`.
#[test]
fn afceph_writes_spawn_no_delivery_thread_and_community_one_per_pair() {
    for tuning in [OsdTuning::afceph(), OsdTuning::community()] {
        let (label, afceph) = (tuning.label(), tuning.fast_ack);
        let cluster = builder(tuning).build().unwrap();
        let acting = write_loop(&cluster);
        let snap = cluster.metrics_snapshot();
        assert_eq!(
            snap.site_sum("op.repops"),
            WRITES,
            "{label}: one sub-op per write"
        );
        let threads = if afceph {
            assert_eq!(taken_replicates(&cluster), WRITES);
            0
        } else {
            let primaries: BTreeSet<OsdId> = acting.iter().map(|a| a[0]).collect();
            let osd_pairs: BTreeSet<(OsdId, OsdId)> = acting
                .iter()
                .flat_map(|a| [(a[0], a[1]), (a[1], a[0])])
                .collect();
            primaries.len() + osd_pairs.len()
        };
        assert_eq!(snap.counter("net.threads"), Some(threads as u64), "{label}");
        cluster.shutdown();
    }
}

/// The replica journals a taken sub-op before its `Replicate` arrives, but
/// plans the record from that arrival: with a 50 ms hop the replica's
/// crash image holds no entry before it, and the write still returns four
/// hops after it was issued.
#[test]
fn a_taken_replicate_is_durable_no_earlier_than_its_arrival() {
    const HOP: Duration = Duration::from_millis(50);
    let cluster = builder(OsdTuning::afceph())
        .hop_latency(HOP)
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    let object = ObjectId::new(cluster.pool(), "far");
    let acting = cluster.monitor().map().object_placement(&object).unwrap().1;
    let journal = cluster.osd(acting[1]).unwrap().journal();
    let t0 = Instant::now();
    let write = client
        .write_object_async("far", 0, Bytes::from(vec![1u8; 4096]))
        .unwrap();
    // The request arrives at the primary one hop after t0, the
    // `Replicate` at the replica one hop after it leaves the primary.
    let arrival = t0 + 2 * HOP;
    poll("replica journal submit", || {
        journal.stats().submits.get() == 1
    });
    assert!(Instant::now() < arrival, "journaled only at its arrival");
    while Instant::now() < arrival {
        assert!(journal.crash_image().is_empty(), "durable before arrival");
        std::thread::sleep(Duration::from_millis(1));
    }
    write.wait().unwrap();
    let took = t0.elapsed();
    assert!(took >= 4 * HOP, "acked after {took:?}");
    assert_eq!(taken_replicates(&cluster), 1);
    cluster.shutdown();
}

/// A `Replicate` sent to a paused replica is handed back, and dropped at
/// its arrival; once the replica resumes, the primary's resend is taken
/// and completes the write.
#[test]
fn a_replicate_to_a_paused_replica_is_not_taken() {
    let cluster = builder(OsdTuning::afceph())
        .tuning(OsdTuning {
            rep_resend_after_ms: 100,
            ..OsdTuning::afceph()
        })
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    let object = ObjectId::new(cluster.pool(), "paused");
    let acting = cluster.monitor().map().object_placement(&object).unwrap().1;
    let counter = |osd: OsdId, name: &str| {
        let snap = cluster.metrics_snapshot();
        snap.counter(&format!("osd{}.op.{name}", osd.0)).unwrap()
    };
    let replica = cluster.osd(acting[1]).unwrap();
    replica.pause();
    let write = client
        .write_object_async("paused", 0, Bytes::from(vec![3u8; 4096]))
        .unwrap();
    poll("resend", || counter(acting[0], "rep_resends") >= 1);
    // A resend is counted before it is sent, and one handed back that
    // arrives after `resume` is handled at its arrival, not taken: let it
    // arrive, and be dropped, while the replica is still paused (resends
    // are 100 ms apart, a hop is 80 µs).
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(counter(acting[1], "repops"), 0, "handled while paused");
    assert_eq!(taken_replicates(&cluster), 0, "taken while paused");
    replica.resume();
    write.wait().unwrap();
    assert_eq!(counter(acting[1], "repops"), 1, "the resend");
    assert_eq!(taken_replicates(&cluster), 1, "the resend was not taken");
    cluster.shutdown();
}

/// A fake primary that records when each `RepAck` reaches it.
type Acks = Arc<Mutex<Vec<Instant>>>;

/// A `Replicate` duplicated on the wire is journaled once: the copy finds
/// the original committed and is re-acked, no earlier than the record is
/// durable. A later copy (a resend) is re-acked no earlier than it
/// arrives, so its ack reaches the primary two hops after it was sent.
#[test]
fn a_duplicated_replicate_is_journaled_once_and_re_acked_no_earlier_than_it_arrives() {
    const HOP: Duration = Duration::from_millis(20);
    let cluster = Cluster::builder()
        .nodes(1)
        .osds_per_node(1)
        .replication(1)
        .pg_num(8)
        .hop_latency(HOP)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .faults(FaultPlan::new(0x41))
        .build()
        .unwrap();
    let reg = cluster.fault_registry().unwrap().clone();
    let acks: Acks = Arc::default();
    let a = Arc::clone(&acks);
    let primary = cluster
        .network()
        .register(
            Addr::Osd(OsdId(9)),
            Arc::new(move |_: Addr, msg: OsdMsg| {
                if let OsdMsg::RepAck(_) = msg {
                    a.lock().push(Instant::now());
                }
            }),
        )
        .unwrap();
    let replica = Addr::Osd(cluster.osds()[0].id());
    let rep = OsdMsg::Replicate(RepOp {
        rep_id: 1,
        pg: PgId {
            pool: cluster.pool(),
            seq: 0,
        },
        object: ObjectId::new(cluster.pool(), "dup"),
        op: ObjectOp::Write {
            offset: 0,
            data: Bytes::from(vec![5u8; 4096]),
        },
        pg_seq: 1,
        prev: None,
    });
    let send = |at: &str| {
        let bytes = rep.wire_bytes();
        let copy = rep.clone();
        primary
            .send(replica, copy, bytes)
            .unwrap_or_else(|e| panic!("{at}: {e}"));
    };
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::Replicate), FaultKind::Duplicate).times(1));
    let t0 = Instant::now();
    send("original");
    poll("the original's ack and re-ack", || acks.lock().len() == 2);
    for &at in acks.lock().iter() {
        assert!(at >= t0 + 2 * HOP, "acked {:?} after it was sent", at - t0);
    }
    let t1 = Instant::now();
    send("resend");
    poll("the resend's re-ack", || acks.lock().len() == 3);
    let reacked = acks.lock()[2];
    assert!(
        reacked >= t1 + 2 * HOP,
        "re-acked {:?} after it was sent",
        reacked - t1
    );
    let journal = cluster.osds()[0].journal();
    assert_eq!(journal.stats().submits.get(), 1, "journaled once");
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("net.duplicated"), Some(1));
    // Counted once each `take` returns, after the re-ack it sent.
    let taken = || cluster.metrics_snapshot().counter("net.taken");
    poll("every copy taken", || taken() >= Some(3));
    assert_eq!(taken(), Some(3), "every copy was taken");
    cluster.shutdown();
}

/// Community is the §3.1 baseline: every `Replicate` waits for its
/// arrival on a delivery thread and goes through the PG queue. AFCeph
/// takes every one.
#[test]
fn community_takes_no_replicate() {
    for (tuning, taken) in [(OsdTuning::community(), 0), (OsdTuning::afceph(), WRITES)] {
        let label = tuning.label();
        let cluster = builder(tuning).build().unwrap();
        write_loop(&cluster);
        let snap = cluster.metrics_snapshot();
        assert_eq!(snap.site_sum("op.repops"), WRITES, "{label}");
        assert_eq!(taken_replicates(&cluster), taken, "{label}");
        cluster.shutdown();
    }
}
