//! An AFCeph OSD takes a client request on the client's thread that sends
//! it (`OsdDispatcher::take`): the op runs to its PG order point there,
//! ahead of the request's arrival, and no delivery thread wakes. Nothing
//! the op does shows before that arrival: a read's device time is planned
//! from it, a write's journal record is planned from it (so the primary's
//! crash image holds no entry before it) and its `Replicate` leaves at it,
//! and every reply, a `NotPrimary` reject too, leaves no earlier. With a
//! 50 ms hop each op returns no earlier than two hops after it was issued:
//! a read two hops and its device read later, a replicated write four hops.

use afc_common::{ClientId, ObjectId, OpId, OsdId};
use afc_core::messages::ClientOp;
use afc_core::{Cluster, DeviceProfile, ObjectOp, OsdMsg, OsdTuning, QosTag};
use afc_device::SsdConfig;
use afc_messenger::Addr;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const HOP: Duration = Duration::from_millis(50);
/// One 4 KiB SSD read: long enough to tell a read planned from the
/// request's arrival from one planned when the request was taken.
const DEVICE_READ: Duration = Duration::from_millis(20);
/// One 4 KiB SSD write: the apply completes, and the journal entry is
/// trimmed, this long after the record is durable, so a record durable
/// before its request arrives shows in the crash image.
const DEVICE_WRITE: Duration = Duration::from_millis(100);

/// Two OSDs on two nodes, every write mirrored once, a 50 ms hop, 20 ms
/// SSD reads and 100 ms SSD writes.
fn cluster() -> Cluster {
    Cluster::builder()
        .nodes(2)
        .osds_per_node(1)
        .replication(2)
        .pg_num(8)
        .hop_latency(HOP)
        .tuning(OsdTuning {
            // Never resent, so every `Replicate` is sent once.
            rep_resend_after_ms: 60_000,
            ..OsdTuning::afceph()
        })
        .devices(DeviceProfile {
            ssd: SsdConfig {
                read_base: DEVICE_READ,
                write_base: DEVICE_WRITE,
                jitter: 0.0,
                ..SsdConfig::sata3()
            },
            ..DeviceProfile::clean()
        })
        .build()
        .unwrap()
}

/// Wait until `done` holds; fail after 10 s.
fn poll(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "no {what} after 10 s");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A write, a read and a stat, each taken on the client's thread: every
/// one returns no earlier than its hops (and its device read) after it
/// was issued, the write's record is in no crash image before its request
/// arrives, and no connection gets a delivery thread.
#[test]
fn a_taken_client_op_shows_nothing_before_its_arrival() {
    let cluster = cluster();
    let client = cluster.client().unwrap();
    let object = ObjectId::new(cluster.pool(), "far");
    let primary = cluster.monitor().map().object_placement(&object).unwrap().1[0];
    let journal = cluster.osd(primary).unwrap().journal();

    let t0 = Instant::now();
    let write = client
        .write_object_async("far", 0, Bytes::from(vec![7u8; 4096]))
        .unwrap();
    // Taken: the primary journaled the write on this thread, before the
    // request arrives one hop after it was sent.
    let arrival = t0 + HOP;
    assert_eq!(journal.stats().submits.get(), 1, "journaled as it was sent");
    assert!(Instant::now() < arrival, "taken only at its arrival");
    while Instant::now() < arrival {
        assert!(journal.crash_image().is_empty(), "durable before arrival");
        std::thread::sleep(Duration::from_millis(1));
    }
    write.wait().unwrap();
    // Request, `Replicate`, `RepAck` and reply.
    let took = t0.elapsed();
    assert!(took >= 4 * HOP, "write acked after {took:?}");
    // Applied: the read waits for nothing but its device read.
    cluster.quiesce();

    let t0 = Instant::now();
    assert_eq!(client.read_object("far", 0, 4096).unwrap(), [7u8; 4096]);
    let took = t0.elapsed();
    assert!(
        took >= 2 * HOP + DEVICE_READ,
        "read answered after {took:?}"
    );

    let t0 = Instant::now();
    assert_eq!(client.stat_object("far").unwrap(), 4096);
    let took = t0.elapsed();
    assert!(took >= 2 * HOP, "stat answered after {took:?}");

    let snap = cluster.metrics_snapshot();
    assert_eq!(
        snap.counter("net.threads"),
        Some(0),
        "a delivery thread woke"
    );
    assert_eq!(snap.site_sum("op.fast_dispatches"), 3);
    cluster.shutdown();
}

/// A request sent to an OSD that is not the object's primary is taken
/// there too, and its `NotPrimary` reject leaves no earlier than the
/// request arrives: it reaches the client two hops after it was sent.
#[test]
fn a_taken_not_primary_reject_leaves_no_earlier_than_its_arrival() {
    let cluster = cluster();
    let object = ObjectId::new(cluster.pool(), "misdirected");
    let map = cluster.monitor().map();
    let (pg, acting) = map.object_placement(&object).unwrap();
    let other: OsdId = cluster
        .osds()
        .iter()
        .map(|osd| osd.id())
        .find(|id| *id != acting[0])
        .unwrap();
    // A client endpoint that notes when each reply is dispatched to it:
    // at the reply's arrival, on the connection's delivery thread.
    let replies: Arc<Mutex<Vec<(OsdMsg, Instant)>>> = Arc::default();
    let r = Arc::clone(&replies);
    let me = ClientId(1000);
    let msgr = cluster
        .network()
        .register(
            Addr::Client(me),
            Arc::new(move |_: Addr, msg: OsdMsg| r.lock().push((msg, Instant::now()))),
        )
        .unwrap();
    let request = OsdMsg::Request(ClientOp {
        client: me,
        op_id: OpId(1),
        pg,
        object,
        op: ObjectOp::Stat,
        epoch: map.epoch(),
        qos: QosTag::best_effort(),
    });
    let t0 = Instant::now();
    let bytes = request.wire_bytes();
    msgr.send(Addr::Osd(other), request, bytes).unwrap();
    poll("the reject", || !replies.lock().is_empty());
    let (reply, at) = replies.lock().remove(0);
    let OsdMsg::Reply(reply) = reply else {
        panic!("not a reply: {reply:?}");
    };
    assert!(
        matches!(reply.result, Err(afc_common::AfcError::NotPrimary(_))),
        "{reply:?}"
    );
    assert!(at >= t0 + 2 * HOP, "rejected after {:?}", at - t0);
    let snap = cluster.metrics_snapshot();
    let ops = snap.counter(&format!("osd{}.op.client_ops", other.0));
    assert_eq!(ops, Some(1), "handled by the OSD it was sent to");
    // The request was taken; the fake client hands the reject back, on the
    // one delivery thread.
    assert_eq!(snap.counter("net.taken"), Some(1));
    assert_eq!(snap.counter("net.threads"), Some(1));
    cluster.shutdown();
}
