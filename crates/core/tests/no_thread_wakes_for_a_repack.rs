//! A fast-ack `RepAck` wakes no thread on the primary: the primary takes
//! it on the replica's thread that sends it (`osdN.op.taken_repacks`) and
//! settles the write there, and the write's `Ok` still leaves no earlier
//! than the ack's modeled arrival. Community acks, duplicates and acks sent to a
//! paused primary are dispatched at their arrival, as before. A fast-ack
//! `Replicate` is taken too (`no_thread_wakes_for_a_replicate.rs`).

use afc_common::{FaultKind, FaultPlan, FaultSite, FaultSpec, NetSite, ObjectId, OsdId};
use afc_core::{Cluster, ClusterBuilder, DeviceProfile, OsdTuning};
use bytes::Bytes;
use std::time::{Duration, Instant};

const WRITES: u64 = 40;

/// Two OSDs on two nodes, every write mirrored once.
fn builder(tuning: OsdTuning) -> ClusterBuilder {
    Cluster::builder()
        .nodes(2)
        .osds_per_node(1)
        .replication(2)
        .pg_num(8)
        .tuning(tuning)
        .devices(DeviceProfile::clean())
}

/// A profile whose sub-ops are never resent, so every `RepAck` is the
/// first one.
fn no_resends(tuning: OsdTuning) -> OsdTuning {
    OsdTuning {
        rep_resend_after_ms: 60_000,
        ..tuning
    }
}

fn write_loop(cluster: &Cluster, n: u64) {
    let client = cluster.client().unwrap();
    for i in 0..n {
        client
            .write_object(&format!("w{}", i % 8), (i / 8) * 4096, &[6u8; 4096])
            .unwrap();
    }
}

/// `(Σ op.taken_repacks, Σ op.repacks)`: the `RepAck`s the primaries took
/// on the replica's thread, each counted before the write it settles can
/// be answered, and every `RepAck` that reached a primary.
fn taken_and_repacks(cluster: &Cluster) -> (u64, u64) {
    let snap = cluster.metrics_snapshot();
    (
        snap.site_sum("op.taken_repacks"),
        snap.site_sum("op.repacks"),
    )
}

#[test]
fn every_fast_ack_is_taken_on_the_replicas_thread() {
    let cluster = builder(no_resends(OsdTuning::afceph())).build().unwrap();
    write_loop(&cluster, WRITES);
    assert_eq!(taken_and_repacks(&cluster), (WRITES, WRITES));
    cluster.shutdown();
}

/// Each write's `Ok` leaves no earlier than its `RepAck` arrives: the
/// client sees it four hops after it sent the write (request, `Replicate`,
/// `RepAck`, reply), though the ack settled the write a hop earlier.
#[test]
fn a_taken_ack_still_holds_the_reply_until_it_arrives() {
    const HOP: Duration = Duration::from_millis(20);
    let cluster = builder(OsdTuning::afceph())
        .hop_latency(HOP)
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    for i in 0..3 {
        let t0 = Instant::now();
        client.write_object("far", i * 4096, &[1u8; 4096]).unwrap();
        let took = t0.elapsed();
        assert!(took >= 4 * HOP, "acked after {took:?}");
    }
    assert_eq!(taken_and_repacks(&cluster).0, 3);
    cluster.shutdown();
}

/// Community is the §3.1 baseline: its acks are dispatched at arrival, and
/// each goes through the PG queue (`handle_repack`).
#[test]
fn community_takes_no_ack() {
    let cluster = builder(no_resends(OsdTuning::community())).build().unwrap();
    write_loop(&cluster, WRITES);
    assert_eq!(taken_and_repacks(&cluster), (0, WRITES));
    cluster.shutdown();
}

/// A `RepAck` delayed on the wire delays the write's `Ok` as much, though
/// it is taken as soon as the replica sends it.
#[test]
fn a_delayed_ack_delays_the_reply() {
    const DELAY: Duration = Duration::from_millis(30);
    let cluster = builder(OsdTuning::afceph())
        .faults(FaultPlan::new(0x36))
        .build()
        .unwrap();
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::RepAck), FaultKind::Delay(DELAY)).times(1));
    let t0 = Instant::now();
    client.write_object("late", 0, &[2u8; 4096]).unwrap();
    let took = t0.elapsed();
    assert!(took >= DELAY, "acked after {took:?}");
    assert_eq!(
        reg.hits(FaultSite::Net(NetSite::RepAck)),
        1,
        "fault never fired"
    );
    assert_eq!(taken_and_repacks(&cluster), (1, 1));
    cluster.shutdown();
}

/// The first `Replicate` is lost on the wire, and the primary is paused
/// before its resend: the replica takes the resend and acks it at once,
/// to a paused primary, which hands the `RepAck` back to be dropped at
/// arrival. A resend acked after the primary resumes completes the write.
/// (A `Replicate` merely held on the wire is taken, and acked, while the
/// primary is still running.)
#[test]
fn an_ack_sent_to_a_paused_primary_is_not_taken() {
    let tuning = OsdTuning {
        rep_resend_after_ms: 200,
        ..OsdTuning::afceph()
    };
    let cluster = builder(tuning)
        .faults(FaultPlan::new(0x37))
        .build()
        .unwrap();
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();
    let object = ObjectId::new(cluster.pool(), "paused");
    let primary: OsdId = cluster.monitor().map().object_placement(&object).unwrap().1[0];
    let osd = cluster.osd(primary).unwrap();
    let counter = |name: &str| {
        let snap = cluster.metrics_snapshot();
        snap.counter(&format!("osd{}.op.{name}", primary.0))
            .unwrap()
    };
    let poll = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "no {what} after 10 s");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::Replicate), FaultKind::Drop).times(1));
    let write = client
        .write_object_async("paused", 0, Bytes::from(vec![3u8; 4096]))
        .unwrap();
    poll("write on the primary", &|| counter("writes") == 1);
    osd.pause();
    poll("resend", &|| counter("rep_resends") >= 1);
    // The replica takes the resend as it is sent and acks it on the same
    // thread, at once, to the paused primary; give a wrongly taken ack time
    // to show.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(taken_and_repacks(&cluster), (0, 0), "taken while paused");
    osd.resume();
    write.wait().unwrap();
    assert_eq!(
        reg.hits(FaultSite::Net(NetSite::Replicate)),
        1,
        "fault never fired"
    );
    cluster.shutdown();
}

/// A duplicated `RepAck` settles its write once: the first copy is taken,
/// the second finds no wait and is handed back.
#[test]
fn a_duplicated_ack_settles_once() {
    let cluster = builder(no_resends(OsdTuning::afceph()))
        .faults(FaultPlan::new(0x38))
        .build()
        .unwrap();
    let reg = cluster.fault_registry().unwrap().clone();
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::RepAck), FaultKind::Duplicate).times(1));
    write_loop(&cluster, WRITES);
    cluster.quiesce();
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("net.duplicated"), Some(1));
    assert_eq!(taken_and_repacks(&cluster), (WRITES, WRITES + 1));
    let report = cluster.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    cluster.shutdown();
}

/// The trace stamps a write's reply at the instant it leaves, not when the
/// ack settled it: every sampled write's `total` spans at least the
/// `Replicate` out and the `RepAck` back.
#[test]
fn a_sampled_write_spans_the_ack_round_trip() {
    const HOP: Duration = Duration::from_millis(5);
    let cluster = builder(OsdTuning::afceph())
        .hop_latency(HOP)
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    let totals = || -> Vec<(u64, u64)> {
        let snap = cluster.metrics_snapshot();
        let osds = cluster.osds().iter();
        osds.map(|o| {
            let h = snap.histogram(&format!("osd{}.stage.total", o.id().0));
            h.map_or((0, 0), |h| (h.count, h.sum_us))
        })
        .collect()
    };
    let mut before = totals();
    let mut sampled = 0;
    for i in 0..48 {
        client
            .write_object(&format!("t{}", i % 4), 0, &[4u8; 4096])
            .unwrap();
        let after = totals();
        for (&(n0, us0), &(n1, us1)) in before.iter().zip(&after) {
            assert!(n1 - n0 <= 1, "one write at a time");
            if n1 > n0 {
                let total = Duration::from_micros(us1 - us0);
                assert!(total >= 2 * HOP, "write {i}: total {total:?}");
                sampled += 1;
            }
        }
        before = after;
    }
    assert!(sampled > 0, "no write was sampled");
    cluster.shutdown();
}
