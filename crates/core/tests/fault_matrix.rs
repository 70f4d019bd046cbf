//! Fault matrix: injected network and device faults must be absorbed by
//! the stack's recovery machinery (retransmit, per-PG sub-op order,
//! bounded client retries) — never surfacing as a hang, a panic, or silent corruption.

use afc_common::faults::{ApplyPoint, Io};
use afc_common::{AfcError, FaultKind, FaultPlan, FaultSite, FaultSpec, NetSite, ObjectId, KIB};
use afc_core::{Cluster, DeviceProfile, OpOutcome, OsdTuning};
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

const OSD0_READ: FaultSite = FaultSite::Data {
    osd: 0,
    io: Some(Io::Read),
};
const OSD0_WRITE: FaultSite = FaultSite::Data {
    osd: 0,
    io: Some(Io::Write),
};
const NODE0_FLUSH: FaultSite = FaultSite::Journal {
    node: 0,
    io: Some(Io::Flush),
};
const NODE1_FLUSH: FaultSite = FaultSite::Journal {
    node: 1,
    io: Some(Io::Flush),
};
const OSD0_APPLY: FaultSite = FaultSite::Apply {
    osd: 0,
    point: ApplyPoint::Apply,
};

fn fast_resend_tuning() -> OsdTuning {
    OsdTuning {
        rep_resend_after_ms: 20,
        ..OsdTuning::afceph()
    }
}

fn replicated_cluster(seed: u64) -> Cluster {
    Cluster::builder()
        .nodes(2)
        .osds_per_node(1)
        .replication(2)
        .pg_num(8)
        .tuning(fast_resend_tuning())
        .devices(DeviceProfile::clean())
        .faults(FaultPlan::new(seed))
        .build()
        .unwrap()
}

#[test]
fn dropped_repack_recovered_by_primary_resend() {
    let cluster = replicated_cluster(0x01);
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();

    // Lose the first replica ack: the primary must retransmit the
    // Replicate, the replica must re-ack the sub-op it already took, and
    // the client must see a plain success.
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::RepAck), FaultKind::Drop).times(1));
    client.write_object("lost_ack", 0, b"payload").unwrap();

    let resends = cluster.metrics_snapshot().site_sum("op.rep_resends");
    assert!(resends >= 1, "primary never retransmitted the sub-op");
    assert!(
        reg.hits(FaultSite::Net(NetSite::RepAck)) >= 1,
        "fault never fired"
    );

    cluster.quiesce();
    let report = cluster.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    assert_eq!(client.read_object("lost_ack", 0, 7).unwrap(), b"payload");
    cluster.shutdown();
}

#[test]
fn duplicated_replicate_and_delayed_ack_apply_once() {
    let cluster = replicated_cluster(0x02);
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();

    let replicate = FaultSite::Net(NetSite::Replicate);
    let repack = FaultSite::Net(NetSite::RepAck);
    reg.install(FaultSpec::new(replicate, FaultKind::Duplicate).times(1));
    reg.install(FaultSpec::new(repack, FaultKind::Delay(Duration::from_millis(30))).times(2));
    client.write_object("dup_rep", 0, b"exactly-once").unwrap();

    cluster.quiesce();
    assert_eq!(reg.hits(replicate), 1, "the Replicate was never duplicated");
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("net.duplicated"), Some(1));
    assert!(reg.hits(repack) >= 1, "no RepAck was delayed");
    // One client write ⇒ one primary apply + one replica apply, even
    // though the Replicate arrived twice.
    let txns = snap.site_sum("fs.txns_applied");
    assert_eq!(txns, 2, "duplicate Replicate must not re-apply");
    let report = cluster.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    assert_eq!(
        client.read_object("dup_rep", 0, 12).unwrap(),
        b"exactly-once"
    );
    cluster.shutdown();
}

#[test]
fn permanent_device_error_surfaces_typed_after_bounded_retries() {
    let cluster = Cluster::builder()
        .nodes(1)
        .osds_per_node(1)
        .replication(1)
        .pg_num(8)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .faults(FaultPlan::new(0x03))
        .build()
        .unwrap();
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();

    client.write_object("durable", 0, b"good bytes").unwrap();
    cluster.quiesce();

    // Every data-device read now fails. The client retries its bounded
    // schedule and then returns the typed error — no panic, no hang.
    reg.install(FaultSpec::new(OSD0_READ, FaultKind::Error).forever());
    let err = client.read_object("durable", 0, 10).unwrap_err();
    assert!(
        matches!(err, AfcError::Io(_) | AfcError::Timeout(_)),
        "expected a typed I/O error, got {err:?}"
    );
    assert!(reg.hits(OSD0_READ) >= 1, "fault never fired");

    // Clearing the fault heals the path: same read now succeeds.
    reg.clear();
    assert_eq!(client.read_object("durable", 0, 10).unwrap(), b"good bytes");
    cluster.shutdown();
}

#[test]
fn delayed_replicate_holds_ack_until_replica_commits() {
    let cluster = replicated_cluster(0x04);
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();

    reg.install(
        FaultSpec::new(
            FaultSite::Net(NetSite::Replicate),
            FaultKind::Delay(Duration::from_millis(40)),
        )
        .times(1),
    );
    client.write_object("slow_rep", 0, b"delayed").unwrap();

    cluster.quiesce();
    let report = cluster.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    let _ = Arc::clone(cluster.network()); // fabric survives the episode
    assert_eq!(client.read_object("slow_rep", 0, 7).unwrap(), b"delayed");
    cluster.shutdown();
}

#[test]
fn write_path_device_error_does_not_wedge_the_osd() {
    let cluster = Cluster::builder()
        .nodes(1)
        .osds_per_node(1)
        .replication(1)
        .pg_num(8)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .faults(FaultPlan::new(0x05))
        .build()
        .unwrap();
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();

    // Data-device writes fail during apply: the apply is accounted as a
    // failure, the journal keeps the entry, and later healthy traffic
    // still flows.
    reg.install(FaultSpec::new(OSD0_WRITE, FaultKind::Error).times(1));
    let _ = client.write_object("maybe_lost", 0, b"x");
    reg.clear();
    client.write_object("healthy", 0, b"still alive").unwrap();
    cluster.quiesce();
    assert_eq!(
        client.read_object("healthy", 0, 11).unwrap(),
        b"still alive"
    );
    // The faulted apply either failed (counted) or the fault fired on
    // another device op; either way nothing hung and stats are coherent.
    assert!(cluster.metrics_snapshot().counter("osd0.op.writes") >= Some(2));
    cluster.shutdown();
}

#[test]
fn journal_flush_backpressure_preserves_ack_order() {
    let cluster = replicated_cluster(0x07);
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();

    // Stall several group-commit flush barriers on both nodes' journals
    // while a pipelined burst of overwrites is in flight. Acks back up
    // behind the slow records, batches grow, but commit callbacks still
    // fire in journal-sequence order — so per-PG write order must hold
    // and the final state must be the LAST issued write.
    reg.install(FaultSpec::new(NODE0_FLUSH, FaultKind::Delay(Duration::from_millis(5))).times(4));
    reg.install(FaultSpec::new(NODE1_FLUSH, FaultKind::Delay(Duration::from_millis(5))).times(4));
    let handles: Vec<_> = (0..24u8)
        .map(|v| {
            client
                .write_object_async("gc_order", 0, Bytes::from(vec![v; 512]))
                .unwrap()
        })
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    let hits = reg.hits(NODE0_FLUSH) + reg.hits(NODE1_FLUSH);
    assert!(hits >= 1, "flush fault never fired");

    cluster.quiesce();
    let report = cluster.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    assert_eq!(
        client.read_object("gc_order", 0, 512).unwrap(),
        vec![23u8; 512]
    );
    cluster.shutdown();
}

#[test]
fn delayed_request_and_reply_surface_as_latency_not_errors() {
    let cluster = replicated_cluster(0x06);
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();

    // Stretch the client→OSD request and the OSD→client reply legs
    // (Delay, not Drop: `OpHandle::wait` has no client-side timeout, so a
    // dropped request would hang the test by design). The write must
    // still succeed, just slower.
    reg.install(
        FaultSpec::new(
            FaultSite::Net(NetSite::Request),
            FaultKind::Delay(Duration::from_millis(25)),
        )
        .times(1),
    );
    reg.install(
        FaultSpec::new(
            FaultSite::Net(NetSite::Reply),
            FaultKind::Delay(Duration::from_millis(25)),
        )
        .times(1),
    );
    client
        .write_object("slow_legs", 0, b"late but intact")
        .unwrap();

    assert!(
        reg.hits(FaultSite::Net(NetSite::Request)) >= 1,
        "request-leg fault never fired"
    );
    assert!(
        reg.hits(FaultSite::Net(NetSite::Reply)) >= 1,
        "reply-leg fault never fired"
    );

    cluster.quiesce();
    let report = cluster.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    assert_eq!(
        client.read_object("slow_legs", 0, 15).unwrap(),
        b"late but intact"
    );
    cluster.shutdown();
}

#[test]
fn lost_replies_surface_as_a_typed_timeout_not_a_hang() {
    let cluster = replicated_cluster(0x08);
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();
    client.set_op_timeout(Duration::from_millis(50));
    client.set_max_retries(2);

    // Every reply is lost: the write lands, but the client can never
    // learn so. Each attempt must expire and the last error must say
    // which object and op went unanswered.
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::Reply), FaultKind::Drop).forever());
    let err = client.write_object("unanswered", 0, b"x").unwrap_err();
    match &err {
        AfcError::Timeout(what) => {
            assert!(what.contains("object unanswered"), "{what}");
            assert!(what.contains("op 2"), "second attempt's op id: {what}");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert_eq!(
        reg.hits(FaultSite::Net(NetSite::Reply)),
        2,
        "one lost reply per attempt"
    );

    // The session is still usable once replies flow again.
    reg.clear();
    client.write_object("unanswered", 0, b"y").unwrap();
    cluster.shutdown();
}

/// A write that fails takes its turn in its PG's reply order like one
/// that succeeds. When the failure was replied around the order, its slot
/// was never released and every later reply of the PG was held until the
/// client timed out.
#[test]
fn failed_write_releases_its_ordered_ack_lane() {
    let cluster = Cluster::builder()
        .nodes(2)
        .osds_per_node(1)
        .replication(2)
        .pg_num(8)
        .tuning(OsdTuning {
            rep_max_resends: 1,
            ..fast_resend_tuning()
        })
        .devices(DeviceProfile::clean())
        .faults(FaultPlan::new(0x09))
        .build()
        .unwrap();
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();
    client.set_max_retries(1);
    client.set_op_timeout(Duration::from_secs(2));

    // Both the ack and the re-ack of the one resend are lost: the primary
    // gives up and fails the write typed.
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::RepAck), FaultKind::Drop).times(2));
    match client.write_object("lane", 0, b"lost").unwrap_err() {
        AfcError::Timeout(what) => assert!(what.contains("resends exhausted"), "{what}"),
        other => panic!("expected the replica-ack Timeout, got {other:?}"),
    }
    for v in 0..3u8 {
        let t0 = Instant::now();
        client.write_object("lane", 0, &[v; 4]).unwrap();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "write {v} took {took:?}");
    }
    assert_eq!(client.read_object("lane", 0, 4).unwrap(), [2u8; 4]);
    cluster.shutdown();
}

/// Objects in the same PG as `of`, named `{prefix}N`.
fn same_pg(cluster: &Cluster, of: &str, prefix: &'static str) -> impl Iterator<Item = String> {
    let map = cluster.monitor().map();
    let pool = cluster.pool();
    let pg_of = move |object: &str| {
        map.object_placement(&ObjectId::new(pool, object))
            .unwrap()
            .0
    };
    let pg = pg_of(of);
    (0..)
        .map(move |i| format!("{prefix}{i}"))
        .filter(move |o| pg_of(o) == pg)
}

/// A write whose journal record tears never replies: its commit callback
/// is dropped, and with it the write's reply slot. A later write to the
/// same PG is answered well inside its op timeout instead of waiting
/// behind that slot for good. Under both profiles.
#[test]
fn a_torn_write_holds_no_later_reply_of_its_pg() {
    let tunings = [
        ("afceph", OsdTuning::afceph()),
        ("community", OsdTuning::community()),
    ];
    for (name, tuning) in tunings {
        let cluster = Cluster::builder()
            .nodes(1)
            .osds_per_node(1)
            .replication(1)
            .pg_num(8)
            .tuning(tuning)
            .devices(DeviceProfile::clean())
            .faults(FaultPlan::new(0x0A))
            .build()
            .unwrap();
        let reg = cluster.fault_registry().unwrap().clone();
        let client = cluster.client().unwrap();
        client.set_max_retries(1);
        client.set_op_timeout(Duration::from_secs(5));
        let osd = &cluster.osds()[0];
        let torn = osd.journal().stats().torn_writes.get();
        let site = FaultSite::Journal {
            node: 0,
            io: Some(Io::Write),
        };
        reg.install(FaultSpec::new(site, FaultKind::Torn).times(1));
        let lost = client
            .write_object_async("torn", 0, Bytes::from_static(b"never"))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while osd.journal().stats().torn_writes.get() == torn {
            assert!(Instant::now() < deadline, "{name}: the record never tore");
            std::thread::sleep(Duration::from_millis(1));
        }
        for (v, object) in same_pg(&cluster, "torn", "after").take(3).enumerate() {
            let t0 = Instant::now();
            client.write_object(&object, 0, &[v as u8; 4]).unwrap();
            let took = t0.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "{name}: write {v} waited {took:?} behind a torn write"
            );
        }
        assert!(
            lost.try_wait().is_none(),
            "{name}: a torn write was answered"
        );
        osd.simulate_crash().unwrap();
        osd.replay_journal().unwrap();
        cluster.shutdown();
    }
}

/// Two clients write to one PG, alternating, each write issued once the
/// one before reached its order point, and the replies leave in PG order:
/// no write is answered before one issued ahead of it. Two faults hold the
/// first write back: a lost `Replicate`, which the replica's chain order
/// already makes every later sub-op wait for, and a `RepAck` delayed by
/// 50 ms, which nothing else orders. Under both profiles.
#[test]
fn replies_leave_in_pg_order_across_clients() {
    const WRITES: usize = 8;
    let community = OsdTuning {
        rep_resend_after_ms: 20,
        ..OsdTuning::community()
    };
    let tunings = [("afceph", fast_resend_tuning()), ("community", community)];
    let faults = [
        (NetSite::Replicate, FaultKind::Drop),
        (NetSite::RepAck, FaultKind::Delay(Duration::from_millis(50))),
    ];
    for (name, tuning) in tunings {
        for (site, kind) in faults.clone() {
            let cluster = Cluster::builder()
                .nodes(2)
                .osds_per_node(1)
                .replication(2)
                .pg_num(8)
                .tuning(tuning.clone())
                .devices(DeviceProfile::clean())
                .faults(FaultPlan::new(0x0B))
                .build()
                .unwrap();
            let reg = cluster.fault_registry().unwrap().clone();
            let clients = [cluster.client().unwrap(), cluster.client().unwrap()];
            let writes = || cluster.metrics_snapshot().site_sum("op.writes");
            reg.install(FaultSpec::new(FaultSite::Net(site), kind).times(1));
            let handles: Vec<_> = same_pg(&cluster, "pgorder", "pgorder")
                .take(WRITES)
                .enumerate()
                .map(|(i, object)| {
                    let before = writes();
                    let data = Bytes::from(vec![i as u8; 512]);
                    let h = clients[i % 2].write_object_async(&object, 0, data).unwrap();
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while writes() == before {
                        assert!(Instant::now() < deadline, "{name}: write {i} never ran");
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    h
                })
                .collect();
            // Poll in reverse issue order and note the sweep each reply is
            // first seen in, as `qos::limited_backlog_keeps_issue_order_end_to_end`
            // does.
            let mut seen_in = [0usize; WRITES];
            let mut left: Vec<usize> = (0..WRITES).rev().collect();
            let start = Instant::now();
            for sweep in 1.. {
                left.retain(|&i| match handles[i].try_wait() {
                    Some(r) => {
                        r.unwrap();
                        seen_in[i] = sweep;
                        false
                    }
                    None => true,
                });
                if left.is_empty() {
                    break;
                }
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "{name}, {site:?}: writes {left:?} unanswered"
                );
                std::thread::sleep(Duration::from_micros(200));
            }
            assert_eq!(
                reg.hits(FaultSite::Net(site)),
                1,
                "{name}: no {site:?} fault"
            );
            assert!(
                seen_in.windows(2).all(|w| w[0] <= w[1]),
                "{name}, {site:?}: replies out of PG order: {seen_in:?}"
            );
            cluster.shutdown();
        }
    }
}

/// A pipelined write, write, read on one PG. The read is ordered behind
/// both applies; without the pending queue it waits for them on the op
/// worker, holding the PG lock. Whoever queues those applies (the journal
/// finisher, the completion worker) must therefore never want that lock:
/// when it did, the second apply was never queued and the read sat out its
/// 10 s deadline and answered `Timeout` — no fault injected. Every place
/// the commit continuation can run is covered, with the read's object
/// written twice and with the first write going to a neighbour in its PG.
#[test]
fn pipelined_write_write_read_cannot_wait_on_its_own_pg_lock() {
    let afceph = OsdTuning::afceph;
    let tunings = [
        ("community", OsdTuning::community()),
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
        ("afceph", afceph()),
    ];
    for (name, tuning) in tunings {
        let cluster = Cluster::builder()
            .nodes(2)
            .osds_per_node(1)
            .replication(2)
            .pg_num(8)
            .tuning(tuning)
            .devices(DeviceProfile::clean())
            .build()
            .unwrap();
        let client = cluster.client().unwrap();
        client.set_max_retries(1);
        let map = cluster.monitor().map();
        let pg_of = |object: &str| {
            let id = ObjectId::new(cluster.pool(), object);
            map.object_placement(&id).unwrap().0
        };
        let neighbour = (0..)
            .map(|i| format!("wwr-{i}"))
            .find(|o| pg_of(o) == pg_of("wwr"))
            .unwrap();
        for first in ["wwr", &neighbour] {
            for round in 0..200u32 {
                let second = Bytes::from(vec![round as u8; 512]);
                let t0 = Instant::now();
                let w1 = client
                    .write_object_async(first, 0, Bytes::from(vec![!(round as u8); 512]))
                    .unwrap();
                let w2 = client.write_object_async("wwr", 0, second.clone()).unwrap();
                let r = client.read_object_async("wwr", 0, 512).unwrap();
                w1.wait().unwrap();
                w2.wait().unwrap();
                match r.wait() {
                    Ok(OpOutcome::Data(d)) => assert_eq!(d, second, "{name} round {round}"),
                    other => panic!("{name} round {round} after {first}: {other:?}"),
                }
                let took = t0.elapsed();
                assert!(
                    took < Duration::from_secs(1),
                    "{name} round {round} after {first} took {took:?}"
                );
            }
        }
        cluster.shutdown();
    }
}

/// A read ordered behind a write whose apply is held up parks on the
/// applied prefix — no thread waits for it — and is answered by the apply
/// thread once the apply lands: with the new bytes, never the old ones.
#[test]
fn read_behind_a_delayed_apply_parks_and_returns_the_new_bytes() {
    let cluster = Cluster::builder()
        .nodes(1)
        .osds_per_node(1)
        .replication(1)
        .pg_num(8)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .faults(FaultPlan::new(0x0a))
        .build()
        .unwrap();
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();
    client.write_object("parked", 0, b"old bytes").unwrap();
    cluster.quiesce();

    let hold = Duration::from_millis(300);
    reg.install(FaultSpec::new(OSD0_APPLY, FaultKind::Delay(hold)).times(1));
    let t0 = Instant::now();
    // Acked at the journal commit, long before its apply.
    client.write_object("parked", 0, b"new bytes").unwrap();
    assert_eq!(client.read_object("parked", 0, 9).unwrap(), b"new bytes");
    assert!(
        t0.elapsed() >= hold,
        "read answered before the apply landed"
    );
    assert_eq!(reg.hits(OSD0_APPLY), 1);
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("osd0.op.read_parks"), Some(1));
    assert_eq!(snap.counter("osd0.op.gate_timeouts"), Some(0));
    cluster.shutdown();
}

/// A failed apply pins the journal trim until replay, so a small ring
/// fills behind it for good. A submitter on that full ring parks on the
/// applied prefix like every other wait for an apply, finds that the trim
/// the prefix allows cannot make room, and fails the write `Full` at once:
/// no write waits for a trim that will not come, and shutdown is not held
/// up by one.
#[test]
fn a_ring_pinned_by_a_failed_apply_fails_writes_full_and_shuts_down() {
    const WRITES: usize = 16;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let cluster = Cluster::builder()
            .nodes(1)
            .osds_per_node(1)
            .replication(1)
            .pg_num(8)
            .tuning(OsdTuning::afceph())
            .devices(DeviceProfile::clean().with_journal_capacity(32 * KIB))
            .faults(FaultPlan::new(0x0b))
            .build()
            .unwrap();
        let reg = cluster.fault_registry().unwrap().clone();
        let client = cluster.client().unwrap();
        client.write_object("warm", 0, &[1; 4096]).unwrap();
        cluster.quiesce();
        reg.install(FaultSpec::new(OSD0_APPLY, FaultKind::Error).times(1));
        client.set_op_timeout(Duration::from_secs(2));
        client.set_max_retries(1);
        for i in 0..WRITES {
            let r = client.write_object(&format!("pinned{i}"), 0, &[2; 4096]);
            let _ = tx.send(Some(r));
        }
        cluster.shutdown();
        let _ = tx.send(None);
    });
    let mut kinds = Vec::new();
    for i in 0..WRITES {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(Some(r)) => kinds.push(r.map_err(|e| e.kind())),
            other => panic!("write {i}: no answer ({other:?})"),
        }
    }
    let ok = kinds.iter().take_while(|k| k.is_ok()).count();
    assert_eq!(ok, 7, "writes before the ring filled: {kinds:?}");
    assert!(
        kinds[ok..].iter().all(|k| *k == Err("full")),
        "a write on the pinned ring: {kinds:?}"
    );
    assert!(
        matches!(rx.recv_timeout(Duration::from_secs(10)), Ok(None)),
        "shutdown hung"
    );
}

/// Every fault site fires. A one-shot `Delay` is armed at each message
/// class, at node 0's journal, OSD 0's data device and both of its apply
/// points; writes, reads and a pause and resume of OSD 3 (peering, then a
/// recovery push) must reach every one. The list goes through an
/// exhaustive match: a new site does not compile until this case arms it.
#[test]
fn every_fault_site_fires() {
    use NetSite::*;
    let sites: Vec<FaultSite> = [Request, Reply, Replicate, RepAck, Heartbeat, Peering, Push]
        .map(FaultSite::Net)
        .into_iter()
        .chain([
            FaultSite::Journal { node: 0, io: None },
            FaultSite::Data { osd: 0, io: None },
            FaultSite::Apply {
                osd: 0,
                point: ApplyPoint::Apply,
            },
            FaultSite::Apply {
                osd: 0,
                point: ApplyPoint::MidApply,
            },
        ])
        .collect();
    for site in &sites {
        // A device site with no verb covers all its I/O.
        match site {
            FaultSite::Net(Request | Reply | Replicate | RepAck | Heartbeat | Peering | Push)
            | FaultSite::Journal { .. }
            | FaultSite::Data { .. }
            | FaultSite::Apply {
                point: ApplyPoint::Apply | ApplyPoint::MidApply,
                ..
            } => {}
        }
    }

    let c = Cluster::builder()
        .nodes(2)
        .osds_per_node(2)
        .replication(2)
        .pg_num(16)
        .tuning(OsdTuning {
            rep_resend_after_ms: 20,
            rep_max_resends: 2,
            heartbeat_grace_ms: 40,
            ..OsdTuning::afceph().with_heartbeats(5)
        })
        .devices(DeviceProfile::clean())
        .faults(FaultPlan::new(0x0c))
        .build()
        .unwrap();
    let reg = c.fault_registry().unwrap().clone();
    for &site in &sites {
        reg.install(FaultSpec::new(
            site,
            FaultKind::Delay(Duration::from_millis(2)),
        ));
    }
    let client = c.client().unwrap();
    client.set_op_timeout(Duration::from_millis(400));
    client.set_max_retries(24);
    let unfired = || -> Vec<String> {
        let unfired = sites.iter().filter(|&&site| reg.hits(site) == 0);
        unfired.map(ToString::to_string).collect()
    };
    let wait = |cond: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    for i in 0..8 {
        client.write_object(&format!("pre{i}"), 0, b"v1").unwrap();
        assert_eq!(client.read_object(&format!("pre{i}"), 0, 2).unwrap(), b"v1");
    }
    let victim = afc_common::OsdId(3);
    c.osd(victim).unwrap().pause();
    wait(&|| !c.monitor().map().osd_status(victim).up);
    assert!(
        !c.monitor().map().osd_status(victim).up,
        "{victim} never went down"
    );
    for i in 0..12 {
        let object = format!("owed{i}");
        if let Err(e) = client.write_object(&object, 0, b"v2") {
            panic!("degraded write of {object} failed: {e}");
        }
    }
    c.osd(victim).unwrap().resume();
    wait(&|| unfired().is_empty());
    assert_eq!(unfired(), Vec::<String>::new(), "sites that never fired");
    c.shutdown();
}
