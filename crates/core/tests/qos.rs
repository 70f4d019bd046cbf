//! End-to-end per-volume QoS: tagged client ops flow through the OSD-side
//! scheduler, the metric taxonomy appears in the cluster snapshot, ceilings
//! hold, and a reserved tenant's ops are served from its reservation under
//! noisy neighbors.
//!
//! Wall-clock-dependent assertions here are deliberately generous (these
//! run in debug CI on a loaded box); the tight policy properties are
//! covered by the synthetic-clock unit tests in `afc_core::qos`, and the
//! protected tenant's p99 by the release-mode `baseline --write-qos` run.

use afc_core::{Cluster, DeviceProfile, OsdTuning, QosSpec, RbdImage};
use afc_workload::{JobSpec, Rw, Tenant};
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

const IMAGE_SIZE: u64 = 8 * afc_common::MIB;

/// The rate-ceiling test is meaningless while sibling tests hog the box
/// with their own clusters; every test here takes this lock so the
/// timing-sensitive ones always run against a quiet machine.
static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

fn qos_cluster() -> Cluster {
    Cluster::builder()
        .nodes(2)
        .osds_per_node(2)
        .replication(2)
        .pg_num(32)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .build()
        .unwrap()
}

#[test]
fn tagged_ops_reach_the_scheduler_and_metrics() {
    let _serial = SERIAL.lock();
    let cluster = qos_cluster();
    let client = cluster.open_volume(QosSpec::new(500, 0, 0)).unwrap();
    assert_eq!(client.qos_tag().volume, afc_common::VolumeId(1));
    for i in 0..50 {
        client
            .write_object(&format!("o{}", i % 8), 0, b"payload")
            .unwrap();
    }
    cluster.quiesce();
    let snap = cluster.metrics_snapshot();
    let sum = |name: &str| -> u64 {
        (0..cluster.osds().len())
            .map(|n| snap.counter(&format!("osd{n}.qos.{name}")).unwrap_or(0))
            .sum()
    };
    // Every client op (primary side) was enqueued and billed to vol1.
    assert!(sum("enqueued") >= 50, "enqueued={}", sum("enqueued"));
    assert!(
        sum("vol1.enqueued") >= 50,
        "vol1.enqueued={}",
        sum("vol1.enqueued")
    );
    // A volume with a floor and no contention is served at reservation.
    assert!(sum("served_reservation") > 0);
    assert_eq!(
        sum("served_reservation") + sum("served_weight"),
        sum("enqueued"),
        "every enqueued op is dispatched by exactly one phase"
    );
    // The per-volume queue-wait histogram is live in the same snapshot.
    let hist_count: u64 = (0..cluster.osds().len())
        .filter_map(|n| snap.histogram(&format!("osd{n}.qos.vol1.queue_wait")))
        .map(|h| h.count)
        .sum();
    assert!(hist_count >= 50, "queue_wait count={hist_count}");
    cluster.shutdown();
}

#[test]
fn untagged_clients_bill_to_the_shared_volume() {
    let _serial = SERIAL.lock();
    let cluster = qos_cluster();
    let client = cluster.client().unwrap();
    for i in 0..20 {
        client.write_object(&format!("u{i}"), 0, b"x").unwrap();
    }
    cluster.quiesce();
    let snap = cluster.metrics_snapshot();
    let vol0: u64 = (0..cluster.osds().len())
        .map(|n| {
            snap.counter(&format!("osd{n}.qos.vol0.enqueued"))
                .unwrap_or(0)
        })
        .sum();
    assert!(vol0 >= 20, "vol0.enqueued={vol0}");
    cluster.shutdown();
}

#[test]
fn max_iops_ceiling_holds_end_to_end() {
    let _serial = SERIAL.lock();
    let cluster = qos_cluster();
    // 100 IOPS ceiling, burst 4: 60 writes need ≥ ~0.5 s of token refill.
    let client = cluster.open_volume(QosSpec::new(0, 100, 4)).unwrap();
    let start = Instant::now();
    for i in 0..60 {
        client
            .write_object("capped", (i as u64) * 4096, b"z")
            .unwrap();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(300),
        "60 writes at 100 IOPS finished in {elapsed:?} — limit not enforced"
    );
    cluster.quiesce();
    let snap = cluster.metrics_snapshot();
    let limited: u64 = (0..cluster.osds().len())
        .map(|n| {
            snap.counter(&format!("osd{n}.qos.vol1.limited"))
                .unwrap_or(0)
        })
        .sum();
    assert!(limited > 0, "limit bucket never throttled");
    cluster.shutdown();
}

/// 64 overwrites of one object pipelined on a 100-IOPS volume with a
/// burst of 4: the first ops are admitted by the messenger thread that
/// receives them, the rest wait behind the empty bucket for an op worker.
/// Both paths keep one order: the scheduler serves every op it queued, the
/// last write wins, and the replies, which leave in their PG's order,
/// arrive in issue order.
#[test]
fn limited_backlog_keeps_issue_order_end_to_end() {
    const WRITES: usize = 64;
    let _serial = SERIAL.lock();
    let cluster = qos_cluster();
    let client = cluster.open_volume(QosSpec::new(0, 100, 4)).unwrap();
    let start = Instant::now();
    let handles: Vec<_> = (0..WRITES)
        .map(|v| {
            client
                .write_object_async("burst", 0, Bytes::from(vec![v as u8; 512]))
                .unwrap()
        })
        .collect();
    // Poll in reverse issue order and note the sweep each reply is first
    // seen in: a later write seen in an earlier sweep than an earlier one
    // was answered strictly before it.
    let mut seen_in = [0usize; WRITES];
    let mut left: Vec<usize> = (0..WRITES).rev().collect();
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
        // An op the backlog strands is never answered: fail, not hang.
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "writes {left:?} unanswered after 20 s"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed = start.elapsed();
    assert_eq!(
        client.read_object("burst", 0, 512).unwrap(),
        vec![WRITES as u8 - 1; 512],
        "the last write lost"
    );
    assert!(
        seen_in.windows(2).all(|w| w[0] <= w[1]),
        "replies out of issue order: {seen_in:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(500),
        "{WRITES} writes at 100 IOPS finished in {elapsed:?}"
    );
    let snap = cluster.metrics_snapshot();
    let sum = |name: &str| -> u64 {
        (0..cluster.osds().len())
            .map(|n| snap.counter(&format!("osd{n}.{name}")).unwrap_or(0))
            .sum()
    };
    assert!(sum("qos.vol1.limited") > 0, "limit bucket never throttled");
    assert_eq!(
        sum("qos.served_reservation") + sum("qos.served_weight"),
        sum("qos.enqueued")
    );
    let (fast, ops) = (sum("op.fast_dispatches"), sum("op.client_ops"));
    assert!(
        fast > 0 && fast < ops,
        "{fast} of {ops} ops admitted on the messenger thread"
    );
    cluster.shutdown();
}

/// Two volumes write to one PG, one held at a 10-IOPS limit with a
/// backlog of 20 writes (two seconds of tokens). A write takes its PG's
/// reply slot at the order point, not on arrival, so the unlimited
/// volume's writes, admitted ahead of that backlog, are answered without
/// waiting for it. Under both profiles (Community with QoS on).
#[test]
fn a_limited_backlog_holds_no_other_volumes_replies_in_its_pg() {
    const BACKLOG: usize = 20;
    let _serial = SERIAL.lock();
    let afceph = OsdTuning::afceph();
    let community = OsdTuning {
        qos_enabled: true,
        ..OsdTuning::community()
    };
    for (name, tuning) in [("afceph", afceph), ("community", community)] {
        let cluster = Cluster::builder()
            .nodes(2)
            .osds_per_node(2)
            .replication(2)
            .pg_num(32)
            .tuning(tuning)
            .devices(DeviceProfile::clean())
            .build()
            .unwrap();
        let map = cluster.monitor().map();
        let pg_of = |object: &str| {
            let id = afc_common::ObjectId::new(cluster.pool(), object);
            map.object_placement(&id).unwrap().0
        };
        let pg = pg_of("held0");
        let mut names = (0..).map(|i| format!("free{i}")).filter(|o| pg_of(o) == pg);
        let limited = cluster.open_volume(QosSpec::new(0, 10, 1)).unwrap();
        let free = cluster.open_volume(QosSpec::new(0, 0, 0)).unwrap();
        let backlog: Vec<_> = (0..BACKLOG)
            .map(|v| {
                let data = Bytes::from(vec![v as u8; 512]);
                limited.write_object_async("held0", 0, data).unwrap()
            })
            .collect();
        for v in 0..5u8 {
            let object = names.next().unwrap();
            let t0 = Instant::now();
            free.write_object(&object, 0, &[v; 512]).unwrap();
            let took = t0.elapsed();
            assert!(
                took < Duration::from_millis(500),
                "{name}: write {v} waited {took:?} behind another volume's backlog"
            );
        }
        let mut backlog = backlog;
        let unanswered =
            |h: &afc_core::client::rados::OpHandle| h.try_wait().map(|r| r.unwrap()).is_none();
        backlog.retain(unanswered);
        assert!(
            !backlog.is_empty(),
            "{name}: the backlog drained before the other volume wrote"
        );
        let deadline = Instant::now() + Duration::from_secs(20);
        while !backlog.is_empty() {
            assert!(Instant::now() < deadline, "{name}: the backlog stranded");
            std::thread::sleep(Duration::from_millis(1));
            backlog.retain(unanswered);
        }
        cluster.shutdown();
    }
}

#[test]
fn reserved_tenant_keeps_latency_under_noisy_neighbors() {
    // Seed-pinned fairness check, the same shape as the qos bench but
    // smoke-sized. The protected tenant holds a floor; four untagged
    // neighbors flood the same cluster. Counts only: the calibrated p99
    // claim needs a release build and a longer window, and is gated by
    // `baseline --check-qos` (check.sh step 9).
    let _serial = SERIAL.lock();
    let window = Duration::from_millis(400);
    let cluster = qos_cluster();
    let prot_client = cluster.open_volume(QosSpec::new(800, 0, 0)).unwrap();
    let prot_img = Arc::new(RbdImage::new(prot_client, "prot", IMAGE_SIZE).unwrap());
    let noisy_imgs: Vec<Arc<RbdImage>> = (0..4)
        .map(|i| {
            Arc::new(
                cluster
                    .create_image(&format!("noisy{i}"), IMAGE_SIZE)
                    .unwrap(),
            )
        })
        .collect();
    let mut tenants = vec![Tenant::new(
        JobSpec::new(Rw::RandWrite)
            .bs(4096)
            .iodepth(1)
            .runtime(window)
            .seed(0x0905)
            .label("protected"),
        prot_img.as_ref(),
    )];
    for (i, img) in noisy_imgs.iter().enumerate() {
        tenants.push(Tenant::new(
            JobSpec::new(Rw::RandWrite)
                .bs(4096)
                .iodepth(4)
                .runtime(window)
                .seed(0xb05e ^ ((i as u64) << 8))
                .label(format!("noisy{i}")),
            img.as_ref(),
        ));
    }
    let reports = afc_workload::run_tenants(&tenants);
    let snap = cluster.metrics_snapshot();
    let sum = |name: &str| -> u64 {
        (0..cluster.osds().len())
            .map(|n| snap.counter(&format!("osd{n}.qos.{name}")).unwrap_or(0))
            .sum()
    };
    let (reserved, vol1_reserved, vol1_enqueued) = (
        sum("served_reservation"),
        sum("vol1.served_reservation"),
        sum("vol1.enqueued"),
    );
    cluster.shutdown();

    let noisy_ops: u64 = reports[1..].iter().map(|r| r.ops).sum();
    eprintln!(
        "qos fairness: vol1 {vol1_reserved} of {vol1_enqueued} ops served from the reservation, protected {} noisy {noisy_ops}",
        reports[0].ops
    );
    // The floor actually engaged, and only for the volume that has one…
    assert!(
        reserved > 0,
        "no reservation-phase dispatches under contention"
    );
    assert_eq!(vol1_reserved, reserved, "only vol1 holds a reservation");
    // …it carried the protected volume's ops rather than leaving them to
    // compete by weight with the flood…
    assert!(
        vol1_reserved * 2 >= vol1_enqueued,
        "reservation served {vol1_reserved} of vol1's {vol1_enqueued} ops"
    );
    // …and nobody starved.
    assert!(reports[0].ops > 0, "protected tenant did no work");
    assert!(noisy_ops > 0, "noisy tenants starved");
}
