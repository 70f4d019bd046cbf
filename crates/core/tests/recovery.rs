//! Self-healing loop, end to end: heartbeat failure detection, epoch-driven
//! peering, degraded writes, recovery pushes, mark-out backfill.
//!
//! Every test pins its fault-plan seed, so failures replay exactly. The
//! invariant under test throughout: **no acked write is ever lost** — not
//! during degraded operation, not across recovery, not across primary
//! handoffs.

use afc_common::{FaultKind, FaultPlan, FaultSite, FaultSpec, NetSite, OsdId, PgId};
use afc_core::{Cluster, DeviceProfile, FailureConfig, OsdTuning, RadosClient};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggressive timers so detection + recovery converge in test time.
fn hb_tuning() -> OsdTuning {
    OsdTuning {
        rep_resend_after_ms: 20,
        rep_max_resends: 2,
        heartbeat_grace_ms: 40,
        ..OsdTuning::afceph().with_heartbeats(5)
    }
}

fn hb_cluster(seed: u64) -> Cluster {
    Cluster::builder()
        .nodes(2)
        .osds_per_node(2)
        .replication(2)
        .pg_num(16)
        .tuning(hb_tuning())
        .devices(DeviceProfile::clean())
        .faults(FaultPlan::new(seed))
        .seed(seed)
        .build()
        .unwrap()
}

/// A client that abandons attempts quickly (ops to a dead OSD would
/// otherwise wait forever) and retries generously.
fn impatient_client(c: &Cluster) -> Arc<RadosClient> {
    let client = c.client().unwrap();
    client.set_op_timeout(Duration::from_millis(400));
    client.set_max_retries(24);
    client
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(cond(), "timed out waiting for: {what}");
}

/// Cluster-wide convergence: every PG health gauge back to zero and no
/// lingering `pg_temp` override.
fn wait_converged(c: &Cluster) {
    wait_until("cluster convergence", Duration::from_secs(20), || {
        let snap = c.metrics_snapshot();
        let busy: i64 = c
            .osds()
            .iter()
            .map(|o| {
                let n = o.id().0;
                snap.gauge(&format!("osd{n}.recovery.pgs_degraded"))
                    .unwrap_or(0)
                    + snap
                        .gauge(&format!("osd{n}.recovery.pgs_recovering"))
                        .unwrap_or(0)
                    + snap
                        .gauge(&format!("osd{n}.peering.pgs_peering"))
                        .unwrap_or(0)
            })
            .sum();
        let map = c.monitor().map();
        let temps = (0..16).any(|seq| {
            map.pg_temp(PgId {
                pool: c.pool(),
                seq,
            })
            .is_some()
        });
        busy == 0 && !temps
    });
}

fn counter_sum(c: &Cluster, suffix: &str) -> u64 {
    let snap = c.metrics_snapshot();
    c.osds()
        .iter()
        .map(|o| {
            snap.counter(&format!("osd{}.{suffix}", o.id().0))
                .unwrap_or(0)
        })
        .sum()
}

#[test]
fn kill_one_osd_mid_workload_loses_no_acked_writes() {
    let c = hb_cluster(0x71);
    let client = impatient_client(&c);

    for i in 0..24 {
        client.write_object(&format!("pre{i}"), 0, b"v1").unwrap();
    }
    // Kill the primary of pre0 (a pause models a crashed process: it stops
    // answering anything, including heartbeats).
    let obj = afc_common::ObjectId::new(c.pool(), "pre0");
    let (_, acting) = c.monitor().map().object_placement(&obj).unwrap();
    let victim = acting[0];
    c.osd(victim).unwrap().pause();

    // Writes issued across the detection window must all eventually ack
    // (client retries bridge the gap) — these are the acked writes whose
    // survival the rest of the test audits.
    for i in 0..24 {
        client.write_object(&format!("mid{i}"), 0, b"v2").unwrap();
    }
    wait_until("victim marked down", Duration::from_secs(10), || {
        !c.monitor().map().osd_status(victim).up
    });
    for i in 0..24 {
        client.write_object(&format!("post{i}"), 0, b"v3").unwrap();
    }

    // Degraded mode: everything acked is readable with one replica down.
    for i in 0..24 {
        assert_eq!(client.read_object(&format!("pre{i}"), 0, 2).unwrap(), b"v1");
        assert_eq!(client.read_object(&format!("mid{i}"), 0, 2).unwrap(), b"v2");
        assert_eq!(
            client.read_object(&format!("post{i}"), 0, 2).unwrap(),
            b"v3"
        );
    }
    assert!(
        counter_sum(&c, "hb.reports") >= 1,
        "nobody reported the dead OSD"
    );
    assert!(
        counter_sum(&c, "peering.rounds") >= 1,
        "no peering round ran"
    );

    // Revive: the OSD reasserts liveness, peers, and is backfilled with
    // everything it missed; the pg_temp handoff returns primaryship.
    c.osd(victim).unwrap().resume();
    wait_until("victim marked up", Duration::from_secs(10), || {
        c.monitor().map().osd_status(victim).up
    });
    wait_converged(&c);

    assert!(
        counter_sum(&c, "recovery.pushes") >= 1,
        "recovery never pushed anything"
    );
    c.quiesce();
    let report = c.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    for i in 0..24 {
        assert_eq!(client.read_object(&format!("pre{i}"), 0, 2).unwrap(), b"v1");
        assert_eq!(client.read_object(&format!("mid{i}"), 0, 2).unwrap(), b"v2");
        assert_eq!(
            client.read_object(&format!("post{i}"), 0, 2).unwrap(),
            b"v3"
        );
    }
    c.shutdown();
}

#[test]
fn flapping_osd_converges_without_duplicate_applies() {
    let c = hb_cluster(0x72);
    let client = impatient_client(&c);

    for i in 0..16 {
        client
            .write_object(&format!("flap{i}"), 0, b"stable")
            .unwrap();
    }
    let victim = OsdId(1);

    // Cycle 1: down with writes in flight, then back.
    c.osd(victim).unwrap().pause();
    wait_until("victim down (1)", Duration::from_secs(10), || {
        !c.monitor().map().osd_status(victim).up
    });
    for i in 0..8 {
        client
            .write_object(&format!("during{i}"), 0, b"cycle1")
            .unwrap();
    }
    c.osd(victim).unwrap().resume();
    wait_until("victim up (1)", Duration::from_secs(10), || {
        c.monitor().map().osd_status(victim).up
    });
    wait_converged(&c);
    c.quiesce();

    // Cycle 2: an idle flap — nothing written while down, so convergence
    // must not replay or re-apply anything.
    let applies_before = c.metrics_snapshot().site_sum("fs.txns_applied");
    c.osd(victim).unwrap().pause();
    wait_until("victim down (2)", Duration::from_secs(10), || {
        !c.monitor().map().osd_status(victim).up
    });
    c.osd(victim).unwrap().resume();
    wait_until("victim up (2)", Duration::from_secs(10), || {
        c.monitor().map().osd_status(victim).up
    });
    wait_converged(&c);
    c.quiesce();
    let applies_after = c.metrics_snapshot().site_sum("fs.txns_applied");
    assert_eq!(
        applies_before, applies_after,
        "an idle flap must not re-apply anything"
    );

    let report = c.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    for i in 0..16 {
        assert_eq!(
            client.read_object(&format!("flap{i}"), 0, 6).unwrap(),
            b"stable"
        );
    }
    for i in 0..8 {
        assert_eq!(
            client.read_object(&format!("during{i}"), 0, 6).unwrap(),
            b"cycle1"
        );
    }
    c.shutdown();
}

#[test]
fn dropped_heartbeats_within_grace_cause_no_false_positive() {
    let c = hb_cluster(0x73);
    let reg = c.fault_registry().unwrap().clone();
    let client = impatient_client(&c);

    // Lose a handful of pings: well within the grace budget, so nobody
    // may be accused.
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::Heartbeat), FaultKind::Drop).times(3));
    client.write_object("hb", 0, b"steady").unwrap();
    std::thread::sleep(Duration::from_millis(150));
    assert!(
        reg.hits(FaultSite::Net(NetSite::Heartbeat)) >= 3,
        "fault never fired"
    );
    let map = c.monitor().map();
    for osd in c.osds() {
        assert!(
            map.osd_status(osd.id()).up,
            "{} was falsely marked down",
            osd.id()
        );
    }
    assert_eq!(client.read_object("hb", 0, 6).unwrap(), b"steady");
    c.shutdown();
}

#[test]
fn peering_completes_despite_dropped_info_messages() {
    let c = hb_cluster(0x74);
    let reg = c.fault_registry().unwrap().clone();
    let client = impatient_client(&c);

    for i in 0..12 {
        client
            .write_object(&format!("peer{i}"), 0, b"kept")
            .unwrap();
    }
    let victim = OsdId(2);
    c.osd(victim).unwrap().pause();
    wait_until("victim down", Duration::from_secs(10), || {
        !c.monitor().map().osd_status(victim).up
    });
    // The post-resume peering traffic loses messages; the per-tick
    // re-query must still drive every round to completion.
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::Peering), FaultKind::Drop).times(2));
    c.osd(victim).unwrap().resume();
    wait_until("victim up", Duration::from_secs(10), || {
        c.monitor().map().osd_status(victim).up
    });
    wait_converged(&c);
    assert!(
        reg.hits(FaultSite::Net(NetSite::Peering)) >= 1,
        "fault never fired"
    );

    c.quiesce();
    let report = c.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    for i in 0..12 {
        assert_eq!(
            client.read_object(&format!("peer{i}"), 0, 4).unwrap(),
            b"kept"
        );
    }
    c.shutdown();
}

#[test]
fn dropped_recovery_push_is_requeued_with_fresh_data() {
    let c = hb_cluster(0x75);
    let reg = c.fault_registry().unwrap().clone();
    let client = impatient_client(&c);

    let victim = OsdId(3);
    c.osd(victim).unwrap().pause();
    wait_until("victim down", Duration::from_secs(10), || {
        !c.monitor().map().osd_status(victim).up
    });
    // Degraded writes accumulate in the survivors' peer_missing ledgers.
    for i in 0..12 {
        client
            .write_object(&format!("owed{i}"), 0, b"deferred")
            .unwrap();
    }
    // First recovery push is lost: the push-wait timer must requeue the
    // object and push fresh bytes (never a verbatim resend).
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::Push), FaultKind::Drop).times(1));
    c.osd(victim).unwrap().resume();
    wait_until("victim up", Duration::from_secs(10), || {
        c.monitor().map().osd_status(victim).up
    });
    wait_converged(&c);
    assert!(
        reg.hits(FaultSite::Net(NetSite::Push)) >= 1,
        "fault never fired"
    );
    assert!(
        counter_sum(&c, "recovery.requeues") >= 1,
        "lost push was never requeued"
    );

    c.quiesce();
    let report = c.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    for i in 0..12 {
        assert_eq!(
            client.read_object(&format!("owed{i}"), 0, 8).unwrap(),
            b"deferred"
        );
    }
    c.shutdown();
}

#[test]
fn duplicated_recovery_push_installs_the_same_bytes() {
    let c = hb_cluster(0x79);
    let reg = c.fault_registry().unwrap().clone();
    let client = impatient_client(&c);

    let victim = OsdId(3);
    c.osd(victim).unwrap().pause();
    wait_until("victim down", Duration::from_secs(10), || {
        !c.monitor().map().osd_status(victim).up
    });
    for i in 0..12 {
        client
            .write_object(&format!("twin{i}"), 0, b"deferred")
            .unwrap();
    }
    // A recovery push arrives twice. Pushes are not chained like
    // `Replicate`s: the copy, right behind the original, installs the
    // same full object again, and the second ack finds no wait.
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::Push), FaultKind::Duplicate).times(1));
    c.osd(victim).unwrap().resume();
    wait_until("victim up", Duration::from_secs(10), || {
        c.monitor().map().osd_status(victim).up
    });
    wait_converged(&c);
    assert!(
        reg.hits(FaultSite::Net(NetSite::Push)) >= 1,
        "fault never fired"
    );
    assert_eq!(c.metrics_snapshot().counter("net.duplicated"), Some(1));

    c.quiesce();
    let report = c.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    for i in 0..12 {
        assert_eq!(
            client.read_object(&format!("twin{i}"), 0, 8).unwrap(),
            b"deferred"
        );
    }
    c.shutdown();
}

#[test]
fn marked_out_osd_triggers_backfill_onto_replacement() {
    // 3 hosts × 1 OSD, size 2: each PG lives on 2 of the 3 OSDs, so when
    // one is marked out, CRUSH re-homes its PGs onto the third and
    // backfill must rebuild redundancy there.
    let c = Cluster::builder()
        .nodes(3)
        .osds_per_node(1)
        .replication(2)
        .pg_num(16)
        .tuning(hb_tuning())
        .devices(DeviceProfile::clean())
        .faults(FaultPlan::new(0x76))
        .seed(0x76)
        .failure_config(FailureConfig {
            min_reporters: 1,
            mark_out_after: Some(Duration::from_millis(150)),
        })
        .build()
        .unwrap();
    let client = impatient_client(&c);

    for i in 0..24 {
        client
            .write_object(&format!("bf{i}"), 0, b"replicate-me")
            .unwrap();
    }
    let victim = OsdId(0);
    c.osd(victim).unwrap().pause();
    wait_until("victim marked out", Duration::from_secs(10), || {
        let st = c.monitor().map().osd_status(victim);
        !st.up && !st.in_cluster
    });

    // Convergence here means: every PG re-peered onto the survivors and
    // backfill copied the out OSD's share onto its replacement.
    wait_until("post-out convergence", Duration::from_secs(20), || {
        let snap = c.metrics_snapshot();
        c.osds()
            .iter()
            .filter(|o| o.id() != victim)
            .map(|o| {
                let n = o.id().0;
                snap.gauge(&format!("osd{n}.recovery.pgs_degraded"))
                    .unwrap_or(0)
                    + snap
                        .gauge(&format!("osd{n}.recovery.pgs_recovering"))
                        .unwrap_or(0)
                    + snap
                        .gauge(&format!("osd{n}.peering.pgs_peering"))
                        .unwrap_or(0)
            })
            .sum::<i64>()
            == 0
    });
    assert!(
        counter_sum(&c, "recovery.pushes") >= 1,
        "backfill never pushed anything"
    );

    // Every object now has two live replicas among the survivors; the
    // paused OSD is gone from every acting set.
    c.quiesce();
    let map = c.monitor().map();
    for seq in 0..16 {
        let acting = map
            .pg_placement(PgId {
                pool: c.pool(),
                seq,
            })
            .unwrap()
            .acting;
        assert!(!acting.contains(&victim), "pg {seq} still names the victim");
        assert_eq!(acting.len(), 2, "pg {seq} redundancy not restored");
    }
    let report = c.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
    for i in 0..24 {
        assert_eq!(
            client.read_object(&format!("bf{i}"), 0, 12).unwrap(),
            b"replicate-me"
        );
    }
    c.shutdown();
}

#[test]
fn stale_map_write_gets_typed_not_primary_reject() {
    // Heartbeats off: topology is frozen, so a deliberately misdirected op
    // exercises the typed reject without the healing loop interfering.
    let c = Cluster::builder()
        .nodes(2)
        .osds_per_node(1)
        .replication(2)
        .pg_num(8)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .build()
        .unwrap();
    let client = c.client().unwrap();
    client.write_object("routed", 0, b"ok").unwrap();

    // Force a remap: the old primary of this object must now reject with
    // NotPrimary, and the client's refresh/retry loop must land the op.
    let obj = afc_common::ObjectId::new(c.pool(), "routed");
    let (_, acting) = c.monitor().map().object_placement(&obj).unwrap();
    c.monitor().mark_down(acting[0]);
    client.write_object("routed", 0, b"v2").unwrap();
    assert_eq!(client.read_object("routed", 0, 2).unwrap(), b"v2");
    c.shutdown();
}
