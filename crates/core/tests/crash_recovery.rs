//! Crash-recovery harness: deterministic fault injection at three named
//! crash points, each followed by `Osd::simulate_crash` + journal replay
//! and a read-back consistency check.
//!
//! Crash points (see DESIGN.md "Fault model & recovery"):
//! - **A. journal pre-commit**: the journal device tears the entry write.
//!   The op is never acked, and replay truncates the torn tail — the
//!   object must not exist after recovery.
//! - **B. post-commit / pre-apply**: the filestore rejects every apply.
//!   The op *was* acked off the journal commit, so after crash + replay
//!   the data must be readable.
//! - **C. mid-apply**: the filestore fails between ops of a transaction,
//!   leaving partial state. Replay re-applies the whole transaction.
//!
//! Every scenario ends by replaying a second time and asserting a no-op
//! (replay idempotence), and scenario C runs twice from the same seed to
//! pin determinism.

use afc_common::faults::{ApplyPoint, Io};
use afc_common::{AfcError, FaultKind, FaultPlan, FaultSite, FaultSpec};
use afc_core::{Cluster, DeviceProfile, OsdTuning};
use bytes::Bytes;
use std::time::{Duration, Instant};

/// Single OSD, no replication: crash points are local to the one journal
/// + filestore pair, so read-back verdicts are unambiguous.
fn one_osd_cluster(seed: u64) -> Cluster {
    Cluster::builder()
        .nodes(1)
        .osds_per_node(1)
        .replication(1)
        .pg_num(8)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .faults(FaultPlan::new(seed))
        .build()
        .unwrap()
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn crash_point_a_torn_journal_tail_never_surfaces() {
    let cluster = one_osd_cluster(0xA11);
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();

    for i in 0..4 {
        client
            .write_object(&format!("base{i}"), 0, b"stable")
            .unwrap();
    }
    cluster.quiesce();

    // Tear the next journal entry write on the node's NVRAM card.
    reg.install(FaultSpec::new(
        FaultSite::Journal {
            node: 0,
            io: Some(Io::Write),
        },
        FaultKind::Torn,
    ));
    let osd = &cluster.osds()[0];
    let handle = client
        .write_object_async("torn_obj", 0, Bytes::from_static(b"never"))
        .unwrap();
    wait_until("torn journal write", || {
        osd.journal().stats().torn_writes.get() >= 1
    });
    assert!(
        handle.try_wait().is_none(),
        "a torn journal write must never be acked to the client"
    );
    reg.clear();

    osd.simulate_crash().unwrap();
    osd.replay_journal().unwrap();

    // The torn entry was truncated, not replayed as garbage — and declared
    // void: its PG's `last_jseq` still names it, so a read that kept
    // waiting for its apply would come back `Timeout` after 10 s.
    let err = client.read_object("torn_obj", 0, 5).unwrap_err();
    assert!(
        matches!(err, AfcError::NotFound(_)),
        "torn-tail object must not exist after recovery, got {err:?}"
    );
    for i in 0..4 {
        assert_eq!(
            client.read_object(&format!("base{i}"), 0, 6).unwrap(),
            b"stable",
            "committed prefix lost in recovery"
        );
    }
    assert_eq!(
        osd.replay_journal().unwrap(),
        0,
        "replay must be idempotent"
    );

    // The truncated sequence must not leave a hole in the applied prefix:
    // everything written from here on applies, so the journal trims to
    // empty instead of filling up behind an apply that will never come.
    for i in 0..50 {
        client
            .write_object(&format!("after{i}"), 0, &[i as u8; 4096])
            .unwrap();
    }
    cluster.quiesce();
    assert_eq!(
        osd.journal().used_fraction(),
        0.0,
        "journal stopped trimming after torn-tail recovery"
    );
    cluster.shutdown();
}

#[test]
fn crash_point_b_acked_write_survives_apply_failure() {
    let cluster = one_osd_cluster(0xB22);
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();
    let osd = &cluster.osds()[0];

    // Every apply fails, but journal commits still ack the client.
    reg.install(
        FaultSpec::new(
            FaultSite::Apply {
                osd: 0,
                point: ApplyPoint::Apply,
            },
            FaultKind::Error,
        )
        .forever(),
    );
    client.write_object("obj_b", 0, b"acked-data").unwrap();
    wait_until("apply failure", || {
        cluster.metrics_snapshot().counter("osd0.op.apply_failures") >= Some(1)
    });
    reg.clear();

    osd.simulate_crash().unwrap();
    let replayed = osd.replay_journal().unwrap();
    assert!(
        replayed >= 1,
        "journal entry for the acked write must replay"
    );
    assert_eq!(
        client.read_object("obj_b", 0, 10).unwrap(),
        b"acked-data",
        "acked write lost across crash"
    );
    assert_eq!(
        osd.replay_journal().unwrap(),
        0,
        "replay must be idempotent"
    );
    cluster.shutdown();
}

/// Run crash point C once; return (replay count, recovered bytes, hits).
fn run_crash_point_c(seed: u64) -> (usize, Vec<u8>, u64) {
    let cluster = one_osd_cluster(seed);
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();
    let osd = &cluster.osds()[0];

    reg.install(
        FaultSpec::new(
            FaultSite::Apply {
                osd: 0,
                point: ApplyPoint::MidApply,
            },
            FaultKind::Error,
        )
        .times(1),
    );
    client
        .write_object("obj_c", 0, b"partially-applied")
        .unwrap();
    wait_until("mid-apply failure", || {
        cluster.metrics_snapshot().counter("osd0.op.apply_failures") >= Some(1)
    });
    reg.clear();

    osd.simulate_crash().unwrap();
    let replayed = osd.replay_journal().unwrap();
    assert!(replayed >= 1);
    let data = client.read_object("obj_c", 0, 17).unwrap();
    assert_eq!(
        osd.replay_journal().unwrap(),
        0,
        "replay must be idempotent"
    );
    let hits = reg.total_hits();
    cluster.shutdown();
    (replayed, data, hits)
}

#[test]
fn crash_point_c_mid_apply_recovers_and_is_deterministic() {
    let first = run_crash_point_c(0xC33);
    assert_eq!(first.1, b"partially-applied");
    // Same seed, same schedule, same outcome: the harness is reproducible.
    let second = run_crash_point_c(0xC33);
    assert_eq!(first, second, "same seed must give identical recovery");
}
