//! One transaction per write: the primary builds and encodes a write's
//! filestore transaction once, and its `Replicate` carries both, so the
//! replica's journal record holds the very buffer the primary journaled
//! (same address, same length) and builds nothing. A recovery push is
//! the exception: it carries the object's bytes, and the replica builds
//! and encodes an install transaction of its own.
//!
//! A `Delay` at each OSD's first filestore apply holds its lane, so no
//! record is trimmed before the test reads the journals' crash images.

use afc_common::faults::ApplyPoint;
use afc_common::{FaultKind, FaultPlan, FaultSite, FaultSpec, ObjectId, OsdId};
use afc_core::{Cluster, DeviceProfile, OsdTuning};
use afc_filestore::{Transaction, TxOp};
use afc_journal::JournalEntry;
use std::time::{Duration, Instant};

/// How long the first apply on an OSD is held.
const HOLD: Duration = Duration::from_secs(2);

fn profiles() -> [OsdTuning; 2] {
    [OsdTuning::afceph(), OsdTuning::community()]
}

fn hold_first_apply(c: &Cluster, osd: OsdId) {
    let site = FaultSite::Apply {
        osd: osd.0,
        point: ApplyPoint::Apply,
    };
    let reg = c.fault_registry().unwrap();
    reg.install(FaultSpec::new(site, FaultKind::Delay(HOLD)).times(1));
}

fn image(c: &Cluster, osd: OsdId) -> Vec<JournalEntry> {
    c.osd(osd).unwrap().journal().crash_image()
}

fn decode(e: &JournalEntry) -> Transaction {
    Transaction::decode(&e.payload).unwrap()
}

/// The data of the transaction's one `Write`.
fn written(txn: &Transaction) -> Vec<u8> {
    let mut data = txn.ops().iter().filter_map(|op| match op {
        TxOp::Write { data, .. } => Some(data.to_vec()),
        _ => None,
    });
    let first = data.next().expect("no write in the transaction");
    assert!(data.next().is_none(), "two writes in the transaction");
    first
}

#[test]
fn a_replicas_journal_record_is_the_primarys_buffer() {
    for tuning in profiles() {
        let label = tuning.label();
        let c = Cluster::builder()
            .nodes(2)
            .osds_per_node(1)
            .replication(2)
            .pg_num(8)
            .tuning(tuning)
            .devices(DeviceProfile::clean())
            .faults(FaultPlan::new(0x0b1))
            .build()
            .unwrap();
        let object = ObjectId::new(c.pool(), "one");
        let (_, acting) = c.monitor().map().object_placement(&object).unwrap();
        let (primary, replica) = (acting[0], acting[1]);
        for &osd in &acting {
            hold_first_apply(&c, osd);
        }
        let data = vec![7u8; 4096];
        c.client().unwrap().write_object("one", 0, &data).unwrap();

        let (p, r) = (image(&c, primary), image(&c, replica));
        assert_eq!((p.len(), r.len()), (1, 1), "{label}: one record each");
        let (p, r) = (&p[0], &r[0]);
        let same = r.payload.as_ptr() == p.payload.as_ptr();
        assert!(same, "{label}: the replica journaled a buffer of its own");
        assert_eq!(r.payload.len(), p.payload.len(), "{label}");
        let (pt, rt) = (decode(p), decode(r));
        assert_eq!(
            format!("{:?}", rt.ops()),
            format!("{:?}", pt.ops()),
            "{label}"
        );
        assert_eq!(written(&rt), data, "{label}");
        c.shutdown();
    }
}

#[test]
fn a_recovery_push_journals_an_install_transaction_of_its_own() {
    for tuning in profiles() {
        let label = tuning.label();
        let c = Cluster::builder()
            .nodes(2)
            .osds_per_node(2)
            .replication(2)
            .pg_num(16)
            .tuning(OsdTuning {
                rep_resend_after_ms: 20,
                rep_max_resends: 2,
                heartbeat_grace_ms: 40,
                ..tuning.with_heartbeats(5)
            })
            .devices(DeviceProfile::clean())
            .faults(FaultPlan::new(0x0b2))
            .seed(0x0b2)
            .build()
            .unwrap();
        let client = c.client().unwrap();
        client.set_op_timeout(Duration::from_millis(400));
        client.set_max_retries(24);
        let victim = OsdId(3);
        let map = || c.monitor().map();
        // An object the victim holds a copy of.
        let name = (0..)
            .map(|i| format!("pushed{i}"))
            .find(|name| {
                let object = ObjectId::new(c.pool(), name);
                let (_, acting) = map().object_placement(&object).unwrap();
                acting.contains(&victim)
            })
            .unwrap();
        let object = ObjectId::new(c.pool(), &name).to_string();
        c.osd(victim).unwrap().pause();
        wait_until("victim down", || !map().osd_status(victim).up);
        let data = vec![3u8; 4096];
        if let Err(e) = client.write_object(&name, 0, &data) {
            panic!("{label}: degraded write of {name} failed: {e}");
        }
        hold_first_apply(&c, victim);
        c.osd(victim).unwrap().resume();
        let install = wait_for(&format!("{label}: the install of {name}"), || {
            let mut txns = image(&c, victim).into_iter().map(|e| decode(&e));
            txns.find(|t| {
                let ops = t.ops();
                ops.iter().any(|op| matches!(op, TxOp::Truncate { .. }))
                    && ops.iter().any(|op| op.object() == object)
            })
        });
        let kinds: Vec<&str> = install
            .ops()
            .iter()
            .map(|op| match op {
                TxOp::Touch { .. } => "touch",
                TxOp::Truncate { .. } => "truncate",
                TxOp::Write { .. } => "write",
                TxOp::OmapSetKeys { .. } => "pglog",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["touch", "truncate", "write", "pglog"], "{label}");
        assert_eq!(written(&install), data, "{label}");
        c.shutdown();
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    wait_for(what, || cond().then_some(()));
}

/// Poll `find` until it finds something; fail after 10 s.
fn wait_for<T>(what: &str, find: impl Fn() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(found) = find() {
            return found;
        }
        assert!(Instant::now() < deadline, "no {what} after 10 s");
        std::thread::sleep(Duration::from_millis(5));
    }
}
