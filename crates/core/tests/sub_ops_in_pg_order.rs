//! A replica takes its sub-ops in PG order. Every `Replicate` names the one
//! its primary sent that replica for the PG just before it; the replica
//! drops one whose predecessor it has not taken, and the primary's resend
//! sweep sends a peer's overdue sub-ops in PG order. So a lost or held
//! `Replicate` never lets a later write to the same object land on the
//! replica first, and an older acked write never ends on top.

use afc_common::{AfcError, FaultKind, FaultPlan, FaultSite, FaultSpec, NetSite, ObjectId, OsdId};
use afc_core::{Cluster, DeviceProfile, OsdTuning};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn tunings() -> [OsdTuning; 2] {
    [OsdTuning::afceph(), OsdTuning::community()]
}

/// Two OSDs, every PG on both; overdue sub-ops resent after 20 ms, up to
/// `max_resends` times.
fn cluster(tuning: OsdTuning, max_resends: u32, seed: u64) -> Cluster {
    Cluster::builder()
        .nodes(2)
        .osds_per_node(1)
        .replication(2)
        .pg_num(8)
        .tuning(OsdTuning {
            rep_resend_after_ms: 20,
            rep_max_resends: max_resends,
            ..tuning
        })
        .devices(DeviceProfile::clean())
        .faults(FaultPlan::new(seed))
        .build()
        .unwrap()
}

/// The acting set of `name`.
fn acting(cluster: &Cluster, name: &str) -> Vec<OsdId> {
    let object = ObjectId::new(cluster.pool(), name);
    cluster.monitor().map().object_placement(&object).unwrap().1
}

/// The 4 KiB every test writes to `name`, as `osd`'s filestore holds it.
fn stored(cluster: &Cluster, osd: OsdId, name: &str) -> Vec<u8> {
    let store_name = ObjectId::new(cluster.pool(), name).to_string();
    let store = cluster.osd(osd).unwrap().store();
    store
        .read(&store_name, 0, 4096, Instant::now())
        .unwrap()
        .wait()
}

/// Deep scrub finds every replica equal to its primary.
fn assert_scrub_clean(cluster: &Cluster) {
    cluster.quiesce();
    let report = cluster.deep_scrub().unwrap();
    assert!(report.is_clean(), "inconsistent: {:?}", report.inconsistent);
}

/// The first `Replicate` is lost, and a second write to the same PG
/// follows before its resend, to the same object or to another: the
/// replica drops the second as a gap until the resend of the first has
/// run. Both writes are acked, and the replica ends on each object's last
/// write, like the primary; it never takes the second first and then
/// mistakes the resend for a copy of a sub-op it took.
#[test]
fn a_write_behind_a_lost_replicate_lands_after_it() {
    for tuning in tunings() {
        let cluster = cluster(tuning, 5, 0x45);
        let reg = cluster.fault_registry().unwrap().clone();
        let client = cluster.client().unwrap();
        let pg = |name: &str| {
            let object = ObjectId::new(cluster.pool(), name);
            cluster.monitor().map().object_placement(&object).unwrap().0
        };
        let beside = (0..)
            .map(|i| format!("beside{i}"))
            .find(|name| pg(name) == pg("first"))
            .unwrap();
        for (lost, names) in (1..).zip([["twice", "twice"], ["first", &beside]]) {
            reg.install(
                FaultSpec::new(FaultSite::Net(NetSite::Replicate), FaultKind::Drop).times(1),
            );
            let writes: Vec<_> = (names.iter().zip(1u8..))
                .map(|(name, b)| {
                    let data = Bytes::from(vec![b; 4096]);
                    client.write_object_async(name, 0, data).unwrap()
                })
                .collect();
            for w in writes {
                w.wait().unwrap();
            }
            assert_eq!(
                reg.hits(FaultSite::Net(NetSite::Replicate)),
                lost,
                "fault never fired"
            );
            assert_scrub_clean(&cluster);
            let last: BTreeMap<&str, u8> = names.into_iter().zip(1u8..).collect();
            for (name, b) in last {
                let set = acting(&cluster, name);
                let on_primary = stored(&cluster, set[0], name);
                assert_eq!(on_primary, [b; 4096], "{name}: the primary lost a write");
                assert_eq!(stored(&cluster, set[1], name), on_primary, "{name}");
            }
        }
        cluster.shutdown();
    }
}

/// The replica is paused while four writes to each of 20 objects are
/// sent, then resumed: every `Replicate` it missed is resent, and the
/// replica takes them in PG order, ending each object on its last write.
/// The objects are led by the OSD that is not paused: with heartbeats off,
/// `resume` fences the paused OSD's own PGs into `Peering` for good.
#[test]
fn a_paused_replica_takes_the_resends_in_pg_order() {
    const OBJECTS: usize = 20;
    const WRITES: u8 = 4;
    for tuning in tunings() {
        let cluster = cluster(tuning, 100, 0x46);
        let client = cluster.client().unwrap();
        let (leader, replica) = (OsdId(0), OsdId(1));
        let names: Vec<String> = (0..)
            .map(|i| format!("held{i}"))
            .filter(|name| acting(&cluster, name)[0] == leader)
            .take(OBJECTS)
            .collect();
        cluster.osd(replica).unwrap().pause();
        let mut writes = Vec::new();
        for k in 1..=WRITES {
            for name in &names {
                let data = Bytes::from(vec![k; 4096]);
                writes.push(client.write_object_async(name, 0, data).unwrap());
            }
        }
        std::thread::sleep(Duration::from_millis(60));
        cluster.osd(replica).unwrap().resume();
        for w in writes {
            w.wait().unwrap();
        }
        assert_scrub_clean(&cluster);
        for name in &names {
            let on_leader = stored(&cluster, leader, name);
            assert_eq!(
                on_leader, [WRITES; 4096],
                "{name}: the primary lost the last write"
            );
            let on_replica = stored(&cluster, replica, name);
            assert_eq!(
                on_replica, on_leader,
                "{name}: an older write won on the replica"
            );
        }
        cluster.shutdown();
    }
}

/// A write whose sub-op to a paused replica spends its resends fails, and
/// the primary starts that replica's chain afresh: once the replica is
/// back, the next write to the PG is taken, not dropped as a gap behind
/// the sub-op that was never resent.
#[test]
fn a_chain_given_up_on_starts_afresh() {
    for tuning in tunings() {
        let cluster = cluster(tuning, 1, 0x47);
        let client = cluster.client().unwrap();
        let (leader, replica) = (OsdId(0), OsdId(1));
        let name = (0..)
            .map(|i| format!("lapsed{i}"))
            .find(|name| acting(&cluster, name)[0] == leader)
            .unwrap();
        cluster.osd(replica).unwrap().pause();
        let lost = client.write_object_async(&name, 0, Bytes::from(vec![1u8; 4096]));
        let err = lost.unwrap().wait().unwrap_err();
        assert!(matches!(err, AfcError::Timeout(_)), "{err:?}");
        cluster.osd(replica).unwrap().resume();
        let again = client.write_object_async(&name, 0, Bytes::from(vec![2u8; 4096]));
        again.unwrap().wait().unwrap();
        assert_scrub_clean(&cluster);
        assert_eq!(stored(&cluster, replica, &name), [2u8; 4096]);
        cluster.shutdown();
    }
}
