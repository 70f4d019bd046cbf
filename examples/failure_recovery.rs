//! Failure handling: OSD loss, CRUSH remapping, journal replay.
//!
//! Demonstrates the reliability machinery the paper's optimizations were
//! careful not to break (§3.1: "we did not revise the entire PG lock
//! scheme since it is the basis of the recovery system"):
//!
//! 1. writes land on a healthy cluster;
//! 2. an OSD is marked down — CRUSH remaps its PGs and clients retry
//!    misdirected ops against the refreshed map;
//! 3. an OSD "crashes" with journal entries not yet applied to the
//!    filestore — `replay_journal` re-applies them.
//!
//! Run: `cargo run --release --example failure_recovery`

use afcstore::common::OsdId;
use afcstore::{Cluster, DeviceProfile, OsdTuning};

fn main() -> afcstore::common::Result<()> {
    let cluster = Cluster::builder()
        .nodes(3)
        .osds_per_node(2)
        .replication(2)
        .pg_num(64)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .build()?;
    let client = cluster.client()?;

    // Phase 1: healthy writes.
    for i in 0..32 {
        client.write_object(&format!("obj{i}"), 0, format!("payload-{i}").as_bytes())?;
    }
    println!(
        "phase 1: 32 objects written, epoch {}",
        cluster.monitor().epoch()
    );

    // Phase 2: kill an OSD; acked data must stay readable via replicas,
    // and new writes must remap around the dead OSD.
    let victim = OsdId(0);
    cluster.monitor().mark_down(victim);
    println!(
        "phase 2: {victim} marked down, epoch {}",
        cluster.monitor().epoch()
    );
    let mut reread = 0;
    for i in 0..32 {
        let data = client.read_object(&format!("obj{i}"), 0, 10)?;
        assert!(data.starts_with(b"payload-"), "corrupt read after failure");
        reread += 1;
    }
    println!("  all {reread} objects readable after failure");
    for i in 32..48 {
        client.write_object(&format!("obj{i}"), 0, b"post-failure")?;
    }
    println!("  16 new objects written around the dead OSD");
    for pg_seq in 0..64 {
        let pg = afcstore::common::PgId {
            pool: cluster.pool(),
            seq: pg_seq,
        };
        let acting = cluster.monitor().map().pg_placement(pg)?.acting;
        assert!(
            !acting.is_empty() && !acting.contains(&victim),
            "pg {pg} still maps to the dead OSD"
        );
    }
    println!("  no PG maps to {victim} anymore");

    // Phase 3: journal replay. Entries committed to NVRAM but not yet
    // applied to the filestore survive a daemon crash; replay is
    // idempotent. (Re-adding the failed OSD would additionally need
    // backfill — data movement to the rejoining OSD — which is out of
    // scope; the cluster keeps running degraded.)
    let osd = cluster.osd(OsdId(1)).expect("osd.1 exists");
    let replayed = osd.replay_journal()?;
    println!("phase 3: osd.1 replayed {replayed} pending journal entries (idempotent)");
    // Data still intact after (redundant) replay.
    for i in 0..48 {
        let data = client.read_object(&format!("obj{i}"), 0, 8)?;
        assert!(!data.is_empty());
    }
    println!("  all data verified after replay");

    cluster.shutdown();
    Ok(())
}
