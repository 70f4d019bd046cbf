//! **Figure 3** — write-path latency breakdown (community Ceph).
//!
//! The paper instruments one write's control flow: message processing
//! ≈1 ms, PG-queue dequeue → journal submit ≈3 ms (PG lock + replication
//! send + metadata read), journal write ≈8 ms, journal-completion hand-off
//! ≈1.1 ms, replica-commit handling ≈1.1 ms — PG-lock-related delay ≈9 ms
//! of a ≈17 ms total. We print the mean of each `osdN.stage.*` histogram
//! (one write in 16 sampled), merged over the OSDs, community vs AFCeph,
//! under load. `ack` holds the paper's replica handling (6)(7) and the
//! reply send.

use afc_bench::{bench_secs, build_cluster, fio, run_fleet, vm_images};
use afc_common::timeutil::fmt_dur;
use afc_common::{HistSnapshot, Table};
use afc_core::{DeviceProfile, OsdTuning};
use afc_workload::Rw;
use std::time::Duration;

const STAGES: [&str; 6] = ["pg_queue", "submit", "journal", "apply", "ack", "total"];

fn main() {
    let mut table = Table::new(vec![
        "config",
        "queue(1)",
        "submit(2)",
        "journal(4)",
        "completion(5)",
        "ack(6,7)",
        "total",
        "pg-lock-wait/op",
    ]);
    for (name, tuning) in [
        ("community", OsdTuning::community()),
        ("afceph", OsdTuning::afceph()),
    ] {
        let cluster = build_cluster(4, 2, tuning, DeviceProfile::sustained());
        let images = vm_images(&cluster, 8, 64 << 20, true);
        let spec = fio(Rw::RandWrite, 4096, 4)
            .runtime(Duration::from_secs_f64(bench_secs().max(3.0)))
            .label("fig03");
        let r = run_fleet(&images, &spec);
        println!("{name}: {r}");
        let snap = cluster.metrics_snapshot();
        let mean = |stage: &str| {
            let mut merged = HistSnapshot::default();
            for osd in cluster.osds() {
                if let Some(h) = snap.histogram(&format!("osd{}.stage.{stage}", osd.id().0)) {
                    merged.merge(h);
                }
            }
            fmt_dur(Duration::from_micros(merged.mean_us()))
        };
        let writes = snap.site_sum("op.writes").max(1);
        let lock_wait = snap.site_sum("op.pg_lock_wait_us");
        let mut row = vec![name.to_string()];
        row.extend(STAGES.map(mean));
        row.push(fmt_dur(Duration::from_micros(lock_wait / writes)));
        table.row(row);
        cluster.shutdown();
    }
    println!("\n== Figure 3: write-path latency breakdown (stage means, 1 write in 16) ==");
    table.print();
    println!("(paper, community: queue≈1ms submit≈3ms journal≈8ms completion≈1.1ms replica≈1.1ms of ≈17ms total)");
}
