//! **Figure 3** — write-path latency breakdown (community Ceph).
//!
//! The paper instruments one write's control flow: message processing
//! ≈1 ms, PG-queue dequeue → journal submit ≈3 ms (PG lock + replication
//! send + metadata read), journal write ≈8 ms, journal-completion hand-off
//! ≈1.1 ms, replica-commit handling ≈1.1 ms — PG-lock-related delay ≈9 ms
//! of a ≈17 ms total. We print the same stages from the OSD's sampled
//! stage recorder, community vs AFCeph, under load.

use afc_bench::{bench_secs, build_cluster, fio, run_fleet, vm_images};
use afc_common::timeutil::fmt_dur;
use afc_common::Table;
use afc_core::osd::StageSample;
use afc_core::{DeviceProfile, OsdTuning};
use afc_workload::Rw;
use std::time::Duration;

fn main() {
    let mut table = Table::new(vec![
        "config",
        "queue(1)",
        "submit(2)",
        "journal(4)",
        "completion(5)",
        "replica(6,7)",
        "reply",
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
        let mut samples: Vec<StageSample> = Vec::new();
        for osd in cluster.osds() {
            samples.extend(osd.stage_samples());
        }
        let m = StageSample::mean(&samples);
        let snap = cluster.metrics_snapshot();
        let writes = snap.site_sum("op.writes").max(1);
        let lock_wait = snap.site_sum("op.pg_lock_wait_us");
        table.row(vec![
            name.to_string(),
            fmt_dur(m.queue),
            fmt_dur(m.submit),
            fmt_dur(m.journal),
            fmt_dur(m.completion),
            fmt_dur(m.replica_wait),
            fmt_dur(m.reply),
            fmt_dur(m.total),
            fmt_dur(Duration::from_micros(lock_wait / writes)),
        ]);
        cluster.shutdown();
    }
    println!(
        "\n== Figure 3: write-path latency breakdown ({} samples/osd cap) ==",
        4096
    );
    table.print();
    println!("(paper, community: queue≈1ms submit≈3ms journal≈8ms completion≈1.1ms replica≈1.1ms of ≈17ms total)");
}
