//! **Ablation** — `filestore_queue_max_ops` sweep (§3.2).
//!
//! The paper: "performance degradation disappears only when combination of
//! parameters for throttle are fixed together... Throttle parameter is
//! determined as 30K IOPS, because a single block device can perform 30K
//! IOPS in sustained state." We sweep the op cap and report throughput,
//! latency, and time blocked on the throttle.

use afc_bench::{bench_secs, build_cluster, fio, run_fleet, save_rows, vm_images, FigRow};
use afc_common::Table;
use afc_core::{DeviceProfile, OsdTuning};
use afc_workload::Rw;
use std::time::Duration;

fn main() {
    let caps = [2u64, 10, 50, 500, 5000];
    let mut table = Table::new(vec![
        "queue_max_ops",
        "IOPS",
        "lat(ms)",
        "p99(ms)",
        "throttle blocks",
        "blocked(ms)",
    ]);
    let mut rows = Vec::new();
    for &cap in &caps {
        let cluster = build_cluster(2, 2, OsdTuning::afceph(), DeviceProfile::sustained());
        for osd in cluster.osds() {
            osd.store().set_queue_max_ops(cap);
        }
        let images = vm_images(&cluster, 8, 64 << 20, false);
        let spec = fio(Rw::RandWrite, 4096, 4)
            .runtime(Duration::from_secs_f64(bench_secs()))
            .label(format!("cap={cap}"));
        let r = run_fleet(&images, &spec);
        let snap = cluster.metrics_snapshot();
        let tw = snap.site_sum("fs.throttle.waits");
        let twu = snap.site_sum("fs.throttle.wait_us");
        table.row(vec![
            cap.to_string(),
            format!("{:.0}", r.iops()),
            format!("{:.2}", r.mean_lat().as_secs_f64() * 1e3),
            format!("{:.2}", r.p99().as_secs_f64() * 1e3),
            tw.to_string(),
            (twu / 1000).to_string(),
        ]);
        rows.push(FigRow::from_report("throttle", cap as f64, &r, false).with_tuning("afceph"));
        cluster.shutdown();
    }
    println!("== Ablation: filestore_queue_max_ops (HDD-sized caps strangle flash) ==");
    table.print();
    save_rows("abl_throttle", &rows);
}
