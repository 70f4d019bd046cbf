//! **Ablation** — journal capacity sweep (the Figure 10 32K-write
//! fluctuation mechanism).
//!
//! "An NVRAM used as journal disk is faster than SSDs being used as
//! filestore. If journal is full with its data, the system gets blocked
//! until some of data in journal is flushed to filestore. As a result,
//! performance fluctuation is observed." Small journals stall sooner; big
//! journals absorb the burst.

use afc_bench::{bench_secs, build_cluster, fio, run_fleet, save_rows, vm_images, FigRow};
use afc_common::bytesize::fmt_bytes;
use afc_common::Table;
use afc_core::{DeviceProfile, OsdTuning};
use afc_workload::Rw;
use std::time::Duration;

fn main() {
    let sizes: [u64; 4] = [4 << 20, 16 << 20, 64 << 20, 512 << 20];
    let mut table = Table::new(vec![
        "journal",
        "IOPS",
        "cv(fluctuation)",
        "journal-full stalls",
        "stalled(ms)",
        "failed",
    ]);
    let mut rows = Vec::new();
    for &cap in &sizes {
        let devices = DeviceProfile::sustained().with_journal_capacity(cap);
        let cluster = build_cluster(2, 2, OsdTuning::afceph(), devices);
        let images = vm_images(&cluster, 8, 64 << 20, false);
        let spec = fio(Rw::RandWrite, 32 << 10, 4)
            .runtime(Duration::from_secs_f64((bench_secs() * 2.0).max(6.0)))
            .sample_interval(Duration::from_millis(250))
            .label(format!("journal={}", fmt_bytes(cap)));
        let r = run_fleet(&images, &spec);
        let snap = cluster.metrics_snapshot();
        let fs_ = snap.site_sum("journal.full_stalls");
        let fsu = snap.site_sum("journal.full_stall_us");
        table.row(vec![
            fmt_bytes(cap),
            format!("{:.0}", r.iops()),
            format!("{:.3}", r.series.cv()),
            fs_.to_string(),
            (fsu / 1000).to_string(),
            r.errors.to_string(),
        ]);
        rows.push(FigRow::from_report("journal_size", cap as f64, &r, false).with_tuning("afceph"));
        cluster.shutdown();
    }
    println!("== Ablation: journal capacity vs 32K random-write fluctuation ==");
    table.print();
    save_rows("abl_journal_size", &rows);
}
