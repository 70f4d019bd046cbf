//! **Ablation** — the §3.1 lock optimizations in isolation.
//!
//! Holds everything else at the AFCeph configuration and toggles each lock
//! optimization off individually, so its marginal contribution under a PG-
//! contended 4K random write load is visible.

use afc_bench::{fio, print_rows, run_fleet, save_rows, vm_images, FigRow};
use afc_core::{DeviceProfile, OsdTuning};
use afc_workload::Rw;

fn main() {
    let variants: [(&str, OsdTuning); 5] = [
        ("afceph(all)", OsdTuning::afceph()),
        (
            "-pending_queue",
            OsdTuning {
                pending_queue: false,
                ..OsdTuning::afceph()
            },
        ),
        (
            "-dedicated_completion",
            OsdTuning {
                dedicated_completion: false,
                ..OsdTuning::afceph()
            },
        ),
        (
            "-fast_ack",
            OsdTuning {
                fast_ack: false,
                ..OsdTuning::afceph()
            },
        ),
        (
            "none(of §3.1)",
            OsdTuning {
                pending_queue: false,
                dedicated_completion: false,
                fast_ack: false,
                ..OsdTuning::afceph()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (i, (name, tuning)) in variants.into_iter().enumerate() {
        let tlabel = tuning.label();
        // Few PGs → heavy PG-lock contention, the regime these fixes target.
        let cluster = afc_core::Cluster::builder()
            .nodes(2)
            .osds_per_node(2)
            .replication(2)
            .pg_num(16)
            .tuning(tuning)
            .devices(DeviceProfile::sustained())
            .build()
            .unwrap();
        let images = vm_images(&cluster, 8, 64 << 20, false);
        let r = run_fleet(&images, &fio(Rw::RandWrite, 4096, 4).label(name));
        println!("{r}");
        let waits = cluster.metrics_snapshot().site_sum("op.pg_lock_wait_us");
        println!("  total PG-lock wait: {} ms", waits / 1000);
        rows.push(FigRow::from_report(name, i as f64, &r, false).with_tuning(tlabel));
        cluster.shutdown();
    }
    print_rows(
        "Ablation: §3.1 lock optimizations (16 PGs, 4K randwrite)",
        "variant",
        &rows,
    );
    save_rows("abl_pending_queue", &rows);
}
