//! **Extension ablation** — SimpleMessenger vs AsyncMessenger (§4.5).
//!
//! The paper attributes its 16-node 4K-random-read ceiling to
//! SimpleMessenger's sender+receiver thread per connection. Ceph's later
//! AsyncMessenger multiplexes connections over a fixed pool; this ablation
//! compares both receive-side models under a fan-in-heavy random-read load
//! with per-message CPU cost enabled, and reports thread/lane counts.

use afc_bench::{fio, print_rows, run_fleet, save_rows, vm_images, FigRow};
use afc_core::{Cluster, DeviceProfile, OsdTuning};
use afc_messenger::MessengerMode;
use afc_workload::Rw;
use std::time::Duration;

fn main() {
    let mut rows = Vec::new();
    for (i, (name, mode)) in [
        ("simple(thread/conn)", MessengerMode::Simple),
        ("async(4 workers)", MessengerMode::Async { workers: 4 }),
        ("async(8 workers)", MessengerMode::Async { workers: 8 }),
    ]
    .into_iter()
    .enumerate()
    {
        let cluster = Cluster::builder()
            .nodes(4)
            .osds_per_node(2)
            .replication(2)
            .pg_num(128)
            .tuning(OsdTuning::afceph())
            .devices(DeviceProfile::clean())
            .messenger_cpu(Duration::from_micros(15))
            .messenger_mode(mode)
            .build()
            .unwrap();
        let images = vm_images(&cluster, 12, 64 << 20, true);
        let r = run_fleet(&images, &fio(Rw::RandRead, 4096, 2).label(name));
        println!("{r}");
        let snap = cluster.metrics_snapshot();
        let conns = snap.counter("net.conns").unwrap_or(0);
        let threads = snap.counter("net.threads").unwrap_or(0);
        println!("  connections={conns} receive threads={threads}");
        rows.push(FigRow::from_report(name, i as f64, &r, false).with_tuning("afceph"));
        cluster.shutdown();
    }
    print_rows(
        "Extension ablation: messenger threading model (4K randread, 12 VMs)",
        "variant",
        &rows,
    );
    save_rows("abl_messenger", &rows);
    println!("(the paper's fix direction: bounded receive threads remove the per-connection CPU ceiling)");
}
