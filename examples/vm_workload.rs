//! The paper's motivating scenario: VM block storage on all-flash.
//!
//! Brings up the same cluster twice — community tuning vs AFCeph — runs a
//! fleet of "VMs" (one RBD image + FIO job each) doing 4K random writes
//! and reads, and prints the side-by-side comparison with the internal
//! counters that explain the difference.
//!
//! Run: `cargo run --release --example vm_workload`

use afcstore::common::{BlockTarget, Table};
use afcstore::workload::{JobSpec, Rw};
use afcstore::{Cluster, DeviceProfile, OsdTuning, RbdImage};
use std::sync::Arc;
use std::time::Duration;

const VMS: usize = 8;
const IMAGE: u64 = 64 << 20;

fn fleet(cluster: &Cluster) -> Vec<Arc<RbdImage>> {
    let images: Vec<Arc<RbdImage>> = (0..VMS)
        .map(|i| Arc::new(cluster.create_image(&format!("vm{i}"), IMAGE).unwrap()))
        .collect();
    // Lay the images out (and warm the connections) before measuring.
    std::thread::scope(|s| {
        for img in &images {
            s.spawn(move || {
                let buf = vec![0u8; 1 << 20];
                let mut off = 0;
                while off + buf.len() as u64 <= BlockTarget::size(img.as_ref()) {
                    img.write_at(off, &buf).unwrap();
                    off += buf.len() as u64;
                }
            });
        }
    });
    cluster.quiesce();
    images
}

fn run(images: &[Arc<RbdImage>], rw: Rw) -> afcstore::workload::Report {
    let spec = JobSpec::new(rw)
        .bs(4096)
        .iodepth(2)
        .runtime(Duration::from_secs(3));
    let mut reports = Vec::new();
    std::thread::scope(|s| {
        let hs: Vec<_> = images
            .iter()
            .map(|img| {
                let spec = spec.clone();
                let img = Arc::clone(img);
                s.spawn(move || afcstore::workload::run(&spec, img.as_ref()))
            })
            .collect();
        for h in hs {
            reports.push(h.join().unwrap());
        }
    });
    let mut merged = reports.pop().unwrap();
    for r in reports {
        merged.lat.merge(&r.lat);
        merged.ops += r.ops;
        merged.runtime = merged.runtime.max(r.runtime);
    }
    merged
}

fn main() {
    let mut table = Table::new(vec!["config", "pattern", "IOPS", "mean lat", "p99"]);
    for (name, tuning) in [
        ("community", OsdTuning::community()),
        ("afceph", OsdTuning::afceph()),
    ] {
        let cluster = Cluster::builder()
            .nodes(4)
            .osds_per_node(2)
            .replication(2)
            .tuning(tuning)
            .devices(DeviceProfile::sustained())
            .build()
            .unwrap();
        let images = fleet(&cluster);
        for rw in [Rw::RandWrite, Rw::RandRead] {
            let r = run(&images, rw);
            table.row(vec![
                name.to_string(),
                rw.name().to_string(),
                format!("{:.0}", r.iops()),
                format!("{:.2}ms", r.mean_lat().as_secs_f64() * 1e3),
                format!("{:.2}ms", r.p99().as_secs_f64() * 1e3),
            ]);
        }
        // The counters behind the story.
        let snap = cluster.metrics_snapshot();
        println!(
            "[{name}] pg-lock wait {} ms | blocking-log wait {} ms | meta reads {} | throttle blocks {}",
            snap.site_sum("op.pg_lock_wait_us") / 1000,
            snap.site_sum("log.block_wait_us") / 1000,
            snap.site_sum("fs.meta_reads"),
            snap.site_sum("fs.throttle.waits"),
        );
        cluster.shutdown();
    }
    println!();
    table.print();
}
