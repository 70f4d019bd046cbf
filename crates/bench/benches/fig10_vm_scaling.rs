//! **Figure 10** — virtual-machine scaling, sustained-state SSDs.
//!
//! The paper sweeps 10→80 VMs (KVM, one RBD image each) over six panels:
//! 4K/32K random write, sequential write, 4K/32K random read, sequential
//! read, comparing Community Ceph and AFCeph. Headlines: 4K random write
//! 22K IOPS @58 ms (community, 80 VMs) vs 81K @7.9 ms (AFCeph); 32K random
//! write ≈4×; sequential parity; random reads ≈2× under heavy load.
//!
//! Scaled: VM counts default to {2,4,8,12,16} on a 4×2-OSD cluster
//! (override with AFC_BENCH_VMS_MAX); image spans are prefilled so reads
//! hit real objects (the paper fills 80% of the disks).

use afc_bench::{build_cluster, fio, print_rows, run_fleet, save_rows, vm_images, vms_max, FigRow};
use afc_core::{DeviceProfile, OsdTuning};
use afc_workload::{JobSpec, Rw};
use std::sync::Arc;

fn main() {
    let max = vms_max();
    let vm_counts: Vec<usize> = [2usize, 4, 8, 12, 16]
        .iter()
        .copied()
        .filter(|v| *v <= max)
        .collect();
    let panels: [(&str, Rw, u64, bool); 6] = [
        ("4k-randwrite", Rw::RandWrite, 4 << 10, false),
        ("32k-randwrite", Rw::RandWrite, 32 << 10, false),
        ("seq-write", Rw::SeqWrite, 1 << 20, true),
        ("4k-randread", Rw::RandRead, 4 << 10, false),
        ("32k-randread", Rw::RandRead, 32 << 10, false),
        ("seq-read", Rw::SeqRead, 1 << 20, true),
    ];
    let mut all_rows = Vec::new();
    for (cfg_name, tuning) in [
        ("community", OsdTuning::community()),
        ("afceph", OsdTuning::afceph()),
    ] {
        // The Figure-10 journal-full fluctuation needs a journal the 32K
        // stream can fill at bench scale.
        let devices = DeviceProfile::sustained().with_journal_capacity(64 << 20);
        let cluster = build_cluster(4, 2, tuning, devices);
        let images = vm_images(&cluster, *vm_counts.last().unwrap(), 64 << 20, true);
        for (panel, rw, bs, seq) in panels {
            // Drain the previous panel's apply backlog so each panel
            // measures its own workload, not the prior panel's debt.
            cluster.quiesce();
            for &vms in &vm_counts {
                let spec: JobSpec = fio(rw, bs, 2).label(format!("{cfg_name}/{panel}/vms={vms}"));
                let subset: Vec<Arc<_>> = images.iter().take(vms).cloned().collect();
                let r = run_fleet(&subset, &spec);
                println!("{r}");
                all_rows.push(
                    FigRow::from_report(&format!("{cfg_name}/{panel}"), vms as f64, &r, seq)
                        .with_tuning(cfg_name),
                );
            }
        }
        let jf = cluster.metrics_snapshot().site_sum("journal.full_stalls");
        println!("[{cfg_name}] journal-full stalls across OSDs: {jf}");
        cluster.shutdown();
    }
    print_rows(
        "Figure 10: VM scaling, sustained SSDs (6 panels)",
        "VMs",
        &all_rows,
    );
    save_rows("fig10", &all_rows);
    // Headline comparison at max VMs for the 4K random panels.
    for panel in ["4k-randwrite", "4k-randread"] {
        let get = |cfg: &str| {
            all_rows
                .iter()
                .rfind(|r| r.series == format!("{cfg}/{panel}"))
                .map(|r| (r.value, r.lat_ms))
                .unwrap_or((0.0, 0.0))
        };
        let (ci, cl) = get("community");
        let (ai, al) = get("afceph");
        println!(
            "{panel} @max VMs: community {ci:.0} IOPS @{cl:.1}ms vs afceph {ai:.0} IOPS @{al:.1}ms  ({:.1}x IOPS, {:.1}x latency)",
            ai / ci.max(1.0),
            cl / al.max(0.1),
        );
    }
}
