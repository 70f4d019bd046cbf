//! **Figure 4** — Log vs No-log IOPS over time (PG-lock minimization and
//! system tuning applied, light-weight transactions NOT applied).
//!
//! Paper observation: with logging off, performance holds high for a few
//! seconds (point A) then begins fluctuating (point B) as the filestore
//! queue backs up — the filestore cannot apply as fast as the journal
//! commits, and the HDD-sized throttle then blocks the pipeline. With
//! logging on, the blocking logger caps throughput below the filestore's
//! trouble threshold.

use afc_bench::{bench_secs, build_cluster, fio, run_fleet, save_rows, vm_images, FigRow};
use afc_core::{DeviceProfile, LoggingMode, OsdTuning};
use afc_workload::Rw;
use std::time::Duration;

fn main() {
    let mut rows = Vec::new();
    for (name, logging) in [("log", LoggingMode::Blocking), ("nolog", LoggingMode::Off)] {
        // Lock optimization + tuning, but community filestore + throttle —
        // the configuration of the paper's Figure 4.
        let tuning = OsdTuning {
            logging,
            ..OsdTuning::step_tuning()
        };
        let tuning = OsdTuning {
            lightweight_txn: false,
            ..tuning
        };
        let tlabel = tuning.label();
        // Sustained flash plus a journal small enough that the
        // journal→filestore imbalance (the paper's point B) can appear
        // within the bench window.
        let devices = DeviceProfile::sustained().with_journal_capacity(48 << 20);
        let cluster = build_cluster(4, 2, tuning, devices);
        let images = vm_images(&cluster, 12, 64 << 20, true);
        let spec = fio(Rw::RandWrite, 4096, 8)
            .runtime(Duration::from_secs_f64((bench_secs() * 3.0).max(9.0)))
            .sample_interval(Duration::from_millis(250))
            .label(name);
        let r = run_fleet(&images, &spec);
        println!("{name}: {r}");
        println!("  IOPS over time (250ms windows):");
        // Merge per-VM series by window index for a readable train.
        for (t, v) in r.series.points().iter().take(120) {
            rows.push(FigRow {
                series: name.into(),
                x: *t,
                value: *v,
                lat_ms: 0.0,
                p99_ms: 0.0,
                unit: "IOPS(window)".into(),
                tuning: tlabel.into(),
            });
        }
        println!(
            "  mean {:.0} IOPS/VM-window, fluctuation cv={:.3}, min {:.0}, max {:.0}",
            r.series.mean(),
            r.series.cv(),
            r.series.min_value(),
            r.series.max_value()
        );
        let snap = cluster.metrics_snapshot();
        let tw = snap.site_sum("fs.throttle.waits");
        let twu = snap.site_sum("fs.throttle.wait_us");
        println!(
            "  filestore throttle: {} blocks, {} ms blocked (the 'contention' in Fig 2)",
            tw,
            twu / 1000
        );
        cluster.shutdown();
    }
    save_rows("fig04", &rows);
    println!("\n(paper: no-log is faster but fluctuates once the filestore queue grows; log caps throughput)");
}
