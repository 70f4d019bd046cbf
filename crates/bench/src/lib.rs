//! Shared harness for the figure-reproduction benchmarks.
//!
//! Every `benches/fig*.rs` target builds clusters through these helpers so
//! parameters, prefill behaviour and output format are consistent. Results
//! print as aligned tables and are also written as JSON under
//! `bench_results/` for re-plotting.
//!
//! Scaling: the harnesses run a reduced but *stated* version of the paper's
//! experiments (this host has one core; the paper had 4–16 servers). Set
//! `AFC_BENCH_SECS` to lengthen each measurement window and
//! `AFC_BENCH_VMS_MAX` to raise the fleet sizes.

pub mod qos;
pub mod streams;

use afc_common::{BlockTarget, HistSnapshot, Table, MIB};
use afc_core::{Cluster, DeviceProfile, OsdTuning, RbdImage};
use afc_workload::{JobSpec, Report};
use std::sync::Arc;
use std::time::Duration;

/// `git rev-parse --short HEAD`, or `"unknown"` outside a work tree;
/// stamped into every saved result row so JSON files are self-describing.
pub fn commit_hash() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Per-run measurement window (seconds); `AFC_BENCH_SECS` overrides.
pub fn bench_secs() -> f64 {
    std::env::var("AFC_BENCH_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3.0)
}

/// Largest VM-fleet size used by Figure 10/11; `AFC_BENCH_VMS_MAX` overrides.
pub fn vms_max() -> usize {
    std::env::var("AFC_BENCH_VMS_MAX")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// Standard bench cluster: paper shape at reduced PG count.
pub fn build_cluster(
    nodes: u32,
    osds_per_node: u32,
    tuning: OsdTuning,
    devices: DeviceProfile,
) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .osds_per_node(osds_per_node)
        .replication(2)
        .pg_num(128)
        .tuning(tuning)
        .devices(devices)
        .build()
        .expect("cluster build")
}

/// Provision `n` VM images of `size` bytes each, prefilled so read
/// workloads hit real objects (the paper fills 80% of the disks; we fill
/// each image's whole span with 1 MiB sequential writes).
pub fn vm_images(cluster: &Cluster, n: usize, size: u64, prefill: bool) -> Vec<Arc<RbdImage>> {
    let images: Vec<Arc<RbdImage>> = (0..n)
        .map(|i| {
            Arc::new(
                cluster
                    .create_image(&format!("vm{i}"), size)
                    .expect("image"),
            )
        })
        .collect();
    if prefill {
        std::thread::scope(|s| {
            for img in &images {
                s.spawn(move || {
                    let buf = vec![0x5au8; MIB as usize];
                    let mut off = 0;
                    while off + MIB <= img.size() {
                        img.write_at(off, &buf).expect("prefill");
                        off += MIB;
                    }
                });
            }
        });
        cluster.quiesce();
    }
    images
}

/// Run one FIO job per image concurrently; merge into a fleet report.
pub fn run_fleet(images: &[Arc<RbdImage>], base: &JobSpec) -> Report {
    let mut reports: Vec<Report> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = images
            .iter()
            .enumerate()
            .map(|(i, img)| {
                let spec = base.clone().seed(base.seed ^ (i as u64) << 8);
                let img = Arc::clone(img);
                s.spawn(move || afc_workload::run(&spec, img.as_ref()))
            })
            .collect();
        for h in handles {
            reports.push(h.join().expect("fleet job"));
        }
    });
    merge_reports(reports, base)
}

/// Merge per-VM reports: ops sum, histograms merged, runtime = max.
pub fn merge_reports(reports: Vec<Report>, base: &JobSpec) -> Report {
    let mut lat = HistSnapshot::default();
    let mut ops = 0;
    let mut errors = 0;
    let mut runtime = Duration::ZERO;
    let mut series = afc_common::TimeSeries::new();
    for r in &reports {
        lat.merge(&r.lat);
        ops += r.ops;
        errors += r.errors;
        runtime = runtime.max(r.runtime);
        for &(t, v) in r.series.points() {
            series.push(t, v);
        }
    }
    Report {
        ops,
        errors,
        runtime,
        bs: base.bs,
        lat,
        series,
        label: base.label.clone(),
    }
}

/// A row of figure output, serializable for re-plotting.
#[derive(Debug)]
pub struct FigRow {
    /// Series name (e.g. "community", "afceph", "solidfire").
    pub series: String,
    /// X value (threads, VMs, nodes, step index...).
    pub x: f64,
    /// IOPS (or MiB/s for sequential panels — see `unit`).
    pub value: f64,
    /// Mean latency in milliseconds.
    pub lat_ms: f64,
    /// p99 latency in milliseconds.
    pub p99_ms: f64,
    /// Unit of `value`.
    pub unit: String,
    /// OSD tuning profile label the row was measured under (e.g.
    /// "community", "afceph", "custom"). Defaults to the series name;
    /// override with [`FigRow::with_tuning`] when the series encodes
    /// something else (an ablation parameter, an rw mix, ...).
    pub tuning: String,
}

impl FigRow {
    /// Build a row from a fleet report.
    pub fn from_report(series: &str, x: f64, r: &Report, sequential: bool) -> FigRow {
        FigRow {
            series: series.to_string(),
            x,
            value: if sequential { r.mibps() } else { r.iops() },
            lat_ms: r.mean_lat().as_secs_f64() * 1e3,
            p99_ms: r.p99().as_secs_f64() * 1e3,
            unit: if sequential {
                "MiB/s".into()
            } else {
                "IOPS".into()
            },
            tuning: series.to_string(),
        }
    }

    /// Tag the row with the tuning profile it was measured under.
    #[must_use]
    pub fn with_tuning(mut self, tuning: &str) -> FigRow {
        self.tuning = tuning.to_string();
        self
    }
}

/// Print rows as an aligned table.
pub fn print_rows(title: &str, xlabel: &str, rows: &[FigRow]) {
    println!("\n== {title} ==");
    let mut t = Table::new(vec![
        "series", xlabel, "value", "unit", "lat(ms)", "p99(ms)",
    ]);
    for r in rows {
        t.row(vec![
            r.series.clone(),
            format!("{:.0}", r.x),
            format!("{:.0}", r.value),
            r.unit.clone(),
            format!("{:.2}", r.lat_ms),
            format!("{:.2}", r.p99_ms),
        ]);
    }
    t.print();
}

/// Persist rows as JSON under `bench_results/`.
pub fn save_rows(name: &str, rows: &[FigRow]) {
    // Workspace-root bench_results/ regardless of the bench target's cwd.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("bench_results");
    let dir = dir.as_path();
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.json"));
    let s = rows_to_json(rows);
    if let Err(e) = std::fs::write(&path, s) {
        eprintln!("warn: could not write {}: {e}", path.display());
    } else {
        println!("(saved {})", path.display());
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn json_num(v: f64) -> String {
    // JSON has no NaN/Infinity; clamp to null-adjacent zero.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub(crate) fn rows_to_json(rows: &[FigRow]) -> String {
    // Each record carries the commit and tuning profile so BENCH_*.json
    // files stay interpretable after the run that produced them.
    let commit = commit_hash();
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\n    \"series\": \"{}\",\n    \"x\": {},\n    \"value\": {},\n    \"lat_ms\": {},\n    \"p99_ms\": {},\n    \"unit\": \"{}\",\n    \"tuning\": \"{}\",\n    \"commit\": \"{}\"\n  }}{}\n",
            json_escape(&r.series),
            json_num(r.x),
            json_num(r.value),
            json_num(r.lat_ms),
            json_num(r.p99_ms),
            json_escape(&r.unit),
            json_escape(&r.tuning),
            json_escape(&commit),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    s.push(']');
    s
}

/// The standard measurement job used by most figures.
pub fn fio(rw: afc_workload::Rw, bs: u64, iodepth: usize) -> JobSpec {
    JobSpec::new(rw)
        .bs(bs)
        .numjobs(1)
        .iodepth(iodepth)
        .runtime(Duration::from_secs_f64(bench_secs()))
        .seed(0xf10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_workload::Rw;

    #[test]
    fn fig_row_units() {
        let r = Report {
            ops: 1000,
            errors: 0,
            runtime: Duration::from_secs(1),
            bs: 4096,
            lat: HistSnapshot::default(),
            series: afc_common::TimeSeries::new(),
            label: "x".into(),
        };
        let iops = FigRow::from_report("a", 1.0, &r, false);
        assert_eq!(iops.unit, "IOPS");
        assert!((iops.value - 1000.0).abs() < 1.0);
        let seq = FigRow::from_report("a", 1.0, &r, true);
        assert_eq!(seq.unit, "MiB/s");
        assert!(seq.value < iops.value);
    }

    #[test]
    fn merge_reports_sums() {
        let base = fio(Rw::RandWrite, 4096, 1);
        let mk = |ops| Report {
            ops,
            errors: 0,
            runtime: Duration::from_secs(2),
            bs: 4096,
            lat: HistSnapshot::default(),
            series: afc_common::TimeSeries::new(),
            label: "x".into(),
        };
        let m = merge_reports(vec![mk(10), mk(20)], &base);
        assert_eq!(m.ops, 30);
        assert_eq!(m.runtime, Duration::from_secs(2));
    }

    #[test]
    fn env_defaults() {
        assert!(bench_secs() > 0.0);
        assert!(vms_max() > 0);
    }
}
