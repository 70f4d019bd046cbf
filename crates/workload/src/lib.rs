//! FIO-style workload generation and reporting.
//!
//! The paper's evaluation drives KRBD block devices with FIO from up to 80
//! VMs, sweeping pattern (random/sequential read/write), block size
//! (4K/32K/sequential-large), thread count and iodepth. [`JobSpec`]
//! describes such a job; [`run`] executes it against any
//! [`BlockTarget`] (an RBD image, a SolidFire volume, a raw device wrapper)
//! with one OS thread per `numjobs × iodepth` in-flight op (FIO's sync
//! engine semantics), per-thread deterministic offset streams, one shared
//! latency histogram and windowed-IOPS time series for the fluctuation
//! figures.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod report;
pub mod spec;
pub mod tenants;

pub use report::Report;
pub use spec::{JobSpec, Rw};
pub use tenants::{run_tenants, Tenant};

use afc_common::rng::{child_seed, seeded};
use afc_common::{BlockTarget, Histogram, IopsSampler};
use rand::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Execute `spec` against `target`. Blocks until the job's runtime (or op
/// limit) elapses and returns the aggregated report.
pub fn run(spec: &JobSpec, target: &(impl BlockTarget + ?Sized)) -> Report {
    let span = spec.span.unwrap_or_else(|| target.size());
    assert!(span >= spec.bs, "target smaller than block size");
    let threads = spec.numjobs * spec.iodepth.max(1);
    let stop = AtomicBool::new(false);
    let sampler = IopsSampler::new();
    let errors = AtomicU64::new(0);
    let total_ops = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + spec.runtime;
    let lat = Histogram::new();
    std::thread::scope(|s| {
        for t in 0..threads {
            let stop = &stop;
            let sampler = &sampler;
            let errors = &errors;
            let total_ops = &total_ops;
            let lat = &lat;
            s.spawn(move || {
                worker(
                    spec, target, t, span, deadline, stop, sampler, errors, total_ops, lat,
                )
            });
        }
        // Sampling loop on the coordinating thread.
        if let Some(interval) = spec.sample_interval {
            while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                std::thread::sleep(
                    interval.min(deadline.saturating_duration_since(Instant::now())),
                );
                sampler.sample();
            }
        }
    });
    let elapsed = start.elapsed();
    let ops = total_ops.load(Ordering::Relaxed);
    Report {
        ops,
        errors: errors.load(Ordering::Relaxed),
        runtime: elapsed,
        bs: spec.bs,
        lat: lat.snapshot(),
        series: sampler.series(),
        label: spec.label.clone(),
    }
}

#[allow(clippy::too_many_arguments)]
fn worker(
    spec: &JobSpec,
    target: &(impl BlockTarget + ?Sized),
    thread_idx: usize,
    span: u64,
    deadline: Instant,
    stop: &AtomicBool,
    sampler: &IopsSampler,
    errors: &AtomicU64,
    total_ops: &AtomicU64,
    lat: &Histogram,
) {
    let mut rng = seeded(child_seed(spec.seed, thread_idx as u64));
    let blocks = span / spec.bs;
    let threads = (spec.numjobs * spec.iodepth.max(1)) as u64;
    // Sequential jobs partition the span so streams don't collide.
    let part = (blocks / threads.max(1)).max(1);
    let mut seq_cursor = thread_idx as u64 * part % blocks;
    let buf = vec![0xa5u8; spec.bs as usize];
    let mut ops_done = 0u64;
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        if let Some(limit) = spec.io_limit {
            if ops_done >= limit {
                break;
            }
        }
        let is_read = match spec.rw {
            Rw::RandRead | Rw::SeqRead => true,
            Rw::RandWrite | Rw::SeqWrite => false,
            Rw::RandRw { read_pct } => rng.random_range(0..100) < read_pct,
        };
        let block = match spec.rw {
            Rw::RandWrite | Rw::RandRead | Rw::RandRw { .. } => rng.random_range(0..blocks),
            Rw::SeqWrite | Rw::SeqRead => {
                let b = seq_cursor;
                seq_cursor = (seq_cursor + 1) % blocks;
                b
            }
        };
        let off = block * spec.bs;
        let t0 = Instant::now();
        let res = if is_read {
            target.read_at(off, spec.bs as usize).map(|_| ())
        } else {
            target.write_at(off, &buf)
        };
        match res {
            Ok(()) => {
                lat.observe(t0.elapsed());
                sampler.tick(1);
                total_ops.fetch_add(1, Ordering::Relaxed);
                ops_done += 1;
            }
            Err(_) => {
                errors.fetch_add(1, Ordering::Relaxed);
                if errors.load(Ordering::Relaxed) > 100 {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::blocktarget::MemBlockTarget;
    use afc_common::KIB;
    use std::time::Duration;

    fn quick(rw: Rw) -> JobSpec {
        JobSpec::new(rw)
            .bs(4 * KIB)
            .numjobs(2)
            .iodepth(2)
            .runtime(Duration::from_millis(100))
            .seed(7)
    }

    #[test]
    fn random_write_reports_ops_and_latency() {
        let t = MemBlockTarget::new(1 << 20);
        let r = run(&quick(Rw::RandWrite), &t);
        assert!(r.ops > 100, "ops={}", r.ops);
        assert_eq!(r.errors, 0);
        assert!(r.iops() > 0.0);
        assert!(r.lat.count == r.ops);
        assert!(r.bandwidth() > 0.0);
    }

    #[test]
    fn sequential_read_covers_span() {
        let t = MemBlockTarget::new(256 * KIB);
        let spec = JobSpec::new(Rw::SeqRead)
            .bs(4 * KIB)
            .numjobs(1)
            .runtime(Duration::from_millis(50))
            .seed(1);
        let r = run(&spec, &t);
        assert!(r.ops >= 64, "should wrap the span: {}", r.ops);
    }

    #[test]
    fn io_limit_caps_work() {
        let t = MemBlockTarget::new(1 << 20);
        let spec = quick(Rw::RandRead)
            .io_limit(10)
            .runtime(Duration::from_secs(5));
        let t0 = Instant::now();
        let r = run(&spec, &t);
        assert_eq!(r.ops, 4 * 10);
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn mixed_workload_runs() {
        let t = MemBlockTarget::new(1 << 20);
        let r = run(&quick(Rw::RandRw { read_pct: 50 }), &t);
        assert!(r.ops > 0);
    }

    #[test]
    fn sampling_produces_series() {
        let t = MemBlockTarget::new(1 << 20);
        let spec = quick(Rw::RandWrite)
            .runtime(Duration::from_millis(120))
            .sample_interval(Duration::from_millis(20));
        let r = run(&spec, &t);
        assert!(r.series.len() >= 3, "series={}", r.series.len());
        assert!(r.series.mean() > 0.0);
    }

    #[test]
    fn deterministic_offsets_given_seed() {
        // Two runs with the same seed and an op limit issue identical ops.
        struct Recorder(parking_lot::Mutex<Vec<u64>>);
        impl BlockTarget for Recorder {
            fn size(&self) -> u64 {
                1 << 20
            }
            fn read_at(&self, off: u64, len: usize) -> afc_common::Result<Vec<u8>> {
                self.0.lock().push(off);
                Ok(vec![0; len])
            }
            fn write_at(&self, off: u64, _d: &[u8]) -> afc_common::Result<()> {
                self.0.lock().push(off);
                Ok(())
            }
        }
        let spec = JobSpec::new(Rw::RandWrite)
            .bs(4 * KIB)
            .numjobs(1)
            .io_limit(50)
            .runtime(Duration::from_secs(5))
            .seed(42);
        let a = Recorder(parking_lot::Mutex::new(Vec::new()));
        run(&spec, &a);
        let b = Recorder(parking_lot::Mutex::new(Vec::new()));
        run(&spec, &b);
        assert_eq!(*a.0.lock(), *b.0.lock());
    }

    #[test]
    fn errors_abort_after_threshold() {
        struct Failing;
        impl BlockTarget for Failing {
            fn size(&self) -> u64 {
                1 << 20
            }
            fn read_at(&self, _o: u64, _l: usize) -> afc_common::Result<Vec<u8>> {
                Err(afc_common::AfcError::Io("boom".into()))
            }
            fn write_at(&self, _o: u64, _d: &[u8]) -> afc_common::Result<()> {
                Err(afc_common::AfcError::Io("boom".into()))
            }
        }
        let spec = quick(Rw::RandWrite).runtime(Duration::from_secs(10));
        let t0 = Instant::now();
        let r = run(&spec, &Failing);
        assert!(r.errors > 100);
        assert_eq!(r.ops, 0);
        assert!(t0.elapsed() < Duration::from_secs(5), "did not abort");
    }
}
