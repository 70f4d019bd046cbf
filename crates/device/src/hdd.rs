//! Rotating-disk timing model.
//!
//! The HDD is the design baseline Ceph was built for: a single actuator, so
//! one channel; random access pays seek + rotational latency while
//! near-sequential access streams at media bandwidth. The model exists so the
//! benchmark harnesses can demonstrate *why* the community defaults (batching,
//! HDD-sized throttles) made sense on spinning media, and how drop-in flash
//! replacement exposes the software stack instead.

use crate::plan::ChannelPool;
use crate::stats::StatsCell;
use crate::{validate, BlockDev, FaultInjector, IoKind, IoPlan, IoReq};
use afc_common::rng::mix64;
use afc_common::{Result, GIB, MIB};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// HDD model parameters.
#[derive(Debug, Clone)]
pub struct HddConfig {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Average seek + rotational latency for a random access.
    pub seek: Duration,
    /// Track-to-track settle for near-sequential access.
    pub settle: Duration,
    /// Offsets within this distance of the previous access count as
    /// sequential.
    pub seq_window: u64,
    /// Media bandwidth (bytes/sec).
    pub bandwidth: u64,
    /// Deterministic jitter amplitude (fraction of service time).
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl HddConfig {
    /// A 7200 RPM nearline disk.
    pub fn nearline_7k2() -> Self {
        HddConfig {
            capacity: 4096 * GIB,
            seek: Duration::from_millis(8),
            settle: Duration::from_micros(500),
            seq_window: 2 * MIB,
            bandwidth: 160 * MIB,
            jitter: 0.15,
            seed: 0xdd_c01d,
        }
    }
}

/// A rotating-disk timing model (single actuator, seek-sensitive).
pub struct Hdd {
    cfg: HddConfig,
    pool: ChannelPool,
    stats: StatsCell,
    faults: FaultInjector,
    op_seq: AtomicU64,
    last_offset: Mutex<u64>,
}

impl Hdd {
    /// Build an HDD from `cfg`.
    pub fn new(cfg: HddConfig) -> Self {
        Hdd {
            pool: ChannelPool::new(1),
            stats: StatsCell::new(),
            faults: FaultInjector::new(),
            op_seq: AtomicU64::new(0),
            last_offset: Mutex::new(0),
            cfg,
        }
    }

    /// Fault-injection handle.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// This device's activity counters.
    pub fn stats(&self) -> &StatsCell {
        &self.stats
    }

    /// Register this device's stat counters into a cluster metric
    /// registry under `<prefix>.<field>` (e.g. `osd0.data.writes`).
    pub fn register_metrics(&self, m: &afc_common::metrics::Metrics, prefix: &str) {
        self.stats.register_into(m, prefix);
    }

    fn jitter_mul(&self, n: u64) -> f64 {
        if self.cfg.jitter == 0.0 {
            return 1.0;
        }
        let h = mix64(self.cfg.seed ^ n);
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.cfg.jitter * (2.0 * unit - 1.0)
    }

    fn service_time(&self, req: &IoReq, op_n: u64) -> Duration {
        if req.kind == IoKind::Flush {
            return self.cfg.settle;
        }
        let positioning = {
            let mut last = self.last_offset.lock();
            let dist = req.offset.abs_diff(*last);
            *last = req.offset + req.len as u64;
            if dist <= self.cfg.seq_window {
                self.cfg.settle
            } else {
                self.cfg.seek
            }
        };
        let xfer = Duration::from_secs_f64(req.len as f64 / self.cfg.bandwidth as f64);
        (positioning + xfer).mul_f64(self.jitter_mul(op_n))
    }
}

impl BlockDev for Hdd {
    fn capacity(&self) -> u64 {
        self.cfg.capacity
    }

    fn plan_at(&self, req: IoReq, not_before: Instant) -> Result<IoPlan> {
        validate(&req, self.cfg.capacity)?;
        let spike = self.faults.check(&req)?.unwrap_or_default();
        let op_n = self.op_seq.fetch_add(1, Ordering::Relaxed);
        let service = self.service_time(&req, op_n) + spike;
        let completion = match req.kind {
            IoKind::Flush => self.pool.reserve_barrier(service, not_before),
            _ => self.pool.reserve(service, not_before),
        };
        match req.kind {
            IoKind::Read => self.stats.on_read(req.len as u64, service, false),
            IoKind::Write => self.stats.on_write(req.len as u64, req.stream, service),
            IoKind::Flush => self.stats.on_flush(service),
        }
        Ok(IoPlan {
            completion,
            service,
        })
    }

    fn model(&self) -> &str {
        "hdd-7k2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::KIB;

    fn quiet() -> HddConfig {
        HddConfig {
            jitter: 0.0,
            ..HddConfig::nearline_7k2()
        }
    }

    #[test]
    fn random_access_pays_seek() {
        let hdd = Hdd::new(quiet());
        // Jump far away: full seek.
        let p = hdd.plan(IoReq::read(100 * GIB, 4 * KIB as u32)).unwrap();
        assert!(p.service >= Duration::from_millis(8), "{:?}", p.service);
    }

    #[test]
    fn sequential_access_streams() {
        let hdd = Hdd::new(quiet());
        hdd.plan(IoReq::write(0, MIB as u32)).unwrap();
        // Next write is adjacent: only settle + transfer.
        let p = hdd.plan(IoReq::write(MIB, MIB as u32)).unwrap();
        assert!(p.service < Duration::from_millis(8), "{:?}", p.service);
    }

    #[test]
    fn single_actuator_serializes() {
        let hdd = Hdd::new(quiet());
        let p1 = hdd.plan(IoReq::read(0, 4096)).unwrap();
        let p2 = hdd.plan(IoReq::read(64 * GIB, 4096)).unwrap();
        assert!(p2.completion >= p1.completion + Duration::from_millis(7));
    }

    #[test]
    fn random_iops_are_low() {
        // 4K random reads spread over the disk: ~125 IOPS at 8 ms seek.
        let hdd = Hdd::new(quiet());
        let mut total = Duration::ZERO;
        for i in 0..20u64 {
            let off = (i * 37 % 100) * GIB;
            total += hdd.plan(IoReq::read(off, 4096)).unwrap().service;
        }
        let iops = 20.0 / total.as_secs_f64();
        assert!(iops < 200.0, "iops={iops}");
    }

    #[test]
    fn stats_and_faults() {
        use afc_common::faults::{FaultKind, FaultRegistry, FaultSpec};
        let hdd = Hdd::new(quiet());
        let reg = std::sync::Arc::new(FaultRegistry::new());
        hdd.faults().attach(std::sync::Arc::clone(&reg), "hdd0");
        reg.install(FaultSpec::new("hdd0", FaultKind::Error).times(1));
        assert!(hdd.plan(IoReq::read(0, 512)).is_err());
        hdd.plan(IoReq::write(0, 512)).unwrap();
        assert_eq!(hdd.stats().writes.get(), 1);
        assert_eq!(hdd.model(), "hdd-7k2");
    }
}
