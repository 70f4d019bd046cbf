//! Battery-backed NVRAM timing model (the paper's journal device).
//!
//! The testbed used an 8 GB PMC NVRAM card per node, shared by 4 OSDs (2 GB
//! of journal each). NVRAM writes are byte-addressable and complete in single-
//! digit microseconds, which is why the paper notes "throttle parameter for
//! journal has no impact because writing journal (NVRAM) is very fast".

use crate::plan::ChannelPool;
use crate::stats::StatsCell;
use crate::{validate, BlockDev, FaultInjector, IoKind, IoPlan, IoReq};
use afc_common::{Result, WaitClass, GIB};
use std::time::{Duration, Instant};

/// NVRAM model parameters.
#[derive(Debug, Clone)]
pub struct NvramConfig {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Concurrent in-flight operations.
    pub channels: usize,
    /// Fixed access latency.
    pub access: Duration,
    /// Transfer bandwidth (bytes/sec).
    pub bandwidth: u64,
}

impl NvramConfig {
    /// An 8 GB PCIe NVRAM card like the paper's PMC device.
    pub fn pmc_8g() -> Self {
        NvramConfig {
            capacity: 8 * GIB,
            channels: 16,
            access: Duration::from_micros(8),
            bandwidth: 2 * GIB,
        }
    }

    /// Set the capacity (builder style).
    #[must_use]
    pub fn with_capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }
}

/// Battery-backed NVRAM: microsecond access, deep parallelism.
pub struct Nvram {
    cfg: NvramConfig,
    pool: ChannelPool,
    stats: StatsCell,
    faults: FaultInjector,
}

impl Nvram {
    /// Build an NVRAM device from `cfg`.
    pub fn new(cfg: NvramConfig) -> Self {
        Nvram {
            pool: ChannelPool::new(cfg.channels),
            stats: StatsCell::new(),
            faults: FaultInjector::new(),
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
}

impl BlockDev for Nvram {
    fn capacity(&self) -> u64 {
        self.cfg.capacity
    }

    fn plan_at(&self, req: IoReq, not_before: Instant) -> Result<IoPlan> {
        validate(&req, self.cfg.capacity)?;
        let spike = self.faults.check(&req)?.unwrap_or_default();
        let xfer = Duration::from_secs_f64(req.len as f64 / self.cfg.bandwidth as f64);
        let service = self.cfg.access + xfer + spike;
        let completion = match req.kind {
            // A flush moves no bytes: `service` is the access time plus
            // any injected latency spike.
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
        "nvram-pmc8g"
    }

    fn wait_class(&self) -> WaitClass {
        WaitClass::Nvram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::KIB;

    #[test]
    fn writes_are_microsecond_scale() {
        let nv = Nvram::new(NvramConfig::pmc_8g());
        let p = nv.plan(IoReq::write(0, 4 * KIB as u32)).unwrap();
        assert!(p.service < Duration::from_micros(20), "{:?}", p.service);
    }

    #[test]
    fn much_faster_than_ssd_writes() {
        let nv = Nvram::new(NvramConfig::pmc_8g());
        let ssd = crate::Ssd::new(crate::SsdConfig {
            jitter: 0.0,
            ..crate::SsdConfig::sata3()
        });
        let pn = nv.plan(IoReq::write(0, 4096)).unwrap();
        let ps = ssd.plan(IoReq::write(0, 4096)).unwrap();
        assert!(ps.service > pn.service.mul_f64(3.0));
    }

    #[test]
    fn deep_parallelism() {
        let nv = Nvram::new(NvramConfig::pmc_8g());
        let t0 = std::time::Instant::now();
        for i in 0..16 {
            let p = nv.plan(IoReq::write(i * 4096, 4096)).unwrap();
            assert!(p.completion <= t0 + Duration::from_micros(200));
        }
    }

    #[test]
    fn capacity_enforced() {
        let nv = Nvram::new(NvramConfig::pmc_8g().with_capacity(1024));
        assert!(nv.plan(IoReq::write(1024, 1)).is_err());
        assert!(nv.plan(IoReq::write(0, 1024)).is_ok());
    }

    #[test]
    fn flush_is_barrier() {
        let nv = Nvram::new(NvramConfig::pmc_8g());
        let pw = nv.plan(IoReq::write(0, MIB_U32)).unwrap();
        let pf = nv.plan(IoReq::flush()).unwrap();
        assert!(pf.completion >= pw.completion);
        assert_eq!(nv.stats().flushes.get(), 1);
    }

    #[test]
    fn injected_delay_stretches_a_flush_too() {
        use afc_common::faults::{FaultKind, FaultRegistry, FaultSpec};
        let nv = Nvram::new(NvramConfig::pmc_8g());
        let reg = std::sync::Arc::new(FaultRegistry::new());
        nv.faults().attach(std::sync::Arc::clone(&reg), "jdev");
        let spike = Duration::from_millis(10);
        reg.install(FaultSpec::new("jdev.flush", FaultKind::Delay(spike)));
        let t0 = std::time::Instant::now();
        let pf = nv.plan(IoReq::flush()).unwrap();
        assert!(pf.completion >= t0 + spike, "the barrier ignored the spike");
        assert!(pf.service >= spike);
    }

    const MIB_U32: u32 = 1024 * 1024;
}
