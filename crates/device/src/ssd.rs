//! Flash SSD timing model.
//!
//! Captures the flash behaviours the paper's optimizations depend on:
//!
//! - **Internal parallelism**: `channels` concurrent operations (NAND planes
//!   behind the SATA controller). This is what coarse-grained PG locking
//!   wastes and the pending queue recovers.
//! - **Clean vs. sustained state** (§4.1): once the drive has been filled,
//!   writes pay garbage-collection overhead — a service-time multiplier plus
//!   GC stalls driven by a small FTL model ([`crate::ftl`]): free-block
//!   pressure selects a victim erase block and the live pages copied out of
//!   it are charged to the triggering write. Multi-stream separation
//!   ([`crate::StreamId`], `SsdConfig::with_streams`) gives each write
//!   stream its own allocation group so short-lived blocks die wholesale
//!   and GC copies less. Figure 9 uses clean drives, Figures 10/11
//!   sustained (pre-aged FTL).
//! - **Read/write interference** (§3.4, citing FIOS): a read serviced while
//!   writes are in flight takes a latency penalty. The light-weight
//!   transaction's write-through metadata cache exists to keep metadata
//!   *reads* out of the write path because of exactly this effect.
//! - **Bandwidth cap**: large transfers are dominated by `len / bandwidth`.

use crate::ftl::{Ftl, FtlConfig};
use crate::plan::ChannelPool;
use crate::stats::StatsCell;
use crate::{validate, BlockDev, FaultInjector, IoKind, IoPlan, IoReq};
use afc_common::rng::mix64;
use afc_common::{Result, GIB, MIB};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Flash wear state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsdState {
    /// Freshly trimmed drive: writes at full speed.
    Clean,
    /// Steady-state drive: writes pay GC overhead and stalls.
    Sustained,
}

/// SSD model parameters.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Internal parallelism (concurrent in-flight operations).
    pub channels: usize,
    /// Base 4K-read service time.
    pub read_base: Duration,
    /// Base 4K-write service time in the clean state.
    pub write_base: Duration,
    /// Sequential read bandwidth (bytes/sec) for the transfer component.
    pub read_bw: u64,
    /// Sequential write bandwidth (bytes/sec) for the transfer component.
    pub write_bw: u64,
    /// Multiplier applied to write service time in the sustained state.
    pub sustained_write_factor: f64,
    /// Flash-translation-layer model (allocation groups, valid-page
    /// accounting, pressure-driven GC).
    pub ftl: FtlConfig,
    /// Extra latency for a read issued while a write is in flight.
    pub rw_interference: Duration,
    /// Deterministic jitter amplitude as a fraction of service time (0..1).
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Initial wear state.
    pub state: SsdState,
}

impl SsdConfig {
    /// A SATA3 consumer-ish SSD like the paper's testbed drives.
    pub fn sata3() -> Self {
        SsdConfig {
            capacity: 512 * GIB,
            channels: 8,
            read_base: Duration::from_micros(90),
            write_base: Duration::from_micros(70),
            read_bw: 500 * MIB,
            write_bw: 450 * MIB,
            sustained_write_factor: 3.0,
            rw_interference: Duration::from_micros(250),
            jitter: 0.10,
            seed: 0x55d_f1a5,
            state: SsdState::Clean,
            ftl: FtlConfig::default(),
        }
    }

    /// Same drive, pre-aged to the sustained state.
    pub fn sata3_sustained() -> Self {
        SsdConfig {
            state: SsdState::Sustained,
            ..Self::sata3()
        }
    }

    /// Set the capacity (builder style).
    #[must_use]
    pub fn with_capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }

    /// Set the jitter seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable/disable multi-stream write separation (builder style).
    #[must_use]
    pub fn with_streams(mut self, on: bool) -> Self {
        self.ftl.streams_enabled = on;
        self
    }
}

/// A flash SSD timing model. See the module docs for the modeled effects.
pub struct Ssd {
    cfg: SsdConfig,
    pool: ChannelPool,
    stats: StatsCell,
    faults: FaultInjector,
    state: AtomicU8,
    op_seq: AtomicU64,
    /// The flash-translation layer: page mapping, allocation groups and
    /// pressure-driven GC. Every write consults it; GC copy-forward work
    /// is charged into that write's service time.
    ftl: Mutex<Ftl>,
    /// Completion instant of the most recently planned write; a read issued
    /// before this instant counts as interfered.
    last_write_end: Mutex<Instant>,
}

impl Ssd {
    /// Build an SSD from `cfg`. A drive starting in the sustained state
    /// gets a pre-aged (fragmented, low-free-space) FTL so GC pressure is
    /// present from the first write.
    pub fn new(cfg: SsdConfig) -> Self {
        let state = match cfg.state {
            SsdState::Clean => 0,
            SsdState::Sustained => 1,
        };
        let mut ftl = Ftl::new(cfg.ftl.clone());
        if cfg.state == SsdState::Sustained {
            ftl.pre_age(cfg.seed);
        }
        Ssd {
            pool: ChannelPool::new(cfg.channels),
            stats: StatsCell::new(),
            faults: FaultInjector::new(),
            state: AtomicU8::new(state),
            op_seq: AtomicU64::new(0),
            ftl: Mutex::new(ftl),
            last_write_end: Mutex::new(Instant::now()),
            cfg,
        }
    }

    /// Current wear state.
    pub fn state(&self) -> SsdState {
        if self.state.load(Ordering::Relaxed) == 0 {
            SsdState::Clean
        } else {
            SsdState::Sustained
        }
    }

    /// Force the wear state (harnesses age drives between phases).
    pub fn set_state(&self, s: SsdState) {
        self.state
            .store(matches!(s, SsdState::Sustained) as u8, Ordering::Relaxed);
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

    /// Deterministic jitter multiplier in `[1-j, 1+j]` for op `n`.
    fn jitter_mul(&self, n: u64) -> f64 {
        if self.cfg.jitter == 0.0 {
            return 1.0;
        }
        let h = mix64(self.cfg.seed ^ n);
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        1.0 + self.cfg.jitter * (2.0 * unit - 1.0)
    }

    /// Service time of `req` issued at `issued`, and whether a read is
    /// interfered (issued before the latest planned write completes).
    fn service_time(&self, req: &IoReq, op_n: u64, issued: Instant) -> (Duration, bool) {
        let sustained = self.state() == SsdState::Sustained;
        match req.kind {
            IoKind::Read => {
                let xfer = Duration::from_secs_f64(req.len as f64 / self.cfg.read_bw as f64);
                let mut t = self.cfg.read_base + xfer;
                let interfered = {
                    let lw = self.last_write_end.lock();
                    issued < *lw
                };
                if interfered {
                    t += self.cfg.rw_interference;
                }
                (t.mul_f64(self.jitter_mul(op_n)), interfered)
            }
            IoKind::Write => {
                let xfer = Duration::from_secs_f64(req.len as f64 / self.cfg.write_bw as f64);
                let mut t = self.cfg.write_base + xfer;
                if sustained {
                    t = t.mul_f64(self.cfg.sustained_write_factor);
                }
                t = t.mul_f64(self.jitter_mul(op_n));
                // FTL accounting: remap the written pages and, under
                // free-block pressure, collect garbage — copied pages
                // stall *this* write (no jitter: GC cost is mechanical).
                let gc = self.ftl.lock().host_write(req.offset, req.len, req.stream);
                if gc.passes > 0 {
                    let copied_bytes = gc.copied_pages * self.cfg.ftl.page_size as u64;
                    self.stats.on_gc(gc.passes, copied_bytes);
                    t += self
                        .cfg
                        .ftl
                        .gc_page_cost
                        .saturating_mul(gc.copied_pages.min(u32::MAX as u64) as u32);
                }
                (t, false)
            }
            IoKind::Flush => (self.cfg.write_base, false),
        }
    }
}

impl BlockDev for Ssd {
    fn capacity(&self) -> u64 {
        self.cfg.capacity
    }

    fn plan_at(&self, req: IoReq, not_before: Instant) -> Result<IoPlan> {
        validate(&req, self.cfg.capacity)?;
        let spike = self.faults.check(&req)?.unwrap_or_default();
        let op_n = self.op_seq.fetch_add(1, Ordering::Relaxed);
        let (service, interfered) = self.service_time(&req, op_n, not_before);
        let service = service + spike;
        let completion = match req.kind {
            IoKind::Flush => self.pool.reserve_barrier(service, not_before),
            _ => self.pool.reserve(service, not_before),
        };
        match req.kind {
            IoKind::Read => self.stats.on_read(req.len as u64, service, interfered),
            IoKind::Write => {
                self.stats.on_write(req.len as u64, req.stream, service);
                let mut lw = self.last_write_end.lock();
                if completion > *lw {
                    *lw = completion;
                }
            }
            IoKind::Flush => self.stats.on_flush(service),
        }
        Ok(IoPlan {
            completion,
            service,
        })
    }

    fn model(&self) -> &str {
        "ssd-sata3"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::KIB;

    fn quiet(cfg: SsdConfig) -> SsdConfig {
        SsdConfig { jitter: 0.0, ..cfg }
    }

    #[test]
    fn small_read_takes_base_latency() {
        let ssd = Ssd::new(quiet(SsdConfig::sata3()));
        let lat = ssd.submit(IoReq::read(0, 4 * KIB as u32)).unwrap();
        assert!(lat >= Duration::from_micros(90), "lat={lat:?}");
        assert!(lat < Duration::from_millis(5), "lat={lat:?}");
    }

    #[test]
    fn sustained_writes_slower_than_clean() {
        let clean = Ssd::new(quiet(SsdConfig::sata3()));
        let aged = Ssd::new(quiet(SsdConfig::sata3_sustained()));
        let pc = clean.plan(IoReq::write(0, 4096)).unwrap();
        let pa = aged.plan(IoReq::write(0, 4096)).unwrap();
        assert!(
            pa.service >= pc.service.mul_f64(2.5),
            "clean={:?} aged={:?}",
            pc.service,
            pa.service
        );
    }

    #[test]
    fn gc_fires_under_free_block_pressure_not_on_a_modulo() {
        // A clean drive never collects while the modeled window has free
        // blocks — regardless of write count.
        let ssd = Ssd::new(quiet(SsdConfig::sata3()));
        for i in 0..64u64 {
            ssd.plan(IoReq::write(i * 4096, 4096)).unwrap();
        }
        assert_eq!(ssd.stats().gc_passes.get(), 0);
        // A pre-aged drive is already at the pressure threshold: writing a
        // couple of erase blocks' worth must trigger GC, and the copied
        // pages both stall the triggering write and show up in the stats.
        let aged = Ssd::new(quiet(SsdConfig::sata3_sustained()));
        let page = aged.cfg.ftl.page_size as u64;
        let ppb = aged.cfg.ftl.pages_per_block as u64;
        let mut max_service = Duration::ZERO;
        for i in 0..(4 * ppb) {
            let p = aged.plan(IoReq::write(i * page, page as u32)).unwrap();
            max_service = max_service.max(p.service);
        }
        let s = aged.stats();
        assert!(s.gc_passes.get() > 0, "pressure never triggered GC");
        assert!(s.gc_copied_bytes.get() > 0);
        assert!(s.flash_write_amplification() > 1.0);
        // Copy-forward stall is visible in service time: the worst write
        // paid well over the plain sustained-write service.
        let plain = Duration::from_micros(70).mul_f64(3.0);
        assert!(max_service > plain + Duration::from_micros(200));
    }

    #[test]
    fn stream_separation_drops_flash_wa_on_mixed_workload() {
        // Seed-pinned before/after: identical mixed journal+compaction
        // write sequences on two identically-seeded aged drives, the only
        // difference being `streams_enabled`. Separation must strictly
        // reduce GC copy-forward and device-level write amplification.
        let run = |streams: bool| {
            let cfg = quiet(SsdConfig::sata3_sustained())
                .with_seed(0x5eed_cafe)
                .with_streams(streams);
            let ssd = Ssd::new(cfg);
            let page = 4096u64;
            for i in 0..2048u64 {
                // Long-lived compaction output: sequential sweep.
                ssd.plan(IoReq::write_stream(
                    i * page,
                    page as u32,
                    crate::StreamId::KvCompaction,
                ))
                .unwrap();
                // Short-lived journal ring: 16 pages, rewritten constantly.
                ssd.plan(IoReq::write_stream(
                    (1 << 30) + (i % 16) * page,
                    page as u32,
                    crate::StreamId::Journal,
                ))
                .unwrap();
            }
            ssd
        };
        let (mixed, separated) = (run(false), run(true));
        let (mixed, separated) = (mixed.stats(), separated.stats());
        assert_eq!(mixed.bytes_written.get(), separated.bytes_written.get());
        // Per-stream accounting conserves bytes.
        for s in [mixed, separated] {
            let streams: u64 = s.stream_bytes.iter().map(|c| c.get()).sum();
            assert_eq!(streams, s.bytes_written.get());
        }
        assert!(
            separated.gc_copied_bytes.get() < mixed.gc_copied_bytes.get(),
            "separation did not reduce copy-forward: {} vs {}",
            separated.gc_copied_bytes.get(),
            mixed.gc_copied_bytes.get()
        );
        assert!(
            separated.flash_write_amplification() < mixed.flash_write_amplification(),
            "flash WA did not drop: {} vs {}",
            separated.flash_write_amplification(),
            mixed.flash_write_amplification()
        );
    }

    #[test]
    fn read_during_write_pays_interference() {
        let ssd = Ssd::new(quiet(SsdConfig::sata3()));
        // Plan a large write that keeps the device busy, then read.
        ssd.plan(IoReq::write(0, 8 * MIB as u32)).unwrap();
        let p = ssd.plan(IoReq::read(0, 4096)).unwrap();
        assert!(
            p.service >= Duration::from_micros(90 + 250),
            "service={:?}",
            p.service
        );
        assert_eq!(ssd.stats().interfered_reads.get(), 1);
        // A read after the write completes is clean.
        std::thread::sleep(Duration::from_millis(25));
        let p2 = ssd.plan(IoReq::read(0, 4096)).unwrap();
        assert!(p2.service < Duration::from_micros(90 + 250));
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let ssd = Ssd::new(quiet(SsdConfig::sata3()));
        // 4 MiB at 500 MiB/s ≈ 8 ms.
        let p = ssd.plan(IoReq::read(0, 4 * MIB as u32)).unwrap();
        assert!(p.service >= Duration::from_millis(7), "{:?}", p.service);
        assert!(p.service <= Duration::from_millis(12), "{:?}", p.service);
    }

    #[test]
    fn channels_allow_concurrency() {
        let mut cfg = quiet(SsdConfig::sata3());
        cfg.channels = 4;
        let ssd = Ssd::new(cfg);
        let t0 = Instant::now();
        let plans: Vec<IoPlan> = (0..4)
            .map(|i| ssd.plan(IoReq::read(i * 4096, 4096)).unwrap())
            .collect();
        for p in &plans {
            assert!(p.completion <= t0 + Duration::from_millis(2));
        }
        let p5 = ssd.plan(IoReq::read(0, 4096)).unwrap();
        assert!(p5.completion >= t0 + Duration::from_micros(170));
    }

    #[test]
    fn jitter_is_deterministic() {
        let a = Ssd::new(SsdConfig::sata3());
        let b = Ssd::new(SsdConfig::sata3());
        for i in 0..32 {
            let pa = a.plan(IoReq::read(i * 4096, 4096)).unwrap();
            let pb = b.plan(IoReq::read(i * 4096, 4096)).unwrap();
            assert_eq!(pa.service, pb.service);
        }
    }

    #[test]
    fn fault_injection_fails_plan() {
        use afc_common::faults::{FaultKind, FaultRegistry, FaultSite, FaultSpec};
        let ssd = Ssd::new(quiet(SsdConfig::sata3()));
        let reg = std::sync::Arc::new(FaultRegistry::new());
        let site = FaultSite::Data { osd: 0, io: None };
        ssd.faults().attach(std::sync::Arc::clone(&reg), site);
        reg.install(FaultSpec::new(site, FaultKind::Error).times(1));
        assert!(ssd.plan(IoReq::read(0, 4096)).is_err());
        assert!(ssd.plan(IoReq::read(0, 4096)).is_ok());
    }

    #[test]
    fn state_toggle() {
        let ssd = Ssd::new(quiet(SsdConfig::sata3()));
        assert_eq!(ssd.state(), SsdState::Clean);
        ssd.set_state(SsdState::Sustained);
        assert_eq!(ssd.state(), SsdState::Sustained);
    }

    #[test]
    fn stats_accumulate() {
        let ssd = Ssd::new(quiet(SsdConfig::sata3()));
        ssd.submit(IoReq::write(0, 4096)).unwrap();
        ssd.submit(IoReq::read(0, 4096)).unwrap();
        ssd.submit(IoReq::flush()).unwrap();
        let s = ssd.stats();
        assert_eq!((s.reads.get(), s.writes.get(), s.flushes.get()), (1, 1, 1));
        assert_eq!(s.bytes_written.get(), 4096);
        assert!(s.busy_us.get() > 0);
    }
}
