//! Device timing models for `afcstore`.
//!
//! The paper's evaluation runs on real SATA3 SSDs (filestore) and PMC NVRAM
//! (journal). We do not have that hardware, so this crate provides *timing
//! models*: a device computes a service time from its internal state
//! (channel occupancy, clean/sustained flash state, read/write
//! interference) and hands out the
//! instant the request completes. No thread has to sleep for it: the
//! caller carries the instant on — into the next request of the same
//! chain, onto a message stamped to leave then, into a throttle permit
//! released then — and only a caller that must observe the completion
//! itself waits it out. That keeps what the paper studies (queue backlogs,
//! throttle interactions, lock-hold times around a device wait that a
//! caller does take) without a thread standing in for every queue slot.
//!
//! Design notes:
//!
//! - [`BlockDev::plan_at`] reserves time on an internal channel, starting
//!   no earlier than a not-before instant, and returns the completion
//!   instant *without sleeping*. A request that follows another of the same
//!   chain (the ops of one filestore apply) is planned from the completion
//!   of the one before it, so the chain takes the modeled time it would
//!   take a thread issuing them one by one. [`BlockDev::plan`] plans from
//!   now; [`BlockDev::submit`] plans and waits ([`afc_common::timeutil`]'s
//!   calibrated wait, booked to the device's [`BlockDev::wait_class`]) —
//!   left to the kvstore's compaction thread and the SolidFire baseline.
//!   RAID-0 plans all stripe segments up front and completes at the
//!   latest, so striped I/O genuinely overlaps with zero helper threads.
//! - Devices store no data — data lives in the layers above (page cache,
//!   journal buffer, memtables). Devices account bytes and time only.
//! - All jitter is deterministic (seeded), so runs are reproducible.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub mod ftl;
pub mod nvram;
pub mod plan;
pub mod raid;
pub mod ssd;
pub mod stats;

pub use ftl::{Ftl, FtlConfig};
pub use nvram::{Nvram, NvramConfig};
pub use raid::Raid0;
pub use ssd::{Ssd, SsdConfig, SsdState};

use afc_common::faults::{FaultKind, FaultRegistry, FaultSite, Io};
use afc_common::{wait_until, AfcError, Result, WaitClass};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The kind of a device request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Read `len` bytes.
    Read,
    /// Write `len` bytes.
    Write,
    /// Barrier/flush (drains device write state).
    Flush,
}

/// Write-stream tag: which logical producer a write belongs to.
///
/// Multi-stream SSDs (T10 streams / NVMe directives) let the host segregate
/// writes by expected lifetime so the FTL never mixes short-lived journal
/// pages with long-lived cold data in one erase block — the lifetime mixing
/// that forces GC to copy live pages. Every producer in the stack tags its
/// writes; the SSD model maps each stream to its own allocation group when
/// `streams_enabled` is set (and ignores the tag otherwise, reproducing the
/// community mixed-stream behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// OSD journal ring writes (shortest lifetime: trimmed after apply).
    Journal,
    /// KV store write-ahead-log appends (trimmed at memtable flush).
    KvWal,
    /// KV compaction / table-flush output (medium lifetime, sequential).
    KvCompaction,
    /// Filestore metadata (xattrs, allocation hints).
    Meta,
    /// Frequently overwritten object data (per-object heat tracker).
    DataHot,
    /// Rarely overwritten object data. Also the default for untagged I/O
    /// (legacy constructors, tests, non-stream-aware callers): cold data is
    /// the conservative guess — it never steals room from the short-lived
    /// streams.
    DataCold,
}

impl StreamId {
    /// All streams, in allocation-group order.
    pub const ALL: [StreamId; 6] = [
        StreamId::Journal,
        StreamId::KvWal,
        StreamId::KvCompaction,
        StreamId::Meta,
        StreamId::DataHot,
        StreamId::DataCold,
    ];

    /// Stable index (allocation-group slot, metrics array slot).
    pub fn index(&self) -> usize {
        match self {
            StreamId::Journal => 0,
            StreamId::KvWal => 1,
            StreamId::KvCompaction => 2,
            StreamId::Meta => 3,
            StreamId::DataHot => 4,
            StreamId::DataCold => 5,
        }
    }

    /// Metric-name segment (`osd0.data.stream.<this>.bytes`).
    pub fn metric_name(&self) -> &'static str {
        match self {
            StreamId::Journal => "journal",
            StreamId::KvWal => "kv_wal",
            StreamId::KvCompaction => "kv_compaction",
            StreamId::Meta => "meta",
            StreamId::DataHot => "hot",
            StreamId::DataCold => "cold",
        }
    }
}

/// A single device request.
#[derive(Debug, Clone, Copy)]
pub struct IoReq {
    /// Request kind.
    pub kind: IoKind,
    /// Byte offset on the device.
    pub offset: u64,
    /// Length in bytes (0 allowed only for `Flush`).
    pub len: u32,
    /// Write-stream tag (meaningful for writes; ignored for reads/flushes).
    pub stream: StreamId,
}

impl IoReq {
    /// A read request.
    pub fn read(offset: u64, len: u32) -> Self {
        IoReq {
            kind: IoKind::Read,
            offset,
            len,
            stream: StreamId::DataCold,
        }
    }

    /// A write request with no stream tag (defaults to [`StreamId::DataCold`]),
    /// for this crate's unit tests only.
    #[cfg(test)]
    pub(crate) fn write(offset: u64, len: u32) -> Self {
        IoReq {
            kind: IoKind::Write,
            offset,
            len,
            stream: StreamId::DataCold,
        }
    }

    /// A write request tagged with the producer's stream. There is no
    /// untagged write constructor outside this crate's unit tests: a
    /// producer that forgot its stream would silently re-mix lifetimes
    /// into the cold-data erase blocks.
    ///
    /// ```compile_fail
    /// afc_device::IoReq::write(0, 4096);
    /// ```
    pub fn write_stream(offset: u64, len: u32, stream: StreamId) -> Self {
        IoReq {
            kind: IoKind::Write,
            offset,
            len,
            stream,
        }
    }

    /// A flush request.
    pub fn flush() -> Self {
        IoReq {
            kind: IoKind::Flush,
            offset: 0,
            len: 0,
            stream: StreamId::DataCold,
        }
    }
}

/// Outcome of planning a request: when it completes and how long the device
/// itself is busy servicing it (excluding queue wait).
#[derive(Debug, Clone, Copy)]
pub struct IoPlan {
    /// Instant at which the request completes.
    pub completion: Instant,
    /// Pure service time (queue wait excluded).
    pub service: Duration,
}

/// A block device timing model.
pub trait BlockDev: Send + Sync {
    /// Device capacity in bytes.
    fn capacity(&self) -> u64;

    /// Reserve device time for `req`, starting no earlier than
    /// `not_before`, and return its completion plan without blocking.
    /// Accounting (byte/op counters) happens here. `not_before` may lie in
    /// the past: a request planned late keeps the modeled start it was
    /// due.
    fn plan_at(&self, req: IoReq, not_before: Instant) -> Result<IoPlan>;

    /// [`Self::plan_at`] from now.
    fn plan(&self, req: IoReq) -> Result<IoPlan> {
        self.plan_at(req, Instant::now())
    }

    /// Submit `req`, blocking the calling thread until the modeled
    /// completion. Returns total request latency (queue wait + service).
    fn submit(&self, req: IoReq) -> Result<Duration> {
        let start = Instant::now();
        let plan = self.plan(req)?;
        wait_until(self.wait_class(), plan.completion);
        Ok(start.elapsed())
    }

    /// The ledger row this device's modeled waits are booked to.
    fn wait_class(&self) -> WaitClass {
        WaitClass::Ssd
    }

    /// Human-readable model name for reports.
    fn model(&self) -> &str;
}

/// Per-device fault-injection hook: an optional [`FaultRegistry`] attached
/// at a device [`FaultSite`], which drives kind-aware faults (errors, latency
/// spikes, torn writes) from a deterministic
/// [`afc_common::faults::FaultPlan`]. Unattached or disarmed, the check
/// costs one atomic load.
#[derive(Debug, Default)]
pub struct FaultInjector {
    registry: OnceLock<(Arc<FaultRegistry>, FaultSite)>,
}

impl FaultInjector {
    /// Create an injector with no pending faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a fault registry at `site`, a `Journal` or `Data` site with
    /// no verb. Specs may target the bare site (all I/O) or one verb.
    /// A second attach is ignored (first one wins).
    pub fn attach(&self, registry: Arc<FaultRegistry>, site: FaultSite) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "first attach wins: a second registry is ignored"
        )]
        let _ = self.registry.set((registry, site));
    }

    /// Consult the attached registry for `req`. `Ok(Some(d))` asks the caller
    /// to stretch the request's service time by `d` (latency spike);
    /// `Err(..)` fails the request — [`AfcError::TornWrite`] for torn
    /// writes, [`AfcError::Io`] otherwise.
    pub fn check(&self, req: &IoReq) -> Result<Option<Duration>> {
        let Some((reg, site)) = self.registry.get() else {
            return Ok(None);
        };
        let io = match req.kind {
            IoKind::Read => Io::Read,
            IoKind::Write => Io::Write,
            IoKind::Flush => Io::Flush,
        };
        match reg.check_io(*site, io) {
            // `FaultSpec::new` rejects a `Drop` or `Duplicate` at a device site.
            None | Some(FaultKind::Drop) | Some(FaultKind::Duplicate) => Ok(None),
            Some(FaultKind::Delay(d)) => Ok(Some(d)),
            Some(FaultKind::Torn) if req.kind == IoKind::Write => Err(AfcError::TornWrite(
                format!("injected torn write at {site}"),
            )),
            Some(FaultKind::Torn) | Some(FaultKind::Error) => {
                Err(AfcError::Io(format!("injected fault at {site}")))
            }
        }
    }
}

/// Validate a request against a capacity. Flushes are always valid.
pub(crate) fn validate(req: &IoReq, capacity: u64) -> Result<()> {
    if req.kind == IoKind::Flush {
        return Ok(());
    }
    if req.len == 0 {
        return Err(AfcError::InvalidArgument("zero-length device I/O".into()));
    }
    if req
        .offset
        .checked_add(req.len as u64)
        .map(|e| e > capacity)
        .unwrap_or(true)
    {
        return Err(AfcError::InvalidArgument(format!(
            "device I/O [{}, +{}) beyond capacity {}",
            req.offset, req.len, capacity
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_spec_fails_n_requests_of_any_kind() {
        use afc_common::faults::FaultSpec;
        let f = FaultInjector::new();
        let r = IoReq::read(0, 4096);
        assert!(f.check(&r).is_ok(), "unattached: free pass");
        let reg = Arc::new(FaultRegistry::new());
        let dev0 = FaultSite::Data { osd: 0, io: None };
        f.attach(Arc::clone(&reg), dev0);
        reg.install(FaultSpec::new(dev0, FaultKind::Error).times(2));
        assert!(matches!(f.check(&r), Err(AfcError::Io(_))));
        assert!(f.check(&IoReq::flush()).is_err());
        assert!(f.check(&r).is_ok());
        assert_eq!(reg.hits(dev0), 2);
    }

    #[test]
    fn registry_driven_faults_by_kind() {
        use afc_common::faults::{FaultKind, FaultRegistry, FaultSpec};
        let f = FaultInjector::new();
        let reg = Arc::new(FaultRegistry::new());
        f.attach(Arc::clone(&reg), FaultSite::Data { osd: 0, io: None });
        // Disarmed registry: free pass.
        assert_eq!(f.check(&IoReq::write(0, 512)).unwrap(), None);
        let write = FaultSite::Data {
            osd: 0,
            io: Some(Io::Write),
        };
        reg.install(FaultSpec::new(write, FaultKind::Torn).forever());
        reg.install(FaultSpec::new(
            FaultSite::Data {
                osd: 0,
                io: Some(Io::Read),
            },
            FaultKind::Delay(Duration::from_millis(3)),
        ));
        let torn = f.check(&IoReq::write(0, 512)).unwrap_err();
        assert!(matches!(torn, AfcError::TornWrite(_)), "{torn}");
        assert_eq!(
            f.check(&IoReq::read(0, 512)).unwrap(),
            Some(Duration::from_millis(3))
        );
        // Torn spec targets writes only; reads pass once the delay spec is spent.
        assert_eq!(f.check(&IoReq::read(0, 512)).unwrap(), None);
        assert!(reg.hits(write) >= 1);
    }

    #[test]
    fn stream_tags_and_defaults() {
        assert_eq!(IoReq::write(0, 4096).stream, StreamId::DataCold);
        assert_eq!(
            IoReq::write_stream(0, 4096, StreamId::Journal).stream,
            StreamId::Journal
        );
        // Indexes are a permutation of 0..6 and metric names are unique.
        let mut seen = [false; 6];
        let mut names = std::collections::HashSet::new();
        for s in StreamId::ALL {
            seen[s.index()] = true;
            names.insert(s.metric_name());
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn validate_rejects_bad_ranges() {
        assert!(validate(&IoReq::read(0, 0), 100).is_err());
        assert!(validate(&IoReq::read(90, 20), 100).is_err());
        assert!(validate(&IoReq::write(u64::MAX, 1), 100).is_err());
        assert!(validate(&IoReq::read(0, 100), 100).is_ok());
        assert!(validate(&IoReq::flush(), 100).is_ok());
    }
}
