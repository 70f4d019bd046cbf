//! Per-optimization switches (the Figure 9 ablation axis). §3.1's ordered
//! acks are not one: every PG answers its writes in order (`osd::ack`).

use afc_logging::LogMode;

/// Throttle sizing profile (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleProfile {
    /// Community defaults, sized for HDDs (`filestore_queue_max_ops` = 50,
    /// `osd_client_message_cap` = 100).
    Hdd,
    /// Retuned for flash: the paper picked ~30K IOPS per block device; we
    /// scale the op caps to keep the filestore, not the throttle, as the
    /// limiter.
    Ssd,
}

/// Memory allocator behaviour (§3.2).
///
/// The paper replaced tcmalloc with jemalloc because small-random workloads
/// hammer the allocator. We model the difference as the number of real heap
/// allocations the op path performs per request (buffers Ceph would
/// allocate and free around each op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocator {
    /// tcmalloc-like: more allocator churn per op under small random I/O.
    TcMalloc,
    /// jemalloc-like: pooled, little per-op churn.
    JeMalloc,
}

impl Allocator {
    /// Number of transient heap allocations the op path performs.
    pub fn allocs_per_op(&self) -> usize {
        match self {
            Allocator::TcMalloc => 48,
            Allocator::JeMalloc => 4,
        }
    }
}

/// The complete tuning vector for an OSD. Each field maps to one of the
/// paper's optimizations; [`OsdTuning::community`] and
/// [`OsdTuning::afceph`] are the two evaluated configurations, and the
/// `step_*` constructors reproduce Figure 9's cumulative steps.
#[derive(Debug, Clone)]
pub struct OsdTuning {
    /// §3.1: per-PG pending queue — op workers never block on a held PG
    /// lock; queued ops are drained in FIFO order by the lock holder.
    pub pending_queue: bool,
    /// §3.1: journal and filestore completion never touch a PG. Selects
    /// where every commit continuation runs, a primary's or a replica's:
    /// on, on the journal's write-group leader (queue the apply, then tell
    /// the op or send the `RepAck`), with no completion thread; off, on
    /// the OSD's one completion thread, which tells through the PG queue.
    pub dedicated_completion: bool,
    /// §3.1: replica acks are processed immediately instead of being
    /// enqueued behind data ops in the PG queue. Selects only what is
    /// taken on the sender's thread: the primary takes each `RepAck` on
    /// the replica's thread that sends it, the replica each `Replicate` on
    /// the primary's: the sub-op joins the replica PG's FIFO there and
    /// runs once that thread holds no PG lock, its record planned from the
    /// message's arrival. Off, both wait for their arrival on a delivery
    /// thread and go through the PG queue.
    pub fast_ack: bool,
    /// §3.2: throttle sizing.
    pub throttle: ThrottleProfile,
    /// §3.2: allocator behaviour.
    pub allocator: Allocator,
    /// §3.2: TCP Nagle on client/replication connections.
    pub nagle: bool,
    /// §3.3: debug-logging mode on the I/O path (`Off` is Figure 4's "No
    /// log"); the OSD logs at `Level::Trace` in that mode's preset.
    pub logging: LogMode,
    /// §3.4: light-weight transactions (dedup, batch KV, FD reuse, skip
    /// alloc hints on small writes, write-through metadata cache).
    pub lightweight_txn: bool,
    /// Primary-side replication sub-op timeout, milliseconds: a `Replicate`
    /// without a matching `RepAck` for this long is retransmitted (lost-ack
    /// recovery). Generous next to healthy in-process RTTs so it never
    /// fires outside fault injection.
    pub rep_resend_after_ms: u64,
    /// Retransmits per sub-op before the primary gives up and fails the
    /// client op with a typed `Timeout`.
    pub rep_max_resends: u32,
    /// Heartbeat ping interval, milliseconds. `0` disables the whole
    /// failure-detection / peering / recovery loop (the default: fixed
    /// topologies — most tests and benches — pay nothing for it).
    pub heartbeat_interval_ms: u64,
    /// Silence tolerated from a peer before this OSD reports it down to
    /// the monitor (Ceph's `osd_heartbeat_grace`).
    pub heartbeat_grace_ms: u64,
    /// Multi-stream write separation on the data SSDs: each write stream
    /// (KV WAL, KV compaction, metadata, hot/cold data) gets its own FTL
    /// allocation group, so short-lived pages never share erase blocks
    /// with cold data and GC copies less. Off = community mixed-stream
    /// placement.
    pub streams_enabled: bool,
    /// Per-volume QoS: dmClock-style reservation/limit scheduling of
    /// client ops at the OSD op queue (see `crate::qos`). Off = client
    /// ops dispatch in pure arrival order, tags ignored.
    pub qos_enabled: bool,
}

impl OsdTuning {
    /// Community Ceph 0.94 defaults.
    pub fn community() -> Self {
        OsdTuning {
            pending_queue: false,
            dedicated_completion: false,
            fast_ack: false,
            throttle: ThrottleProfile::Hdd,
            allocator: Allocator::TcMalloc,
            nagle: true,
            logging: LogMode::Blocking,
            lightweight_txn: false,
            rep_resend_after_ms: 150,
            rep_max_resends: 5,
            heartbeat_interval_ms: 0,
            heartbeat_grace_ms: 200,
            streams_enabled: false,
            qos_enabled: false,
        }
    }

    /// Fully optimized AFCeph.
    pub fn afceph() -> Self {
        OsdTuning {
            pending_queue: true,
            dedicated_completion: true,
            fast_ack: true,
            throttle: ThrottleProfile::Ssd,
            allocator: Allocator::JeMalloc,
            nagle: false,
            logging: LogMode::NonBlocking,
            lightweight_txn: true,
            rep_resend_after_ms: 150,
            rep_max_resends: 5,
            heartbeat_interval_ms: 0,
            heartbeat_grace_ms: 200,
            streams_enabled: true,
            qos_enabled: true,
        }
    }

    /// Enable the self-healing loop (heartbeats → peering → recovery)
    /// with the given ping interval.
    #[must_use]
    pub fn with_heartbeats(mut self, interval_ms: u64) -> Self {
        self.heartbeat_interval_ms = interval_ms;
        self
    }

    /// Figure 9 step 1: community + PG-lock minimization.
    pub fn step_lock_opt() -> Self {
        OsdTuning {
            pending_queue: true,
            dedicated_completion: true,
            fast_ack: true,
            ..Self::community()
        }
    }

    /// Figure 9 step 2: + throttle policy and system tuning.
    pub fn step_tuning() -> Self {
        OsdTuning {
            throttle: ThrottleProfile::Ssd,
            allocator: Allocator::JeMalloc,
            nagle: false,
            ..Self::step_lock_opt()
        }
    }

    /// Figure 9 step 3: + non-blocking logging.
    pub fn step_logging() -> Self {
        OsdTuning {
            logging: LogMode::NonBlocking,
            ..Self::step_tuning()
        }
    }

    /// Figure 9 step 4: + light-weight transactions (= AFCeph).
    pub fn step_lwt() -> Self {
        OsdTuning {
            lightweight_txn: true,
            ..Self::step_logging()
        }
    }

    /// `filestore_queue_max_ops` for the profile.
    pub fn filestore_queue_max_ops(&self) -> u64 {
        match self.throttle {
            ThrottleProfile::Hdd => 50,
            ThrottleProfile::Ssd => 5_000,
        }
    }

    /// `osd_client_message_cap` for the profile.
    pub fn client_message_cap(&self) -> u64 {
        match self.throttle {
            ThrottleProfile::Hdd => 100,
            ThrottleProfile::Ssd => 10_000,
        }
    }

    /// Human-readable label for tables.
    pub fn label(&self) -> &'static str {
        let all_opt = self.pending_queue
            && self.dedicated_completion
            && self.fast_ack
            && self.throttle == ThrottleProfile::Ssd
            && self.logging == LogMode::NonBlocking
            && self.lightweight_txn;
        let none_opt = !self.pending_queue
            && !self.dedicated_completion
            && !self.fast_ack
            && self.throttle == ThrottleProfile::Hdd
            && !self.lightweight_txn;
        if all_opt {
            "afceph"
        } else if none_opt {
            "community"
        } else {
            "custom"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_where_expected() {
        let c = OsdTuning::community();
        let a = OsdTuning::afceph();
        assert!(!c.pending_queue && a.pending_queue);
        assert!(c.nagle && !a.nagle);
        assert_eq!(c.logging, LogMode::Blocking);
        assert_eq!(a.logging, LogMode::NonBlocking);
        assert!(c.filestore_queue_max_ops() < a.filestore_queue_max_ops());
        assert!(c.client_message_cap() < a.client_message_cap());
        assert_eq!(c.label(), "community");
        assert_eq!(a.label(), "afceph");
        // The self-healing loop is opt-in; both profiles ship it disabled
        // and enabling it does not change the optimization label.
        assert_eq!(c.heartbeat_interval_ms, 0);
        assert_eq!(a.heartbeat_interval_ms, 0);
        assert_eq!(a.with_heartbeats(5).heartbeat_interval_ms, 5);
        assert_eq!(OsdTuning::afceph().with_heartbeats(5).label(), "afceph");
        let (c, a) = (OsdTuning::community(), OsdTuning::afceph());
        // Multi-stream separation ships on in afceph, off in community
        // (and does not affect the optimization label — it's a device
        // placement policy, not one of the Figure 9 steps).
        assert!(!c.streams_enabled && a.streams_enabled);
        // Per-volume QoS likewise: on in afceph, off in community, and
        // not part of the Figure 9 label.
        assert!(!c.qos_enabled && a.qos_enabled);
    }

    #[test]
    fn steps_are_cumulative() {
        let s1 = OsdTuning::step_lock_opt();
        assert!(s1.pending_queue && s1.nagle && s1.logging == LogMode::Blocking);
        let s2 = OsdTuning::step_tuning();
        assert!(s2.pending_queue && !s2.nagle && s2.throttle == ThrottleProfile::Ssd);
        let s3 = OsdTuning::step_logging();
        assert_eq!(s3.logging, LogMode::NonBlocking);
        assert!(!s3.lightweight_txn);
        let s4 = OsdTuning::step_lwt();
        assert!(s4.lightweight_txn);
        assert_eq!(s4.label(), "afceph");
        assert_eq!(s2.label(), "custom");
    }

    #[test]
    fn allocator_model() {
        assert!(Allocator::TcMalloc.allocs_per_op() > Allocator::JeMalloc.allocs_per_op());
    }
}
