//! The object storage daemon.
//!
//! One `Osd` owns a filestore (RAID-0 flash), a journal (NVRAM region), a
//! logger, PG structures and the op pipeline threads. The pipeline follows
//! Figure 2(b) of the paper, with every §3 optimization switchable through
//! [`OsdTuning`]:
//!
//! ```text
//! client ──▶ messenger dispatch ──▶ PG queue ──▶ OP_WQ worker (PG lock)
//!                                                │  pg-log append
//!                                                │  replicate ▶ replicas
//!                                                ▼  journal submit
//!                               journal writer ▶ commit ▶ finisher
//!             community: finisher takes PG lock, queues filestore (may
//!                        block on throttle), handles acks via PG queue
//!             afceph:    OP-lock bookkeeping + dedicated batching
//!                        completion worker; acks fast-pathed
//! ```

pub mod ack;
pub mod pg;
pub mod trace;
pub mod trim;

pub use trace::StageSample;

use crate::messages::{
    ClientOp, ClientReply, ObjectOp, OpOutcome, OsdMsg, PgInfoMsg, PgQueryMsg, PingMsg, PushOp,
    RepOp, RepOpReply,
};
use crate::monitor::{Monitor, SharedMap};
use crate::qos::{Deq, QosScheduler, QosTag};
use crate::tuning::OsdTuning;
use ack::{pg_shard, OrderedAcker, COMPLETION_SHARDS};
use afc_common::lockdep::{classes, TrackedCondvar, TrackedMutex, TrackedRwLock};
use afc_common::metrics::{Counter as MetricCounter, Gauge as MetricGauge, Metrics};
use afc_common::{AfcError, ClientId, ObjectId, OpId, OsdId, PgId, PoolId, Result};
use afc_crush::OsdMap;
use afc_device::BlockDev;
use afc_filestore::throttle::OwnedPermit;
use afc_filestore::{FileStore, FileStoreConfig, Throttle, Transaction, TxOp, TxnProfile};
use afc_journal::{Journal, JournalConfig};
use afc_logging::{Level, Logger};
use afc_messenger::{Addr, Dispatcher, Messenger, Network};
use bytes::Bytes;
use pg::{Pg, PgHealth, PgState};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use trace::{StageHists, StageRecorder, TraceTimes};
use trim::TrimTracker;

/// Parameters for spawning an OSD.
pub struct OsdParams {
    /// OSD id.
    pub id: OsdId,
    /// Tuning vector.
    pub tuning: OsdTuning,
    /// Data device (the OSD's RAID-0 flash set).
    pub data_dev: Arc<dyn BlockDev>,
    /// Journal device (NVRAM; may be shared across a node's OSDs).
    pub journal_dev: Arc<dyn BlockDev>,
    /// Journal ring capacity for this OSD (2 GiB in the paper's testbed).
    pub journal_capacity: u64,
    /// Shared, monitor-updated cluster map.
    pub map: SharedMap,
    /// The fabric.
    pub net: Arc<Network<OsdMsg>>,
    /// Monitor handle for failure reports and `pg_temp` requests. `None`
    /// disables the self-healing loop regardless of the tuning interval.
    pub monitor: Option<Arc<Monitor>>,
}

struct Progress {
    local_commit: bool,
    acks: usize,
    replied: bool,
}

/// An in-flight replicated write on the primary.
struct WriteOp {
    client: ClientId,
    op_id: OpId,
    reply_to: Addr,
    pg: Arc<Pg>,
    needed_acks: usize,
    progress: TrackedMutex<Progress>,
    permit: TrackedMutex<Option<OwnedPermit>>,
    trace: Option<TrackedMutex<TraceTimes>>,
    ack_lane: Option<u64>,
}

/// Primary-side record of one outstanding `Replicate`, kept until its
/// `RepAck` arrives. Carries everything needed to retransmit on timeout.
struct RepWait {
    op: Arc<WriteOp>,
    to: Addr,
    rep: RepOp,
    sent: Instant,
    resends: u32,
}

/// Primary-side record of one outstanding recovery `Push`, kept until its
/// ack (a `RepAck` carrying the push id) arrives. A push whose ack is
/// overdue is not retransmitted verbatim — the object is requeued into
/// `peer_missing` so the next pump pass pushes *fresh* data (a verbatim
/// resend could overwrite a newer push on the peer).
struct PushWait {
    pg: Arc<Pg>,
    peer: OsdId,
    object: String,
    gen: u64,
    sent: Instant,
}

/// Replica-side dedup window so a retransmitted (or network-duplicated)
/// `Replicate` is re-acked, never re-journaled/re-applied. Bounded FIFO.
/// Keyed by (primary addr, rep_id): rep_ids are only unique per primary.
struct RepSeen {
    /// (primary, rep_id) → committed? (false: journal submit in flight).
    state: HashMap<(Addr, u64), bool>,
    order: VecDeque<(Addr, u64)>,
}

impl RepSeen {
    /// Per completion shard; a shard only sees its own PGs' ids, so the
    /// effective window per primary matches the pre-sharding table.
    const CAP: usize = 8192;

    fn new() -> Self {
        RepSeen {
            state: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn insert(&mut self, key: (Addr, u64)) {
        self.state.insert(key, false);
        self.order.push_back(key);
        while self.order.len() > Self::CAP {
            if let Some(old) = self.order.pop_front() {
                self.state.remove(&old);
            }
        }
    }
}

/// Bits of a rep/push id reserved for the originating PG's completion
/// shard (see [`OsdInner::alloc_rep_id`]).
const SHARD_BITS: u32 = COMPLETION_SHARDS.trailing_zeros();

/// The completion shard a rep/push id routes to. Acks carry only the id,
/// so the shard must be recoverable from it alone: [`OsdInner::alloc_rep_id`]
/// stamps the PG's shard into the low bits at allocation.
#[inline]
fn rep_shard(rep_id: u64) -> usize {
    (rep_id as usize) & (COMPLETION_SHARDS - 1)
}

enum CompletionEvent {
    PrimaryCommit {
        op: Arc<WriteOp>,
        jseq: u64,
        txn: Transaction,
        /// The txn's journal encoding, shared (refcounted) with the
        /// journal entry — retained for `pending_apply` without a deep
        /// transaction clone.
        payload: Bytes,
        pg_seq: u64,
    },
    ReplicaCommit {
        pg: Arc<Pg>,
        jseq: u64,
        txn: Transaction,
        payload: Bytes,
        pg_seq: u64,
        primary: Addr,
        rep_id: u64,
    },
}

struct OpQueue {
    q: TrackedMutex<VecDeque<Arc<Pg>>>,
    cv: TrackedCondvar,
}

/// A tagged client op parked in the QoS scheduler: the PG it targets plus
/// the pipeline closure to run once the scheduler releases it. Dropping an
/// undispatched `ClientWork` (shutdown drain) drops the closure and with
/// it every captured resource — throttle permits, trace cells — so nothing
/// leaks when queued work is abandoned.
struct ClientWork {
    pg: Arc<Pg>,
    work: pg::PgWork,
}

/// Read gate: a read must not observe the filestore before every write to
/// its object that was *ordered before it* (journal-acked but not yet
/// applied) has landed — Ceph's per-object sequencer behaviour that keeps
/// read-after-acked-write strongly consistent. Writes ordered after the
/// read do not delay it (no starvation under mixed workloads).
struct ApplyGate {
    objects: TrackedMutex<HashMap<String, (u64, u64)>>, // object → (enqueued, applied)
    cv: TrackedCondvar,
}

impl ApplyGate {
    fn new() -> Self {
        ApplyGate {
            objects: TrackedMutex::new(&classes::APPLY_GATE, HashMap::new()),
            cv: TrackedCondvar::new(),
        }
    }

    /// A write to `object` entered the pipeline.
    fn add(&self, object: &str) {
        self.objects
            .lock()
            .entry(object.to_string())
            .or_insert((0, 0))
            .0 += 1;
    }

    /// A write to `object` finished applying (no-op for untracked objects,
    /// e.g. replica-side applies that serve no reads).
    fn done(&self, object: &str) {
        let mut st = self.objects.lock();
        if let Some(e) = st.get_mut(object) {
            e.1 += 1;
            if e.1 >= e.0 {
                st.remove(object);
            }
            drop(st);
            self.cv.notify_all();
        }
    }

    /// Current enqueue watermark for `object` (None: nothing pending).
    fn snapshot(&self, object: &str) -> Option<u64> {
        self.objects.lock().get(object).map(|e| e.0)
    }

    /// Wait until applies for `object` reach `target` (from [`Self::snapshot`]).
    fn wait_target(&self, object: &str, target: Option<u64>) {
        let Some(target) = target else { return };
        let mut st = self.objects.lock();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match st.get(object) {
                Some(&(_, applied)) if applied < target => {
                    if self.cv.wait_until(&mut st, deadline).timed_out() {
                        return; // fail open: a wedged apply must not hang reads
                    }
                }
                _ => return, // caught up or entry retired
            }
        }
    }

    /// Wait until every write enqueued *before now* has applied.
    fn wait_ordered(&self, object: &str) {
        self.wait_target(object, self.snapshot(object));
    }

    /// Drop all gate state and release every waiter (crash simulation:
    /// the gate is volatile bookkeeping).
    fn reset(&self) {
        self.objects.lock().clear();
        self.cv.notify_all();
    }
}

/// A read handed off to the disk-reader pool (§3.1/§4.3: with the pending
/// queue, "the read requests of other PG can be processed without delay" —
/// reads leave the PG pipeline once ordered and execute off the op worker).
struct ReadJob {
    from: Addr,
    op_id: OpId,
    obj_name: String,
    offset: u64,
    len: u32,
    permit: OwnedPermit,
    gate_target: Option<u64>,
}

struct OsdInner {
    id: OsdId,
    tuning: OsdTuning,
    logger: Arc<Logger>,
    store: Arc<FileStore>,
    journal: Arc<Journal>,
    msgr: OnceLock<Messenger<OsdMsg>>,
    map: SharedMap,
    monitor: Option<Arc<Monitor>>,
    pgs: TrackedRwLock<HashMap<PgId, Arc<Pg>>>,
    opq: OpQueue,
    /// Per-volume QoS scheduler for *client* ops (reservation-first +
    /// token-bucket limits; see `crate::qos`). Internal traffic —
    /// replication, acks, recovery, peering — bypasses it via the plain
    /// `opq`, which workers always drain first. Consulted only when
    /// `tuning.qos_enabled`.
    qos: QosScheduler<ClientWork>,
    client_throttle: Arc<Throttle>,
    /// Outstanding `Replicate` sub-ops, sharded by the rep id's embedded
    /// PG shard so acks for different PG shards never contend on one lock.
    rep_waits: Vec<TrackedMutex<HashMap<u64, RepWait>>>,
    /// Outstanding recovery pushes, sharded like `rep_waits`.
    push_waits: Vec<TrackedMutex<HashMap<u64, PushWait>>>,
    /// Replica-side dedup windows, sharded like `rep_waits`.
    rep_seen: Vec<TrackedMutex<RepSeen>>,
    /// Last heartbeat heard from each up peer (ping or pong).
    hb_peers: TrackedMutex<HashMap<OsdId, Instant>>,
    next_rep_id: AtomicU64,
    trim: TrackedMutex<TrimTracker>,
    /// Journaled-but-unapplied entries: apply-gate object → the entry's
    /// journal encoding (shared with the journal's copy, refcount only —
    /// never a deep transaction clone). Decoded only on the cold replay
    /// path.
    pending_apply: TrackedMutex<HashMap<u64, (String, Bytes)>>,
    apply_gate: ApplyGate,
    completion_tx: TrackedMutex<Option<crossbeam::channel::Sender<CompletionEvent>>>,
    reader_tx: TrackedMutex<Option<crossbeam::channel::Sender<ReadJob>>>,
    recorder: StageRecorder,
    acker: OrderedAcker,
    shutdown: AtomicBool,
    /// Process freeze (failure injection): drops every inbound message and
    /// suspends the heartbeat loop until `resume`.
    paused: AtomicBool,
    // counters (shared metric cells, registrable into a cluster registry)
    client_ops: MetricCounter,
    writes: MetricCounter,
    reads: MetricCounter,
    repops: MetricCounter,
    repacks: MetricCounter,
    apply_failures: MetricCounter,
    rep_resends: MetricCounter,
    pg_lock_waits: MetricCounter,
    pg_lock_wait_us: MetricCounter,
    hb_pings: MetricCounter,
    hb_reports: MetricCounter,
    peering_rounds: MetricCounter,
    peering_completed: MetricCounter,
    recovery_pushes: MetricCounter,
    recovery_push_acks: MetricCounter,
    recovery_requeues: MetricCounter,
    pgs_degraded: MetricGauge,
    pgs_recovering: MetricGauge,
    pgs_peering: MetricGauge,
}

/// A running OSD daemon.
pub struct Osd {
    inner: Arc<OsdInner>,
    workers: TrackedMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Osd {
    /// Spawn an OSD: opens the filestore and journal, registers with the
    /// network, and starts the op-worker (and, in AFCeph mode, completion)
    /// threads.
    pub fn spawn(params: OsdParams) -> Result<Arc<Osd>> {
        let tuning = params.tuning.clone();
        let logger = Logger::new(tuning.logging.log_config());
        let fs_profile = if tuning.lightweight_txn {
            TxnProfile::Lightweight
        } else {
            TxnProfile::Community
        };
        let fs_cfg = FileStoreConfig {
            profile: fs_profile,
            queue_max_ops: tuning.filestore_queue_max_ops(),
            apply_threads: tuning.apply_threads,
            ..if tuning.lightweight_txn {
                FileStoreConfig::lightweight()
            } else {
                FileStoreConfig::community()
            }
        };
        let store = FileStore::new(Arc::clone(&params.data_dev), fs_cfg)?;
        let journal = Journal::new(
            Arc::clone(&params.journal_dev),
            JournalConfig {
                capacity: params.journal_capacity,
                batch_max_ops: tuning.journal_batch_max_ops,
                batch_max_bytes: tuning.journal_batch_max_bytes,
                batch_max_wait: Duration::from_micros(tuning.journal_batch_max_wait_us),
                ..JournalConfig::default()
            },
        );
        let inner = Arc::new(OsdInner {
            id: params.id,
            logger,
            store,
            journal,
            msgr: OnceLock::new(),
            map: params.map,
            monitor: params.monitor,
            pgs: TrackedRwLock::new(&classes::OSD_PG_MAP, HashMap::new()),
            opq: OpQueue {
                q: TrackedMutex::new(&classes::OP_QUEUE, VecDeque::new()),
                cv: TrackedCondvar::new(),
            },
            qos: QosScheduler::new(),
            client_throttle: Arc::new(Throttle::new(
                "osd_client_message_cap",
                tuning.client_message_cap(),
            )),
            rep_waits: (0..COMPLETION_SHARDS)
                .map(|_| TrackedMutex::new(&classes::REP_WAITS, HashMap::new()))
                .collect(),
            push_waits: (0..COMPLETION_SHARDS)
                .map(|_| TrackedMutex::new(&classes::PUSH_WAITS, HashMap::new()))
                .collect(),
            rep_seen: (0..COMPLETION_SHARDS)
                .map(|_| TrackedMutex::new(&classes::REP_SEEN, RepSeen::new()))
                .collect(),
            hb_peers: TrackedMutex::new(&classes::HB_PEERS, HashMap::new()),
            next_rep_id: AtomicU64::new(1),
            trim: TrackedMutex::new(&classes::TRIM, TrimTracker::new()),
            pending_apply: TrackedMutex::new(&classes::PENDING_APPLY, HashMap::new()),
            apply_gate: ApplyGate::new(),
            completion_tx: TrackedMutex::new(&classes::OSD_CHANNEL_TX, None),
            reader_tx: TrackedMutex::new(&classes::OSD_CHANNEL_TX, None),
            recorder: StageRecorder::new(16, 4096),
            acker: OrderedAcker::new(),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            client_ops: MetricCounter::new(),
            writes: MetricCounter::new(),
            reads: MetricCounter::new(),
            repops: MetricCounter::new(),
            repacks: MetricCounter::new(),
            apply_failures: MetricCounter::new(),
            rep_resends: MetricCounter::new(),
            pg_lock_waits: MetricCounter::new(),
            pg_lock_wait_us: MetricCounter::new(),
            hb_pings: MetricCounter::new(),
            hb_reports: MetricCounter::new(),
            peering_rounds: MetricCounter::new(),
            peering_completed: MetricCounter::new(),
            recovery_pushes: MetricCounter::new(),
            recovery_push_acks: MetricCounter::new(),
            recovery_requeues: MetricCounter::new(),
            pgs_degraded: MetricGauge::new(),
            pgs_recovering: MetricGauge::new(),
            pgs_peering: MetricGauge::new(),
            tuning,
        });
        let msgr = params.net.register(
            Addr::Osd(params.id),
            Arc::new(OsdDispatcher(Arc::clone(&inner))),
        )?;
        if inner.msgr.set(msgr).is_err() {
            return Err(AfcError::Corruption(format!(
                "messenger for {} registered twice",
                params.id
            )));
        }
        let spawn_worker = |name: String, f: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new()
                .name(name.clone())
                .spawn(f)
                .map_err(|e| AfcError::Io(format!("spawn {name}: {e}")))
        };
        // On any spawn failure, tear down the workers already started so a
        // partially-constructed OSD never leaks threads.
        let mut workers = Vec::new();
        let result = (|| -> Result<()> {
            for i in 0..inner.tuning.op_threads.max(1) {
                let inner = Arc::clone(&inner);
                workers.push(spawn_worker(
                    format!("{}-op-{i}", params.id),
                    Box::new(move || op_worker_loop(inner)),
                )?);
            }
            if inner.tuning.pending_queue {
                let (tx, rx) = crossbeam::channel::unbounded::<ReadJob>();
                *inner.reader_tx.lock() = Some(tx);
                for i in 0..2 {
                    let rx = rx.clone();
                    let inner2 = Arc::clone(&inner);
                    workers.push(spawn_worker(
                        format!("{}-reader-{i}", params.id),
                        Box::new(move || {
                            while let Ok(job) = rx.recv() {
                                inner2.execute_read(job);
                            }
                        }),
                    )?);
                }
            }
            if inner.tuning.dedicated_completion {
                let (tx, rx) = crossbeam::channel::unbounded();
                *inner.completion_tx.lock() = Some(tx);
                let inner2 = Arc::clone(&inner);
                workers.push(spawn_worker(
                    format!("{}-completion", params.id),
                    Box::new(move || completion_worker_loop(inner2, rx)),
                )?);
            }
            // Replication retransmit ticker: sweeps rep_waits for sub-ops
            // whose ack is overdue (lost Replicate or RepAck) and resends,
            // failing the op after rep_max_resends attempts. Also sweeps
            // push_waits, requeueing overdue recovery pushes.
            {
                let inner2 = Arc::clone(&inner);
                workers.push(spawn_worker(
                    format!("{}-reptimer", params.id),
                    Box::new(move || {
                        while !inner2.shutdown.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(10));
                            inner2.resend_expired_reps();
                            inner2.requeue_expired_pushes();
                        }
                    }),
                )?);
            }
            // Heartbeat / self-healing ticker (opt-in): pings peers,
            // reports silent ones to the monitor, and pumps the peering
            // and recovery state machines on every map-epoch change.
            if inner.tuning.heartbeat_interval_ms > 0 && inner.monitor.is_some() {
                let interval = Duration::from_millis(inner.tuning.heartbeat_interval_ms);
                let inner2 = Arc::clone(&inner);
                workers.push(spawn_worker(
                    format!("{}-hb", params.id),
                    Box::new(move || {
                        while !inner2.shutdown.load(Ordering::Relaxed) {
                            std::thread::sleep(interval);
                            if inner2.paused.load(Ordering::Relaxed)
                                || inner2.shutdown.load(Ordering::Relaxed)
                            {
                                continue;
                            }
                            inner2.heartbeat_tick();
                        }
                    }),
                )?);
            }
            Ok(())
        })();
        if let Err(e) = result {
            // ordering: cold spawn-failure path; SeqCst so the flag is ahead
            // of the cv notify and channel teardown below in every thread's
            // view (the worker loops read it Relaxed).
            inner.shutdown.store(true, Ordering::SeqCst);
            inner.opq.cv.notify_all();
            *inner.completion_tx.lock() = None;
            *inner.reader_tx.lock() = None;
            drop(inner.qos.clear());
            for h in workers {
                let _ = h.join();
            }
            return Err(e);
        }
        Ok(Arc::new(Osd {
            inner,
            workers: TrackedMutex::new(&classes::OSD_WORKERS, workers),
        }))
    }

    /// This OSD's id.
    pub fn id(&self) -> OsdId {
        self.inner.id
    }

    /// The filestore (stats, direct reads in tests).
    pub fn store(&self) -> &Arc<FileStore> {
        &self.inner.store
    }

    /// The journal.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.inner.journal
    }

    /// The debug logger.
    pub fn logger(&self) -> &Arc<Logger> {
        &self.inner.logger
    }

    /// Collected Figure-3 stage samples.
    pub fn stage_samples(&self) -> Vec<StageSample> {
        self.inner.recorder.samples()
    }

    /// Register this OSD's instrumentation into a cluster metric
    /// registry:
    ///
    /// - op counters under `osd<N>.op.*` (including the PG-lock wait pair
    ///   `pg_lock_waits` / `pg_lock_wait_us` shared by all of this OSD's
    ///   PGs, plus client-throttle waits under
    ///   `osd<N>.op.client_throttle.*`),
    /// - write-path stage histograms under `osd<N>.stage.*` (fed from
    ///   the sampled stage recorder),
    /// - filestore under `osd<N>.fs.*`, its KV DB under `osd<N>.kv.*`,
    /// - the debug logger's counters as `osd<N>.log.*`,
    /// - the journal's counters under `<journal_prefix>.*` (the caller
    ///   picks the node-scoped name, e.g. `node0.journal`).
    pub fn attach_metrics(&self, m: &Metrics, journal_prefix: &str) {
        let inner = &self.inner;
        let op = format!("osd{}.op", inner.id.0);
        let fields: [(&str, &MetricCounter); 9] = [
            ("client_ops", &inner.client_ops),
            ("writes", &inner.writes),
            ("reads", &inner.reads),
            ("repops", &inner.repops),
            ("repacks", &inner.repacks),
            ("apply_failures", &inner.apply_failures),
            ("rep_resends", &inner.rep_resends),
            ("pg_lock_waits", &inner.pg_lock_waits),
            ("pg_lock_wait_us", &inner.pg_lock_wait_us),
        ];
        for (name, cell) in fields {
            m.register_counter(format!("{op}.{name}"), cell);
        }
        let hb = format!("osd{}.hb", inner.id.0);
        m.register_counter(format!("{hb}.pings"), &inner.hb_pings);
        m.register_counter(format!("{hb}.reports"), &inner.hb_reports);
        let peering = format!("osd{}.peering", inner.id.0);
        m.register_counter(format!("{peering}.rounds"), &inner.peering_rounds);
        m.register_counter(format!("{peering}.completed"), &inner.peering_completed);
        m.register_gauge(format!("{peering}.pgs_peering"), &inner.pgs_peering);
        let rec = format!("osd{}.recovery", inner.id.0);
        m.register_counter(format!("{rec}.pushes"), &inner.recovery_pushes);
        m.register_counter(format!("{rec}.push_acks"), &inner.recovery_push_acks);
        m.register_counter(format!("{rec}.requeues"), &inner.recovery_requeues);
        m.register_gauge(format!("{rec}.pgs_degraded"), &inner.pgs_degraded);
        m.register_gauge(format!("{rec}.pgs_recovering"), &inner.pgs_recovering);
        let qos = format!("osd{}.qos", inner.id.0);
        m.attach_set(&qos, inner.qos.counters());
        m.attach_hist_set(&qos, inner.qos.hists());
        inner
            .client_throttle
            .register_into(m, &format!("{op}.client_throttle"));
        inner
            .recorder
            .attach_hists(StageHists::register(m, &format!("osd{}.stage", inner.id.0)));
        inner
            .store
            .register_metrics(m, &format!("osd{}.fs", inner.id.0));
        inner
            .store
            .register_kv_metrics(m, &format!("osd{}.kv", inner.id.0));
        inner
            .logger
            .attach_metrics(m, &format!("osd{}", inner.id.0));
        inner.journal.register_metrics(m, journal_prefix);
    }

    /// Re-apply journal entries that had not reached the filestore (crash
    /// recovery). Decodes every surviving (valid, untrimmed) journal entry
    /// plus any in-memory pending applies and re-runs them in sequence
    /// order. Safe to call repeatedly: each successful pass trims what it
    /// applied, so a second pass is a no-op.
    pub fn replay_journal(&self) -> Result<usize> {
        let entries = self.inner.journal.replay();
        // A crash loses the trim tracker; resynchronize it to the oldest
        // surviving journal sequence so post-replay trims can advance.
        if let Some(first) = entries.first() {
            let mut t = self.inner.trim.lock();
            if t.watermark() + 1 < first.seq {
                *t = TrimTracker::resume_from(first.seq - 1);
            }
        }
        let mut todo: Vec<(u64, Transaction)> = Vec::with_capacity(entries.len());
        for e in &entries {
            todo.push((e.seq, Transaction::decode_shared(&e.payload)?));
        }
        {
            let p = self.inner.pending_apply.lock();
            for (s, (_, payload)) in p.iter() {
                if !todo.iter().any(|(s2, _)| s2 == s) {
                    todo.push((*s, Transaction::decode_shared(payload)?));
                }
            }
        }
        todo.sort_by_key(|(s, _)| *s);
        let n = todo.len();
        for (seq, txn) in todo {
            self.inner.store.apply_sync(txn)?;
            self.inner.on_applied(seq);
        }
        Ok(n)
    }

    /// Simulate a process crash + restart of this OSD's storage stack:
    /// volatile state (pending-apply bookkeeping, read gates, unsynced
    /// filestore KV records, metadata cache) is lost; the NVRAM journal
    /// ring and applied object data survive. Call [`Self::replay_journal`]
    /// afterwards, exactly as OSD init does after a real crash.
    pub fn simulate_crash(&self) -> Result<usize> {
        self.inner.pending_apply.lock().clear();
        self.inner.apply_gate.reset();
        self.inner.store.crash_volatile()
    }

    /// Simulate a process freeze: every inbound message is dropped and the
    /// heartbeat loop stops, so peers stop hearing from this OSD and (with
    /// failure detection on) report it down. Storage state is untouched.
    pub fn pause(&self) {
        self.inner.paused.store(true, Ordering::Relaxed);
    }

    /// Whether this OSD is currently paused.
    pub fn is_paused(&self) -> bool {
        self.inner.paused.load(Ordering::Relaxed)
    }

    /// Unfreeze a paused OSD. Local PGs are fenced into `Peering` *before*
    /// dispatch resumes, so a formerly-primary OSD cannot serve stale data
    /// in the window before its first post-resume peering round completes.
    pub fn resume(&self) {
        let pgs: Vec<Arc<Pg>> = self.inner.pgs.read().values().cloned().collect();
        for pg in pgs {
            let mut st = pg.lock_measured();
            st.health = PgHealth::Peering;
            st.peering = None;
            st.acting.clear(); // force a fresh round on the next tick
        }
        // Restart every peer's grace window from scratch.
        self.inner.hb_peers.lock().clear();
        self.inner.paused.store(false, Ordering::Relaxed);
    }

    /// Drain in-flight work (test/bench helper): waits until the filestore
    /// queue empties and the journal has committed everything submitted.
    pub fn quiesce(&self) {
        self.inner.journal.quiesce();
        self.inner.store.wait_idle();
    }

    /// Stop the op/completion threads. The OSD stops consuming its queue;
    /// the network endpoint should be shut down by the cluster first.
    /// Idempotent: later calls find the worker list already drained.
    pub fn shutdown(&self) {
        // ordering: cold shutdown path; SeqCst so the flag is ahead of the
        // cv notify and channel teardown below in every thread's view (the
        // worker loops read it Relaxed).
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.opq.cv.notify_all();
        *self.inner.completion_tx.lock() = None;
        *self.inner.reader_tx.lock() = None;
        // Abandon undispatched QoS-queued client ops: dropping the work
        // closures releases their captured throttle permits.
        drop(self.inner.qos.clear());
        self.inner.client_throttle.close();
        // Fail writes still waiting on replica acks (e.g. acks lost to
        // injected faults) so nothing blocks on them across shutdown, and
        // release any readers parked on their apply gates.
        let stranded: Vec<Arc<WriteOp>> = self
            .inner
            .rep_waits
            .iter()
            .flat_map(|shard| {
                let mut w = shard.lock();
                w.drain().map(|(_, rw)| rw.op).collect::<Vec<_>>()
            })
            .collect();
        for op in stranded {
            self.inner
                .fail_op(&op, AfcError::ShutDown("osd stopping".into()));
        }
        for shard in &self.inner.push_waits {
            shard.lock().clear();
        }
        self.inner.apply_gate.reset();
        // Take the handles out first: joining while holding the workers
        // lock would block concurrent shutdown() callers on a lock held
        // across thread exit instead of on join itself.
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

struct OsdDispatcher(Arc<OsdInner>);

impl Dispatcher<OsdMsg> for OsdDispatcher {
    fn dispatch(&self, from: Addr, msg: OsdMsg) {
        let inner = &self.0;
        if inner.shutdown.load(Ordering::Relaxed) || inner.paused.load(Ordering::Relaxed) {
            return;
        }
        match msg {
            OsdMsg::Request(op) => inner.handle_request(from, op),
            OsdMsg::Replicate(rep) => inner.handle_repop(from, rep),
            OsdMsg::RepAck(ack) => inner.handle_repack(ack),
            OsdMsg::Ping(p) => inner.handle_ping(from, p),
            OsdMsg::Pong(p) => inner.note_peer_alive(p.from),
            OsdMsg::PgQuery(q) => inner.handle_pgquery(from, q),
            OsdMsg::PgInfo(i) => inner.handle_pginfo(i),
            OsdMsg::Push(push) => inner.handle_push(from, push),
            OsdMsg::Reply(_) => {
                inner
                    .logger
                    .log(Level::Error, "osd", "unexpected client reply at OSD");
            }
        }
    }
}

fn op_worker_loop(inner: Arc<OsdInner>) {
    let blocking = !inner.tuning.pending_queue;
    let qos_on = inner.tuning.qos_enabled;
    loop {
        let pg = {
            let mut q = inner.opq.q.lock();
            loop {
                // Internal traffic (replication, acks, recovery, peering)
                // always dispatches first and is never rate-limited:
                // shaping it would stall the very pipelines client QoS
                // depends on.
                if let Some(pg) = q.pop_front() {
                    break pg;
                }
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if qos_on {
                    // Lock order: OP_QUEUE (held) → OSD_QOS inside
                    // dequeue — ranks 100 → 102.
                    match inner.qos.dequeue(Instant::now()) {
                        Deq::Ready(cw) => {
                            // Admit into the PG pending FIFO *before*
                            // releasing the op-queue lock (OP_QUEUE 100 →
                            // PG_PENDING 300). Every QoS dequeue happens
                            // under `opq.q`, so admitting under the same
                            // lock makes scheduler pop order and PG FIFO
                            // order one atomic step — admission after the
                            // unlock would let two workers race
                            // `Pg::queue` and invert same-volume op
                            // order, which the read gate and ordered-ack
                            // machinery assume cannot happen.
                            let ClientWork { pg, work } = cw;
                            pg.queue(work);
                            break pg;
                        }
                        Deq::Wait(deadline) => {
                            // Every backlogged volume is at its IOPS
                            // limit: sleep until the earliest token (or
                            // an enqueue/shutdown notify) instead of
                            // spinning.
                            let _ = inner.opq.cv.wait_until(&mut q, deadline);
                            continue;
                        }
                        Deq::Empty => {}
                    }
                }
                inner.opq.cv.wait(&mut q);
            }
        };
        pg.drain(blocking);
    }
}

fn completion_worker_loop(inner: Arc<OsdInner>, rx: crossbeam::channel::Receiver<CompletionEvent>) {
    while let Ok(first) = rx.recv() {
        // Batch everything immediately available (§3.1: "Multiple
        // completion per PG can be processed at once").
        let mut batch = vec![first];
        while batch.len() < 128 {
            match rx.try_recv() {
                Ok(e) => batch.push(e),
                Err(_) => break,
            }
        }
        // Pass 1: filestore hand-off, acks and replies — no PG lock (the
        // §3.1 point: completion no longer serializes on PG locks, and a
        // full filestore throttle cannot wedge readers holding them).
        let mut by_pg: HashMap<PgId, (Arc<Pg>, u64)> = HashMap::new();
        for ev in &batch {
            let (pg, seq) = match ev {
                CompletionEvent::PrimaryCommit { op, pg_seq, .. } => (Arc::clone(&op.pg), *pg_seq),
                CompletionEvent::ReplicaCommit { pg, pg_seq, .. } => (Arc::clone(pg), *pg_seq),
            };
            let e = by_pg.entry(pg.id()).or_insert((pg, 0));
            e.1 = e.1.max(seq);
        }
        for ev in batch {
            match ev {
                CompletionEvent::PrimaryCommit {
                    op,
                    jseq,
                    txn,
                    payload,
                    ..
                } => {
                    inner.enqueue_filestore(jseq, txn, payload);
                    if let Some(t) = &op.trace {
                        t.lock().handled = Some(Instant::now());
                    }
                    {
                        let mut p = op.progress.lock();
                        p.local_commit = true;
                    }
                    inner.maybe_reply(&op);
                }
                CompletionEvent::ReplicaCommit {
                    jseq,
                    txn,
                    payload,
                    primary,
                    rep_id,
                    ..
                } => {
                    inner.enqueue_filestore(jseq, txn, payload);
                    inner.mark_rep_done(primary, rep_id);
                    inner.send(
                        primary,
                        OsdMsg::RepAck(RepOpReply {
                            rep_id,
                            from: inner.id,
                        }),
                    );
                }
            }
        }
        // Pass 2: batched PG bookkeeping, one lock acquisition per PG.
        for (_, (pg, max_seq)) in by_pg {
            let mut st = pg.lock_measured();
            st.last_committed = st.last_committed.max(max_seq);
        }
    }
}

impl OsdInner {
    fn msgr(&self) -> &Messenger<OsdMsg> {
        self.msgr.get().expect("messenger registered at spawn")
    }

    fn send(&self, to: Addr, msg: OsdMsg) {
        let bytes = msg.wire_bytes();
        if let Err(e) = self.msgr().send(to, msg, bytes) {
            self.logger
                .logf(Level::Error, "osd", || format!("send to {to} failed: {e}"));
        }
    }

    fn log(&self, msg: &'static str) {
        self.logger.log(Level::Trace, "osd", msg);
    }

    /// Model the per-op allocator churn (§3.2): real transient allocations.
    fn alloc_overhead(&self) {
        let n = self.tuning.allocator.allocs_per_op();
        for i in 0..n {
            let mut v: Vec<u8> = Vec::with_capacity(64 + (i & 7) * 16);
            v.push(i as u8);
            std::hint::black_box(&v);
        }
    }

    fn pg(&self, id: PgId) -> Arc<Pg> {
        if let Some(pg) = self.pgs.read().get(&id) {
            return Arc::clone(pg);
        }
        let mut w = self.pgs.write();
        Arc::clone(w.entry(id).or_insert_with(|| {
            Pg::with_lock_counters(id, self.pg_lock_waits.clone(), self.pg_lock_wait_us.clone())
        }))
    }

    /// Enqueue *internal* work (replication, acks, recovery) on the plain
    /// op queue. Client ops must go through [`Self::queue_client`] so the
    /// QoS scheduler sees them — the analyze `qos-tag` rule enforces this.
    fn queue_pg(&self, pg: Arc<Pg>, work: pg::PgWork) {
        pg.queue(work);
        let mut q = self.opq.q.lock();
        q.push_back(pg);
        drop(q);
        self.opq.cv.notify_one();
    }

    /// Route a tagged client op to the op workers: through the per-volume
    /// QoS scheduler when enabled, else straight onto the plain queue.
    fn queue_client(&self, qos: &QosTag, pg: Arc<Pg>, work: pg::PgWork) {
        if !self.tuning.qos_enabled {
            // qos-ok: QoS disabled by tuning — legacy arrival-order path.
            self.queue_pg(pg, work);
            return;
        }
        self.qos
            .enqueue(qos, ClientWork { pg, work }, Instant::now());
        // Serialize against a worker's empty-check: workers inspect the
        // scheduler while holding `opq.q` and release it only inside
        // `cv.wait`, so acquiring the queue lock here (even empty-handed)
        // guarantees our notify lands after their wait began — no lost
        // wakeup.
        drop(self.opq.q.lock());
        self.opq.cv.notify_one();
    }

    // ---------------------------------------------------------------- //
    // Client requests
    // ---------------------------------------------------------------- //

    fn handle_request(self: &Arc<Self>, from: Addr, op: ClientOp) {
        self.client_ops.inc();
        self.log("ms_fast_dispatch client op");
        // osd_client_message_cap: blocks this client's connection thread
        // when the OSD has too many undispatched messages (§3.2).
        let permit = match self.client_throttle.acquire_owned(1) {
            Ok(p) => p,
            Err(_) => return,
        };
        // Primary check against the current map: a stale client (or a map
        // that moved underneath it) gets a typed reject so it refreshes
        // its snapshot and re-targets instead of hammering us.
        let map = self.map.read().clone();
        let primary = map.pg_primary(op.pg).ok();
        if primary != Some(self.id) {
            self.send(
                from,
                OsdMsg::Reply(ClientReply {
                    op_id: op.op_id,
                    result: Err(AfcError::NotPrimary(format!(
                        "{} is not primary for pg {} at epoch {}",
                        self.id,
                        op.pg,
                        map.epoch().0
                    ))),
                }),
            );
            return;
        }
        // Down-but-placed peers: every write they miss is journaled into
        // the PG's `peer_missing` ledger for later recovery pushes.
        let acting = map.pg_acting(op.pg).unwrap_or_default();
        let absent: Vec<OsdId> = map
            .pg_placed(op.pg)
            .unwrap_or_default()
            .into_iter()
            .filter(|o| !acting.contains(o))
            .collect();
        let pg = self.pg(op.pg);
        let inner = Arc::clone(self);
        let qos = op.qos;
        match op.op {
            ObjectOp::Write { offset, data } => {
                let trace = self
                    .recorder
                    .should_trace()
                    .then(|| TrackedMutex::new(&classes::OP_TRACE, TraceTimes::start()));
                let needed_acks = acting.len().saturating_sub(1);
                // §3.1: ordered acks when enabled OSD-wide or requested by
                // the client ("sends client sequential acks if a client
                // wants to receive ordered acks as requested").
                let ack_lane = (self.tuning.ordered_acks || op.ordered_ack)
                    .then(|| self.acker.assign(op.client, op.pg));
                let wop = Arc::new(WriteOp {
                    client: op.client,
                    op_id: op.op_id,
                    reply_to: from,
                    pg: Arc::clone(&pg),
                    needed_acks,
                    progress: TrackedMutex::new(
                        &classes::OP_PROGRESS,
                        Progress {
                            local_commit: false,
                            acks: 0,
                            replied: false,
                        },
                    ),
                    permit: TrackedMutex::new(&classes::OP_PERMIT, Some(permit)),
                    trace,
                    ack_lane,
                });
                let object = op.object;
                let replicas: Vec<OsdId> = acting.iter().copied().skip(1).collect();
                let pgc = Arc::clone(&pg);
                if let Some(t) = &wop.trace {
                    t.lock().queued = Some(Instant::now());
                }
                self.queue_client(
                    &qos,
                    pg,
                    Box::new(move |st| {
                        if let Some(t) = &wop.trace {
                            t.lock().dequeue = Some(Instant::now());
                        }
                        if !inner.pg_ready(st, &acting) {
                            inner.fail_op(
                                &wop,
                                AfcError::WrongEpoch(format!("pg {} is peering", pgc.id())),
                            );
                            return;
                        }
                        inner.process_write(
                            st,
                            &pgc,
                            wop.clone(),
                            object,
                            offset,
                            data,
                            &replicas,
                            &absent,
                        );
                    }),
                );
            }
            ObjectOp::Delete => {
                let needed_acks = acting.len().saturating_sub(1);
                let wop = Arc::new(WriteOp {
                    client: op.client,
                    op_id: op.op_id,
                    reply_to: from,
                    pg: Arc::clone(&pg),
                    needed_acks,
                    progress: TrackedMutex::new(
                        &classes::OP_PROGRESS,
                        Progress {
                            local_commit: false,
                            acks: 0,
                            replied: false,
                        },
                    ),
                    permit: TrackedMutex::new(&classes::OP_PERMIT, Some(permit)),
                    trace: None,
                    ack_lane: None,
                });
                let object = op.object;
                let replicas: Vec<OsdId> = acting.iter().copied().skip(1).collect();
                let pgc = Arc::clone(&pg);
                if let Some(t) = &wop.trace {
                    t.lock().queued = Some(Instant::now());
                }
                self.queue_client(
                    &qos,
                    pg,
                    Box::new(move |st| {
                        if !inner.pg_ready(st, &acting) {
                            inner.fail_op(
                                &wop,
                                AfcError::WrongEpoch(format!("pg {} is peering", pgc.id())),
                            );
                            return;
                        }
                        inner.process_delete(st, &pgc, wop.clone(), object, &replicas, &absent);
                    }),
                );
            }
            ObjectOp::Read { offset, len } => {
                let object = op.object;
                let (client, op_id) = (op.client, op.op_id);
                let pgid = op.pg;
                self.queue_client(
                    &qos,
                    pg,
                    Box::new(move |st| {
                        if !inner.pg_ready(st, &acting) {
                            inner.reject_peering(from, op_id, pgid);
                            drop(permit);
                            return;
                        }
                        inner.process_read(from, client, op_id, object, offset, len, permit);
                    }),
                );
            }
            ObjectOp::Stat => {
                let object = op.object;
                let op_id = op.op_id;
                let pgid = op.pg;
                self.queue_client(
                    &qos,
                    pg,
                    Box::new(move |st| {
                        if !inner.pg_ready(st, &acting) {
                            inner.reject_peering(from, op_id, pgid);
                            drop(permit);
                            return;
                        }
                        let obj_name = object.to_string();
                        inner.apply_gate.wait_ordered(&obj_name);
                        let result = inner.store.stat(&obj_name).map(|m| OpOutcome::Size(m.size));
                        inner.send(from, OsdMsg::Reply(ClientReply { op_id, result }));
                        drop(permit);
                    }),
                );
            }
        }
    }

    /// Whether the self-healing loop (heartbeats → peering → recovery)
    /// is active on this OSD.
    fn healing_enabled(&self) -> bool {
        self.tuning.heartbeat_interval_ms > 0 && self.monitor.is_some()
    }

    /// Whether a client op may be served right now. Two fences:
    /// - a PG mid-peering never serves (its log position is unsettled);
    /// - with healing on, `st.acting` must match the acting set the op was
    ///   admitted under — between a map epoch bump and this PG's next
    ///   peering tick the two diverge, and serving in that gap could hand
    ///   out stale (or absent) data from a just-promoted primary.
    ///
    /// Rejected ops go back typed (`WrongEpoch`) and the client retries
    /// against the refreshed map once peering settles.
    fn pg_ready(&self, st: &PgState, acting: &[OsdId]) -> bool {
        st.health != PgHealth::Peering && (!self.healing_enabled() || st.acting == acting)
    }

    /// Typed reject for read-side ops that arrive while the PG is peering.
    fn reject_peering(&self, from: Addr, op_id: OpId, pg: PgId) {
        self.send(
            from,
            OsdMsg::Reply(ClientReply {
                op_id,
                result: Err(AfcError::WrongEpoch(format!("pg {pg} is peering"))),
            }),
        );
    }

    /// The write path under the PG lock: log, metadata read (community),
    /// PG-log append, replication, journal submit.
    #[allow(clippy::too_many_arguments)]
    fn process_write(
        self: &Arc<Self>,
        st: &mut PgState,
        pg: &Arc<Pg>,
        op: Arc<WriteOp>,
        object: ObjectId,
        offset: u64,
        data: Bytes,
        replicas: &[OsdId],
        absent: &[OsdId],
    ) {
        self.log("do_op: write enter");
        self.alloc_overhead();
        let obj_name = object.to_string();
        st.next_pg_seq += 1;
        st.info_version += 1;
        let pg_seq = st.next_pg_seq;
        self.record_degraded_write(st, absent, &obj_name);
        // Replicate FIRST (splay replication, Figure 2) — before the
        // metadata read, txn build and journal submit, so each replica's
        // journal round trip overlaps the primary's own pipeline instead
        // of queueing behind it. The payload `Bytes` is refcount-shared
        // with the client decode, never copied. Each sub-op is remembered
        // with its wire form so the retransmit ticker can resend it if
        // the ack never arrives.
        let mut skipped = 0usize;
        for r in replicas.iter() {
            if self.defer_to_recovery(st, *r, &obj_name) {
                // The peer's copy of this object is stale/absent: a partial
                // write on that base would corrupt it. Leave the object in
                // `peer_missing`; the recovery pump pushes the full,
                // up-to-date copy instead. Count the ack as satisfied.
                skipped += 1;
                continue;
            }
            let rep_id = self.alloc_rep_id(pg.id());
            self.log("send repop");
            let rep = RepOp {
                rep_id,
                pg: pg.id(),
                object: object.clone(),
                op: ObjectOp::Write {
                    offset,
                    // zero-copy-ok: Bytes refcount bump into the wire message
                    data: data.clone(),
                },
                pg_seq,
            };
            self.track_rep(rep_id, &op, Addr::Osd(*r), rep.clone());
            self.send(Addr::Osd(*r), OsdMsg::Replicate(rep));
        }
        if skipped > 0 {
            op.progress.lock().acks += skipped;
        }
        self.log("get object context");
        // Object-context metadata: community reads it back from storage
        // (device read under the PG lock — Figure 3's large stage (2));
        // the LWT profile serves it from the write-through cache.
        if self.tuning.lightweight_txn {
            let _ = self.store.stat(&obj_name);
        } else {
            let _ = self.store.getattr(&obj_name, "_");
        }
        self.log("append pg log");
        let txn = build_write_txn(pg.id(), &obj_name, offset, &data, pg_seq);
        // Later reads of this object must wait for the apply (gate is
        // released in on_applied).
        self.apply_gate.add(&obj_name);
        if let Some(t) = &op.trace {
            t.lock().jsubmit = Some(Instant::now());
        }
        self.log("journal submit");
        self.log("waiting for subops");
        let inner = Arc::clone(self);
        let pgc = Arc::clone(pg);
        // The journal carries the real transaction encoding: replay after a
        // crash decodes and re-applies exactly what was acknowledged. The
        // same `Bytes` (refcount-shared) later backs `pending_apply`.
        let payload = txn.encode();
        // zero-copy-ok: Bytes refcount bump shared with the journal record
        let payload2 = payload.clone();
        let opc = Arc::clone(&op);
        let res = self.journal.submit(
            payload,
            Box::new(move |jseq| {
                if let Some(t) = &opc.trace {
                    t.lock().jcommit = Some(Instant::now());
                }
                inner.on_journal_commit_primary(pgc, opc, jseq, txn, payload2, pg_seq);
            }),
        );
        if let Err(e) = res {
            self.apply_gate.done(&obj_name);
            self.fail_op(&op, e);
        }
        self.writes.inc();
    }

    #[allow(clippy::too_many_arguments)]
    fn process_delete(
        self: &Arc<Self>,
        st: &mut PgState,
        pg: &Arc<Pg>,
        op: Arc<WriteOp>,
        object: ObjectId,
        replicas: &[OsdId],
        absent: &[OsdId],
    ) {
        self.alloc_overhead();
        let obj_name = object.to_string();
        st.next_pg_seq += 1;
        let pg_seq = st.next_pg_seq;
        let mut txn = Transaction::new();
        txn.push(TxOp::Remove {
            object: obj_name.clone(),
        });
        txn.push(pg_log_op(pg.id(), pg_seq, &obj_name));
        self.apply_gate.add(&obj_name);
        self.record_degraded_write(st, absent, &obj_name);
        let mut skipped = 0usize;
        for r in replicas {
            if self.defer_to_recovery(st, *r, &obj_name) {
                // The peer may not even hold the object (`Remove` on a
                // missing object errors); the recovery pump propagates the
                // deletion as a data-less push instead.
                skipped += 1;
                continue;
            }
            let rep_id = self.alloc_rep_id(pg.id());
            let rep = RepOp {
                rep_id,
                pg: pg.id(),
                object: object.clone(),
                op: ObjectOp::Delete,
                pg_seq,
            };
            self.track_rep(rep_id, &op, Addr::Osd(*r), rep.clone());
            self.send(Addr::Osd(*r), OsdMsg::Replicate(rep));
        }
        if skipped > 0 {
            op.progress.lock().acks += skipped;
        }
        let inner = Arc::clone(self);
        let pgc = Arc::clone(pg);
        let opc = Arc::clone(&op);
        let payload = txn.encode();
        // zero-copy-ok: Bytes refcount bump shared with the journal record
        let payload2 = payload.clone();
        let res = self.journal.submit(
            payload,
            Box::new(move |jseq| {
                inner.on_journal_commit_primary(pgc, opc, jseq, txn, payload2, pg_seq);
            }),
        );
        if let Err(e) = res {
            self.apply_gate.done(&obj_name);
            self.fail_op(&op, e);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn process_read(
        self: &Arc<Self>,
        from: Addr,
        _client: ClientId,
        op_id: OpId,
        object: ObjectId,
        offset: u64,
        len: u32,
        permit: OwnedPermit,
    ) {
        self.log("do_op: read");
        self.alloc_overhead();
        self.reads.inc();
        let obj_name = object.to_string();
        let gate_target = self.apply_gate.snapshot(&obj_name);
        let job = ReadJob {
            from,
            op_id,
            obj_name,
            offset,
            len,
            permit,
            gate_target,
        };
        if self.tuning.pending_queue {
            // §3.1: ordered here (gate target captured under PG order),
            // executed on the disk-reader pool so the PG lock and the op
            // worker are released immediately.
            let tx = self.reader_tx.lock().clone();
            if let Some(tx) = tx {
                if tx.send(job).is_ok() {
                    return;
                }
                return; // shutting down
            }
            return;
        }
        // Community: the device read happens right here, holding the PG
        // lock for its whole duration (the behaviour the pending queue
        // fixes: other requests to this PG — and this op worker — stall).
        self.execute_read(job);
    }

    /// Complete a read: wait for ordered applies, hit the filestore, reply.
    fn execute_read(self: &Arc<Self>, job: ReadJob) {
        self.apply_gate.wait_target(&job.obj_name, job.gate_target);
        let result = self
            .store
            .read(&job.obj_name, job.offset, job.len as usize)
            .map(|v| OpOutcome::Data(Bytes::from(v)));
        self.log("read reply");
        self.send(
            job.from,
            OsdMsg::Reply(ClientReply {
                op_id: job.op_id,
                result,
            }),
        );
        drop(job.permit);
    }

    // ---------------------------------------------------------------- //
    // Journal completion (the "commit worker"/finisher path)
    // ---------------------------------------------------------------- //

    fn on_journal_commit_primary(
        self: &Arc<Self>,
        pg: Arc<Pg>,
        op: Arc<WriteOp>,
        jseq: u64,
        txn: Transaction,
        payload: Bytes,
        pg_seq: u64,
    ) {
        if self.tuning.dedicated_completion {
            // AFCeph: OP-lock-only bookkeeping here; PG-lock work is
            // deferred to the batching completion worker.
            let tx = self.completion_tx.lock().clone();
            if let Some(tx) = tx {
                let _ = tx.send(CompletionEvent::PrimaryCommit {
                    op,
                    jseq,
                    txn,
                    payload,
                    pg_seq,
                });
            }
            return;
        }
        // Community: the single journal finisher queues the filestore
        // transaction — when the filestore throttle is full this blocks
        // the finisher, serializing every completion behind it (Figure 3
        // stage (5), Figure 4's collapse) — and then re-acquires the PG
        // lock for completion bookkeeping, contending with op workers.
        self.enqueue_filestore(jseq, txn, payload);
        let mut st = pg.lock_measured();
        self.log("journal commit -> pg backend");
        st.last_committed = st.last_committed.max(pg_seq);
        drop(st);
        if let Some(t) = &op.trace {
            t.lock().handled = Some(Instant::now());
        }
        {
            let mut p = op.progress.lock();
            p.local_commit = true;
        }
        self.maybe_reply(&op);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_journal_commit_replica(
        self: &Arc<Self>,
        pg: Arc<Pg>,
        jseq: u64,
        txn: Transaction,
        payload: Bytes,
        pg_seq: u64,
        primary: Addr,
        rep_id: u64,
    ) {
        if self.tuning.dedicated_completion {
            let tx = self.completion_tx.lock().clone();
            if let Some(tx) = tx {
                let _ = tx.send(CompletionEvent::ReplicaCommit {
                    pg,
                    jseq,
                    txn,
                    payload,
                    pg_seq,
                    primary,
                    rep_id,
                });
            }
            return;
        }
        self.enqueue_filestore(jseq, txn, payload);
        let mut st = pg.lock_measured();
        st.last_committed = st.last_committed.max(pg_seq);
        drop(st);
        self.log("replica commit ack");
        self.mark_rep_done(primary, rep_id);
        self.send(
            primary,
            OsdMsg::RepAck(RepOpReply {
                rep_id,
                from: self.id,
            }),
        );
    }

    /// Allocate a replication/push sub-op id. The counter occupies the
    /// high bits; the low [`SHARD_BITS`] carry the PG's completion shard,
    /// so the eventual ack — which carries only the id — routes straight
    /// to the right sharded wait table.
    fn alloc_rep_id(&self, pg: PgId) -> u64 {
        (self.next_rep_id.fetch_add(1, Ordering::Relaxed) << SHARD_BITS) | pg_shard(pg) as u64
    }

    /// Flip a replica-side rep_id to "committed" so retransmits re-ack.
    fn mark_rep_done(&self, primary: Addr, rep_id: u64) {
        self.rep_seen[rep_shard(rep_id)]
            .lock()
            .state
            .insert((primary, rep_id), true);
    }

    /// Remember an outstanding replication sub-op for ack tracking and
    /// timeout-driven retransmission.
    fn track_rep(&self, rep_id: u64, op: &Arc<WriteOp>, to: Addr, rep: RepOp) {
        self.rep_waits[rep_shard(rep_id)].lock().insert(
            rep_id,
            RepWait {
                op: Arc::clone(op),
                to,
                rep,
                sent: Instant::now(),
                resends: 0,
            },
        );
    }

    /// Retransmit sub-ops whose ack is overdue; give up (typed failure to
    /// the client) after `rep_max_resends` attempts. Runs on the reptimer
    /// thread every few milliseconds; sends happen outside the lock.
    fn resend_expired_reps(&self) {
        let timeout = Duration::from_millis(self.tuning.rep_resend_after_ms.max(1));
        let now = Instant::now();
        let mut resend: Vec<(Addr, RepOp)> = Vec::new();
        let mut gave_up: Vec<Arc<WriteOp>> = Vec::new();
        // Shards are swept one at a time — never two shard locks at once.
        for shard in &self.rep_waits {
            let mut waits = shard.lock();
            let mut dead: Vec<u64> = Vec::new();
            for (id, w) in waits.iter_mut() {
                if now.duration_since(w.sent) < timeout {
                    continue;
                }
                if w.resends >= self.tuning.rep_max_resends {
                    dead.push(*id);
                } else {
                    w.resends += 1;
                    w.sent = now;
                    resend.push((w.to, w.rep.clone()));
                }
            }
            for id in dead {
                if let Some(w) = waits.remove(&id) {
                    gave_up.push(w.op);
                }
            }
        }
        for (to, rep) in resend {
            self.rep_resends.inc();
            self.log("resend repop");
            self.send(to, OsdMsg::Replicate(rep));
        }
        for op in gave_up {
            self.fail_op(
                &op,
                AfcError::Timeout("replica ack timeout (resends exhausted)".into()),
            );
        }
    }

    fn enqueue_filestore(self: &Arc<Self>, jseq: u64, txn: Transaction, payload: Bytes) {
        // `payload` is the txn's journal encoding — a refcounted slice of
        // the same buffer the journal holds, so this insert is O(1) and
        // copy-free where the old code deep-cloned the transaction.
        let gate_obj = txn
            .ops()
            .first()
            .map(|o| o.object().to_string())
            .unwrap_or_default();
        self.pending_apply.lock().insert(jseq, (gate_obj, payload));
        let inner = Arc::clone(self);
        let res = self.store.queue_transaction(
            txn,
            Box::new(move |r| match r {
                Ok(()) => inner.on_applied(jseq),
                Err(e) => {
                    inner
                        .logger
                        .logf(Level::Error, "osd", || format!("apply failed: {e}"));
                    inner.apply_failures.inc();
                    inner.on_apply_failed(jseq);
                }
            }),
        );
        if let Err(e) = res {
            self.logger
                .logf(Level::Error, "osd", || format!("apply enqueue failed: {e}"));
            self.apply_failures.inc();
            self.on_apply_failed(jseq);
        }
    }

    /// A filestore apply failed. Keep the txn in `pending_apply` (journal
    /// replay after a crash/recover re-applies it) and don't trim, but
    /// release the apply gate fail-open so readers of the object aren't
    /// wedged behind a txn that will never complete on this incarnation.
    fn on_apply_failed(&self, jseq: u64) {
        let obj = self.pending_apply.lock().get(&jseq).map(|(o, _)| o.clone());
        if let Some(obj) = obj {
            if !obj.is_empty() {
                self.apply_gate.done(&obj);
            }
        }
    }

    fn on_applied(&self, jseq: u64) {
        self.log("filestore applied");
        let entry = self.pending_apply.lock().remove(&jseq);
        if let Some((obj, _)) = entry {
            if !obj.is_empty() {
                self.apply_gate.done(&obj);
            }
        }
        let watermark = self.trim.lock().mark(jseq);
        if let Some(w) = watermark {
            self.journal.trim_through(w);
        }
    }

    // ---------------------------------------------------------------- //
    // Replica side
    // ---------------------------------------------------------------- //

    fn handle_repop(self: &Arc<Self>, from: Addr, rep: RepOp) {
        self.repops.inc();
        self.log("handle repop");
        // Retransmit/duplicate dedup: a rep_id we already committed gets a
        // fresh ack (the original was lost); one still in flight is
        // ignored (its commit will ack); only new ids are journaled.
        {
            let key = (from, rep.rep_id);
            let mut seen = self.rep_seen[rep_shard(rep.rep_id)].lock();
            match seen.state.get(&key) {
                Some(true) => {
                    drop(seen);
                    self.log("re-ack duplicate repop");
                    self.send(
                        from,
                        OsdMsg::RepAck(RepOpReply {
                            rep_id: rep.rep_id,
                            from: self.id,
                        }),
                    );
                    return;
                }
                Some(false) => return,
                None => seen.insert(key),
            }
        }
        let pg = self.pg(rep.pg);
        let inner = Arc::clone(self);
        let pgc = Arc::clone(&pg);
        if self.tuning.fast_ack {
            // §3.1 + group commit: the whole sub-op — PG bookkeeping, txn
            // build, journal commit, RepAck — runs inline on the messenger
            // dispatch thread through the journal's inline fast path,
            // cutting the PG-queue, committer and completion-worker
            // hand-offs out of the primary-observed ack round trip.
            pg.submit(
                Box::new(move |st| inner.process_repop(st, &pgc, from, rep)),
                true,
            );
            return;
        }
        // qos-ok: replica-side sub-op — internal traffic is never shaped.
        self.queue_pg(
            pg,
            Box::new(move |st| {
                inner.alloc_overhead();
                st.next_pg_seq = st.next_pg_seq.max(rep.pg_seq);
                let obj_name = rep.object.to_string();
                let txn = match &rep.op {
                    ObjectOp::Write { offset, data } => {
                        build_write_txn(pgc.id(), &obj_name, *offset, data, rep.pg_seq)
                    }
                    ObjectOp::Delete => {
                        let mut t = Transaction::new();
                        t.push(TxOp::Remove {
                            object: obj_name.clone(),
                        });
                        t.push(pg_log_op(pgc.id(), rep.pg_seq, &obj_name));
                        t
                    }
                    _ => return,
                };
                let inner2 = Arc::clone(&inner);
                let pgc2 = Arc::clone(&pgc);
                let payload = txn.encode();
                // zero-copy-ok: Bytes refcount bump shared with the journal record
                let payload2 = payload.clone();
                let pg_seq = rep.pg_seq;
                let rep_id = rep.rep_id;
                let _ = inner.journal.submit(
                    payload,
                    Box::new(move |jseq| {
                        inner2.on_journal_commit_replica(
                            pgc2, jseq, txn, payload2, pg_seq, from, rep_id,
                        );
                    }),
                );
            }),
        );
    }

    /// Fast-path replica sub-op, running under the PG lock on whichever
    /// thread drained it (normally the messenger dispatch thread). The
    /// journal commit callback runs either inline right here (idle
    /// journal) or later on the committer thread; both contexts only take
    /// locks ranked above `PG_STATE`, and neither re-locks this PG — the
    /// `last_committed` bump happens below, under the guard we already
    /// hold (`next_pg_seq` was raised first, so peering answers are
    /// identical either way).
    fn process_repop(self: &Arc<Self>, st: &mut PgState, pg: &Arc<Pg>, from: Addr, rep: RepOp) {
        self.alloc_overhead();
        st.next_pg_seq = st.next_pg_seq.max(rep.pg_seq);
        let obj_name = rep.object.to_string();
        let txn = match &rep.op {
            ObjectOp::Write { offset, data } => {
                build_write_txn(pg.id(), &obj_name, *offset, data, rep.pg_seq)
            }
            ObjectOp::Delete => {
                let mut t = Transaction::new();
                t.push(TxOp::Remove {
                    object: obj_name.clone(),
                });
                t.push(pg_log_op(pg.id(), rep.pg_seq, &obj_name));
                t
            }
            _ => return,
        };
        let payload = txn.encode();
        // zero-copy-ok: Bytes refcount bump shared with the journal record
        let payload2 = payload.clone();
        let inner = Arc::clone(self);
        let osd_id = self.id;
        let rep_id = rep.rep_id;
        let res = self.journal.submit_inline(
            payload,
            Box::new(move |jseq| {
                inner.enqueue_filestore(jseq, txn, payload2);
                inner.mark_rep_done(from, rep_id);
                inner.log("replica commit ack (inline)");
                inner.send(
                    from,
                    OsdMsg::RepAck(RepOpReply {
                        rep_id,
                        from: osd_id,
                    }),
                );
            }),
        );
        if res.is_ok() {
            st.last_committed = st.last_committed.max(rep.pg_seq);
        }
    }

    // ---------------------------------------------------------------- //
    // Replica acks back at the primary
    // ---------------------------------------------------------------- //

    fn handle_repack(self: &Arc<Self>, ack: RepOpReply) {
        self.repacks.inc();
        // The id's low bits name its completion shard: one sharded lock,
        // no scan, no contention with acks on other PG shards.
        let Some(wait) = self.rep_waits[rep_shard(ack.rep_id)]
            .lock()
            .remove(&ack.rep_id)
        else {
            // Not a replication sub-op: recovery-push acks share the id
            // space; anything left is a duplicate ack (retransmit raced
            // the original) and is dropped.
            self.handle_push_ack(ack);
            return;
        };
        let op = wait.op;
        if self.tuning.fast_ack {
            // §3.1: "ack messages are processed right away without
            // enqueueing them to the PG queue."
            if let Some(t) = &op.trace {
                t.lock().replicas = Some(Instant::now());
            }
            {
                let mut p = op.progress.lock();
                p.acks += 1;
            }
            self.maybe_reply(&op);
        } else {
            // Community: the ack competes with data ops for the PG queue
            // and the PG lock.
            let inner = Arc::clone(self);
            let pg = Arc::clone(&op.pg);
            // qos-ok: replica ack on the community path — internal traffic.
            self.queue_pg(
                pg,
                Box::new(move |_st| {
                    inner.log("repop reply via op_wq");
                    if let Some(t) = &op.trace {
                        t.lock().replicas = Some(Instant::now());
                    }
                    {
                        let mut p = op.progress.lock();
                        p.acks += 1;
                    }
                    inner.maybe_reply(&op);
                }),
            );
        }
    }

    // ---------------------------------------------------------------- //
    // Failure detection, peering and recovery (the self-healing loop)
    // ---------------------------------------------------------------- //

    /// Record a heartbeat (ping or pong) from `peer`.
    fn note_peer_alive(&self, peer: OsdId) {
        self.hb_peers.lock().insert(peer, Instant::now());
    }

    fn handle_ping(&self, from: Addr, ping: PingMsg) {
        self.note_peer_alive(ping.from);
        let epoch = self.map.read().epoch();
        self.send(
            from,
            OsdMsg::Pong(PingMsg {
                from: self.id,
                epoch,
            }),
        );
    }

    /// One heartbeat interval: reassert liveness, ping peers, report the
    /// silent ones, then pump peering/recovery against the current map.
    /// Runs on the dedicated `-hb` thread; never called on the I/O path.
    fn heartbeat_tick(self: &Arc<Self>) {
        let Some(mon) = self.monitor.clone() else {
            return;
        };
        // Rejoin: if the map thinks we are down (we were paused, or a peer
        // falsely accused us), reassert liveness — epoch bump, peers re-peer.
        {
            let map = self.map.read().clone();
            if !map.osd_status(self.id).up {
                mon.report_alive(self.id);
            }
        }
        let map = self.map.read().clone();
        let peers: Vec<OsdId> = map
            .crush()
            .osds()
            .into_iter()
            .filter(|&o| o != self.id && map.osd_status(o).up)
            .collect();
        // Suspicion sweep before this round's pings: a peer heard from
        // within the grace window is healthy; one first seen now starts
        // its window fresh (no instant accusations after our own resume).
        let grace = Duration::from_millis(self.tuning.heartbeat_grace_ms.max(1));
        let now = Instant::now();
        let mut suspects: Vec<OsdId> = Vec::new();
        {
            let mut hb = self.hb_peers.lock();
            hb.retain(|o, _| peers.contains(o));
            for &p in &peers {
                let last = *hb.entry(p).or_insert(now);
                if now.duration_since(last) >= grace {
                    suspects.push(p);
                }
            }
        }
        for &p in &peers {
            self.hb_pings.inc();
            self.send(
                Addr::Osd(p),
                OsdMsg::Ping(PingMsg {
                    from: self.id,
                    epoch: map.epoch(),
                }),
            );
        }
        for s in suspects {
            self.hb_reports.inc();
            mon.report_down(self.id, s);
        }
        mon.tick();
        // Pump against the possibly-just-bumped map.
        let map = self.map.read().clone();
        self.pump_pgs(&map, &mon);
        self.refresh_health_gauges();
    }

    /// Drive every local PG's peering and recovery state machine one step.
    fn pump_pgs(self: &Arc<Self>, map: &OsdMap, mon: &Monitor) {
        let mut by_id: BTreeMap<PgId, Arc<Pg>> = self
            .pgs
            .read()
            .iter()
            .map(|(id, pg)| (*id, Arc::clone(pg)))
            .collect();
        // A re-placement can promote this OSD into a PG it has never
        // hosted (no ops ever touched it here): the *map*, not the local
        // PG table, decides what must be peered — instantiate those on
        // demand or they would silently never peer or backfill.
        for (pool, spec) in map.pools() {
            for seq in 0..spec.pg_num {
                let id = PgId { pool, seq };
                if !by_id.contains_key(&id)
                    && map.pg_acting(id).is_ok_and(|a| a.first() == Some(&self.id))
                {
                    by_id.insert(id, self.pg(id));
                }
            }
        }
        let pgs: Vec<Arc<Pg>> = by_id.into_values().collect();
        let mut temps: Vec<(PgId, Vec<OsdId>)> = Vec::new();
        let mut clears: Vec<PgId> = Vec::new();
        for pg in pgs {
            let acting = map.pg_acting(pg.id()).unwrap_or_default();
            if acting.first() != Some(&self.id) {
                // Replica (or unplaced): primary-side bookkeeping dies
                // here; a later promotion re-peers from scratch.
                let mut st = pg.lock_measured();
                st.peering = None;
                st.health = PgHealth::Active;
                st.acting = acting;
                st.peer_missing.clear();
                st.recovering.clear();
                st.backfill.clear();
                st.want_pg_temp = None;
                st.want_clear_temp = false;
                continue;
            }
            let placed = map.pg_placed(pg.id()).unwrap_or_default();
            let mut queries: Vec<OsdId> = Vec::new();
            let mut picks: Vec<(OsdId, String, u64)> = Vec::new();
            {
                let mut st = pg.lock_measured();
                let round_current = st.peering.as_ref().is_some_and(|r| r.epoch == map.epoch());
                if round_current {
                    // Round already in flight for this epoch: re-query the
                    // laggards (tolerates dropped peering messages).
                    if let Some(round) = &st.peering {
                        queries.extend(round.awaiting.iter().copied());
                    }
                } else if st.peering.is_some() || st.acting != acting {
                    // Stale round, or the map moved this PG: (re)peer.
                    self.start_peering(map, &pg, &mut st, &acting, &mut queries);
                }
                if st.peering.is_none() {
                    self.schedule_recovery_locked(map, pg.id(), &mut st, &mut picks);
                    // pg_temp stewardship: pin ourselves while the placed
                    // primary is down or stale; hand primacy back (behind
                    // a peering fence) once it is owed nothing. A handoff
                    // temp queued by `complete_peering` takes precedence.
                    if st.want_pg_temp.is_none()
                        && placed.first() != Some(&self.id)
                        && map.pg_temp(pg.id()).is_none()
                    {
                        st.want_pg_temp = Some(acting.clone());
                    }
                    if map.pg_temp(pg.id()).is_some() {
                        if let Some(&head) = placed.first() {
                            if head == self.id {
                                // We are the placed primary again (e.g. a
                                // re-placement after a mark-out): the
                                // override is obsolete once no placed peer
                                // is owed anything; clearing it lets the
                                // next round admit new placed members for
                                // backfill.
                                if !placed.iter().any(|o| *o != self.id && st.owes_peer(*o)) {
                                    st.want_clear_temp = true;
                                }
                            } else if map.osd_status(head).up && !st.owes_peer(head) {
                                // Fence before the handoff publishes: a
                                // write racing past this point would miss
                                // `head`; fenced, it is rejected with
                                // `WrongEpoch` and retried against the
                                // post-handoff map.
                                st.health = PgHealth::Peering;
                                st.want_clear_temp = true;
                            }
                        }
                    }
                    if let Some(t) = st.want_pg_temp.take() {
                        temps.push((pg.id(), t));
                    }
                    if std::mem::take(&mut st.want_clear_temp) {
                        clears.push(pg.id());
                    } else if st.health != PgHealth::Peering {
                        self.update_health_locked(map, &placed, &mut st);
                    }
                }
            }
            for p in queries {
                self.send(
                    Addr::Osd(p),
                    OsdMsg::PgQuery(PgQueryMsg {
                        pg: pg.id(),
                        epoch: map.epoch(),
                        from: self.id,
                    }),
                );
            }
            for (peer, obj_name, gen) in picks {
                self.send_push(&pg, peer, obj_name, gen);
            }
        }
        // pg_temp changes batch into one epoch bump each; both are no-ops
        // (and free) when the batches are empty.
        mon.set_pg_temps(&temps);
        mon.clear_pg_temps(&clears);
    }

    /// Begin a peering round for the current epoch (PG lock held).
    fn start_peering(
        &self,
        map: &OsdMap,
        pg: &Arc<Pg>,
        st: &mut PgState,
        acting: &[OsdId],
        queries: &mut Vec<OsdId>,
    ) {
        let peers: BTreeSet<OsdId> = acting.iter().copied().filter(|&o| o != self.id).collect();
        self.peering_rounds.inc();
        self.log("peering: start round");
        st.health = PgHealth::Peering;
        st.peering = Some(pg::PeeringRound {
            epoch: map.epoch(),
            awaiting: peers.clone(),
            infos: BTreeMap::new(),
        });
        if peers.is_empty() {
            // Sole member: the round completes on local info alone.
            self.complete_peering(map, pg, st);
        } else {
            queries.extend(peers);
        }
    }

    /// A peer answers a `GetInfo` with its highest known PG-log sequence.
    fn handle_pgquery(self: &Arc<Self>, from: Addr, q: PgQueryMsg) {
        let pg = self.pg(q.pg);
        let last_update = {
            let st = pg.lock_measured();
            st.next_pg_seq.max(st.last_committed)
        };
        self.send(
            from,
            OsdMsg::PgInfo(PgInfoMsg {
                pg: q.pg,
                epoch: q.epoch,
                from: self.id,
                last_update,
            }),
        );
    }

    /// Collect a peering answer; the round completes when every acting
    /// peer has reported.
    fn handle_pginfo(self: &Arc<Self>, info: PgInfoMsg) {
        // Map snapshot strictly before the PG lock (lock rank order).
        let map = self.map.read().clone();
        if info.epoch != map.epoch() {
            return; // answer from a superseded round
        }
        let pg = self.pg(info.pg);
        let mut st = pg.lock_measured();
        let Some(round) = st.peering.as_mut() else {
            return;
        };
        if round.epoch != info.epoch {
            return;
        }
        round.awaiting.remove(&info.from);
        round.infos.insert(info.from, info.last_update);
        if round.awaiting.is_empty() {
            self.complete_peering(&map, &pg, &mut st);
        }
    }

    /// Close a peering round: agree on the authoritative log position,
    /// schedule backfill for stale peers, resume I/O.
    fn complete_peering(&self, map: &OsdMap, pg: &Arc<Pg>, st: &mut PgState) {
        let Some(round) = st.peering.take() else {
            return;
        };
        let acting = map.pg_acting(pg.id()).unwrap_or_default();
        let placed = map.pg_placed(pg.id()).unwrap_or_default();
        let mine = st.next_pg_seq.max(st.last_committed);
        let target = round.infos.values().copied().fold(mine, u64::max);
        if target > mine {
            // A peer holds history we lack (we were down, or we are a
            // fresh member promoted by a re-placement): hand primacy to
            // the most advanced peer via `pg_temp` and stay fenced until
            // the map reflects it — serving I/O without the data would
            // fabricate `NotFound`s for acked writes. The interim primary
            // then backfills us and hands primacy back (see `pump_pgs`).
            let best = round
                .infos
                .iter()
                .filter(|(_, lu)| **lu == target)
                .map(|(p, _)| *p)
                .min()
                .expect("target came from infos");
            let mut temp = vec![best];
            temp.extend(acting.iter().copied().filter(|o| *o != best));
            st.want_pg_temp = Some(temp);
            st.health = PgHealth::Peering;
            st.acting = acting;
            self.peering_completed.inc();
            return;
        }
        for (&peer, &lu) in &round.infos {
            if lu != target {
                // Stale (or divergent) copy: full backfill — every local
                // object is pushed, converging the peer without a per-op
                // log diff.
                st.backfill.insert(peer);
            }
        }
        // Ledgers owed to peers that left placement (marked out) are
        // dropped: CRUSH re-homed their data.
        st.peer_missing
            .retain(|o, s| !s.is_empty() && (placed.contains(o) || map.osd_status(*o).up));
        st.backfill
            .retain(|o| placed.contains(o) || map.osd_status(*o).up);
        st.acting = acting;
        self.peering_completed.inc();
        self.log("peering: round complete");
        self.update_health_locked(map, &placed, st);
    }

    /// Recompute `health` from the ledgers and the map (PG lock held).
    fn update_health_locked(&self, map: &OsdMap, placed: &[OsdId], st: &mut PgState) {
        if st.peering.is_some() {
            st.health = PgHealth::Peering;
            return;
        }
        let owes_up = !st.recovering.is_empty()
            || st.backfill.iter().any(|o| map.osd_status(*o).up)
            || st
                .peer_missing
                .iter()
                .any(|(o, s)| !s.is_empty() && map.osd_status(*o).up);
        let degraded = placed.iter().any(|o| !st.acting.contains(o));
        st.health = if owes_up {
            PgHealth::Recovering
        } else if degraded {
            PgHealth::Degraded
        } else {
            PgHealth::Active
        };
    }

    /// Journal a write the down-but-placed peers missed (PG lock held).
    fn record_degraded_write(&self, st: &mut PgState, absent: &[OsdId], obj_name: &str) {
        for &peer in absent {
            st.peer_missing
                .entry(peer)
                .or_default()
                .insert(obj_name.to_string());
        }
        if !absent.is_empty() && st.health == PgHealth::Active {
            st.health = PgHealth::Degraded;
        }
    }

    /// Whether replication of `obj_name` to `peer` must yield to recovery:
    /// the peer's base copy is stale or absent, so mirroring a partial
    /// write onto it would corrupt it — the pump pushes the full object
    /// instead. Supersedes any in-flight push so stale data cannot win.
    fn defer_to_recovery(&self, st: &mut PgState, peer: OsdId, obj_name: &str) -> bool {
        let missing = st
            .peer_missing
            .get(&peer)
            .is_some_and(|s| s.contains(obj_name));
        let key = (peer, obj_name.to_string());
        let in_flight = st.recovering.contains_key(&key);
        if !missing && !in_flight && !st.backfill.contains(&peer) {
            return false;
        }
        st.recovering.remove(&key);
        st.peer_missing
            .entry(peer)
            .or_default()
            .insert(obj_name.to_string());
        true
    }

    /// Move up to `recovery_max_inflight` owed objects into `recovering`
    /// (PG lock held); the caller performs the reads and sends after
    /// releasing the lock. Backfill peers get the PG's whole object list
    /// enumerated into their ledger first.
    fn schedule_recovery_locked(
        &self,
        map: &OsdMap,
        pg_id: PgId,
        st: &mut PgState,
        picks: &mut Vec<(OsdId, String, u64)>,
    ) {
        if !st.backfill.is_empty() {
            let objects: Vec<String> = self
                .store
                .list_objects()
                .into_iter()
                .filter(|name| {
                    parse_object_name(name).and_then(|obj| map.object_pg(&obj).ok()) == Some(pg_id)
                })
                .collect();
            let peers: Vec<OsdId> = st.backfill.iter().copied().collect();
            for p in peers {
                st.backfill.remove(&p);
                let set = st.peer_missing.entry(p).or_default();
                for o in &objects {
                    set.insert(o.clone());
                }
            }
        }
        let max = self.tuning.recovery_max_inflight.max(1);
        if st.recovering.len() >= max {
            return;
        }
        let budget = max - st.recovering.len();
        let mut chosen: Vec<(OsdId, String)> = Vec::new();
        'outer: for (&peer, objs) in st.peer_missing.iter() {
            if !map.osd_status(peer).up {
                continue; // unreachable peer: its ledger waits
            }
            for o in objs.iter() {
                if st.recovering.contains_key(&(peer, o.clone())) {
                    continue;
                }
                chosen.push((peer, o.clone()));
                if chosen.len() >= budget {
                    break 'outer;
                }
            }
        }
        for (peer, obj) in chosen {
            if let Some(s) = st.peer_missing.get_mut(&peer) {
                s.remove(&obj);
            }
            st.push_gen += 1;
            let gen = st.push_gen;
            st.recovering.insert((peer, obj.clone()), gen);
            picks.push((peer, obj, gen));
        }
    }

    /// Read the authoritative copy of one owed object and push it. The
    /// read happens off the PG lock; the send re-validates the pick's
    /// generation under the lock, so a push superseded by a concurrent
    /// write is dropped (the pump re-pushes fresh data later).
    fn send_push(self: &Arc<Self>, pg: &Arc<Pg>, peer: OsdId, obj_name: String, gen: u64) {
        // Every acked write must be in the pushed bytes.
        self.apply_gate.wait_ordered(&obj_name);
        let data = match self.store.stat(&obj_name) {
            Ok(m) => self
                .store
                .read(&obj_name, 0, m.size as usize)
                .ok()
                .map(Bytes::from),
            Err(_) => None, // deleted (or never created): propagate absence
        };
        let Some(object) = parse_object_name(&obj_name) else {
            return;
        };
        let st = pg.lock_measured();
        if st.recovering.get(&(peer, obj_name.clone())) != Some(&gen) {
            return; // superseded; the pump will push fresh data
        }
        let push_id = self.alloc_rep_id(pg.id());
        let push = PushOp {
            push_id,
            pg: pg.id(),
            object,
            data,
            pg_seq: st.next_pg_seq,
        };
        // PG_STATE → PUSH_WAITS ranks upward; holding the PG lock through
        // the send keeps the ack from racing this bookkeeping.
        self.push_waits[rep_shard(push_id)].lock().insert(
            push_id,
            PushWait {
                pg: Arc::clone(pg),
                peer,
                object: obj_name,
                gen,
                sent: Instant::now(),
            },
        );
        self.recovery_pushes.inc();
        self.log("send recovery push");
        self.send(Addr::Osd(peer), OsdMsg::Push(push));
        drop(st);
    }

    /// Replica side of a recovery push: install the full copy (or the
    /// deletion) through the normal journal → filestore pipeline and ack
    /// with the shared `RepAck` message.
    fn handle_push(self: &Arc<Self>, from: Addr, push: PushOp) {
        self.log("handle recovery push");
        // Same dedup window as Replicate: push ids share the id space.
        {
            let key = (from, push.push_id);
            let mut seen = self.rep_seen[rep_shard(push.push_id)].lock();
            match seen.state.get(&key) {
                Some(true) => {
                    drop(seen);
                    self.send(
                        from,
                        OsdMsg::RepAck(RepOpReply {
                            rep_id: push.push_id,
                            from: self.id,
                        }),
                    );
                    return;
                }
                Some(false) => return,
                None => seen.insert(key),
            }
        }
        let pg = self.pg(push.pg);
        let inner = Arc::clone(self);
        let pgc = Arc::clone(&pg);
        // qos-ok: recovery push install — internal traffic is never shaped.
        self.queue_pg(
            pg,
            Box::new(move |st| {
                st.next_pg_seq = st.next_pg_seq.max(push.pg_seq);
                let obj_name = push.object.to_string();
                let txn = match &push.data {
                    Some(data) => {
                        // Full-object overwrite: truncate-then-write
                        // installs exactly the primary's copy regardless
                        // of the local state.
                        let mut t = Transaction::new();
                        t.push(TxOp::Touch {
                            object: obj_name.clone(),
                        });
                        t.push(TxOp::Truncate {
                            object: obj_name.clone(),
                            size: 0,
                        });
                        t.push(TxOp::Write {
                            object: obj_name.clone(),
                            offset: 0,
                            // zero-copy-ok: Bytes refcount bump into the txn
                            data: data.clone(),
                        });
                        t.push(pg_log_op(pgc.id(), push.pg_seq, &obj_name));
                        t
                    }
                    None => {
                        if inner.store.stat(&obj_name).is_err() {
                            // Nothing to delete locally: ack right away.
                            inner.mark_rep_done(from, push.push_id);
                            inner.send(
                                from,
                                OsdMsg::RepAck(RepOpReply {
                                    rep_id: push.push_id,
                                    from: inner.id,
                                }),
                            );
                            return;
                        }
                        let mut t = Transaction::new();
                        t.push(TxOp::Remove {
                            object: obj_name.clone(),
                        });
                        t.push(pg_log_op(pgc.id(), push.pg_seq, &obj_name));
                        t
                    }
                };
                let inner2 = Arc::clone(&inner);
                let pgc2 = Arc::clone(&pgc);
                let payload = txn.encode();
                // zero-copy-ok: Bytes refcount bump shared with the journal record
                let payload2 = payload.clone();
                let pg_seq = push.pg_seq;
                let push_id = push.push_id;
                let _ = inner.journal.submit(
                    payload,
                    Box::new(move |jseq| {
                        inner2.on_journal_commit_replica(
                            pgc2, jseq, txn, payload2, pg_seq, from, push_id,
                        );
                    }),
                );
            }),
        );
    }

    /// Primary side of a push ack: retire the in-flight entry unless a
    /// newer generation superseded it.
    fn handle_push_ack(&self, ack: RepOpReply) {
        // The push_waits guard drops before the PG lock (sequential, not
        // nested: the ranks would invert the declared order otherwise).
        let Some(pw) = self.push_waits[rep_shard(ack.rep_id)]
            .lock()
            .remove(&ack.rep_id)
        else {
            return;
        };
        self.recovery_push_acks.inc();
        let mut st = pw.pg.lock_measured();
        let key = (pw.peer, pw.object);
        if st.recovering.get(&key) == Some(&pw.gen) {
            st.recovering.remove(&key);
        }
    }

    /// Requeue pushes whose ack is overdue (lost push or lost ack, or the
    /// peer died again). A verbatim resend could overwrite a newer push on
    /// the peer, so the object goes back into `peer_missing` and the pump
    /// pushes fresh bytes instead.
    fn requeue_expired_pushes(&self) {
        let timeout = Duration::from_millis(self.tuning.rep_resend_after_ms.max(1) * 4);
        let now = Instant::now();
        let mut expired: Vec<PushWait> = Vec::new();
        for shard in &self.push_waits {
            let mut waits = shard.lock();
            let ids: Vec<u64> = waits
                .iter()
                .filter(|(_, w)| now.duration_since(w.sent) >= timeout)
                .map(|(id, _)| *id)
                .collect();
            expired.extend(ids.into_iter().filter_map(|id| waits.remove(&id)));
        }
        for pw in expired {
            self.recovery_requeues.inc();
            let mut st = pw.pg.lock_measured();
            let key = (pw.peer, pw.object.clone());
            if st.recovering.get(&key) == Some(&pw.gen) {
                st.recovering.remove(&key);
                st.peer_missing
                    .entry(pw.peer)
                    .or_default()
                    .insert(pw.object);
            }
        }
    }

    /// Refresh the per-OSD PG-health gauges (heartbeat thread).
    fn refresh_health_gauges(&self) {
        let pgs: Vec<Arc<Pg>> = self.pgs.read().values().cloned().collect();
        let (mut deg, mut rec, mut peering) = (0i64, 0i64, 0i64);
        for pg in pgs {
            match pg.lock_measured().health {
                PgHealth::Degraded => deg += 1,
                PgHealth::Recovering => rec += 1,
                PgHealth::Peering => peering += 1,
                PgHealth::Active => {}
            }
        }
        self.pgs_degraded.set(deg);
        self.pgs_recovering.set(rec);
        self.pgs_peering.set(peering);
    }

    fn maybe_reply(&self, op: &Arc<WriteOp>) {
        let ready = {
            let mut p = op.progress.lock();
            if p.replied || !p.local_commit || p.acks < op.needed_acks {
                false
            } else {
                p.replied = true;
                true
            }
        };
        self.log("op commit ready");
        if !ready {
            return;
        }
        self.log("send client reply");
        if let Some(t) = &op.trace {
            let mut tt = t.lock();
            tt.reply = Some(Instant::now());
            self.recorder.finish(&tt);
        }
        let reply = ClientReply {
            op_id: op.op_id,
            result: Ok(OpOutcome::Done),
        };
        if let Some(lane) = op.ack_lane {
            // Ordered acks: hold back until every earlier op on this
            // (client, pg) lane has been released.
            for (to, r) in self
                .acker
                .release(op.client, op.pg.id(), lane, op.reply_to, reply)
            {
                self.send(to, OsdMsg::Reply(r));
            }
        } else {
            self.send(op.reply_to, OsdMsg::Reply(reply));
        }
        *op.permit.lock() = None; // release osd_client_message_cap
    }

    fn fail_op(&self, op: &Arc<WriteOp>, err: AfcError) {
        let already = {
            let mut p = op.progress.lock();
            std::mem::replace(&mut p.replied, true)
        };
        if already {
            return;
        }
        self.send(
            op.reply_to,
            OsdMsg::Reply(ClientReply {
                op_id: op.op_id,
                result: Err(err),
            }),
        );
        *op.permit.lock() = None;
    }
}

/// Build the filestore transaction for a replicated object write — data,
/// alloc hint, object metadata attrs, and the PG-log omap append (Figure 7).
fn build_write_txn(pg: PgId, object: &str, offset: u64, data: &Bytes, pg_seq: u64) -> Transaction {
    let mut txn = Transaction::new();
    txn.push(TxOp::Touch {
        object: object.to_string(),
    });
    txn.push(TxOp::SetAllocHint {
        object: object.to_string(),
    });
    txn.push(TxOp::Write {
        object: object.to_string(),
        offset,
        // zero-copy-ok: Bytes refcount bump into the txn
        data: data.clone(),
    });
    txn.push(TxOp::SetAttrs {
        object: object.to_string(),
        attrs: vec![("snapset".to_string(), Bytes::from_static(b"{}"))],
    });
    txn.push(pg_log_op(pg, pg_seq, object));
    txn
}

/// Recover an [`ObjectId`] from its store name (`pool<N>/<name>`). PG meta
/// objects (`pgmeta_*`) and any other non-object files yield `None`, so
/// backfill enumeration skips them.
fn parse_object_name(name: &str) -> Option<ObjectId> {
    let (pool, obj) = name.split_once('/')?;
    let n: u32 = pool.strip_prefix("pool")?.parse().ok()?;
    Some(ObjectId::new(PoolId(n), obj))
}

/// The PG-log entry (omap insert on the PG's meta object): entry + info.
fn pg_log_op(pg: PgId, pg_seq: u64, object: &str) -> TxOp {
    let log_key = Bytes::from(format!("pglog.{pg_seq:016x}"));
    let log_val = Bytes::from(format!("op write {object} v{pg_seq}"));
    let info_val = Bytes::from(format!("last_update={pg_seq}"));
    TxOp::OmapSetKeys {
        object: format!("pgmeta_{pg}"),
        keys: vec![(log_key, log_val), (Bytes::from_static(b"info"), info_val)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_gate_orders_reads_after_prior_writes_only() {
        let g = ApplyGate::new();
        g.add("obj");
        g.add("obj");
        let target = g.snapshot("obj");
        assert_eq!(target, Some(2));
        // A write enqueued after the snapshot must not block this reader.
        g.add("obj");
        let g = std::sync::Arc::new(g);
        let g2 = std::sync::Arc::clone(&g);
        let reader = std::thread::spawn(move || {
            let t0 = Instant::now();
            g2.wait_target("obj", target);
            t0.elapsed()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        g.done("obj");
        g.done("obj"); // applied == 2 == target → reader releases
        let waited = reader.join().unwrap();
        assert!(
            waited >= std::time::Duration::from_millis(15),
            "did not wait: {waited:?}"
        );
        assert!(
            waited < std::time::Duration::from_secs(5),
            "waited for the later write"
        );
        g.done("obj"); // third apply retires the entry
        assert_eq!(g.snapshot("obj"), None);
    }

    #[test]
    fn apply_gate_untracked_object_passes() {
        let g = ApplyGate::new();
        assert_eq!(g.snapshot("ghost"), None);
        g.wait_target("ghost", None); // returns immediately
        g.done("ghost"); // no-op
    }

    #[test]
    fn apply_gate_distinct_objects_independent() {
        let g = ApplyGate::new();
        g.add("a");
        assert_eq!(g.snapshot("b"), None);
        g.wait_target("b", g.snapshot("b")); // b is unaffected by a
        g.done("a");
        assert_eq!(g.snapshot("a"), None);
    }

    #[test]
    fn build_write_txn_shape() {
        let pg = PgId {
            pool: afc_common::PoolId(0),
            seq: 7,
        };
        let txn = build_write_txn(pg, "obj", 0, &Bytes::from(vec![0u8; 4096]), 3);
        assert_eq!(txn.len(), 5);
        assert_eq!(txn.data_bytes(), 4096);
        assert!(txn.encoded_bytes() > 4096);
        // The pg-log op targets the PG meta object.
        let has_pgmeta = txn.ops().iter().any(|o| o.object().starts_with("pgmeta_"));
        assert!(has_pgmeta);
    }
}
