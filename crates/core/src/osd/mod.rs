//! The object storage daemon.
//!
//! One `Osd` owns a filestore (RAID-0 flash), a journal (NVRAM region), a
//! logger, PG structures and the op pipeline threads. The pipeline follows
//! Figure 2(b) of the paper, with every §3 optimization switchable through
//! [`OsdTuning`]:
//!
//! ```text
//! client ──▶ messenger ──▶ QoS ──▶ PG FIFO ──▶ order point (PG lock)
//!   afceph:    the client's sending thread runs it,   │  pg-log append
//!              planned from the request's arrival     │  replicate ▶ replicas
//!              (OP_WQ: QoS backlog only)              │
//!   community: a delivery thread admits it at its     │
//!              arrival, an OP_WQ worker runs it       ▼  journal submit
//!                      write-group leader plans record ▶ commit continuation
//!             community: a delivery thread hands each Replicate to the
//!                        replica's PG queue at its arrival; the completion
//!                        thread queues filestore (may block on throttle);
//!                        commits and acks go via the PG queue
//!             afceph:    the replica takes the Replicate on this thread,
//!                        into its PG FIFO, and runs the sub-op once the
//!                        thread holds no PG lock, its record planned from
//!                        the Replicate's arrival; the leader queues the
//!                        apply (may block on throttle), tells the op or
//!                        sends the RepAck, which settles the op on the
//!                        thread that sends it (no thread wakes)
//!             both:      a replica runs a PG's sub-ops only in the order
//!                        its primary sent them (each Replicate names the
//!                        one before it); replies, RepAcks and applied
//!                        marks no earlier than the journal record is
//!                        durable; an Ok no earlier than its last RepAck
//!                        arrives; nothing an op does shows before its
//!                        request arrives
//! ```
//!
//! The code is cut along the stages the trace names, each module holding
//! its own state, counters and metric registration: `dispatch` (op queue,
//! QoS admission, client requests, op workers), `write` (the one mutation
//! path, its commit continuation, Community's completion thread, the
//! client reply), `replication` (sub-op fan-out, the replica sub-op
//! routine, which takes each PG's sub-ops in the order its primary sent
//! them, acks, resends), `read` (reads answered
//! at their order point, or parked on the applied prefix), `trim` (the
//! applied prefix: the one order after the journal commit) and `healing`
//! (heartbeats, peering, recovery). This file is the daemon itself: spawn,
//! shutdown, crash/replay and the message dispatcher.

pub mod ack;
mod dispatch;
mod healing;
pub mod pg;
mod read;
mod replication;
mod trace;
mod trim;
mod write;

pub use write::mutation_txn;

use crate::messages::OsdMsg;
use crate::monitor::{Monitor, SharedMap};
use crate::tuning::OsdTuning;
use afc_common::lockdep::{classes, TrackedMutex, TrackedRwLock};
use afc_common::metrics::Metrics;
use afc_common::{AfcError, OsdId, PgId, Result};
use afc_device::BlockDev;
use afc_filestore::{FileStore, FileStoreConfig, Transaction};
use afc_journal::{Journal, JournalConfig};
use afc_logging::{Level, LogConfig, Logger};
use afc_messenger::{Addr, Dispatcher, Messenger, Network};
use pg::{Pg, PgCounters, PgHealth};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

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
    /// PG-lock acquisitions, their waits and PG-queue passes, one set
    /// shared by every PG of this OSD.
    pg_counters: PgCounters,
    dispatch: dispatch::Dispatch,
    write: write::WritePath,
    rep: replication::Replication,
    read: read::ReadPath,
    heal: healing::Healing,
    shutdown: AtomicBool,
    /// Process freeze (failure injection): drops every inbound message and
    /// suspends the heartbeat loop until `resume`.
    paused: AtomicBool,
}

/// A running OSD daemon.
pub struct Osd {
    inner: Arc<OsdInner>,
    workers: TrackedMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Osd {
    /// Spawn an OSD: opens the filestore and journal, registers with the
    /// network, and starts its threads (a completion thread in Community).
    pub fn spawn(params: OsdParams) -> Result<Arc<Osd>> {
        let inner = OsdInner::open(&params)?;
        // From `register` on, connection threads may call the dispatcher;
        // until `msgr.set` below it has no handle to answer with and drops
        // what arrives (see `OsdDispatcher::dispatch`).
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
        // On any spawn failure, tear down the workers already started so a
        // partially-constructed OSD never leaks threads.
        let mut workers = Vec::new();
        let result = (|| -> Result<()> {
            let mut start = |name: String, f: Box<dyn FnOnce(Arc<OsdInner>) + Send>| {
                let name = format!("{}-{name}", params.id);
                let inner = Arc::clone(&inner);
                let h = std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(move || f(inner))
                    .map_err(|e| AfcError::Io(format!("spawn {name}: {e}")))?;
                workers.push(h);
                Ok(())
            };
            for i in 0..dispatch::OP_THREADS {
                start(format!("op-{i}"), Box::new(dispatch::op_worker_loop))?;
            }
            if !inner.tuning.dedicated_completion {
                let (tx, rx) = crossbeam::channel::unbounded();
                *inner.write.completion_tx.lock() = Some(tx);
                start(
                    "completion".into(),
                    Box::new(move |inner| write::completion_worker_loop(inner, rx)),
                )?;
            }
            start("reptimer".into(), Box::new(replication::reptimer_loop))?;
            if inner.healing_enabled() {
                start("hb".into(), Box::new(healing::heartbeat_loop))?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            inner.stop_intake();
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

    /// Register this OSD's instrumentation into a cluster metric
    /// registry:
    ///
    /// - op counters under `osd<N>.op.*` (including the PG counters shared
    ///   by all of this OSD's PGs: `pg_locks`, every PG-lock acquisition;
    ///   `pg_lock_waits` / `pg_lock_wait_us`, the contended ones and their
    ///   wait; `pg_passes`, PG-queue items run; plus client-throttle waits under
    ///   `osd<N>.op.client_throttle.*`), per-volume QoS under
    ///   `osd<N>.qos.*`, self-healing under `osd<N>.{hb,peering,recovery}.*`,
    /// - write-path stage histograms under `osd<N>.stage.*` (one write in
    ///   16 sampled),
    /// - filestore under `osd<N>.fs.*`, its KV DB under `osd<N>.kv.*`,
    /// - the debug logger's counters as `osd<N>.log.*`,
    /// - the journal's counters under `<journal_prefix>.*` (the caller
    ///   picks the node-scoped name, e.g. `node0.journal`).
    pub fn attach_metrics(&self, m: &Metrics, journal_prefix: &str) {
        let inner = &self.inner;
        let osd = format!("osd{}", inner.id.0);
        let pg = &inner.pg_counters;
        m.register_counter(format!("{osd}.op.pg_locks"), &pg.locks);
        m.register_counter(format!("{osd}.op.pg_lock_waits"), &pg.lock_waits);
        m.register_counter(format!("{osd}.op.pg_lock_wait_us"), &pg.lock_wait_us);
        m.register_counter(format!("{osd}.op.pg_passes"), &pg.passes);
        inner.dispatch.register(m, &osd);
        inner.write.register(m, &osd);
        inner.rep.register(m, &osd);
        inner.read.register(m, &osd);
        inner.heal.register(m, &osd);
        inner.store.register_metrics(m, &format!("{osd}.fs"));
        inner.store.register_kv_metrics(m, &format!("{osd}.kv"));
        inner.logger.attach_metrics(m, &osd);
        inner.journal.register_metrics(m, journal_prefix);
    }

    /// Re-apply journal entries that had not reached the filestore (crash
    /// recovery): re-run every surviving (valid, untrimmed) entry in
    /// sequence order — the trim never passes an unapplied entry, so that
    /// covers them all — and declare void what the journal truncated. Each
    /// successful pass trims what it applied: a second pass is a no-op.
    pub fn replay_journal(&self) -> Result<usize> {
        let inner = &self.inner;
        let replay = inner.journal.replay();
        for e in &replay.entries {
            inner.store.apply_sync(Transaction::decode(&e.payload)?)?;
            // A surviving entry is durable by definition.
            inner.on_applied(e.seq, Instant::now());
        }
        if let Some(w) = inner.write.applied.void(replay.truncated) {
            inner.journal.trim_through(w);
        }
        Ok(replay.entries.len())
    }

    /// Simulate a process crash + restart of this OSD's storage stack:
    /// volatile state (applied marks beyond the journal's trim point,
    /// unsynced filestore KV records, metadata cache) is lost; the NVRAM
    /// ring and applied object data survive. Call [`Self::replay_journal`]
    /// next, as OSD init does — until then reads behind a lost mark wait.
    pub fn simulate_crash(&self) -> Result<usize> {
        self.inner.write.applied.resume_from_trim();
        self.inner.store.crash_volatile()
    }

    /// Simulate a process freeze: every inbound message is dropped and the
    /// heartbeat loop stops, so peers stop hearing from this OSD and (with
    /// failure detection on) report it down. Storage state is untouched.
    pub fn pause(&self) {
        self.inner.paused.store(true, Ordering::Relaxed);
    }

    /// Unfreeze a paused OSD. Local PGs are fenced into `Peering` *before*
    /// dispatch resumes, so a formerly-primary OSD cannot serve stale data
    /// in the window before its first post-resume peering round completes.
    pub fn resume(&self) {
        let pgs: Vec<Arc<Pg>> = self.inner.pgs.read().values().cloned().collect();
        for pg in pgs {
            pg.with_state(|st| {
                st.health = PgHealth::Peering;
                st.peering = None;
                st.acting.clear(); // force a fresh round on the next tick
            });
        }
        // Restart every peer's grace window from scratch.
        self.inner.heal.hb_peers.lock().clear();
        self.inner.paused.store(false, Ordering::Relaxed);
    }

    /// Drain in-flight work (test/bench helper): waits until the journal
    /// has committed everything submitted and the filestore has applied
    /// it, then trims what the last applies completed.
    pub fn quiesce(&self) {
        let inner = &self.inner;
        inner.journal.quiesce();
        inner.store.wait_idle();
        if let Some(w) = inner.write.applied.expire(Instant::now()) {
            inner.journal.trim_through(w);
        }
    }

    /// Stop the OSD's own threads. The OSD stops consuming its queue;
    /// the network endpoint should be shut down by the cluster first.
    /// Idempotent: later calls find the worker list already drained.
    pub fn shutdown(&self) {
        let inner = &self.inner;
        inner.stop_intake();
        inner.dispatch.client_throttle.close();
        // Fail writes still waiting on replica acks (e.g. acks lost to
        // injected faults) so nothing blocks on them across shutdown, and
        // fail the reads parked on the applied prefix.
        for op in inner.rep.take_stranded() {
            inner.fail_op(&op, AfcError::ShutDown("osd stopping".into()));
        }
        inner.heal.push_waits.lock().clear();
        inner.write.applied.close();
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
        if !inner.listening() {
            return;
        }
        if inner.msgr.get().is_none() {
            // Registered with the network but not yet handed its sending
            // handle (`Osd::spawn`): every handler may reply, so the
            // message is dropped like one to a booting daemon — the
            // sender's resend/heartbeat timers cover it.
            inner.dispatch.unready_drops.inc();
            return;
        }
        match msg {
            OsdMsg::Request(op) => inner.handle_request(from, op, Instant::now()),
            OsdMsg::Replicate(rep) => inner.handle_repop(from, rep, Instant::now()),
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

    /// With `pending_queue` on, take a client request on the client's
    /// thread that sends it: the op runs to its PG order point here, and
    /// nothing it does shows before `arrival` ([`OsdInner::handle_request`]).
    /// With `fast_ack` on, take a `Replicate` on the primary's thread that
    /// sends it: the sub-op joins its PG's FIFO here and runs once that
    /// thread holds no PG lock, its record planned from `arrival`
    /// ([`OsdInner::handle_subop`]). Take a `RepAck` that settles one of
    /// this OSD's sub-op waits, on the replica's thread
    /// ([`OsdInner::take_repack`]). Hand back everything else, and
    /// everything while this OSD would drop or could not answer it (see
    /// `dispatch`).
    fn take(&self, from: Addr, msg: OsdMsg, arrival: Instant) -> Option<OsdMsg> {
        let inner = &self.0;
        if !(inner.listening() && inner.msgr.get().is_some()) {
            return Some(msg);
        }
        let tuning = &inner.tuning;
        match msg {
            OsdMsg::Request(op) if tuning.pending_queue => {
                inner.handle_request(from, op, arrival);
                None
            }
            OsdMsg::Replicate(rep) if tuning.fast_ack => {
                inner.rep.taken_repops.inc();
                inner.handle_repop(from, rep, arrival);
                None
            }
            OsdMsg::RepAck(ack) if tuning.fast_ack => {
                inner.take_repack(ack, arrival, true).map(OsdMsg::RepAck)
            }
            msg => Some(msg),
        }
    }
}

impl OsdInner {
    /// Open the filestore and journal and assemble the daemon's state, not
    /// yet on the network (`msgr` unset) and with no threads of its own.
    fn open(params: &OsdParams) -> Result<Arc<OsdInner>> {
        let tuning = params.tuning.clone();
        let logger = Logger::new(LogConfig::preset(tuning.logging, Level::Trace));
        let fs_cfg = FileStoreConfig {
            queue_max_ops: tuning.filestore_queue_max_ops(),
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
                ..JournalConfig::default()
            },
        );
        Ok(Arc::new(OsdInner {
            id: params.id,
            logger,
            store,
            journal,
            msgr: OnceLock::new(),
            map: params.map.clone(),
            monitor: params.monitor.clone(),
            pgs: TrackedRwLock::new(&classes::OSD_PG_MAP, HashMap::new()),
            pg_counters: PgCounters::default(),
            dispatch: dispatch::Dispatch::new(&tuning),
            write: write::WritePath::new(),
            rep: replication::Replication::new(),
            read: read::ReadPath::new(),
            heal: healing::Healing::new(),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            tuning,
        }))
    }

    #[expect(
        clippy::expect_used,
        reason = "`Osd::spawn` sets the messenger before it starts a thread, and \
                  `OsdDispatcher::dispatch` drops what arrives before that"
    )]
    fn msgr(&self) -> &Messenger<OsdMsg> {
        self.msgr.get().expect("messenger registered at spawn")
    }

    fn send(&self, to: Addr, msg: OsdMsg) {
        self.send_at(to, msg, None);
    }

    /// Send `msg`, to leave at `at` when given (see [`Messenger::send_at`]).
    fn send_at(&self, to: Addr, msg: OsdMsg, at: Option<Instant>) {
        let (msgr, bytes) = (self.msgr(), msg.wire_bytes());
        let sent = match at {
            Some(at) => msgr.send_at(to, msg, bytes, at),
            None => msgr.send(to, msg, bytes),
        };
        if let Err(e) = sent {
            self.logger
                .logf(Level::Error, "osd", || format!("send to {to} failed: {e}"));
        }
    }

    /// Neither shut down nor paused: inbound messages are handled.
    fn listening(&self) -> bool {
        !self.shutdown.load(Ordering::Relaxed) && !self.paused.load(Ordering::Relaxed)
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
        Arc::clone(
            w.entry(id)
                .or_insert_with(|| Pg::with_counters(id, self.pg_counters.clone())),
        )
    }

    /// Whether the self-healing loop (heartbeats → peering → recovery)
    /// is active on this OSD.
    fn healing_enabled(&self) -> bool {
        self.tuning.heartbeat_interval_ms > 0 && self.monitor.is_some()
    }

    /// Stop taking work: raise the flag, wake the op workers, close the
    /// completion channel (Community) and abandon undispatched QoS-queued
    /// client ops (dropping the work closures releases their captured
    /// throttle permits). Shared by shutdown and a failed spawn.
    fn stop_intake(&self) {
        // ordering: cold path; SeqCst so the flag is ahead of the cv notify
        // and channel teardown below in every thread's view (the worker
        // loops read it Relaxed).
        self.shutdown.store(true, Ordering::SeqCst);
        self.dispatch.wake_all();
        *self.write.completion_tx.lock() = None;
        drop(self.dispatch.qos.clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::PingMsg;
    use afc_common::Epoch;
    use afc_crush::CrushMap;
    use afc_device::{Nvram, NvramConfig, Ssd, SsdConfig};
    use afc_messenger::NetConfig;

    /// `Osd::spawn` registers the dispatcher with the network before it can
    /// install the messenger handle; a peer's ping delivered in between
    /// used to panic the connection thread in `msgr()`.
    #[test]
    fn message_before_the_messenger_is_set_is_dropped_and_counted() {
        let monitor = Monitor::new(CrushMap::uniform(1, 2));
        let inner = OsdInner::open(&OsdParams {
            id: OsdId(0),
            tuning: OsdTuning::afceph(),
            data_dev: Arc::new(Ssd::new(SsdConfig::sata3())),
            journal_dev: Arc::new(Nvram::new(NvramConfig::pmc_8g())),
            journal_capacity: 64 * afc_common::MIB,
            map: monitor.shared_map(),
            net: Network::new(NetConfig::default()),
            monitor: None,
        })
        .unwrap();
        assert!(inner.msgr.get().is_none());
        let ping = OsdMsg::Ping(PingMsg {
            from: OsdId(1),
            epoch: Epoch(1),
        });
        OsdDispatcher(Arc::clone(&inner)).dispatch(Addr::Osd(OsdId(1)), ping);
        assert_eq!(inner.dispatch.unready_drops.get(), 1);
        // Dropped whole: the ping left no trace in the failure detector.
        assert!(inner.heal.hb_peers.lock().is_empty());
    }

    fn two_osds(tuning: OsdTuning) -> crate::Cluster {
        crate::Cluster::builder()
            .nodes(2)
            .osds_per_node(1)
            .replication(2)
            .pg_num(8)
            .tuning(tuning)
            .devices(crate::DeviceProfile::clean())
            .build()
            .unwrap()
    }

    /// The OSD's completion threads, by name.
    fn completion_threads(osd: &Osd) -> usize {
        let workers = osd.workers.lock();
        let named = |h: &&std::thread::JoinHandle<()>| {
            h.thread()
                .name()
                .is_some_and(|n| n.ends_with("-completion"))
        };
        workers.iter().filter(named).count()
    }

    /// `dedicated_completion` places the commit continuation: an AFCeph
    /// OSD runs it on the committing thread, with no completion thread and
    /// no channel to one; a Community OSD spawns exactly one, the finisher.
    #[test]
    fn only_community_spawns_a_completion_thread() {
        for (tuning, threads) in [(OsdTuning::afceph(), 0), (OsdTuning::community(), 1)] {
            let label = tuning.label();
            let cluster = two_osds(tuning);
            let client = cluster.client().unwrap();
            client.write_object("ct", 0, &[1u8; 4096]).unwrap();
            for osd in cluster.osds() {
                assert_eq!(completion_threads(osd), threads, "{label}: {}", osd.id());
                let channel = osd.inner.write.completion_tx.lock().is_some();
                assert_eq!(channel, threads == 1, "{label}: {}", osd.id());
            }
            cluster.shutdown();
        }
    }

    /// An AFCeph primary's own commit needs no completion thread: with
    /// the channel to one closed on every OSD, replicated writes are
    /// answered all the same.
    #[test]
    fn an_afceph_write_is_answered_with_no_completion_thread() {
        let cluster = two_osds(OsdTuning::afceph());
        for osd in cluster.osds() {
            *osd.inner.write.completion_tx.lock() = None;
        }
        let client = cluster.client().unwrap();
        for i in 0..16 {
            let data = bytes::Bytes::from(vec![i as u8; 4096]);
            let write = client
                .write_object_async(&format!("nc{i}"), 0, data)
                .unwrap();
            let done = write.wait_timeout(std::time::Duration::from_secs(5));
            assert!(done.is_ok(), "write {i}: {done:?}");
        }
        for osd in cluster.osds() {
            assert_eq!(completion_threads(osd), 0, "{}", osd.id());
        }
        cluster.shutdown();
    }
}
