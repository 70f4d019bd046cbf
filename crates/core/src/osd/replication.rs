//! Replication: sub-op fan-out and ack tracking on the primary, the one
//! sub-op routine (dedup window, journal, ack) on the replica, and the
//! resend sweep for sub-ops whose ack went missing.

use super::pg::PgWork;
use super::write::{mutation_txn, Waiter, WriteOp};
use super::OsdInner;
use crate::messages::{OsdMsg, RepOp, RepOpReply};
use afc_common::lockdep::{classes, TrackedMutex};
use afc_common::metrics::{Counter, Metrics};
use afc_common::{AfcError, PgId};
use afc_filestore::Transaction;
use afc_logging::Level;
use afc_messenger::Addr;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Primary-side record of one outstanding `Replicate`, kept until its
/// `RepAck` arrives. Carries everything needed to retransmit on timeout.
struct RepWait {
    op: Arc<WriteOp>,
    to: Addr,
    rep: RepOp,
    sent: Instant,
    resends: u32,
}

/// Replica-side dedup window so a retransmitted (or network-duplicated)
/// sub-op is re-acked, never re-journaled/re-applied. Bounded FIFO.
/// Keyed by (primary addr, rep_id): rep_ids are only unique per primary.
#[derive(Default)]
struct RepSeen {
    /// (primary, rep_id) → when its journal record is durable (`None`:
    /// journal submit in flight). A re-ack leaves no earlier than that,
    /// like the original ack.
    state: HashMap<(Addr, u64), Option<Instant>>,
    order: VecDeque<(Addr, u64)>,
}

impl RepSeen {
    /// Ids remembered across all primaries: the horizon of the sixteen
    /// 8 192-id per-shard windows this one table replaced.
    const CAP: usize = 16 * 8192;

    /// What the window knows of `key`; an unknown key is recorded as in
    /// flight (evicting the oldest entry beyond [`Self::CAP`]).
    fn admit(&mut self, key: (Addr, u64)) -> Option<Option<Instant>> {
        let known = self.state.get(&key).copied();
        if known.is_none() {
            self.state.insert(key, None);
            self.order.push_back(key);
            while self.order.len() > Self::CAP {
                if let Some(old) = self.order.pop_front() {
                    self.state.remove(&old);
                }
            }
        }
        known
    }
}

pub(super) struct Replication {
    /// Outstanding `Replicate` sub-ops by rep id.
    waits: TrackedMutex<HashMap<u64, RepWait>>,
    /// Replica-side dedup window.
    seen: TrackedMutex<RepSeen>,
    next_rep_id: AtomicU64,
    repops: Counter,
    repacks: Counter,
    rep_resends: Counter,
}

impl Replication {
    pub(super) fn new() -> Self {
        Replication {
            waits: TrackedMutex::new(&classes::REP_WAITS, HashMap::new()),
            seen: TrackedMutex::new(&classes::REP_SEEN, RepSeen::default()),
            next_rep_id: AtomicU64::new(1),
            repops: Counter::new(),
            repacks: Counter::new(),
            rep_resends: Counter::new(),
        }
    }

    pub(super) fn register(&self, m: &Metrics, osd: &str) {
        m.register_counter(format!("{osd}.op.repops"), &self.repops);
        m.register_counter(format!("{osd}.op.repacks"), &self.repacks);
        m.register_counter(format!("{osd}.op.rep_resends"), &self.rep_resends);
    }

    /// Flip a replica-side rep_id to "committed", durable at `durable`,
    /// so retransmits re-ack.
    pub(super) fn mark_done(&self, primary: Addr, rep_id: u64, durable: Instant) {
        self.seen
            .lock()
            .state
            .insert((primary, rep_id), Some(durable));
    }

    /// Empty the wait table (shutdown), handing back the stranded ops.
    pub(super) fn take_stranded(&self) -> Vec<Arc<WriteOp>> {
        self.waits.lock().drain().map(|(_, w)| w.op).collect()
    }
}

/// Replication retransmit ticker: sweeps the wait tables for sub-ops whose
/// ack is overdue (lost Replicate or RepAck) and resends, failing the op
/// after `rep_max_resends` attempts. Also sweeps the recovery pushes,
/// requeueing overdue ones, and fails reads parked on the applied prefix
/// past their deadline.
pub(super) fn reptimer_loop(inner: Arc<OsdInner>) {
    while !inner.shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(10));
        inner.resend_expired_reps();
        inner.requeue_expired_pushes();
        if let Some(w) = inner.write.applied.expire(Instant::now()) {
            inner.journal.trim_through(w);
        }
    }
}

impl OsdInner {
    /// Allocate a replication/push sub-op id (one id space for both).
    pub(super) fn alloc_rep_id(&self) -> u64 {
        self.rep.next_rep_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Send one `Replicate`, remembered with its wire form so the
    /// retransmit ticker can resend it if the ack never arrives.
    pub(super) fn replicate(&self, op: &Arc<WriteOp>, to: Addr, rep: RepOp) {
        self.rep.waits.lock().insert(
            rep.rep_id,
            RepWait {
                op: Arc::clone(op),
                to,
                rep: rep.clone(),
                sent: Instant::now(),
                resends: 0,
            },
        );
        self.send(to, OsdMsg::Replicate(rep));
    }

    /// Ack sub-op `rep_id` to `to`, leaving when its record is durable.
    pub(super) fn send_rep_ack(&self, to: Addr, rep_id: u64, durable: Instant) {
        let from = self.id;
        let ack = OsdMsg::RepAck(RepOpReply { rep_id, from });
        self.send_at(to, ack, Some(durable));
    }

    // ---------------------------------------------------------------- //
    // Replica side
    // ---------------------------------------------------------------- //

    /// A `Replicate` that arrives at `arrival`: taken on the primary's
    /// sending thread ahead of it (`OsdDispatcher::take`), or dispatched
    /// at it.
    pub(super) fn handle_repop(self: &Arc<Self>, from: Addr, rep: RepOp, arrival: Instant) {
        self.rep.repops.inc();
        self.log("handle repop");
        let (rep_id, pg, pg_seq) = (rep.rep_id, rep.pg, rep.pg_seq);
        let inline = self.tuning.fast_ack.then_some(arrival);
        self.handle_subop(from, rep_id, pg, pg_seq, inline, move |me| {
            me.alloc_overhead();
            mutation_txn(pg, &rep.object.to_string(), pg_seq, &rep.op)
        });
    }

    /// The replica sub-op routine, shared by mirrored client mutations and
    /// recovery installs: dedup, order under the PG lock, journal what
    /// `build` returns (`None`: nothing to do locally — ack right away),
    /// and let the commit continuation ack `from`.
    ///
    /// `inline` is §3.1's fast ack, with the sub-op's arrival: the sub-op
    /// — PG bookkeeping, txn build, journal submit — runs on this thread,
    /// cutting the PG-queue hand-off out of the primary-observed ack round
    /// trip, and its record is planned from that arrival. `None` sends it
    /// through the PG queue, its record planned from when it runs.
    ///
    /// **Taken ahead of its arrival.** A fast-ack `Replicate` is taken on
    /// the primary's thread that sends it, under the primary's PG lock, so
    /// this routine may run before `arrival`. The dedup window admits it
    /// and the sub-op joins this PG's FIFO right here, in the order the
    /// primary's PG lock sent it — its pg_seq order, which per-connection
    /// delivery gave before. The thread drains that FIFO, without
    /// blocking, once it holds no PG lock, never nested in the primary's
    /// (a non-blocking [`Pg::submit`](super::pg::Pg::submit)).
    /// Nothing the sub-op does is visible before `arrival`: its record is
    /// planned from `arrival` and is durable, and so in a crash image, no
    /// earlier than `arrival` plus the NVRAM write; the `RepAck` leaves at
    /// that instant; a sub-op with nothing to journal acks at `arrival`;
    /// applied marks come later still. What moves early is this PG's FIFO,
    /// its dedup entry and the record's ring occupancy.
    ///
    /// With `dedicated_completion` on, the commit continuation runs on
    /// whichever thread commits the record: this one when it leads the
    /// journal's write group (an idle journal), else the leader; like
    /// every commit continuation it takes no PG lock of its own, though it
    /// may run under the one its thread holds. The primary takes the
    /// `RepAck` on that thread too ([`Self::take_repack`]), so the sub-op
    /// may settle the primary's write there, under this PG lock.
    pub(super) fn handle_subop(
        self: &Arc<Self>,
        from: Addr,
        id: u64,
        pg: PgId,
        pg_seq: u64,
        inline: Option<Instant>,
        build: impl FnOnce(&OsdInner) -> Option<Transaction> + Send + 'static,
    ) {
        // Retransmit/duplicate dedup: an id we already committed gets a
        // fresh ack (the original was lost), leaving no earlier than the
        // original nor than this copy's arrival; one still in flight is
        // ignored (its commit will ack); only new ids are journaled.
        let known = self.rep.seen.lock().admit((from, id));
        match known {
            Some(Some(durable)) => {
                self.log("re-ack duplicate sub-op");
                let arrival = inline.unwrap_or_else(Instant::now);
                return self.send_rep_ack(from, id, durable.max(arrival));
            }
            Some(None) => return,
            None => {}
        }
        let pg = self.pg(pg);
        let (inner, pgc) = (Arc::clone(self), Arc::clone(&pg));
        let work: PgWork = Box::new(move |st| {
            st.next_pg_seq = st.next_pg_seq.max(pg_seq);
            let waiter = Waiter::Replica {
                primary: from,
                rep_id: id,
            };
            let arrival = inline.unwrap_or_else(Instant::now);
            let Some(txn) = build(&inner) else {
                return inner.complete(waiter, arrival);
            };
            if let Err(e) = inner.submit_commit(st, &pgc, txn, waiter, arrival) {
                inner.logger.logf(Level::Error, "osd", || {
                    format!("sub-op journal submit failed: {e}")
                });
            }
        });
        if inline.is_some() {
            pg.submit(work, false);
        } else {
            self.queue_pg(pg, work);
        }
    }

    // ---------------------------------------------------------------- //
    // Replica acks back at the primary
    // ---------------------------------------------------------------- //

    /// A `RepAck` dispatched at its arrival: every one with `fast_ack` off,
    /// and every one [`Self::take_repack`] handed back. One that settles no
    /// wait is not a replication sub-op's: recovery-push acks share the id
    /// space, and anything left is a duplicate (a retransmit raced the
    /// original), which the push path drops.
    pub(super) fn handle_repack(self: &Arc<Self>, ack: RepOpReply) {
        if let Some(ack) = self.take_repack(ack, Instant::now()) {
            self.rep.repacks.inc();
            self.handle_push_ack(ack);
        }
    }

    /// The one `RepAck` routine, for an ack that arrives at `arrival`:
    /// taken on the replica's thread as it sends the ack (§3.1's fast ack,
    /// `OsdDispatcher::take`) or dispatched at it ([`Self::handle_repack`]).
    /// Remove the sub-op's wait, raise the write's departure bound to the
    /// arrival — its `Ok` leaves no earlier
    /// ([`WritePath::reply`](super::write::WritePath::reply)) — and settle
    /// the write: right here with `fast_ack` ("ack messages are processed
    /// right away without enqueueing them to the PG queue"), else through
    /// the PG queue, where it competes with data ops for the PG lock
    /// (Figure 3's stage 5). An ack that settles no wait is handed back.
    pub(super) fn take_repack(
        self: &Arc<Self>,
        ack: RepOpReply,
        arrival: Instant,
    ) -> Option<RepOpReply> {
        let wait = self.rep.waits.lock().remove(&ack.rep_id);
        let Some(RepWait { op, .. }) = wait else {
            return Some(ack);
        };
        self.rep.repacks.inc();
        op.departure.raise(arrival);
        if self.tuning.fast_ack {
            self.settle(&op, 1);
        } else {
            let inner = Arc::clone(self);
            self.queue_pg(
                Arc::clone(&op.pg),
                Box::new(move |_st| {
                    inner.log("repop reply via op_wq");
                    inner.settle(&op, 1);
                }),
            );
        }
        None
    }

    /// Retransmit sub-ops whose ack is overdue; give up (typed failure to
    /// the client) after `rep_max_resends` attempts. Runs on the reptimer
    /// thread every few milliseconds; sends happen outside the lock.
    fn resend_expired_reps(&self) {
        let timeout = Duration::from_millis(self.tuning.rep_resend_after_ms.max(1));
        let now = Instant::now();
        let mut resend: Vec<(Addr, RepOp)> = Vec::new();
        let mut gave_up: Vec<Arc<WriteOp>> = Vec::new();
        {
            let mut waits = self.rep.waits.lock();
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
            gave_up.extend(dead.iter().filter_map(|id| waits.remove(id)).map(|w| w.op));
        }
        for (to, rep) in resend {
            self.rep.rep_resends.inc();
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
}

#[cfg(test)]
mod tests {
    use super::super::pg::Pg;
    use super::super::{OsdDispatcher, OsdParams};
    use super::*;
    use crate::messages::ObjectOp;
    use crate::monitor::Monitor;
    use crate::tuning::OsdTuning;
    use afc_common::{ObjectId, OsdId, PoolId};
    use afc_crush::CrushMap;
    use afc_device::{Nvram, NvramConfig, Ssd, SsdConfig};
    use afc_messenger::{Dispatcher, NetConfig, Network};
    use bytes::Bytes;

    #[test]
    fn rep_seen_admits_once_and_evicts_oldest() {
        let mut seen = RepSeen::default();
        let key = |id| (Addr::Osd(OsdId(1)), id);
        let durable = Instant::now();
        assert_eq!(seen.admit(key(1)), None);
        assert_eq!(seen.admit(key(1)), Some(None), "in flight: ignored");
        seen.state.insert(key(1), Some(durable));
        assert_eq!(
            seen.admit(key(1)),
            Some(Some(durable)),
            "committed: re-acked"
        );
        for id in 2..=RepSeen::CAP as u64 + 1 {
            assert_eq!(seen.admit(key(id)), None);
        }
        assert_eq!(seen.state.len(), RepSeen::CAP);
        assert_eq!(seen.admit(key(1)), None, "evicted ids are new again");
    }

    /// Wait until `done` holds; fail after 10 s.
    fn poll(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "no {what} after 10 s");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Where the primary settles a `RepAck`, seen by holding the write's PG
    /// lock on the primary once its `Replicate` is out: a Community ack
    /// waits in the PG queue until the lock is released, a fast ack
    /// settles the write all the same. A fast-ack replica runs its sub-op
    /// on the primary's thread as soon as that thread releases the
    /// primary's PG lock, so the test also holds the replica's PG lock, to
    /// keep the sub-op queued until the primary's is held.
    #[test]
    fn a_fast_ack_needs_no_pg_lock_and_a_community_one_waits_for_it() {
        const HOP: Duration = Duration::from_millis(20);
        for tuning in [OsdTuning::afceph(), OsdTuning::community()] {
            let fast = tuning.fast_ack;
            let cluster = crate::Cluster::builder()
                .nodes(2)
                .osds_per_node(1)
                .replication(2)
                .pg_num(8)
                .hop_latency(HOP)
                .tuning(tuning)
                .devices(crate::DeviceProfile::clean())
                .build()
                .unwrap();
            let client = cluster.client().unwrap();
            let object = ObjectId::new(cluster.pool(), "held");
            let (pgid, acting) = cluster.monitor().map().object_placement(&object).unwrap();
            let inner = &cluster.osd(acting[0]).unwrap().inner;
            let pg = inner.pg(pgid);
            let replica_pg = cluster.osd(acting[1]).unwrap().inner.pg(pgid);
            std::thread::scope(|s| {
                // Hold a PG lock on a thread of its own until released.
                let hold = |pg: &Arc<Pg>| {
                    let (held_tx, held) = crossbeam::channel::bounded(1);
                    let (release, release_rx) = crossbeam::channel::bounded::<()>(1);
                    let pg = Arc::clone(pg);
                    s.spawn(move || {
                        pg.with_state(|_| {
                            held_tx.send(()).unwrap();
                            release_rx.recv_timeout(Duration::from_secs(10)).unwrap();
                        })
                    });
                    held.recv().unwrap();
                    release
                };
                let release_replica = fast.then(|| hold(&replica_pg));
                let data = Bytes::from(vec![1u8; 4096]);
                let write = client.write_object_async("held", 0, data).unwrap();
                poll("Replicate", || inner.rep.waits.lock().len() == 1);
                let release = hold(&pg);
                if let Some(release_replica) = release_replica {
                    assert_eq!(replica_pg.pending_len(), 1, "the sub-op is not queued");
                    release_replica.send(()).unwrap();
                    let done = write.wait_timeout(Duration::from_secs(10));
                    assert!(done.is_ok(), "a fast ack waited for the PG lock");
                    assert_eq!(pg.pending_len(), 0, "the ack went through the PG queue");
                } else {
                    poll("RepAck", || inner.rep.waits.lock().is_empty());
                    std::thread::sleep(3 * HOP);
                    assert!(pg.pending_len() >= 1, "the ack is not in the PG queue");
                    assert!(write.try_wait().is_none(), "settled under a held PG lock");
                }
                release.send(()).unwrap();
                if !fast {
                    assert!(write.wait().is_ok(), "lost once the lock was released");
                }
            });
            cluster.shutdown();
        }
    }

    /// Records when each `RepAck` reaches the primary.
    struct AckTimes(Arc<parking_lot::Mutex<Vec<Instant>>>);

    impl Dispatcher<OsdMsg> for AckTimes {
        fn dispatch(&self, _from: Addr, msg: OsdMsg) {
            if let OsdMsg::RepAck(_) = msg {
                self.0.lock().push(Instant::now());
            }
        }
    }

    /// A duplicate `Replicate` that arrives while the original's journal
    /// record is still being written is re-acked no earlier than that
    /// record is durable, like the original: the dedup window hands the
    /// re-ack the original's instant.
    #[test]
    fn duplicate_is_never_re_acked_before_the_record_is_durable() {
        const NVRAM_ACCESS: Duration = Duration::from_millis(50);
        let net = Network::new(NetConfig::default());
        let inner = OsdInner::open(&OsdParams {
            id: OsdId(1),
            tuning: OsdTuning::afceph(),
            data_dev: Arc::new(Ssd::new(SsdConfig::sata3())),
            journal_dev: Arc::new(Nvram::new(NvramConfig {
                access: NVRAM_ACCESS,
                ..NvramConfig::pmc_8g()
            })),
            journal_capacity: 64 * afc_common::MIB,
            map: Monitor::new(CrushMap::uniform(1, 2)).shared_map(),
            net: Arc::clone(&net),
            monitor: None,
        })
        .unwrap();
        let me = Arc::new(OsdDispatcher(Arc::clone(&inner)));
        let msgr = net.register(Addr::Osd(OsdId(1)), me).unwrap();
        assert!(inner.msgr.set(msgr).is_ok());
        let primary = Addr::Osd(OsdId(0));
        let acks = Arc::new(parking_lot::Mutex::new(Vec::new()));
        net.register(primary, Arc::new(AckTimes(Arc::clone(&acks))))
            .unwrap();

        let rep = RepOp {
            rep_id: 1,
            pg: PgId {
                pool: PoolId(0),
                seq: 0,
            },
            object: ObjectId::new(PoolId(0), "obj"),
            op: ObjectOp::Write {
                offset: 0,
                data: Bytes::from(vec![1u8; 4096]),
            },
            pg_seq: 1,
        };
        let t0 = Instant::now();
        inner.handle_repop(primary, rep.clone(), t0);
        inner.handle_repop(primary, rep, t0);
        assert!(
            t0.elapsed() < NVRAM_ACCESS,
            "the duplicate arrived after the record was durable"
        );
        assert_eq!(inner.journal.stats().submits.get(), 1, "journaled once");
        let deadline = t0 + Duration::from_secs(5);
        while acks.lock().len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let acks = acks.lock().clone();
        assert_eq!(acks.len(), 2, "the original and the re-ack");
        for at in acks {
            assert!(at >= t0 + NVRAM_ACCESS, "acked {:?} after t0", at - t0);
        }
        net.shutdown();
    }
}
