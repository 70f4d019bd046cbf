//! Replication: sub-op fan-out and ack tracking on the primary, the one
//! sub-op routine (PG order, journal, ack) on the replica, and the resend
//! sweep for sub-ops whose ack went missing. A replica takes a PG's
//! `Replicate`s in the order its primary sent them: each names the one
//! before it ([`RepOp::prev`]), and the replica keeps the last it took
//! ([`PgState::rep_taken`](super::pg::PgState::rep_taken)).

use super::pg::{Pg, PgState, PgWork};
use super::write::{mutation_txn, Waiter, WriteOp};
use super::OsdInner;
use crate::messages::{OsdMsg, RepOp, RepOpReply};
use afc_common::lockdep::{classes, TrackedMutex};
use afc_common::metrics::{Counter, Metrics};
use afc_common::{AfcError, PgId};
use afc_filestore::Transaction;
use afc_logging::Level;
use afc_messenger::Addr;
use std::collections::{BTreeMap, HashMap};
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

pub(super) struct Replication {
    /// Outstanding `Replicate` sub-ops by rep id.
    waits: TrackedMutex<HashMap<u64, RepWait>>,
    next_rep_id: AtomicU64,
    repops: Counter,
    /// `Replicate`s taken on the primary's sending thread, counted before
    /// the sub-op runs, so before anything it causes can be seen.
    pub(super) taken_repops: Counter,
    /// `Replicate`s dropped because a sub-op before them is missing.
    rep_gaps: Counter,
    repacks: Counter,
    /// `RepAck`s taken on the replica's sending thread, counted before the
    /// write they settle can be answered.
    taken_repacks: Counter,
    rep_resends: Counter,
}

impl Replication {
    pub(super) fn new() -> Self {
        Replication {
            waits: TrackedMutex::new(&classes::REP_WAITS, HashMap::new()),
            next_rep_id: AtomicU64::new(1),
            repops: Counter::new(),
            taken_repops: Counter::new(),
            rep_gaps: Counter::new(),
            repacks: Counter::new(),
            taken_repacks: Counter::new(),
            rep_resends: Counter::new(),
        }
    }

    pub(super) fn register(&self, m: &Metrics, osd: &str) {
        m.register_counter(format!("{osd}.op.repops"), &self.repops);
        m.register_counter(format!("{osd}.op.taken_repops"), &self.taken_repops);
        m.register_counter(format!("{osd}.op.rep_gaps"), &self.rep_gaps);
        m.register_counter(format!("{osd}.op.repacks"), &self.repacks);
        m.register_counter(format!("{osd}.op.taken_repacks"), &self.taken_repacks);
        m.register_counter(format!("{osd}.op.rep_resends"), &self.rep_resends);
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

    /// Send one `Replicate`, to leave no earlier than its write's request
    /// arrived, remembered with its wire form so the retransmit ticker can
    /// resend it if the ack never arrives; the resend clock starts when it
    /// leaves.
    pub(super) fn replicate(&self, op: &Arc<WriteOp>, to: Addr, rep: RepOp) {
        self.rep.waits.lock().insert(
            rep.rep_id,
            RepWait {
                op: Arc::clone(op),
                to,
                rep: rep.clone(),
                sent: op.arrival.max(Instant::now()),
                resends: 0,
            },
        );
        self.send_at(to, OsdMsg::Replicate(rep), Some(op.arrival));
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
        let replicate = Some((rep.prev, arrival));
        self.handle_subop(from, rep_id, pg, pg_seq, replicate, move |me| {
            me.alloc_overhead();
            mutation_txn(pg, &rep.object.to_string(), pg_seq, &rep.op)
        });
    }

    /// The replica sub-op routine, shared by mirrored client mutations and
    /// recovery installs: under the PG lock, re-ack a `Replicate` taken
    /// already, drop one whose `prev` is not the last taken, else journal
    /// what `build` returns (`None`: nothing to do locally — ack right
    /// away), and let the commit continuation ack `from`.
    ///
    /// `replicate` is a `Replicate`'s `prev` and arrival; `None` is a
    /// recovery push, which no chain orders. With §3.1's fast ack a
    /// `Replicate` runs inline: the sub-op — PG bookkeeping, txn build,
    /// journal submit — runs on this thread, cutting the PG-queue hand-off
    /// out of the primary-observed ack round trip, and its record is
    /// planned from its arrival. Anything else goes through the PG queue,
    /// its record planned from when it runs.
    ///
    /// **Taken ahead of its arrival.** A fast-ack `Replicate` is taken on
    /// the primary's thread that sends it, under the primary's PG lock, so
    /// this routine may run before `arrival`. The sub-op joins this PG's
    /// FIFO right here, in the order the primary's PG lock sent it — its
    /// chain order, which per-connection delivery gives a Community
    /// replica too. The thread drains that FIFO, without blocking, once it
    /// holds no PG lock, never nested in the primary's (a non-blocking
    /// [`Pg::submit`]). Nothing the sub-op does is visible before
    /// `arrival`: its record is planned from `arrival` and is durable, and
    /// so in a crash image, no earlier than `arrival` plus the NVRAM write;
    /// the `RepAck` leaves at that instant; a sub-op with nothing to
    /// journal acks at `arrival`; applied marks come later still. What
    /// moves early is this PG's FIFO, its chain position and the record's
    /// ring occupancy.
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
        replicate: Option<(Option<u64>, Instant)>,
        build: impl FnOnce(&OsdInner) -> Option<Transaction> + Send + 'static,
    ) {
        let inline = replicate.and_then(|(_, at)| self.tuning.fast_ack.then_some(at));
        let pg = self.pg(pg);
        let (inner, pgc) = (Arc::clone(self), Arc::clone(&pg));
        let work: PgWork = Box::new(move |st| {
            let arrival = inline.unwrap_or_else(Instant::now);
            if let Some((prev, _)) = replicate {
                match st.rep_taken.filter(|(primary, _)| *primary == from) {
                    // A copy of one taken already.
                    Some((_, last)) if pg_seq <= last => {
                        return inner.re_ack(st.last_jseq, from, id, arrival)
                    }
                    // The next link, or a chain start.
                    Some((_, last)) if prev == Some(last) => {}
                    _ if prev.is_none() => {}
                    // A link before it is missing; a resend fills the gap.
                    _ => return inner.rep.rep_gaps.inc(),
                }
            }
            st.next_pg_seq = st.next_pg_seq.max(pg_seq);
            let waiter = Waiter::Replica {
                primary: from,
                rep_id: id,
            };
            let submitted = match build(&inner) {
                Some(txn) => inner.submit_commit(st, &pgc, txn, waiter, arrival),
                None => {
                    inner.complete(waiter, arrival);
                    Ok(())
                }
            };
            if let Err(e) = submitted {
                // Not taken: its resend is still the next link.
                return inner.logger.logf(Level::Error, "osd", || {
                    format!("sub-op journal submit failed: {e}")
                });
            }
            if replicate.is_some() {
                st.rep_taken = Some((from, pg_seq));
            }
        });
        if inline.is_some() {
            pg.submit(work, false);
        } else {
            self.queue_pg(pg, work);
        }
    }

    /// Re-ack a copy of a sub-op once the PG's journaled sub-ops have
    /// applied (so its record is durable), no earlier than its `arrival`.
    fn re_ack(self: &Arc<Self>, last_jseq: u64, to: Addr, rep_id: u64, arrival: Instant) {
        self.log("re-ack duplicate sub-op");
        let inner = Arc::clone(self);
        self.after_applied(
            last_jseq,
            Box::new(move |done| {
                if let Ok(done) = done {
                    inner.send_rep_ack(to, rep_id, done.max(arrival));
                }
            }),
        );
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
        if let Some(ack) = self.take_repack(ack, Instant::now(), false) {
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
    /// One `taken` on the sender's thread is counted before it settles, so
    /// before the reply it may send.
    pub(super) fn take_repack(
        self: &Arc<Self>,
        ack: RepOpReply,
        arrival: Instant,
        taken: bool,
    ) -> Option<RepOpReply> {
        let wait = self.rep.waits.lock().remove(&ack.rep_id);
        let Some(RepWait { op, .. }) = wait else {
            return Some(ack);
        };
        self.rep.repacks.inc();
        if taken {
            self.rep.taken_repacks.inc();
        }
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

    /// Retransmit sub-ops whose ack is overdue, each peer's in PG order;
    /// give up (typed failure to the client) after `rep_max_resends`
    /// attempts. Runs on the reptimer thread every few milliseconds; sends
    /// happen outside the lock.
    fn resend_expired_reps(&self) {
        let timeout = Duration::from_millis(self.tuning.rep_resend_after_ms.max(1));
        let now = Instant::now();
        let mut resend: Vec<(Addr, RepOp)> = Vec::new();
        let mut dead: BTreeMap<(Addr, PgId), Arc<Pg>> = BTreeMap::new();
        for w in self.rep.waits.lock().values_mut() {
            if now.duration_since(w.sent) < timeout {
                continue;
            }
            if w.resends < self.tuning.rep_max_resends {
                w.resends += 1;
                w.sent = now;
                resend.push((w.to, w.rep.clone()));
            } else {
                let pg = || Arc::clone(&w.op.pg);
                dead.entry((w.to, w.rep.pg)).or_insert_with(pg);
            }
        }
        // A replica drops the sub-ops behind a lost one as gaps: sent in
        // PG order, the lost one goes first and fills the gap.
        resend.sort_by_key(|(to, rep)| (*to, rep.pg, rep.pg_seq));
        for (to, rep) in resend {
            self.rep.rep_resends.inc();
            self.log("resend repop");
            self.send(to, OsdMsg::Replicate(rep));
        }
        let err = AfcError::Timeout("replica ack timeout (resends exhausted)".into());
        for ((to, pgid), pg) in dead {
            pg.with_state(|st| self.restart_chains(st, pgid, Some(to), &err));
        }
    }

    /// Fail with `err` the writes waiting on `pg`'s sub-ops to `to` (`None`:
    /// any replica) and start those chains afresh, PG lock held: an old
    /// sub-op would be a gap forever, or pass for a copy once it arrives
    /// behind a new chain's start.
    pub(super) fn restart_chains(
        &self,
        st: &mut PgState,
        pg: PgId,
        to: Option<Addr>,
        err: &AfcError,
    ) {
        let restarted = |peer: Addr| to.is_none_or(|to| peer == to);
        st.rep_sent.retain(|peer, _| !restarted(*peer));
        let failed: Vec<Arc<WriteOp>> = {
            let mut waits = self.rep.waits.lock();
            let chained = waits.extract_if(|_, w| w.rep.pg == pg && restarted(w.to));
            chained.map(|(_, w)| w.op).collect()
        };
        for op in failed {
            self.fail_op(&op, err.clone());
        }
    }
}

#[cfg(test)]
mod tests {
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

    /// Records which sub-op each `RepAck` acks and when it reaches the
    /// primary.
    type Acks = Arc<parking_lot::Mutex<Vec<(u64, Instant)>>>;

    struct AckTimes(Acks);

    impl Dispatcher<OsdMsg> for AckTimes {
        fn dispatch(&self, _from: Addr, msg: OsdMsg) {
            if let OsdMsg::RepAck(ack) = msg {
                self.0.lock().push((ack.rep_id, Instant::now()));
            }
        }
    }

    /// An AFCeph replica, `osd.1`, on a network of its own with a fake
    /// primary, `osd.0`, whose `RepAck`s it records; the replica's journal
    /// writes take `nvram_access`.
    fn lone_replica(nvram_access: Duration) -> (Arc<Network<OsdMsg>>, Arc<OsdInner>, Addr, Acks) {
        let net = Network::new(NetConfig::default());
        let inner = OsdInner::open(&OsdParams {
            id: OsdId(1),
            tuning: OsdTuning::afceph(),
            data_dev: Arc::new(Ssd::new(SsdConfig::sata3())),
            journal_dev: Arc::new(Nvram::new(NvramConfig {
                access: nvram_access,
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
        let acks = Acks::default();
        net.register(primary, Arc::new(AckTimes(Arc::clone(&acks))))
            .unwrap();
        (net, inner, primary, acks)
    }

    /// A 4 KiB write of `obj` as the primary sends it, link `pg_seq` of its
    /// chain, right after `prev`.
    fn rep_op(obj: &str, pg_seq: u64, prev: Option<u64>) -> RepOp {
        RepOp {
            rep_id: pg_seq,
            pg: PgId {
                pool: PoolId(0),
                seq: 0,
            },
            object: ObjectId::new(PoolId(0), obj),
            op: ObjectOp::Write {
                offset: 0,
                data: Bytes::from(vec![pg_seq as u8; 4096]),
            },
            pg_seq,
            prev,
        }
    }

    /// A sub-op whose chain predecessor is missing runs nothing and is not
    /// acked; once the predecessor has run, its resend runs, once, and a
    /// later copy of it is only re-acked.
    #[test]
    fn a_gap_runs_nothing_and_its_resend_runs_once_after_the_missing_sub_op() {
        let (net, inner, primary, acks) = lone_replica(Duration::from_micros(20));
        let submits = || inner.journal.stats().submits.get();
        let now = Instant::now;
        inner.handle_repop(primary, rep_op("a", 2, Some(1)), now());
        assert_eq!(inner.rep.rep_gaps.get(), 1, "not counted as a gap");
        assert_eq!(submits(), 0, "a gap was journaled");
        inner.handle_repop(primary, rep_op("b", 1, None), now());
        inner.handle_repop(primary, rep_op("a", 2, Some(1)), now());
        assert_eq!(submits(), 2, "the chain start and the resend journaled");
        inner.handle_repop(primary, rep_op("a", 2, Some(1)), now());
        assert_eq!(submits(), 2, "a taken sub-op journaled again");
        poll("three acks", || acks.lock().len() == 3);
        std::thread::sleep(Duration::from_millis(50));
        let acked: Vec<u64> = acks.lock().iter().map(|(id, _)| *id).collect();
        assert_eq!(acked, [1, 2, 2], "the gap was acked, or a sub-op twice");
        assert_eq!(inner.rep.rep_gaps.get(), 1);
        net.shutdown();
    }

    /// A duplicate `Replicate` that arrives while the original's journal
    /// record is still being written is re-acked no earlier than that
    /// record is durable, like the original: the re-ack waits for the
    /// PG's journaled sub-ops to apply.
    #[test]
    fn duplicate_is_never_re_acked_before_the_record_is_durable() {
        const NVRAM_ACCESS: Duration = Duration::from_millis(50);
        let (net, inner, primary, acks) = lone_replica(NVRAM_ACCESS);
        let rep = rep_op("obj", 1, None);
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
        for (_, at) in acks {
            assert!(at >= t0 + NVRAM_ACCESS, "acked {:?} after t0", at - t0);
        }
        net.shutdown();
    }
}
