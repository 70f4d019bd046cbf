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
        inner.write.applied.expire(Instant::now());
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

    pub(super) fn handle_repop(self: &Arc<Self>, from: Addr, rep: RepOp) {
        self.rep.repops.inc();
        self.log("handle repop");
        let (rep_id, pg, pg_seq) = (rep.rep_id, rep.pg, rep.pg_seq);
        self.handle_subop(from, rep_id, pg, pg_seq, self.tuning.fast_ack, move |me| {
            me.alloc_overhead();
            mutation_txn(pg, &rep.object.to_string(), pg_seq, &rep.op)
        });
    }

    /// The replica sub-op routine, shared by mirrored client mutations and
    /// recovery installs: dedup, order under the PG lock, journal what
    /// `build` returns (`None`: nothing to do locally — ack right away),
    /// and let the commit continuation ack `from`.
    ///
    /// `inline` is §3.1's fast ack + group commit: the whole sub-op — PG
    /// bookkeeping, txn build, journal commit, `RepAck` — runs on the
    /// messenger dispatch thread, cutting the PG-queue and
    /// completion-worker hand-offs out of the primary-observed ack round
    /// trip. The commit callback runs on whichever thread commits the
    /// record: this one when it leads the journal's write group (an idle
    /// journal), else the leader; like every commit continuation it takes
    /// no PG lock. Either way the `RepAck` leaves when the record is
    /// durable, and no thread waits for that.
    pub(super) fn handle_subop(
        self: &Arc<Self>,
        from: Addr,
        id: u64,
        pg: PgId,
        pg_seq: u64,
        inline: bool,
        build: impl FnOnce(&OsdInner) -> Option<Transaction> + Send + 'static,
    ) {
        // Retransmit/duplicate dedup: an id we already committed gets a
        // fresh ack (the original was lost), leaving no earlier than the
        // original; one still in flight is ignored (its commit will ack);
        // only new ids are journaled.
        let known = self.rep.seen.lock().admit((from, id));
        match known {
            Some(Some(durable)) => {
                self.log("re-ack duplicate sub-op");
                return self.send_rep_ack(from, id, durable);
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
            let Some(txn) = build(&inner) else {
                return inner.complete(waiter, Instant::now());
            };
            if let Err(e) = inner.submit_commit(st, &pgc, txn, waiter, inline) {
                inner.logger.logf(Level::Error, "osd", || {
                    format!("sub-op journal submit failed: {e}")
                });
            }
        });
        if inline {
            pg.submit(work, true);
        } else {
            self.queue_pg(pg, work);
        }
    }

    // ---------------------------------------------------------------- //
    // Replica acks back at the primary
    // ---------------------------------------------------------------- //

    pub(super) fn handle_repack(self: &Arc<Self>, ack: RepOpReply) {
        self.rep.repacks.inc();
        let wait = self.rep.waits.lock().remove(&ack.rep_id);
        let Some(RepWait { op, .. }) = wait else {
            // Not a replication sub-op: recovery-push acks share the id
            // space; anything left is a duplicate ack (retransmit raced
            // the original) and is dropped.
            return self.handle_push_ack(ack);
        };
        let pg = Arc::clone(&op.pg);
        let acked = move |me: &OsdInner| me.settle(&op, 1);
        if self.tuning.fast_ack {
            // §3.1: "ack messages are processed right away without
            // enqueueing them to the PG queue."
            acked(self);
        } else {
            // Community: the ack competes with data ops for the PG queue
            // and the PG lock.
            let inner = Arc::clone(self);
            self.queue_pg(
                pg,
                Box::new(move |_st| {
                    inner.log("repop reply via op_wq");
                    acked(&inner);
                }),
            );
        }
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
        inner.handle_repop(primary, rep.clone());
        inner.handle_repop(primary, rep);
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
