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
    /// (primary, rep_id) → committed? (false: journal submit in flight).
    state: HashMap<(Addr, u64), bool>,
    order: VecDeque<(Addr, u64)>,
}

impl RepSeen {
    /// Ids remembered across all primaries: the horizon of the sixteen
    /// 8 192-id per-shard windows this one table replaced.
    const CAP: usize = 16 * 8192;

    /// What the window knows of `key`; an unknown key is recorded as in
    /// flight (evicting the oldest entry beyond [`Self::CAP`]).
    fn admit(&mut self, key: (Addr, u64)) -> Option<bool> {
        let known = self.state.get(&key).copied();
        if known.is_none() {
            self.state.insert(key, false);
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

    /// Flip a replica-side rep_id to "committed" so retransmits re-ack.
    pub(super) fn mark_done(&self, primary: Addr, rep_id: u64) {
        self.seen.lock().state.insert((primary, rep_id), true);
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

    pub(super) fn send_rep_ack(&self, to: Addr, rep_id: u64) {
        let from = self.id;
        self.send(to, OsdMsg::RepAck(RepOpReply { rep_id, from }));
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
    /// messenger dispatch thread through the journal's inline fast path,
    /// cutting the PG-queue, committer and completion-worker hand-offs out
    /// of the primary-observed ack round trip. The commit callback runs
    /// either right there (idle journal) or later on the committer thread;
    /// like every commit continuation it takes no PG lock.
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
        // fresh ack (the original was lost); one still in flight is
        // ignored (its commit will ack); only new ids are journaled.
        let known = self.rep.seen.lock().admit((from, id));
        match known {
            Some(true) => {
                self.log("re-ack duplicate sub-op");
                return self.send_rep_ack(from, id);
            }
            Some(false) => return,
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
                return inner.complete(waiter);
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
    use super::*;
    use afc_common::OsdId;

    #[test]
    fn rep_seen_admits_once_and_evicts_oldest() {
        let mut seen = RepSeen::default();
        let key = |id| (Addr::Osd(OsdId(1)), id);
        assert_eq!(seen.admit(key(1)), None);
        assert_eq!(seen.admit(key(1)), Some(false), "in flight: ignored");
        seen.state.insert(key(1), true);
        assert_eq!(seen.admit(key(1)), Some(true), "committed: re-acked");
        for id in 2..=RepSeen::CAP as u64 + 1 {
            assert_eq!(seen.admit(key(id)), None);
        }
        assert_eq!(seen.state.len(), RepSeen::CAP);
        assert_eq!(seen.admit(key(1)), None, "evicted ids are new again");
    }
}
