//! The one mutation path. A client write or delete on the primary, its
//! mirror on a replica and a recovery install all do the same three
//! things: build a filestore transaction ([`mutation_txn`] /
//! [`install_txn`]), journal it ([`OsdInner::submit_commit`]) and, once
//! its record is written, run one continuation — queue the filestore
//! apply, tell the waiter ([`OsdInner::complete`]).
//!
//! The §3.1 switches choose *where* that continuation runs, never *what*
//! it does (see [`OsdInner::on_local_commit`]).
//!
//! **Durability is an instant, and so is an apply.** The journal plans its
//! record and hands the continuation the instant it is durable; the
//! filestore plans the apply and hands its callback the instant the apply
//! completes; no thread sleeps for either. Everything that makes the write
//! visible waits for those instants instead: the `RepAck` and the client
//! reply leave no earlier than the record is durable
//! ([`Messenger::send_at`](afc_messenger::Messenger::send_at)), and the
//! applied prefix carries the later of the two
//! ([`AppliedPrefix::applied`]) — so trim, read-after-write and push
//! freshness follow durable records and completed applies only.
//!
//! **The one rule after the journal.** Queueing the filestore apply is the
//! first thing a continuation does, in journal-sequence order, and no
//! thread that queues applies (journal commit callback, completion worker)
//! takes a PG lock or runs PG work; only the Community completion worker
//! hands its `complete` to the PG's FIFO. So a PG-lock holder may wait for
//! applies ([`AppliedPrefix::wait`]) without blocking whoever queues them.

use super::ack::OrderedAcker;
use super::pg::{Pg, PgState};
use super::trace::{Mark, StageRecorder, Trace};
use super::trim::AppliedPrefix;
use super::OsdInner;
use crate::messages::{ClientReply, ObjectOp, OpOutcome, OsdMsg, RepOp};
use afc_common::lockdep::{classes, TrackedMutex};
use afc_common::metrics::{Counter, Metrics};
use afc_common::{AfcError, ClientId, ObjectId, OpId, OsdId, PgId, Result};
use afc_filestore::throttle::OwnedPermit;
use afc_filestore::{Transaction, TxOp};
use afc_logging::Level;
use afc_messenger::Addr;
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// An in-flight replicated mutation on the primary. It holds no lock: the
/// local commit and each replica settle a countdown, and whoever brings it
/// to zero and then wins `replied` sends the `Ok`; a failure only has to
/// win `replied`.
pub(super) struct WriteOp {
    pub(super) client: ClientId,
    pub(super) op_id: OpId,
    pub(super) reply_to: Addr,
    pub(super) pg: Arc<Pg>,
    pub(super) ack_lane: Option<u64>,
    /// Completions still owed: the local commit plus one per replica.
    pub(super) remaining: AtomicUsize,
    pub(super) replied: AtomicBool,
    /// When the local journal record is durable, set by the local commit:
    /// the `Ok` leaves no earlier. (Replica acks arrive after theirs.)
    pub(super) durable: OnceLock<Instant>,
    /// `osd_client_message_cap` slot, released when the op drops — after
    /// the reply, as the replier holds the op while it sends.
    pub(super) _permit: OwnedPermit,
    /// Set on the sampled writes.
    pub(super) trace: Option<Box<Trace>>,
}

impl WriteOp {
    /// Stamp `m` if this op is sampled.
    pub(super) fn mark(&self, m: Mark) {
        if let Some(t) = &self.trace {
            t.mark(m);
        }
    }

    /// Count `n` completions: true for the one caller that brings the
    /// count to zero and wins the reply.
    fn settle(&self, n: usize) -> bool {
        // ordering: AcqRel — every settler releases the marks it stamped;
        // the one that reaches zero acquires them all before it reads them.
        self.remaining.fetch_sub(n, Ordering::AcqRel) == n && self.claim_reply()
    }

    /// Win the op's one reply, success or failure.
    fn claim_reply(&self) -> bool {
        // ordering: Relaxed — a swap on one atomic has one winner under any
        // ordering, and nothing is published through the latch.
        !self.replied.swap(true, Ordering::Relaxed)
    }
}

/// Who is told once a mutation is durable here.
pub(super) enum Waiter {
    /// The primary's own op: counts as its local commit.
    Primary(Arc<WriteOp>),
    /// A replica sub-op (mirror or recovery install): ack `primary`.
    Replica { primary: Addr, rep_id: u64 },
}

/// A journal-committed mutation whose continuation has yet to run.
pub(super) struct LocalCommit {
    pg: Arc<Pg>,
    jseq: u64,
    /// When its journal record is durable.
    durable: Instant,
    txn: Transaction,
    waiter: Waiter,
}

/// A client reply and the instant it leaves.
type Outbound = (Addr, ClientReply, Instant);

/// A read or recovery push that waits this long for an apply is wedged.
const APPLY_TIMEOUT: Duration = Duration::from_secs(10);

pub(super) struct WritePath {
    /// Which journal sequences the filestore has applied.
    pub(super) applied: AppliedPrefix,
    pub(super) completion_tx: TrackedMutex<Option<Sender<LocalCommit>>>,
    pub(super) recorder: StageRecorder,
    pub(super) acker: OrderedAcker<Outbound>,
    writes: Counter,
    apply_failures: Counter,
}

impl WritePath {
    pub(super) fn new() -> Self {
        WritePath {
            applied: AppliedPrefix::new(APPLY_TIMEOUT),
            completion_tx: TrackedMutex::new(&classes::OSD_CHANNEL_TX, None),
            recorder: StageRecorder::new(16),
            acker: OrderedAcker::new(),
            writes: Counter::new(),
            apply_failures: Counter::new(),
        }
    }

    pub(super) fn register(&self, m: &Metrics, osd: &str) {
        m.register_counter(format!("{osd}.op.writes"), &self.writes);
        m.register_counter(format!("{osd}.op.apply_failures"), &self.apply_failures);
        m.register_counter(format!("{osd}.op.gate_timeouts"), &self.applied.timeouts);
        self.recorder.register(m, &format!("{osd}.stage"));
    }

    /// The one reply of a write, success or failure, sent by whoever won it
    /// ([`WriteOp::settle`], [`WriteOp::claim_reply`]): an `Ok` to leave
    /// when the local record is durable, a failure at once; through the
    /// op's ordered-ack lane when it has one, so a failure takes its turn
    /// like a success and never wedges the lane. A sampled `Ok` feeds the
    /// stage histograms.
    pub(super) fn reply(
        &self,
        op: &WriteOp,
        result: Result<OpOutcome>,
        mut send: impl FnMut(Addr, ClientReply, Instant),
    ) {
        if let (Some(t), true) = (&op.trace, result.is_ok()) {
            self.recorder.finish(t);
        }
        let at = match (&result, op.durable.get()) {
            (Ok(_), Some(&durable)) => durable,
            _ => Instant::now(),
        };
        let reply = ClientReply {
            op_id: op.op_id,
            result,
        };
        if let Some(lane) = op.ack_lane {
            // Ordered acks: hold back until every earlier op on this
            // (client, pg) lane has been released, and never let a later
            // one leave first.
            let mut after = at;
            let acker = &self.acker;
            for (to, r, at) in acker.release(op.client, op.pg.id(), lane, (op.reply_to, reply, at))
            {
                after = after.max(at);
                send(to, r, after);
            }
        } else {
            send(op.reply_to, reply, at);
        }
    }
}

/// The filestore transaction for one replicated mutation, identical on the
/// primary and on every replica: for a write, data + alloc hint + object
/// metadata attrs (Figure 7); for a delete, the remove; then the PG-log
/// omap append. `None` for an op that mutates nothing.
pub(super) fn mutation_txn(
    pg: PgId,
    object: &str,
    pg_seq: u64,
    op: &ObjectOp,
) -> Option<Transaction> {
    let obj = || object.to_string();
    let mut txn = Transaction::new();
    match op {
        ObjectOp::Write { offset, data } => {
            txn.push(TxOp::Touch { object: obj() });
            txn.push(TxOp::SetAllocHint { object: obj() });
            txn.push(TxOp::Write {
                object: obj(),
                offset: *offset,
                data: data.clone(),
            });
            txn.push(TxOp::SetAttrs {
                object: obj(),
                attrs: vec![("snapset".to_string(), Bytes::from_static(b"{}"))],
            });
        }
        ObjectOp::Delete => {
            txn.push(TxOp::Remove { object: obj() });
        }
        ObjectOp::Read { .. } | ObjectOp::Stat => return None,
    }
    txn.push(pg_log_op(pg, pg_seq, object));
    Some(txn)
}

/// The transaction a recovery push installs: truncate-then-write puts
/// exactly the primary's full copy in place regardless of local state.
pub(super) fn install_txn(pg: PgId, object: &str, pg_seq: u64, data: &Bytes) -> Transaction {
    let obj = || object.to_string();
    let mut txn = Transaction::new();
    txn.push(TxOp::Touch { object: obj() });
    txn.push(TxOp::Truncate {
        object: obj(),
        size: 0,
    });
    txn.push(TxOp::Write {
        object: obj(),
        offset: 0,
        data: data.clone(),
    });
    txn.push(pg_log_op(pg, pg_seq, object));
    txn
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

/// The paper's single finisher, in both profiles: filestore hand-off,
/// then the waiter. AFCeph tells the waiter right here — no PG lock and no
/// PG work (§3.1: completion no longer serializes on them). In Community
/// the filestore hand-off blocks while the filestore throttle is full,
/// serializing every completion behind it (Figure 3 stage (5), Figure 4's
/// collapse), and nobody is told until the completion has been through
/// the PG queue and the PG lock, contending with data ops like every
/// Community ack does.
pub(super) fn completion_worker_loop(inner: Arc<OsdInner>, rx: Receiver<LocalCommit>) {
    while let Ok(c) = rx.recv() {
        inner.enqueue_filestore(c.jseq, c.durable, c.txn);
        if inner.tuning.dedicated_completion {
            inner.complete(c.waiter, c.durable);
        } else {
            let me = Arc::clone(&inner);
            inner.queue_pg(
                c.pg,
                Box::new(move |_st| {
                    me.log("journal commit -> pg backend");
                    me.complete(c.waiter, c.durable);
                }),
            );
        }
    }
}

impl OsdInner {
    /// A client mutation under the PG lock: log, replicate, metadata read
    /// (community), PG-log append, journal submit.
    pub(super) fn process_mutation(
        self: &Arc<Self>,
        st: &mut PgState,
        op: &Arc<WriteOp>,
        object: ObjectId,
        mutation: ObjectOp,
        replicas: &[OsdId],
        absent: &[OsdId],
    ) {
        self.log("do_op: write enter");
        self.alloc_overhead();
        let pg = op.pg.id();
        let obj_name = object.to_string();
        st.next_pg_seq += 1;
        st.info_version += 1;
        let pg_seq = st.next_pg_seq;
        self.record_degraded_write(st, absent, &obj_name);
        // Replicate FIRST (splay replication, Figure 2) — before the
        // metadata read, txn build and journal submit, so each replica's
        // journal round trip overlaps the primary's own pipeline instead
        // of queueing behind it. The payload `Bytes` is refcount-shared
        // with the client decode, never copied.
        let mut skipped = 0usize;
        for &r in replicas {
            if self.defer_to_recovery(st, r, &obj_name) {
                // The peer's copy of this object is stale/absent: a partial
                // write on that base would corrupt it (and a `Remove` of a
                // missing object errors). Leave the object in
                // `peer_missing`; the recovery pump pushes the full,
                // up-to-date copy — or the deletion — instead. Count the
                // ack as satisfied.
                skipped += 1;
                continue;
            }
            self.log("send repop");
            let rep = RepOp {
                rep_id: self.alloc_rep_id(),
                pg,
                object: object.clone(),
                op: mutation.clone(), // a `Bytes` refcount bump, no byte copy
                pg_seq,
            };
            self.replicate(op, Addr::Osd(r), rep);
        }
        if skipped > 0 {
            self.settle(op, skipped);
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
        let Some(txn) = mutation_txn(pg, &obj_name, pg_seq, &mutation) else {
            return self.fail_op(op, AfcError::InvalidArgument("not a mutation".into()));
        };
        op.mark(Mark::JSubmit);
        self.log("journal submit");
        self.log("waiting for subops");
        let waiter = Waiter::Primary(Arc::clone(op));
        if let Err(e) = self.submit_commit(st, &op.pg, txn, waiter, false) {
            self.fail_op(op, e);
        }
        self.write.writes.inc();
    }

    /// Journal `txn` (PG lock held); its commit callback is the
    /// continuation's entry point. The journal carries the real transaction
    /// encoding: replay after a crash decodes and re-applies exactly what
    /// was acknowledged. The sequence it assigns becomes the PG's
    /// `last_jseq`: a read ordered at this PG from here on is ordered
    /// behind this mutation's apply. `inline` is the fast-ack replica
    /// path: the continuation runs on whichever thread commits the record.
    pub(super) fn submit_commit(
        self: &Arc<Self>,
        st: &mut PgState,
        pg: &Arc<Pg>,
        txn: Transaction,
        waiter: Waiter,
        inline: bool,
    ) -> Result<()> {
        let payload = txn.encode();
        let (inner, pg) = (Arc::clone(self), Arc::clone(pg));
        let on_commit = Box::new(move |jseq, durable| {
            let c = LocalCommit {
                pg,
                jseq,
                durable,
                txn,
                waiter,
            };
            inner.on_local_commit(c, inline);
        });
        st.last_jseq = self.journal.submit(payload, on_commit)?;
        Ok(())
    }

    /// *Where* the commit continuation runs — the §3.1 switches. It
    /// runs on the journal's write-group leader, which may hold a PG lock
    /// (its own submit's): a fast-ack replica's continuation runs right
    /// there, every other one is a channel send to the completion worker
    /// ([`completion_worker_loop`]), which queues the apply and tells the
    /// waiter.
    fn on_local_commit(self: &Arc<Self>, c: LocalCommit, inline: bool) {
        if let Waiter::Primary(op) = &c.waiter {
            op.mark(Mark::JCommit);
        }
        if inline {
            self.log("replica commit ack (inline)");
            self.enqueue_filestore(c.jseq, c.durable, c.txn);
            self.complete(c.waiter, c.durable);
        } else if let Some(tx) = &*self.write.completion_tx.lock() {
            // The send is unbounded, so it never blocks under the
            // handle's no-block lock.
            let _ = tx.send(c);
        }
    }

    /// *What* a local commit means to its waiter, whose record is durable
    /// at `durable`.
    pub(super) fn complete(&self, waiter: Waiter, durable: Instant) {
        match waiter {
            Waiter::Primary(op) => {
                op.mark(Mark::Handled);
                let _ = op.durable.set(durable);
                self.settle(&op, 1);
            }
            Waiter::Replica { primary, rep_id } => {
                // Flip the dedup entry to "committed" so retransmits re-ack.
                self.rep.mark_done(primary, rep_id, durable);
                self.send_rep_ack(primary, rep_id, durable);
            }
        }
    }

    /// Queue the apply; it may be planned, and its callback run, right
    /// here.
    fn enqueue_filestore(self: &Arc<Self>, jseq: u64, durable: Instant, txn: Transaction) {
        let inner = Arc::clone(self);
        let res = self.store.queue_transaction(
            txn,
            Box::new(move |r| match r {
                Ok(done) => inner.on_applied(jseq, done.max(durable)),
                Err(e) => inner.on_apply_failed(jseq, "apply", e),
            }),
        );
        if let Err(e) = res {
            self.on_apply_failed(jseq, "apply enqueue", e);
        }
    }

    /// A filestore apply failed: readers ordered behind it go on, the
    /// journal keeps the entry for replay (see [`AppliedPrefix::failed`]).
    fn on_apply_failed(&self, jseq: u64, what: &str, e: AfcError) {
        self.logger
            .logf(Level::Error, "osd", || format!("{what} failed: {e}"));
        self.write.apply_failures.inc();
        self.write.applied.failed(jseq);
    }

    /// `jseq` is applied, complete at `at` (see [`AppliedPrefix::applied`]).
    pub(super) fn on_applied(&self, jseq: u64, at: Instant) {
        self.log("filestore applied");
        if let Some(w) = self.write.applied.applied(jseq, at) {
            self.journal.trim_through(w);
        }
    }

    /// Settle `n` of `op`'s completions (its local commit, a replica ack,
    /// skipped replicas); the last one replies.
    pub(super) fn settle(&self, op: &WriteOp, n: usize) {
        self.log("op commit ready");
        if op.settle(n) {
            let send = |to, r, at| self.send_reply(to, r, at);
            self.write.reply(op, Ok(OpOutcome::Done), send);
        }
    }

    /// Fail `op` unless it has replied already.
    pub(super) fn fail_op(&self, op: &WriteOp, err: AfcError) {
        if op.claim_reply() {
            let send = |to, r, at| self.send_reply(to, r, at);
            self.write.reply(op, Err(err), send);
        }
    }

    fn send_reply(&self, to: Addr, reply: ClientReply, at: Instant) {
        self.log("send client reply");
        self.send_at(to, OsdMsg::Reply(reply), Some(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_filestore::Throttle;
    use std::sync::Barrier;

    /// Eight threads race on every op, 100 ops per round: seven settle one
    /// completion each, the eighth fails every odd op. Each op replies
    /// exactly once, and an op nobody fails replies `Ok`.
    fn race_settle_against_fail(ordered_acks: bool) {
        const OPS: u64 = 10_000;
        const THREADS: usize = 8;
        const ROUND: usize = 100;
        let path = WritePath::new();
        let throttle = Arc::new(Throttle::new("test", OPS));
        let pg = Pg::new(PgId {
            pool: afc_common::PoolId(0),
            seq: 0,
        });
        let client = ClientId(1);
        let ops: Vec<WriteOp> = (0..OPS)
            .map(|i| WriteOp {
                client,
                op_id: OpId(i),
                reply_to: Addr::Client(client),
                pg: Arc::clone(&pg),
                ack_lane: ordered_acks.then(|| path.acker.assign(client, pg.id())),
                remaining: AtomicUsize::new(THREADS - 1),
                replied: AtomicBool::new(false),
                durable: OnceLock::new(),
                _permit: throttle.acquire_owned(1).unwrap(),
                trace: path.recorder.start(),
            })
            .collect();
        let replies: Vec<(AtomicUsize, AtomicBool)> =
            (0..OPS).map(|_| Default::default()).collect();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (path, ops, replies, barrier) = (&path, &ops, &replies, &barrier);
                s.spawn(move || {
                    let mut count = |_: Addr, r: ClientReply, _: Instant| {
                        let (n, ok) = &replies[r.op_id.0 as usize];
                        n.fetch_add(1, Ordering::Relaxed);
                        ok.store(r.result.is_ok(), Ordering::Relaxed);
                    };
                    for round in ops.chunks(ROUND) {
                        barrier.wait();
                        // As `OsdInner::{settle, fail_op}` do.
                        for op in round {
                            if t + 1 < THREADS {
                                if op.settle(1) {
                                    path.reply(op, Ok(OpOutcome::Done), &mut count);
                                }
                            } else if op.op_id.0 % 2 == 1 && op.claim_reply() {
                                let err = AfcError::Timeout("raced".into());
                                path.reply(op, Err(err), &mut count);
                            }
                        }
                    }
                });
            }
        });
        for (i, (n, ok)) in replies.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "op {i} replies");
            if i % 2 == 0 {
                assert!(ok.load(Ordering::Relaxed), "op {i} was never failed");
            }
        }
        assert_eq!(path.acker.held(), 0, "no lane is left waiting");
        drop(ops);
        assert_eq!(throttle.in_use(), 0, "every permit released on drop");
    }

    #[test]
    fn settle_and_fail_race_to_exactly_one_reply() {
        race_settle_against_fail(false);
    }

    #[test]
    fn settle_and_fail_race_to_exactly_one_reply_on_an_ordered_lane() {
        race_settle_against_fail(true);
    }

    #[test]
    fn txn_shapes() {
        let pg = PgId {
            pool: afc_common::PoolId(0),
            seq: 7,
        };
        let data = Bytes::from(vec![0u8; 4096]);
        let kinds = |t: &Transaction| -> Vec<&'static str> {
            t.ops()
                .iter()
                .map(|o| match o {
                    TxOp::Touch { .. } => "touch",
                    TxOp::SetAllocHint { .. } => "hint",
                    TxOp::Write { .. } => "write",
                    TxOp::SetAttrs { .. } => "attrs",
                    TxOp::Truncate { .. } => "truncate",
                    TxOp::Remove { .. } => "remove",
                    TxOp::OmapSetKeys { object, .. } if object.starts_with("pgmeta_") => "pglog",
                    _ => "other",
                })
                .collect()
        };
        let write = ObjectOp::Write {
            offset: 0,
            data: data.clone(),
        };
        let txn = mutation_txn(pg, "obj", 3, &write).unwrap();
        assert_eq!(kinds(&txn), ["touch", "hint", "write", "attrs", "pglog"]);
        assert_eq!(txn.data_bytes(), 4096);
        assert!(txn.encoded_bytes() > 4096);
        let txn = mutation_txn(pg, "obj", 4, &ObjectOp::Delete).unwrap();
        assert_eq!(kinds(&txn), ["remove", "pglog"]);
        assert!(mutation_txn(pg, "obj", 5, &ObjectOp::Stat).is_none());
        let txn = install_txn(pg, "obj", 6, &data);
        assert_eq!(kinds(&txn), ["touch", "truncate", "write", "pglog"]);
        assert_eq!(txn.data_bytes(), 4096);
    }
}
