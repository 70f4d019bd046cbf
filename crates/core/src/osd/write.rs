//! The one mutation path. A client write or delete on the primary, its
//! mirror on a replica and a recovery install all do the same three
//! things: take a built filestore transaction and its encoding, journal
//! the encoding ([`OsdInner::submit_commit`]) and, once its record is
//! written, run one continuation — queue the filestore apply of the
//! transaction, tell the waiter ([`OsdInner::complete`]). Each is built
//! once: a client mutation's on the primary ([`mutation_txn`]), whose
//! `Replicate`s carry it and its encoding to the replicas, which build
//! nothing; a recovery install's on the replica that installs it
//! ([`install_txn`]).
//!
//! One §3.1 switch, `dedicated_completion`, chooses *where* that
//! continuation runs, never *what* it does (see
//! [`OsdInner::on_local_commit`]).
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
//! first thing a continuation does, in journal-sequence order (one
//! write-group leader at a time fires the callbacks, and the Community
//! finisher drains them in that order), and no continuation takes a PG
//! lock or runs PG work of its own; only the Community finisher hands its
//! `complete` to the PG's FIFO. A continuation may run under the PG lock
//! its leader holds, and may wait there for a full filestore throttle,
//! which frees itself in modeled time. So a PG-lock holder may wait for
//! applies ([`OsdInner::wait_applied`]) without blocking whoever queues
//! them: a Community read, or a submit on a full journal ring.

use super::pg::{Pg, PgState};
use super::trace::{Mark, StageRecorder, Trace};
use super::trim::{AppliedPrefix, Then};
use super::OsdInner;
use crate::messages::{ClientReply, ObjectOp, OpOutcome, OsdMsg, RepOp};
use afc_common::lockdep::{self, classes, TrackedMutex};
use afc_common::metrics::{Counter, Metrics};
use afc_common::{wait_until, AfcError, ObjectId, OpId, OsdId, PgId, Result, WaitClass};
use afc_filestore::throttle::OwnedPermit;
use afc_filestore::{Transaction, TxOp};
use afc_logging::Level;
use afc_messenger::Addr;
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// An in-flight replicated mutation on the primary. It holds no lock: the
/// local commit and each replica settle a countdown, and whoever brings it
/// to zero and then wins `replied` sends the `Ok`; a failure only has to
/// win `replied`.
pub(super) struct WriteOp {
    pub(super) op_id: OpId,
    pub(super) reply_to: Addr,
    pub(super) pg: Arc<Pg>,
    /// Its PG's reply slot ([`ReplyOrder`](super::ack::ReplyOrder)),
    /// taken at its order point, where the op is made.
    pub(super) slot: u64,
    /// Who sends the replies a dropped slot releases.
    pub(super) osd: Weak<OsdInner>,
    /// The request's arrival here. A request taken on the client's thread
    /// runs ahead of it: its record is planned, and its `Replicate`s
    /// leave, no earlier.
    pub(super) arrival: Instant,
    /// Completions still owed: the local commit plus one per replica.
    pub(super) remaining: AtomicUsize,
    pub(super) replied: AtomicBool,
    /// The departure bound of the reply: the latest of the request's
    /// arrival, the instant the local journal record is durable
    /// ([`OsdInner::complete`]) and each replica ack's arrival
    /// ([`OsdInner::take_repack`]).
    pub(super) departure: LatestInstant,
    /// `osd_client_message_cap` slot, released at the reply's departure
    /// (or when the op drops, if it never replies).
    pub(super) permit: OwnedPermit,
    /// Set on the sampled writes.
    pub(super) trace: Option<Box<Trace>>,
}

/// The latest of the instants it is shown, held lock-free as nanoseconds
/// after the instant it was made (0: none shown yet).
pub(super) struct LatestInstant {
    base: Instant,
    ns: AtomicU64,
}

impl LatestInstant {
    /// The latest so far: `floor`.
    pub(super) fn new(floor: Instant) -> Self {
        let latest = LatestInstant {
            base: Instant::now(),
            ns: AtomicU64::new(0),
        };
        latest.raise(floor);
        latest
    }

    /// Raise the latest to `at` if it is later.
    pub(super) fn raise(&self, at: Instant) {
        let ns = at.saturating_duration_since(self.base).as_nanos() as u64;
        // ordering: Relaxed — the write's completion count (AcqRel) orders
        // the replier's read after every raise, as for the trace stamps.
        self.ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn get(&self) -> Option<Instant> {
        let ns = self.ns.load(Ordering::Relaxed);
        (ns > 0).then(|| self.base + Duration::from_nanos(ns))
    }
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

impl Drop for WriteOp {
    /// A write that took a slot and never replied (its torn journal record
    /// dropped its commit callback, off the ring lock) drops the slot, so
    /// the PG's later replies go on.
    fn drop(&mut self) {
        if *self.replied.get_mut() {
            return;
        }
        // With the OSD gone, nothing is sent: what the slot held is moot.
        let Some(osd) = self.osd.upgrade() else {
            return;
        };
        let send = |reply, at| osd.send_reply(reply, at);
        self.pg.replies.lock().release(self.slot, None, send);
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
    txn: Arc<Transaction>,
    waiter: Waiter,
}

/// A wait for an apply that lasts this long is wedged.
const APPLY_TIMEOUT: Duration = Duration::from_secs(10);

pub(super) struct WritePath {
    /// Which journal sequences the filestore has applied.
    pub(super) applied: AppliedPrefix,
    pub(super) completion_tx: TrackedMutex<Option<Sender<LocalCommit>>>,
    pub(super) recorder: StageRecorder,
    writes: Counter,
    apply_failures: Counter,
}

impl WritePath {
    pub(super) fn new() -> Self {
        WritePath {
            applied: AppliedPrefix::new(APPLY_TIMEOUT),
            completion_tx: TrackedMutex::new(&classes::OSD_CHANNEL_TX, None),
            recorder: StageRecorder::new(16),
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
    /// ([`WriteOp::settle`], [`WriteOp::claim_reply`]), to leave at its
    /// departure bound (for an `Ok`: the request arrived, the local record
    /// durable, every replica ack arrived), in its PG's reply order, so a
    /// failure takes its turn like a success. The client-throttle slot is
    /// freed at the departure bound, and a sampled `Ok` feeds the stage
    /// histograms.
    pub(super) fn reply(
        &self,
        op: &WriteOp,
        result: Result<OpOutcome>,
        send: impl FnMut((Addr, ClientReply), Instant),
    ) {
        // Never before now, as `send_at` would have it: the trace's `reply`
        // then follows every mark stamped before it.
        let now = Instant::now();
        let at = op
            .departure
            .get()
            .map_or(now, |departure| departure.max(now));
        op.permit.release_at(at);
        if let (Some(t), true) = (&op.trace, result.is_ok()) {
            self.recorder.finish(t, at);
        }
        let reply = ClientReply {
            op_id: op.op_id,
            result,
        };
        let reply = ((op.reply_to, reply), at);
        op.pg.replies.lock().release(op.slot, Some(reply), send);
    }
}

/// The filestore transaction for one replicated mutation, built once, on
/// the primary, whose `Replicate`s carry it to every replica: for a write,
/// data + alloc hint + object metadata attrs (Figure 7); for a delete, the
/// remove; then the PG-log omap append. `None` for an op that mutates
/// nothing. It has nothing for [`Transaction::dedup`] to merge.
pub fn mutation_txn(pg: PgId, object: &str, pg_seq: u64, op: &ObjectOp) -> Option<Transaction> {
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

/// The paper's single finisher, Community's alone (`dedicated_completion`
/// off): filestore hand-off, then the waiter through the PG queue. The
/// filestore hand-off blocks while the filestore throttle is full,
/// serializing every completion behind it (Figure 3 stage (5), Figure 4's
/// collapse), and nobody is told until the completion has been through
/// the PG queue and the PG lock, contending with data ops like every
/// Community ack does.
pub(super) fn completion_worker_loop(inner: Arc<OsdInner>, rx: Receiver<LocalCommit>) {
    while let Ok(c) = rx.recv() {
        inner.enqueue_filestore(c.jseq, c.durable, c.txn);
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

impl OsdInner {
    /// A client mutation under the PG lock: PG-log sequence, the one txn
    /// build and encode, replicate, metadata read, journal submit. The
    /// primary's transaction and its encoding are the write's only ones:
    /// every `Replicate` carries them, the local journal record holds the
    /// encoding and the local apply reads the transaction.
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
        self.log("append pg log");
        let Some(txn) = mutation_txn(pg, &obj_name, pg_seq, &mutation) else {
            return self.fail_op(op, AfcError::InvalidArgument("not a mutation".into()));
        };
        let encoded = txn.encode();
        let txn = Arc::new(txn);
        // Replicate right after the build (splay replication, Figure 2) —
        // before the metadata read and the journal submit, so each
        // replica's journal round trip overlaps the primary's own pipeline
        // instead of queueing behind it. It leaves at the request's
        // arrival, so the build ahead of it moves no modeled instant. Each
        // `Replicate` shares the one transaction and encoding (refcount
        // bumps, no byte copy), and the payload `Bytes` in the transaction
        // is the client decode's.
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
                txn: Arc::clone(&txn),
                encoded: encoded.clone(),
                pg_seq,
                prev: st.rep_sent.insert(Addr::Osd(r), pg_seq),
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
        op.mark(Mark::JSubmit);
        self.log("journal submit");
        self.log("waiting for subops");
        let waiter = Waiter::Primary(Arc::clone(op));
        if let Err(e) = self.submit_commit(st, &op.pg, txn, encoded, waiter, op.arrival) {
            self.fail_op(op, e);
        }
        self.write.writes.inc();
    }

    /// Journal `encoded`, the encoding of the built `txn` (PG lock held);
    /// its commit callback is the continuation's entry point, which applies
    /// `txn` itself. The journal carries the real transaction encoding:
    /// replay after a crash decodes and re-applies exactly what was
    /// acknowledged. The sequence it assigns becomes the PG's
    /// `last_jseq`: a read ordered at this PG from here on is ordered
    /// behind this mutation's apply. The record is planned no earlier than
    /// `not_before` (now, if that has passed): a taken request's or sub-op's
    /// arrival.
    pub(super) fn submit_commit(
        self: &Arc<Self>,
        st: &mut PgState,
        pg: &Arc<Pg>,
        txn: Arc<Transaction>,
        encoded: Bytes,
        waiter: Waiter,
        not_before: Instant,
    ) -> Result<()> {
        let (inner, pg) = (Arc::clone(self), Arc::clone(pg));
        let on_commit = Box::new(move |jseq, durable| {
            let c = LocalCommit {
                pg,
                jseq,
                durable,
                txn,
                waiter,
            };
            inner.on_local_commit(c);
        });
        // A full ring has room once `through` is trimmed: wait for the
        // prefix to pass it and give the journal the trim it then allows,
        // which a failed apply pins below `through` until replay.
        lockdep::assert_blockable("journal submit (ring-full wait)");
        let make_room = |through| {
            self.wait_applied(through)?;
            let trim = self.write.applied.trim_point();
            self.journal.trim_through(trim);
            if trim < through {
                let pinned = format!("journal ring pinned at seq {trim} by a failed apply");
                return Err(AfcError::Full(pinned));
            }
            Ok(())
        };
        st.last_jseq = self
            .journal
            .submit(encoded, not_before, on_commit, make_room)?;
        Ok(())
    }

    /// *Where* the commit continuation runs — `dedicated_completion`, the
    /// one switch that places it. It is called on the journal's
    /// write-group leader, which may hold a PG lock (its own submit's).
    /// On, the continuation runs right there, for a primary's op and a
    /// replica's sub-op alike: queue the apply, then tell the waiter. Off
    /// (Community), it is a channel send to the finisher
    /// ([`completion_worker_loop`]), which queues the apply and hands the
    /// telling to the PG queue.
    fn on_local_commit(self: &Arc<Self>, c: LocalCommit) {
        if let Waiter::Primary(op) = &c.waiter {
            op.mark(Mark::JCommit);
        }
        if !self.tuning.dedicated_completion {
            if let Some(tx) = &*self.write.completion_tx.lock() {
                // The send is unbounded, so it never blocks under the
                // handle's no-block lock.
                let _ = tx.send(c);
            }
            return;
        }
        if let Waiter::Replica { .. } = c.waiter {
            self.log("replica commit ack (inline)");
        }
        self.enqueue_filestore(c.jseq, c.durable, c.txn);
        self.complete(c.waiter, c.durable);
    }

    /// *What* a local commit means to its waiter, whose record is durable
    /// at `durable`.
    pub(super) fn complete(&self, waiter: Waiter, durable: Instant) {
        match waiter {
            Waiter::Primary(op) => {
                op.mark(Mark::Handled);
                op.departure.raise(durable);
                self.settle(&op, 1);
            }
            Waiter::Replica { primary, rep_id } => self.send_rep_ack(primary, rep_id, durable),
        }
    }

    /// Queue the apply; it may be planned, and its callback run, right
    /// here.
    fn enqueue_filestore(self: &Arc<Self>, jseq: u64, durable: Instant, txn: Arc<Transaction>) {
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

    /// Run `then` once every journal sequence `<= target` is applied
    /// ([`AppliedPrefix::after`]), the one wait for an apply; while it is
    /// parked, the filestore plans applies for a waiter. True if parked.
    pub(super) fn after_applied(&self, target: u64, then: Then) -> bool {
        if self.write.applied.passed(target) {
            then(Ok(Instant::now()));
            return false;
        }
        let demand = self.store.demand_applies();
        let then = Box::new(move |r| {
            drop(demand);
            then(r);
        });
        self.write.applied.after(target, then)
    }

    /// Block until every journal sequence `<= target` is applied
    /// ([`Self::after_applied`]), then wait out the latest completion among
    /// them.
    pub(super) fn wait_applied(&self, target: u64) -> Result<()> {
        lockdep::assert_blockable("wait for an apply");
        let (tx, rx) = crossbeam::channel::bounded(1);
        let then = Box::new(move |r| {
            let _ = tx.send(r);
        });
        self.after_applied(target, then);
        // blocking-ok: the park fails closed at its `APPLY_TIMEOUT` deadline
        // (the replication ticker's `expire`) or at shutdown (`close`).
        let answer = rx.recv();
        let done = answer.map_err(|_| AfcError::ShutDown("osd stopping".into()))??;
        if done > Instant::now() {
            wait_until(WaitClass::Ssd, done);
        }
        Ok(())
    }

    /// Settle `n` of `op`'s completions (its local commit, a replica ack,
    /// skipped replicas); the last one replies.
    pub(super) fn settle(&self, op: &WriteOp, n: usize) {
        self.log("op commit ready");
        if op.settle(n) {
            let send = |reply, at| self.send_reply(reply, at);
            self.write.reply(op, Ok(OpOutcome::Done), send);
        }
    }

    /// Fail `op` unless it has replied already.
    pub(super) fn fail_op(&self, op: &WriteOp, err: AfcError) {
        if op.claim_reply() {
            let send = |reply, at| self.send_reply(reply, at);
            self.write.reply(op, Err(err), send);
        }
    }

    fn send_reply(&self, (to, reply): (Addr, ClientReply), at: Instant) {
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
    /// exactly once, and an op nobody fails replies `Ok`. With `one_pg`
    /// the ops hold one PG's reply slots in op order and reply in that
    /// order; else each op is the first of a PG of its own.
    fn race_settle_against_fail(one_pg: bool) {
        const OPS: u64 = 10_000;
        const THREADS: usize = 8;
        const ROUND: usize = 100;
        let path = WritePath::new();
        let throttle = Arc::new(Throttle::new("test", OPS));
        let new_pg = || {
            Pg::new(PgId {
                pool: afc_common::PoolId(0),
                seq: 0,
            })
        };
        let pg = new_pg();
        let ops: Vec<WriteOp> = (0..OPS)
            .map(|i| WriteOp {
                op_id: OpId(i),
                reply_to: Addr::Client(afc_common::ClientId(1)),
                pg: if one_pg { Arc::clone(&pg) } else { new_pg() },
                slot: if one_pg { i } else { 0 },
                osd: Weak::new(),
                arrival: Instant::now(),
                remaining: AtomicUsize::new(THREADS - 1),
                replied: AtomicBool::new(false),
                departure: LatestInstant::new(Instant::now()),
                permit: throttle.acquire_owned(1).unwrap(),
                trace: path.recorder.start(Instant::now()),
            })
            .collect();
        let replies: Vec<(AtomicUsize, AtomicBool)> =
            (0..OPS).map(|_| Default::default()).collect();
        let sent = AtomicU64::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (path, ops, replies, barrier) = (&path, &ops, &replies, &barrier);
                let sent = &sent;
                s.spawn(move || {
                    let mut count = |(_, r): (Addr, ClientReply), _: Instant| {
                        // A reply is sent under its PG's reply order, so
                        // with one PG this count is its slot.
                        let k = sent.fetch_add(1, Ordering::Relaxed);
                        assert!(!one_pg || k == r.op_id.0, "op {} sent {k}th", r.op_id.0);
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
        for op in &ops {
            assert_eq!(op.pg.replies.lock().held(), 0, "no reply is left waiting");
        }
        assert_eq!(throttle.in_use(), 0, "every permit released at its reply");
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
