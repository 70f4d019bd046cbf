//! Dispatch: client requests from the messenger, through QoS admission,
//! to their PG order point.
//!
//! Under the pending queue the messenger thread that receives a client op
//! takes one op-worker turn itself ([`OsdInner::queue_client`]): it admits
//! the op to its PG FIFO and drains the PG without blocking. Nothing at an
//! AFCeph order point sleeps (a read and a journal record are planned),
//! and a held PG lock leaves the op to its holder, so handing the op to
//! another thread would only add a wake-up. The op workers serve the rest:
//! a QoS backlog, internal work on the plain queue, and every Community op.

use super::pg::{Pg, PgHealth, PgState, PgWork};
use super::read::ReadJob;
use super::trace::Mark;
use super::write::{LatestInstant, WriteOp};
use super::OsdInner;
use crate::messages::{ClientOp, ClientReply, ObjectOp, OpOutcome, OsdMsg};
use crate::qos::{Deq, QosScheduler, QosTag};
use crate::tuning::OsdTuning;
use afc_common::lockdep::{classes, TrackedCondvar, TrackedMutex, TrackedMutexGuard};
use afc_common::metrics::{Counter, Metrics};
use afc_common::{AfcError, OpId, OsdId, Result};
use afc_crush::Placement;
use afc_filestore::Throttle;
use afc_messenger::Addr;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Op worker (OP_WQ) threads per OSD. They serve client ops a QoS limit
/// (or pending internal work) kept from the messenger's turn, internal work
/// (replication, acks, recovery) and, in Community, every client op.
pub(super) const OP_THREADS: usize = 2;

/// A tagged client op parked in the QoS scheduler: the PG it targets plus
/// the pipeline closure to run once the scheduler releases it. Dropping an
/// undispatched `ClientWork` (shutdown drain) drops the closure and with
/// it every captured resource — throttle permits, trace cells — so nothing
/// leaks when queued work is abandoned.
pub(super) struct ClientWork {
    pg: Arc<Pg>,
    work: PgWork,
}

pub(super) struct Dispatch {
    /// The OSD-wide ready queue of PGs with pending work.
    q: TrackedMutex<VecDeque<Arc<Pg>>>,
    cv: TrackedCondvar,
    /// Per-volume QoS scheduler for *client* ops (reservation-first +
    /// token-bucket limits; see `crate::qos`). Internal traffic —
    /// replication, acks, recovery, peering — bypasses it via the plain
    /// queue, which workers always drain first. Consulted only when
    /// `tuning.qos_enabled`.
    pub(super) qos: QosScheduler<ClientWork>,
    pub(super) client_throttle: Arc<Throttle>,
    client_ops: Counter,
    /// Client ops admitted to their PG FIFO on the receiving messenger
    /// thread.
    fast_dispatches: Counter,
    /// Messages dropped because they arrived before the daemon had its
    /// messenger handle.
    pub(super) unready_drops: Counter,
}

impl Dispatch {
    pub(super) fn new(tuning: &OsdTuning) -> Self {
        Dispatch {
            q: TrackedMutex::new(&classes::OP_QUEUE, VecDeque::new()),
            cv: TrackedCondvar::new(),
            qos: QosScheduler::new(),
            client_throttle: Arc::new(Throttle::new(
                "osd_client_message_cap",
                tuning.client_message_cap(),
            )),
            client_ops: Counter::new(),
            fast_dispatches: Counter::new(),
            unready_drops: Counter::new(),
        }
    }

    /// Wake every op worker to see the shutdown flag. A worker checks the
    /// flag holding `q` and releases it only inside `cv.wait`, so taking
    /// `q` first keeps the notify from falling between its check and its
    /// wait.
    pub(super) fn wake_all(&self) {
        drop(self.q.lock());
        self.cv.notify_all();
    }

    /// Pop the QoS scheduler's next client op and admit it to its PG FIFO,
    /// holding the op-queue lock (`q`). Every dequeue happens under `q`,
    /// so this makes scheduler pop order and PG FIFO order one atomic step:
    /// admission after the unlock would let two dispatching threads race
    /// `Pg::queue` and invert same-volume op order, which read-after-write
    /// and ordered acks assume cannot happen. Lock order: OP_QUEUE (held)
    /// → OSD_QOS → PG_PENDING, ranks 100 → 102 → 300.
    fn admit_next(
        &self,
        _q: &TrackedMutexGuard<'_, VecDeque<Arc<Pg>>>,
        now: Instant,
    ) -> Deq<Arc<Pg>> {
        match self.qos.dequeue(now) {
            Deq::Ready(ClientWork { pg, work }) => {
                pg.queue(work);
                Deq::Ready(pg)
            }
            Deq::Wait(at) => Deq::Wait(at),
            Deq::Empty => Deq::Empty,
        }
    }

    pub(super) fn register(&self, m: &Metrics, osd: &str) {
        m.register_counter(format!("{osd}.op.client_ops"), &self.client_ops);
        m.register_counter(format!("{osd}.op.fast_dispatches"), &self.fast_dispatches);
        m.register_counter(format!("{osd}.op.unready_drops"), &self.unready_drops);
        m.attach_set(&format!("{osd}.qos"), self.qos.metrics());
        self.client_throttle
            .register_into(m, &format!("{osd}.op.client_throttle"));
    }
}

/// An op worker: internal work from the plain queue first, then client ops
/// the QoS scheduler releases, each admitted to its PG FIFO and drained —
/// blocking on the PG lock in Community, leaving the op to the holder under
/// the pending queue. Under the pending queue a client op reaches a worker
/// only when a QoS limit or pending internal work kept it from the
/// receiving messenger's turn ([`OsdInner::queue_client`]).
pub(super) fn op_worker_loop(inner: Arc<OsdInner>) {
    let blocking = !inner.tuning.pending_queue;
    let qos_on = inner.tuning.qos_enabled;
    let d = &inner.dispatch;
    loop {
        let pg = {
            let mut q = d.q.lock();
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
                    match d.admit_next(&q, Instant::now()) {
                        Deq::Ready(pg) => break pg,
                        Deq::Wait(deadline) => {
                            // Every backlogged volume is at its IOPS
                            // limit: sleep until the earliest token (or
                            // an enqueue/shutdown notify) instead of
                            // spinning.
                            let _ = d.cv.wait_until(&mut q, deadline);
                            continue;
                        }
                        Deq::Empty => {}
                    }
                }
                d.cv.wait(&mut q);
            }
        };
        pg.drain(blocking);
    }
}

impl OsdInner {
    /// Enqueue *internal* work (replication, acks, recovery) on the plain
    /// op queue. Client ops go through [`Self::queue_client`] so the QoS
    /// scheduler sees them: `handle_request` is the only producer of client
    /// work, and it hands every op there.
    pub(super) fn queue_pg(&self, pg: Arc<Pg>, work: PgWork) {
        pg.queue(work);
        self.dispatch.q.lock().push_back(pg);
        self.dispatch.cv.notify_one();
    }

    /// Admit a tagged client op to its PG FIFO, through the per-volume QoS
    /// scheduler when enabled.
    ///
    /// Under the pending queue the calling messenger thread takes one
    /// op-worker turn: with QoS on it enqueues the op and, when the plain
    /// queue is empty, dequeues one item and admits it to its PG FIFO in
    /// the same op-queue critical section as a worker would; it wakes a
    /// worker only if the scheduler still holds work (a backlog, or a
    /// volume at its limit), then drains the admitted PG without blocking,
    /// so a held PG lock leaves the op to its holder. Community hands every
    /// op to the op workers, which wait for the PG lock.
    fn queue_client(&self, qos: &QosTag, pg: Arc<Pg>, work: PgWork) {
        let d = &self.dispatch;
        let fast = self.tuning.pending_queue;
        if !self.tuning.qos_enabled {
            if !fast {
                return self.queue_pg(pg, work);
            }
            d.fast_dispatches.inc();
            return pg.submit(work, false);
        }
        let (admitted, backlog) = {
            // Workers inspect the scheduler holding `q` and release it only
            // inside `cv.wait`, so enqueueing under it puts the notify below
            // after their wait began: no lost wake-up.
            let q = d.q.lock();
            let now = Instant::now();
            d.qos.enqueue(qos, ClientWork { pg, work }, now);
            // Internal work dispatches first, as in the worker loop.
            let admitted = (fast && q.is_empty()).then(|| d.admit_next(&q, now));
            (admitted, !d.qos.is_empty())
        };
        if backlog {
            d.cv.notify_one();
        }
        if let Some(Deq::Ready(pg)) = admitted {
            d.fast_dispatches.inc();
            pg.drain(false);
        }
    }

    /// Answer a client.
    pub(super) fn reply(&self, to: Addr, op_id: OpId, result: Result<OpOutcome>) {
        self.send(to, OsdMsg::Reply(ClientReply { op_id, result }));
    }

    pub(super) fn handle_request(self: &Arc<Self>, from: Addr, op: ClientOp) {
        self.dispatch.client_ops.inc();
        self.log("ms_fast_dispatch client op");
        // osd_client_message_cap: blocks this client's connection thread
        // when the OSD has too many undispatched messages (§3.2).
        let Ok(permit) = self.dispatch.client_throttle.acquire_owned(1) else {
            return;
        };
        // Primary check against the current map: a stale client (or a map
        // that moved underneath it) gets a typed reject so it refreshes
        // its snapshot and re-targets instead of hammering us.
        let map = self.map.read().clone();
        let Placement { placed, acting } = map.pg_placement(op.pg).unwrap_or_default();
        if acting.first() != Some(&self.id) {
            let err = AfcError::NotPrimary(format!(
                "{} is not primary for pg {} at epoch {}",
                self.id,
                op.pg,
                map.epoch().0
            ));
            return self.reply(from, op.op_id, Err(err));
        }
        // Down-but-placed peers: every write they miss is journaled into
        // the PG's `peer_missing` ledger for later recovery pushes.
        let absent: Vec<OsdId> = placed.into_iter().filter(|o| !acting.contains(o)).collect();
        let pg = self.pg(op.pg);
        let inner = Arc::clone(self);
        let (object, op_id) = (op.object, op.op_id);
        let work: PgWork = match op.op {
            query @ (ObjectOp::Read { .. } | ObjectOp::Stat) => {
                let pgid = op.pg;
                // A rejected op drops `permit` with the closure.
                Box::new(move |st| {
                    if !inner.pg_ready(st, &acting) {
                        let err = AfcError::WrongEpoch(format!("pg {pgid} is peering"));
                        return inner.reply(from, op_id, Err(err));
                    }
                    inner.process_read(ReadJob {
                        from,
                        op_id,
                        obj_name: object.to_string(),
                        query,
                        permit,
                        ordered_after: st.last_jseq,
                    });
                })
            }
            mutation @ (ObjectOp::Write { .. } | ObjectOp::Delete) => {
                // Only writes feed the 1-in-16 stage sample.
                let trace = match mutation {
                    ObjectOp::Write { .. } => self.write.recorder.start(),
                    _ => None,
                };
                // §3.1: ordered acks ("sends client sequential acks if a
                // client wants to receive ordered acks as requested").
                let ack_lane = self
                    .tuning
                    .ordered_acks
                    .then(|| self.write.acker.assign(op.client, op.pg));
                let wop = Arc::new(WriteOp {
                    client: op.client,
                    op_id,
                    reply_to: from,
                    pg: Arc::clone(&pg),
                    ack_lane,
                    // The local commit plus one per replica.
                    remaining: AtomicUsize::new(acting.len().max(1)),
                    replied: AtomicBool::new(false),
                    departure: LatestInstant::new(),
                    permit,
                    trace,
                });
                wop.mark(Mark::Queued);
                Box::new(move |st| {
                    wop.mark(Mark::Dequeue);
                    if !inner.pg_ready(st, &acting) {
                        let err = AfcError::WrongEpoch(format!("pg {} is peering", wop.pg.id()));
                        return inner.fail_op(&wop, err);
                    }
                    let replicas = acting.get(1..).unwrap_or_default();
                    inner.process_mutation(st, &wop, object, mutation, replicas, &absent);
                })
            }
        };
        self.queue_client(&op.qos, pg, work);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, DeviceProfile};
    use afc_common::{ClientId, ObjectId};
    use crossbeam::channel;
    use std::time::Duration;

    /// The messenger thread that receives an AFCeph client op never waits
    /// for the op's PG lock: while another thread holds it, dispatch
    /// returns, the op waits in the PG FIFO, and the holder runs it when it
    /// releases. The holder gives up after 10 s, so a dispatch that waited
    /// fails the test instead of hanging it.
    #[test]
    fn a_client_op_on_a_held_pg_is_left_to_the_holder() {
        let cluster = Cluster::builder()
            .nodes(1)
            .osds_per_node(1)
            .replication(1)
            .pg_num(8)
            .tuning(OsdTuning::afceph())
            .devices(DeviceProfile::clean())
            .build()
            .unwrap();
        cluster
            .client()
            .unwrap()
            .write_object("held", 0, b"12345")
            .unwrap();
        let inner = &cluster.osds()[0].inner;
        let map = cluster.monitor().map();
        let object = ObjectId::new(cluster.pool(), "held");
        let (pgid, _) = map.object_placement(&object).unwrap();
        let pg = inner.pg(pgid);
        let admitted = inner.dispatch.fast_dispatches.get();
        // A client endpoint that hands each reply to the test.
        let (reply_tx, replies) = channel::unbounded();
        let me = Addr::Client(ClientId(1000));
        let on_reply = move |_: Addr, msg: OsdMsg| {
            if let OsdMsg::Reply(r) = msg {
                let _ = reply_tx.send(r);
            }
        };
        cluster.network().register(me, Arc::new(on_reply)).unwrap();
        let (held_tx, held) = channel::bounded(1);
        let (release, release_rx) = channel::bounded(1);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                pg.with_state(|_| {
                    held_tx.send(()).unwrap();
                    release_rx.recv_timeout(Duration::from_secs(10)).is_ok()
                })
            });
            held.recv().unwrap();
            inner.handle_request(
                me,
                ClientOp {
                    client: ClientId(1000),
                    op_id: OpId(1),
                    pg: pgid,
                    object,
                    op: ObjectOp::Stat,
                    epoch: map.epoch(),
                    qos: QosTag::best_effort(),
                },
            );
            assert_eq!(pg.pending_len(), 1, "the op waits in the PG FIFO");
            assert!(replies.try_recv().is_err(), "the op ran under a held lock");
            release.send(()).unwrap();
            assert!(holder.join().unwrap(), "dispatch waited for the PG lock");
        });
        assert_eq!(pg.pending_len(), 0);
        let reply = replies.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(reply.op_id, OpId(1));
        assert!(matches!(reply.result, Ok(OpOutcome::Size(5))), "{reply:?}");
        assert_eq!(inner.dispatch.fast_dispatches.get(), admitted + 1);
        cluster.shutdown();
    }
}
