//! Dispatch: client requests from the messenger, through QoS admission
//! and the OSD-wide op queue, to the op workers that drain PG FIFOs.

use super::pg::{Pg, PgHealth, PgState, PgWork};
use super::read::ReadJob;
use super::trace::Mark;
use super::write::WriteOp;
use super::OsdInner;
use crate::messages::{ClientOp, ClientReply, ObjectOp, OpOutcome, OsdMsg};
use crate::qos::{Deq, QosScheduler, QosTag};
use crate::tuning::OsdTuning;
use afc_common::lockdep::{classes, TrackedCondvar, TrackedMutex};
use afc_common::metrics::{Counter, Metrics};
use afc_common::{AfcError, OpId, OsdId, Result};
use afc_filestore::Throttle;
use afc_messenger::Addr;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Op worker (OP_WQ) threads per OSD.
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

    pub(super) fn register(&self, m: &Metrics, osd: &str) {
        m.register_counter(format!("{osd}.op.client_ops"), &self.client_ops);
        m.register_counter(format!("{osd}.op.unready_drops"), &self.unready_drops);
        m.attach_set(&format!("{osd}.qos"), self.qos.counters());
        m.attach_hist_set(&format!("{osd}.qos"), self.qos.hists());
        self.client_throttle
            .register_into(m, &format!("{osd}.op.client_throttle"));
    }
}

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
                    // Lock order: OP_QUEUE (held) → OSD_QOS inside
                    // dequeue — ranks 100 → 102.
                    match d.qos.dequeue(Instant::now()) {
                        Deq::Ready(cw) => {
                            // Admit into the PG pending FIFO *before*
                            // releasing the op-queue lock (OP_QUEUE 100 →
                            // PG_PENDING 300). Every QoS dequeue happens
                            // under `q`, so admitting under the same
                            // lock makes scheduler pop order and PG FIFO
                            // order one atomic step — admission after the
                            // unlock would let two workers race
                            // `Pg::queue` and invert same-volume op
                            // order, which read-after-write and ordered
                            // acks assume cannot happen.
                            let ClientWork { pg, work } = cw;
                            pg.queue(work);
                            break pg;
                        }
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

    /// Route a tagged client op to the op workers: through the per-volume
    /// QoS scheduler when enabled, else straight onto the plain queue.
    fn queue_client(&self, qos: &QosTag, pg: Arc<Pg>, work: PgWork) {
        if !self.tuning.qos_enabled {
            self.queue_pg(pg, work);
            return;
        }
        let d = &self.dispatch;
        d.qos.enqueue(qos, ClientWork { pg, work }, Instant::now());
        // Serialize against a worker's empty-check: workers inspect the
        // scheduler while holding `q` and release it only inside
        // `cv.wait`, so acquiring the queue lock here (even empty-handed)
        // guarantees our notify lands after their wait began — no lost
        // wakeup.
        drop(d.q.lock());
        d.cv.notify_one();
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
        if map.pg_primary(op.pg).ok() != Some(self.id) {
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
        let acting = map.pg_acting(op.pg).unwrap_or_default();
        let absent: Vec<OsdId> = map
            .pg_placed(op.pg)
            .unwrap_or_default()
            .into_iter()
            .filter(|o| !acting.contains(o))
            .collect();
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
                    durable: OnceLock::new(),
                    _permit: permit,
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
