//! The RADOS-style object client.
//!
//! Clients need no metadata server: the shared [`afc_crush::OsdMap`] plus CRUSH
//! determine each object's PG and primary OSD, requests go straight to the
//! primary, and misdirected ops (stale map during failures/expansion) are
//! retried after a map refresh.
//!
//! A session's [`Dispatcher`] takes every message: the OSD thread that
//! sends a reply hands it over at once, stamped with its arrival, and the
//! op's waiter waits out that instant itself (booked to `model.net`, as a
//! connection thread's wait would be). No thread is woken to deliver a
//! reply, and nothing observes one before it arrives.

use crate::messages::{ClientOp, ClientReply, ObjectOp, OpOutcome, OsdMsg};
use crate::monitor::SharedMap;
use crate::qos::{QosSpec, QosTag};
use afc_common::{
    wait_until, AfcError, ClientId, ObjectId, OpId, PoolId, Result, VolumeId, WaitClass,
};
use afc_messenger::{Addr, Dispatcher, Messenger, Network};
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An op's result and the instant its reply arrives at the client.
type Reply = (Result<OpOutcome>, Instant);

struct ClientShared {
    pending: Mutex<HashMap<OpId, Sender<Reply>>>,
}

impl ClientShared {
    /// Await the reply to `op_id`.
    fn expect(&self, op_id: OpId) -> OpHandle {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.pending.lock().insert(op_id, tx);
        OpHandle {
            rx,
            held: Mutex::new(None),
            op_id,
        }
    }
}

impl Dispatcher<OsdMsg> for ClientShared {
    /// Never called: [`Self::take`] takes every message. Hands the reply
    /// over as arrived now.
    fn dispatch(&self, from: Addr, msg: OsdMsg) {
        self.take(from, msg, Instant::now());
    }

    fn take(&self, _from: Addr, msg: OsdMsg, arrival: Instant) -> Option<OsdMsg> {
        if let OsdMsg::Reply(ClientReply { op_id, result }) = msg {
            if let Some(tx) = self.pending.lock().remove(&op_id) {
                let _ = tx.send((result, arrival));
            }
        }
        None
    }
}

/// A pending asynchronous operation.
pub struct OpHandle {
    rx: Receiver<Reply>,
    /// A reply taken before its arrival, kept until then.
    held: Mutex<Option<Reply>>,
    op_id: OpId,
}

impl OpHandle {
    fn disconnected() -> AfcError {
        AfcError::Disconnected("client shut down".into())
    }

    /// Block until the op completes.
    pub fn wait(self) -> Result<OpOutcome> {
        let (result, arrival) = match self.held.into_inner() {
            Some(reply) => reply,
            None => self.rx.recv().map_err(|_| Self::disconnected())?,
        };
        wait_until(WaitClass::Net, arrival);
        result
    }

    /// Block until the op completes or `timeout` elapses (typed
    /// `Timeout`; the caller should abandon the op via its op id). A reply
    /// arriving after the timeout is kept for a later wait.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<OpOutcome> {
        let deadline = Instant::now() + timeout;
        let held = self.held.lock().take();
        let reply = match held.map_or_else(|| self.rx.recv_timeout(timeout), Ok) {
            Ok(reply) if reply.1 <= deadline => reply,
            Ok(reply) => {
                *self.held.lock() = Some(reply);
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                return Err(self.timed_out(timeout));
            }
            Err(RecvTimeoutError::Timeout) => return Err(self.timed_out(timeout)),
            Err(RecvTimeoutError::Disconnected) => return Err(Self::disconnected()),
        };
        wait_until(WaitClass::Net, reply.1);
        reply.0
    }

    fn timed_out(&self, timeout: Duration) -> AfcError {
        AfcError::Timeout(format!("op {} unanswered after {timeout:?}", self.op_id.0))
    }

    /// Non-blocking poll: `None` until the reply has arrived.
    pub fn try_wait(&self) -> Option<Result<OpOutcome>> {
        let mut held = self.held.lock();
        let (result, arrival) = held.take().or_else(|| self.rx.try_recv().ok())?;
        if Instant::now() < arrival {
            *held = Some((result, arrival));
            return None;
        }
        Some(result)
    }
}

/// A RADOS-style client session (one per VM in the evaluation).
pub struct RadosClient {
    id: ClientId,
    pool: PoolId,
    msgr: Messenger<OsdMsg>,
    map: SharedMap,
    shared: Arc<ClientShared>,
    next_op: AtomicU64,
    /// Retries for misdirected ops before giving up.
    max_retries: AtomicU64,
    /// Per-attempt reply timeout, milliseconds (default 10 s). A lost
    /// reply fails the attempt typed and the retry re-targets the
    /// refreshed map; no op waits forever. Lower it when OSDs can die
    /// mid-op so failover is prompt.
    op_timeout_ms: AtomicU64,
    /// QoS identity stamped on every submitted op. Defaults to
    /// [`QosTag::best_effort`]; [`RadosClient::open_volume`] replaces it.
    qos: Mutex<QosTag>,
}

impl RadosClient {
    /// Connect a client to the fabric.
    pub fn connect(
        net: &Arc<Network<OsdMsg>>,
        map: SharedMap,
        id: ClientId,
        pool: PoolId,
    ) -> Result<Arc<Self>> {
        let shared = Arc::new(ClientShared {
            pending: Mutex::new(HashMap::new()),
        });
        let msgr = net.register(Addr::Client(id), Arc::clone(&shared) as _)?;
        Ok(Arc::new(RadosClient {
            id,
            pool,
            msgr,
            map,
            shared,
            next_op: AtomicU64::new(1),
            max_retries: AtomicU64::new(8),
            op_timeout_ms: AtomicU64::new(10_000),
            qos: Mutex::new(QosTag::best_effort()),
        }))
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The pool this client addresses.
    pub fn pool(&self) -> PoolId {
        self.pool
    }

    /// Cap each [`RadosClient::execute`] attempt at `timeout` before
    /// abandoning the request and retrying against a refreshed map.
    pub fn set_op_timeout(&self, timeout: Duration) {
        self.op_timeout_ms
            .store(timeout.as_millis() as u64, Ordering::Relaxed);
    }

    /// Change the bounded retry budget of [`RadosClient::execute`].
    pub fn set_max_retries(&self, n: usize) {
        self.max_retries.store(n as u64, Ordering::Relaxed);
    }

    /// Bind this session to `volume` under `spec`: every subsequent op is
    /// tagged with it and scheduled by the OSD-side per-volume QoS
    /// scheduler. Carrying the spec inline means there is no registration
    /// round-trip — the first tagged op teaches each OSD the contract,
    /// and re-opening with a new spec updates it in place.
    pub fn open_volume(&self, volume: VolumeId, spec: QosSpec) -> QosTag {
        let tag = QosTag::new(volume, spec);
        *self.qos.lock() = tag;
        tag
    }

    /// The QoS tag currently stamped on submitted ops.
    pub fn qos_tag(&self) -> QosTag {
        *self.qos.lock()
    }

    /// Submit an op asynchronously.
    pub fn submit(&self, object: &str, op: ObjectOp) -> Result<OpHandle> {
        let obj = ObjectId::new(self.pool, object);
        let map = self.map.read().clone();
        let (pg, acting) = map.object_placement(&obj)?;
        let primary = acting[0];
        let op_id = OpId(self.next_op.fetch_add(1, Ordering::Relaxed));
        let handle = self.shared.expect(op_id);
        let wire = op.wire_bytes();
        let req = OsdMsg::Request(ClientOp {
            client: self.id,
            op_id,
            pg,
            object: obj,
            op,
            epoch: map.epoch(),
            qos: self.qos_tag(),
        });
        if let Err(e) = self.msgr.send(Addr::Osd(primary), req, wire) {
            self.shared.pending.lock().remove(&op_id);
            return Err(e);
        }
        Ok(handle)
    }

    /// One attempt: wait up to the op timeout, and on expiry abandon the
    /// pending entry (so a late reply cannot leak into a later attempt)
    /// and name the object and op id in the typed `Timeout`.
    fn wait_attempt(&self, object: &str, handle: OpHandle) -> Result<OpOutcome> {
        let timeout = Duration::from_millis(self.op_timeout_ms.load(Ordering::Relaxed));
        match handle.wait_timeout(timeout) {
            Err(AfcError::Timeout(what)) => {
                self.shared.pending.lock().remove(&handle.op_id);
                Err(AfcError::Timeout(format!("object {object}: {what}")))
            }
            r => r,
        }
    }

    /// Submit and wait, retrying transient failures with exponential
    /// backoff. Each `submit` re-reads the shared map, so stale-map
    /// rejects ([`AfcError::needs_map_refresh`]: `NotPrimary` from an OSD
    /// that lost primaryship, `WrongEpoch` from a PG still peering) are
    /// resubmitted against the refreshed epoch, re-targeting whatever
    /// primary it names now. [`AfcError::is_retryable`] transport/timeout
    /// errors (lost message, injected drop, replica-ack timeout, a dead
    /// primary) retry the same way. Permanent
    /// errors — `NotFound`, `Corruption`, a device `Io` surfaced through
    /// the OSD — propagate typed after the bounded retries; nothing
    /// panics.
    pub fn execute(&self, object: &str, op: ObjectOp) -> Result<OpOutcome> {
        let mut last = AfcError::Timeout("no attempt".into());
        let max_retries = self.max_retries.load(Ordering::Relaxed);
        for attempt in 0..max_retries {
            let attempt = (attempt as u32).min(6);
            let handle = match self.submit(object, op.clone()) {
                Ok(h) => h,
                Err(e) if e.is_retryable() => {
                    last = e;
                    std::thread::sleep(Duration::from_millis(1 << attempt));
                    continue;
                }
                Err(e) => return Err(e),
            };
            match self.wait_attempt(object, handle) {
                Ok(o) => return Ok(o),
                Err(e) if e.needs_map_refresh() => {
                    last = e;
                    // Map is shared; a short pause lets the monitor publish.
                    std::thread::sleep(Duration::from_millis(2 << attempt));
                }
                Err(e) if e.is_retryable() => {
                    last = e;
                    std::thread::sleep(Duration::from_millis(1 << attempt));
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Write `data` into `object` at `offset`.
    pub fn write_object(&self, object: &str, offset: u64, data: &[u8]) -> Result<()> {
        match self.execute(
            object,
            ObjectOp::Write {
                offset,
                data: Bytes::copy_from_slice(data),
            },
        )? {
            OpOutcome::Done => Ok(()),
            other => Err(AfcError::Corruption(format!(
                "unexpected write outcome {other:?}"
            ))),
        }
    }

    /// Read `len` bytes from `object` at `offset`.
    pub fn read_object(&self, object: &str, offset: u64, len: u32) -> Result<Vec<u8>> {
        match self.execute(object, ObjectOp::Read { offset, len })? {
            OpOutcome::Data(d) => Ok(d.to_vec()),
            other => Err(AfcError::Corruption(format!(
                "unexpected read outcome {other:?}"
            ))),
        }
    }

    /// Object size.
    pub fn stat_object(&self, object: &str) -> Result<u64> {
        match self.execute(object, ObjectOp::Stat)? {
            OpOutcome::Size(s) => Ok(s),
            other => Err(AfcError::Corruption(format!(
                "unexpected stat outcome {other:?}"
            ))),
        }
    }

    /// Delete an object.
    pub fn delete_object(&self, object: &str) -> Result<()> {
        match self.execute(object, ObjectOp::Delete)? {
            OpOutcome::Done => Ok(()),
            other => Err(AfcError::Corruption(format!(
                "unexpected delete outcome {other:?}"
            ))),
        }
    }

    /// Asynchronous write (iodepth-style issue).
    pub fn write_object_async(&self, object: &str, offset: u64, data: Bytes) -> Result<OpHandle> {
        self.submit(object, ObjectOp::Write { offset, data })
    }

    /// Asynchronous read.
    pub fn read_object_async(&self, object: &str, offset: u64, len: u32) -> Result<OpHandle> {
        self.submit(object, ObjectOp::Read { offset, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::OsdId;

    const AHEAD: Duration = Duration::from_millis(30);

    /// A handle whose reply is already taken, to arrive `AHEAD` from now.
    fn posted() -> (OpHandle, Instant) {
        let shared = ClientShared {
            pending: Mutex::new(HashMap::new()),
        };
        let handle = shared.expect(OpId(1));
        let arrival = Instant::now() + AHEAD;
        let reply = ClientReply {
            op_id: OpId(1),
            result: Ok(OpOutcome::Done),
        };
        let from = Addr::Osd(OsdId(0));
        assert!(shared.take(from, OsdMsg::Reply(reply), arrival).is_none());
        (handle, arrival)
    }

    #[test]
    fn try_wait_sees_no_reply_before_its_arrival() {
        let (h, arrival) = posted();
        assert!(h.try_wait().is_none());
        assert!(h.try_wait().is_none(), "a poll must not lose the reply");
        std::thread::sleep(arrival.saturating_duration_since(Instant::now()));
        assert!(matches!(h.try_wait(), Some(Ok(OpOutcome::Done))));
    }

    #[test]
    fn wait_returns_no_earlier_than_the_arrival() {
        let (h, arrival) = posted();
        assert!(matches!(h.wait(), Ok(OpOutcome::Done)));
        assert!(Instant::now() >= arrival);
        // Also when an early poll took it off the channel.
        let (h, arrival) = posted();
        assert!(h.try_wait().is_none());
        assert!(matches!(h.wait(), Ok(OpOutcome::Done)));
        assert!(Instant::now() >= arrival);
    }

    #[test]
    fn wait_timeout_short_of_the_arrival_times_out_no_earlier_than_its_timeout() {
        let (h, arrival) = posted();
        let (t0, timeout) = (Instant::now(), AHEAD / 3);
        assert!(matches!(h.wait_timeout(timeout), Err(AfcError::Timeout(_))));
        assert!(t0.elapsed() >= timeout);
        // The reply is kept: a longer wait takes it at its arrival.
        assert!(matches!(h.wait_timeout(AHEAD * 10), Ok(OpOutcome::Done)));
        assert!(Instant::now() >= arrival);
    }
}
