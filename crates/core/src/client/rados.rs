//! The RADOS-style object client.
//!
//! Clients need no metadata server: the shared [`afc_crush::OsdMap`] plus CRUSH
//! determine each object's PG and primary OSD, requests go straight to the
//! primary, and misdirected ops (stale map during failures/expansion) are
//! retried after a map refresh.

use crate::messages::{ClientOp, ClientReply, ObjectOp, OpOutcome, OsdMsg};
use crate::monitor::SharedMap;
use crate::qos::{QosSpec, QosTag};
use afc_common::{AfcError, ClientId, ObjectId, OpId, PoolId, Result, VolumeId};
use afc_messenger::{Addr, Dispatcher, Messenger, Network};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

type ReplyTx = crossbeam::channel::Sender<Result<OpOutcome>>;

struct ClientShared {
    pending: Mutex<HashMap<OpId, ReplyTx>>,
}

struct ClientDispatcher(Arc<ClientShared>);

impl Dispatcher<OsdMsg> for ClientDispatcher {
    fn dispatch(&self, _from: Addr, msg: OsdMsg) {
        if let OsdMsg::Reply(ClientReply { op_id, result }) = msg {
            if let Some(tx) = self.0.pending.lock().remove(&op_id) {
                let _ = tx.send(result);
            }
        }
    }
}

/// A pending asynchronous operation.
pub struct OpHandle {
    rx: crossbeam::channel::Receiver<Result<OpOutcome>>,
    op_id: OpId,
}

impl OpHandle {
    /// Block until the op completes.
    pub fn wait(self) -> Result<OpOutcome> {
        self.rx
            .recv()
            .map_err(|_| AfcError::Disconnected("client shut down".into()))?
    }

    /// Block until the op completes or `timeout` elapses (typed
    /// `Timeout`; the caller should abandon the op via its op id).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<OpOutcome> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(AfcError::Timeout(format!(
                "op {} unanswered after {timeout:?}",
                self.op_id.0
            ))),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                Err(AfcError::Disconnected("client shut down".into()))
            }
        }
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<Result<OpOutcome>> {
        self.rx.try_recv().ok()
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
        let msgr = net.register(
            Addr::Client(id),
            Arc::new(ClientDispatcher(Arc::clone(&shared))),
        )?;
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
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.shared.pending.lock().insert(op_id, tx);
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
        Ok(OpHandle { rx, op_id })
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
