//! Reads (and stats): ordered at the PG against earlier writes by the
//! journal sequence captured there, then executed off the PG lock on the
//! disk-reader pool.

use super::OsdInner;
use crate::messages::{ObjectOp, OpOutcome};
use afc_common::lockdep::{classes, TrackedMutex};
use afc_common::metrics::{Counter, Metrics};
use afc_common::OpId;
use afc_filestore::throttle::OwnedPermit;
use afc_messenger::Addr;
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use std::sync::Arc;

/// A read or stat handed off to the disk-reader pool (§3.1/§4.3: with the
/// pending queue, "the read requests of other PG can be processed without
/// delay" — reads leave the PG pipeline once ordered and execute off the
/// op worker).
pub(super) struct ReadJob {
    pub(super) from: Addr,
    pub(super) op_id: OpId,
    pub(super) obj_name: String,
    /// `Read` or `Stat`.
    pub(super) query: ObjectOp,
    pub(super) permit: OwnedPermit,
    /// The PG's `last_jseq` at this read's order point. Acks are
    /// journal-based, applies asynchronous: the filestore may be read once
    /// the applied prefix reaches it. Later writes never delay the read.
    pub(super) ordered_after: u64,
}

pub(super) struct ReadPath {
    pub(super) tx: TrackedMutex<Option<Sender<ReadJob>>>,
    reads: Counter,
}

impl ReadPath {
    pub(super) fn new() -> Self {
        ReadPath {
            tx: TrackedMutex::new(&classes::OSD_CHANNEL_TX, None),
            reads: Counter::new(),
        }
    }

    pub(super) fn register(&self, m: &Metrics, osd: &str) {
        m.register_counter(format!("{osd}.op.reads"), &self.reads);
    }
}

/// One disk-reader pool thread.
pub(super) fn reader_loop(inner: Arc<OsdInner>, rx: Receiver<ReadJob>) {
    while let Ok(job) = rx.recv() {
        inner.execute_read(job);
    }
}

impl OsdInner {
    /// A read or stat at its PG order point (PG lock held): hand the job to
    /// whoever executes it.
    pub(super) fn process_read(&self, job: ReadJob) {
        if matches!(job.query, ObjectOp::Read { .. }) {
            self.log("do_op: read");
            self.alloc_overhead();
            self.read.reads.inc();
        }
        if !self.tuning.pending_queue {
            // Community: the device read happens right here, holding the PG
            // lock for its whole duration (the behaviour the pending queue
            // fixes: other requests to this PG — and this op worker — stall).
            return self.execute_read(job);
        }
        // §3.1: executed on the disk-reader pool so the PG lock and the op
        // worker are released immediately. No pool means shutting down;
        // dropping the job releases its permit. The send is unbounded, so
        // it never blocks under the handle's no-block lock.
        if let Some(tx) = &*self.read.tx.lock() {
            let _ = tx.send(job);
        }
    }

    /// Complete a read: wait for the applies ordered before it, hit the
    /// filestore, reply. A timed-out wait is the reply; no filestore look.
    fn execute_read(&self, job: ReadJob) {
        let ordered = self.write.applied.wait(job.ordered_after);
        let result = ordered.and_then(|()| match job.query {
            ObjectOp::Read { offset, len } => {
                let data = self.store.read(&job.obj_name, offset, len as usize);
                self.log("read reply");
                data.map(|v| OpOutcome::Data(Bytes::from(v)))
            }
            _ => self
                .store
                .stat(&job.obj_name)
                .map(|m| OpOutcome::Size(m.size)),
        });
        self.reply(job.from, job.op_id, result);
        drop(job.permit);
    }
}
