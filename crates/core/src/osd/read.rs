//! Reads (and stats): ordered at the PG against earlier writes by the
//! journal sequence captured there. A read's device time is planned, not
//! slept through: its reply is stamped to leave when the SSD read
//! completes — and no earlier than the applies it is ordered after, whose
//! completions may still be ahead — and is posted to the client's session
//! at once, so one modeled wait by the client's waiter covers the device
//! and the hop.

use super::OsdInner;
use crate::messages::{ClientReply, ObjectOp, OpOutcome, OsdMsg};
use afc_common::metrics::{Counter, Metrics};
use afc_common::{OpId, Result};
use afc_filestore::throttle::OwnedPermit;
use afc_messenger::Addr;
use bytes::Bytes;
use std::sync::Arc;
use std::time::Instant;

/// A read or stat at its PG order point.
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
    reads: Counter,
    /// Reads that found the applied prefix short of their order point.
    parks: Counter,
}

impl ReadPath {
    pub(super) fn new() -> Self {
        ReadPath {
            reads: Counter::new(),
            parks: Counter::new(),
        }
    }

    pub(super) fn register(&self, m: &Metrics, osd: &str) {
        m.register_counter(format!("{osd}.op.reads"), &self.reads);
        m.register_counter(format!("{osd}.op.read_parks"), &self.parks);
    }
}

impl OsdInner {
    /// A read or stat at its PG order point (PG lock held).
    pub(super) fn process_read(self: &Arc<Self>, job: ReadJob) {
        if matches!(job.query, ObjectOp::Read { .. }) {
            self.log("do_op: read");
            self.alloc_overhead();
            self.read.reads.inc();
        }
        if !self.tuning.pending_queue {
            // Community: the applies ordered before the read and the device
            // read itself are waited for right here, holding the PG lock
            // (the behaviour the pending queue fixes: other requests to
            // this PG — and this op worker — stall).
            let ordered = self.write.applied.wait(job.ordered_after);
            return self.answer(job, ordered.map(|()| Instant::now()));
        }
        // §3.1/§4.3: "the read requests of other PG can be processed
        // without delay". A read whose applies are not in yet is parked on
        // the prefix; whoever settles it answers, and no thread waits.
        let inner = Arc::clone(self);
        let target = job.ordered_after;
        let then = Box::new(move |ordered| inner.answer(job, ordered));
        if self.write.applied.after(target, then) {
            self.read.parks.inc();
        }
    }

    /// Answer a read once the applies it is ordered after have settled,
    /// completing at `ordered`: plan the device read and stamp the reply
    /// to leave when both are done (Community waits for the device here,
    /// under the PG lock, having waited out the applies). A failed
    /// ordering wait is the reply; no filestore look. The permit goes once
    /// the reply is handed to the messenger.
    fn answer(&self, job: ReadJob, ordered: Result<Instant>) {
        let mut leaves = None;
        let result = ordered.and_then(|applied| match job.query {
            ObjectOp::Read { offset, len } => {
                let read = self.store.read(&job.obj_name, offset, len as usize)?;
                self.log("read reply");
                let data = if self.tuning.pending_queue {
                    leaves = Some(read.done.max(applied));
                    read.data
                } else {
                    read.wait()
                };
                Ok(OpOutcome::Data(Bytes::from(data)))
            }
            _ => {
                leaves = Some(applied);
                self.store
                    .stat(&job.obj_name)
                    .map(|m| OpOutcome::Size(m.size))
            }
        });
        let reply = ClientReply {
            op_id: job.op_id,
            result,
        };
        self.send_at(job.from, OsdMsg::Reply(reply), leaves);
        drop(job.permit);
    }
}
