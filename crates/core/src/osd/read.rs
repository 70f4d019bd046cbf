//! Reads (and stats): ordered at the PG against earlier writes through the
//! apply gate, then executed off the PG lock on the disk-reader pool.

use super::OsdInner;
use crate::messages::{ObjectOp, OpOutcome};
use afc_common::lockdep::{classes, TrackedCondvar, TrackedMutex};
use afc_common::metrics::{Counter, Metrics};
use afc_common::{AfcError, OpId, Result};
use afc_filestore::throttle::OwnedPermit;
use afc_messenger::Addr;
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a read waits for the applies ordered before it. Far beyond any
/// healthy apply; a wait this long means an apply is wedged.
const GATE_TIMEOUT: Duration = Duration::from_secs(10);

/// Read gate: a read must not observe the filestore before every write to
/// its object that was *ordered before it* (journal-acked but not yet
/// applied) has landed — Ceph's per-object sequencer behaviour that keeps
/// read-after-acked-write strongly consistent. Writes ordered after the
/// read do not delay it (no starvation under mixed workloads).
///
/// The gate fails *closed*: a waiter whose applies do not land by its
/// deadline gets [`AfcError::Timeout`], never a look at the filestore —
/// data older than an acked write must not be served just because an apply
/// is wedged.
pub(super) struct ApplyGate {
    objects: TrackedMutex<HashMap<String, (u64, u64)>>, // object → (enqueued, applied)
    cv: TrackedCondvar,
    /// Waits that ended at their deadline instead of at the apply.
    timeouts: Counter,
}

impl ApplyGate {
    fn new() -> Self {
        ApplyGate {
            objects: TrackedMutex::new(&classes::APPLY_GATE, HashMap::new()),
            cv: TrackedCondvar::new(),
            timeouts: Counter::new(),
        }
    }

    /// A write to `object` entered the pipeline.
    pub(super) fn add(&self, object: &str) {
        self.objects
            .lock()
            .entry(object.to_string())
            .or_insert((0, 0))
            .0 += 1;
    }

    /// A write to `object` finished applying (no-op for untracked objects,
    /// e.g. replica-side applies that serve no reads).
    pub(super) fn done(&self, object: &str) {
        let mut st = self.objects.lock();
        if let Some(e) = st.get_mut(object) {
            e.1 += 1;
            if e.1 >= e.0 {
                st.remove(object);
            }
            drop(st);
            self.cv.notify_all();
        }
    }

    /// Current enqueue watermark for `object` (None: nothing pending).
    fn snapshot(&self, object: &str) -> Option<u64> {
        self.objects.lock().get(object).map(|e| e.0)
    }

    /// Wait until applies for `object` reach `target` (from
    /// [`Self::snapshot`]), or fail with [`AfcError::Timeout`] at `deadline`:
    /// a wedged apply must neither hang the reader nor let it read around
    /// the write.
    fn wait_target(&self, object: &str, target: Option<u64>, deadline: Instant) -> Result<()> {
        let Some(target) = target else { return Ok(()) };
        let mut st = self.objects.lock();
        loop {
            match st.get(object) {
                Some(&(_, applied)) if applied < target => {
                    if self.cv.wait_until(&mut st, deadline).timed_out() {
                        self.timeouts.inc();
                        return Err(AfcError::Timeout(format!(
                            "{object}: apply {applied} of {target} ordered before this read"
                        )));
                    }
                }
                _ => return Ok(()), // caught up or entry retired
            }
        }
    }

    /// Wait until every write enqueued *before now* has applied (or fail
    /// after [`GATE_TIMEOUT`]).
    pub(super) fn wait_ordered(&self, object: &str) -> Result<()> {
        self.wait_target(object, self.snapshot(object), Instant::now() + GATE_TIMEOUT)
    }

    /// Drop all gate state and release every waiter (crash simulation:
    /// the gate is volatile bookkeeping).
    pub(super) fn reset(&self) {
        self.objects.lock().clear();
        self.cv.notify_all();
    }
}

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
    /// Apply-gate watermark captured under PG order by `process_read`.
    pub(super) gate_target: Option<u64>,
}

pub(super) struct ReadPath {
    pub(super) gate: ApplyGate,
    pub(super) tx: TrackedMutex<Option<Sender<ReadJob>>>,
    reads: Counter,
}

impl ReadPath {
    pub(super) fn new() -> Self {
        ReadPath {
            gate: ApplyGate::new(),
            tx: TrackedMutex::new(&classes::OSD_CHANNEL_TX, None),
            reads: Counter::new(),
        }
    }

    pub(super) fn register(&self, m: &Metrics, osd: &str) {
        m.register_counter(format!("{osd}.op.reads"), &self.reads);
        m.register_counter(format!("{osd}.op.gate_timeouts"), &self.gate.timeouts);
    }
}

/// One disk-reader pool thread.
pub(super) fn reader_loop(inner: Arc<OsdInner>, rx: Receiver<ReadJob>) {
    while let Ok(job) = rx.recv() {
        inner.execute_read(job);
    }
}

impl OsdInner {
    /// Order a read or stat (PG lock held): capture the apply-gate target,
    /// then hand the job to whoever executes it.
    pub(super) fn process_read(&self, mut job: ReadJob) {
        if matches!(job.query, ObjectOp::Read { .. }) {
            self.log("do_op: read");
            self.alloc_overhead();
            self.read.reads.inc();
        }
        job.gate_target = self.read.gate.snapshot(&job.obj_name);
        if !self.tuning.pending_queue {
            // Community: the device read happens right here, holding the PG
            // lock for its whole duration (the behaviour the pending queue
            // fixes: other requests to this PG — and this op worker — stall).
            return self.execute_read(job);
        }
        // §3.1: executed on the disk-reader pool so the PG lock and the op
        // worker are released immediately. No pool means shutting down;
        // dropping the job releases its permit.
        let tx = self.read.tx.lock().clone();
        if let Some(tx) = tx {
            let _ = tx.send(job);
        }
    }

    /// Complete a read: wait for ordered applies, hit the filestore, reply.
    /// A gate timeout is the reply — the filestore is not consulted.
    fn execute_read(&self, job: ReadJob) {
        let gate = self.read.gate.wait_target(
            &job.obj_name,
            job.gate_target,
            Instant::now() + GATE_TIMEOUT,
        );
        let result = gate.and_then(|()| match job.query {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_gate_orders_reads_after_prior_writes_only() {
        let g = ApplyGate::new();
        g.add("obj");
        g.add("obj");
        let target = g.snapshot("obj");
        assert_eq!(target, Some(2));
        // A write enqueued after the snapshot must not block this reader.
        g.add("obj");
        let g = std::sync::Arc::new(g);
        let g2 = std::sync::Arc::clone(&g);
        let reader = std::thread::spawn(move || {
            let t0 = Instant::now();
            g2.wait_target("obj", target, t0 + GATE_TIMEOUT).unwrap();
            t0.elapsed()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        g.done("obj");
        g.done("obj"); // applied == 2 == target → reader releases
        let waited = reader.join().unwrap();
        assert!(
            waited >= std::time::Duration::from_millis(15),
            "did not wait: {waited:?}"
        );
        assert!(
            waited < std::time::Duration::from_secs(5),
            "waited for the later write"
        );
        g.done("obj"); // third apply retires the entry
        assert_eq!(g.snapshot("obj"), None);
    }

    #[test]
    fn apply_gate_fails_closed_when_the_apply_is_held_back() {
        let g = ApplyGate::new();
        g.add("obj");
        let target = g.snapshot("obj");
        // The apply never lands within the (test-shortened) deadline: the
        // waiter must get the typed error, not permission to read.
        let err = g
            .wait_target("obj", target, Instant::now() + Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, AfcError::Timeout(_)), "{err}");
        assert_eq!(g.timeouts.get(), 1);
        // Once it lands, the same target passes and nothing more is counted.
        g.done("obj");
        g.wait_target("obj", target, Instant::now() + Duration::from_millis(20))
            .unwrap();
        assert_eq!(g.timeouts.get(), 1);
    }

    #[test]
    fn apply_gate_untracked_object_passes() {
        let g = ApplyGate::new();
        assert_eq!(g.snapshot("ghost"), None);
        g.wait_ordered("ghost").unwrap(); // returns immediately
        g.done("ghost"); // no-op
    }

    #[test]
    fn apply_gate_distinct_objects_independent() {
        let g = ApplyGate::new();
        g.add("a");
        assert_eq!(g.snapshot("b"), None);
        g.wait_ordered("b").unwrap(); // b is unaffected by a
        g.done("a");
        assert_eq!(g.snapshot("a"), None);
    }
}
