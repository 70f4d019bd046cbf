//! Write-path stage tracing (Figure 3).
//!
//! One write in 16 carries a [`Trace`]: a stamp per [`Mark`], taken as the
//! op passes message processing → PG order point → journal submit (PG
//! lock + replication send + metadata read) → journal commit → completion
//! hand-off → client reply, stamped at the instant the reply leaves (a
//! replica's ack may settle the write before that instant, on the thread
//! that sends the ack). When the write replies `Ok`, each row of
//! [`STAGES`] is observed into its `osdN.stage.*` histogram; the registry
//! is the one place stages are read.

use afc_common::metrics::{Histogram, Metrics};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The points a sampled write is stamped at, in pipeline order. A request
/// taken on the client's thread runs ahead of its arrival: every mark
/// stamped before the arrival reads as the arrival.
#[derive(Clone, Copy, Debug)]
pub enum Mark {
    /// The request's arrival at the primary.
    Recv,
    /// Handed to admission (messenger dispatch work done).
    Queued,
    /// PG work started under the PG lock. From `Queued` to here is QoS and
    /// PG-FIFO admission plus the wait for the PG lock (or for its holder
    /// to reach the op); under the pending queue the client's sending
    /// thread does the admission itself, an op worker only for a QoS
    /// backlog.
    Dequeue,
    /// Journal submit issued.
    JSubmit,
    /// Local journal commit observed.
    JCommit,
    /// Local commit handled (completion hand-off done).
    Handled,
    /// Client reply leaves: its departure instant, not when it was sent.
    Reply,
}

/// The Figure 3 stages as `(histogram, from, to)`. The six rows from
/// `messenger` to `ack` tile `total`; `ack` is `reply − handled` whether
/// the last replica ack lands before or after the local commit.
pub const STAGES: [(&str, Mark, Mark); 7] = [
    ("messenger", Mark::Recv, Mark::Queued),
    ("pg_queue", Mark::Queued, Mark::Dequeue),
    ("submit", Mark::Dequeue, Mark::JSubmit),
    ("journal", Mark::JSubmit, Mark::JCommit),
    ("apply", Mark::JCommit, Mark::Handled),
    ("ack", Mark::Handled, Mark::Reply),
    ("total", Mark::Recv, Mark::Reply),
];

/// A mark not stamped yet.
const UNSET: u64 = u64::MAX;

/// One sampled write's stamps: nanoseconds after `recv` per [`Mark`].
pub struct Trace {
    recv: Instant,
    at: [AtomicU64; Mark::Reply as usize + 1],
}

impl Trace {
    fn start(recv: Instant) -> Trace {
        Trace {
            recv,
            at: std::array::from_fn(|i| {
                AtomicU64::new(if i == Mark::Recv as usize { 0 } else { UNSET })
            }),
        }
    }

    /// Stamp `m` with the current time.
    pub fn mark(&self, m: Mark) {
        self.mark_at(m, Instant::now());
    }

    /// Stamp `m` with `at`.
    pub fn mark_at(&self, m: Mark, at: Instant) {
        let ns = at.saturating_duration_since(self.recv).as_nanos() as u64;
        // ordering: Relaxed — only the `Ok` replier reads the marks, and
        // the op's completion count orders it after every stamp.
        self.at[m as usize].store(ns, Ordering::Relaxed);
    }

    fn at(&self, m: Mark) -> Option<u64> {
        Some(self.at[m as usize].load(Ordering::Relaxed)).filter(|&ns| ns != UNSET)
    }
}

/// Samples one write in `every` and observes its stages, one histogram per
/// [`STAGES`] row.
pub struct StageRecorder {
    every: u64,
    seq: AtomicU64,
    hists: [Histogram; STAGES.len()],
}

impl StageRecorder {
    /// Trace one write in `every`.
    pub fn new(every: u64) -> Self {
        StageRecorder {
            every: every.max(1),
            seq: AtomicU64::new(0),
            hists: Default::default(),
        }
    }

    /// Register the stage histograms as `<prefix>.<stage>`.
    pub fn register(&self, m: &Metrics, prefix: &str) {
        for ((stage, ..), h) in STAGES.iter().zip(&self.hists) {
            m.register_histogram(format!("{prefix}.{stage}"), h);
        }
    }

    /// The next write's trace, received at `recv`: `Some` for one write in
    /// `every`.
    pub fn start(&self, recv: Instant) -> Option<Box<Trace>> {
        self.seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
            .then(|| Box::new(Trace::start(recv)))
    }

    /// Stamp `reply` with the instant the reply leaves and observe every
    /// stage whose two marks are set.
    pub fn finish(&self, t: &Trace, reply: Instant) {
        t.mark_at(Mark::Reply, reply);
        for ((_, from, to), h) in STAGES.iter().zip(&self.hists) {
            if let (Some(a), Some(b)) = (t.at(*from), t.at(*to)) {
                h.observe(Duration::from_nanos(b.saturating_sub(a)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace received a second ago and stamped `ms` milliseconds after
    /// that per listed mark; `finish` below stamps `reply` at ~1 000 ms.
    fn trace_ms(marks: &[(Mark, u64)]) -> Trace {
        let t = Trace::start(Instant::now() - Duration::from_secs(1));
        for &(m, ms) in marks {
            t.at[m as usize].store(ms * 1_000_000, Ordering::Relaxed);
        }
        t
    }

    /// Per stage: (count, sum µs) after `finish`.
    fn observed(t: &Trace) -> Vec<(u64, u64)> {
        let r = StageRecorder::new(1);
        r.finish(t, Instant::now());
        r.hists
            .iter()
            .map(|h| h.snapshot())
            .map(|s| (s.count, s.sum_us))
            .collect()
    }

    #[test]
    fn every_stage_spans_its_two_marks_in_the_registry() {
        let m = Metrics::new();
        let r = StageRecorder::new(1);
        r.register(&m, "osd0.stage");
        let t = trace_ms(&[
            (Mark::Queued, 1),
            (Mark::Dequeue, 3),
            (Mark::JSubmit, 6),
            (Mark::JCommit, 14),
            (Mark::Handled, 15),
        ]);
        // The reply leaves 20 ms after it was sent.
        r.finish(&t, Instant::now() + Duration::from_millis(20));
        let reply_us = t.at(Mark::Reply).unwrap() / 1000;
        assert!(reply_us >= 1_020_000, "reply stamped at its departure");
        let snap = m.snapshot();
        let spans_us = [1000, 2000, 3000, 8000, 1000, reply_us - 15_000, reply_us];
        for ((stage, ..), want) in STAGES.iter().zip(spans_us) {
            let h = snap.histogram(&format!("osd0.stage.{stage}")).unwrap();
            assert_eq!((h.count, h.sum_us), (1, want), "{stage}");
        }
    }

    #[test]
    fn an_unset_mark_skips_the_stages_that_read_it() {
        // No `jcommit`: `journal` and `apply` are skipped, the rest kept.
        let t = trace_ms(&[
            (Mark::Queued, 1),
            (Mark::Dequeue, 2),
            (Mark::JSubmit, 3),
            (Mark::Handled, 5),
        ]);
        let counts: Vec<u64> = observed(&t).iter().map(|&(c, _)| c).collect();
        assert_eq!(counts, [1, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn a_mark_out_of_order_saturates_to_zero() {
        // `queued` stamped after `dequeue`: pg_queue is 0, not a wrap.
        let t = trace_ms(&[(Mark::Queued, 5), (Mark::Dequeue, 2)]);
        let stages = observed(&t);
        assert_eq!(stages[0], (1, 5000), "messenger");
        assert_eq!(stages[1], (1, 0), "pg_queue");
    }

    #[test]
    fn one_write_in_n_is_sampled() {
        let r = StageRecorder::new(10);
        let now = Instant::now();
        let traced = (0..100).filter(|_| r.start(now).is_some()).count();
        assert_eq!(traced, 10);
        assert!(StageRecorder::new(10).start(now).is_some(), "the first is");
    }
}
