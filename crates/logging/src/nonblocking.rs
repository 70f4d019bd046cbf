//! The AFCeph logger: bounded lock-free submission, parallel flushers.
//!
//! §3.3: "We have changed all the logging from synchronous to asynchronous
//! so that it will not be on the critical path anymore... we made the single
//! thread structure multi threaded so that parallel processing is possible."
//! Overflow drops the oldest pending entries (bounded memory, as the paper
//! notes the throttle bounds outstanding operations anyway) and counts them.

use crate::entry::{LogEntry, LogRing};
use afc_common::metrics::Counter;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Asynchronous multi-flusher logger.
pub struct NonBlockingLogger {
    tx: Sender<LogEntry>,
    ring: Arc<LogRing>,
    submitted: Counter,
    dropped: Counter,
    enqueued: Arc<AtomicU64>,
    flushed: Arc<AtomicU64>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl NonBlockingLogger {
    /// Start `flushers` flusher threads over a queue of `queue_entries`;
    /// `submitted` and `dropped` are the caller's `log.submitted` /
    /// `log.dropped` cells.
    pub fn new(
        ring_entries: usize,
        queue_entries: usize,
        flushers: usize,
        submitted: Counter,
        dropped: Counter,
    ) -> Self {
        let (tx, rx): (Sender<LogEntry>, Receiver<LogEntry>) = bounded(queue_entries.max(1));
        let ring = Arc::new(LogRing::new(ring_entries));
        let enqueued = Arc::new(AtomicU64::new(0));
        let flushed = Arc::new(AtomicU64::new(0));
        let workers = (0..flushers)
            .map(|i| {
                let rx = rx.clone();
                let ring = Arc::clone(&ring);
                let flushed = Arc::clone(&flushed);
                std::thread::Builder::new()
                    .name(format!("log-flush-{i}"))
                    .spawn(move || {
                        while let Ok(entry) = rx.recv() {
                            ring.push(entry);
                            flushed.fetch_add(1, Ordering::Release);
                        }
                    })
                    .expect("spawn log flusher")
            })
            .collect();
        NonBlockingLogger {
            tx,
            ring,
            submitted,
            dropped,
            enqueued,
            flushed,
            workers,
        }
    }

    /// Submit without waiting. On a full queue the entry is dropped and
    /// counted — the submitter never blocks.
    pub fn submit(&self, entry: LogEntry) {
        match self.tx.try_send(entry) {
            Ok(()) => {
                self.enqueued.fetch_add(1, Ordering::Release);
                self.submitted.inc();
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.dropped.inc();
            }
        }
    }

    /// Ring snapshot.
    pub fn dump(&self) -> Vec<LogEntry> {
        self.ring.dump()
    }

    /// Wait until every accepted entry has reached the ring (test helper).
    pub fn drain(&self) {
        let target = self.enqueued.load(Ordering::Acquire);
        while self.flushed.load(Ordering::Acquire) < target {
            std::thread::yield_now();
        }
    }
}

impl Drop for NonBlockingLogger {
    fn drop(&mut self) {
        // Closing the channel stops the flushers once drained.
        let (dead_tx, _) = bounded(1);
        self.tx = dead_tx;
        for h in self.workers.drain(..) {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    #[test]
    fn entries_flow_to_ring() {
        let (submitted, dropped) = (Counter::new(), Counter::new());
        let l = NonBlockingLogger::new(1000, 256, 2, submitted.clone(), dropped.clone());
        for i in 0..100 {
            l.submit(LogEntry::new(Level::Debug, "t", format!("{i}")));
        }
        l.drain();
        assert_eq!(l.dump().len(), 100);
        assert_eq!(submitted.get(), 100);
        assert_eq!(dropped.get(), 0);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let (submitted, dropped) = (Counter::new(), Counter::new());
        // A single very slow consumer can't be arranged portably, so use a
        // tiny queue and submit in a burst before flushers catch up.
        let l = NonBlockingLogger::new(10, 1, 1, submitted.clone(), dropped.clone());
        for i in 0..10_000 {
            l.submit(LogEntry::new(Level::Debug, "t", format!("{i}")));
        }
        l.drain();
        let (dropped, submitted) = (dropped.get(), submitted.get());
        assert_eq!(dropped + submitted, 10_000);
        assert!(dropped > 0, "expected overflow drops");
    }

    #[test]
    fn concurrent_submitters_never_block_forever() {
        let (submitted, dropped) = (Counter::new(), Counter::new());
        let l = NonBlockingLogger::new(1000, 128, 2, submitted.clone(), dropped.clone());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let l = &l;
                s.spawn(move || {
                    for i in 0..500 {
                        l.submit(LogEntry::new(Level::Trace, "t", format!("{i}")));
                    }
                });
            }
        });
        l.drain();
        assert_eq!(submitted.get() + dropped.get(), 4000);
    }

    #[test]
    fn drop_joins_flushers() {
        let (submitted, dropped) = (Counter::new(), Counter::new());
        let l = NonBlockingLogger::new(100, 64, 3, submitted.clone(), dropped.clone());
        l.submit(LogEntry::new(Level::Info, "t", "bye".into()));
        drop(l); // must not hang
    }
}
