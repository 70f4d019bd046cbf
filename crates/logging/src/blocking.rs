//! The community logger: a single logging thread, synchronous hand-off.
//!
//! `submit` enqueues under a global mutex and waits until the logger thread
//! has *consumed* the entry ("Ceph still waits for the logging to be
//! completed before proceeding"). The costs are all real: global lock
//! contention between every submitting thread, FIFO serialization through
//! one consumer, and two context switches per entry.

use crate::entry::{LogEntry, LogRing};
use afc_common::metrics::Counter;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

struct Shared {
    queue: Mutex<QueueState>,
    /// Wakes the logger thread when entries arrive.
    work_cv: Condvar,
    /// Wakes submitters when `processed` advances.
    done_cv: Condvar,
}

struct QueueState {
    queue: VecDeque<(u64, LogEntry)>,
    next_seq: u64,
    processed: u64,
    shutdown: bool,
}

/// Single-threaded synchronous logger.
pub struct BlockingLogger {
    shared: Arc<Shared>,
    ring: Arc<LogRing>,
    submitted: Counter,
    wait_us: Counter,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl BlockingLogger {
    /// Start the logger thread; `submitted` and `wait_us` are the caller's
    /// `log.submitted` / `log.block_wait_us` cells.
    pub fn new(ring_entries: usize, submitted: Counter, wait_us: Counter) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                queue: VecDeque::new(),
                next_seq: 1,
                processed: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let ring = Arc::new(LogRing::new(ring_entries));
        let worker = {
            let shared = Arc::clone(&shared);
            let ring = Arc::clone(&ring);
            std::thread::Builder::new()
                .name("log-writer".into())
                .spawn(move || Self::writer_loop(shared, ring))
                .expect("spawn log writer")
        };
        BlockingLogger {
            shared,
            ring,
            submitted,
            wait_us,
            worker: Some(worker),
        }
    }

    fn writer_loop(shared: Arc<Shared>, ring: Arc<LogRing>) {
        loop {
            let (seq, entry) = {
                let mut st = shared.queue.lock();
                loop {
                    if let Some(item) = st.queue.pop_front() {
                        break item;
                    }
                    if st.shutdown {
                        return;
                    }
                    shared.work_cv.wait(&mut st);
                }
            };
            // The "write": append to the in-memory ring (Ceph's in-memory
            // log mode). Done outside the queue lock.
            ring.push(entry);
            let mut st = shared.queue.lock();
            st.processed = seq;
            drop(st);
            shared.done_cv.notify_all();
        }
    }

    /// Submit an entry and wait until the logger thread consumed it.
    pub fn submit(&self, entry: LogEntry) {
        let t0 = Instant::now();
        let mut st = self.shared.queue.lock();
        if st.shutdown {
            return;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue.push_back((seq, entry));
        self.shared.work_cv.notify_one();
        while st.processed < seq && !st.shutdown {
            self.shared.done_cv.wait(&mut st);
        }
        drop(st);
        self.submitted.inc();
        self.wait_us.add(t0.elapsed().as_micros() as u64);
    }

    /// Ring snapshot.
    pub fn dump(&self) -> Vec<LogEntry> {
        self.ring.dump()
    }
}

impl Drop for BlockingLogger {
    fn drop(&mut self) {
        {
            let mut st = self.shared.queue.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
        if let Some(h) = self.worker.take() {
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
    fn submit_blocks_until_consumed() {
        let submitted = Counter::new();
        let l = BlockingLogger::new(100, submitted.clone(), Counter::new());
        l.submit(LogEntry::new(Level::Debug, "t", "one".into()));
        // Entry must be visible immediately after submit returns.
        assert_eq!(l.dump().len(), 1);
        assert_eq!(submitted.get(), 1);
    }

    #[test]
    fn order_preserved_across_threads_per_thread() {
        let l = BlockingLogger::new(10_000, Counter::new(), Counter::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let l = &l;
                s.spawn(move || {
                    for i in 0..50 {
                        l.submit(LogEntry::new(Level::Debug, "t", format!("{t}:{i}")));
                    }
                });
            }
        });
        let d = l.dump();
        assert_eq!(d.len(), 200);
        // Per-thread order must hold even if threads interleave.
        for t in 0..4 {
            let idxs: Vec<usize> = d
                .iter()
                .enumerate()
                .filter(|(_, e)| e.message().starts_with(&format!("{t}:")))
                .map(|(i, _)| i)
                .collect();
            assert!(idxs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn drop_is_clean_with_pending_state() {
        let l = BlockingLogger::new(10, Counter::new(), Counter::new());
        l.submit(LogEntry::new(Level::Debug, "t", "x".into()));
        drop(l); // must not hang
    }
}
