//! The AFCeph logger: staged submission, batch-draining parallel flushers.
//!
//! §3.3: "We have changed all the logging from synchronous to asynchronous
//! so that it will not be on the critical path anymore... we made the single
//! thread structure multi threaded so that parallel processing is possible."
//!
//! A record costs its submitter one short lock and a push onto a bounded
//! staging queue — no syscall. The flushers take *everything* staged in one
//! O(1) swap, order the batch by timestamp and append it to the ring under
//! one lock. Overflow drops the oldest pending entries (bounded memory, as
//! the paper notes the throttle bounds outstanding operations anyway) and
//! counts them.
//!
//! **Wake rule.** One flusher at a time stays awake and sweeps once per
//! `LINGER` (2 ms), so under load the cost is one wake-up per linger, whatever
//! the record rate. The others park on an untimed wait. When a sweep that
//! follows a linger finds nothing, the last flusher parks too, and an idle
//! logger polls nothing. A submitter notifies in two cases only, both
//! decided under the staging lock it already holds (so no wake-up is lost):
//! it sees no flusher awake, or its push crosses the half-full mark — a
//! burst the lingering flusher would be too late for, which is what the
//! parked ones are kept for.
//!
//! **Order.** Sweeps take turns (`Shared::turn`), so batches reach the ring
//! in the order they left staging; inside a batch entries are sorted by
//! [`LogEntry::at`], stably. A thread's records therefore keep their order
//! in the ring, and records of different threads are timestamp-ordered
//! within a sweep.

use crate::entry::{LogEntry, LogRing};
use afc_common::metrics::Counter;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long the one awake flusher lets records pile up between sweeps. At
/// the ~18 k records/s an OSD emits at the benchmark's QD16 knee this makes
/// batches of ~35; the staging queue (4096 by default) is far from its
/// half-full mark, which covers faster bursts.
const LINGER: Duration = Duration::from_millis(2);

struct Staging {
    queue: VecDeque<LogEntry>,
    /// Flushers not parked (sweeping or lingering). Submitters notify only
    /// when this is zero or at the half-full mark.
    awake: usize,
    closed: bool,
}

struct Shared {
    staging: Mutex<Staging>,
    /// Where flushers rest: a timed wait while lingering, an untimed one
    /// while parked.
    work: Condvar,
    /// Held from the swap to the end of the ring append, so batches land in
    /// the ring in the order they were taken. Ordered before `staging`.
    turn: Mutex<()>,
    ring: LogRing,
    capacity: usize,
    flushes: Counter,
    /// Sweeps started, empty ones included: the parked-not-polling test
    /// watches it stand still.
    #[cfg(test)]
    sweeps: AtomicU64,
}

impl Shared {
    fn half(&self) -> usize {
        (self.capacity / 2).max(1)
    }

    /// Move everything staged into the ring. `batch` must come in empty; it
    /// goes out holding the entries the ring evicted, for the caller to drop
    /// outside every lock (an owned message frees its string).
    fn sweep(&self, batch: &mut VecDeque<LogEntry>) {
        #[cfg(test)]
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        let _turn = self.turn.lock();
        std::mem::swap(&mut self.staging.lock().queue, batch);
        if batch.is_empty() {
            return;
        }
        batch.make_contiguous().sort_by_key(LogEntry::at);
        self.ring.push_batch(batch);
        self.flushes.inc();
    }

    fn flusher_loop(&self) {
        let mut batch = VecDeque::new();
        // Whether a whole linger has just passed with nothing staged: only
        // then may the last flusher awake park. (A flusher woken from its
        // park that finds the batch already taken by the other one lingers
        // first — or a burst of records, which wakes both, would have both
        // park again and the next burst pay two wake-ups, and so on.)
        let mut idle = true;
        loop {
            let mut lingered = false;
            let mut st = self.staging.lock();
            if !st.closed && st.queue.len() < self.half() {
                if st.awake > 1 || (idle && st.queue.is_empty()) {
                    // Another flusher stays awake to sweep, or there has
                    // been nothing to sweep: park. With no one awake the
                    // next submitter notifies.
                    st.awake -= 1;
                    self.work.wait(&mut st);
                    st.awake += 1;
                } else {
                    self.work.wait_for(&mut st, LINGER);
                    lingered = true;
                }
            }
            if st.closed {
                return;
            }
            drop(st);
            self.sweep(&mut batch);
            idle = lingered && batch.is_empty();
            batch.clear();
        }
    }
}

/// Asynchronous multi-flusher logger.
pub struct NonBlockingLogger {
    shared: Arc<Shared>,
    submitted: Counter,
    dropped: Counter,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl NonBlockingLogger {
    /// Start `flushers` flusher threads over a staging queue of
    /// `queue_entries`; `submitted`, `dropped` and `flushes` are the
    /// caller's `log.submitted` / `log.dropped` / `log.flushes` cells.
    pub fn new(
        ring_entries: usize,
        queue_entries: usize,
        flushers: usize,
        submitted: Counter,
        dropped: Counter,
        flushes: Counter,
    ) -> Self {
        let shared = Arc::new(Shared {
            staging: Mutex::new(Staging {
                queue: VecDeque::new(),
                awake: flushers,
                closed: false,
            }),
            work: Condvar::new(),
            turn: Mutex::new(()),
            ring: LogRing::new(ring_entries),
            capacity: queue_entries.max(1),
            flushes,
            #[cfg(test)]
            sweeps: AtomicU64::new(0),
        });
        let workers = (0..flushers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("log-flush-{i}"))
                    .spawn(move || shared.flusher_loop())
                    .expect("spawn log flusher")
            })
            .collect();
        NonBlockingLogger {
            shared,
            submitted,
            dropped,
            workers,
        }
    }

    /// Submit without waiting. On a full queue the *oldest* staged entry is
    /// dropped and counted — the submitter never blocks, and
    /// `submitted + dropped` is the number of calls.
    pub fn submit(&self, entry: LogEntry) {
        let sh = &*self.shared;
        let mut st = sh.staging.lock();
        let evicted = if st.queue.len() >= sh.capacity {
            st.queue.pop_front()
        } else {
            None
        };
        st.queue.push_back(entry);
        let wake = st.awake == 0 || st.queue.len() == sh.half();
        drop(st);
        if wake {
            sh.work.notify_one();
        }
        // The evicted entry's place in `submitted` passes to the new one.
        match evicted {
            Some(_) => self.dropped.inc(),
            None => self.submitted.inc(),
        }
    }

    /// Ring snapshot.
    pub fn dump(&self) -> Vec<LogEntry> {
        self.shared.ring.dump()
    }

    /// Return once every entry accepted before the call is in the ring
    /// (test helper). The caller sweeps: waiting for its turn covers a batch
    /// a flusher has in hand, the sweep covers what is still staged.
    pub fn drain(&self) {
        self.shared.sweep(&mut VecDeque::new());
    }
}

impl Drop for NonBlockingLogger {
    fn drop(&mut self) {
        self.shared.staging.lock().closed = true;
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
        // Whatever the flushers left staged when they saw `closed`.
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    struct Cells {
        submitted: Counter,
        dropped: Counter,
        flushes: Counter,
    }

    fn logger(ring: usize, queue: usize, flushers: usize) -> (NonBlockingLogger, Cells) {
        let c = Cells {
            submitted: Counter::new(),
            dropped: Counter::new(),
            flushes: Counter::new(),
        };
        let l = NonBlockingLogger::new(
            ring,
            queue,
            flushers,
            c.submitted.clone(),
            c.dropped.clone(),
            c.flushes.clone(),
        );
        (l, c)
    }

    fn entry(msg: String) -> LogEntry {
        LogEntry::new(Level::Debug, "t", msg)
    }

    fn messages(l: &NonBlockingLogger) -> Vec<String> {
        l.dump().iter().map(|e| e.message().to_string()).collect()
    }

    #[test]
    fn entries_flow_to_ring() {
        let (l, c) = logger(1000, 256, 2);
        for i in 0..100 {
            l.submit(entry(format!("{i}")));
        }
        l.drain();
        assert_eq!(l.dump().len(), 100);
        assert_eq!(c.submitted.get(), 100);
        assert_eq!(c.dropped.get(), 0);
    }

    /// With no flusher started nothing leaves staging until `drain`, so the
    /// overflow rule shows exactly.
    #[test]
    fn overflow_drops_the_oldest_and_counts() {
        let (l, c) = logger(100, 4, 0);
        for i in 0..10 {
            l.submit(entry(format!("{i}")));
        }
        assert!(l.dump().is_empty());
        l.drain();
        assert_eq!(messages(&l), ["6", "7", "8", "9"]);
        assert_eq!((c.submitted.get(), c.dropped.get()), (4, 6));
        assert_eq!(c.flushes.get(), 1);
    }

    #[test]
    fn concurrent_submitters_never_block_forever() {
        let (l, c) = logger(1000, 128, 2);
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
        assert_eq!(c.submitted.get() + c.dropped.get(), 4000);
    }

    #[test]
    fn every_accepted_record_arrives_once_in_thread_order() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;
        let (l, c) = logger(THREADS * PER_THREAD, 4096, 2);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (l, start) = (&l, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        l.submit(entry(format!("{t}:{i}")));
                    }
                });
            }
        });
        l.drain();
        let mut per_thread = vec![Vec::new(); THREADS];
        for m in messages(&l) {
            let (t, i) = m.split_once(':').expect("t:i");
            per_thread[t.parse::<usize>().unwrap()].push(i.parse::<usize>().unwrap());
        }
        let arrived: usize = per_thread.iter().map(Vec::len).sum();
        assert_eq!(arrived as u64, c.submitted.get(), "accepted ≠ in the ring");
        assert_eq!(
            c.submitted.get() + c.dropped.get(),
            (THREADS * PER_THREAD) as u64
        );
        for (t, seen) in per_thread.iter().enumerate() {
            assert!(
                seen.windows(2).all(|w| w[0] < w[1]),
                "thread {t}: a record is duplicated or out of order"
            );
        }
    }

    #[test]
    fn flushes_are_batches_not_records() {
        const RECORDS: u64 = 100_000;
        let (l, c) = logger(1000, 4096, 2);
        for i in 0..RECORDS {
            l.submit(entry(format!("{i}")));
        }
        l.drain();
        assert_eq!(c.submitted.get() + c.dropped.get(), RECORDS);
        assert!(
            (1..=RECORDS / 100).contains(&c.flushes.get()),
            "{} flushes for {RECORDS} records",
            c.flushes.get()
        );
    }

    #[test]
    fn records_accepted_just_before_drop_reach_the_ring() {
        for round in 0..50 {
            let (l, c) = logger(1000, 256, 2);
            for i in 0..100 {
                l.submit(entry(format!("{i}")));
            }
            // Keep the ring alive past the logger to look inside it.
            let shared = Arc::clone(&l.shared);
            drop(l);
            assert_eq!(c.submitted.get(), 100);
            assert_eq!(shared.ring.len(), 100, "round {round}");
        }
    }

    #[test]
    fn idle_flushers_park_instead_of_polling() {
        let (l, c) = logger(1000, 256, 2);
        for i in 0..10 {
            l.submit(entry(format!("{i}")));
        }
        // The flushers drain on their own, then a linger ends with nothing
        // staged and the last one parks.
        while l.dump().len() < 10 || l.shared.staging.lock().awake > 0 {
            std::thread::sleep(LINGER);
        }
        assert_eq!(c.submitted.get(), 10);
        let before = l.shared.sweeps.load(Ordering::Relaxed);
        std::thread::sleep(LINGER * 20);
        assert_eq!(l.shared.sweeps.load(Ordering::Relaxed), before, "polling");
        // A parked flusher is woken by the next record, without `drain`.
        l.submit(entry("late".into()));
        while l.dump().len() < 11 {
            std::thread::sleep(LINGER);
        }
    }

    /// Records come in bursts (several per op step), and a burst that finds
    /// both flushers parked wakes both. That must settle into one flusher
    /// lingering, not into both parking again and every burst paying two
    /// wake-ups.
    #[test]
    fn bursts_do_not_cost_a_wakeup_each() {
        const BURSTS: u64 = 300;
        let (l, c) = logger(10_000, 4096, 2);
        for burst in 0..BURSTS {
            for i in 0..4 {
                l.submit(entry(format!("{burst}:{i}")));
            }
            // A tenth of a millisecond apart: many bursts per linger.
            let gap = std::time::Instant::now();
            while gap.elapsed() < LINGER / 20 {
                std::hint::spin_loop();
            }
        }
        l.drain();
        assert_eq!(c.submitted.get(), BURSTS * 4);
        let sweeps = l.shared.sweeps.load(Ordering::Relaxed);
        assert!(sweeps < BURSTS, "{sweeps} sweeps for {BURSTS} bursts");
    }

    #[test]
    fn drop_joins_flushers() {
        let (l, _) = logger(100, 64, 3);
        l.submit(LogEntry::new(Level::Info, "t", "bye".into()));
        drop(l); // must not hang
    }
}
