//! The applied prefix: the one structure that answers "has the filestore
//! applied journal sequence *n*?".
//!
//! After the journal commit the journal sequence is the only order there
//! is. Applies complete out of order across objects, so the OSD keeps the
//! longest contiguous prefix of *settled* sequences, and everyone who needs
//! an order waits on that one watermark: **journal trim** frees the ring
//! through it; **a read** captures its PG's last submitted sequence at its
//! PG order point and runs once `prefix >= captured` — never after a write
//! submitted after it — parked here, not on a sleeping thread, when it
//! must wait ([`AppliedPrefix::after`]); **a recovery push** waits for
//! everything submitted so far; **replay** re-marks what it re-applies
//! (marks are a set).
//!
//! A sequence settles when its apply lands, when replay finds it was never
//! durable (*void*: a torn tail — a tear models power loss, so nothing runs
//! on past it but the replay that voids it) or when its apply *failed*,
//! which releases waiters like the other two but pins the trim watermark
//! below it, so the journal keeps the entry for replay.
//!
//! **A landed apply is an instant.** The filestore plans an apply without
//! any thread waiting for it, and the journal hands out the instant its
//! record is durable the same way; a sequence settles at once with the
//! later of the two, its *completion*. Nothing ordered behind it observes
//! it sooner: a released read is handed the latest completion among the
//! sequences it is ordered after and leaves no earlier, [`AppliedPrefix::wait`]
//! waits that completion out, and the trim watermark stops below any
//! sequence whose completion is still ahead — a crash before it could
//! still lose the apply.

use afc_common::lockdep::{classes, TrackedCondvar, TrackedMutex};
use afc_common::metrics::Counter;
use afc_common::{wait_until, AfcError, Result, WaitClass};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What runs once a parked target settles, with the latest completion it
/// is ordered after (now, when all have passed), or fails closed
/// (`Timeout`, `ShutDown`).
pub(super) type Then = Box<dyn FnOnce(Result<Instant>) + Send>;

/// A continuation parked until the prefix reaches `target`.
struct Parked {
    target: u64,
    deadline: Instant,
    then: Then,
}

#[derive(Default)]
struct Marks {
    /// Every sequence `<= settled` is settled.
    settled: u64,
    /// Settled sequences beyond the contiguous prefix.
    ahead: BTreeSet<u64>,
    /// Settled by a failed apply: the journal must keep them.
    failed: BTreeSet<u64>,
    /// Settled sequences whose completion may still be ahead.
    due: BTreeMap<u64, Instant>,
    /// The trim watermark last handed out.
    trimmed: u64,
    /// Threads parked in `wait`; nobody is notified while this is zero.
    waiters: usize,
    /// Continuations parked by `after`, in park order.
    parked: Vec<Parked>,
    closed: bool,
}

impl Marks {
    /// Settle `seq`; false if it already was.
    fn settle(&mut self, seq: u64) -> bool {
        if seq <= self.settled || !self.ahead.insert(seq) {
            return false;
        }
        while self.ahead.remove(&(self.settled + 1)) {
            self.settled += 1;
        }
        true
    }

    /// Highest sequence the journal may free: the prefix, held below the
    /// oldest failed apply and the oldest completion still ahead.
    fn trim_watermark(&self) -> u64 {
        let pinned = self.failed.first().map_or(u64::MAX, |f| f - 1);
        let ahead = self.due.keys().next().map_or(u64::MAX, |s| s - 1);
        self.settled.min(pinned).min(ahead)
    }
}

/// The latest completion still ahead of `now` among the sequences of `due`
/// up to `target`.
fn done_by(due: &BTreeMap<u64, Instant>, target: u64, now: Instant) -> Option<Instant> {
    due.range(..=target)
        .map(|(_, &at)| at)
        .filter(|&at| at > now)
        .max()
}

/// Per-OSD applied-prefix tracker. See the module docs.
pub(super) struct AppliedPrefix {
    marks: TrackedMutex<Marks>,
    cv: TrackedCondvar,
    /// `Marks::settled` without the lock: a wait with nothing pending is
    /// two loads. Stored `Release` after the apply it reports, loaded
    /// `Acquire` before the filestore read that relies on it.
    settled: AtomicU64,
    /// Whether `Marks::due` holds anything. Stored before `settled`, so a
    /// reader that acquires a settled prefix sees its completions.
    any_due: AtomicBool,
    /// How long `wait` waits and a park stays parked: far beyond any
    /// healthy apply.
    timeout: Duration,
    /// Waits and parks that ended at their deadline instead of at the
    /// apply.
    pub(super) timeouts: Counter,
}

impl AppliedPrefix {
    /// A tracker expecting sequences from 1.
    pub(super) fn new(timeout: Duration) -> Self {
        AppliedPrefix {
            marks: TrackedMutex::new(&classes::APPLIED, Marks::default()),
            cv: TrackedCondvar::new(),
            settled: AtomicU64::new(0),
            any_due: AtomicBool::new(false),
            timeout,
            timeouts: Counter::new(),
        }
    }

    /// Run `f` on the marks, forget completions that have passed, publish
    /// the prefix and wake waiters if it moved, run the continuations it
    /// released (on this thread, after the lock, each with the completion
    /// it is ordered after), and return the trim watermark if *that*
    /// advanced.
    fn update(&self, f: impl FnOnce(&mut Marks)) -> Option<u64> {
        let now = Instant::now();
        let (trim, released) = {
            let mut m = self.marks.lock();
            let settled = m.settled;
            f(&mut m);
            m.due.retain(|_, at| *at > now);
            // ordering: Relaxed — published by the `settled` Release store
            // below, or read under the lock.
            self.any_due.store(!m.due.is_empty(), Ordering::Relaxed);
            let mut released = Vec::new();
            if m.settled != settled {
                self.settled.store(m.settled, Ordering::Release);
                if m.waiters > 0 {
                    self.cv.notify_all();
                }
                let reached = m.settled;
                let Marks { parked, due, .. } = &mut *m;
                for p in parked.extract_if(.., |p| p.target <= reached) {
                    let done = done_by(due, p.target, now).unwrap_or(now);
                    released.push((p.then, done));
                }
            }
            let w = m.trim_watermark();
            let trim = (w > m.trimmed).then(|| {
                m.trimmed = w;
                w
            });
            (trim, released)
        };
        for (then, done) in released {
            then(Ok(done));
        }
        trim
    }

    /// `seq` is in the filestore and completes at `at` — the later of its
    /// apply's last device request and its journal record's durability,
    /// possibly still ahead: its queued apply was planned or replay
    /// re-applied it (twice is harmless; success after a failure unpins
    /// the trim). Nobody waits here. Returns the trim watermark if it
    /// advanced.
    pub(super) fn applied(&self, seq: u64, at: Instant) -> Option<u64> {
        self.update(|m| {
            m.failed.remove(&seq);
            m.settle(seq);
            if at > Instant::now() {
                let due = m.due.entry(seq).or_insert(at);
                *due = (*due).max(at);
            }
        })
    }

    /// `seqs` were never durable (replay truncated them): nothing will
    /// apply them and the journal holds nothing to keep.
    pub(super) fn void(&self, seqs: Range<u64>) -> Option<u64> {
        self.update(|m| {
            for s in seqs {
                m.settle(s);
            }
        })
    }

    /// The apply of `seq` failed: waiters must not wedge behind a
    /// transaction that will not complete on this incarnation, the journal
    /// keeps the entry until replay applies it. A sequence that already
    /// settled stays as it is — replay got there first.
    pub(super) fn failed(&self, seq: u64) {
        self.update(|m| {
            if m.settle(seq) {
                m.failed.insert(seq);
            }
        });
    }

    /// Whether `target` has settled with every completion up to it past,
    /// read without the lock.
    fn passed(&self, target: u64) -> bool {
        // ordering: Relaxed — `any_due` is stored before the `settled`
        // Release store this Acquire load synchronizes with.
        self.settled.load(Ordering::Acquire) >= target && !self.any_due.load(Ordering::Relaxed)
    }

    /// Wait until every sequence `<= target` has settled, then wait out
    /// the latest completion among them. Fails *closed*: at the deadline
    /// the waiter gets [`AfcError::Timeout`] (counted), never a look at the
    /// filestore — data older than an acked write must not be served
    /// because an apply is wedged.
    pub(super) fn wait(&self, target: u64) -> Result<()> {
        if self.passed(target) {
            return Ok(());
        }
        let deadline = Instant::now() + self.timeout;
        let mut m = self.marks.lock();
        m.waiters += 1;
        let res = loop {
            if m.settled >= target {
                break Ok(done_by(&m.due, target, Instant::now()));
            }
            if m.closed {
                break Err(AfcError::ShutDown("osd stopping".into()));
            }
            if self.cv.wait_until(&mut m, deadline).timed_out() && m.settled < target {
                self.timeouts.inc();
                break Err(timed_out(m.settled, target));
            }
        };
        m.waiters -= 1;
        drop(m);
        if let Some(done) = res? {
            wait_until(WaitClass::Ssd, done);
        }
        Ok(())
    }

    /// Run `then` once every sequence `<= target` has settled, with the
    /// latest completion among them: right here when they have (two
    /// atomic loads when every completion has passed), else parked — no
    /// thread waits — and run by whoever settles the last of them. Fails
    /// closed like [`Self::wait`]: [`Self::expire`] times a park out,
    /// [`Self::close`] shuts it down. True when `then` was parked.
    pub(super) fn after(&self, target: u64, then: Then) -> bool {
        if self.passed(target) {
            then(Ok(Instant::now()));
            return false;
        }
        let now = {
            let mut m = self.marks.lock();
            let now = Instant::now();
            if m.settled >= target {
                Ok(done_by(&m.due, target, now).unwrap_or(now))
            } else if m.closed {
                Err(AfcError::ShutDown("osd stopping".into()))
            } else {
                let deadline = Instant::now() + self.timeout;
                m.parked.push(Parked {
                    target,
                    deadline,
                    then,
                });
                return true;
            }
        };
        then(now);
        false
    }

    /// Fail every park whose deadline has passed with a counted
    /// [`AfcError::Timeout`], and return the trim watermark if completions
    /// that have passed since the last mark advanced it (the replication
    /// ticker's sweep; a quiesce's last look).
    pub(super) fn expire(&self, now: Instant) -> Option<u64> {
        let (settled, expired) = {
            let mut m = self.marks.lock();
            let expired: Vec<Parked> = m.parked.extract_if(.., |p| p.deadline <= now).collect();
            (m.settled, expired)
        };
        for p in expired {
            self.timeouts.inc();
            (p.then)(Err(timed_out(settled, p.target)));
        }
        self.update(|_| {})
    }

    /// Crash: marks are volatile, what the journal was told to free is
    /// not. Forget everything beyond the trim watermark handed out; replay
    /// settles it again.
    pub(super) fn resume_from_trim(&self) {
        let mut m = self.marks.lock();
        m.settled = m.trimmed;
        m.ahead.clear();
        m.failed.clear();
        m.due.clear();
        // ordering: Relaxed — published by the `settled` Release store.
        self.any_due.store(false, Ordering::Relaxed);
        self.settled.store(m.settled, Ordering::Release);
    }

    /// Fail every present and future waiter and park (shutdown).
    pub(super) fn close(&self) {
        let parked = {
            let mut m = self.marks.lock();
            m.closed = true;
            std::mem::take(&mut m.parked)
        };
        self.cv.notify_all();
        for p in parked {
            (p.then)(Err(AfcError::ShutDown("osd stopping".into())));
        }
    }
}

fn timed_out(settled: u64, target: u64) -> AfcError {
    AfcError::Timeout(format!(
        "applied through journal seq {settled} of {target} ordered before this read"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_filestore::Throttle;
    use std::sync::Arc;

    const SOON: Duration = Duration::from_millis(20);
    const LONG: Duration = Duration::from_secs(10);
    /// A completion still ahead through a test's checks, and short enough
    /// to wait out.
    const AHEAD: Duration = Duration::from_millis(200);

    impl AppliedPrefix {
        fn prefix(&self) -> u64 {
            self.marks.lock().settled
        }
    }

    #[test]
    fn in_order_marks_advance_each_time() {
        let t = AppliedPrefix::new(SOON);
        assert_eq!(t.applied(1, Instant::now()), Some(1));
        assert_eq!(t.applied(2, Instant::now()), Some(2));
        assert_eq!(t.applied(3, Instant::now()), Some(3));
        assert!(t.marks.lock().ahead.is_empty());
    }

    #[test]
    fn out_of_order_marks_wait_for_the_gap() {
        let t = AppliedPrefix::new(SOON);
        let mut last = 0;
        for s in [5u64, 1, 3, 2, 7, 4, 6] {
            if let Some(w) = t.applied(s, Instant::now()) {
                assert!(w > last);
                last = w;
            }
        }
        assert_eq!((last, t.prefix()), (7, 7));
        assert!(t.marks.lock().ahead.is_empty());
    }

    /// Replay on a live OSD re-applies entries whose queued apply is still
    /// in flight, so one sequence is marked twice. The second mark must not
    /// stand in for the next sequence, as it would if marks were counted.
    #[test]
    fn duplicate_mark_releases_nobody_early() {
        let t = AppliedPrefix::new(SOON);
        assert_eq!(t.applied(1, Instant::now()), Some(1));
        assert_eq!(t.applied(1, Instant::now()), None);
        assert_eq!(t.prefix(), 1);
        let err = t.wait(2).unwrap_err();
        assert!(matches!(err, AfcError::Timeout(_)), "{err}");
        assert_eq!(t.applied(3, Instant::now()), None);
        assert_eq!(t.applied(3, Instant::now()), None);
        assert_eq!(t.applied(2, Instant::now()), Some(3));
    }

    /// A waiter parks until its captured sequence settles — and only that:
    /// a write submitted after the capture (seq 3, never applied here) does
    /// not delay it.
    #[test]
    fn waiter_is_released_by_its_own_prefix_not_by_later_writes() {
        let t = AppliedPrefix::new(LONG);
        t.wait(0).unwrap(); // nothing ordered before: no wait, no lock
        std::thread::scope(|s| {
            let reader = s.spawn(|| t.wait(2));
            while t.marks.lock().waiters == 0 {
                std::thread::yield_now();
            }
            t.applied(2, Instant::now());
            assert!(!reader.is_finished(), "released with seq 1 outstanding");
            t.applied(1, Instant::now());
            reader.join().unwrap().unwrap();
        });
        assert_eq!(t.marks.lock().waiters, 0);
        assert_eq!(t.timeouts.get(), 0);
    }

    /// A sequence settles at once with a completion still ahead (a record
    /// not yet durable, an apply still on the device): a waiter ordered
    /// after it returns no earlier, and nobody waited in `applied`.
    #[test]
    fn a_waiter_returns_no_earlier_than_the_completion_it_is_ordered_after() {
        let t = AppliedPrefix::new(LONG);
        let done = Instant::now() + AHEAD;
        assert_eq!(t.applied(1, done), None, "trimmed a completion still ahead");
        assert!(Instant::now() < done, "applied waited for the completion");
        assert_eq!(t.prefix(), 1);
        t.wait(1).unwrap();
        assert!(
            Instant::now() >= done,
            "waiter returned before the completion"
        );
    }

    /// A read released by the prefix leaves no earlier than the latest
    /// completion among the sequences it is ordered after — not the
    /// OSD-wide latest, which a later write on a slow lane may hold.
    #[test]
    fn a_released_read_gets_the_latest_completion_up_to_its_target() {
        let throttle = Arc::new(Throttle::new("test", 8));
        let t = AppliedPrefix::new(LONG);
        // Nothing here waits for these instants: far ahead, they stay due.
        let now = Instant::now();
        let (early, late) = (now + 2 * LONG, now + 5 * LONG);
        let (parked, two) = park(&t, 2, &throttle);
        assert!(parked);
        t.applied(3, late);
        t.applied(2, early);
        assert!(two.try_recv().is_err(), "released with seq 1 outstanding");
        t.applied(1, now + LONG);
        assert_eq!(two.try_recv().unwrap().unwrap(), early);
        // Unparked: the same rule, and a target past every completion
        // gets the latest.
        let (parked, one) = park(&t, 1, &throttle);
        assert!(!parked);
        assert_eq!(one.try_recv().unwrap().unwrap(), now + LONG);
        let (_, three) = park(&t, 3, &throttle);
        assert_eq!(three.try_recv().unwrap().unwrap(), late);
    }

    /// The journal is told to free a sequence only once its completion has
    /// passed: until then a crash could still lose the apply.
    #[test]
    fn trim_never_passes_a_completion_still_ahead() {
        let t = AppliedPrefix::new(LONG);
        let done = Instant::now() + AHEAD;
        assert_eq!(t.applied(1, Instant::now()), Some(1));
        assert_eq!(t.applied(2, done), None);
        assert_eq!(t.applied(3, Instant::now()), None, "trim passed seq 2");
        assert_eq!(t.expire(Instant::now()), None);
        assert_eq!(t.marks.lock().trim_watermark(), 1);
        std::thread::sleep(done.saturating_duration_since(Instant::now()));
        assert_eq!(t.expire(Instant::now()), Some(3));
        assert_eq!(t.expire(Instant::now()), None, "handed out twice");
        // A crash resumes from what the journal was told, not beyond.
        t.applied(4, Instant::now() + LONG);
        t.resume_from_trim();
        assert_eq!(t.prefix(), 3);
    }

    #[test]
    fn deadline_fails_closed_and_is_counted() {
        let t = AppliedPrefix::new(SOON);
        let err = t.wait(1).unwrap_err();
        assert!(matches!(err, AfcError::Timeout(_)), "{err}");
        assert_eq!(t.timeouts.get(), 1);
        // Once it lands, the same target passes and nothing more is counted.
        t.applied(1, Instant::now());
        t.wait(1).unwrap();
        assert_eq!(t.timeouts.get(), 1);
    }

    #[test]
    fn void_range_settles_for_waiters_and_for_trim() {
        let t = AppliedPrefix::new(SOON);
        t.applied(1, Instant::now());
        assert_eq!(t.applied(4, Instant::now()), None);
        assert_eq!(t.void(2..4), Some(4));
        t.wait(4).unwrap();
        assert_eq!(t.void(2..4), None, "a second replay truncates nothing");
        assert_eq!(t.void(9..9), None);
    }

    /// Every committed-but-unapplied entry is still in the journal: a
    /// failed apply lets readers through but holds the trim below it until
    /// an apply of the same sequence (replay) succeeds.
    #[test]
    fn failed_apply_releases_waiters_but_pins_the_trim() {
        let t = AppliedPrefix::new(SOON);
        assert_eq!(t.applied(1, Instant::now()), Some(1));
        t.failed(2);
        assert_eq!(
            t.applied(3, Instant::now()),
            None,
            "trim must not pass the failed entry"
        );
        t.wait(3).unwrap();
        assert_eq!(
            t.applied(2, Instant::now()),
            Some(3),
            "replay re-applied it"
        );
        // Replay first, the queued apply's failure second: already settled.
        t.failed(3);
        assert_eq!(t.applied(4, Instant::now()), Some(4));
    }

    #[test]
    fn crash_forgets_marks_beyond_the_trim_watermark() {
        let t = AppliedPrefix::new(SOON);
        for s in [1, 2, 4] {
            t.applied(s, Instant::now());
        }
        t.failed(3);
        assert_eq!((t.prefix(), t.marks.lock().trim_watermark()), (4, 2));
        t.resume_from_trim();
        assert_eq!(t.prefix(), 2);
        assert!(matches!(t.wait(4), Err(AfcError::Timeout(_))));
        assert_eq!(
            t.applied(2, Instant::now()),
            None,
            "pre-crash seq is a duplicate"
        );
        assert_eq!(t.applied(4, Instant::now()), None);
        assert_eq!(t.applied(3, Instant::now()), Some(4));
    }

    /// Park a continuation that holds a throttle slot, as a read holds its
    /// client permit; its outcome arrives on the returned channel.
    fn park(
        t: &AppliedPrefix,
        target: u64,
        throttle: &Arc<Throttle>,
    ) -> (bool, crossbeam::channel::Receiver<Result<Instant>>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let permit = throttle.acquire_owned(1).unwrap();
        let parked = t.after(
            target,
            Box::new(move |r| {
                let _ = tx.send(r);
                drop(permit);
            }),
        );
        (parked, rx)
    }

    #[test]
    fn parked_continuations_are_released_by_applied_failed_and_void() {
        let throttle = Arc::new(Throttle::new("test", 8));
        let t = AppliedPrefix::new(LONG);
        let (parked, now) = park(&t, 0, &throttle);
        assert!(!parked, "nothing ordered before: runs at once");
        assert!(matches!(now.try_recv(), Ok(Ok(_))));
        let (_, one) = park(&t, 1, &throttle);
        let (_, two) = park(&t, 2, &throttle);
        let (parked, four) = park(&t, 4, &throttle);
        assert!(parked);
        assert_eq!(throttle.in_use(), 3);
        t.applied(2, Instant::now());
        assert!(one.try_recv().is_err() && two.try_recv().is_err());
        t.applied(1, Instant::now());
        assert!(matches!(one.try_recv(), Ok(Ok(_))));
        assert!(matches!(two.try_recv(), Ok(Ok(_))));
        t.failed(3);
        assert!(four.try_recv().is_err(), "released with seq 4 outstanding");
        t.void(4..5);
        assert!(matches!(four.try_recv(), Ok(Ok(_))));
        assert_eq!(throttle.in_use(), 0);
        assert_eq!(t.timeouts.get(), 0);
    }

    #[test]
    fn expired_park_fails_closed_and_is_counted() {
        let throttle = Arc::new(Throttle::new("test", 8));
        let t = AppliedPrefix::new(SOON);
        let (_, r) = park(&t, 1, &throttle);
        t.expire(Instant::now());
        assert!(r.try_recv().is_err(), "expired before its deadline");
        t.expire(Instant::now() + SOON);
        assert!(matches!(r.try_recv(), Ok(Err(AfcError::Timeout(_)))));
        assert_eq!((t.timeouts.get(), throttle.in_use()), (1, 0));
        t.applied(1, Instant::now());
        assert!(r.try_recv().is_err(), "ran twice");
    }

    #[test]
    fn close_fails_parks_present_and_future() {
        let throttle = Arc::new(Throttle::new("test", 8));
        let t = AppliedPrefix::new(LONG);
        let (_, before) = park(&t, 1, &throttle);
        t.close();
        assert!(matches!(before.try_recv(), Ok(Err(AfcError::ShutDown(_)))));
        let (parked, after) = park(&t, 1, &throttle);
        assert!(!parked);
        assert!(matches!(after.try_recv(), Ok(Err(AfcError::ShutDown(_)))));
        assert_eq!((t.timeouts.get(), throttle.in_use()), (0, 0));
    }

    #[test]
    fn close_fails_waiters_without_counting_a_timeout() {
        let t = AppliedPrefix::new(LONG);
        t.close();
        assert!(matches!(t.wait(1), Err(AfcError::ShutDown(_))));
        assert_eq!(t.timeouts.get(), 0);
    }
}
