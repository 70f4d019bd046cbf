//! Operation throttles (`filestore_queue_max_ops`,
//! `osd_client_message_cap`, ...).
//!
//! §3.2: "Most of the distributed filesystems have throttle logic in order
//! to support balanced performance or QoS... These parameters are set based
//! on HDD capacity", so on flash the defaults strangle the pipeline. A
//! [`Throttle`] is a counting semaphore that records how often and how long
//! acquirers block, so harnesses can show exactly where HDD-sized limits
//! bite.
//!
//! A permit may be released *at an instant* ([`OwnedPermit::release_at`]):
//! the filestore knows when a planned transaction completes without any
//! thread waiting for it, and its slot stays taken until then. An acquirer
//! that finds the throttle full waits for the earliest such instant — a
//! modeled device wait on its own thread, not a wake-up from whoever
//! finishes.

use afc_common::lockdep::{self, classes, TrackedCondvar, TrackedMutex};
use afc_common::metrics::{Counter, Metrics};
use afc_common::{wait_until, AfcError, Result, WaitClass};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
#[cfg(test)]
use std::time::Duration;
use std::time::Instant;

struct State {
    /// Units held, counting those whose release instant is still ahead.
    in_use: u64,
    max: u64,
    closed: bool,
    /// Releases due at an instant: `(when, units)`, earliest first.
    due: BinaryHeap<Reverse<(Instant, u64)>>,
    /// Acquirers asleep on the condvar; a release notifies nobody while
    /// this is zero.
    sleepers: usize,
}

impl State {
    /// Give back every unit whose release instant has passed.
    fn reap(&mut self, now: Instant) {
        while let Some(&Reverse((at, count))) = self.due.peek() {
            if at > now {
                break;
            }
            self.due.pop();
            self.in_use = self.in_use.saturating_sub(count);
        }
    }
}

/// A counting semaphore with wait accounting and a runtime-adjustable limit.
pub struct Throttle {
    name: &'static str,
    state: TrackedMutex<State>,
    cv: TrackedCondvar,
    pub(crate) waits: Counter,
    pub(crate) wait_us: Counter,
}

/// RAII permit that owns its throttle, movable across threads (completion
/// callbacks hold it until the transaction finishes applying). It may be
/// shared: the first [`Self::release_at`] gives the units back, and the
/// drop only what is still held.
pub struct OwnedPermit {
    throttle: Arc<Throttle>,
    /// Units still held.
    count: AtomicU64,
}

impl Drop for OwnedPermit {
    fn drop(&mut self) {
        let count = *self.count.get_mut();
        if count > 0 {
            self.throttle.release(count);
        }
    }
}

impl OwnedPermit {
    /// Release the units at `at` instead of now: they stay taken, and an
    /// acquirer that needs them waits until `at` (at once if it has
    /// passed). Only the first call releases anything.
    pub fn release_at(&self, at: Instant) {
        // ordering: Relaxed — one swap wins the units under any ordering;
        // the throttle's lock orders the release itself.
        let count = self.count.swap(0, Ordering::Relaxed);
        if count == 0 {
            return;
        }
        let mut st = self.throttle.state.lock();
        if at <= Instant::now() {
            st.in_use = st.in_use.saturating_sub(count);
        } else {
            st.due.push(Reverse((at, count)));
        }
        let wake = st.sleepers > 0;
        drop(st);
        if wake {
            self.throttle.cv.notify_all();
        }
    }
}

impl Throttle {
    /// Create a throttle admitting `max` concurrent units.
    pub fn new(name: &'static str, max: u64) -> Self {
        assert!(max > 0, "throttle limit must be positive");
        Throttle {
            name,
            state: TrackedMutex::new(
                &classes::THROTTLE,
                State {
                    in_use: 0,
                    max,
                    closed: false,
                    due: BinaryHeap::new(),
                    sleepers: 0,
                },
            ),
            cv: TrackedCondvar::new(),
            waits: Default::default(),
            wait_us: Default::default(),
        }
    }

    /// Acquire `count` units as a thread-movable permit, blocking while
    /// over the limit: until the earliest release instant when one is
    /// due, else until a holder releases.
    pub fn acquire_owned(self: &Arc<Self>, count: u64) -> Result<OwnedPermit> {
        // May park until another holder releases; callers must not hold
        // any no-block lock class across this.
        lockdep::assert_blockable("throttle acquire");
        let mut st = self.state.lock();
        if count > st.max {
            return Err(AfcError::InvalidArgument(format!(
                "throttle {}: request {count} exceeds limit {}",
                self.name, st.max
            )));
        }
        let mut waited: Option<Instant> = None;
        loop {
            st.reap(Instant::now());
            if st.in_use + count <= st.max {
                break;
            }
            if st.closed {
                return Err(AfcError::ShutDown(format!("throttle {}", self.name)));
            }
            if waited.is_none() {
                waited = Some(Instant::now());
                self.waits.inc();
            }
            match st.due.peek() {
                Some(&Reverse((at, _))) => {
                    drop(st);
                    wait_until(WaitClass::Ssd, at);
                    st = self.state.lock();
                }
                None => {
                    st.sleepers += 1;
                    self.cv.wait(&mut st);
                    st.sleepers -= 1;
                }
            }
        }
        if st.closed {
            return Err(AfcError::ShutDown(format!("throttle {}", self.name)));
        }
        if let Some(t0) = waited {
            self.wait_us.add(t0.elapsed().as_micros() as u64);
        }
        st.in_use += count;
        Ok(OwnedPermit {
            throttle: Arc::clone(self),
            count: AtomicU64::new(count),
        })
    }

    fn release(&self, count: u64) {
        let mut st = self.state.lock();
        st.in_use = st.in_use.saturating_sub(count);
        let wake = st.sleepers > 0;
        drop(st);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Change the limit at runtime (system tuning), waking waiters.
    pub fn set_max(&self, max: u64) {
        assert!(max > 0, "throttle limit must be positive");
        self.state.lock().max = max;
        self.cv.notify_all();
    }

    /// Close: all current and future acquirers fail with `ShutDown`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }

    /// Units currently held (a unit released at an instant still ahead
    /// counts).
    pub fn in_use(&self) -> u64 {
        let mut st = self.state.lock();
        st.reap(Instant::now());
        st.in_use
    }

    /// Current limit.
    pub fn max(&self) -> u64 {
        self.state.lock().max
    }

    /// Register the wait accounting under `<prefix>.waits` /
    /// `<prefix>.wait_us`.
    pub fn register_into(&self, m: &Metrics, prefix: &str) {
        m.register_counter(format!("{prefix}.waits"), &self.waits);
        m.register_counter(format!("{prefix}.wait_us"), &self.wait_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wait until `t` has counted `n` acquirers that found it full; fail
    /// after 10 s.
    fn wait_for_waits(t: &Throttle, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while t.waits.get() < n {
            assert!(Instant::now() < deadline, "no acquirer blocked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn acquire_release_cycle() {
        let t = Arc::new(Throttle::new("test", 2));
        let a = t.acquire_owned(1).unwrap();
        let b = t.acquire_owned(1).unwrap();
        assert_eq!((t.in_use(), t.waits.get()), (2, 0));
        drop(a);
        assert_eq!(t.in_use(), 1);
        let c = t.acquire_owned(1).unwrap();
        assert_eq!(t.waits.get(), 0, "a dropped permit's unit is free at once");
        // At the limit, the next acquirer waits for a release.
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.acquire_owned(1).map(drop));
        wait_for_waits(&t, 1);
        assert_eq!(t.in_use(), 2);
        drop(b);
        h.join().unwrap().unwrap();
        drop(c);
        assert_eq!(t.in_use(), 0);
    }

    #[test]
    fn blocking_acquire_waits_and_accounts() {
        let t = Arc::new(Throttle::new("test", 1));
        let held = t.acquire_owned(1).unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            let _p = t2.acquire_owned(1).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        h.join().unwrap();
        assert_eq!(t.waits.get(), 1);
        let wait_us = t.wait_us.get();
        assert!(wait_us >= 15_000, "wait_us={wait_us}");
    }

    /// A unit released at an instant stays taken until then, and the
    /// acquirer that needs it waits it out, counted once — with no other
    /// thread to wake it.
    #[test]
    fn release_at_an_instant_is_waited_out() {
        let t = Arc::new(Throttle::new("test", 1));
        let held = t.acquire_owned(1).unwrap();
        let at = Instant::now() + Duration::from_millis(20);
        held.release_at(at);
        // Neither a second release nor the drop gives the units back again.
        held.release_at(Instant::now());
        drop(held);
        assert_eq!(t.in_use(), 1);
        let p = t.acquire_owned(1).unwrap();
        assert!(Instant::now() >= at, "acquired before the release instant");
        assert_eq!(t.waits.get(), 1);
        drop(p);
        // An instant already past releases at once.
        t.acquire_owned(1).unwrap().release_at(Instant::now());
        assert_eq!(t.in_use(), 0);
    }

    #[test]
    fn set_max_unblocks_waiters() {
        let t = Arc::new(Throttle::new("test", 1));
        let _held = t.acquire_owned(1).unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.acquire_owned(1).map(drop));
        wait_for_waits(&t, 1);
        t.set_max(2);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_request_rejected() {
        let t = Arc::new(Throttle::new("test", 4));
        assert!(matches!(
            t.acquire_owned(5),
            Err(AfcError::InvalidArgument(_))
        ));
        assert!(t.acquire_owned(4).is_ok());
    }

    #[test]
    fn close_fails_waiters_and_future() {
        let t = Arc::new(Throttle::new("test", 1));
        let held = t.acquire_owned(1).unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.acquire_owned(1).map(drop));
        wait_for_waits(&t, 1);
        t.close();
        assert!(matches!(h.join().unwrap(), Err(AfcError::ShutDown(_))));
        drop(held);
        assert!(matches!(t.acquire_owned(1), Err(AfcError::ShutDown(_))));
    }

    /// Eight threads race blocking acquires against releases — now and at
    /// an instant — for 10 000 rounds on a throttle of two. A release that
    /// skipped a sleeper's notify would leave it asleep for good; the run
    /// must finish well inside its deadline.
    #[test]
    fn no_release_is_lost_on_a_sleeper() {
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 10_000;
        let t = Arc::new(Throttle::new("test", 2));
        let (tx, rx) = crossbeam::channel::bounded(1);
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || {
            std::thread::scope(|s| {
                for n in 0..THREADS {
                    let t = &t2;
                    s.spawn(move || {
                        for i in 0..ROUNDS / THREADS {
                            let p = t.acquire_owned(1).unwrap();
                            if (n + i) % 2 == 0 {
                                p.release_at(Instant::now());
                            }
                        }
                    });
                }
            });
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("an acquirer slept through a release");
        assert_eq!(t.in_use(), 0);
        assert_eq!(t.state.lock().sleepers, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_rejected() {
        Throttle::new("bad", 0);
    }
}
