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

/// RAII permit; releases on drop.
pub struct Permit<'a> {
    throttle: &'a Throttle,
    count: u64,
}

/// RAII permit that owns its throttle, movable across threads (completion
/// callbacks hold it until the transaction finishes applying).
pub struct OwnedPermit {
    throttle: std::sync::Arc<Throttle>,
    count: u64,
}

impl Drop for OwnedPermit {
    fn drop(&mut self) {
        if self.count > 0 {
            self.throttle.release(self.count);
        }
    }
}

impl OwnedPermit {
    /// Release the units at `at` instead of now: they stay taken, and an
    /// acquirer that needs them waits until `at` (at once if it has
    /// passed).
    pub fn release_at(mut self, at: Instant) {
        let count = std::mem::take(&mut self.count);
        let mut st = self.throttle.state.lock();
        if at <= Instant::now() {
            st.in_use = st.in_use.saturating_sub(count);
        } else {
            st.due.push(Reverse((at, count)));
        }
        drop(st);
        self.throttle.cv.notify_all();
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
                },
            ),
            cv: TrackedCondvar::new(),
            waits: Default::default(),
            wait_us: Default::default(),
        }
    }

    /// Acquire `count` units, blocking while over the limit: until the
    /// earliest release instant when one is due, else until a holder
    /// releases.
    pub fn acquire(&self, count: u64) -> Result<Permit<'_>> {
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
                None => self.cv.wait(&mut st),
            }
        }
        if st.closed {
            return Err(AfcError::ShutDown(format!("throttle {}", self.name)));
        }
        if let Some(t0) = waited {
            self.wait_us.add(t0.elapsed().as_micros() as u64);
        }
        st.in_use += count;
        Ok(Permit {
            throttle: self,
            count,
        })
    }

    /// Acquire `count` units as an owned, thread-movable permit.
    pub fn acquire_owned(self: &std::sync::Arc<Self>, count: u64) -> Result<OwnedPermit> {
        let permit = self.acquire(count)?;
        std::mem::forget(permit); // ownership transfers to the OwnedPermit
        Ok(OwnedPermit {
            throttle: std::sync::Arc::clone(self),
            count,
        })
    }

    /// Try to acquire without blocking.
    pub fn try_acquire(&self, count: u64) -> Option<Permit<'_>> {
        let mut st = self.state.lock();
        st.reap(Instant::now());
        if st.closed || st.in_use + count > st.max {
            return None;
        }
        st.in_use += count;
        Some(Permit {
            throttle: self,
            count,
        })
    }

    fn release(&self, count: u64) {
        let mut st = self.state.lock();
        st.in_use = st.in_use.saturating_sub(count);
        drop(st);
        self.cv.notify_all();
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

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.throttle.release(self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_release_cycle() {
        let t = Throttle::new("test", 2);
        let a = t.acquire(1).unwrap();
        let b = t.acquire(1).unwrap();
        assert_eq!(t.in_use(), 2);
        assert!(t.try_acquire(1).is_none());
        drop(a);
        assert_eq!(t.in_use(), 1);
        assert!(t.try_acquire(1).is_some());
        drop(b);
    }

    #[test]
    fn blocking_acquire_waits_and_accounts() {
        let t = Arc::new(Throttle::new("test", 1));
        let held = t.acquire(1).unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            let _p = t2.acquire(1).unwrap();
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
        assert_eq!(t.in_use(), 1);
        assert!(t.try_acquire(1).is_none());
        let p = t.acquire(1).unwrap();
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
        let _held = t.acquire(1).unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.acquire(1).map(drop));
        std::thread::sleep(Duration::from_millis(10));
        t.set_max(2);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_request_rejected() {
        let t = Throttle::new("test", 4);
        assert!(t.acquire(5).is_err());
        assert!(t.acquire(4).is_ok());
    }

    #[test]
    fn close_fails_waiters_and_future() {
        let t = Arc::new(Throttle::new("test", 1));
        let held = t.acquire(1).unwrap();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.acquire(1).map(|_| ()));
        std::thread::sleep(Duration::from_millis(10));
        t.close();
        assert!(h.join().unwrap().is_err());
        drop(held);
        assert!(t.acquire(1).is_err());
        assert!(t.try_acquire(1).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_rejected() {
        Throttle::new("bad", 0);
    }
}
