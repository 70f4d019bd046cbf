//! Runtime lock-order checking (lockdep) for the OSD hot path.
//!
//! Deadlocks in the write pipeline are order bugs: thread 1 takes the PG
//! lock then the journal ring, thread 2 takes them the other way around,
//! and under load they park forever. This module makes the intended order
//! executable:
//!
//! - Every shared lock belongs to a static [`LockClass`] with a **rank**.
//!   The whole hierarchy is declared once, as data, in [`classes`] /
//!   [`DECLARED_ORDER`].
//! - [`TrackedMutex`] / [`TrackedRwLock`] / [`TrackedCondvar`] wrap the
//!   parking_lot primitives. Under `debug_assertions` every acquisition is
//!   checked against the acquiring thread's held set: the rank must
//!   strictly increase. Since every class has a rank, an inversion between
//!   two threads is caught the first time either thread nests against the
//!   declared order, before the two ever meet.
//! - Classes marked `no_block_while_held` must not be held across a
//!   blocking section (condvar wait on a *different* lock, throttle wait,
//!   journal-full wait). Blocking entry points call [`assert_blockable`].
//!
//! In release builds every check compiles away: the tracked types are
//! transparent newtypes over parking_lot and the class argument is dropped
//! on the floor.
//!
//! Rank semantics: ranks order *classes*, not instances. Acquiring a class
//! while holding a class of equal or higher rank panics. Waiting on a
//! condvar keeps the associated mutex in the held set (the waiter still
//! owns the ordering position), and the mutex a condvar releases during
//! its wait never counts as "held across a blocking section".

use std::fmt;

/// A class of locks sharing one position in the global order.
///
/// Declare one `static` per lock *role* (not per instance): every `Pg`'s
/// state mutex shares [`classes::PG_STATE`].
pub struct LockClass {
    /// Label used in panics (`subsystem.lock`).
    pub name: &'static str,
    /// Position in the declared hierarchy; strictly increasing along any
    /// nested acquisition chain.
    pub rank: u32,
    /// If true, the lock must never be held when the thread enters a
    /// blocking section ([`assert_blockable`]).
    pub no_block_while_held: bool,
}

pub mod classes {
    //! The declared lock hierarchy — **the** one place ranks live.
    //!
    //! Order (must strictly increase along any nested acquisition):
    //! op queue → QoS scheduler → OSD map → `Pg::state` → OSD PG table
    //! → `Pg::pending` → OSD op tables
    //! (rep_waits / push_waits / rep_seen / applied prefix / channel
    //! handles / ack lanes) → journal → filestore throttle → filestore
    //! lanes.
    //!
    //! `PG_STATE` deliberately allows blocking while held: the write path
    //! submits to the journal (which can wait for ring space) and, without
    //! the pending queue, a read waits for the applied prefix under it.
    //! Both waits end on work that never takes a PG lock (journal commit
    //! callbacks, Community's completion thread, whoever plans a filestore
    //! apply). The queue/pending locks are pure FIFO guards and must never
    //! be held across a blocking section.

    use super::LockClass;

    /// `OpQueue::q` — the OSD-wide ready queue of PGs with pending work.
    pub static OP_QUEUE: LockClass = LockClass {
        name: "osd.op_queue",
        rank: 100,
        no_block_while_held: true,
    };
    /// `QosScheduler::state` — per-volume QoS queues and token buckets.
    /// Acquired by op workers *while holding* `OP_QUEUE` (so it must rank
    /// just above the queue) and alone by client-op enqueuers. Pure
    /// bookkeeping: never held across journal submits or condvar waits.
    pub static OSD_QOS: LockClass = LockClass {
        name: "osd.qos",
        rank: 102,
        no_block_while_held: true,
    };
    /// `Monitor::fail` — failure-report accounting (reporters, down_since).
    /// Ranks *below* the map: `report_down` publishes a new map while
    /// holding it.
    pub static MON_FAIL: LockClass = LockClass {
        name: "mon.fail",
        rank: 105,
        no_block_while_held: true,
    };
    /// `OsdInner::map` — current OSD map (RwLock).
    pub static OSD_MAP: LockClass = LockClass {
        name: "osd.map",
        rank: 110,
        no_block_while_held: true,
    };
    /// `Pg::state` — *the* PG lock. Blocking while held is allowed (journal
    /// submit; with `pending_queue` off, a read's applied-prefix wait).
    pub static PG_STATE: LockClass = LockClass {
        name: "pg.state",
        rank: 200,
        no_block_while_held: false,
    };
    /// `OsdInner::pgs` — PG id → `Pg` table (RwLock). Ranks *above* the
    /// PG lock: a primary's thread that sends a fast-ack `Replicate` under
    /// its PG lock looks the replica's PG up as it hands it the sub-op
    /// (`OsdDispatcher::take`). Every holder clones the `Arc` and drops
    /// the table before it takes anything else.
    pub static OSD_PG_MAP: LockClass = LockClass {
        name: "osd.pg_map",
        rank: 250,
        no_block_while_held: true,
    };
    /// `Pg::pending` — the pending-queue FIFO next to the PG lock.
    pub static PG_PENDING: LockClass = LockClass {
        name: "pg.pending",
        rank: 300,
        no_block_while_held: true,
    };
    /// `OsdInner::rep_waits` — rep_id → in-flight write table.
    pub static REP_WAITS: LockClass = LockClass {
        name: "osd.rep_waits",
        rank: 400,
        no_block_while_held: true,
    };
    /// `OsdInner::push_waits` — push_id → in-flight recovery-push table.
    /// Acquired under `PG_STATE` by the recovery pump, mirroring
    /// `REP_WAITS` in the write path.
    pub static PUSH_WAITS: LockClass = LockClass {
        name: "osd.push_waits",
        rank: 402,
        no_block_while_held: true,
    };
    /// `OsdInner::rep_seen` — replica-side rep_id dedup window.
    pub static REP_SEEN: LockClass = LockClass {
        name: "osd.rep_seen",
        rank: 405,
        no_block_while_held: true,
    };
    /// `AppliedPrefix::marks` — which journal sequences the filestore has
    /// applied: trim watermark, parked reads and push waits (on its own
    /// cv). A released read runs after the guard drops.
    pub static APPLIED: LockClass = LockClass {
        name: "osd.applied",
        rank: 430,
        no_block_while_held: true,
    };
    /// `WritePath::completion_tx` — Community's completion thread's channel.
    pub static OSD_CHANNEL_TX: LockClass = LockClass {
        name: "osd.channel_tx",
        rank: 440,
        no_block_while_held: true,
    };
    /// `OrderedAcker::lanes` — ordered-ack lanes.
    pub static ACK_LANES: LockClass = LockClass {
        name: "osd.ack_lanes",
        rank: 450,
        no_block_while_held: true,
    };
    /// `OsdInner::hb_peers` — heartbeat last-seen timestamps (leaf; taken
    /// alone by the heartbeat ticker and the ping/pong handlers).
    pub static HB_PEERS: LockClass = LockClass {
        name: "osd.hb_peers",
        rank: 455,
        no_block_while_held: true,
    };
    /// `Journal` ring state (waits on its own space condvar). Also
    /// serializes group-commit records: the `committing` flag guarded
    /// here makes one submitter at a time the write group's leader, which
    /// keeps commit callbacks in global sequence order.
    pub static JOURNAL_RING: LockClass = LockClass {
        name: "journal.ring",
        rank: 600,
        no_block_while_held: false,
    };
    /// `Throttle::state` — counting-semaphore state (waits on own cv).
    pub static THROTTLE: LockClass = LockClass {
        name: "filestore.throttle",
        rank: 700,
        no_block_while_held: false,
    };
    /// `FileStore` apply lanes — each lane's free-at instant and FIFO, and
    /// the backstop's sleep (on its own cv). Pure bookkeeping: a
    /// transaction is planned, and its callback run, after the guard
    /// drops.
    pub static FS_LANES: LockClass = LockClass {
        name: "filestore.lanes",
        rank: 710,
        no_block_while_held: true,
    };
    /// `Osd::workers` — join handles; shutdown path only, joins while held.
    pub static OSD_WORKERS: LockClass = LockClass {
        name: "osd.workers",
        rank: 900,
        no_block_while_held: false,
    };
    /// `FaultRegistry::state` — leaf lock consulted at injection sites,
    /// potentially while holding any hot-path lock.
    pub static FAULTS: LockClass = LockClass {
        name: "common.faults",
        rank: 950,
        no_block_while_held: true,
    };
}

/// The declared hierarchy as data, lowest rank first. Tests assert it is
/// strictly ordered; DESIGN.md renders from the same order.
pub static DECLARED_ORDER: &[&LockClass] = &[
    &classes::OP_QUEUE,
    &classes::OSD_QOS,
    &classes::MON_FAIL,
    &classes::OSD_MAP,
    &classes::PG_STATE,
    &classes::OSD_PG_MAP,
    &classes::PG_PENDING,
    &classes::REP_WAITS,
    &classes::PUSH_WAITS,
    &classes::REP_SEEN,
    &classes::APPLIED,
    &classes::OSD_CHANNEL_TX,
    &classes::ACK_LANES,
    &classes::HB_PEERS,
    &classes::JOURNAL_RING,
    &classes::THROTTLE,
    &classes::FS_LANES,
    &classes::OSD_WORKERS,
    &classes::FAULTS,
];

impl fmt::Debug for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LockClass({} rank={})", self.name, self.rank)
    }
}

// ------------------------------------------------------------------ //
// Debug-build runtime
// ------------------------------------------------------------------ //

#[cfg(debug_assertions)]
mod rt {
    use super::LockClass;
    use std::cell::RefCell;

    struct Held {
        class: &'static LockClass,
        token: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

    pub fn on_acquire(class: &'static LockClass) -> u64 {
        HELD.with(|h| {
            for hl in h.borrow().iter() {
                if std::ptr::eq(hl.class, class) {
                    panic!(
                        "lockdep: recursive acquisition of lock class '{}' \
                         (already held by this thread)",
                        class.name
                    );
                }
                if hl.class.rank >= class.rank {
                    panic!(
                        "lockdep: hierarchy violation: acquiring '{}' (rank {}) while \
                         holding '{}' (rank {}); see afc_common::lockdep::DECLARED_ORDER",
                        class.name, class.rank, hl.class.name, hl.class.rank
                    );
                }
            }
            let token = NEXT_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            h.borrow_mut().push(Held { class, token });
            token
        })
    }

    pub fn on_release(token: u64) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            // Usually LIFO, but guards may be dropped out of order.
            if let Some(pos) = held.iter().rposition(|hl| hl.token == token) {
                held.remove(pos);
            }
        });
    }

    /// Panic if any held class forbids blocking sections. `exempt` names a
    /// mutex a condvar releases for the duration of the wait.
    pub fn assert_blockable(what: &str, exempt: Option<u64>) {
        HELD.with(|h| {
            for hl in h.borrow().iter() {
                if Some(hl.token) == exempt {
                    continue;
                }
                if hl.class.no_block_while_held {
                    panic!(
                        "lockdep: blocking section '{what}' entered while \
                         holding '{}' (declared no_block_while_held)",
                        hl.class.name
                    );
                }
            }
        });
    }

    pub fn held_names() -> Vec<&'static str> {
        HELD.with(|h| h.borrow().iter().map(|hl| hl.class.name).collect())
    }
}

/// Assert the current thread may enter a blocking section (journal-full
/// wait, throttle wait, blocking channel wait). No-op in release builds.
#[inline]
pub fn assert_blockable(what: &str) {
    #[cfg(debug_assertions)]
    rt::assert_blockable(what, None);
    #[cfg(not(debug_assertions))]
    let _ = what;
}

/// Names of the lock classes the current thread holds (debug builds;
/// always empty in release). Test/diagnostic helper.
#[inline]
pub fn held_lock_names() -> Vec<&'static str> {
    #[cfg(debug_assertions)]
    {
        rt::held_names()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

// ------------------------------------------------------------------ //
// Tracked primitives
// ------------------------------------------------------------------ //

/// A [`parking_lot::Mutex`] that participates in lockdep checking.
pub struct TrackedMutex<T> {
    #[cfg(debug_assertions)]
    class: &'static LockClass,
    inner: parking_lot::Mutex<T>,
}

/// RAII guard for [`TrackedMutex`]; releases (and un-records) on drop.
pub struct TrackedMutexGuard<'a, T> {
    inner: parking_lot::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    token: u64,
}

impl<T> TrackedMutex<T> {
    /// Create a mutex belonging to `class`.
    #[inline]
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = class;
        TrackedMutex {
            #[cfg(debug_assertions)]
            class,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Acquire, enforcing the declared order in debug builds.
    #[inline]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = rt::on_acquire(self.class);
        TrackedMutexGuard {
            inner: self.inner.lock(),
            #[cfg(debug_assertions)]
            token,
        }
    }

    /// Non-blocking acquire. Order checks still apply on success: a
    /// try-lock taken out of order is the same latent deadlock.
    #[inline]
    pub fn try_lock(&self) -> Option<TrackedMutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        #[cfg(debug_assertions)]
        let token = rt::on_acquire(self.class);
        Some(TrackedMutexGuard {
            inner,
            #[cfg(debug_assertions)]
            token,
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for TrackedMutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        rt::on_release(self.token);
    }
}

/// Condition variable for [`TrackedMutex`]. Waits release the guarded
/// mutex, so that mutex is exempt from the blocking-section check; every
/// *other* held lock is still checked.
pub struct TrackedCondvar {
    inner: parking_lot::Condvar,
}

impl TrackedCondvar {
    /// Create a condition variable.
    #[inline]
    pub const fn new() -> Self {
        TrackedCondvar {
            inner: parking_lot::Condvar::new(),
        }
    }

    /// Block until notified.
    #[inline]
    pub fn wait<T>(&self, guard: &mut TrackedMutexGuard<'_, T>) {
        #[cfg(debug_assertions)]
        rt::assert_blockable("condvar wait", Some(guard.token));
        self.inner.wait(&mut guard.inner);
    }

    /// Block until notified or `deadline` passes.
    #[inline]
    pub fn wait_until<T>(
        &self,
        guard: &mut TrackedMutexGuard<'_, T>,
        deadline: std::time::Instant,
    ) -> parking_lot::WaitTimeoutResult {
        #[cfg(debug_assertions)]
        rt::assert_blockable("condvar wait_until", Some(guard.token));
        self.inner.wait_until(&mut guard.inner, deadline)
    }

    /// Block until notified or `dur` elapses; true result ⇒ timed out.
    #[inline]
    pub fn wait_for<T>(
        &self,
        guard: &mut TrackedMutexGuard<'_, T>,
        dur: std::time::Duration,
    ) -> parking_lot::WaitTimeoutResult {
        #[cfg(debug_assertions)]
        rt::assert_blockable("condvar wait_for", Some(guard.token));
        self.inner.wait_for(&mut guard.inner, dur)
    }

    /// Wake one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for TrackedCondvar {
    fn default() -> Self {
        TrackedCondvar::new()
    }
}

impl fmt::Debug for TrackedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TrackedCondvar")
    }
}

/// A [`parking_lot::RwLock`] that participates in lockdep checking. Both
/// read and write acquisitions occupy the class's ordering position.
pub struct TrackedRwLock<T> {
    #[cfg(debug_assertions)]
    class: &'static LockClass,
    inner: parking_lot::RwLock<T>,
}

/// Shared-access guard for [`TrackedRwLock`].
pub struct TrackedRwLockReadGuard<'a, T> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    token: u64,
}

/// Exclusive-access guard for [`TrackedRwLock`].
pub struct TrackedRwLockWriteGuard<'a, T> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    token: u64,
}

impl<T> TrackedRwLock<T> {
    /// Create a reader-writer lock belonging to `class`.
    #[inline]
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = class;
        TrackedRwLock {
            #[cfg(debug_assertions)]
            class,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Acquire shared access.
    #[inline]
    pub fn read(&self) -> TrackedRwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = rt::on_acquire(self.class);
        TrackedRwLockReadGuard {
            inner: self.inner.read(),
            #[cfg(debug_assertions)]
            token,
        }
    }

    /// Acquire exclusive access.
    #[inline]
    pub fn write(&self) -> TrackedRwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = rt::on_acquire(self.class);
        TrackedRwLockWriteGuard {
            inner: self.inner.write(),
            #[cfg(debug_assertions)]
            token,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

impl<T> std::ops::Deref for TrackedRwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for TrackedRwLockReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        rt::on_release(self.token);
    }
}

impl<T> std::ops::Deref for TrackedRwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedRwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for TrackedRwLockWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        rt::on_release(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_order_is_strictly_ranked_and_uniquely_named() {
        for w in DECLARED_ORDER.windows(2) {
            assert!(
                w[0].rank < w[1].rank,
                "'{}' (rank {}) must rank strictly below '{}' (rank {})",
                w[0].name,
                w[0].rank,
                w[1].name,
                w[1].rank
            );
        }
        let mut names: Vec<_> = DECLARED_ORDER.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DECLARED_ORDER.len(), "duplicate class names");
    }

    #[test]
    fn every_class_is_in_declared_order() {
        // A class left out of the listing escapes the rank check above and
        // the hierarchy DESIGN.md renders; lockdep itself cannot tell.
        let src = include_str!("lockdep.rs");
        let start = src.find("pub mod classes").unwrap();
        let end = src.find("pub static DECLARED_ORDER").unwrap();
        let mut declared: Vec<&str> = src[start..end]
            .split("name: \"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        let mut listed: Vec<&str> = DECLARED_ORDER.iter().map(|c| c.name).collect();
        declared.sort_unstable();
        listed.sort_unstable();
        assert_eq!(
            declared, listed,
            "every lock class belongs in DECLARED_ORDER"
        );
    }

    #[test]
    fn in_order_nesting_is_allowed() {
        let outer = TrackedMutex::new(&classes::PG_STATE, 1u32);
        let inner = TrackedMutex::new(&classes::JOURNAL_RING, 2u32);
        let a = outer.lock();
        let b = inner.lock();
        assert_eq!(*a + *b, 3);
        assert_eq!(held_lock_names(), vec!["pg.state", "journal.ring"]);
        drop(b);
        drop(a);
        assert!(held_lock_names().is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "lockdep compiled out in release")]
    fn rank_inversion_panics() {
        // One thread nests in the declared order; another nests the other
        // way round. The rank check needs no memory of the first thread:
        // the inversion panics the first time it happens, before the two
        // could ever deadlock.
        let low = std::sync::Arc::new(TrackedMutex::new(&classes::OP_QUEUE, ()));
        let high = std::sync::Arc::new(TrackedMutex::new(&classes::THROTTLE, ()));
        {
            let _l = low.lock();
            let _h = high.lock();
        }
        let err = std::thread::spawn(move || {
            let _h = high.lock();
            let _l = low.lock(); // throttle(700) held, op_queue(100) wanted
        })
        .join();
        let msg = *err.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("hierarchy violation"), "{msg}");
        assert!(
            msg.contains("osd.op_queue") && msg.contains("filestore.throttle"),
            "{msg}"
        );
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "lockdep compiled out in release")]
    fn recursive_same_class_panics() {
        let m1 = TrackedMutex::new(&classes::REP_WAITS, ());
        let m2 = TrackedMutex::new(&classes::REP_WAITS, ());
        let err = std::thread::scope(|s| {
            s.spawn(|| {
                let _a = m1.lock();
                let _b = m2.lock(); // distinct instance, same class
            })
            .join()
        });
        let msg = *err.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("recursive acquisition"), "{msg}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "lockdep compiled out in release")]
    fn blocking_while_holding_noblock_class_panics() {
        let q = TrackedMutex::new(&classes::PG_PENDING, ());
        let err = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = q.lock();
                assert_blockable("journal submit");
            })
            .join()
        });
        let msg = *err.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("blocking section"), "{msg}");
        assert!(msg.contains("pg.pending"), "{msg}");
    }

    #[test]
    fn blocking_while_holding_pg_state_is_allowed() {
        // The write path journals under the PG lock today; lockdep must
        // not flag it.
        let st = TrackedMutex::new(&classes::PG_STATE, ());
        let _g = st.lock();
        assert_blockable("journal submit under pg lock");
    }

    #[test]
    fn condvar_wait_exempts_own_mutex() {
        let m = std::sync::Arc::new(TrackedMutex::new(&classes::OP_QUEUE, false));
        let cv = std::sync::Arc::new(TrackedCondvar::new());
        let (m2, cv2) = (std::sync::Arc::clone(&m), std::sync::Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                // OP_QUEUE is no_block, but the wait releases it: allowed.
                cv2.wait(&mut g);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        *m.lock() = true;
        cv.notify_all();
        waiter.join().unwrap();
    }

    #[test]
    fn try_lock_checks_and_releases() {
        let m = TrackedMutex::new(&classes::REP_WAITS, 7u32);
        {
            let g = m.try_lock().expect("uncontended");
            assert_eq!(*g, 7);
            assert!(m.try_lock().is_none(), "second try_lock must fail");
        }
        assert!(m.try_lock().is_some(), "released after guard drop");
        assert!(held_lock_names().is_empty());
    }

    #[test]
    fn rwlock_participates_in_ordering() {
        let maps = TrackedRwLock::new(&classes::OSD_PG_MAP, 5u32);
        {
            let r = maps.read();
            assert_eq!(*r, 5);
            assert_eq!(held_lock_names(), vec!["osd.pg_map"]);
        }
        {
            let mut w = maps.write();
            *w = 6;
        }
        assert_eq!(*maps.read(), 6);
        assert!(held_lock_names().is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "lockdep compiled out in release")]
    fn out_of_order_guard_drop_keeps_held_set_consistent() {
        let a = TrackedMutex::new(&classes::PG_STATE, ());
        let b = TrackedMutex::new(&classes::JOURNAL_RING, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // drop outer first
        assert_eq!(held_lock_names(), vec!["journal.ring"]);
        drop(gb);
        assert!(held_lock_names().is_empty());
    }
}
