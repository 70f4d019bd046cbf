//! Placement groups: the unit of ordering and locking.
//!
//! Every request, completion and ack for a PG serializes on its **PG lock**.
//! The paper's first optimization (§3.1) is the per-PG **pending queue**:
//! ops are appended to a FIFO next to the lock, and
//!
//! - in the **community** path a worker *blocks* on the PG lock before
//!   draining ("it has to be blocked since the necessary PG lock is already
//!   held by previous request, which in turn blocks the whole process");
//! - in the **pending-queue** path a worker *try-locks*: on failure the op
//!   stays queued and the current lock holder drains it, so the worker
//!   immediately moves on to other PGs' work.
//!
//! Both paths drain the same FIFO, so per-PG ordering — including
//! write-after-write and read-after-write — is identical, which is the
//! invariant the paper insists on preserving.
//!
//! **One door.** The PG lock is taken only by [`Pg::drain`] and
//! [`Pg::with_state`], and both end in the same loop: run the FIFO,
//! release, look again. Every holder drains on release, so work a
//! non-blocking drain left "for the holder" always runs.
//!
//! **One PG lock per thread.** A thread never holds two: work it submits
//! without blocking for another PG under a held lock ([`Pg::submit`], a
//! fast-ack sub-op a primary hands its replica) is drained by the same
//! thread right after it releases its last PG lock.

use super::ack::ReplyOrder;
use crate::messages::ClientReply;
use afc_common::lockdep::{classes, TrackedMutex, TrackedMutexGuard};
use afc_common::metrics::Counter;
use afc_common::{Epoch, OsdId, PgId};
use afc_messenger::Addr;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Instant;

/// Health of a PG as seen by its acting primary.
///
/// Precedence when several conditions hold: `Peering` (map changed, the
/// authoritative log is being agreed — client I/O is rejected with
/// `WrongEpoch`) > `Recovering` (pushes in flight to stale-but-up peers;
/// I/O continues) > `Degraded` (a placed peer is down; I/O continues at
/// reduced redundancy while its missed ops accumulate) > `Active`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PgHealth {
    /// All placed replicas up to date.
    #[default]
    Active,
    /// Serving I/O with a down replica; missed ops are being journaled.
    Degraded,
    /// Serving I/O while pushing missed/backfill objects to peers.
    Recovering,
    /// Map changed; agreeing on the authoritative log. I/O rejected.
    Peering,
}

/// One in-flight peering round (GetInfo fan-out), tagged by the map epoch
/// that started it so stale replies are discarded.
#[derive(Debug)]
pub struct PeeringRound {
    /// Epoch this round peers for.
    pub epoch: Epoch,
    /// Peers that have not answered yet.
    pub awaiting: BTreeSet<OsdId>,
    /// `last_update` reported by each peer so far.
    pub infos: BTreeMap<OsdId, u64>,
}

/// Mutable PG state guarded by the PG lock.
#[derive(Debug, Default)]
pub struct PgState {
    /// Next PG-log sequence to assign.
    pub next_pg_seq: u64,
    /// Journal sequence of the last mutation this PG submitted (primary
    /// or replica); a read ordered here waits for the applied prefix to
    /// reach it.
    pub last_jseq: u64,
    /// PG info version (bumped per mutation).
    pub info_version: u64,
    /// Current health (primary's view; replicas stay `Active`).
    pub health: PgHealth,
    /// In-flight peering round, if any.
    pub peering: Option<PeeringRound>,
    /// Acting set agreed by the last completed peering round (used to
    /// skip re-peering when an epoch bump did not move this PG).
    pub acting: Vec<OsdId>,
    /// Objects each absent/stale peer is missing (the degraded-write
    /// journal: written while the peer was not in the acting set, or
    /// discovered stale during peering).
    pub peer_missing: BTreeMap<OsdId, BTreeSet<String>>,
    /// Pushes in flight: `(peer, object) → generation`. The write path
    /// bumps the generation when it supersedes an in-flight push with an
    /// inline one, so the stale push is dropped instead of sent.
    pub recovering: BTreeMap<(OsdId, String), u64>,
    /// Generation counter for `recovering` entries.
    pub push_gen: u64,
    /// Peers needing full backfill (no per-object missing log — e.g. a
    /// CRUSH replacement): the pump enumerates local objects into
    /// `peer_missing` on its next pass.
    pub backfill: BTreeSet<OsdId>,
    /// Deferred request to install a `pg_temp` override (applied by the
    /// heartbeat ticker — never while holding the PG lock).
    pub want_pg_temp: Option<Vec<OsdId>>,
    /// Deferred request to clear this PG's `pg_temp` override.
    pub want_clear_temp: bool,
    /// Primary: `pg_seq` of the last `Replicate` sent each replica.
    pub rep_sent: BTreeMap<Addr, u64>,
    /// Replica: the primary it takes sub-ops from and the last taken.
    pub rep_taken: Option<(Addr, u64)>,
    /// Primary: reply slots handed out ([`ReplyOrder`]).
    pub reply_slots: u64,
}

impl PgState {
    /// Objects still owed to `peer` (missing or push in flight).
    pub fn owes_peer(&self, peer: OsdId) -> bool {
        self.peer_missing.get(&peer).is_some_and(|s| !s.is_empty())
            || self.recovering.keys().any(|(p, _)| *p == peer)
    }
}

/// Work executed under the PG lock.
pub type PgWork = Box<dyn FnOnce(&mut PgState) + Send>;

thread_local! {
    /// PG locks this thread holds ([`Held`]).
    static HELD: Cell<usize> = const { Cell::new(0) };
    /// PGs whose FIFO this thread drains once it holds no PG lock.
    static OWED: RefCell<VecDeque<Arc<Pg>>> = const { RefCell::new(VecDeque::new()) };
}

/// A held PG lock, counted in this thread's [`HELD`] (see [`Pg::held`]).
struct Held<'a>(TrackedMutexGuard<'a, PgState>);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        HELD.with(|h| h.set(h.get() - 1));
    }
}

impl Deref for Held<'_> {
    type Target = PgState;
    fn deref(&self) -> &PgState {
        &self.0
    }
}

impl DerefMut for Held<'_> {
    fn deref_mut(&mut self) -> &mut PgState {
        &mut self.0
    }
}

/// Drain the FIFOs this thread owes (a non-blocking [`Pg::submit`]), once
/// it holds no PG lock.
fn drain_owed() {
    if HELD.with(Cell::get) > 0 {
        return;
    }
    while let Some(pg) = OWED.with(|owed| owed.borrow_mut().pop_front()) {
        pg.drain(false);
    }
}

/// What PGs count: an OSD shares one set across all its PGs
/// (`osdN.op.pg_*`), a PG made with [`Pg::new`] has its own.
#[derive(Clone, Default)]
pub struct PgCounters {
    /// PG-lock acquisitions, try-locks included.
    pub locks: Counter,
    /// Contended acquisitions.
    pub lock_waits: Counter,
    /// Total wait of the contended acquisitions, µs.
    pub lock_wait_us: Counter,
    /// FIFO items run: one pass through the PG queue each.
    pub passes: Counter,
}

/// A placement group: lock + state + pending FIFO + reply order + its
/// counters.
pub struct Pg {
    id: PgId,
    state: TrackedMutex<PgState>,
    pending: TrackedMutex<VecDeque<PgWork>>,
    /// Not under the PG lock: replies are sent by journal leaders and
    /// `RepAck` takers, sometimes under another PG's lock.
    pub(super) replies: TrackedMutex<ReplyOrder<(Addr, ClientReply)>>,
    counters: PgCounters,
}

impl Pg {
    /// Create a PG that counts into its own counters.
    pub fn new(id: PgId) -> Arc<Self> {
        Self::with_counters(id, PgCounters::default())
    }

    /// Create a PG that counts into the caller's counters.
    pub fn with_counters(id: PgId, counters: PgCounters) -> Arc<Self> {
        Arc::new(Pg {
            id,
            state: TrackedMutex::new(&classes::PG_STATE, PgState::default()),
            pending: TrackedMutex::new(&classes::PG_PENDING, VecDeque::new()),
            replies: TrackedMutex::new(&classes::PG_REPLIES, ReplyOrder::default()),
            counters,
        })
    }

    /// The PG id.
    pub fn id(&self) -> PgId {
        self.id
    }

    /// Append work to the pending FIFO without draining. Dispatch threads
    /// use this so arrival order is fixed before op workers race to drain.
    pub fn queue(&self, work: PgWork) {
        self.pending.lock().push_back(work);
    }

    /// Queue `work` and drain the FIFO.
    ///
    /// `blocking = true` is the community path: wait for the PG lock (the
    /// wait is accounted). `blocking = false` is the pending-queue path:
    /// drain without blocking once this thread holds no PG lock — at once
    /// when it holds none, else right after it releases its last one — and
    /// if another thread holds the lock, leave the work for the holder.
    /// Work queued under a held PG lock keeps the order that lock gave it,
    /// and the thread never nests a second PG lock in the first or waits
    /// for one.
    pub fn submit(self: &Arc<Self>, work: PgWork, blocking: bool) {
        self.queue(work);
        if blocking || HELD.with(Cell::get) == 0 {
            return self.drain(blocking);
        }
        OWED.with(|owed| {
            let mut owed = owed.borrow_mut();
            if !owed.iter().any(|pg| Arc::ptr_eq(pg, self)) {
                owed.push_back(Arc::clone(self));
            }
        });
    }

    /// Drain the pending FIFO under the PG lock (see [`Pg::submit`]).
    pub fn drain(&self, blocking: bool) {
        if let Some(guard) = self.acquire(blocking) {
            self.run_fifo(guard, blocking);
        }
    }

    /// Run `f` under the PG lock, then drain like a blocking
    /// [`Pg::drain`] (peering and recovery handlers; never a commit
    /// continuation, see `osd/write.rs`).
    pub fn with_state<R>(&self, f: impl FnOnce(&mut PgState) -> R) -> R {
        let mut guard = self.lock_blocking();
        let r = f(&mut guard);
        self.run_fifo(guard, true);
        r
    }

    /// Run the FIFO under `guard`, release, and look again: work queued
    /// between the last pop and the unlock was left for this holder. Then,
    /// holding no PG lock, drain what this thread owes.
    fn run_fifo<'a>(&'a self, mut guard: Held<'a>, blocking: bool) {
        loop {
            loop {
                let next = self.pending.lock().pop_front();
                let Some(w) = next else { break };
                w(&mut guard);
                self.counters.passes.inc();
            }
            drop(guard);
            if self.pending.lock().is_empty() {
                break;
            }
            // A failed `try_lock` means another holder, which looks too.
            let Some(g) = self.acquire(blocking) else {
                break;
            };
            guard = g;
        }
        drain_owed();
    }

    fn acquire(&self, blocking: bool) -> Option<Held<'_>> {
        if blocking {
            return Some(self.lock_blocking());
        }
        self.state.try_lock().map(|g| self.held(g))
    }

    /// Take the PG lock, accounting the wait.
    fn lock_blocking(&self) -> Held<'_> {
        if let Some(g) = self.state.try_lock() {
            return self.held(g);
        }
        let c = &self.counters;
        c.lock_waits.inc();
        let t0 = Instant::now();
        let g = self.state.lock();
        c.lock_wait_us.add(t0.elapsed().as_micros() as u64);
        self.held(g)
    }

    /// Count an acquired PG lock, here and in this thread's [`HELD`].
    fn held<'a>(&'a self, guard: TrackedMutexGuard<'a, PgState>) -> Held<'a> {
        self.counters.locks.inc();
        HELD.with(|h| h.set(h.get() + 1));
        Held(guard)
    }

    /// Work items run so far by the PGs that share this one's counters.
    pub fn processed(&self) -> u64 {
        self.counters.passes.get()
    }

    /// Currently queued (undrained) work items.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::{PgId, PoolId};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn pg() -> Arc<Pg> {
        Pg::new(PgId {
            pool: PoolId(0),
            seq: 1,
        })
    }

    #[test]
    fn submit_runs_in_fifo_order() {
        let pg = pg();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..100 {
            let o = Arc::clone(&order);
            pg.submit(Box::new(move |_st| o.lock().push(i)), true);
        }
        let o = order.lock();
        assert_eq!(*o, (0..100).collect::<Vec<_>>());
        assert_eq!(pg.processed(), 100);
    }

    #[test]
    fn nonblocking_submit_defers_to_holder() {
        let pg = pg();
        let ran = Arc::new(AtomicUsize::new(0));
        // Hold the lock on another thread, submit non-blocking, verify the
        // holder's drain picks the work up.
        let pg2 = Arc::clone(&pg);
        let ran2 = Arc::clone(&ran);
        let holder = std::thread::spawn(move || {
            // Simulate a long op holding the PG lock via submit.
            pg2.submit(
                Box::new(move |_st| {
                    std::thread::sleep(Duration::from_millis(50));
                    ran2.fetch_add(1, Ordering::SeqCst);
                }),
                true,
            );
        });
        std::thread::sleep(Duration::from_millis(10));
        let ran3 = Arc::clone(&ran);
        let t0 = Instant::now();
        pg.submit(
            Box::new(move |_st| {
                ran3.fetch_add(1, Ordering::SeqCst);
            }),
            false,
        );
        // Non-blocking submit returned quickly even though the lock is held.
        assert!(
            t0.elapsed() < Duration::from_millis(30),
            "{:?}",
            t0.elapsed()
        );
        holder.join().unwrap();
        // The holder ran our work before releasing.
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        assert_eq!(pg.pending_len(), 0);
    }

    #[test]
    fn blocking_submit_waits_and_accounts() {
        let pg = pg();
        let pg2 = Arc::clone(&pg);
        let holder = std::thread::spawn(move || {
            pg2.submit(
                Box::new(|_st| std::thread::sleep(Duration::from_millis(40))),
                true,
            );
        });
        std::thread::sleep(Duration::from_millis(10));
        // Worker blocks until the holder finishes... but the holder drains
        // our op itself; either way ordering and accounting hold.
        pg.submit(Box::new(|_st| {}), true);
        holder.join().unwrap();
        assert_eq!(pg.processed(), 2);
    }

    #[test]
    fn with_state_accounts_contention() {
        let pg = pg();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                pg.with_state(|_| {
                    tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                })
            });
            rx.recv().unwrap();
            pg.with_state(|_| {});
        });
        assert_eq!(pg.counters.lock_waits.get(), 1);
        assert_eq!(pg.counters.locks.get(), 2);
        let wait_us = pg.counters.lock_wait_us.get();
        assert!(wait_us >= 15_000, "wait_us={wait_us}");
    }

    #[test]
    fn state_mutations_persist() {
        let pg = pg();
        pg.submit(
            Box::new(|st| {
                st.next_pg_seq = 10;
                st.info_version = 5;
            }),
            true,
        );
        let seen = pg.with_state(|st| (st.next_pg_seq, st.info_version));
        assert_eq!(seen, (10, 5));
    }

    #[test]
    fn concurrent_mixed_submissions_all_run() {
        let pg = pg();
        let count = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..8 {
                let pg = Arc::clone(&pg);
                let count = Arc::clone(&count);
                s.spawn(move || {
                    for _ in 0..200 {
                        let c = Arc::clone(&count);
                        pg.submit(
                            Box::new(move |_| {
                                c.fetch_add(1, Ordering::Relaxed);
                            }),
                            t % 2 == 0,
                        );
                    }
                });
            }
        });
        // Every submitted item must eventually run (drain responsibility
        // hand-off must not strand work).
        let deadline = Instant::now() + Duration::from_secs(2);
        while count.load(Ordering::Relaxed) < 1600 && Instant::now() < deadline {
            pg.submit(Box::new(|_| {}), true); // nudge a drain
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(count.load(Ordering::Relaxed) >= 1600);
    }
}
