//! The filestore: transaction application over [`SimFs`] + the KV DB.
//!
//! **An apply sleeps on no thread.** Ceph runs `filestore_op_threads`
//! apply workers, each issuing one transaction's syscalls at a time; here
//! each of [`FileStoreConfig::apply_threads`] is a *lane* — a FIFO and the
//! instant its last planned transaction completes — and no thread stands
//! in for it. A transaction is sharded to a lane by its first object (so
//! applies to one object stay in queue order) and is *planned* once the
//! lane is free: its state changes land in [`SimFs`], the KV memtable and
//! the metadata cache at once, and its device requests are reserved one
//! after the other, each from the completion of the one before (data,
//! xattr and hint writes, metadata reads, the KV log writes it triggers),
//! starting at `max(lane free-at, time queued)`. Its callback gets the
//! instant the last of them completes, which the caller carries on; its
//! throttle permit is released at that instant.
//!
//! Planning is done by whichever thread next touches the filestore — the
//! one queueing a transaction, [`FileStore::wait_idle`], a throttle
//! acquirer once it has its permit — and a lane is planned no earlier than
//! it is free, so a backlog waits in the FIFO, not on the device's
//! channels. Because the start instant is fixed by the lane and the queue
//! time, planning late moves no modeled time, only the wall-clock moment
//! the callback runs; so only a thread that waits for that callback needs
//! a prompt plan. Such a thread holds an [`ApplyDemand`]
//! ([`FileStore::demand_applies`]) while it waits — [`FileStore::apply_sync`]
//! (replay), and an OSD with anything parked on its applied prefix (a
//! read, a recovery push, a submitter on a full journal ring) — and while
//! any is held, or the store is closing, or a `Delay` fault holds a lane,
//! one *backstop* thread sleeps until the earliest lane with queued work
//! falls free and plans it: the one planner for a waiter. With no demand
//! it sleeps untimed: on a write-only load nobody waits for an apply and
//! it never wakes.

use crate::metacache::{MetaCache, ObjectMeta};
use crate::simfs::{PlannedRead, SimFs};
use crate::throttle::{OwnedPermit, Throttle};
use crate::txn::{Transaction, TxOp};
use afc_common::faults::{ApplyPoint, FaultKind, FaultRegistry, FaultSite};
use afc_common::lockdep::{self, classes, TrackedCondvar, TrackedMutex};
use afc_common::metrics::{Counter, Metrics};
use afc_common::timeutil::sleep_until;
use afc_common::{wait_until, AfcError, Result};
use afc_device::BlockDev;
use afc_kvstore::{Db, DbConfig, WriteBatch, WriteOptions};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Transaction execution profile (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnProfile {
    /// Community Ceph: redundant syscalls, per-key KV commits, alloc hints
    /// always issued, metadata read back from storage on every write.
    Community,
    /// Light-weight transactions: deduped ops, FD reuse, batched KV
    /// insertion, hint skipped for small writes, write-through meta cache.
    Lightweight,
}

/// `set-alloc-hint` is skipped for writes below this size (LWT only).
const SMALL_WRITE_THRESHOLD: u64 = 64 * 1024;

/// Filestore configuration.
#[derive(Debug, Clone)]
pub struct FileStoreConfig {
    /// Execution profile.
    pub profile: TxnProfile,
    /// `filestore_queue_max_ops`: in-flight transaction cap — queued, or
    /// planned with a completion still ahead. The community default (50) is
    /// sized for HDDs; §3.2 retunes it for flash.
    pub queue_max_ops: u64,
    /// `filestore_op_threads`: apply lanes. Each applies one transaction
    /// at a time, in modeled time; no thread runs per lane.
    pub apply_threads: usize,
    /// Metadata cache capacity (objects); only consulted in `Lightweight`.
    pub meta_cache_entries: usize,
    /// KV store tuning.
    pub kv: DbConfig,
}

impl FileStoreConfig {
    /// Community defaults (HDD-sized throttle).
    pub fn community() -> Self {
        FileStoreConfig {
            profile: TxnProfile::Community,
            queue_max_ops: 50,
            apply_threads: 2,
            meta_cache_entries: 0,
            kv: DbConfig::default(),
        }
    }

    /// AFCeph defaults: light-weight transactions + SSD-sized throttle.
    pub fn lightweight() -> Self {
        FileStoreConfig {
            profile: TxnProfile::Lightweight,
            queue_max_ops: 5000,
            meta_cache_entries: 65536,
            ..Self::community()
        }
    }
}

/// Completion callback for a queued transaction: `Ok(at)` once it is
/// applied, with the instant its last device request completes (often
/// still ahead), or the error it failed with. Runs on whichever thread
/// planned it, which may be long after the lane fell free unless someone
/// holds an [`ApplyDemand`].
pub type ApplyFn = Box<dyn FnOnce(Result<Instant>) + Send>;

struct Job {
    txn: Arc<Transaction>,
    done: ApplyFn,
    /// The throttle slot, released at the transaction's completion.
    permit: OwnedPermit,
    queued_at: Instant,
    /// The `apply` fault point has been consulted for this job.
    checked: bool,
}

struct Lane {
    /// When the lane's latest planned transaction completes.
    free_at: Instant,
    /// A thread is planning the lane's head.
    planning: bool,
    /// A `Delay` fault holds the lane with its head unplanned. Nothing but
    /// a plan at `free_at` moves it on, so it counts as demand until then.
    held: bool,
    queue: VecDeque<Job>,
}

impl Lane {
    /// Its head may be planned now.
    fn ready(&self, now: Instant) -> bool {
        !self.planning && self.free_at <= now && !self.queue.is_empty()
    }

    /// When someone must next plan this lane: its free-at, if work waits
    /// behind it and nobody is planning it already.
    fn due(&self) -> Option<Instant> {
        (!self.planning && !self.queue.is_empty()).then_some(self.free_at)
    }
}

/// What the backstop is doing, so a planner knows whether to wake it.
#[derive(Clone, Copy)]
enum Backstop {
    /// Awake: it looks at the lanes before it sleeps again.
    Running,
    /// Asleep untimed: no lane had queued work.
    Parked,
    /// Asleep until this instant.
    Until(Instant),
}

struct Lanes {
    lanes: Vec<Lane>,
    backstop: Backstop,
    /// [`ApplyDemand`]s held: threads waiting for an apply's callback.
    demand: usize,
    closed: bool,
}

impl Lanes {
    /// Whether the backstop must plan lanes as they fall free: someone
    /// waits for an apply, the store is draining, or a lane is held.
    fn wanted(&self) -> bool {
        self.demand > 0 || self.closed || self.lanes.iter().any(|l| l.held)
    }

    fn next_due(&self) -> Option<Instant> {
        self.lanes.iter().filter_map(Lane::due).min()
    }

    fn idle(&self) -> bool {
        self.lanes.iter().all(|l| !l.planning && l.queue.is_empty())
    }
}

/// The object store backend. One per OSD, over that OSD's RAID-0 device
/// (shared with its KV DB, so metadata reads genuinely interfere with data
/// writes on the flash model).
pub struct FileStore {
    core: Arc<Core>,
    backstop: Option<std::thread::JoinHandle<()>>,
}

/// A thread waiting for an apply's callback, registered by
/// [`FileStore::demand_applies`]: while any is held, the backstop plans
/// each lane with queued work as it falls free. Dropping it deregisters.
#[must_use = "demand lasts only while the guard is held"]
pub struct ApplyDemand {
    core: Arc<Core>,
}

impl Drop for ApplyDemand {
    fn drop(&mut self) {
        self.core.lanes.lock().demand -= 1;
    }
}

/// Everything the apply path needs, shared with the backstop thread.
struct Core {
    cfg: FileStoreConfig,
    fs: Arc<SimFs>,
    kv: Arc<Db>,
    throttle: Arc<Throttle>,
    cache: Arc<MetaCache>,
    /// The registry and the OSD whose apply sites this store is.
    faults: OnceLock<(Arc<FaultRegistry>, u32)>,
    lanes: TrackedMutex<Lanes>,
    /// The backstop sleeps on it.
    cv: TrackedCondvar,
    txns_applied: Counter,
    /// Applies the backstop planned, not a thread that touched the store.
    backstop_plans: Counter,
    data_bytes: Counter,
    meta_reads: Counter,
    hints_skipped: Counter,
    apply_errors: Counter,
}

fn meta_key(object: &str) -> Bytes {
    Bytes::from(format!("m/{object}"))
}

fn attr_key(object: &str, name: &str) -> Bytes {
    Bytes::from(format!("x/{object}/{name}"))
}

fn omap_key(object: &str, key: &[u8]) -> Bytes {
    let mut v = Vec::with_capacity(object.len() + key.len() + 3);
    v.extend_from_slice(b"o/");
    v.extend_from_slice(object.as_bytes());
    v.push(b'/');
    v.extend_from_slice(key);
    Bytes::from(v)
}

fn encode_meta(m: &ObjectMeta) -> Bytes {
    let mut v = Vec::with_capacity(17);
    v.extend_from_slice(&m.size.to_le_bytes());
    v.extend_from_slice(&m.version.to_le_bytes());
    v.push(m.alloc_hint as u8);
    Bytes::from(v)
}

fn decode_meta(b: &[u8]) -> Option<ObjectMeta> {
    if b.len() < 17 {
        return None;
    }
    Some(ObjectMeta {
        size: u64::from_le_bytes(b[0..8].try_into().ok()?),
        version: u64::from_le_bytes(b[8..16].try_into().ok()?),
        alloc_hint: b[16] != 0,
    })
}

impl FileStore {
    /// Open a filestore over `dev` with `cfg`. The KV DB shares the device.
    pub fn new(dev: Arc<dyn BlockDev>, cfg: FileStoreConfig) -> Result<Arc<Self>> {
        let fs = Arc::new(SimFs::new(Arc::clone(&dev)));
        let kv = Arc::new(Db::open(dev, cfg.kv.clone())?);
        let now = Instant::now();
        let lanes = (0..cfg.apply_threads.max(1))
            .map(|_| Lane {
                free_at: now,
                planning: false,
                held: false,
                queue: VecDeque::new(),
            })
            .collect();
        let core = Arc::new(Core {
            throttle: Arc::new(Throttle::new("filestore_queue_max_ops", cfg.queue_max_ops)),
            cache: Arc::new(MetaCache::new(cfg.meta_cache_entries.max(1))),
            cfg,
            fs,
            kv,
            faults: OnceLock::new(),
            lanes: TrackedMutex::new(
                &classes::FS_LANES,
                Lanes {
                    lanes,
                    backstop: Backstop::Running,
                    demand: 0,
                    closed: false,
                },
            ),
            cv: TrackedCondvar::new(),
            txns_applied: Counter::new(),
            backstop_plans: Counter::new(),
            data_bytes: Counter::new(),
            meta_reads: Counter::new(),
            hints_skipped: Counter::new(),
            apply_errors: Counter::new(),
        });
        let backstop = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("fs-backstop".into())
                .spawn(move || core.backstop())
                .map_err(|e| AfcError::Io(format!("spawn filestore backstop: {e}")))?
        };
        Ok(Arc::new(FileStore {
            core,
            backstop: Some(backstop),
        }))
    }

    /// Wire a fault registry into the apply path as OSD `osd`'s store: the
    /// apply consults `FaultSite::Apply { osd, point }` at both
    /// [`ApplyPoint`]s. First attach wins.
    pub fn attach_faults(&self, registry: Arc<FaultRegistry>, osd: u32) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "first attach wins: a second registry is ignored"
        )]
        let _ = self.core.faults.set((registry, osd));
    }

    /// Simulate power loss on the backing store: volatile KV state (open
    /// memtables and unsynced WAL records) is discarded and the DB reopens
    /// from its durable image. Object data in [`SimFs`] models the on-disk
    /// files and survives. Journal replay after this restores whatever the
    /// lost KV records described. Returns the number of WAL records the KV
    /// recovery replayed.
    pub fn crash_volatile(&self) -> Result<usize> {
        self.core.cache.clear();
        self.core.kv.crash_and_recover()
    }

    /// Queue a transaction for application on its lane. Blocks on the
    /// filestore throttle when `queue_max_ops` transactions are in flight —
    /// the §2.4/Figure 4 backpressure point — until the earliest of them
    /// completes; never for the device. Then plans every lane that is free.
    /// `done` runs on whichever thread plans the transaction: often this
    /// one, right here; else the next to touch the store, or the backstop
    /// when someone holds an [`ApplyDemand`]. The transaction is read, never
    /// rebuilt: a caller may share it (the OSD's commit hands over the one
    /// it journaled).
    pub fn queue_transaction(&self, txn: impl Into<Arc<Transaction>>, done: ApplyFn) -> Result<()> {
        // Blocks on the filestore queue throttle when the apply backlog is
        // at `filestore_queue_max_ops` (the §3.2 stall this crate models).
        lockdep::assert_blockable("filestore queue_transaction");
        let core = &self.core;
        let permit = core.throttle.acquire_owned(1)?;
        let job = Job {
            txn: txn.into(),
            done,
            permit,
            queued_at: Instant::now(),
            checked: false,
        };
        {
            let mut ls = core.lanes.lock();
            // Shard by the transaction's first object so same-object
            // applies stay in queue order (one lane = one sequence).
            let lane = match job.txn.ops().first() {
                Some(op) => {
                    afc_common::rng::hash_bytes(op.object().as_bytes()) as usize % ls.lanes.len()
                }
                None => 0,
            };
            ls.lanes[lane].queue.push_back(job);
        }
        core.pump();
        Ok(())
    }

    /// Register a waiter for an apply's callback: until the guard drops,
    /// the backstop plans each lane with queued work as it falls free. It
    /// plans what is free right now first, on this thread, so no stale
    /// backlog waits for the backstop.
    pub fn demand_applies(&self) -> ApplyDemand {
        self.core.lanes.lock().demand += 1;
        self.core.pump();
        ApplyDemand {
            core: Arc::clone(&self.core),
        }
    }

    /// Queue, wait until applied and wait out its completion (tests,
    /// recovery replay), holding an [`ApplyDemand`] while it waits.
    pub fn apply_sync(&self, txn: impl Into<Arc<Transaction>>) -> Result<()> {
        let _waiting = self.demand_applies();
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.queue_transaction(
            txn,
            Box::new(move |r| {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "a send fails only once the waiter has gone, and then no one wants the result"
                )]
                let _ = tx.send(r);
            }),
        )?;
        // The backstop plans the lanes for this waiter; a store that closes
        // plans what is queued before it goes.
        let at = rx
            .recv()
            .map_err(|_| AfcError::ShutDown("filestore".into()))??;
        wait_until(self.core.fs.wait_class(), at);
        Ok(())
    }

    /// Read object data: the bytes now, the device read planned no earlier
    /// than `not_before` (see [`PlannedRead`]).
    pub fn read(
        &self,
        object: &str,
        offset: u64,
        len: usize,
        not_before: Instant,
    ) -> Result<PlannedRead> {
        self.core.fs.read(object, offset, len, not_before)
    }

    /// Object metadata via cache → KV → `NotFound`.
    pub fn stat(&self, object: &str) -> Result<ObjectMeta> {
        let core = &self.core;
        if core.cfg.profile == TxnProfile::Lightweight {
            if let Some(m) = core.cache.get(object) {
                return Ok(m);
            }
        }
        match core.kv.get(&meta_key(object))? {
            Some(v) => {
                decode_meta(&v).ok_or_else(|| AfcError::Corruption(format!("meta {object}")))
            }
            None => Err(AfcError::NotFound(format!("object {object}"))),
        }
    }

    /// Whether the object exists.
    pub fn exists(&self, object: &str) -> bool {
        self.core.fs.exists(object)
    }

    /// Read one omap value.
    pub fn omap_get(&self, object: &str, key: &[u8]) -> Result<Option<Bytes>> {
        self.core.kv.get(&omap_key(object, key))
    }

    /// All omap pairs of an object (key order).
    pub fn omap_scan(&self, object: &str) -> Result<Vec<(Bytes, Bytes)>> {
        let prefix = omap_key(object, b"");
        let items = self.core.kv.scan_prefix(&prefix)?;
        Ok(items
            .into_iter()
            .map(|(k, v)| (Bytes::copy_from_slice(&k[prefix.len()..]), v))
            .collect())
    }

    /// Read an object xattr (filesystem first, then the KV store where the
    /// light-weight path keeps attrs). Waits for the device read it takes.
    pub fn getattr(&self, object: &str, name: &str) -> Result<Option<Bytes>> {
        let core = &self.core;
        if core.cfg.profile == TxnProfile::Lightweight {
            if let Some(v) = core.kv.get(&attr_key(object, name))? {
                return Ok(Some(v));
            }
            if !core.fs.exists(object) {
                return Err(AfcError::NotFound(format!("object {object}")));
            }
            return Ok(None);
        }
        let mut at = Instant::now();
        let v = core.fs.getxattr(object, name, &mut at)?;
        wait_until(core.fs.wait_class(), at);
        Ok(v)
    }

    /// List every object (recovery/scrub).
    pub fn list_objects(&self) -> Vec<String> {
        self.core.fs.list()
    }

    /// In-flight transactions: queued, or planned with a completion still
    /// ahead.
    pub fn queue_len(&self) -> u64 {
        self.core.throttle.in_use()
    }

    /// Plan every queued transaction as its lane falls free and wait out
    /// the last lane's completion (test/bench helper).
    pub fn wait_idle(&self) {
        loop {
            self.core.pump();
            let (idle, next, last) = {
                let ls = self.core.lanes.lock();
                let last = ls.lanes.iter().map(|l| l.free_at).max();
                (ls.idle(), ls.next_due(), last)
            };
            if idle {
                if let Some(last) = last {
                    sleep_until(last);
                }
                return;
            }
            // Work queued behind a busy lane, or another thread planning.
            sleep_until(next.unwrap_or_else(|| Instant::now() + Duration::from_micros(50)));
        }
    }

    /// Retune the throttle at runtime (§3.2 system tuning).
    pub fn set_queue_max_ops(&self, max: u64) {
        self.core.throttle.set_max(max);
    }

    /// Filestore `sync_entry`: force buffered KV state durable (WAL sync +
    /// memtable flush). Benchmarks call this before reading WA counters.
    pub fn sync(&self) -> Result<()> {
        self.core.kv.flush()
    }

    /// Register the filestore's counters into a cluster metric registry:
    /// apply-path counters (`backstop_plans`: applies the backstop planned
    /// for a waiter), throttle waits, metadata-cache hit/miss and
    /// syscall counts under `<prefix>.<field>` (e.g. `osd0.fs.txns_applied`,
    /// `osd0.fs.throttle.waits`, `osd0.fs.cache_hits`, `osd0.fs.sys.open`).
    pub fn register_metrics(&self, m: &Metrics, prefix: &str) {
        let core = &self.core;
        let fields: [(&str, &Counter); 6] = [
            ("txns_applied", &core.txns_applied),
            ("backstop_plans", &core.backstop_plans),
            ("data_bytes", &core.data_bytes),
            ("meta_reads", &core.meta_reads),
            ("hints_skipped", &core.hints_skipped),
            ("apply_errors", &core.apply_errors),
        ];
        for (name, cell) in fields {
            m.register_counter(format!("{prefix}.{name}"), cell);
        }
        core.throttle
            .register_into(m, &format!("{prefix}.throttle"));
        core.cache.register_into(m, prefix);
        core.fs.register_into(m, prefix);
    }

    /// Register the backing KV database's counters under `<kv_prefix>`
    /// (e.g. `osd0.kv.wal_bytes`); kept separate from the filestore's own
    /// prefix because write amplification is a KV-level measure.
    pub fn register_kv_metrics(&self, m: &Metrics, kv_prefix: &str) {
        self.core.kv.register_metrics(m, kv_prefix);
    }

    /// The simulated filesystem.
    pub fn fs(&self) -> &Arc<SimFs> {
        &self.core.fs
    }

    /// The configured profile.
    pub fn profile(&self) -> TxnProfile {
        self.core.cfg.profile
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        self.core.throttle.close();
        // The backstop plans what is still queued, then exits.
        self.core.lanes.lock().closed = true;
        self.core.cv.notify_all();
        if let Some(h) = self.backstop.take() {
            if h.thread().id() != std::thread::current().id() {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "a backstop that panicked has already reported it; drop goes on"
                )]
                let _ = h.join();
            }
        }
    }
}

/// What an armed fault point asks of the apply.
enum Fault {
    None,
    Delay(Duration),
    Fail(AfcError),
}

impl Core {
    /// Plan every lane whose head can start by now, until none can; then
    /// make sure the backstop wakes for the earliest one that will, if
    /// anyone wants it. Returns the number of applies planned.
    fn pump(&self) -> u64 {
        let mut planned = 0;
        loop {
            let now = Instant::now();
            let (lane, job, free_at) = {
                let mut ls = self.lanes.lock();
                let Some(i) = ls.lanes.iter().position(|l| l.ready(now)) else {
                    self.nudge_backstop(&ls);
                    return planned;
                };
                let l = &mut ls.lanes[i];
                let Some(job) = l.queue.pop_front() else {
                    continue;
                };
                l.planning = true;
                l.held = false;
                (i, job, l.free_at)
            };
            if self.plan(lane, job, free_at) {
                planned += 1;
            }
        }
    }

    /// Wake the backstop if it is wanted and a lane falls due before it
    /// would look.
    fn nudge_backstop(&self, ls: &Lanes) {
        if !ls.wanted() {
            return;
        }
        let Some(due) = ls.next_due() else {
            return;
        };
        let late = match ls.backstop {
            Backstop::Running => false,
            Backstop::Parked => true,
            Backstop::Until(wake) => due < wake,
        };
        if late {
            self.cv.notify_one();
        }
    }

    /// Apply `job`, the head of `lane`, from `max(free_at, queued)`: the
    /// lane is free from the completion on, the throttle slot is released
    /// then, and the callback gets it. A `Delay` at the `apply` point
    /// holds the lane that long with the job still at its head, and is
    /// the one outcome that plans nothing (false).
    fn plan(&self, lane: usize, mut job: Job, free_at: Instant) -> bool {
        let start = free_at.max(job.queued_at);
        let mut at = start;
        // The `apply` point is consulted once per job, however often the
        // job comes back to the head of its lane.
        let fault = if std::mem::replace(&mut job.checked, true) {
            Fault::None
        } else {
            self.check_fault(ApplyPoint::Apply)
        };
        let res = match fault {
            Fault::None => apply_txn(self, &job.txn, &mut at),
            Fault::Fail(e) => Err(e),
            Fault::Delay(d) => {
                let mut ls = self.lanes.lock();
                let l = &mut ls.lanes[lane];
                l.planning = false;
                l.held = true;
                l.free_at = start + d;
                l.queue.push_front(job);
                return false;
            }
        };
        {
            let mut ls = self.lanes.lock();
            let l = &mut ls.lanes[lane];
            l.planning = false;
            l.free_at = at;
        }
        job.permit.release_at(at);
        if res.is_err() {
            self.apply_errors.inc();
        }
        (job.done)(res.map(|()| at));
        true
    }

    /// The backstop: while someone wants it ([`Lanes::wanted`]), plan each
    /// lane as it falls free; asleep untimed otherwise, or while no lane
    /// has queued work. Exits once closed and drained.
    fn backstop(&self) {
        let mut ls = self.lanes.lock();
        loop {
            let now = Instant::now();
            if ls.wanted() && ls.lanes.iter().any(|l| l.ready(now)) {
                ls.backstop = Backstop::Running;
                drop(ls);
                self.backstop_plans.add(self.pump());
                ls = self.lanes.lock();
                continue;
            }
            if ls.closed && ls.lanes.iter().all(|l| l.queue.is_empty()) {
                return;
            }
            match ls.next_due().filter(|_| ls.wanted()) {
                None => {
                    ls.backstop = Backstop::Parked;
                    self.cv.wait(&mut ls);
                }
                Some(due) => {
                    ls.backstop = Backstop::Until(due);
                    // Woken early or at `due`, it looks again either way.
                    let _timed_out = self.cv.wait_until(&mut ls, due);
                }
            }
            ls.backstop = Backstop::Running;
        }
    }

    /// Consult the attached fault registry (if any) at `point`. `Error`
    /// and `Torn` both fail the apply; `Delay` is modeled time added to
    /// the lane; `FaultSpec::new` rejects a `Drop` or `Duplicate` here.
    fn check_fault(&self, point: ApplyPoint) -> Fault {
        let Some((reg, osd)) = self.faults.get() else {
            return Fault::None;
        };
        let site = FaultSite::Apply { osd: *osd, point };
        match reg.check(site) {
            None | Some(FaultKind::Drop) | Some(FaultKind::Duplicate) => Fault::None,
            Some(FaultKind::Delay(d)) => Fault::Delay(d),
            Some(FaultKind::Error) | Some(FaultKind::Torn) => {
                Fault::Fail(AfcError::Io(format!("injected apply fault at {site}")))
            }
        }
    }
}

/// One KV commit of a single put (Community's per-key commit), as a step
/// of the apply's chain.
fn kv_put(core: &Core, key: Bytes, value: Bytes, at: &mut Instant) -> Result<()> {
    let mut b = WriteBatch::new();
    b.put(key, value);
    core.kv.write_batch_at(&b, WriteOptions::async_(), at)
}

/// One KV commit of a single delete, as a step of the apply's chain.
fn kv_delete(core: &Core, key: Bytes, at: &mut Instant) -> Result<()> {
    let mut b = WriteBatch::new();
    b.delete(key);
    core.kv.write_batch_at(&b, WriteOptions::async_(), at)
}

/// Apply `txn` from `at`: every device request is planned from the
/// completion of the one before, and `at` ends at the last completion (or
/// where the apply failed). The light-weight path minimizes a copy of
/// `txn` only when [`Transaction::needs_dedup`] says there is something to
/// merge.
fn apply_txn(core: &Core, txn: &Transaction, at: &mut Instant) -> Result<()> {
    let lightweight = core.cfg.profile == TxnProfile::Lightweight;
    let deduped;
    let txn = if lightweight && txn.needs_dedup() {
        deduped = txn.clone().dedup();
        &deduped
    } else {
        txn
    };
    // LWT: FD cache (first open wins) and one KV batch for the whole txn.
    let mut opened: Vec<&str> = Vec::new();
    let mut batch = WriteBatch::new();
    let small_txn = txn.data_bytes() < SMALL_WRITE_THRESHOLD;
    for (ops_done, op) in txn.ops().iter().enumerate() {
        if ops_done > 0 {
            // The dirty fault: some ops already hit the store. Surfaced so
            // the caller keeps the journal entry and re-applies after
            // recovery (applies are idempotent by construction).
            match core.check_fault(ApplyPoint::MidApply) {
                Fault::None => {}
                Fault::Delay(d) => *at += d,
                Fault::Fail(e) => return Err(e),
            }
        }
        match op {
            TxOp::Touch { object } => {
                ensure_open(core, &mut opened, object, lightweight)?;
            }
            TxOp::Write {
                object,
                offset,
                data,
            } => {
                ensure_open(core, &mut opened, object, lightweight)?;
                // Metadata read-modify-write (community) or cache (LWT).
                let mut meta = read_meta_for_write(core, object, lightweight, at)?;
                core.fs.write(object, *offset, data, at)?;
                core.data_bytes.add(data.len() as u64);
                meta.size = meta.size.max(offset + data.len() as u64);
                meta.version += 1;
                let encoded = encode_meta(&meta);
                if lightweight {
                    batch.put(meta_key(object), encoded);
                    core.cache.put(object, meta);
                } else {
                    // Separate synchronous-ish KV commit + xattr write.
                    kv_put(core, meta_key(object), encoded.clone(), at)?;
                    core.fs.setxattr(object, "_", encoded, at)?;
                }
            }
            TxOp::Truncate { object, size } => {
                ensure_open(core, &mut opened, object, lightweight)?;
                core.fs.truncate(object, *size)?;
                let mut meta = read_meta_for_write(core, object, lightweight, at)?;
                meta.size = *size;
                meta.version += 1;
                let encoded = encode_meta(&meta);
                if lightweight {
                    batch.put(meta_key(object), encoded);
                    core.cache.put(object, meta);
                } else {
                    kv_put(core, meta_key(object), encoded, at)?;
                }
            }
            TxOp::Remove { object } => {
                core.fs.unlink(object)?;
                core.cache.invalidate(object);
                if lightweight {
                    batch.delete(meta_key(object));
                } else {
                    kv_delete(core, meta_key(object), at)?;
                }
            }
            TxOp::SetAttrs { object, attrs } => {
                if lightweight {
                    // §3.4: attrs ride the batched KV insert instead of
                    // per-attr setxattr syscalls + inode writes.
                    for (name, value) in attrs {
                        batch.put(attr_key(object, name), value.clone());
                    }
                } else {
                    ensure_open(core, &mut opened, object, lightweight)?;
                    for (name, value) in attrs {
                        core.fs.setxattr(object, name, value.clone(), at)?;
                    }
                }
            }
            TxOp::OmapSetKeys { object, keys } => {
                if lightweight {
                    for (k, v) in keys {
                        batch.put(omap_key(object, k), v.clone());
                    }
                } else {
                    // One KV commit per key — the pre-batching behaviour.
                    for (k, v) in keys {
                        kv_put(core, omap_key(object, k), v.clone(), at)?;
                    }
                }
            }
            TxOp::OmapRmKeys { object, keys } => {
                if lightweight {
                    for k in keys {
                        batch.delete(omap_key(object, k));
                    }
                } else {
                    for k in keys {
                        kv_delete(core, omap_key(object, k), at)?;
                    }
                }
            }
            TxOp::SetAllocHint { object } => {
                if lightweight && small_txn {
                    core.hints_skipped.inc();
                } else {
                    ensure_open(core, &mut opened, object, lightweight)?;
                    core.fs.fallocate_hint(object, at)?;
                }
            }
        }
    }
    if !batch.is_empty() {
        core.kv.write_batch_at(&batch, WriteOptions::async_(), at)?;
    }
    core.txns_applied.inc();
    Ok(())
}

fn ensure_open<'t>(
    core: &Core,
    opened: &mut Vec<&'t str>,
    object: &'t str,
    lightweight: bool,
) -> Result<()> {
    if lightweight {
        if !opened.contains(&object) {
            opened.push(object);
            core.fs.open_create(object)?;
        }
        Ok(())
    } else {
        // Community path re-opens for every op.
        core.fs.open_create(object)
    }
}

/// The §3.4 metadata read: community always reads meta back from storage
/// (KV probe + xattr fetch → device reads → flash read/write interference);
/// LWT consults the write-through cache and only reads on a cold miss.
fn read_meta_for_write(
    core: &Core,
    object: &str,
    lightweight: bool,
    at: &mut Instant,
) -> Result<ObjectMeta> {
    if lightweight {
        if let Some(m) = core.cache.get(object) {
            return Ok(m);
        }
    }
    core.meta_reads.inc();
    let from_kv = core
        .kv
        .get_at(&meta_key(object), at)?
        .and_then(|v| decode_meta(&v));
    if !lightweight {
        // xattr fetch (device read) — part of the community RMW.
        let _ = core.fs.getxattr(object, "_", at)?;
    }
    let meta = from_kv.unwrap_or_default();
    if lightweight {
        core.cache.put(object, meta.clone());
    }
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_device::{Nvram, NvramConfig, Ssd, SsdConfig};

    fn nvram_store(cfg: FileStoreConfig) -> Arc<FileStore> {
        FileStore::new(Arc::new(Nvram::new(NvramConfig::pmc_8g())), cfg).expect("open filestore")
    }

    fn write_txn(object: &str, n: usize, with_hint: bool) -> Transaction {
        let mut t = Transaction::new();
        t.push(TxOp::Touch {
            object: object.into(),
        });
        if with_hint {
            t.push(TxOp::SetAllocHint {
                object: object.into(),
            });
        }
        t.push(TxOp::Write {
            object: object.into(),
            offset: 0,
            data: Bytes::from(vec![7u8; n]),
        });
        t.push(TxOp::OmapSetKeys {
            object: format!("pgmeta_{object}"),
            keys: vec![(Bytes::from_static(b"pglog.1"), Bytes::from(vec![1u8; 100]))],
        });
        t.push(TxOp::SetAttrs {
            object: object.into(),
            attrs: vec![("snapset".into(), Bytes::from_static(b"{}"))],
        });
        t
    }

    #[test]
    fn apply_roundtrip_community() {
        let fs = nvram_store(FileStoreConfig::community());
        fs.apply_sync(write_txn("obj", 4096, true)).unwrap();
        assert_eq!(
            fs.read("obj", 0, 4096, Instant::now()).unwrap().data,
            vec![7u8; 4096]
        );
        let meta = fs.stat("obj").unwrap();
        assert_eq!(meta.size, 4096);
        assert_eq!(meta.version, 1);
        assert_eq!(
            fs.omap_get("pgmeta_obj", b"pglog.1")
                .unwrap()
                .unwrap()
                .len(),
            100
        );
        assert!(fs.getattr("obj", "snapset").unwrap().is_some());
        assert_eq!(fs.core.txns_applied.get(), 1);
    }

    #[test]
    fn apply_roundtrip_lightweight() {
        let fs = nvram_store(FileStoreConfig::lightweight());
        fs.apply_sync(write_txn("obj", 4096, true)).unwrap();
        assert_eq!(
            fs.read("obj", 0, 4096, Instant::now()).unwrap().data,
            vec![7u8; 4096]
        );
        assert_eq!(fs.stat("obj").unwrap().size, 4096);
        assert_eq!(
            fs.core.hints_skipped.get(),
            1,
            "small-write hint not skipped"
        );
        assert!(!fs.fs().alloc_hint("obj").unwrap());
    }

    #[test]
    fn lightweight_uses_fewer_syscalls_and_kv_commits() {
        let comm = nvram_store(FileStoreConfig::community());
        let lwt = nvram_store(FileStoreConfig::lightweight());
        for i in 0..50 {
            comm.apply_sync(write_txn("obj", 4096 + i, true)).unwrap();
            lwt.apply_sync(write_txn("obj", 4096 + i, true)).unwrap();
        }
        let syscalls = |s: &FileStore| -> u64 {
            let fs = s.fs();
            [
                &fs.sys_open,
                &fs.sys_stat,
                &fs.sys_setxattr,
                &fs.sys_fallocate,
                &fs.sys_getxattr,
            ]
            .iter()
            .map(|c| c.get())
            .sum()
        };
        let (sys_comm, sys_lwt) = (syscalls(&comm), syscalls(&lwt));
        assert!(sys_lwt * 2 < sys_comm, "lwt={sys_lwt} comm={sys_comm}");
        assert!(
            lwt.core.kv.stats().commits.get() * 2 <= comm.core.kv.stats().commits.get(),
            "lwt={} comm={}",
            lwt.core.kv.stats().commits.get(),
            comm.core.kv.stats().commits.get()
        );
    }

    #[test]
    fn community_rereads_metadata_lwt_caches() {
        let comm = nvram_store(FileStoreConfig::community());
        let lwt = nvram_store(FileStoreConfig::lightweight());
        for _ in 0..20 {
            comm.apply_sync(write_txn("obj", 4096, false)).unwrap();
            lwt.apply_sync(write_txn("obj", 4096, false)).unwrap();
        }
        assert_eq!(comm.core.meta_reads.get(), 20);
        assert_eq!(lwt.core.meta_reads.get(), 1, "only the cold miss");
        assert!(lwt.core.cache.hits.get() >= 19);
    }

    #[test]
    fn version_advances_per_write() {
        let fs = nvram_store(FileStoreConfig::lightweight());
        for _ in 0..5 {
            fs.apply_sync(write_txn("o", 100, false)).unwrap();
        }
        assert_eq!(fs.stat("o").unwrap().version, 5);
    }

    #[test]
    fn remove_clears_everything() {
        let fs = nvram_store(FileStoreConfig::lightweight());
        fs.apply_sync(write_txn("o", 128, false)).unwrap();
        let mut t = Transaction::new();
        t.push(TxOp::Remove { object: "o".into() });
        fs.apply_sync(t).unwrap();
        assert!(!fs.exists("o"));
        assert!(fs.stat("o").is_err());
    }

    #[test]
    fn truncate_updates_meta() {
        let fs = nvram_store(FileStoreConfig::lightweight());
        fs.apply_sync(write_txn("o", 1000, false)).unwrap();
        let mut t = Transaction::new();
        t.push(TxOp::Truncate {
            object: "o".into(),
            size: 10,
        });
        fs.apply_sync(t).unwrap();
        assert_eq!(fs.stat("o").unwrap().size, 10);
        assert_eq!(fs.read("o", 0, 100, Instant::now()).unwrap().data.len(), 10);
    }

    #[test]
    fn omap_scan_and_rm() {
        let fs = nvram_store(FileStoreConfig::lightweight());
        let mut t = Transaction::new();
        t.push(TxOp::OmapSetKeys {
            object: "meta".into(),
            keys: (0..5)
                .map(|i| (Bytes::from(format!("k{i}")), Bytes::from(format!("v{i}"))))
                .collect(),
        });
        fs.apply_sync(t).unwrap();
        assert_eq!(fs.omap_scan("meta").unwrap().len(), 5);
        let mut t = Transaction::new();
        t.push(TxOp::OmapRmKeys {
            object: "meta".into(),
            keys: vec![Bytes::from_static(b"k2")],
        });
        fs.apply_sync(t).unwrap();
        let left = fs.omap_scan("meta").unwrap();
        assert_eq!(left.len(), 4);
        assert!(fs.omap_get("meta", b"k2").unwrap().is_none());
    }

    #[test]
    fn throttle_blocks_when_queue_full() {
        // Slow SSD + queue of 2: the third queue_transaction must wait.
        let dev = Arc::new(Ssd::new(SsdConfig {
            jitter: 0.0,
            ..SsdConfig::sata3()
        }));
        let cfg = FileStoreConfig {
            queue_max_ops: 2,
            apply_threads: 1,
            ..FileStoreConfig::community()
        };
        let fs = FileStore::new(dev, cfg).expect("open filestore");
        for i in 0..12 {
            fs.queue_transaction(
                write_txn(&format!("o{i}"), 32 * 1024, true),
                Box::new(|r| {
                    r.unwrap();
                }),
            )
            .unwrap();
        }
        fs.wait_idle();
        assert!(fs.core.throttle.waits.get() > 0, "queue never filled");
        assert_eq!(fs.core.txns_applied.get(), 12);
    }

    #[test]
    fn queue_transaction_async_completion() {
        let fs = nvram_store(FileStoreConfig::lightweight());
        let (tx, rx) = crossbeam::channel::bounded(1);
        let queued = Instant::now();
        fs.queue_transaction(
            write_txn("o", 64, false),
            Box::new(move |r| {
                tx.send(r).unwrap();
            }),
        )
        .unwrap();
        let done = rx.recv().unwrap().unwrap();
        assert!(done >= queued, "the apply completes before it was queued");
        // The throttle permit is released at the apply's modeled
        // completion, which may still be ahead when the callback runs.
        sleep_until(done);
        assert_eq!(fs.queue_len(), 0);
    }

    #[test]
    fn injected_apply_fault_surfaces_and_counts() {
        use afc_common::faults::{FaultRegistry, FaultSpec};
        let fs = nvram_store(FileStoreConfig::lightweight());
        let reg = Arc::new(FaultRegistry::new());
        fs.attach_faults(Arc::clone(&reg), 0);
        let apply = FaultSite::Apply {
            osd: 0,
            point: ApplyPoint::Apply,
        };
        reg.install(FaultSpec::new(apply, FaultKind::Error));
        let err = fs.apply_sync(write_txn("o", 64, false)).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert_eq!(fs.core.apply_errors.get(), 1);
        assert_eq!(fs.core.txns_applied.get(), 0);
        // One-shot spec is exhausted: the retry applies cleanly.
        fs.apply_sync(write_txn("o", 64, false)).unwrap();
        assert_eq!(fs.core.txns_applied.get(), 1);
        assert_eq!(reg.hits(apply), 1);
    }

    #[test]
    fn mid_apply_fault_leaves_reapplicable_state() {
        use afc_common::faults::{FaultRegistry, FaultSpec};
        let fs = nvram_store(FileStoreConfig::lightweight());
        let reg = Arc::new(FaultRegistry::new());
        fs.attach_faults(Arc::clone(&reg), 0);
        let mid_apply = FaultSite::Apply {
            osd: 0,
            point: ApplyPoint::MidApply,
        };
        reg.install(FaultSpec::new(mid_apply, FaultKind::Error));
        assert!(fs.apply_sync(write_txn("o", 64, false)).is_err());
        // Some ops landed, some didn't. Re-applying the journaled txn in
        // full is the recovery contract and must converge.
        fs.apply_sync(write_txn("o", 64, false)).unwrap();
        assert_eq!(
            fs.read("o", 0, 64, Instant::now()).unwrap().data,
            vec![7u8; 64]
        );
        assert_eq!(fs.stat("o").unwrap().size, 64);
    }

    #[test]
    fn crash_volatile_preserves_synced_state() {
        let fs = nvram_store(FileStoreConfig::lightweight());
        fs.apply_sync(write_txn("o", 128, false)).unwrap();
        fs.sync().unwrap();
        fs.crash_volatile().unwrap();
        assert_eq!(
            fs.read("o", 0, 128, Instant::now()).unwrap().data.len(),
            128
        );
        assert_eq!(fs.stat("o").unwrap().size, 128);
    }

    #[test]
    fn list_objects_includes_pgmeta() {
        let fs = nvram_store(FileStoreConfig::lightweight());
        fs.apply_sync(write_txn("a", 10, false)).unwrap();
        let objs = fs.list_objects();
        assert!(objs.contains(&"a".to_string()));
    }
}
