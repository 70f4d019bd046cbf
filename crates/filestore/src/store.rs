//! The filestore: transaction application over [`SimFs`] + the KV DB.

use crate::metacache::{MetaCache, ObjectMeta};
use crate::simfs::{PlannedRead, SimFs};
use crate::throttle::Throttle;
use crate::txn::{Transaction, TxOp};
use afc_common::faults::{FaultKind, FaultRegistry};
use afc_common::lockdep;
use afc_common::metrics::{Counter, Metrics};
use afc_common::{AfcError, Result};
use afc_device::BlockDev;
use afc_kvstore::{Db, DbConfig, WriteBatch, WriteOptions};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Late-bound fault hookup shared between the store and its apply workers.
/// Workers are spawned in `new()` before any registry can be attached, so
/// the handle is a `OnceLock` they all observe once `attach_faults` runs.
type FaultHandle = Arc<OnceLock<(Arc<FaultRegistry>, String)>>;

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

/// Filestore configuration.
#[derive(Debug, Clone)]
pub struct FileStoreConfig {
    /// Execution profile.
    pub profile: TxnProfile,
    /// `filestore_queue_max_ops`: in-flight transaction cap. The community
    /// default (50) is sized for HDDs; §3.2 retunes it for flash.
    pub queue_max_ops: u64,
    /// Apply worker threads.
    pub apply_threads: usize,
    /// Metadata cache capacity (objects); only consulted in `Lightweight`.
    pub meta_cache_entries: usize,
    /// `set-alloc-hint` is skipped for writes below this size (LWT only).
    pub small_write_threshold: u64,
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
            small_write_threshold: 64 * 1024,
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

/// Completion callback for an applied transaction.
pub type ApplyFn = Box<dyn FnOnce(Result<()>) + Send>;

struct Job {
    txn: Transaction,
    done: ApplyFn,
}

/// The object store backend. One per OSD, over that OSD's RAID-0 device
/// (shared with its KV DB, so metadata reads genuinely interfere with data
/// writes on the flash model).
pub struct FileStore {
    cfg: FileStoreConfig,
    fs: Arc<SimFs>,
    kv: Arc<Db>,
    throttle: Arc<Throttle>,
    cache: Arc<MetaCache>,
    /// One queue per apply worker; transactions are sharded by object so
    /// applies to the same object stay ordered (Ceph's per-PG op
    /// sequencer).
    shards: Vec<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    faults: FaultHandle,
    txns_applied: Counter,
    data_bytes: Counter,
    meta_reads: Counter,
    hints_skipped: Counter,
    apply_errors: Counter,
}

/// Everything the apply path needs, shared with worker threads.
struct ApplyCtx {
    cfg: FileStoreConfig,
    fs: Arc<SimFs>,
    kv: Arc<Db>,
    cache: Arc<MetaCache>,
    faults: FaultHandle,
    txns_applied: Counter,
    data_bytes: Counter,
    meta_reads: Counter,
    hints_skipped: Counter,
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
        let throttle = Arc::new(Throttle::new("filestore_queue_max_ops", cfg.queue_max_ops));
        let cache = Arc::new(MetaCache::new(cfg.meta_cache_entries.max(1)));
        let faults: FaultHandle = Arc::new(OnceLock::new());
        let txns_applied = Counter::new();
        let data_bytes = Counter::new();
        let meta_reads = Counter::new();
        let hints_skipped = Counter::new();
        let apply_errors = Counter::new();
        let mut workers = Vec::new();
        let mut shards = Vec::new();
        for i in 0..cfg.apply_threads.max(1) {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
            shards.push(tx);
            let ctx = ApplyCtx {
                cfg: cfg.clone(),
                fs: Arc::clone(&fs),
                kv: Arc::clone(&kv),
                cache: Arc::clone(&cache),
                faults: Arc::clone(&faults),
                txns_applied: txns_applied.clone(),
                data_bytes: data_bytes.clone(),
                meta_reads: meta_reads.clone(),
                hints_skipped: hints_skipped.clone(),
            };
            let errs = apply_errors.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("fs-apply-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let res = apply_txn(&ctx, job.txn);
                            if res.is_err() {
                                errs.inc();
                            }
                            (job.done)(res);
                        }
                    })
                    .map_err(|e| AfcError::Io(format!("spawn apply worker: {e}")))?,
            );
        }
        Ok(Arc::new(FileStore {
            cfg,
            fs,
            kv,
            throttle,
            cache,
            shards,
            workers,
            faults,
            txns_applied,
            data_bytes,
            meta_reads,
            hints_skipped,
            apply_errors,
        }))
    }

    /// Wire a fault registry into the apply path. `site` is the base name;
    /// the workers consult `{site}.apply` (fail the whole transaction up
    /// front) and `{site}.mid_apply` (fail between ops, leaving a partial
    /// apply behind for recovery to clean up). First attach wins.
    pub fn attach_faults(&self, registry: Arc<FaultRegistry>, site: impl Into<String>) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "first attach wins: a second registry is ignored"
        )]
        let _ = self.faults.set((registry, site.into()));
    }

    /// Simulate power loss on the backing store: volatile KV state (open
    /// memtables and unsynced WAL records) is discarded and the DB reopens
    /// from its durable image. Object data in [`SimFs`] models the on-disk
    /// files and survives. Journal replay after this restores whatever the
    /// lost KV records described. Returns the number of WAL records the KV
    /// recovery replayed.
    pub fn crash_volatile(&self) -> Result<usize> {
        self.cache.clear();
        self.kv.crash_and_recover()
    }

    /// Queue a transaction for application. Blocks on the filestore
    /// throttle when `queue_max_ops` transactions are in flight — the
    /// §2.4/Figure 4 backpressure point. `done` runs on an apply worker.
    pub fn queue_transaction(&self, txn: Transaction, done: ApplyFn) -> Result<()> {
        // Blocks on the filestore queue throttle when the apply backlog is
        // at `filestore_queue_max_ops` (the §3.2 stall this crate models).
        lockdep::assert_blockable("filestore queue_transaction");
        let permit = self.throttle.acquire_owned(1)?;
        let done: ApplyFn = Box::new(move |r| {
            drop(permit);
            done(r);
        });
        // Shard by the transaction's first object so same-object applies
        // are ordered (one worker = one sequence).
        let shard = match txn.ops().first() {
            Some(op) => {
                afc_common::rng::hash_bytes(op.object().as_bytes()) as usize % self.shards.len()
            }
            None => 0,
        };
        self.shards[shard]
            .send(Job { txn, done })
            .map_err(|_| AfcError::ShutDown("filestore".into()))
    }

    /// Queue and wait for application (tests, recovery replay).
    pub fn apply_sync(&self, txn: Transaction) -> Result<()> {
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
        rx.recv()
            .map_err(|_| AfcError::ShutDown("filestore".into()))?
    }

    /// Read object data: the bytes now, the device read planned (see
    /// [`PlannedRead`]).
    pub fn read(&self, object: &str, offset: u64, len: usize) -> Result<PlannedRead> {
        self.fs.read(object, offset, len)
    }

    /// Object metadata via cache → KV → `NotFound`.
    pub fn stat(&self, object: &str) -> Result<ObjectMeta> {
        if self.cfg.profile == TxnProfile::Lightweight {
            if let Some(m) = self.cache.get(object) {
                return Ok(m);
            }
        }
        match self.kv.get(&meta_key(object))? {
            Some(v) => {
                decode_meta(&v).ok_or_else(|| AfcError::Corruption(format!("meta {object}")))
            }
            None => Err(AfcError::NotFound(format!("object {object}"))),
        }
    }

    /// Whether the object exists.
    pub fn exists(&self, object: &str) -> bool {
        self.fs.exists(object)
    }

    /// Read one omap value.
    pub fn omap_get(&self, object: &str, key: &[u8]) -> Result<Option<Bytes>> {
        self.kv.get(&omap_key(object, key))
    }

    /// All omap pairs of an object (key order).
    pub fn omap_scan(&self, object: &str) -> Result<Vec<(Bytes, Bytes)>> {
        let prefix = omap_key(object, b"");
        let items = self.kv.scan_prefix(&prefix)?;
        Ok(items
            .into_iter()
            .map(|(k, v)| (Bytes::copy_from_slice(&k[prefix.len()..]), v))
            .collect())
    }

    /// Read an object xattr (filesystem first, then the KV store where the
    /// light-weight path keeps attrs).
    pub fn getattr(&self, object: &str, name: &str) -> Result<Option<Bytes>> {
        if self.cfg.profile == TxnProfile::Lightweight {
            if let Some(v) = self.kv.get(&attr_key(object, name))? {
                return Ok(Some(v));
            }
            if !self.fs.exists(object) {
                return Err(AfcError::NotFound(format!("object {object}")));
            }
            return Ok(None);
        }
        self.fs.getxattr(object, name)
    }

    /// List every object (recovery/scrub).
    pub fn list_objects(&self) -> Vec<String> {
        self.fs.list()
    }

    /// In-flight (queued + applying) transactions.
    pub fn queue_len(&self) -> u64 {
        self.throttle.in_use()
    }

    /// Block until the apply queue drains (test/bench helper).
    pub fn wait_idle(&self) {
        while self.throttle.in_use() > 0 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    /// Retune the throttle at runtime (§3.2 system tuning).
    pub fn set_queue_max_ops(&self, max: u64) {
        self.throttle.set_max(max);
    }

    /// Filestore `sync_entry`: force buffered KV state durable (WAL sync +
    /// memtable flush). Benchmarks call this before reading WA counters.
    pub fn sync(&self) -> Result<()> {
        self.kv.flush()
    }

    /// Register the filestore's counters into a cluster metric registry:
    /// apply-path counters, throttle waits, metadata-cache hit/miss and
    /// syscall counts under `<prefix>.<field>` (e.g. `osd0.fs.txns_applied`,
    /// `osd0.fs.throttle.waits`, `osd0.fs.cache_hits`, `osd0.fs.sys.open`).
    pub fn register_metrics(&self, m: &Metrics, prefix: &str) {
        let fields: [(&str, &Counter); 5] = [
            ("txns_applied", &self.txns_applied),
            ("data_bytes", &self.data_bytes),
            ("meta_reads", &self.meta_reads),
            ("hints_skipped", &self.hints_skipped),
            ("apply_errors", &self.apply_errors),
        ];
        for (name, cell) in fields {
            m.register_counter(format!("{prefix}.{name}"), cell);
        }
        self.throttle
            .register_into(m, &format!("{prefix}.throttle"));
        self.cache.register_into(m, prefix);
        self.fs.register_into(m, prefix);
    }

    /// Register the backing KV database's counters under `<kv_prefix>`
    /// (e.g. `osd0.kv.wal_bytes`); kept separate from the filestore's own
    /// prefix because write amplification is a KV-level measure.
    pub fn register_kv_metrics(&self, m: &Metrics, kv_prefix: &str) {
        self.kv.register_metrics(m, kv_prefix);
    }

    /// The simulated filesystem.
    pub fn fs(&self) -> &Arc<SimFs> {
        &self.fs
    }

    /// The configured profile.
    pub fn profile(&self) -> TxnProfile {
        self.cfg.profile
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        self.throttle.close();
        // Closing the channels stops the workers once drained.
        self.shards.clear();
        for h in self.workers.drain(..) {
            if h.thread().id() != std::thread::current().id() {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "a worker that panicked has already reported it; drop goes on"
                )]
                let _ = h.join();
            }
        }
    }
}

/// Consult the attached fault registry (if any) at `{base}.{point}`.
/// `Error` and `Torn` both fail the apply; `Delay` stalls the worker;
/// `Drop`/`Duplicate` have no meaning here and are ignored.
fn check_apply_fault(ctx: &ApplyCtx, point: &str) -> Result<()> {
    let Some((reg, site)) = ctx.faults.get() else {
        return Ok(());
    };
    match reg.check_io(site, point) {
        None | Some(FaultKind::Drop) | Some(FaultKind::Duplicate) => Ok(()),
        Some(FaultKind::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(FaultKind::Error) | Some(FaultKind::Torn) => Err(AfcError::Io(format!(
            "injected apply fault at {site}.{point}"
        ))),
    }
}

fn apply_txn(ctx: &ApplyCtx, txn: Transaction) -> Result<()> {
    // Fail before any op touches state: the clean "apply never started"
    // fault. Recovery just re-applies the journaled transaction.
    check_apply_fault(ctx, "apply")?;
    let lightweight = ctx.cfg.profile == TxnProfile::Lightweight;
    let txn = if lightweight { txn.dedup() } else { txn };
    // LWT: FD cache (first open wins) and one KV batch for the whole txn.
    let mut opened: HashSet<String> = HashSet::new();
    let mut batch = WriteBatch::new();
    let small_txn = txn.data_bytes() < ctx.cfg.small_write_threshold;
    for (ops_done, op) in txn.ops().iter().enumerate() {
        if ops_done > 0 {
            // The dirty fault: some ops already hit the store. Surfaced so
            // the caller keeps the journal entry and re-applies after
            // recovery (applies are idempotent by construction).
            check_apply_fault(ctx, "mid_apply")?;
        }
        match op {
            TxOp::Touch { object } => {
                ensure_open(ctx, &mut opened, object, lightweight)?;
            }
            TxOp::Write {
                object,
                offset,
                data,
            } => {
                ensure_open(ctx, &mut opened, object, lightweight)?;
                // Metadata read-modify-write (community) or cache (LWT).
                let mut meta = read_meta_for_write(ctx, object, lightweight)?;
                ctx.fs.write(object, *offset, data)?;
                ctx.data_bytes.add(data.len() as u64);
                meta.size = meta.size.max(offset + data.len() as u64);
                meta.version += 1;
                let encoded = encode_meta(&meta);
                if lightweight {
                    batch.put(meta_key(object), encoded);
                    ctx.cache.put(object, meta);
                } else {
                    // Separate synchronous-ish KV commit + xattr write.
                    ctx.kv
                        .put(meta_key(object), encoded.clone(), WriteOptions::async_())?;
                    ctx.fs.setxattr(object, "_", encoded)?;
                }
            }
            TxOp::Truncate { object, size } => {
                ensure_open(ctx, &mut opened, object, lightweight)?;
                ctx.fs.truncate(object, *size)?;
                let mut meta = read_meta_for_write(ctx, object, lightweight)?;
                meta.size = *size;
                meta.version += 1;
                let encoded = encode_meta(&meta);
                if lightweight {
                    batch.put(meta_key(object), encoded);
                    ctx.cache.put(object, meta);
                } else {
                    ctx.kv
                        .put(meta_key(object), encoded, WriteOptions::async_())?;
                }
            }
            TxOp::Remove { object } => {
                ctx.fs.unlink(object)?;
                ctx.cache.invalidate(object);
                if lightweight {
                    batch.delete(meta_key(object));
                } else {
                    ctx.kv.delete(meta_key(object), WriteOptions::async_())?;
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
                    ensure_open(ctx, &mut opened, object, lightweight)?;
                    for (name, value) in attrs {
                        ctx.fs.setxattr(object, name, value.clone())?;
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
                        ctx.kv
                            .put(omap_key(object, k), v.clone(), WriteOptions::async_())?;
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
                        ctx.kv.delete(omap_key(object, k), WriteOptions::async_())?;
                    }
                }
            }
            TxOp::SetAllocHint { object } => {
                if lightweight && small_txn {
                    ctx.hints_skipped.inc();
                } else {
                    ensure_open(ctx, &mut opened, object, lightweight)?;
                    ctx.fs.fallocate_hint(object)?;
                }
            }
        }
    }
    if !batch.is_empty() {
        ctx.kv.write_batch(&batch, WriteOptions::async_())?;
    }
    ctx.txns_applied.inc();
    Ok(())
}

fn ensure_open(
    ctx: &ApplyCtx,
    opened: &mut HashSet<String>,
    object: &str,
    lightweight: bool,
) -> Result<()> {
    if lightweight {
        if opened.insert(object.to_string()) {
            ctx.fs.open_create(object)?;
        }
        Ok(())
    } else {
        // Community path re-opens for every op.
        ctx.fs.open_create(object)
    }
}

/// The §3.4 metadata read: community always reads meta back from storage
/// (KV probe + xattr fetch → device reads → flash read/write interference);
/// LWT consults the write-through cache and only reads on a cold miss.
fn read_meta_for_write(ctx: &ApplyCtx, object: &str, lightweight: bool) -> Result<ObjectMeta> {
    if lightweight {
        if let Some(m) = ctx.cache.get(object) {
            return Ok(m);
        }
    }
    ctx.meta_reads.inc();
    let from_kv = ctx.kv.get(&meta_key(object))?.and_then(|v| decode_meta(&v));
    if !lightweight {
        // xattr fetch (device read) — part of the community RMW.
        let _ = ctx.fs.getxattr(object, "_")?;
    }
    let meta = from_kv.unwrap_or_default();
    if lightweight {
        ctx.cache.put(object, meta.clone());
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
        assert_eq!(fs.read("obj", 0, 4096).unwrap().data, vec![7u8; 4096]);
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
        assert_eq!(fs.txns_applied.get(), 1);
    }

    #[test]
    fn apply_roundtrip_lightweight() {
        let fs = nvram_store(FileStoreConfig::lightweight());
        fs.apply_sync(write_txn("obj", 4096, true)).unwrap();
        assert_eq!(fs.read("obj", 0, 4096).unwrap().data, vec![7u8; 4096]);
        assert_eq!(fs.stat("obj").unwrap().size, 4096);
        assert_eq!(fs.hints_skipped.get(), 1, "small-write hint not skipped");
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
            lwt.kv.stats().commits.get() * 2 <= comm.kv.stats().commits.get(),
            "lwt={} comm={}",
            lwt.kv.stats().commits.get(),
            comm.kv.stats().commits.get()
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
        assert_eq!(comm.meta_reads.get(), 20);
        assert_eq!(lwt.meta_reads.get(), 1, "only the cold miss");
        assert!(lwt.cache.hits.get() >= 19);
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
        assert_eq!(fs.read("o", 0, 100).unwrap().data.len(), 10);
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
                Box::new(|r| r.unwrap()),
            )
            .unwrap();
        }
        fs.wait_idle();
        assert!(fs.throttle.waits.get() > 0, "queue never filled");
        assert_eq!(fs.txns_applied.get(), 12);
    }

    #[test]
    fn queue_transaction_async_completion() {
        let fs = nvram_store(FileStoreConfig::lightweight());
        let (tx, rx) = crossbeam::channel::bounded(1);
        fs.queue_transaction(
            write_txn("o", 64, false),
            Box::new(move |r| {
                tx.send(r).unwrap();
            }),
        )
        .unwrap();
        rx.recv().unwrap().unwrap();
        assert_eq!(fs.queue_len(), 0);
    }

    #[test]
    fn injected_apply_fault_surfaces_and_counts() {
        use afc_common::faults::{FaultRegistry, FaultSpec};
        let fs = nvram_store(FileStoreConfig::lightweight());
        let reg = Arc::new(FaultRegistry::new());
        fs.attach_faults(Arc::clone(&reg), "fs0");
        reg.install(FaultSpec::new(
            "fs0.apply",
            afc_common::faults::FaultKind::Error,
        ));
        let err = fs.apply_sync(write_txn("o", 64, false)).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert_eq!(fs.apply_errors.get(), 1);
        assert_eq!(fs.txns_applied.get(), 0);
        // One-shot spec is exhausted: the retry applies cleanly.
        fs.apply_sync(write_txn("o", 64, false)).unwrap();
        assert_eq!(fs.txns_applied.get(), 1);
        assert_eq!(reg.hits("fs0.apply"), 1);
    }

    #[test]
    fn mid_apply_fault_leaves_reapplicable_state() {
        use afc_common::faults::{FaultKind, FaultRegistry, FaultSpec};
        let fs = nvram_store(FileStoreConfig::lightweight());
        let reg = Arc::new(FaultRegistry::new());
        fs.attach_faults(Arc::clone(&reg), "fs0");
        reg.install(FaultSpec::new("fs0.mid_apply", FaultKind::Error));
        assert!(fs.apply_sync(write_txn("o", 64, false)).is_err());
        // Some ops landed, some didn't. Re-applying the journaled txn in
        // full is the recovery contract and must converge.
        fs.apply_sync(write_txn("o", 64, false)).unwrap();
        assert_eq!(fs.read("o", 0, 64).unwrap().data, vec![7u8; 64]);
        assert_eq!(fs.stat("o").unwrap().size, 64);
    }

    #[test]
    fn crash_volatile_preserves_synced_state() {
        let fs = nvram_store(FileStoreConfig::lightweight());
        fs.apply_sync(write_txn("o", 128, false)).unwrap();
        fs.sync().unwrap();
        fs.crash_volatile().unwrap();
        assert_eq!(fs.read("o", 0, 128).unwrap().data.len(), 128);
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
