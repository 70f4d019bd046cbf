//! The database façade: commit path, read path, stalls, recovery.

use crate::batch::{BatchOp, WriteBatch};
use crate::compaction;
#[cfg(test)]
use crate::compaction::CompactionJob;
use crate::memtable::MemTable;
use crate::sstable::{merge_runs, SsTable};
use crate::stats::DbStatsCell;
use crate::wal::Wal;
use crate::{Key, Value};
use afc_common::{wait_until, AfcError, Result, KIB, MIB};
use afc_device::{BlockDev, IoReq, StreamId};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for the store.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Freeze the active memtable at this size.
    pub memtable_bytes: u64,
    /// Start L0→L1 compaction at this many L0 tables.
    pub l0_compact_threshold: usize,
    /// Stall writers at this many L0 tables.
    pub l0_stall_threshold: usize,
    /// Stall writers at this many frozen memtables.
    pub max_imm: usize,
    /// Device region reserved for the WAL.
    pub wal_region: u64,
    /// Async commits group into device writes of this size.
    pub group_commit_bytes: u64,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            memtable_bytes: MIB,
            l0_compact_threshold: 4,
            l0_stall_threshold: 12,
            max_imm: 2,
            wal_region: 64 * MIB,
            group_commit_bytes: 32 * KIB,
        }
    }
}

/// Commit durability options.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOptions {
    /// Force the WAL record to the device before returning.
    pub sync: bool,
}

impl WriteOptions {
    /// Synchronous commit.
    pub fn sync() -> Self {
        WriteOptions { sync: true }
    }

    /// Asynchronous (group-committed) commit.
    pub fn async_() -> Self {
        WriteOptions { sync: false }
    }
}

pub(crate) struct State {
    pub(crate) mem: MemTable,
    pub(crate) imms: VecDeque<Arc<MemTable>>,
    pub(crate) freeze_marks: VecDeque<u64>,
    pub(crate) l0: Vec<Arc<SsTable>>,
    pub(crate) l1: Option<Arc<SsTable>>,
    pub(crate) shutdown: bool,
}

pub(crate) struct Inner {
    pub(crate) cfg: DbConfig,
    pub(crate) dev: Arc<dyn BlockDev>,
    pub(crate) state: Mutex<State>,
    pub(crate) work_cv: Condvar,
    pub(crate) stall_cv: Condvar,
    pub(crate) commit: Mutex<Wal>,
    pub(crate) stats: DbStatsCell,
    pub(crate) table_seq: AtomicU64,
    pub(crate) data_base: u64,
    pub(crate) data_cursor: AtomicU64,
}

impl Inner {
    /// Charge a device write of `bytes` in ≤1 MiB chunks within the data
    /// region (ring allocation; tables live in memory, the device only
    /// models timing and byte counts).
    pub(crate) fn charge_table_write(&self, bytes: u64) -> Result<()> {
        let region = self.dev.capacity().saturating_sub(self.data_base).max(MIB);
        let mut remaining = bytes;
        while remaining > 0 {
            let chunk = remaining.min(MIB);
            let off =
                self.data_cursor.fetch_add(chunk, Ordering::Relaxed) % (region - chunk).max(1);
            self.dev.submit(IoReq::write_stream(
                self.data_base + off,
                chunk as u32,
                StreamId::KvCompaction,
            ))?;
            remaining -= chunk;
        }
        Ok(())
    }

    /// Plan a device read of `bytes` in ≤1 MiB chunks, one after the
    /// other from `at`, and move `at` to the last completion.
    pub(crate) fn charge_table_read(&self, bytes: u64, at: &mut Instant) -> Result<()> {
        let region = self.dev.capacity().saturating_sub(self.data_base).max(MIB);
        let mut remaining = bytes;
        while remaining > 0 {
            let chunk = remaining.min(MIB);
            let off = self.data_cursor.load(Ordering::Relaxed) % (region - chunk).max(1);
            let req = IoReq::read(self.data_base + off, chunk as u32);
            *at = self.dev.plan_at(req, *at)?.completion;
            remaining -= chunk;
        }
        Ok(())
    }

    /// Wait out a chain planned from `start` to `at` (the blocking entry
    /// points); no wait when it planned nothing.
    pub(crate) fn wait(&self, start: Instant, at: Instant) {
        if at > start {
            wait_until(self.dev.wait_class(), at);
        }
    }
}

/// An LSM key-value store over a [`BlockDev`] timing model.
///
/// See the crate docs for the behaviours modeled. The public API mirrors the
/// subset of LevelDB that Ceph's filestore uses: point get, batch write,
/// prefix/range scan, and explicit flush.
pub struct Db {
    inner: Arc<Inner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Db {
    /// Open a store on `dev` with `cfg`. Fails if the background
    /// compaction worker cannot be spawned.
    pub fn open(dev: Arc<dyn BlockDev>, cfg: DbConfig) -> Result<Self> {
        let wal = Wal::new(Arc::clone(&dev), cfg.wal_region);
        let data_base = cfg.wal_region.min(dev.capacity() / 2);
        let inner = Arc::new(Inner {
            cfg,
            dev,
            state: Mutex::new(State {
                mem: MemTable::new(),
                imms: VecDeque::new(),
                freeze_marks: VecDeque::new(),
                l0: Vec::new(),
                l1: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            stall_cv: Condvar::new(),
            commit: Mutex::new(wal),
            stats: DbStatsCell::default(),
            table_seq: AtomicU64::new(1),
            data_base,
            data_cursor: AtomicU64::new(0),
        });
        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("kv-compact".into())
                .spawn(move || compaction::run(inner))
                .map_err(|e| AfcError::Io(format!("spawn compaction thread: {e}")))?
        };
        Ok(Db {
            inner,
            worker: Some(worker),
        })
    }

    fn stall_wait(&self) -> Result<()> {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        while st.imms.len() >= inner.cfg.max_imm || st.l0.len() >= inner.cfg.l0_stall_threshold {
            if st.shutdown {
                return Err(AfcError::ShutDown("kvstore".into()));
            }
            inner.stats.stalls.inc();
            let t0 = Instant::now();
            inner.work_cv.notify_one();
            inner.stall_cv.wait(&mut st);
            inner.stats.stall_us.add(t0.elapsed().as_micros() as u64);
        }
        if st.shutdown {
            return Err(AfcError::ShutDown("kvstore".into()));
        }
        Ok(())
    }

    /// Commit a batch atomically, waiting for any log write it triggers.
    pub fn write_batch(&self, batch: &WriteBatch, opts: WriteOptions) -> Result<()> {
        let start = Instant::now();
        let mut at = start;
        self.write_batch_at(batch, opts, &mut at)?;
        self.inner.wait(start, at);
        Ok(())
    }

    /// Commit a batch atomically as the next step of a chain at `at`: a
    /// log write it triggers is planned from there (see [`Wal`]), not
    /// waited for, and `at` moves to its completion. A write stall (too
    /// many frozen memtables or L0 tables) still blocks the caller until
    /// compaction catches up.
    pub fn write_batch_at(
        &self,
        batch: &WriteBatch,
        opts: WriteOptions,
        at: &mut Instant,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.stall_wait()?;
        let inner = &self.inner;
        inner.stats.user_bytes.add(batch.payload_bytes());
        inner.stats.commits.inc();
        let mut wal = inner.commit.lock();
        let charged = if opts.sync {
            wal.append_sync(batch.ops(), at)?
        } else {
            wal.append_async(batch.ops(), inner.cfg.group_commit_bytes, at)?
        };
        inner.stats.wal_bytes.add(charged);
        let mut st = inner.state.lock();
        if st.shutdown {
            return Err(AfcError::ShutDown("kvstore".into()));
        }
        st.mem.apply_ops(batch.ops());
        if st.mem.approx_bytes() >= inner.cfg.memtable_bytes {
            let full = std::mem::take(&mut st.mem);
            st.imms.push_back(Arc::new(full));
            st.freeze_marks.push_back(wal.appended_records());
            inner.work_cv.notify_one();
        }
        Ok(())
    }

    /// Put a single key (one-op batch — the baseline filestore path).
    pub fn put(
        &self,
        key: impl Into<Key>,
        value: impl Into<Value>,
        opts: WriteOptions,
    ) -> Result<()> {
        let mut b = WriteBatch::new();
        b.put(key.into(), value.into());
        self.write_batch(&b, opts)
    }

    /// Delete a single key.
    pub fn delete(&self, key: impl Into<Key>, opts: WriteOptions) -> Result<()> {
        let mut b = WriteBatch::new();
        b.delete(key.into());
        self.write_batch(&b, opts)
    }

    /// Point lookup. Memtable hits are free; SSTable probes charge a device
    /// read (this is the metadata-read traffic §3.4 removes with the
    /// write-through cache), which this waits for.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>> {
        let start = Instant::now();
        let mut at = start;
        let v = self.get_at(key, &mut at)?;
        self.inner.wait(start, at);
        Ok(v)
    }

    /// [`Self::get`] as the next step of a chain at `at`: a table read is
    /// planned from there and `at` moves to its completion.
    pub fn get_at(&self, key: &[u8], at: &mut Instant) -> Result<Option<Value>> {
        let inner = &self.inner;
        inner.stats.gets.inc();
        let (l0, l1) = {
            let st = inner.state.lock();
            if let Some(v) = st.mem.get(key) {
                return Ok(v);
            }
            for imm in st.imms.iter().rev() {
                if let Some(v) = imm.get(key) {
                    return Ok(v);
                }
            }
            (st.l0.clone(), st.l1.clone())
        };
        for t in l0.iter().rev() {
            if let Some(v) = t.get(key) {
                inner.stats.table_reads.inc();
                inner.charge_table_read(4 * KIB, at)?;
                return Ok(v);
            }
        }
        if let Some(t) = l1 {
            if let Some(v) = t.get(key) {
                inner.stats.table_reads.inc();
                inner.charge_table_read(4 * KIB, at)?;
                return Ok(v);
            }
        }
        Ok(None)
    }

    /// Range scan `lo <= key < hi`, tombstones resolved, key order.
    pub fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Key, Value)>> {
        let inner = &self.inner;
        let (mem_ops, imm_ops, l0, l1) = {
            let st = inner.state.lock();
            let mem_ops: Vec<BatchOp> = st
                .mem
                .range(lo, hi)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            let imm_ops: Vec<Vec<BatchOp>> = st
                .imms
                .iter()
                .rev()
                .map(|im| {
                    im.range(lo, hi)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect()
                })
                .collect();
            (mem_ops, imm_ops, st.l0.clone(), st.l1.clone())
        };
        let mut runs: Vec<Vec<BatchOp>> = vec![mem_ops];
        runs.extend(imm_ops);
        let start = Instant::now();
        let mut at = start;
        for t in l0.iter().rev() {
            let r = t.range(lo, hi);
            if !r.is_empty() {
                inner.stats.table_reads.inc();
                inner.charge_table_read(4 * KIB, &mut at)?;
            }
            runs.push(r.to_vec());
        }
        if let Some(t) = &l1 {
            let r = t.range(lo, hi);
            if !r.is_empty() {
                inner.stats.table_reads.inc();
                inner.charge_table_read(4 * KIB, &mut at)?;
            }
            runs.push(r.to_vec());
        }
        inner.wait(start, at);
        let refs: Vec<&[BatchOp]> = runs.iter().map(|r| r.as_slice()).collect();
        Ok(merge_runs(&refs, true)
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect())
    }

    /// Scan all keys with `prefix`.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Key, Value)>> {
        let mut hi = prefix.to_vec();
        // Smallest key strictly greater than every prefixed key.
        loop {
            match hi.last_mut() {
                Some(255) => {
                    hi.pop();
                }
                Some(b) => {
                    *b += 1;
                    break;
                }
                None => return self.scan(prefix, &[0xffu8; 64]), // prefix = 0xff* → scan to max
            }
        }
        self.scan(prefix, &hi)
    }

    /// Force the active memtable to freeze and wait until every frozen
    /// memtable is durable in L0 (WAL emptied of replay obligations).
    pub fn flush(&self) -> Result<()> {
        let inner = &self.inner;
        let start = Instant::now();
        let mut at = start;
        {
            let mut wal = inner.commit.lock();
            let charged = wal.sync(&mut at)?;
            inner.stats.wal_bytes.add(charged);
            let mut st = inner.state.lock();
            if !st.mem.is_empty() {
                let full = std::mem::take(&mut st.mem);
                st.imms.push_back(Arc::new(full));
                st.freeze_marks.push_back(wal.appended_records());
                inner.work_cv.notify_one();
            }
        }
        inner.wait(start, at);
        // Wait for the background worker to drain the imm queue.
        let mut st = inner.state.lock();
        while !st.imms.is_empty() {
            if st.shutdown {
                return Err(AfcError::ShutDown("kvstore".into()));
            }
            inner.work_cv.notify_one();
            inner.stall_cv.wait(&mut st);
        }
        Ok(())
    }

    /// Wait until compaction debt is fully paid (imms drained and L0 below
    /// the compaction threshold). Test/bench helper.
    pub fn wait_idle(&self) {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        while !st.imms.is_empty() || st.l0.len() >= inner.cfg.l0_compact_threshold {
            if st.shutdown {
                return;
            }
            inner.work_cv.notify_one();
            inner.stall_cv.wait(&mut st);
        }
    }

    /// Simulate a power failure and recover: volatile state (memtable,
    /// frozen-but-unflushed memtables, un-synced WAL records) is lost;
    /// recovery replays durable WAL records. Returns the number of records
    /// replayed.
    pub fn crash_and_recover(&self) -> Result<usize> {
        let inner = &self.inner;
        let mut wal = inner.commit.lock();
        let mut st = inner.state.lock();
        wal.drop_volatile();
        st.mem = MemTable::new();
        st.imms.clear();
        st.freeze_marks.clear();
        let records = wal.replay_records(true);
        let n = records.len();
        for rec in records {
            st.mem.apply_ops(rec);
        }
        Ok(n)
    }

    /// The database's live counters.
    pub fn stats(&self) -> &DbStatsCell {
        &self.inner.stats
    }

    /// Register this database's stat counters into a cluster metric
    /// registry under `<prefix>.<field>` (e.g. `osd0.kv.wal_bytes`).
    pub fn register_metrics(&self, m: &afc_common::metrics::Metrics, prefix: &str) {
        self.inner.stats.register_into(m, prefix);
    }

    /// Current shape of the store `(memtable bytes, #imm, #L0, L1 bytes)`.
    pub fn shape(&self) -> (u64, usize, usize, u64) {
        let st = self.inner.state.lock();
        (
            st.mem.approx_bytes(),
            st.imms.len(),
            st.l0.len(),
            st.l1.as_ref().map(|t| t.bytes()).unwrap_or(0),
        )
    }

    #[cfg(test)]
    pub(crate) fn pick_job_for_test(&self) -> Option<CompactionJob> {
        compaction::pick_job(&mut self.inner.state.lock(), &self.inner.cfg)
    }

    /// Dump every live key-value pair (diagnostics / property tests).
    pub fn dump(&self) -> Result<BTreeMap<Key, Value>> {
        Ok(self.scan(&[], &[0xffu8; 64])?.into_iter().collect())
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        self.inner.stall_cv.notify_all();
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
    use afc_device::{Nvram, NvramConfig, Ssd, SsdConfig};
    use bytes::Bytes;

    fn fast_db(cfg: DbConfig) -> Db {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        Db::open(dev, cfg).expect("open db")
    }

    fn kv(i: usize) -> (Bytes, Bytes) {
        (
            Bytes::from(format!("key{i:06}")),
            Bytes::from(format!("value-{i:06}")),
        )
    }

    #[test]
    fn put_get_roundtrip() {
        let db = fast_db(DbConfig::default());
        for i in 0..100 {
            let (k, v) = kv(i);
            db.put(k, v, WriteOptions::sync()).unwrap();
        }
        for i in 0..100 {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap().unwrap(), v);
        }
        assert!(db.get(b"missing").unwrap().is_none());
    }

    #[test]
    fn delete_hides_key_across_levels() {
        let cfg = DbConfig {
            memtable_bytes: 512,
            ..DbConfig::default()
        }; // frequent flushes
        let db = fast_db(cfg);
        let (k, v) = kv(1);
        db.put(k.clone(), v, WriteOptions::sync()).unwrap();
        db.flush().unwrap();
        db.delete(k.clone(), WriteOptions::sync()).unwrap();
        assert!(db.get(&k).unwrap().is_none());
        db.flush().unwrap();
        db.wait_idle();
        assert!(db.get(&k).unwrap().is_none());
    }

    #[test]
    fn flush_moves_data_to_l0_and_survives() {
        let db = fast_db(DbConfig::default());
        for i in 0..50 {
            let (k, v) = kv(i);
            db.put(k, v, WriteOptions::sync()).unwrap();
        }
        db.flush().unwrap();
        let (_mem, imms, l0, _l1) = db.shape();
        assert_eq!(imms, 0);
        assert!(l0 >= 1);
        let (k, v) = kv(25);
        assert_eq!(db.get(&k).unwrap().unwrap(), v);
        assert!(db.stats().flushes.get() >= 1);
    }

    #[test]
    fn compaction_merges_l0_into_l1() {
        let cfg = DbConfig {
            memtable_bytes: 2048,
            l0_compact_threshold: 2,
            ..DbConfig::default()
        };
        let db = fast_db(cfg);
        for i in 0..600 {
            let (k, v) = kv(i % 150);
            db.put(k, v, WriteOptions::async_()).unwrap();
        }
        db.flush().unwrap();
        db.wait_idle();
        let (_, _, l0, l1_bytes) = db.shape();
        assert!(l0 < 2, "l0={l0}");
        assert!(l1_bytes > 0);
        assert!(db.stats().compactions.get() >= 1);
        for i in 0..150 {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap().unwrap(), v, "key {i}");
        }
    }

    #[test]
    fn write_amplification_tracked() {
        let cfg = DbConfig {
            memtable_bytes: 4096,
            l0_compact_threshold: 2,
            ..DbConfig::default()
        };
        let db = fast_db(cfg);
        for i in 0..2000 {
            let (k, v) = kv(i % 400);
            db.put(k, v, WriteOptions::async_()).unwrap();
        }
        db.flush().unwrap();
        db.wait_idle();
        let s = db.stats();
        assert!(s.user_bytes.get() > 0);
        assert!(
            s.write_amplification() > 1.0,
            "wa={}",
            s.write_amplification()
        );
        assert!(s.compact_write_bytes.get() > 0);
    }

    #[test]
    fn batch_is_atomic_in_order() {
        let db = fast_db(DbConfig::default());
        let mut b = WriteBatch::new();
        b.put(&b"k"[..], &b"first"[..]);
        b.put(&b"k"[..], &b"second"[..]);
        b.delete(&b"gone"[..]);
        db.write_batch(&b, WriteOptions::sync()).unwrap();
        assert_eq!(db.get(b"k").unwrap().unwrap().as_ref(), b"second");
    }

    #[test]
    fn scan_merges_all_sources() {
        let cfg = DbConfig {
            memtable_bytes: 1024,
            ..DbConfig::default()
        };
        let db = fast_db(cfg);
        for i in 0..200 {
            let (k, v) = kv(i);
            db.put(k, v, WriteOptions::async_()).unwrap();
        }
        // Overwrite some in the (new) memtable after flush.
        db.flush().unwrap();
        db.put(kv(10).0, Bytes::from("NEW"), WriteOptions::sync())
            .unwrap();
        db.delete(kv(11).0, WriteOptions::sync()).unwrap();
        let all = db.scan_prefix(b"key").unwrap();
        assert_eq!(all.len(), 199);
        let as_map: BTreeMap<_, _> = all.into_iter().collect();
        assert_eq!(as_map.get(&kv(10).0).unwrap().as_ref(), b"NEW");
        assert!(!as_map.contains_key(&kv(11).0));
        // Range scan subset.
        let sub = db.scan(b"key000100", b"key000110").unwrap();
        assert_eq!(sub.len(), 10);
    }

    #[test]
    fn crash_recovers_synced_writes() {
        let db = fast_db(DbConfig::default());
        db.put(&b"durable"[..], &b"1"[..], WriteOptions::sync())
            .unwrap();
        db.put(&b"volatile"[..], &b"2"[..], WriteOptions::async_())
            .unwrap();
        let replayed = db.crash_and_recover().unwrap();
        assert!(replayed >= 1);
        assert_eq!(db.get(b"durable").unwrap().unwrap().as_ref(), b"1");
        assert!(
            db.get(b"volatile").unwrap().is_none(),
            "async write must be lost"
        );
    }

    #[test]
    fn crash_preserves_flushed_data() {
        let db = fast_db(DbConfig::default());
        for i in 0..100 {
            let (k, v) = kv(i);
            db.put(k, v, WriteOptions::async_()).unwrap();
        }
        db.flush().unwrap();
        db.crash_and_recover().unwrap();
        for i in 0..100 {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap().unwrap(), v, "key {i} lost");
        }
    }

    #[test]
    fn stalls_engage_under_pressure() {
        // A slow SSD device + tiny thresholds force the writer to outrun
        // compaction and stall.
        let dev = Arc::new(Ssd::new(SsdConfig {
            jitter: 0.0,
            ..SsdConfig::sata3()
        }));
        let cfg = DbConfig {
            memtable_bytes: 512,
            l0_compact_threshold: 1,
            l0_stall_threshold: 2,
            max_imm: 1,
            ..DbConfig::default()
        };
        let db = Db::open(dev, cfg).unwrap();
        for i in 0..300 {
            let (k, _) = kv(i);
            db.put(k, Bytes::from(vec![7u8; 64]), WriteOptions::async_())
                .unwrap();
        }
        let s = db.stats();
        assert!(s.stalls.get() > 0, "expected stalls, got {s:?}");
        assert!(s.stall_us.get() > 0);
    }

    #[test]
    fn shutdown_rejects_writes() {
        let db = fast_db(DbConfig::default());
        {
            let mut st = db.inner.state.lock();
            st.shutdown = true;
        }
        db.inner.stall_cv.notify_all();
        let err = db
            .put(&b"k"[..], &b"v"[..], WriteOptions::sync())
            .unwrap_err();
        assert_eq!(err.kind(), "shut_down");
        // Reset so Drop's join completes normally.
    }

    #[test]
    fn scan_prefix_edge_cases() {
        let db = fast_db(DbConfig::default());
        db.put(&b"\xff\xff"[..], &b"top"[..], WriteOptions::sync())
            .unwrap();
        db.put(&b"a"[..], &b"1"[..], WriteOptions::sync()).unwrap();
        let all = db.scan_prefix(b"\xff").unwrap();
        assert_eq!(all.len(), 1);
        let a = db.scan_prefix(b"a").unwrap();
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn dump_equals_model() {
        let db = fast_db(DbConfig {
            memtable_bytes: 1024,
            ..DbConfig::default()
        });
        let mut model = BTreeMap::new();
        for i in 0..300 {
            let (k, v) = kv(i % 97);
            db.put(k.clone(), v.clone(), WriteOptions::async_())
                .unwrap();
            model.insert(k, v);
        }
        for i in (0..97).step_by(3) {
            let (k, _) = kv(i);
            db.delete(k.clone(), WriteOptions::async_()).unwrap();
            model.remove(&k);
        }
        db.flush().unwrap();
        db.wait_idle();
        assert_eq!(db.dump().unwrap(), model);
    }
}
