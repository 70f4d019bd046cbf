//! Background flush and compaction worker.
//!
//! One thread per [`crate::Db`] (LevelDB-style): it drains frozen memtables
//! into L0 tables, and merges L0 pile-ups plus the current L1 into a fresh
//! L1 run. All table I/O is charged to the backing device, which is where
//! the paper's write-amplification and latency-instability observations
//! come from.

use crate::db::DbConfig;
use crate::db::{Inner, State};
use crate::memtable::MemTable;
use crate::sstable::{merge_runs, SsTable};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A unit of background work.
pub(crate) enum CompactionJob {
    /// Flush the oldest frozen memtable (WAL release mark attached).
    Flush(Arc<MemTable>, u64),
    /// Merge these L0 tables (by id) and the current L1.
    Compact(Vec<Arc<SsTable>>, Option<Arc<SsTable>>),
}

/// Choose the next job under the state lock, flushes first.
pub(crate) fn pick_job(st: &mut State, cfg: &DbConfig) -> Option<CompactionJob> {
    if let (Some(imm), Some(mark)) = (st.imms.front(), st.freeze_marks.front()) {
        return Some(CompactionJob::Flush(Arc::clone(imm), *mark));
    }
    if st.l0.len() >= cfg.l0_compact_threshold {
        return Some(CompactionJob::Compact(st.l0.clone(), st.l1.clone()));
    }
    None
}

/// The worker loop. Exits when the DB shuts down and no work remains.
pub(crate) fn run(inner: Arc<Inner>) {
    loop {
        let job = {
            let mut st = inner.state.lock();
            loop {
                if let Some(job) = pick_job(&mut st, &inner.cfg) {
                    break Some(job);
                }
                if st.shutdown {
                    break None;
                }
                inner.work_cv.wait(&mut st);
            }
        };
        let Some(job) = job else { return };
        match job {
            CompactionJob::Flush(imm, mark) => {
                let ops: Vec<_> = imm.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                let id = inner.table_seq.fetch_add(1, Ordering::Relaxed);
                let table = SsTable::build(id, ops);
                let bytes = table.bytes();
                // Device charge can only fail on injected faults. The table
                // is built in memory regardless, so the flush proceeds — but
                // the failure is accounted, never silently discarded.
                if inner.charge_table_write(bytes).is_err() {
                    inner.stats.table_io_errors.inc();
                }
                {
                    let mut st = inner.state.lock();
                    st.l0.push(Arc::new(table));
                    st.imms.pop_front();
                    st.freeze_marks.pop_front();
                }
                inner.stats.flushes.inc();
                inner.stats.flush_bytes.add(bytes);
                inner.stall_cv.notify_all();
                let mut wal = inner.commit.lock();
                wal.drop_through(mark);
            }
            CompactionJob::Compact(l0s, l1) => {
                let read_bytes: u64 = l0s.iter().map(|t| t.bytes()).sum::<u64>()
                    + l1.as_ref().map(|t| t.bytes()).unwrap_or(0);
                let start = Instant::now();
                let mut at = start;
                match inner.charge_table_read(read_bytes, &mut at) {
                    Ok(()) => inner.wait(start, at),
                    Err(_) => inner.stats.table_io_errors.inc(),
                }
                // Newest first: L0 back-to-front, then L1.
                let mut runs: Vec<&[_]> = l0s.iter().rev().map(|t| t.entries()).collect();
                if let Some(l1) = &l1 {
                    runs.push(l1.entries());
                }
                let merged = merge_runs(&runs, true);
                let id = inner.table_seq.fetch_add(1, Ordering::Relaxed);
                let table = SsTable::build(id, merged);
                let out_bytes = table.bytes();
                if inner.charge_table_write(out_bytes).is_err() {
                    inner.stats.table_io_errors.inc();
                }
                {
                    let mut st = inner.state.lock();
                    let taken: Vec<u64> = l0s.iter().map(|t| t.id()).collect();
                    st.l0.retain(|t| !taken.contains(&t.id()));
                    st.l1 = Some(Arc::new(table));
                }
                inner.stats.compactions.inc();
                inner.stats.compact_read_bytes.add(read_bytes);
                inner.stats.compact_write_bytes.add(out_bytes);
                inner.stall_cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::db::{Db, DbConfig, WriteOptions};
    use afc_device::{Nvram, NvramConfig};
    use bytes::Bytes;
    use std::sync::Arc;

    #[test]
    fn pick_job_prefers_flush() {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        let cfg = DbConfig {
            memtable_bytes: 256,
            l0_compact_threshold: 1,
            ..DbConfig::default()
        };
        let db = Db::open(dev, cfg).unwrap();
        // Fill enough that a freeze happens; the worker may have already
        // drained it, so just assert the API doesn't wedge.
        for i in 0..50 {
            db.put(
                Bytes::from(format!("k{i}")),
                Bytes::from(vec![0u8; 32]),
                WriteOptions::async_(),
            )
            .unwrap();
        }
        let _ = db.pick_job_for_test();
        db.flush().unwrap();
        db.wait_idle();
        assert!(db.stats().flushes.get() >= 1);
    }
}
