//! Write-ahead log for the memtable.
//!
//! Each committed batch appends one record. **Sync** commits charge the
//! backing device immediately; **async** commits buffer and are charged in
//! larger aggregated writes (group commit), which is how LevelDB's
//! non-sync writes behave. A device write is planned, not waited for: each
//! append takes the caller's instant (`at`), starts no earlier than the
//! log's previous write completes — one log writer, as if it held the
//! commit lock through the write — and moves `at` to its completion. Records are kept in memory for crash replay until
//! the covering memtable is durable in L0, after which
//! [`Wal::drop_through`] releases them.
//!
//! The size of WAL device traffic is where the baseline-vs-batched
//! difference shows up: N single-op commits cost N record headers and (when
//! sync) N device writes; one N-op batch costs a single record.

use crate::batch::BatchOp;
use afc_common::Result;
use afc_device::{BlockDev, IoReq, StreamId};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Per-record header overhead (sequence, checksum, length framing).
pub const RECORD_HEADER: u64 = 24;

struct Record {
    ops: Vec<BatchOp>,
    durable: bool,
}

/// The write-ahead log. Not internally synchronized: [`crate::Db`]
/// serializes appends under its commit lock, matching LevelDB's single
/// log-writer design.
pub struct Wal {
    dev: Arc<dyn BlockDev>,
    cursor: u64,
    region: u64,
    records: VecDeque<Record>,
    appended_records: u64,
    dropped_records: u64,
    appended_bytes: u64,
    pending_async: u64,
    /// Completion of the latest planned log write.
    log_free_at: Instant,
}

impl Wal {
    /// Create a WAL over a device region of `region` bytes.
    pub fn new(dev: Arc<dyn BlockDev>, region: u64) -> Self {
        let region = region.min(dev.capacity()).max(4096);
        Wal {
            dev,
            cursor: 0,
            region,
            records: VecDeque::new(),
            appended_records: 0,
            dropped_records: 0,
            appended_bytes: 0,
            pending_async: 0,
            log_free_at: Instant::now(),
        }
    }

    /// Encoded size of a batch on the log.
    pub fn encoded_size(ops: &[BatchOp]) -> u64 {
        RECORD_HEADER
            + ops
                .iter()
                .map(|(k, v)| 8 + k.len() as u64 + v.as_ref().map(|v| v.len() as u64).unwrap_or(0))
                .sum::<u64>()
    }

    /// Plan one log write from `at` (or the previous write's completion,
    /// if later) and move `at` to its completion.
    fn device_write(&mut self, size: u64, at: &mut Instant) -> Result<()> {
        let size = size.clamp(1, self.region);
        if self.cursor + size > self.region {
            self.cursor = 0;
        }
        let req = IoReq::write_stream(self.cursor, size as u32, StreamId::KvWal);
        *at = self
            .dev
            .plan_at(req, (*at).max(self.log_free_at))?
            .completion;
        self.log_free_at = *at;
        self.cursor += size;
        self.appended_bytes += size;
        Ok(())
    }

    /// Append a record and write it to the device (sync commit): `at`
    /// moves to the write's completion. Returns the bytes charged to the
    /// device.
    pub fn append_sync(&mut self, ops: &[BatchOp], at: &mut Instant) -> Result<u64> {
        let size = Self::encoded_size(ops) + self.pending_async;
        self.device_write(size, at)?;
        self.pending_async = 0;
        self.records.push_back(Record {
            ops: ops.to_vec(),
            durable: true,
        });
        self.appended_records += 1;
        // Earlier async records ride along on this sync write (group commit).
        for r in self.records.iter_mut() {
            r.durable = true;
        }
        Ok(size)
    }

    /// Append a record without forcing a device write (async commit).
    /// Buffered bytes are written once `group_bytes` accumulate (and `at`
    /// moves to that write's completion); returns the bytes charged to the
    /// device (0 when only buffered).
    pub fn append_async(
        &mut self,
        ops: &[BatchOp],
        group_bytes: u64,
        at: &mut Instant,
    ) -> Result<u64> {
        self.pending_async += Self::encoded_size(ops);
        self.records.push_back(Record {
            ops: ops.to_vec(),
            durable: false,
        });
        self.appended_records += 1;
        if self.pending_async >= group_bytes {
            let size = self.pending_async;
            self.device_write(size, at)?;
            self.pending_async = 0;
            for r in self.records.iter_mut() {
                r.durable = true;
            }
            return Ok(size);
        }
        Ok(0)
    }

    /// Force any buffered async bytes to the device; `at` moves to the
    /// write's completion.
    pub fn sync(&mut self, at: &mut Instant) -> Result<u64> {
        if self.pending_async == 0 {
            return Ok(0);
        }
        let size = self.pending_async;
        self.device_write(size, at)?;
        self.pending_async = 0;
        for r in self.records.iter_mut() {
            r.durable = true;
        }
        Ok(size)
    }

    /// Cumulative count of records ever appended (freeze marks).
    pub fn appended_records(&self) -> u64 {
        self.appended_records
    }

    /// Drop buffered records up to cumulative mark `mark` (their memtable
    /// is durable in L0 now).
    pub fn drop_through(&mut self, mark: u64) {
        while self.dropped_records < mark {
            if self.records.pop_front().is_none() {
                break;
            }
            self.dropped_records += 1;
        }
    }

    /// Replayable records (oldest first). `durable_only` models a power
    /// failure: async records never written to the device are lost.
    pub fn replay_records(&self, durable_only: bool) -> Vec<&[BatchOp]> {
        self.records
            .iter()
            .filter(|r| !durable_only || r.durable)
            .map(|r| r.ops.as_slice())
            .collect()
    }

    /// Simulate a crash: discard records that never reached the device.
    pub fn drop_volatile(&mut self) {
        let before = self.records.len() as u64;
        self.records.retain(|r| r.durable);
        let lost = before - self.records.len() as u64;
        // Lost records still advanced appended_records; account them as
        // dropped so later marks stay consistent.
        self.dropped_records += lost;
        self.pending_async = 0;
    }

    /// Number of currently buffered (replayable) records.
    pub fn buffered_len(&self) -> usize {
        self.records.len()
    }

    /// Total bytes ever charged to the device.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_device::{Nvram, NvramConfig};
    use bytes::Bytes;

    fn ops(n: usize) -> Vec<BatchOp> {
        (0..n)
            .map(|i| {
                (
                    Bytes::from(format!("key{i:04}")),
                    Some(Bytes::from(vec![0u8; 100])),
                )
            })
            .collect()
    }

    fn wal() -> Wal {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g().with_capacity(1 << 20)));
        Wal::new(dev, 1 << 20)
    }

    #[test]
    fn sync_append_charges_device() {
        let mut w = wal();
        let charged = w.append_sync(&ops(3), &mut Instant::now()).unwrap();
        assert!(charged > 0);
        assert_eq!(w.buffered_len(), 1);
        assert_eq!(w.appended_records(), 1);
        assert_eq!(w.appended_bytes(), charged);
    }

    #[test]
    fn async_appends_group_commit() {
        let mut w = wal();
        let mut charged_total = 0;
        let mut writes = 0;
        for _ in 0..100 {
            let c = w.append_async(&ops(1), 4096, &mut Instant::now()).unwrap();
            if c > 0 {
                writes += 1;
                charged_total += c;
            }
        }
        assert!(writes < 100, "grouping did not happen");
        assert!(writes > 0);
        assert!(charged_total > 0);
        assert_eq!(w.buffered_len(), 100);
    }

    #[test]
    fn sync_flushes_pending_async() {
        let mut w = wal();
        w.append_async(&ops(1), u64::MAX, &mut Instant::now())
            .unwrap();
        assert_eq!(w.replay_records(true).len(), 0);
        let c = w.sync(&mut Instant::now()).unwrap();
        assert!(c > 0);
        assert_eq!(w.replay_records(true).len(), 1);
        assert_eq!(w.sync(&mut Instant::now()).unwrap(), 0);
    }

    #[test]
    fn drop_through_uses_cumulative_marks() {
        let mut w = wal();
        for _ in 0..5 {
            w.append_sync(&ops(1), &mut Instant::now()).unwrap();
        }
        let mark = w.appended_records(); // 5
        for _ in 0..3 {
            w.append_sync(&ops(1), &mut Instant::now()).unwrap();
        }
        w.drop_through(mark);
        assert_eq!(w.buffered_len(), 3);
        // Dropping the same mark again is a no-op.
        w.drop_through(mark);
        assert_eq!(w.buffered_len(), 3);
        w.drop_through(w.appended_records());
        assert_eq!(w.buffered_len(), 0);
    }

    #[test]
    fn crash_loses_only_volatile_records() {
        let mut w = wal();
        w.append_sync(&ops(1), &mut Instant::now()).unwrap();
        w.append_async(&ops(2), u64::MAX, &mut Instant::now())
            .unwrap();
        assert_eq!(w.replay_records(false).len(), 2);
        w.drop_volatile();
        let kept = w.replay_records(false);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].len(), 1);
    }

    #[test]
    fn sync_append_makes_prior_async_durable() {
        let mut w = wal();
        w.append_async(&ops(1), u64::MAX, &mut Instant::now())
            .unwrap();
        w.append_sync(&ops(1), &mut Instant::now()).unwrap();
        assert_eq!(w.replay_records(true).len(), 2);
    }

    #[test]
    fn batched_record_smaller_than_singles() {
        let batch = ops(10);
        let batched = Wal::encoded_size(&batch);
        let singles: u64 = batch
            .iter()
            .map(|op| Wal::encoded_size(std::slice::from_ref(op)))
            .sum();
        assert_eq!(singles - batched, 9 * RECORD_HEADER);
    }
}
