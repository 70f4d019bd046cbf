//! An LSM-tree key-value store — the LevelDB/RocksDB substrate.
//!
//! Ceph's filestore keeps object omap data and the PG log in an LSM
//! key-value DB. The paper's light-weight transaction work exists largely
//! because of this component's behaviour under small random writes:
//!
//! - **Write amplification** (§3.4): "when a client writes a total of 2GB
//!   using 4MB block size, 30MB of additional data is written. However, if
//!   the block size is 4KB instead, 2GB of additional data is written."
//!   Compaction rewrites resident data; the smaller the entries, the more
//!   often levels churn. [`DbStatsCell::write_amplification`] exposes the ratio.
//! - **Unstable latency**: "latency of each requested operation becomes
//!   unstable because key-value DB performs compaction or construction of
//!   immutable table". We reproduce this with real background flush and
//!   compaction plus write **stalls** when they fall behind.
//! - **Batched insertion**: the light-weight transaction folds all of a
//!   transaction's keys into one [`WriteBatch`] (one WAL device write, one
//!   memtable pass) instead of one put per key.
//!
//! Structure: an active [`memtable::MemTable`] backed by a WAL on the
//! configured device; frozen memtables flush to L0 SSTables; L0 compacts
//! into a single sorted L1 run. All device traffic (WAL appends, flushes,
//! compaction reads/writes) is charged to the underlying [`afc_device::BlockDev`] so
//! upper layers see realistic timing and the stats see real amplification.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod batch;
pub mod compaction;
pub mod db;
pub mod memtable;
pub mod sstable;
pub mod stats;
pub mod wal;

pub use batch::WriteBatch;
pub use db::{Db, DbConfig, WriteOptions};
pub use stats::DbStatsCell;

/// Key type (cheaply clonable).
pub type Key = bytes::Bytes;
/// Value type (cheaply clonable).
pub type Value = bytes::Bytes;
