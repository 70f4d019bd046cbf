//! The filestore: Ceph's object store backend, rebuilt.
//!
//! A Ceph OSD persists objects through the *filestore*: object data lives in
//! files on a local filesystem, object metadata in xattrs, and omap/PG-log
//! data in an LSM key-value DB. A write arrives as a **transaction**
//! ([`txn::Transaction`]) bundling `OP_WRITE`, `OP_SETATTRS`,
//! `OP_OMAP_SETKEYS`, `OP_SETALLOCHINT`... (§3.4, Figure 7).
//!
//! This crate reproduces the two execution modes the paper compares:
//!
//! - **Community** ([`TxnProfile::Community`]): every op re-opens its file
//!   (syscalls), `set-alloc-hint` is issued even for random small writes,
//!   every omap key is a separate synchronous KV commit, and object
//!   metadata is **read back from storage during the write path**
//!   (read-modify-write) — which on flash interferes with in-flight writes.
//! - **Light-weight transactions** ([`TxnProfile::Lightweight`]): one open
//!   per transaction (FD cache), redundant ops deduplicated, all KV keys in
//!   one [`afc_kvstore::WriteBatch`], `set-alloc-hint` skipped for small
//!   writes, and a **write-through metadata cache** eliminates the
//!   metadata reads entirely.
//!
//! Apply concurrency is `apply_threads` lanes planned in modeled time (see
//! [`store`]; no thread runs per lane), fed through the **filestore
//! throttle** (`filestore_queue_max_ops`) — the HDD-sized default is the
//! source of the Figure 4 backlog; the paper retunes it for SSDs (§3.2).
//! A lane is planned by whichever thread next touches the store; a thread
//! that waits for an apply's callback holds a [`store::ApplyDemand`], and
//! only then does the store's one backstop thread plan lanes as they fall
//! free.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::let_underscore_must_use)]

pub mod metacache;
pub mod simfs;
pub mod store;
pub mod throttle;
pub mod txn;

pub use metacache::{MetaCache, ObjectMeta};
pub use simfs::{PlannedRead, SimFs};
pub use store::{ApplyDemand, FileStore, FileStoreConfig, TxnProfile};
pub use throttle::Throttle;
pub use txn::{Transaction, TxOp};
