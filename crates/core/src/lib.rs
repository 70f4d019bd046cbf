//! The scale-out object store core: OSDs, PGs, replication, clients.
//!
//! This crate is the paper's subject. It implements a Ceph-like OSD with
//! **both** I/O paths:
//!
//! - the **community** path — coarse PG locking (workers block on held PG
//!   locks; journal/filestore completions and replica acks all re-acquire
//!   the PG lock through shared queues), blocking debug logging, HDD-sized
//!   throttles, Nagle on, heavyweight filestore transactions; and
//! - the **AFCeph** path — per-PG pending queues, dedicated completion
//!   with per-op locks (the thread that commits a journal record runs its
//!   continuation; no completion thread), fast-path ack processing, SSD
//!   throttles, jemalloc-style allocation behaviour, Nagle off,
//!   non-blocking logging and light-weight transactions.
//!
//! Every optimization is independently switchable via [`OsdTuning`], which
//! is how the Figure 9 stepwise ablation is produced.
//!
//! ```no_run
//! use afc_core::{Cluster, OsdTuning};
//! use afc_common::{BlockTarget, GIB};
//!
//! let cluster = Cluster::builder()
//!     .nodes(4)
//!     .osds_per_node(4)
//!     .replication(2)
//!     .tuning(OsdTuning::afceph())
//!     .build()
//!     .unwrap();
//! let img = cluster.create_image("vm0", GIB).unwrap();
//! img.write_at(0, &vec![0u8; 4096]).unwrap();
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
pub mod cluster;
pub mod messages;
pub mod monitor;
pub mod osd;
pub mod qos;
pub mod tuning;

pub use client::rados::RadosClient;
pub use client::rbd::RbdImage;
pub use cluster::{Cluster, ClusterBuilder, DeviceProfile, ScrubReport};
pub use messages::{ObjectOp, OpOutcome, OsdMsg};
pub use monitor::{FailureConfig, Monitor};
pub use osd::Osd;
pub use qos::{QosSpec, QosTag};
pub use tuning::{Allocator, LoggingMode, OsdTuning, ThrottleProfile};
